"""STAR-voting counterfactual: score round plus automatic runoff.

The behavioral model is the shared one of :mod:`ballotlab.scoring`
on a 0-5 star scale: a supported first choice or two-way top-overvote
pair member gets 5 stars, a third choice 0, and all-way overvoters are
excluded.  Voters with a full ranking keep their preference order alive
for the runoff, so their second choice receives an average of at least 1
star and -- the runoff being a strong disincentive to max out two
candidates -- at most 4, in hundredths of a star.  Scores are therefore
exact rationals with denominators dividing 100, and threshold arithmetic
is bit-exact.

The runoff compares the two finalists ballot by ballot.  Since any
rating in [1, 4] lies strictly between 5 stars and 0, it is the
include-ties head-to-head count (:meth:`CondensedProfile.preferences`):
a two-way top overvote of both finalists records "no preference", and a
ballot scoring neither carries no runoff vote.  No scenario changes it,
so a sweep counts the preferences once and compares integer scores per
grid point against them, and a threshold solves its score line for the
least hundredth.
"""

from __future__ import annotations

from fractions import Fraction

from .core import CondensedProfile, Record
from .errors import DecisiveTieError, UnattainableError
from .rational import decimal_string
from .report import Cell, Column, Report
from .scoring import (Group, Scale, Scenario, ScoreRange, check_pair, range_table, scenario_rates,
                      score_lines, score_range, sweep)

STAR = Scale(5, 1, 4, True, "star rating", "stars")


class StarScenario(Scenario):
    """Average stars given to each group's second choice, each in [1, 4]."""

    stars: dict[Group, Fraction]
    scale = STAR


class StarOutcome(Record):
    """Score round plus runoff.

    ``finalists`` is the top-two pair in roster order.  ``winners`` has
    two entries only on an exact runoff tie, which is reported rather
    than broken.
    """

    scores: dict[str, Fraction]
    finalists: tuple[str, str]
    runoff_tallies: dict[str, int]
    runoff_no_preference: int
    winners: tuple[str, ...]


class StarThreshold(Record):
    """Least uniform second-choice rating that locks in a runoff berth."""

    stars: Fraction
    achieved_score: Fraction
    rival_maximum: int


def star_range(profile: CondensedProfile) -> ScoreRange:
    """Minimum and maximum possible star score per candidate."""
    return score_range(profile, STAR)


def _pick_finalists(candidates: tuple[str, ...], scores: dict[str, int | Fraction],
                    prefers: dict[tuple[str, str], int]) -> tuple[str, str]:
    ordered = sorted(candidates, key=lambda c: scores[c], reverse=True)
    if len(ordered) == 2 or scores[ordered[1]] > scores[ordered[2]]:
        pair = ordered[:2]
    elif scores[ordered[0]] > scores[ordered[1]]:
        # Two-way tie for the second berth: the head-to-head between the
        # tied candidates decides it.
        x, y = ordered[1], ordered[2]
        if prefers[x, y] == prefers[y, x]:
            raise DecisiveTieError(
                f"score and head-to-head both tie {x} with {y} for the second "
                "runoff spot",
                tied=(x, y),
            )
        pair = [ordered[0], x if prefers[x, y] > prefers[y, x] else y]
    else:
        raise DecisiveTieError(
            "all three candidates tied in the score round", tied=tuple(ordered)
        )
    return tuple(c for c in candidates if c in pair)  # type: ignore[return-value]


def _runoff(candidates: tuple[str, ...], scores: dict[str, int | Fraction],
            prefers: dict[tuple[str, str], int]) -> tuple[tuple[str, str], tuple[str, ...]]:
    """Finalists and the runoff's winners, both on an exact tie."""
    finalists = a, b = _pick_finalists(candidates, scores, prefers)
    if prefers[a, b] > prefers[b, a]:
        return finalists, (a,)
    if prefers[b, a] > prefers[a, b]:
        return finalists, (b,)
    return finalists, finalists


def evaluate_star(profile: CondensedProfile, scenario: StarScenario) -> StarOutcome:
    """Score round, finalist selection, and automatic runoff."""
    scores = scenario.scores(profile)
    prefers = profile.preferences(include_ties=True)
    finalists, winners = _runoff(profile.candidates, scores, prefers)
    a, b = finalists
    return StarOutcome(
        scores=scores,
        finalists=finalists,
        runoff_tallies={a: prefers[a, b], b: prefers[b, a]},
        runoff_no_preference=profile.over2_count(a, b),
        winners=winners,
    )


def uniform_star_threshold(profile: CondensedProfile, guaranteed: str, rival: str) -> StarThreshold:
    """Least hundredth-of-a-star rating that puts ``guaranteed`` past ``rival``.

    The least rating at which ``guaranteed``'s score -- with all groups
    ranking them second at that rating -- strictly exceeds the best score
    ``rival`` could possibly reach.  Closed form: with ``guaranteed``'s
    line ``base + slope * s``, the answer is the least hundredth ``h`` of
    the scale's band with ``h * slope > 100 * (rival_max - base)``.  Raises
    :class:`UnattainableError` when even the band's top falls short.
    """
    check_pair(profile, guaranteed, rival, "guaranteed and rival")
    base, slope = score_lines(profile, STAR.first_weight)
    rival_max = base[rival] + STAR.high * slope[rival]

    shortfall = 100 * (rival_max - base[guaranteed])
    gain = slope[guaranteed]
    if 100 * STAR.high * gain <= shortfall:
        raise UnattainableError(
            f"{guaranteed} cannot exceed {rival}'s maximum score {rival_max} even at "
            f"{STAR.high} stars from every second-choice voter",
            required=None,
        )
    hundredths = max(100 * STAR.low, shortfall // gain + 1 if gain else 0)
    s = Fraction(hundredths, 100)
    return StarThreshold(stars=s, achieved_score=base[guaranteed] + s * gain, rival_maximum=rival_max)


def sweep_star(profile: CondensedProfile, grid_step, *, start=STAR.low,
               end=STAR.high) -> list[tuple[Fraction, tuple[str, ...]]]:
    """Winners at every uniform rating ``start, start+step, ...`` up to ``end``.

    See :func:`ballotlab.scoring.sweep`; the runoff preferences, which
    no rating in [1, 4] changes, are counted once per call.  A score-round
    tie raises :class:`DecisiveTieError` at the first grid point where it
    occurs.
    """
    prefers = profile.preferences(include_ties=True)
    return sweep(profile, STAR, grid_step, start, end,
                 lambda scores: _runoff(profile.candidates, scores, prefers)[1])


# Command-line report builders: (parsed arguments, profile) -> Report.
def range_report(args, profile: CondensedProfile) -> Report | bytes:
    return range_table(args, profile, STAR, "STAR voting: possible score ranges")


def eval_report(args, profile: CondensedProfile) -> Report:
    scenario = StarScenario.for_profile(profile, scenario_rates(args, profile, "s"))
    outcome = evaluate_star(profile, scenario)
    return Report.items("STAR voting: scenario outcome", [
        *((f"score {c}", Cell(outcome.scores[c], "decimal2")) for c in profile.candidates),
        ("finalists", "|".join(outcome.finalists)),
        *((f"runoff {c}", Cell(outcome.runoff_tallies[c], "int")) for c in outcome.finalists),
        ("runoff_no_preference", Cell(outcome.runoff_no_preference, "int")),
        ("winner", "|".join(outcome.winners)),
    ])


def threshold_report(args, profile: CondensedProfile) -> Report:
    result = uniform_star_threshold(profile, args.guaranteed, args.rival)
    return Report.items("STAR voting: guaranteed-berth threshold", [
        ("guaranteed", args.guaranteed),
        ("rival", args.rival),
        ("threshold_stars", Cell(result.stars, "decimal2")),
        ("achieved_score", Cell(result.achieved_score, "decimal2")),
        ("rival_maximum", Cell(result.rival_maximum, "int")),
    ], notes=[
        f"s = {decimal_string(result.stars, 2)} → score "
        f"{decimal_string(result.achieved_score, 2)} > rival maximum {result.rival_maximum}"
    ])


def sweep_report(args, profile: CondensedProfile) -> Report:
    start, end, step = args.grid
    points = sweep_star(profile, step, start=start, end=end)
    return Report("STAR voting: uniform-rating sweep",
                  (Column("s", "decimal2"), Column("winner")), [(t, "|".join(w)) for t, w in points])
