"""STAR-voting counterfactual: score round plus automatic runoff.

The behavioral model mirrors the approval one but on a 0-5 star scale:
first choices get 5 stars, third choices 0, two-way top overvotes give
both pair members 5, all-way overvoters are excluded.  Voters with a
full ranking keep their preference order alive for the runoff, so their
second choice receives an average of at least 1 star and -- the runoff
being a strong disincentive to max out two candidates -- at most 4.

Scores are exact rationals with denominators dividing 100 (the scenario
resolution is a hundredth of a star), so threshold arithmetic is
bit-exact.  The runoff compares the two finalists ballot by ballot; a
ballot scoring both finalists equally and above zero records "no
preference", and one scoring neither carries no runoff vote at all.

Uniform questions are answered in closed form.  At a uniform rating
``s`` every candidate scores ``base + slope * s`` (5 stars per
guaranteed first-place vote plus ``s`` per second-place ranking), and
because any rating in [1, 4] lies strictly between a first choice's 5
stars and a third choice's 0, no scenario changes how a ballot compares
two candidates: the runoff tallies are one fixed table per profile.  A
sweep therefore compares integer scores per grid point against that
table, and a threshold solves its line for the least hundredth.
"""

from __future__ import annotations

from fractions import Fraction

from .approval import Group, grid_scores, score_lines
from .core import CondensedProfile, Record
from .errors import DecisiveTieError, UnattainableError
from .rational import bounded_rational, exact_rational

_MIN_STARS = Fraction(1)
_MAX_STARS = Fraction(4)

# Runoff counts ``(votes_a, votes_b, no_preference)`` per ordered pair ``(a, b)``.
RunoffTable = dict[tuple[str, str], tuple[int, int, int]]


def _star_value(value, what: str) -> Fraction:
    value = bounded_rational(value, _MIN_STARS, _MAX_STARS, what)
    if 100 % value.denominator:
        raise ValueError(f"{what} must be a whole number of hundredths, got {value}")
    return value


def _require_small_roster(profile: CondensedProfile) -> None:
    if not 2 <= len(profile.candidates) <= 3:
        raise ValueError(
            f"this model needs 2 or 3 candidates, got {len(profile.candidates)}"
        )


class StarScenario(Record):
    """Average stars given to each group's second choice, each in [1, 4]."""

    stars: dict[Group, Fraction]

    def __post_init__(self) -> None:
        checked = {
            g: _star_value(s, f"star rating for {g[0]}>{g[1]}")
            for g, s in self.stars.items()
        }
        object.__setattr__(self, "stars", checked)

    @classmethod
    def uniform(cls, profile: CondensedProfile, s) -> "StarScenario":
        return cls({g: s for g in profile.ranking_groups()})

    @classmethod
    def for_profile(cls, profile: CondensedProfile, stars: dict[Group, object]) -> "StarScenario":
        """Scenario over all of the profile's groups; unlisted groups get 1."""
        groups = profile.ranking_groups()
        unknown = set(stars) - set(groups)
        if unknown:
            raise ValueError(f"stars given for unknown group {'>'.join(min(unknown))}")
        return cls({g: stars.get(g, 1) for g in groups})


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


class StarRange(Record):
    """Score range per candidate: all second choices at 1 star vs at 4."""

    minimum: dict[str, int]
    maximum: dict[str, int]


class StarThreshold(Record):
    """Least uniform second-choice rating that locks in a runoff berth."""

    stars: Fraction
    achieved_score: Fraction
    rival_maximum: int


def star_range(profile: CondensedProfile) -> StarRange:
    """Minimum and maximum possible star score per candidate."""
    if len(profile.candidates) != 3:
        raise ValueError(
            f"score ranges need exactly 3 candidates, got {len(profile.candidates)}"
        )
    base, slope = score_lines(profile, 5)
    return StarRange(
        minimum={c: base[c] + 1 * slope[c] for c in profile.candidates},
        maximum={c: base[c] + 4 * slope[c] for c in profile.candidates},
    )


def _pattern_levels(profile: CondensedProfile):
    """Yield ``(star level lookup, ballot count)`` per pattern; all-way overvotes excluded.

    Levels order the stars a ballot gives: 2 for a first choice or a
    two-way top overvote (5 stars), 1 for a second choice (1-4 stars);
    an unscored candidate is level 0.
    """
    for c, n in profile.bullet.items():
        yield {c: 2}.get, n
    for (first, second), n in profile.full.items():
        yield {first: 2, second: 1}.get, n
    for pair, n in profile.over2.items():
        yield dict.fromkeys(pair, 2).get, n


def _head_to_head(profile: CondensedProfile, a: str, b: str) -> tuple[int, int, int]:
    """Ballot-level score comparison between two candidates.

    Returns ``(votes_a, votes_b, both_scored_equal)``; ballots scoring
    neither candidate are left out entirely.
    """
    votes_a = votes_b = no_pref = 0
    for level_of, n in _pattern_levels(profile):
        la = level_of(a, 0)
        lb = level_of(b, 0)
        if la > lb:
            votes_a += n
        elif lb > la:
            votes_b += n
        elif la:
            no_pref += n
    return votes_a, votes_b, no_pref


def _runoff_table(profile: CondensedProfile) -> RunoffTable:
    """:func:`_head_to_head` for every ordered candidate pair; the same under every scenario."""
    table: RunoffTable = {}
    for a, b in profile.candidate_pairs():
        votes_a, votes_b, no_pref = _head_to_head(profile, a, b)
        table[(a, b)] = votes_a, votes_b, no_pref
        table[(b, a)] = votes_b, votes_a, no_pref
    return table


def _pick_finalists(candidates: tuple[str, ...], scores: dict[str, int | Fraction],
                    table: RunoffTable) -> tuple[str, str]:
    if len(candidates) == 2:
        return candidates
    ordered = sorted(candidates, key=lambda c: scores[c], reverse=True)
    if scores[ordered[1]] > scores[ordered[2]]:
        pair = ordered[:2]
    elif scores[ordered[0]] > scores[ordered[1]]:
        # Two-way tie for the second berth: the head-to-head between the
        # tied candidates decides it.
        x, y = ordered[1], ordered[2]
        vx, vy, _ = table[(x, y)]
        if vx == vy:
            raise DecisiveTieError(
                f"score and head-to-head both tie {x} with {y} for the second "
                "runoff spot",
                tied=(x, y),
            )
        pair = [ordered[0], x if vx > vy else y]
    else:
        raise DecisiveTieError(
            "all three candidates tied in the score round", tied=tuple(ordered)
        )
    return tuple(c for c in candidates if c in pair)  # type: ignore[return-value]


def _runoff(candidates: tuple[str, ...], scores: dict[str, int | Fraction], table: RunoffTable):
    """Finalists, their runoff ``(votes_a, votes_b, no_preference)`` and the winners."""
    finalists = _pick_finalists(candidates, scores, table)
    a, b = finalists
    tallies = table[finalists]
    votes_a, votes_b, _ = tallies
    if votes_a > votes_b:
        winners: tuple[str, ...] = (a,)
    elif votes_b > votes_a:
        winners = (b,)
    else:
        winners = finalists
    return finalists, tallies, winners


def evaluate_star(profile: CondensedProfile, scenario: StarScenario) -> StarOutcome:
    """Score round, finalist selection, and automatic runoff."""
    _require_small_roster(profile)
    base, _ = score_lines(profile, 5)
    scores = {c: Fraction(n) for c, n in base.items()}
    for group, s in scenario.stars.items():
        scores[group[1]] += s * profile.full_count(*group)

    finalists, (votes_a, votes_b, no_pref), winners = _runoff(
        profile.candidates, scores, _runoff_table(profile)
    )
    a, b = finalists
    return StarOutcome(
        scores=scores,
        finalists=finalists,
        runoff_tallies={a: votes_a, b: votes_b},
        runoff_no_preference=no_pref,
        winners=winners,
    )


def uniform_star_threshold(profile: CondensedProfile, guaranteed: str, rival: str) -> StarThreshold:
    """Least hundredth-of-a-star rating that puts ``guaranteed`` past ``rival``.

    The least rating at which ``guaranteed``'s score -- with all groups
    ranking them second at that rating -- strictly exceeds the best score
    ``rival`` could possibly reach.  Closed form: with ``guaranteed``'s
    line ``base + slope * s``, the answer is the least hundredth ``h`` in
    [100, 400] with ``h * slope > 100 * (rival_max - base)``.  Raises
    :class:`UnattainableError` when even 4 stars fall short.
    """
    if guaranteed == rival:
        raise ValueError("guaranteed and rival must differ")
    for c in (guaranteed, rival):
        if c not in profile.candidates:
            raise ValueError(f"{c!r} is not on the roster")
    base, slope = score_lines(profile, 5)
    rival_max = base[rival] + 4 * slope[rival]

    shortfall = 100 * (rival_max - base[guaranteed])
    gain = slope[guaranteed]
    if 400 * gain <= shortfall:
        raise UnattainableError(
            f"{guaranteed} cannot exceed {rival}'s maximum score {rival_max} even at "
            "4 stars from every second-choice voter",
            required=None,
        )
    hundredths = max(100, shortfall // gain + 1) if gain else 100
    s = Fraction(hundredths, 100)
    return StarThreshold(stars=s, achieved_score=base[guaranteed] + s * gain, rival_maximum=rival_max)


def sweep_star(
    profile: CondensedProfile,
    grid_step,
    *,
    start=1,
    end=4,
) -> list[tuple[Fraction, tuple[str, ...]]]:
    """Winners at every uniform rating ``start, start+step, ...`` up to ``end``.

    Closed form: at rating ``s = n/d`` each candidate scores ``base +
    slope * s``, compared as the integer ``base * d + slope * n``, and
    the runoff table, which no rating in [1, 4] changes, is computed once
    per call.  A score-round tie raises :class:`DecisiveTieError` at the
    first grid point where it occurs.
    """
    step = exact_rational(grid_step, "grid step")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if 100 % step.denominator:
        raise ValueError(f"grid step must be a whole number of hundredths, got {step}")
    start = _star_value(start, "grid start")
    end = _star_value(end, "grid end")
    if start > end:
        raise ValueError("grid start must not exceed grid end")

    _require_small_roster(profile)
    base, slope = score_lines(profile, 5)
    table = _runoff_table(profile)
    points: list[tuple[Fraction, tuple[str, ...]]] = []
    for n, d, scaled in grid_scores(base, slope, start, end, step):
        _, _, winners = _runoff(profile.candidates, scaled, table)
        points.append((Fraction(n, d), winners))
    return points
