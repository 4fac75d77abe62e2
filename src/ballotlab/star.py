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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .approval import Group
from .core import CondensedProfile
from .errors import DecisiveTieError, UnattainableError
from .rational import bounded_rational, exact_rational

_MIN_STARS = Fraction(1)
_MAX_STARS = Fraction(4)


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


@dataclass(frozen=True)
class StarScenario:
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
            raise ValueError(f"stars given for unknown group {sorted(unknown)[0]!r}")
        return cls({g: stars.get(g, 1) for g in groups})


@dataclass(frozen=True)
class StarOutcome:
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


@dataclass(frozen=True)
class StarRange:
    """Score range per candidate: all second choices at 1 star vs at 4."""

    minimum: dict[str, int]
    maximum: dict[str, int]


@dataclass(frozen=True)
class StarThreshold:
    """Least uniform second-choice rating that locks in a runoff berth."""

    stars: Fraction
    achieved_score: Fraction
    rival_maximum: int


def _base_scores(profile: CondensedProfile) -> dict[str, int]:
    # Guaranteed stars: 5 per first-place vote, two-way top ties included.
    return {c: 5 * n for c, n in profile.first_place_totals(include_top_ties=True).items()}


def star_range(profile: CondensedProfile) -> StarRange:
    """Minimum and maximum possible star score per candidate."""
    if len(profile.candidates) != 3:
        raise ValueError(
            f"score ranges need exactly 3 candidates, got {len(profile.candidates)}"
        )
    base = _base_scores(profile)
    second = profile.second_place_totals()
    return StarRange(
        minimum={c: base[c] + 1 * second[c] for c in profile.candidates},
        maximum={c: base[c] + 4 * second[c] for c in profile.candidates},
    )


def _pattern_scores(profile: CondensedProfile, scenario: StarScenario):
    """Yield ``(score lookup, ballot count)`` per pattern; all-way overvotes excluded."""
    for c, n in profile.bullet.items():
        yield {c: Fraction(5)}.get, n
    for group, n in profile.full.items():
        first, second = group
        yield {first: Fraction(5), second: scenario.stars[group]}.get, n
    for pair, n in profile.over2.items():
        yield {c: Fraction(5) for c in pair}.get, n


def _head_to_head(profile: CondensedProfile, scenario: StarScenario, a: str, b: str):
    """Ballot-level score comparison between two candidates.

    Returns ``(votes_a, votes_b, both_scored_equal)``; ballots scoring
    neither candidate are left out entirely.
    """
    votes_a = votes_b = no_pref = 0
    zero = Fraction(0)
    for score_of, n in _pattern_scores(profile, scenario):
        sa = score_of(a, zero)
        sb = score_of(b, zero)
        if sa > sb:
            votes_a += n
        elif sb > sa:
            votes_b += n
        elif sa > 0:
            no_pref += n
    return votes_a, votes_b, no_pref


def _pick_finalists(profile: CondensedProfile, scenario: StarScenario,
                    scores: dict[str, Fraction]) -> tuple[str, str]:
    candidates = profile.candidates
    if len(candidates) == 2:
        return candidates
    ordered = sorted(candidates, key=lambda c: scores[c], reverse=True)
    if scores[ordered[1]] > scores[ordered[2]]:
        pair = ordered[:2]
    elif scores[ordered[0]] > scores[ordered[1]]:
        # Two-way tie for the second berth: the head-to-head between the
        # tied candidates decides it.
        x, y = ordered[1], ordered[2]
        vx, vy, _ = _head_to_head(profile, scenario, x, y)
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


def evaluate_star(profile: CondensedProfile, scenario: StarScenario) -> StarOutcome:
    """Score round, finalist selection, and automatic runoff."""
    _require_small_roster(profile)
    scores = {c: Fraction(n) for c, n in _base_scores(profile).items()}
    for group, s in scenario.stars.items():
        scores[group[1]] += s * profile.full_count(*group)

    finalists = _pick_finalists(profile, scenario, scores)
    a, b = finalists
    votes_a, votes_b, no_pref = _head_to_head(profile, scenario, a, b)
    if votes_a > votes_b:
        winners: tuple[str, ...] = (a,)
    elif votes_b > votes_a:
        winners = (b,)
    else:
        winners = finalists
    return StarOutcome(
        scores=scores,
        finalists=finalists,
        runoff_tallies={a: votes_a, b: votes_b},
        runoff_no_preference=no_pref,
        winners=winners,
    )


def uniform_star_threshold(profile: CondensedProfile, guaranteed: str, rival: str) -> StarThreshold:
    """Least hundredth-of-a-star rating that puts ``guaranteed`` past ``rival``.

    Scans the 0.01 grid over [1, 4] for the first rating at which
    ``guaranteed``'s score -- with all groups ranking them second at that
    rating -- strictly exceeds the best score ``rival`` could possibly
    reach.  Raises :class:`UnattainableError` when even 4 stars fall
    short.
    """
    if guaranteed == rival:
        raise ValueError("guaranteed and rival must differ")
    for c in (guaranteed, rival):
        if c not in profile.candidates:
            raise ValueError(f"{c!r} is not on the roster")
    base = _base_scores(profile)
    slope = profile.second_place_totals()
    rival_max = base[rival] + 4 * slope[rival]

    for hundredths in range(100, 401):
        s = Fraction(hundredths, 100)
        achieved = base[guaranteed] + s * slope[guaranteed]
        if achieved > rival_max:
            return StarThreshold(stars=s, achieved_score=achieved, rival_maximum=rival_max)
    raise UnattainableError(
        f"{guaranteed} cannot exceed {rival}'s maximum score {rival_max} even at "
        "4 stars from every second-choice voter",
        required=None,
    )


def sweep_star(
    profile: CondensedProfile,
    grid_step,
    *,
    start=1,
    end=4,
) -> list[tuple[Fraction, tuple[str, ...]]]:
    """Winners at every uniform rating ``start, start+step, ...`` up to ``end``."""
    step = exact_rational(grid_step, "grid step")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if 100 % step.denominator:
        raise ValueError(f"grid step must be a whole number of hundredths, got {step}")
    start = _star_value(start, "grid start")
    end = _star_value(end, "grid end")
    if start > end:
        raise ValueError("grid start must not exceed grid end")

    points: list[tuple[Fraction, tuple[str, ...]]] = []
    k = 0
    while (s := start + k * step) <= end:
        outcome = evaluate_star(profile, StarScenario.uniform(profile, s))
        points.append((s, outcome.winners))
        k += 1
    return points
