"""Approval-voting counterfactual, and the model it shares with STAR.

The behavioral model: bullet voters support exactly their candidate;
two-way top-overvote voters support both pair members; all-way
overvoters are excluded; voters with a full ranking always support their
first choice, never their third, and give their second choice a
per-group value on a :class:`Scale`.  Under approval a supported
candidate gets one approval and the second-choice value is an approval
rate ``p`` in [0, 1]; :mod:`ballotlab.star` puts the same model on a
star scale.  Group scores are therefore affine in each value, and
everything here is computed in exact rational arithmetic -- rounding
happens only at display time.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import CondensedProfile, Record
from .errors import UnattainableError
from .rational import decimal_string, exact_rational, fraction_token
from .report import CSV, Cell, Column, Report, emit_range_plot_data

Group = tuple[str, str]  # (first choice, second choice)


def _require_roster(profile: CondensedProfile) -> None:
    if not 2 <= len(profile.candidates) <= 3:
        raise ValueError(f"this model needs 2 or 3 candidates, got {len(profile.candidates)}")


class Scale(Record):
    """The model's scores on one voting method's scale.

    A supported first choice scores ``first_weight``; a second choice
    scores its group's value in [``low``, ``high``], a whole number of
    hundredths when ``hundredths`` is set.  ``noun`` names one value in
    messages and ``given`` names what a scenario gives per group.
    """

    first_weight: int
    low: int
    high: int
    hundredths: bool
    noun: str
    given: str

    def resolution(self, value: Fraction, what: str) -> Fraction:
        """``value``, if the scale's resolution holds it; ``what`` names it in errors."""
        if self.hundredths and 100 % value.denominator:
            raise ValueError(f"{what} must be a whole number of hundredths, got {value}")
        return value

    def value(self, value, what: str) -> Fraction:
        """``value`` as an exact point of the scale; ``what`` names it in errors."""
        value = exact_rational(value, what)
        if not self.low <= value <= self.high:
            raise ValueError(f"{what} must lie in [{self.low}, {self.high}], got {value}")
        return self.resolution(value, what)

    def grid(self, step, start, end) -> tuple[Fraction, Fraction, Fraction]:
        """A sweep grid's checked ``(step, start, end)``, with ``0 < step <= high - low``."""
        step = exact_rational(step, "grid step")
        if not 0 < step <= self.high - self.low:
            raise ValueError(f"grid step must lie in (0, {self.high - self.low}], got {step}")
        step = self.resolution(step, "grid step")
        start, end = self.value(start, "grid start"), self.value(end, "grid end")
        if start > end:
            raise ValueError("grid start must not exceed grid end")
        return step, start, end


APPROVAL = Scale(1, 0, 1, False, "approval rate", "rate")


class Scenario(Record):
    """Per-group second-choice values, held in the subclass's one field.

    Each subclass sets the class attribute ``scale``, which checks the
    values and gives unlisted groups their floor value.  Every key must be
    a ``(first, second)`` tuple of two names.
    """

    def __post_init__(self) -> None:
        (field,) = self.__slots__
        checked = {}
        for g, v in getattr(self, field).items():
            if not isinstance(g, tuple) or [type(c) for c in g] != [str, str]:
                raise ValueError(f"{self.scale.given} given for {g!r}, not a pair of names")
            checked[g] = self.scale.value(v, f"{self.scale.noun} for {g[0]}>{g[1]}")
        object.__setattr__(self, field, checked)

    @classmethod
    def uniform(cls, profile: CondensedProfile, value):
        return cls(dict.fromkeys(profile.ranking_groups(), value))

    @classmethod
    def for_profile(cls, profile: CondensedProfile, values: dict[Group, object]):
        """Scenario over all of the profile's groups; unlisted groups get the scale's floor."""
        return cls(cls.resolve(profile, values))

    @classmethod
    def resolve(cls, profile: CondensedProfile, values: dict[Group, object]) -> dict:
        """``values`` for every group of the profile; an unknown group raises ``ValueError``."""
        groups = profile.ranking_groups()
        unknown = set(values) - set(groups)
        if unknown:
            raise ValueError(f"{cls.scale.given} given for unknown group {'>'.join(min(unknown))}")
        return {g: values.get(g, cls.scale.low) for g in groups}

    def scores(self, profile: CondensedProfile) -> dict[str, Fraction]:
        """Exact score per candidate: guaranteed support plus each group's second choices."""
        _require_roster(profile)
        return self.scores_over(profile, score_lines(profile, self.scale.first_weight)[0])

    def scores_over(self, profile: CondensedProfile, base: dict[str, int]) -> dict[str, Fraction]:
        """``base``, the :func:`score_lines` base, plus each group's second choices."""
        (field,) = self.__slots__
        sizes = profile.group_sizes()
        scores = {c: Fraction(n) for c, n in base.items()}
        for group, value in self.resolve(profile, getattr(self, field)).items():
            scores[group[1]] += value * sizes[group]
        return scores


class ApprovalScenario(Scenario):
    """Second-choice approval rate per full-ranking group, each in [0, 1]."""

    rates: dict[Group, Fraction]
    scale = APPROVAL


class ApprovalOutcome(Record):
    """Exact expected scores plus approvals-per-ballot diagnostics.

    ``winners`` lists every candidate achieving the top score (more than
    one entry means an exact tie, which is never broken silently).
    ``mean_approvals_ranking_voters`` averages over full-ranking voters
    only (their guaranteed first approval plus the modeled second-choice
    rate); ``mean_approvals_all_voters`` divides total approvals by
    every ballot that approves at least one candidate.
    """

    scores: dict[str, Fraction]
    winners: tuple[str, ...]
    mean_approvals_ranking_voters: Fraction
    mean_approvals_all_voters: Fraction


class ApprovalRange(Record):
    """Vote range per candidate: everyone at rate 0 vs everyone at rate 1."""

    minimum: dict[str, int]
    maximum: dict[str, int]


def score_lines(profile: CondensedProfile, first_weight: int) -> tuple[dict[str, int], dict[str, int]]:
    """Each candidate's score ``base + slope * t`` at a uniform second-choice value ``t``.

    ``base`` is the guaranteed support, ``first_weight`` per first choice
    and per two-way top overvote naming the candidate (an all-way one
    supports no one); ``slope`` counts the rankings placing the candidate
    second.  Approval weighs a first choice 1 with ``t`` the rate, STAR 5
    stars with ``t`` the rating.
    """
    base = profile.top_choices(profile.candidates)
    for pair, n in profile.two_way_overvotes():
        for c in pair:
            base[c] += n
    slope = dict.fromkeys(profile.candidates, 0)
    for prefs, n in profile.rankings():
        if len(prefs) > 1:
            slope[prefs[1]] += n
    return {c: first_weight * n for c, n in base.items()}, slope


def check_pair(profile: CondensedProfile, a: str, b: str, roles: str) -> None:
    """Refuse one candidate named twice, or one off the roster; ``roles`` names the pair."""
    if a == b:
        raise ValueError(f"{roles} must differ")
    for c in (a, b):
        if c not in profile.candidates:
            raise ValueError(f"{c!r} is not on the roster")


def score_range(profile: CondensedProfile, scale: Scale) -> tuple[dict[str, int], dict[str, int]]:
    """Each candidate's score with every second choice at the scale's floor, and at its cap."""
    _require_roster(profile)
    base, slope = score_lines(profile, scale.first_weight)
    return ({c: b + scale.low * slope[c] for c, b in base.items()},
            {c: b + scale.high * slope[c] for c, b in base.items()})


def approval_range(profile: CondensedProfile) -> ApprovalRange:
    """Minimum and maximum possible approval count per candidate."""
    return ApprovalRange(*score_range(profile, APPROVAL))


def _winners(scores: dict[str, int | Fraction], order: tuple[str, ...]) -> tuple[str, ...]:
    top = max(scores.values())
    return tuple(c for c in order if scores[c] == top)


def evaluate_approval(profile: CondensedProfile, scenario: ApprovalScenario) -> ApprovalOutcome:
    """Exact expected approval scores under the scenario."""
    _require_roster(profile)
    base, slope = score_lines(profile, APPROVAL.first_weight)
    scores = scenario.scores_over(profile, base)
    total_approvals = sum(scores.values())
    second_approvals = total_approvals - sum(base.values())

    rankers = sum(slope.values())
    mean_rankers = 1 + second_approvals / rankers if rankers else Fraction(1)
    participating = profile.total_with_preference
    mean_all = total_approvals / participating if participating else Fraction(0)

    return ApprovalOutcome(
        scores=scores,
        winners=_winners(scores, profile.candidates),
        mean_approvals_ranking_voters=mean_rankers,
        mean_approvals_all_voters=mean_all,
    )


def uniform_threshold(profile: CondensedProfile, riser: str, leader: str) -> Fraction | None:
    """Least uniform rate at which ``riser`` catches ``leader``, if any.

    The scores are affine in the uniform rate, so the crossing solves
    exactly: ``p* = (base_leader - base_riser) / (slope_riser -
    slope_leader)``.  Returns ``None`` when no rate in [0, 1] suffices.
    """
    check_pair(profile, riser, leader, "riser and leader")
    base, slope = score_lines(profile, APPROVAL.first_weight)
    gap = base[leader] - base[riser]
    if gap <= 0:
        return Fraction(0)
    rise = slope[riser] - slope[leader]
    if rise <= 0:
        return None
    p = Fraction(gap, rise)
    return p if p <= 1 else None


def min_second_votes_to_clinch(profile: CondensedProfile, candidate: str, from_group: Group) -> int:
    """Fewest second-choice approvals from one group that guarantee victory.

    The target is to strictly exceed every rival's maximum possible
    count.  Raises :class:`UnattainableError` (carrying the required
    number) when the group is too small to supply it, and ``ValueError``
    first on a roster of other than 2 or 3 candidates, then when the group
    does not rank ``candidate`` second or is not a (first, second) pair of
    distinct candidates on the roster.
    """
    _require_roster(profile)
    if from_group[1] != candidate:
        raise ValueError(
            f"group {from_group[0]}>{from_group[1]} does not rank {candidate!r} second"
        )
    rng = approval_range(profile)
    if from_group not in profile.ranking_groups():
        raise ValueError(f"unknown group {from_group[0]}>{from_group[1]}")
    target = max(n for c, n in rng.maximum.items() if c != candidate)
    needed = max(target - rng.minimum[candidate] + 1, 0)
    group_size = profile.full_count(*from_group)
    if needed > group_size:
        raise UnattainableError(
            f"{candidate} needs {needed} second-choice votes to clinch, but the "
            f"{from_group[0]}>{from_group[1]} group has only {group_size} "
            f"{'voter' if group_size == 1 else 'voters'}",
            required=needed,
        )
    return needed


def sweep_uniform(profile: CondensedProfile, grid_step, *, start=APPROVAL.low,
                  end=APPROVAL.high) -> list[tuple[Fraction, tuple[str, ...]]]:
    """Winners at every uniform rate ``start, start+step, ...`` up to ``end``; see :func:`sweep`."""
    return sweep(profile, APPROVAL, grid_step, start, end,
                 lambda scores: _winners(scores, profile.candidates))


def sweep(profile: CondensedProfile, scale: Scale, grid_step, start, end,
          winners) -> list[tuple[Fraction, tuple[str, ...]]]:
    """``(t, winners(scores))`` at every uniform value ``t`` of a grid on ``scale``.

    Closed form: each grid point is ``t = n/d`` over one denominator ``d =
    lcm(start.denominator, step.denominator)``, and ``scores`` holds the
    integers ``base * d + slope * n`` (see :func:`score_lines`): ``d`` times
    the scores at ``t``, so the same order and ties.  The lines and ``base *
    d`` are computed once per call, whatever the grid size.
    """
    _require_roster(profile)
    step, start, end = scale.grid(grid_step, start, end)
    base, slope = score_lines(profile, scale.first_weight)
    d = lcm(start.denominator, step.denominator)
    base = {c: b * d for c, b in base.items()}
    first, n_step = int(start * d), int(step * d)
    return [(Fraction(n, d), winners({c: b + slope[c] * n for c, b in base.items()}))
            for n in range(first, first + n_step * ((end - start) // step + 1), n_step)]


# Command-line report builders: (parsed arguments, profile) -> Report.
def roster_group(profile: CondensedProfile, group: Group) -> Group:
    """The profile's group spelled ``first>second`` as ``group`` is (``group`` if none, a
    ``ValueError`` if two): a flag splits at its first ``>``, a raw CVR's names may hold one."""
    found = [g for g in profile.ranking_groups() if ">".join(g) == ">".join(group)]
    if len(found) > 1:
        raise ValueError(f"group {'>'.join(group)} is ambiguous: it reads as "
                         + ", or as ".join(f"{a!r} then {b!r}" for a, b in found))
    return found[0] if found else group


def scenario_rates(args, profile: CondensedProfile, flag: str) -> dict[Group, object]:
    """The per-group values of ``--<flag>`` and the repeatable ``--<flag>-group``."""
    rates: dict[Group, object] = {}
    uniform = getattr(args, flag)
    if uniform is not None:
        value = exact_rational(uniform, f"--{flag}")
        rates = {g: value for g in profile.ranking_groups()}
    given: set[Group] = set()
    for group, raw in getattr(args, f"{flag}_group") or []:
        group = roster_group(profile, group)
        if group in given:
            raise ValueError(f"--{flag}-group repeats group {group[0]}>{group[1]}")
        given.add(group)
        rates[group] = exact_rational(raw, f"--{flag}-group")
    return rates


def range_table(args, profile: CondensedProfile, scale: Scale, title: str) -> Report | bytes:
    """``approval range`` and ``star range``: :func:`score_range` on the model's scale."""
    if args.plot_data and args.format not in (None, CSV):
        raise ValueError(f"--plot-data writes CSV and cannot take --format {args.format}")
    minimum, maximum = score_range(profile, scale)
    if args.plot_data:
        return emit_range_plot_data(minimum, profile, scale.high - scale.low)
    return Report(title, (Column("candidate"), Column("min", "int"), Column("max", "int")),
                  [(c, minimum[c], maximum[c]) for c in profile.candidates])


def range_report(args, profile: CondensedProfile) -> Report | bytes:
    return range_table(args, profile, APPROVAL, "Approval voting: possible vote ranges")


def eval_report(args, profile: CondensedProfile) -> Report:
    scenario = ApprovalScenario.for_profile(profile, scenario_rates(args, profile, "p"))
    outcome = evaluate_approval(profile, scenario)
    return Report.items("Approval voting: scenario outcome", [
        *((f"score {c}", Cell(outcome.scores[c], "decimal2")) for c in profile.candidates),
        ("winner", "|".join(outcome.winners)),
        ("mean_approvals_ranking_voters", Cell(outcome.mean_approvals_ranking_voters, "decimal3")),
        ("mean_approvals_all_voters", Cell(outcome.mean_approvals_all_voters, "decimal3")),
    ])


def threshold_report(args, profile: CondensedProfile) -> Report:
    _require_roster(profile)
    p = uniform_threshold(profile, args.riser, args.leader)
    if p is None:
        raise UnattainableError(
            f"{args.riser} cannot catch {args.leader} at any uniform "
            "second-choice approval rate in [0, 1]"
        )
    outcome = evaluate_approval(profile, ApprovalScenario.uniform(profile, p))
    return Report.items("Approval voting: uniform crossover threshold", [
        ("riser", args.riser),
        ("leader", args.leader),
        ("threshold_p", Cell(p, "decimal4")),
        ("mean_approvals_ranking_voters", Cell(outcome.mean_approvals_ranking_voters, "decimal3")),
        ("mean_approvals_all_voters", Cell(outcome.mean_approvals_all_voters, "decimal3")),
    ], notes=[
        f"p* = {fraction_token(p)} ≈ {decimal_string(p, 4)} "
        f"(≈ {decimal_string(outcome.mean_approvals_ranking_voters, 3)} "
        "approvals per ranking voter)"
    ])


def clinch_report(args, profile: CondensedProfile) -> Report:
    group = roster_group(profile, args.group)
    needed = min_second_votes_to_clinch(profile, args.candidate, group)
    rng = approval_range(profile)
    return Report.items("Approval voting: clinch requirement", [
        ("candidate", args.candidate),
        ("group", ">".join(group)),
        ("group_size", Cell(profile.full_count(*group), "int")),
        ("required_votes", Cell(needed, "int")),
        ("guaranteed_total", Cell(rng.minimum[args.candidate] + needed, "int")),
        ("best_rival_maximum",
         Cell(max(n for c, n in rng.maximum.items() if c != args.candidate), "int")),
    ])


def sweep_report(args, profile: CondensedProfile) -> Report:
    start, end, step = args.grid
    points = sweep_uniform(profile, step, start=start, end=end)
    return Report("Approval voting: uniform-rate sweep",
                  (Column("p", "decimal4"), Column("winner")), [(t, "|".join(w)) for t, w in points])
