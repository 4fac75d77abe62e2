"""Approval-voting counterfactual: the model of :mod:`ballotlab.scoring` on a scale
where a supported candidate gets one approval and a second choice an approval rate
``p`` in [0, 1]."""

from __future__ import annotations

from fractions import Fraction

from .core import CondensedProfile, Record
from .errors import UnattainableError
from .rational import decimal_string, fraction_token
from .report import Cell, Column, Report
from .scoring import (Group, Scale, Scenario, ScoreRange, check_pair, range_table, require_roster,
                      roster_group, scenario_rates, score_lines, score_range, sweep)

APPROVAL = Scale(1, 0, 1, False, "approval rate", "rate")


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


def approval_range(profile: CondensedProfile) -> ScoreRange:
    """Minimum and maximum possible approval count per candidate."""
    return score_range(profile, APPROVAL)


def _winners(scores: dict[str, int | Fraction], order: tuple[str, ...]) -> tuple[str, ...]:
    top = max(scores.values())
    return tuple(c for c in order if scores[c] == top)


def evaluate_approval(profile: CondensedProfile, scenario: ApprovalScenario) -> ApprovalOutcome:
    """Exact expected approval scores under the scenario."""
    base, slope = score_lines(profile, APPROVAL.first_weight)
    scores = scenario.scores(profile)
    total_approvals = sum(scores.values())
    second_approvals = total_approvals - sum(base.values())

    rankers = sum(slope.values())  # each ranking places one candidate second
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
    require_roster(profile)
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
    """Winners at every uniform rate ``start, start+step, ...`` up to ``end``; see
    :func:`ballotlab.scoring.sweep`."""
    return sweep(profile, APPROVAL, grid_step, start, end,
                 lambda scores: _winners(scores, profile.candidates))


# Command-line report builders: (parsed arguments, profile) -> Report.
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
    require_roster(profile)
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
