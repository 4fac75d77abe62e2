"""Pairwise head-to-head tallies and center-squeeze diagnosis.

Bullet ballots rank their candidate above everyone else and express no
preference among the rest; full rankings place first above second above
the remaining candidates.  The default ``ranked-only`` basis uses just
those patterns.  The ``include-ties`` basis additionally lets a two-way
top overvote prefer both of its pair over outsiders while abstaining
within the pair; all-way overvotes never contribute on either basis.
"""

from __future__ import annotations

from fractions import Fraction

from .core import CondensedProfile, Record
from .report import Cell, Column, Report

RANKED_ONLY = "ranked-only"
INCLUDE_TIES = "include-ties"


class PairwiseTally(Record):
    """Head-to-head counts over every candidate pair.

    For each ordered pair ``(a, b)``, ``prefers[(a, b)]`` counts ballots
    ranking ``a`` above ``b``; ``no_preference`` holds the remainder, so
    the three numbers for a pair always sum to ``total``.
    """

    candidates: tuple[str, ...]
    basis: str
    prefers: dict[tuple[str, str], int]
    no_preference: dict[frozenset[str], int]
    total: int

    def pair_share(self, a: str, b: str) -> Fraction | None:
        """Share of the two-way vote won by ``a`` against ``b``."""
        two_way = self.prefers[(a, b)] + self.prefers[(b, a)]
        if two_way == 0:
            return None
        return Fraction(self.prefers[(a, b)], two_way)


class CondorcetReport(Record):
    """Condorcet winner/loser plus the two-way share for each ordered pair."""

    winner: str | None
    loser: str | None
    margins: dict[tuple[str, str], Fraction]


class CenterSqueeze(Record):
    """Whether instant-runoff counting eliminated the Condorcet winner."""

    squeezed: bool
    condorcet_winner: str | None
    irv_winner: str
    condorcet_winner_eliminated_in_round: int | None


def pairwise_tallies(profile: CondensedProfile, basis: str = RANKED_ONLY) -> PairwiseTally:
    """Tally every head-to-head contest implied by the profile; the counts
    are :meth:`CondensedProfile.preferences` on the basis."""
    if basis not in (RANKED_ONLY, INCLUDE_TIES):
        raise ValueError(f"unknown basis {basis!r}")

    include_ties = basis == INCLUDE_TIES
    total = profile.total_with_preference if include_ties else profile.total_valid_ranked
    prefers = profile.preferences(include_ties)
    no_preference = {frozenset((a, b)): total - prefers[a, b] - prefers[b, a]
                     for a, b in profile.candidate_pairs()}
    return PairwiseTally(profile.candidates, basis, prefers, no_preference, total)


def condorcet_winner_loser(tally: PairwiseTally) -> CondorcetReport:
    """Identify the candidates beating (losing to) every rival, if any."""
    winner = loser = None
    for c in tally.candidates:
        others = [x for x in tally.candidates if x != c]
        if others and all(tally.prefers[(c, x)] > tally.prefers[(x, c)] for x in others):
            winner = c
        if others and all(tally.prefers[(x, c)] > tally.prefers[(c, x)] for x in others):
            loser = c

    margins = {}
    for a, b in tally.prefers:
        share = tally.pair_share(a, b)
        if share is not None:
            margins[(a, b)] = share
    return CondorcetReport(winner=winner, loser=loser, margins=margins)


def detect_center_squeeze(profile: CondensedProfile) -> CenterSqueeze:
    """Diagnose whether the Condorcet winner fell before the final round.

    Uses the ranked-only basis; propagates the tabulator's tie error.
    """
    from .irv import tabulate_irv  # here, so head-to-head commands compile no IRV code
    report = condorcet_winner_loser(pairwise_tallies(profile, RANKED_ONLY))
    outcome = tabulate_irv(profile)

    eliminated_in = None
    if report.winner is not None:
        for rnd in outcome.rounds:
            if rnd.eliminated == report.winner:
                eliminated_in = rnd.round_index
                break
    return CenterSqueeze(
        squeezed=eliminated_in is not None,
        condorcet_winner=report.winner,
        irv_winner=outcome.winner,
        condorcet_winner_eliminated_in_round=eliminated_in,
    )


# Command-line report builders: (parsed arguments, profile) -> Report.
def pairwise_report(args, profile: CondensedProfile) -> Report:
    tally = pairwise_tallies(profile, args.basis)

    report = Report(
        title=f"Head-to-head tallies ({args.basis})",
        columns=(
            Column("candidate_a"),
            Column("candidate_b"),
            Column("prefers_a", "int"),
            Column("prefers_b", "int"),
            Column("no_preference", "int"),
            Column("share_a", "percent"),
            Column("share_b", "percent"),
        ),
    )
    for a, b in profile.candidate_pairs():
        share_a = tally.pair_share(a, b)
        share_b = tally.pair_share(b, a)
        report.add(
            a, b, tally.prefers[(a, b)], tally.prefers[(b, a)],
            tally.no_preference[frozenset((a, b))],
            "" if share_a is None else share_a,
            "" if share_b is None else share_b,
        )
    report.notes.append(f"ballots in basis: {tally.total}")
    return report


def condorcet_report(args, profile: CondensedProfile) -> Report:
    result = condorcet_winner_loser(pairwise_tallies(profile, RANKED_ONLY))
    return Report.items("Condorcet analysis (ranked-only)", [
        ("condorcet_winner", result.winner or "(none)"),
        ("condorcet_loser", result.loser or "(none)"),
        *((f"share {x} vs {y}", Cell(share, "percent"))
          for (x, y), share in result.margins.items()),
    ])


def squeeze_report(args, profile: CondensedProfile) -> Report:
    diag = detect_center_squeeze(profile)
    eliminated = diag.condorcet_winner_eliminated_in_round
    return Report.items("Center-squeeze diagnostic", [
        ("squeezed", "true" if diag.squeezed else "false"),
        ("condorcet_winner", diag.condorcet_winner or "(none)"),
        ("irv_winner", diag.irv_winner),
        ("condorcet_winner_eliminated_in_round",
         Cell(eliminated, "int") if eliminated is not None else "(never)"),
    ])
