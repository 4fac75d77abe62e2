"""Instant-runoff tabulation over a condensed profile.

Each ballot counts for its highest-ranked continuing candidate.  When no
candidate holds a strict majority of the active ballots, the unique
lowest candidate is eliminated; only their ballots move, to the
next-ranked continuing candidate, or exhaust.  Overvote ballots are
invalid under this method and are excluded up front (their count is
reported).
"""

from __future__ import annotations

from fractions import Fraction

from .core import CondensedProfile, Record
from .errors import DecisiveTieError, NoValidBallotsError
from .rational import percent_string
from .report import Column, Report


class IrvRound(Record):
    """One counting round.

    ``transfers`` and ``exhausted_this_round`` describe the ballots that
    arrived (or left) when the previous round's loser was eliminated;
    both are empty/zero in round 1.  ``eliminated`` names the candidate
    dropped at the end of this round, or ``None`` when the round ends
    the election.
    """

    round_index: int
    tallies: dict[str, int]
    active_ballots: int
    transfers: dict[str, int]
    exhausted_this_round: int
    eliminated: str | None


class IrvOutcome(Record):
    rounds: tuple[IrvRound, ...]
    winner: str
    invalid_overvotes: int


class RoundShares(Record):
    """Per-candidate vote shares for one round, on both denominators.

    ``of_active`` divides by the ballots active in that round;
    ``of_round1`` divides by the ballots active in round 1, which is the
    basis on which a "majority of all votes cast" claim would rest.
    """

    of_active: dict[str, Fraction]
    of_round1: dict[str, Fraction]


def tabulate_irv(profile: CondensedProfile, *, break_ties_by_roster: bool = False) -> IrvOutcome:
    """Run instant-runoff counting to a strict-majority winner.

    Each round's tallies are the continuing candidates'
    :meth:`CondensedProfile.top_choices`, so a ballot moves only when its
    choice is eliminated: a tally's rise is a transfer and a drop in
    active ballots is exhaustion.  An exact tie for the lowest tally is a
    :class:`DecisiveTieError` unless ``break_ties_by_roster`` is set, in
    which case the tied candidate latest in roster order is eliminated
    (useful for deterministic bulk runs, never for reporting a real
    contest).  A profile without a valid ranked ballot is a
    :class:`NoValidBallotsError`.
    """
    if not profile.rankings():
        raise NoValidBallotsError("no valid ranked ballots to tabulate")

    continuing = profile.candidates
    rounds: list[IrvRound] = []
    while True:
        tallies = profile.top_choices(continuing)
        active = sum(tallies.values())
        if active == 0:
            raise DecisiveTieError("every remaining ballot is exhausted")
        # Round 1 is measured against itself: no transfers, nothing exhausted.
        before = rounds[-1] if rounds else IrvRound(0, tallies, active, {}, 0, None)
        transfers = {c: n - before.tallies[c] for c, n in tallies.items() if n != before.tallies[c]}
        exhausted = before.active_ballots - active

        leader = max(continuing, key=lambda c: tallies[c])
        loser = None
        if 2 * tallies[leader] <= active:
            lowest = min(tallies.values())
            tied = [c for c in continuing if tallies[c] == lowest]
            if len(tied) > 1 and not break_ties_by_roster:
                raise DecisiveTieError(
                    f"exact tie for elimination between {', '.join(tied)}",
                    tied=tuple(tied),
                )
            loser = tied[-1]
        rounds.append(IrvRound(len(rounds) + 1, tallies, active, transfers, exhausted, loser))
        if loser is None:
            return IrvOutcome(tuple(rounds), leader, profile.total_overvotes)
        continuing = [c for c in continuing if c != loser]


def irv_percentages(outcome: IrvOutcome) -> tuple[RoundShares, ...]:
    """Vote shares per round against both denominators (exact fractions)."""
    round1_active = outcome.rounds[0].active_ballots
    return tuple(RoundShares(
        of_active={c: Fraction(n, rnd.active_ballots) for c, n in rnd.tallies.items()},
        of_round1={c: Fraction(n, round1_active) for c, n in rnd.tallies.items()},
    ) for rnd in outcome.rounds)


# The command-line report builder: (parsed arguments, profile) -> Report.
def irv_report(args, profile: CondensedProfile) -> Report:
    outcome = tabulate_irv(profile)
    shares = irv_percentages(outcome)

    report = Report(
        title="Instant-runoff rounds",
        columns=(
            Column("round", "int"),
            Column("candidate"),
            Column("votes", "int"),
            Column("share_active", "percent"),
            Column("share_round1", "percent"),
            Column("transfers_in", "int"),
            Column("exhausted_this_round", "int"),
            Column("active_ballots", "int"),
            Column("status"),
        ),
    )
    for rnd, share in zip(outcome.rounds, shares):
        for c, votes in rnd.tallies.items():
            if rnd.eliminated == c:
                status = "eliminated"
            elif rnd.eliminated is None and c == outcome.winner:
                status = "winner"
            else:
                status = "continuing"
            report.add(
                rnd.round_index, c, votes,
                share.of_active[c], share.of_round1[c],
                rnd.transfers.get(c, 0), rnd.exhausted_this_round,
                rnd.active_ballots, status,
            )
    report.notes.append(
        f"winner: {outcome.winner} with {percent_string(shares[-1].of_active[outcome.winner])} "
        f"of round-{outcome.rounds[-1].round_index} active ballots"
    )
    report.notes.append(f"invalid overvote ballots excluded: {outcome.invalid_overvotes}")
    return report
