"""Instant-runoff tabulation over a condensed profile.

Only first-place rankings count in each round.  When no candidate holds
a strict majority of the active ballots, the unique lowest candidate is
eliminated and their ballots move to the next-ranked continuing
candidate or exhaust.  Overvote ballots are invalid under this method
and are excluded up front (their count is reported).
"""

from __future__ import annotations

from fractions import Fraction

from .core import CondensedProfile, Record
from .errors import DecisiveTieError, NoValidBallotsError


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

    An exact tie for the lowest tally is a :class:`DecisiveTieError`
    unless ``break_ties_by_roster`` is set, in which case the tied
    candidate latest in roster order is eliminated (useful for
    deterministic bulk runs, never for reporting a real contest).  A
    profile without a valid ranked ballot is a
    :class:`NoValidBallotsError`.
    """
    # Each valid ranked pattern is a preference list; overvotes are
    # invalid here and blanks never enter the count.
    groups: list[tuple[tuple[str, ...], int]] = []
    for c, n in profile.bullet.items():
        groups.append(((c,), n))
    for (first, second), n in profile.full.items():
        groups.append(((first, second), n))
    invalid_overvotes = profile.total_overvotes

    if profile.total_valid_ranked == 0:
        raise NoValidBallotsError("no valid ranked ballots to tabulate")

    continuing = list(profile.candidates)
    rounds: list[IrvRound] = []
    transfers: dict[str, int] = {}
    exhausted = 0
    round_index = 1

    while True:
        tallies = {c: 0 for c in continuing}
        for prefs, n in groups:
            for choice in prefs:
                if choice in continuing:
                    tallies[choice] += n
                    break
        active = sum(tallies.values())
        if active == 0:
            raise DecisiveTieError("every remaining ballot is exhausted")

        leader = max(continuing, key=lambda c: tallies[c])
        if 2 * tallies[leader] > active:
            rounds.append(IrvRound(round_index, tallies, active, transfers, exhausted, None))
            return IrvOutcome(tuple(rounds), leader, invalid_overvotes)

        lowest = min(tallies.values())
        tied = [c for c in continuing if tallies[c] == lowest]
        if len(tied) > 1 and not break_ties_by_roster:
            raise DecisiveTieError(
                f"exact tie for elimination between {', '.join(tied)}",
                tied=tuple(tied),
            )
        loser = tied[-1]

        rounds.append(IrvRound(round_index, tallies, active, transfers, exhausted, loser))

        next_continuing = [c for c in continuing if c != loser]
        transfers = {}
        exhausted = 0
        for prefs, n in groups:
            current = next((c for c in prefs if c in continuing), None)
            if current != loser:
                continue
            target = next((c for c in prefs if c in next_continuing), None)
            if target is None:
                exhausted += n
            else:
                transfers[target] = transfers.get(target, 0) + n
        continuing = next_continuing
        round_index += 1


def irv_percentages(outcome: IrvOutcome) -> tuple[RoundShares, ...]:
    """Vote shares per round against both denominators (exact fractions)."""
    round1_active = outcome.rounds[0].active_ballots
    shares = []
    for rnd in outcome.rounds:
        shares.append(
            RoundShares(
                of_active={c: Fraction(n, rnd.active_ballots) for c, n in rnd.tallies.items()},
                of_round1={c: Fraction(n, round1_active) for c, n in rnd.tallies.items()},
            )
        )
    return tuple(shares)
