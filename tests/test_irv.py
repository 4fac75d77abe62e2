from fractions import Fraction

import pytest

from ballotlab import (
    CondensedProfile,
    DecisiveTieError,
    irv_percentages,
    tabulate_irv,
)

from .oracles import zero_profile

ABC = ("A", "B", "C")


def bullets(**counts) -> CondensedProfile:
    return CondensedProfile(ABC, {(c,): n for c, n in counts.items()})


class TestAlaska:
    def test_round_one(self, alaska_profile):
        outcome = tabulate_irv(alaska_profile)
        first = outcome.rounds[0]
        assert first.tallies == {"Begich": 54009, "Palin": 58939, "Peltola": 75803}
        assert first.active_ballots == 188751
        assert first.eliminated == "Begich"
        assert first.transfers == {}
        assert first.exhausted_this_round == 0

    def test_transfers_and_final_round(self, alaska_profile):
        outcome = tabulate_irv(alaska_profile)
        final = outcome.rounds[1]
        assert final.transfers == {"Palin": 27258, "Peltola": 15572}
        assert final.exhausted_this_round == 11179
        assert final.tallies == {"Palin": 86197, "Peltola": 91375}
        assert final.active_ballots == 177572
        assert final.eliminated is None
        assert outcome.winner == "Peltola"

    def test_overvotes_reported_not_counted(self, alaska_profile):
        outcome = tabulate_irv(alaska_profile)
        assert outcome.invalid_overvotes == 234

    def test_conservation(self, alaska_profile):
        outcome = tabulate_irv(alaska_profile)
        for prev, nxt in zip(outcome.rounds, outcome.rounds[1:]):
            assert nxt.active_ballots == prev.active_ballots - nxt.exhausted_this_round
            moved = sum(nxt.transfers.values()) + nxt.exhausted_this_round
            assert moved == prev.tallies[prev.eliminated]

    def test_percentages_both_bases(self, alaska_profile):
        shares = irv_percentages(tabulate_irv(alaska_profile))
        final = shares[-1]
        assert final.of_active["Peltola"] == Fraction(91375, 177572)
        assert final.of_round1["Peltola"] == Fraction(91375, 188751)


class TestSmallProfiles:
    def test_immediate_majority(self):
        outcome = tabulate_irv(bullets(A=3, B=1))
        assert outcome.winner == "A"
        assert len(outcome.rounds) == 1
        assert outcome.rounds[0].tallies["A"] == 3

    def test_exact_half_is_not_a_majority(self):
        profile = CondensedProfile(ABC, {("A",): 3, ("C",): 1, ("B", "A"): 2})
        outcome = tabulate_irv(profile)
        # A holds exactly half in round 1, so elimination must continue.
        assert outcome.rounds[0].eliminated == "C"
        assert len(outcome.rounds) == 2
        assert outcome.winner == "A"

    def test_decisive_tie_raises(self):
        with pytest.raises(DecisiveTieError) as info:
            tabulate_irv(bullets(A=1, B=1, C=2))
        assert set(info.value.tied) == {"A", "B"}

    def test_roster_policy_breaks_ties(self):
        outcome = tabulate_irv(bullets(A=1, B=1, C=2), break_ties_by_roster=True)
        # The tied candidate latest in roster order is the one eliminated.
        assert outcome.rounds[0].eliminated == "B"
        assert outcome.winner == "C"

    def test_single_candidate_race(self):
        profile = CondensedProfile(("A",), {("A",): 7})
        outcome = tabulate_irv(profile)
        assert outcome.winner == "A"
        shares = irv_percentages(outcome)
        assert shares[0].of_active["A"] == 1
        assert shares[0].of_round1["A"] == 1

    def test_exhausted_ballots_never_error(self):
        profile = CondensedProfile(ABC, {("A",): 4, ("B",): 3, ("C",): 2})
        outcome = tabulate_irv(profile)
        assert outcome.winner == "A"
        assert outcome.rounds[-1].exhausted_this_round == 2

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            tabulate_irv(zero_profile(ABC))

    def test_winner_has_strict_majority(self, alaska_profile):
        outcome = tabulate_irv(alaska_profile)
        final = outcome.rounds[-1]
        assert 2 * final.tallies[outcome.winner] > final.active_ballots

    def test_deterministic(self, alaska_profile):
        assert tabulate_irv(alaska_profile) == tabulate_irv(alaska_profile)
