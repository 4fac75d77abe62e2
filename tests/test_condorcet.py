from fractions import Fraction

import pytest

from ballotlab import (
    INCLUDE_TIES,
    RANKED_ONLY,
    CondensedProfile,
    condorcet_winner_loser,
    detect_center_squeeze,
    pairwise_tallies,
)

ABC = ("A", "B", "C")


class TestAlaskaPairwise:
    def test_ranked_only_tallies(self, alaska_profile):
        t = pairwise_tallies(alaska_profile)
        assert t.prefers[("Begich", "Palin")] == 101438
        assert t.prefers[("Palin", "Begich")] == 63666
        assert t.prefers[("Begich", "Peltola")] == 88126
        assert t.prefers[("Peltola", "Begich")] == 79486
        assert t.prefers[("Palin", "Peltola")] == 86197
        assert t.prefers[("Peltola", "Palin")] == 91375

    def test_ranked_only_accounting(self, alaska_profile):
        t = pairwise_tallies(alaska_profile)
        assert t.total == 188751
        for a, b in alaska_profile.candidate_pairs():
            pair = frozenset((a, b))
            assert t.prefers[(a, b)] + t.prefers[(b, a)] + t.no_preference[pair] == t.total
        # Bullet voters are the only ranked ballots without a preference.
        assert t.no_preference[frozenset(("Begich", "Peltola"))] == 21139

    def test_include_ties_tallies(self, alaska_profile):
        t = pairwise_tallies(alaska_profile, INCLUDE_TIES)
        assert t.total == 188929
        assert t.prefers[("Begich", "Peltola")] == 88126 + 86
        assert t.prefers[("Peltola", "Begich")] == 79486 + 30
        assert t.no_preference[frozenset(("Begich", "Peltola"))] == 21139 + 62

    def test_include_ties_dominates_ranked_only(self, alaska_profile):
        ranked = pairwise_tallies(alaska_profile, RANKED_ONLY)
        ties = pairwise_tallies(alaska_profile, INCLUDE_TIES)
        for key, votes in ranked.prefers.items():
            assert ties.prefers[key] >= votes

    def test_pair_shares(self, alaska_profile):
        t = pairwise_tallies(alaska_profile)
        assert t.pair_share("Begich", "Palin") == Fraction(101438, 101438 + 63666)
        assert t.pair_share("Peltola", "Palin") == Fraction(91375, 177572)


class TestCondorcetWinnerLoser:
    def test_alaska(self, alaska_profile):
        report = condorcet_winner_loser(pairwise_tallies(alaska_profile))
        assert report.winner == "Begich"
        assert report.loser == "Palin"

    def test_cycle_has_neither(self):
        profile = CondensedProfile(ABC, {("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1})
        report = condorcet_winner_loser(pairwise_tallies(profile))
        assert report.winner is None
        assert report.loser is None

    def test_two_candidate_majority(self):
        profile = CondensedProfile(("A", "B"), {("A",): 3, ("B",): 2})
        report = condorcet_winner_loser(pairwise_tallies(profile))
        assert report.winner == "A"
        assert report.loser == "B"

    def test_margins_match_shares(self, alaska_profile):
        t = pairwise_tallies(alaska_profile)
        report = condorcet_winner_loser(t)
        assert report.margins[("Begich", "Palin")] == t.pair_share("Begich", "Palin")


class TestCenterSqueeze:
    def test_alaska_is_squeezed(self, alaska_profile):
        diag = detect_center_squeeze(alaska_profile)
        assert diag.squeezed is True
        assert diag.condorcet_winner == "Begich"
        assert diag.irv_winner == "Peltola"
        assert diag.condorcet_winner_eliminated_in_round == 1

    def test_agreeing_winner_is_not_squeezed(self):
        profile = CondensedProfile(ABC, {("A",): 3, ("B",): 1, ("C",): 1})
        diag = detect_center_squeeze(profile)
        assert diag.condorcet_winner == "A"
        assert diag.irv_winner == "A"
        assert diag.squeezed is False
        assert diag.condorcet_winner_eliminated_in_round is None

    def test_cycle_is_vacuously_unsqueezed(self):
        profile = CondensedProfile(ABC, {("A", "B"): 4, ("B", "C"): 3, ("C", "A"): 2})
        assert condorcet_winner_loser(pairwise_tallies(profile)).winner is None
        diag = detect_center_squeeze(profile)
        assert diag.condorcet_winner is None
        assert diag.squeezed is False


def test_unknown_basis_is_named():
    with pytest.raises(ValueError, match="^unknown basis 'both'$"):
        pairwise_tallies(CondensedProfile(ABC, {("A",): 1}), "both")
