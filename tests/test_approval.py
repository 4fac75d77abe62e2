import re
from fractions import Fraction

import pytest

from ballotlab import (
    ApprovalScenario,
    CondensedProfile,
    UnattainableError,
    approval_range,
    evaluate_approval,
    min_second_votes_to_clinch,
    sweep_uniform,
    uniform_threshold,
)

from .oracles import zero_profile

ABC = ("A", "B", "C")


class TestApprovalRange:
    def test_alaska(self, alaska_profile):
        rng = approval_range(alaska_profile)
        assert rng.minimum == {"Begich": 54157, "Palin": 59055, "Peltola": 75895}
        assert rng.maximum == {"Begich": 135703, "Palin": 91040, "Peltola": 95150}

    def test_all_bullets_min_equals_max(self):
        profile = CondensedProfile(ABC, {("A",): 4, ("B",): 2, ("C",): 1})
        rng = approval_range(profile)
        assert rng.minimum == rng.maximum == {"A": 4, "B": 2, "C": 1}

    def test_zero_profile(self):
        rng = approval_range(zero_profile(ABC))
        assert rng.minimum == rng.maximum == {c: 0 for c in ABC}

    def test_requires_three_candidates(self):
        with pytest.raises(ValueError, match="3 candidates"):
            approval_range(zero_profile(("A", "B", "C", "D")))


class TestEvaluate:
    def test_everyone_bullet_votes(self, alaska_profile):
        outcome = evaluate_approval(alaska_profile, ApprovalScenario.uniform(alaska_profile, 0))
        assert outcome.scores == {"Begich": 54157, "Palin": 59055, "Peltola": 75895}
        assert outcome.winners == ("Peltola",)
        assert outcome.mean_approvals_ranking_voters == 1

    def test_everyone_approves_second(self, alaska_profile):
        outcome = evaluate_approval(alaska_profile, ApprovalScenario.uniform(alaska_profile, 1))
        assert outcome.scores == {"Begich": 135703, "Palin": 91040, "Peltola": 95150}
        assert outcome.winners == ("Begich",)
        assert outcome.mean_approvals_ranking_voters == 2

    def test_uniform_35_percent(self, alaska_profile):
        scenario = ApprovalScenario.uniform(alaska_profile, Fraction(35, 100))
        outcome = evaluate_approval(alaska_profile, scenario)
        assert outcome.scores["Begich"] == Fraction(826981, 10)   # 82698.1
        assert outcome.scores["Peltola"] == Fraction(330537, 4)   # 82634.25
        assert outcome.scores["Palin"] == Fraction(280999, 4)     # 70249.75
        assert outcome.winners == ("Begich",)

    def test_per_group_rates_only_move_the_second_choice(self, alaska_profile):
        base = evaluate_approval(alaska_profile, ApprovalScenario.uniform(alaska_profile, 0))
        scenario = ApprovalScenario.for_profile(
            alaska_profile, {("Peltola", "Begich"): Fraction(1, 2)}
        )
        outcome = evaluate_approval(alaska_profile, scenario)
        assert outcome.scores["Begich"] == base.scores["Begich"] + Fraction(47429, 2)
        assert outcome.scores["Palin"] == base.scores["Palin"]
        assert outcome.scores["Peltola"] == base.scores["Peltola"]

    def test_exact_tie_is_reported(self, alaska_profile):
        crossing = Fraction(21738, 62291)
        outcome = evaluate_approval(
            alaska_profile, ApprovalScenario.uniform(alaska_profile, crossing)
        )
        assert outcome.winners == ("Begich", "Peltola")

    def test_mean_approvals_all_voters(self, alaska_profile):
        p = Fraction(21738, 62291)
        outcome = evaluate_approval(alaska_profile, ApprovalScenario.uniform(alaska_profile, p))
        expected = (Fraction(54157 + 59055 + 75895) + p * 132786) / 188929
        assert outcome.mean_approvals_all_voters == expected

    def test_scenario_rejects_out_of_range(self, alaska_profile):
        with pytest.raises(ValueError):
            ApprovalScenario.uniform(alaska_profile, Fraction(3, 2))
        with pytest.raises(ValueError):
            ApprovalScenario.uniform(alaska_profile, -1)

    def test_scenario_rejects_floats(self, alaska_profile):
        with pytest.raises(ValueError, match="float"):
            ApprovalScenario.uniform(alaska_profile, 0.35)

    def test_scenario_rejects_unknown_group(self, alaska_profile):
        with pytest.raises(ValueError, match="unknown group"):
            ApprovalScenario.for_profile(alaska_profile, {("Begich", "Nobody"): 1})

    def test_directly_built_scenario_leaves_unlisted_groups_at_zero(self, alaska_profile):
        direct = ApprovalScenario({("Peltola", "Begich"): Fraction(1, 2)})
        resolved = ApprovalScenario.for_profile(alaska_profile, direct.rates)
        assert evaluate_approval(alaska_profile, direct) == evaluate_approval(
            alaska_profile, resolved
        )
        assert evaluate_approval(alaska_profile, ApprovalScenario({})).scores == (
            approval_range(alaska_profile).minimum
        )

    @pytest.mark.parametrize("group", [("Begich", "Nobody"), ("Nobody", "Begich")])
    def test_directly_built_scenario_rejects_unknown_group(self, alaska_profile, group):
        scenario = ApprovalScenario({group: 1})
        with pytest.raises(ValueError, match=f"^rate given for unknown group {'>'.join(group)}$"):
            evaluate_approval(alaska_profile, scenario)

    @pytest.mark.parametrize("key", [("Begich",), "AB", ("Begich", "Palin", "X"), (1, 2)])
    def test_scenario_rejects_a_key_that_is_not_a_pair_of_names(self, key):
        message = f"^rate given for {re.escape(repr(key))}, not a pair of names$"
        with pytest.raises(ValueError, match=message):
            ApprovalScenario({key: 1})


class TestUniformThreshold:
    def test_begich_over_peltola(self, alaska_profile):
        assert uniform_threshold(alaska_profile, "Begich", "Peltola") == Fraction(21738, 62291)

    def test_palin_can_never_catch_peltola(self, alaska_profile):
        # The crossing would sit near p = 1.32, outside [0, 1].
        assert uniform_threshold(alaska_profile, "Palin", "Peltola") is None

    def test_riser_already_ahead(self, alaska_profile):
        assert uniform_threshold(alaska_profile, "Peltola", "Begich") == 0

    def test_same_candidate_rejected(self, alaska_profile):
        with pytest.raises(ValueError):
            uniform_threshold(alaska_profile, "Begich", "Begich")

    @pytest.mark.parametrize("riser, leader, message", [
        ("Begich", "Begich", "riser and leader must differ"),
        ("Nobody", "Peltola", "'Nobody' is not on the roster"),
        ("Begich", "Nobody", "'Nobody' is not on the roster"),
    ])
    def test_pair_check_messages(self, alaska_profile, riser, leader, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            uniform_threshold(alaska_profile, riser, leader)

    def test_threshold_separates_the_orders(self, alaska_profile):
        p_star = uniform_threshold(alaska_profile, "Begich", "Peltola")
        below = evaluate_approval(
            alaska_profile, ApprovalScenario.uniform(alaska_profile, p_star - Fraction(1, 1000))
        )
        above = evaluate_approval(
            alaska_profile, ApprovalScenario.uniform(alaska_profile, p_star + Fraction(1, 1000))
        )
        assert below.scores["Peltola"] > below.scores["Begich"]
        assert above.scores["Begich"] > above.scores["Peltola"]


class TestClinch:
    def test_begich_from_peltola_rankers(self, alaska_profile):
        needed = min_second_votes_to_clinch(alaska_profile, "Begich", ("Peltola", "Begich"))
        assert needed == 40994
        assert 54157 + needed == 95151  # one past Peltola's best possible 95,150

    def test_already_clinched_needs_nothing(self):
        profile = CondensedProfile(ABC, {("A",): 100, ("B",): 1, ("C",): 1, ("B", "A"): 1})
        assert min_second_votes_to_clinch(profile, "A", ("B", "A")) == 0

    def test_palin_cannot_clinch_from_begich_rankers(self, alaska_profile):
        with pytest.raises(UnattainableError) as info:
            min_second_votes_to_clinch(alaska_profile, "Palin", ("Begich", "Palin"))
        # Needs to pass Begich's maximum of 135,703, far beyond the
        # 27,258 voters ranking Palin second to Begich.
        assert info.value.required == 135703 - 59055 + 1

    def test_shortfall_names_the_group_size_in_voters(self, alaska_profile):
        with pytest.raises(UnattainableError, match="the Begich>Palin group has only 27258 voters$"):
            min_second_votes_to_clinch(alaska_profile, "Palin", ("Begich", "Palin"))

    def test_shortfall_of_a_one_voter_group_says_voter(self):
        profile = CondensedProfile(ABC, {("A",): 10, ("B",): 1, ("C",): 1, ("A", "B"): 1})
        with pytest.raises(UnattainableError, match="the A>B group has only 1 voter$"):
            min_second_votes_to_clinch(profile, "B", ("A", "B"))

    def test_group_must_rank_candidate_second(self, alaska_profile):
        with pytest.raises(ValueError):
            min_second_votes_to_clinch(alaska_profile, "Begich", ("Begich", "Palin"))

    @pytest.mark.parametrize("candidate, group", [
        ("Nobody", ("Begich", "Nobody")),
        ("Begich", ("Nobody", "Begich")),
        ("Begich", ("Begich", "Begich")),
    ])
    def test_group_must_be_on_the_roster(self, alaska_profile, candidate, group):
        with pytest.raises(ValueError, match=f"^unknown group {group[0]}>{group[1]}$"):
            min_second_votes_to_clinch(alaska_profile, candidate, group)


class TestSweep:
    def test_endpoints_only(self, alaska_profile):
        points = sweep_uniform(alaska_profile, 1)
        assert points == [(0, ("Peltola",)), (1, ("Begich",))]

    def test_hundredth_grid_crossover(self, alaska_profile):
        points = dict(sweep_uniform(alaska_profile, Fraction(1, 100)))
        assert len(points) == 101
        assert points[Fraction(34, 100)] == ("Peltola",)
        assert points[Fraction(35, 100)] == ("Begich",)
        assert all("Palin" not in winners for winners in points.values())

    def test_all_bullets_never_changes(self):
        profile = CondensedProfile(ABC, {("A",): 3, ("B",): 1, ("C",): 1})
        points = sweep_uniform(profile, Fraction(1, 4))
        assert [w for _, w in points] == [("A",)] * 5

    def test_start_past_end_is_named(self, alaska_profile):
        with pytest.raises(ValueError, match="^grid start must not exceed grid end$"):
            sweep_uniform(alaska_profile, Fraction(1, 100), start=Fraction(1, 2), end=Fraction(1, 5))

    def test_step_validation(self, alaska_profile):
        with pytest.raises(ValueError):
            sweep_uniform(alaska_profile, 0)
        with pytest.raises(ValueError):
            sweep_uniform(alaska_profile, 2)
