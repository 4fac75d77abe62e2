import re
from fractions import Fraction

import pytest

from ballotlab import (
    CondensedProfile,
    DecisiveTieError,
    ScoreRange,
    StarScenario,
    UnattainableError,
    approval_range,
    evaluate_star,
    star_range,
    sweep_star,
    uniform_star_threshold,
)

from .oracles import per_point_sweep, zero_profile

ABC = ("A", "B", "C")


class TestStarRange:
    def test_alaska(self, alaska_profile):
        rng = star_range(alaska_profile)
        assert rng.minimum == {"Begich": 352331, "Palin": 327260, "Peltola": 398730}
        assert rng.maximum == {"Begich": 596969, "Palin": 423215, "Peltola": 456495}
        assert type(approval_range(alaska_profile)) is type(rng) is ScoreRange

    def test_all_bullets(self):
        profile = CondensedProfile(ABC, {("A",): 4, ("B",): 2, ("C",): 1})
        rng = star_range(profile)
        assert rng.minimum == rng.maximum == {"A": 20, "B": 10, "C": 5}

    def test_zero_profile(self):
        rng = star_range(zero_profile(ABC))
        assert rng.minimum == rng.maximum == {c: 0 for c in ABC}

    def test_requires_three_candidates(self):
        with pytest.raises(ValueError, match="3 candidates"):
            star_range(zero_profile(("A", "B", "C", "D")))


class TestEvaluate:
    def test_alaska_floor_scenario(self, alaska_profile):
        outcome = evaluate_star(alaska_profile, StarScenario.uniform(alaska_profile, 1))
        assert outcome.scores == {"Begich": 352331, "Palin": 327260, "Peltola": 398730}
        assert outcome.finalists == ("Begich", "Peltola")
        assert outcome.runoff_tallies == {"Begich": 88212, "Peltola": 79516}
        assert outcome.runoff_no_preference == 62
        assert outcome.winners == ("Begich",)

    def test_alaska_begich_groups_maxed(self, alaska_profile):
        scenario = StarScenario.for_profile(
            alaska_profile, {("Palin", "Begich"): 4, ("Peltola", "Begich"): 4}
        )
        outcome = evaluate_star(alaska_profile, scenario)
        assert outcome.scores["Begich"] == 596969
        assert outcome.finalists == ("Begich", "Peltola")
        assert outcome.winners == ("Begich",)

    def test_alaska_peltola_path(self, alaska_profile):
        # Palin's second-choice voters max her out while everyone else
        # stays at the floor: Palin reaches the runoff and loses it.
        scenario = StarScenario.for_profile(alaska_profile, {("Begich", "Palin"): 4})
        outcome = evaluate_star(alaska_profile, scenario)
        assert outcome.scores["Palin"] == 327260 + 3 * 27258
        assert outcome.finalists == ("Palin", "Peltola")
        assert outcome.runoff_tallies == {"Palin": 86283, "Peltola": 91437}
        assert outcome.runoff_no_preference == 30
        assert outcome.winners == ("Peltola",)

    def test_two_candidate_race(self):
        profile = CondensedProfile(("A", "B"), {("A",): 2, ("B",): 1})
        outcome = evaluate_star(profile, StarScenario.uniform(profile, 1))
        assert outcome.scores == {"A": 10, "B": 5}
        assert outcome.runoff_tallies == {"A": 2, "B": 1}
        assert outcome.winners == ("A",)

    def test_runoff_counts_cover_scoring_ballots(self, alaska_profile):
        outcome = evaluate_star(alaska_profile, StarScenario.uniform(alaska_profile, 1))
        counted = sum(outcome.runoff_tallies.values()) + outcome.runoff_no_preference
        # Everything except all-way overvotes and the bullets for the
        # excluded candidate carries a score for some finalist.
        assert counted == 188929 - alaska_profile.bullet_count("Palin")

    def test_second_berth_tie_resolved_head_to_head(self):
        profile = CondensedProfile(
            ABC, {("A",): 1, ("C",): 1, ("A", "C"): 2, frozenset(("A", "B")): 2}
        )
        outcome = evaluate_star(profile, StarScenario.uniform(profile, Fraction(5, 2)))
        assert outcome.scores == {"A": 25, "B": 10, "C": 10}
        # C beats B 3-2 ballot-to-ballot, so C takes the second berth.
        assert outcome.finalists == ("A", "C")
        assert outcome.winners == ("A",)

    def test_unresolvable_second_berth_tie(self):
        profile = CondensedProfile(ABC, {("A",): 2, ("B",): 1, ("C",): 1})
        with pytest.raises(DecisiveTieError):
            evaluate_star(profile, StarScenario.uniform(profile, 1))

    def test_exact_runoff_tie_is_reported(self):
        profile = CondensedProfile(("A", "B"), {("A",): 1, ("B",): 1})
        outcome = evaluate_star(profile, StarScenario.uniform(profile, 1))
        assert outcome.winners == ("A", "B")

    def test_scenario_validation(self, alaska_profile):
        with pytest.raises(ValueError):
            StarScenario.uniform(alaska_profile, Fraction(1, 2))  # below the floor
        with pytest.raises(ValueError):
            StarScenario.uniform(alaska_profile, 5)  # above the cap
        with pytest.raises(ValueError, match="hundredths"):
            StarScenario.uniform(alaska_profile, Fraction(4, 3))
        with pytest.raises(ValueError, match="float"):
            StarScenario.uniform(alaska_profile, 1.5)

    def test_directly_built_scenario_leaves_unlisted_groups_at_one_star(self, alaska_profile):
        outcome = evaluate_star(alaska_profile, StarScenario({}))
        assert outcome.scores == star_range(alaska_profile).minimum
        assert outcome == evaluate_star(alaska_profile, StarScenario.uniform(alaska_profile, 1))
        direct = StarScenario({("Begich", "Palin"): 4})
        assert evaluate_star(alaska_profile, direct) == evaluate_star(
            alaska_profile, StarScenario.for_profile(alaska_profile, direct.stars)
        )

    @pytest.mark.parametrize("group", [("Begich", "Nobody"), ("Nobody", "Begich")])
    def test_directly_built_scenario_rejects_unknown_group(self, alaska_profile, group):
        scenario = StarScenario({group: 2})
        with pytest.raises(ValueError, match=f"^stars given for unknown group {'>'.join(group)}$"):
            evaluate_star(alaska_profile, scenario)

    @pytest.mark.parametrize("key", [("Begich",), "AB", ("Begich", "Palin", "X"), (1, 2)])
    def test_scenario_rejects_a_key_that_is_not_a_pair_of_names(self, key):
        message = f"^stars given for {re.escape(repr(key))}, not a pair of names$"
        with pytest.raises(ValueError, match=message):
            StarScenario({key: 2})


class TestThreshold:
    def test_begich_berth_past_palin(self, alaska_profile):
        result = uniform_star_threshold(alaska_profile, "Begich", "Palin")
        assert result.stars == Fraction(187, 100)
        assert result.achieved_score == Fraction(4232760200, 10000)  # 423,276.02
        assert result.rival_maximum == 423215
        assert result.achieved_score > result.rival_maximum

    def test_threshold_is_least_on_grid(self, alaska_profile):
        # One hundredth lower falls at or below the rival maximum.
        base = 5 * 54157
        assert base + Fraction(186, 100) * 81546 <= 423215

    def test_minimum_already_sufficient(self):
        profile = CondensedProfile(ABC, {("A",): 1000, ("B",): 1, ("C",): 1, ("B", "A"): 1})
        result = uniform_star_threshold(profile, "A", "B")
        assert result.stars == 1

    def test_palin_cannot_pass_begich(self, alaska_profile):
        with pytest.raises(UnattainableError):
            uniform_star_threshold(alaska_profile, "Palin", "Begich")

    @pytest.mark.parametrize("guaranteed, rival, message", [
        ("Begich", "Begich", "guaranteed and rival must differ"),
        ("Nobody", "Palin", "'Nobody' is not on the roster"),
        ("Begich", "Nobody", "'Nobody' is not on the roster"),
    ])
    def test_pair_check_messages(self, alaska_profile, guaranteed, rival, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            uniform_star_threshold(alaska_profile, guaranteed, rival)


class TestSweep:
    def test_alaska_endpoints(self, alaska_profile):
        points = sweep_star(alaska_profile, 3)
        assert points == [(1, ("Begich",)), (4, ("Begich",))]

    def test_all_bullets_constant(self):
        profile = CondensedProfile(ABC, {("A",): 3, ("B",): 2, ("C",): 1})
        points = sweep_star(profile, 1)
        assert [w for _, w in points] == [("A",)] * 4

    def test_two_candidate_profile(self):
        # B outscores A above 2.5 stars, but A wins every runoff 3-2.
        profile = CondensedProfile(("A", "B"), {("A",): 1, ("B",): 2, ("A", "B"): 2})
        points = sweep_star(profile, Fraction(3, 2))
        assert points == [(1, ("A",)), (Fraction(5, 2), ("A",)), (4, ("A",))]
        assert points == per_point_sweep(profile, evaluate_star, StarScenario, Fraction(3, 2), 1, 4)

    def test_grid_validation(self, alaska_profile):
        with pytest.raises(ValueError):
            sweep_star(alaska_profile, 0)
        with pytest.raises(ValueError):
            sweep_star(alaska_profile, 1, start=0)
        with pytest.raises(ValueError, match=r"^grid step must lie in \(0, 3\], got 7/2$"):
            sweep_star(alaska_profile, Fraction(7, 2))
