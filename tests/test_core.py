import re

import pytest

from ballotlab import (
    CondensedProfile,
    MalformedBallotError,
    classify_ballot,
    condense,
)
from ballotlab.scoring import score_lines

from .oracles import expand, ranked_ballot, scaled, zero_profile

ROSTER = ("Begich", "Palin", "Peltola")


def ballot(*ranks):
    return ranked_ballot(ranks)


class TestClassifyBallot:
    def test_complete_ranking(self):
        b = ballot(["Begich"], ["Palin"], ["Peltola"])
        assert classify_ballot(b, ROSTER) == ("Begich", "Palin")

    def test_top_two_overvote(self):
        b = ballot(["Begich", "Palin"], [], [])
        assert classify_ballot(b, ROSTER) == frozenset(("Begich", "Palin"))

    def test_skipped_rank_is_compressed(self):
        b = ballot(["Begich"], [], ["Peltola"])
        assert classify_ballot(b, ROSTER) == ("Begich", "Peltola")

    def test_write_in_marks_are_ignored(self):
        b = ballot(["WRITEIN:somebody"], ["Palin"], [])
        assert classify_ballot(b, ROSTER) == ("Palin",)

    def test_all_way_overvote(self):
        b = ballot(["Begich", "Palin", "Peltola"], [], [])
        assert classify_ballot(b, ROSTER) == frozenset(ROSTER)

    def test_bullet(self):
        b = ballot(["Peltola"], [], [])
        assert classify_ballot(b, ROSTER) == ("Peltola",)

    def test_blank(self):
        assert classify_ballot(ballot([], [], []), ROSTER) == ()

    def test_write_in_only_ballot_is_blank(self):
        b = ballot(["WRITEIN:x"], ["WRITEIN:y"], [])
        assert classify_ballot(b, ROSTER) == ()

    def test_second_rank_overvote_collapses_to_bullet(self):
        # No usable preference among the remaining candidates.
        b = ballot(["Begich"], ["Palin", "Peltola"], [])
        assert classify_ballot(b, ROSTER) == ("Begich",)

    def test_duplicate_of_first_choice_is_ignored(self):
        b = ballot(["Begich"], ["Begich"], ["Palin"])
        assert classify_ballot(b, ROSTER) == ("Begich", "Palin")

    def test_duplicate_inside_second_rank_is_ignored(self):
        b = ballot(["Begich"], ["Begich", "Palin"], [])
        assert classify_ballot(b, ROSTER) == ("Begich", "Palin")

    def test_two_candidate_roster_full_overvote_is_all(self):
        b = ballot(["A", "B"], [])
        assert classify_ballot(b, ("A", "B")) == frozenset(("A", "B"))

    def test_too_many_rank_positions(self):
        b = ballot(["Begich"], [], [], [])
        with pytest.raises(MalformedBallotError):
            classify_ballot(b, ROSTER)

    def test_unknown_mark(self):
        b = ballot(["Nobody"], [], [])
        with pytest.raises(MalformedBallotError):
            classify_ballot(b, ROSTER)

    def test_partial_overvote_on_large_roster(self):
        b = ballot(["A", "B", "C"], [], [], [])
        with pytest.raises(MalformedBallotError):
            classify_ballot(b, ("A", "B", "C", "D"))

    def test_roster_too_small(self):
        with pytest.raises(ValueError):
            classify_ballot(ballot(["A"]), ("A",))

    @pytest.mark.parametrize("roster", [
        ("A", "A", "B"), ["A", "B", " B "], ("A", " "), ("A",), ("A", "WRITEIN:B"),
    ])
    def test_bad_roster_raises_the_same_error_on_every_call(self, roster):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                classify_ballot(ballot(["A"]), roster)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_roster_names_are_trimmed_once_validated(self):
        b = ballot([" A"], ["B"])
        with pytest.raises(MalformedBallotError, match="' A' names no roster candidate"):
            classify_ballot(b, (" A", "B"))
        assert classify_ballot(ballot(["A"], ["B"]), (" A", "B")) == ("A", "B")


class TestCondense:
    def test_counts_patterns(self):
        keys = [("Begich",), ("Begich",), ("Begich", "Palin")]
        profile = condense(keys, ROSTER)
        assert profile.bullet_count("Begich") == 2
        assert profile.full_count("Begich", "Palin") == 1
        assert profile.total_valid_ranked == 3
        assert profile.blank_count == 0

    def test_empty_sequence(self):
        assert condense([], ROSTER) == zero_profile(ROSTER)

    def test_preserves_cardinality(self):
        keys = [
            ("Palin",),
            ("Palin", "Peltola"),
            frozenset(("Begich", "Peltola")),
            frozenset(ROSTER),
            (),
        ]
        profile = condense(keys, ROSTER)
        total = (
            profile.total_valid_ranked
            + profile.total_overvotes
            + profile.blank_count
        )
        assert total == len(keys)

    def test_round_trip_through_expand(self, alaska_profile):
        assert condense(expand(alaska_profile), ROSTER) == alaska_profile

    @pytest.mark.parametrize("key", [frozenset(("Begich", "Palin", "Nobody")),
                                     frozenset(("Begich",))])
    def test_overvote_key_is_two_names_or_the_whole_roster(self, key):
        with pytest.raises(ValueError, match="is neither two roster names nor the whole roster"):
            condense([key], ROSTER)

    @pytest.mark.parametrize("key", ["Begich", ["Begich", "Palin"], {"Begich"}, None])
    def test_rejects_what_is_not_a_profile_key(self, key):
        with pytest.raises(TypeError, match="not a profile key"):
            condense([("Palin",), key], ROSTER)


class TestProfileValidation:
    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            CondensedProfile(ROSTER, {("Begich",): -1})

    def test_rejects_unknown_candidate(self):
        with pytest.raises(ValueError):
            CondensedProfile(ROSTER, {("Nobody",): 1})

    def test_rejects_repeated_candidate_in_ranking(self):
        with pytest.raises(ValueError):
            CondensedProfile(ROSTER, {("Palin", "Palin"): 1})

    @pytest.mark.parametrize("key, message", [
        (("Nobody",), "ranking ('Nobody',) needs at most 2 distinct roster names"),
        (("Palin", "Nobody"),
         "ranking ('Palin', 'Nobody') needs at most 2 distinct roster names"),
        (("Palin", "Palin"), "ranking ('Palin', 'Palin') needs at most 2 distinct roster names"),
        (("Palin", "Begich", "Peltola"),
         "ranking ('Palin', 'Begich', 'Peltola') needs at most 2 distinct roster names"),
        (frozenset(), "overvote [] is neither two roster names nor the whole roster"),
        (frozenset(["Palin"]), "overvote ['Palin'] is neither two roster names nor the whole roster"),
        (frozenset(["Palin", "Nobody"]),
         "overvote ['Nobody', 'Palin'] is neither two roster names nor the whole roster"),
        (frozenset([*ROSTER, "Nobody"]), "overvote ['Begich', 'Nobody', 'Palin', 'Peltola'] "
         "is neither two roster names nor the whole roster"),
        ("Palin", "not a profile key: 'Palin'"),
        (None, "not a profile key: None"),
    ])
    def test_invalid_key_is_named(self, key, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CondensedProfile(ROSTER, {key: 1})

    @pytest.mark.parametrize("count", [-1, 1.0, "1", None])
    def test_invalid_count_is_named(self, count):
        message = f"pattern counts must be nonnegative integers, got {count!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CondensedProfile(ROSTER, {("Palin",): count})

    def test_an_invalid_key_is_refused_with_a_zero_count(self):
        with pytest.raises(ValueError, match="needs at most 2 distinct roster names"):
            CondensedProfile(ROSTER, {("Nobody",): 0})

    def test_a_ranking_names_at_most_all_but_one_candidate(self):
        roster = ("A", "B", "C", "D")
        assert CondensedProfile(roster, {("A", "B", "C"): 1}).full_count("A", "B") == 1
        with pytest.raises(ValueError, match="needs at most 3 distinct roster names"):
            CondensedProfile(roster, {("A", "B", "C", "D"): 1})

    def test_rejects_duplicate_roster_names(self):
        with pytest.raises(ValueError):
            CondensedProfile(("A", " A "), {})

    def test_zero_counts_do_not_affect_equality(self):
        explicit = CondensedProfile(ROSTER, {("Begich",): 0, ("Palin",): 2, (): 0})
        sparse = CondensedProfile(ROSTER, {("Palin",): 2})
        assert explicit == sparse
        assert explicit.counts == {("Palin",): 2}


class TestTotals:
    def test_alaska_totals(self, alaska_profile):
        assert alaska_profile.total_valid_ranked == 188751
        assert alaska_profile.total_with_any_mark == 188985
        assert alaska_profile.total_overvotes == 234

    def test_first_place_excluding_ties(self, alaska_profile):
        totals = alaska_profile.top_choices(alaska_profile.candidates)  # IRV's round 1
        assert totals == {"Begich": 54009, "Palin": 58939, "Peltola": 75803}
        assert sum(totals.values()) == alaska_profile.total_valid_ranked

    def test_first_place_including_ties(self, alaska_profile):
        base, _ = score_lines(alaska_profile, 1)
        assert base == {"Begich": 54157, "Palin": 59055, "Peltola": 75895}

    def test_second_place(self, alaska_profile):
        _, slope = score_lines(alaska_profile, 1)
        assert slope == {"Begich": 81546, "Palin": 31985, "Peltola": 19255}

    def test_second_place_all_bullets(self):
        profile = CondensedProfile(ROSTER, {("Begich",): 5, ("Peltola",): 2})
        assert score_lines(profile, 1)[1] == {c: 0 for c in ROSTER}

    def test_second_place_bounded_by_other_firsts(self, alaska_profile):
        firsts = alaska_profile.top_choices(alaska_profile.candidates)
        _, seconds = score_lines(alaska_profile, 1)
        for c in ROSTER:
            assert seconds[c] <= alaska_profile.total_valid_ranked - firsts[c]

    def test_scaled(self, alaska_profile):
        doubled = scaled(alaska_profile, 2)
        assert doubled.total_valid_ranked == 2 * alaska_profile.total_valid_ranked
        assert doubled.counts[frozenset(ROSTER)] == 112
