import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ballotlab import __version__, cli, parse_condensed, report
from ballotlab.cli import _FORMAT, COMMANDS, _builder, _parse, run

from .conftest import alaska


#: Each command's builder reference, ``module.attribute``.
BUILDERS = {path: build for path, _, build, *_ in COMMANDS if build is not None}


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixture(alaska_csv) -> str:
    return str(alaska_csv)


class TestDispatchAndErrors:
    def test_unknown_command_is_usage_error(self, capsys, fixture):
        code, _, err = invoke(capsys, "tallyho", fixture)
        assert code == 2

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = invoke(capsys, "irv", "no_such_file.csv")
        assert code == 2
        assert err == "error: [Errno 2] No such file or directory: 'no_such_file.csv'\n"

    def test_unknown_extension_needs_input_format(self, capsys, tmp_path):
        path = tmp_path / "profile.data"
        path.write_bytes(alaska_csv_bytes())
        code, _, err = invoke(capsys, "irv", str(path))
        assert code == 2
        code, out, _ = invoke(capsys, "irv", str(path), "--input-format", "condensed")
        assert code == 0
        assert "Peltola" in out

    def test_decisive_tie_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "tie.csv"
        path.write_text("pattern,count\nbullet:A,1\nbullet:B,1\nbullet:C,2\n")
        code, _, err = invoke(capsys, "irv", str(path))
        assert code == 1
        assert "tie" in err

    @pytest.mark.parametrize("command", ["irv", "squeeze"])
    @pytest.mark.parametrize("name, content", [
        ("overvotes.json", '{"candidates": ["A", "B", "C"], "ballots": '
                           '[[["A", "B"], [], []], [["A", "B", "C"], [], []]]}'),
        ("overvotes.csv", "pattern,count\nover2:A+B,3\nbullet:A,0\nbullet:B,0\nbullet:C,0\n"),
    ], ids=["raw", "condensed"])
    def test_no_valid_ranked_ballot_is_domain_error(self, capsys, tmp_path, command, name, content):
        path = tmp_path / name
        path.write_text(content)
        code, out, err = invoke(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err == "error: no valid ranked ballots to tabulate\n"

    def test_unattainable_threshold_is_domain_error(self, capsys, fixture):
        code, _, err = invoke(
            capsys, "approval", "threshold", fixture, "--riser", "Palin", "--leader", "Peltola"
        )
        assert code == 1

    def test_bad_flag_value_is_usage_error(self, capsys, fixture):
        code, _, _ = invoke(capsys, "approval", "eval", fixture, "--p", "nonsense")
        assert code == 2
        code, _, _ = invoke(capsys, "approval", "eval", fixture, "--p", "1.5")
        assert code == 2

    def test_out_flag_writes_file(self, capsys, fixture, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = invoke(
            capsys, "approval", "range", fixture, "--format", "csv", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("candidate,min,max")

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_reported_error(self, capsys, fixture, tmp_path, where):
        target = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
        code, out, err = invoke(capsys, "irv", fixture, "--out", str(target))
        assert code == 2
        assert out == ""
        reason = "[Errno 2] No such file or directory" if where == "missing-dir" else "[Errno 21] Is a directory"
        assert err == f"error: {reason}: {str(target)!r}\n"

    @pytest.mark.parametrize("argv, message", [
        (["approval", "sweep", "--grid", "0:1"],
         "argument --grid: grid must look like start:end:step, got '0:1'"),
        (["approval", "sweep", "--grid", "0:1:x"],
         "argument --grid: grid value is not a rational number: 'x'"),
        (["approval", "clinch", "--candidate", "Begich", "--group", "Begich"],
         "argument --group: group must look like First>Second, got 'Begich'"),
        (["approval", "eval", "--p-group", "foo"],
         "argument --p-group: expected First>Second=value, got 'foo'"),
    ])
    def test_bad_flag_value_names_the_problem(self, capsys, fixture, argv, message):
        code, out, err = invoke(capsys, *argv[:2], fixture, *argv[2:])
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("model, grid", [("approval", "0.5:0.2:0.01"), ("star", "3:2:0.5")])
    def test_grid_start_past_end_is_named(self, capsys, fixture, model, grid):
        assert invoke(capsys, model, "sweep", fixture, "--grid", grid) == (
            2, "", "error: grid start must not exceed grid end\n")

    @pytest.mark.parametrize("candidate, group", [
        ("Nobody", "Begich>Nobody"),
        ("Begich", "Nobody>Begich"),
        ("Begich", "Begich>Begich"),
    ])
    def test_clinch_group_off_the_roster_is_usage_error(self, capsys, fixture, candidate, group):
        code, out, err = invoke(
            capsys, "approval", "clinch", fixture, "--candidate", candidate, "--group", group
        )
        assert code == 2
        assert out == ""
        assert err == f"error: unknown group {group}\n"

    @pytest.mark.parametrize("argv, message", [
        (["approval", "eval", "--p-group", "Nobody>Begich=0.5"],
         "rate given for unknown group Nobody>Begich"),
        (["star", "eval", "--s-group", "Nobody>Begich=2"],
         "stars given for unknown group Nobody>Begich"),
    ])
    def test_scenario_group_off_the_roster_is_usage_error(self, capsys, fixture, argv, message):
        code, out, err = invoke(capsys, *argv[:2], fixture, *argv[2:])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["approval", "eval", "--p-group", "Peltola>Begich=0.1", "--p-group", "Peltola>Begich=0.9"],
         "--p-group repeats group Peltola>Begich"),
        (["approval", "eval", "--p", "0", "--p-group", "Palin>Begich=1",
          "--p-group", "Peltola>Begich=0.5", "--p-group", "Palin>Begich=1"],
         "--p-group repeats group Palin>Begich"),
        (["star", "eval", "--s-group", "Begich>Palin=4", "--s-group", "Begich>Palin=2"],
         "--s-group repeats group Begich>Palin"),
        (["star", "eval", "--s", "1", "--s-group", "Begich>Palin=4", "--s-group", "Begich>Palin=4"],
         "--s-group repeats group Begich>Palin"),
    ])
    def test_repeated_group_flag_is_usage_error(self, capsys, fixture, argv, message):
        code, out, err = invoke(capsys, *argv[:2], fixture, *argv[2:])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["approval", "eval", "--p", "0.35", "--p-group", "Peltola>Begich=0.9",
         "--p-group", "Begich>Peltola=0.9"],
        ["star", "eval", "--s", "1", "--s-group", "Begich>Palin=4", "--s-group", "Palin>Begich=4"],
    ])
    def test_group_flags_override_the_uniform_value_once_each(self, capsys, fixture, argv):
        code, out, err = invoke(capsys, *argv[:2], fixture, *argv[2:], "--format", "csv")
        assert (code, err) == (0, "")
        assert out.startswith("item,value\n")

    @pytest.mark.parametrize("argv, row", [
        (["approval", "eval", "--p-group", "Lee=Park>Begich=1/2"], "score Begich,2\n"),
        (["star", "eval", "--s-group", "Lee=Park>Begich=2"], "score Begich,9\n"),
    ])
    def test_group_value_follows_the_last_equals_sign(self, capsys, tmp_path, argv, row):
        """A raw CVR may name a candidate ``Lee=Park``; the flag's value follows the last ``=``."""
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"candidates": ["Lee=Park", "Begich", "Peltola"], "ballots": [
            *[[["Lee=Park"], ["Begich"], []]] * 2, [["Begich"], ["Peltola"], []],
            *[[["Peltola"], [], []]] * 3]}))
        code, out, err = invoke(capsys, *argv[:2], str(path), *argv[2:], "--format", "csv")
        assert (code, err) == (0, "")
        assert row in out

    @pytest.mark.parametrize("argv, rows", [
        (["approval", "eval", "--p-group", "Lee>Park>Begich=1/2"], ["score Begich,7/2\n"]),
        (["star", "eval", "--s-group", "Lee>Park>Begich=2"], ["score Begich,15\n"]),
        (["approval", "clinch", "--candidate", "Begich", "--group", "Lee>Park>Begich"],
         ["group,Lee>Park>Begich\n", "group_size,5\n", "required_votes,5\n"]),
    ])
    def test_group_names_a_candidate_holding_a_greater_than_sign(self, capsys, tmp_path, argv,
                                                                  rows):
        """A raw CVR may name a candidate ``Lee>Park``; a group flag reads it as the roster does."""
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"candidates": ["Lee>Park", "Begich", "Peltola"], "ballots": [
            *[[["Lee>Park"], ["Begich"], []]] * 5, [["Begich"], [], []],
            *[[["Peltola"], [], []]] * 2]}))
        code, out, err = invoke(capsys, *argv[:2], str(path), *argv[2:], "--format", "csv")
        assert (code, err) == (0, "")
        for row in rows:
            assert row in out

    @pytest.mark.parametrize("argv", [
        ["approval", "eval", "--p-group", "A>A>A=1/2"],
        ["star", "eval", "--s-group", "A>A>A=2"],
        ["approval", "clinch", "--candidate", "A", "--group", "A>A>A"],
    ])
    def test_group_with_two_readings_is_usage_error(self, capsys, tmp_path, argv):
        """On the roster ``A``, ``A>A``, ``B``, ``A>A>A`` is ``A`` then ``A>A`` or the reverse."""
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"candidates": ["A", "A>A", "B"], "ballots": [
            [["A"], ["A>A"], []], [["A>A"], ["A"], []], [["B"], [], []]]}))
        code, out, err = invoke(capsys, *argv[:2], str(path), *argv[2:])
        assert (code, out) == (2, "")
        assert err == ("error: group A>A>A is ambiguous: it reads as 'A' then 'A>A', "
                       "or as 'A>A' then 'A'\n")

    @pytest.mark.parametrize("argv, message", [
        (["approval", "threshold", "--riser", "Begich", "--leader", "Begich"],
         "riser and leader must differ"),
        (["approval", "threshold", "--riser", "Nobody", "--leader", "Peltola"],
         "'Nobody' is not on the roster"),
        (["star", "threshold", "--guaranteed", "Begich", "--rival", "Begich"],
         "guaranteed and rival must differ"),
        (["star", "threshold", "--guaranteed", "Begich", "--rival", "Nobody"],
         "'Nobody' is not on the roster"),
    ])
    def test_threshold_pair_is_checked(self, capsys, fixture, argv, message):
        code, out, err = invoke(capsys, *argv[:2], fixture, *argv[2:])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


def alaska_csv_bytes() -> bytes:
    from ballotlab import write_condensed

    return write_condensed(alaska())


def raw_file(tmp_path, ballots, candidates="ABCD") -> str:
    """Write a raw CVR whose ballots give one mark per rank, ``-`` for a skipped rank."""
    path = tmp_path / "raw.json"
    grids = [[[] if m == "-" else [m] for m in b] for b in ballots]
    path.write_text(json.dumps({"candidates": list(candidates), "ballots": grids}))
    return str(path)


class TestTruncatedRankings:
    """With 4+ candidates, a ballot's third and later choices must not vanish silently."""

    # True IRV elects B 7-5 in round 3; a first-and-second-choice profile
    # would elect A 5-4, and pairwise would report A over B.
    TWELVE = ["A---"] * 5 + ["B---"] * 4 + ["CDB-"] * 2 + ["DCB-"]

    # Some rows each command prints for the twelve ballots, as CSV.
    TWELVE_ROWS = {
        "irv": ["3,A,5,5/12,5/12,0,0,12,continuing", "3,B,7,7/12,7/12,3,0,12,winner"],
        "pairwise": ["A,B,5,7,0,5/12,7/12", "C,D,2,1,9,2/3,1/3"],
        "condorcet": ["condorcet_winner,B", "condorcet_loser,D"],
        "squeeze": ["squeezed,false", "condorcet_winner,B", "irv_winner,B"],
    }

    @pytest.mark.parametrize("command", TWELVE_ROWS)
    def test_full_ranking_commands_count_later_choices(self, capsys, tmp_path, command):
        code, out, err = invoke(capsys, command, raw_file(tmp_path, self.TWELVE), "--format", "csv")
        assert (code, err) == (0, "")
        assert set(self.TWELVE_ROWS[command]) <= set(out.splitlines()), out

    def test_one_truncated_ballot_is_counted_in_the_singular(self, capsys, tmp_path):
        path = raw_file(tmp_path, ["ABCD", ["B", "A", "WRITEIN:x", "-"]])
        code, _, err = invoke(capsys, "ingest", path)
        assert code == 0
        assert err == ("warning: 1 ballot ranks a candidate after the second choice; the "
                       "first-and-second-choice profile drops those later choices\n")

    WARNING = ("warning: 3 ballots rank a candidate after the second choice; the "
               "first-and-second-choice profile drops those later choices\n")

    def test_ingest_warns_that_it_drops_later_choices(self, capsys, tmp_path):
        path = raw_file(tmp_path, self.TWELVE)
        code, out, err = invoke(capsys, "ingest", path)
        assert (code, err) == (0, self.WARNING)
        csv = tmp_path / "profile.csv"
        assert invoke(capsys, "ingest", path, "--out", str(csv)) == (0, "", self.WARNING)
        assert csv.read_text() == out

    def test_a_later_overvote_drops_no_choice(self, capsys, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"candidates": list("ABCD"), "ballots": [
            [["A"], ["B"], ["C", "D"]],  # the overvote ends the ranking at B
            [["B"], ["A"], ["C"]],
        ]}))
        code, _, err = invoke(capsys, "ingest", str(path))
        assert code == 0
        assert err.startswith("warning: 1 ballot ranks")

    def test_model_commands_do_not_warn(self, capsys, tmp_path):
        path = raw_file(tmp_path, self.TWELVE)
        code, out, err = invoke(capsys, "star", "threshold", path, "--guaranteed", "C",
                                "--rival", "D", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.startswith("item,value\nguaranteed,C\n")

    def test_the_csv_keeps_two_choices(self, capsys, tmp_path):
        """So ``irv`` of the raw CVR and of its CSV differ on the twelve ballots."""
        csv = tmp_path / "profile.csv"
        assert invoke(capsys, "ingest", raw_file(tmp_path, self.TWELVE), "--out", str(csv))[0] == 0
        code, out, _ = invoke(capsys, "irv", str(csv), "--format", "csv")
        assert code == 0
        assert "3,A,5,5/9,5/12,0,3,9,winner" in out.splitlines()

    def test_complete_rankings_give_no_warning(self, capsys, tmp_path):
        path = raw_file(tmp_path, ["ABC", "BCA", "CAB", "C--"], "ABC")
        assert invoke(capsys, "ingest", path)[::2] == (0, "")

    def test_ingest_writes_the_first_and_second_choice_profile(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "ingest", raw_file(tmp_path, self.TWELVE))
        assert code == 0
        profile = parse_condensed(out.encode())
        assert (profile.bullet_count("A"), profile.bullet_count("B")) == (5, 4)
        assert (profile.full_count("C", "D"), profile.full_count("D", "C")) == (2, 1)

    @pytest.mark.parametrize("command", [
        ["irv"], ["pairwise"], ["pairwise", "--basis", "include-ties"], ["condorcet"], ["squeeze"],
    ])
    def test_two_choice_ballots_keep_their_output(self, capsys, tmp_path, command):
        ballots = ["A---"] * 5 + ["BAA-"] * 4 + ["C-D-"] * 3 + ["DC-C", ["WRITEIN:w", "D", "C", "-"]]
        path = raw_file(tmp_path, ballots)
        code, out, err = invoke(capsys, *command, path, "--format", "csv")
        assert (code, err) == (0, "")
        csv = tmp_path / "profile.csv"
        assert invoke(capsys, "ingest", path, "--out", str(csv))[0] == 0
        assert invoke(capsys, *command, str(csv), "--format", "csv") == (0, out, "")

    def test_three_candidate_rankings_are_complete(self, capsys, tmp_path):
        path = raw_file(tmp_path, ["ABC", "ABC", "BCA", "CAB", "ACB"], "ABC")
        code, out, _ = invoke(capsys, "irv", path, "--format", "csv")
        assert code == 0
        assert "1,A,3,3/5,3/5,0,0,5,winner" in out.splitlines()


class TestRosterRule:
    """Every model that scores each candidate takes 2 or 3 of them; thresholds take any roster."""

    TWO = "pattern,count\nbullet:A,3\nbullet:B,2\nfull:A>B,2\nfull:B>A,4\nover2:A+B,1\n"
    FOUR = "pattern,count\nbullet:A,3\nbullet:B,2\nbullet:C,1\nbullet:D,1\nfull:A>B,2\nfull:B>A,4\n"
    SCORING = [
        ["approval", "range"], ["approval", "range", "--plot-data"],
        ["approval", "eval", "--p", "3/4"], ["approval", "sweep"],
        ["approval", "clinch", "--candidate", "A", "--group", "B>A"],
        ["approval", "threshold", "--riser", "A", "--leader", "B"],
        ["star", "range"], ["star", "range", "--plot-data"],
        ["star", "eval", "--s", "2"], ["star", "sweep"],
    ]
    # On FOUR these fail their own checks too (C cannot catch A; the group does not
    # rank A second), so they show the roster rule comes first.
    ROSTER_FIRST = [
        ["approval", "threshold", "--riser", "C", "--leader", "A"],
        ["approval", "clinch", "--candidate", "A", "--group", "A>B"],
    ]
    REFUSAL = "error: this model needs 2 or 3 candidates, got 4\n"

    def profile(self, tmp_path, content) -> str:
        path = tmp_path / "profile.csv"
        path.write_text(content)
        return str(path)

    def test_approval_range_on_two_candidates(self, capsys, tmp_path):
        argv = ("approval", "range", self.profile(tmp_path, self.TWO), "--format", "csv")
        assert invoke(capsys, *argv) == (0, "candidate,min,max\nA,5,9\nB,6,8\n", "")

    def test_star_plot_data_on_two_candidates(self, capsys, tmp_path):
        argv = ("star", "range", self.profile(tmp_path, self.TWO), "--plot-data")
        assert invoke(capsys, *argv) == (0, (
            "candidate,segment,source,value\n"
            "A,base,,29\nA,potential,B,12\n"
            "B,base,,32\nB,potential,A,6\n"
        ), "")

    @pytest.mark.parametrize("command", SCORING, ids=" ".join)
    def test_scoring_commands_run_on_two_candidates(self, capsys, tmp_path, command):
        path = self.profile(tmp_path, self.TWO)
        code, out, err = invoke(capsys, *command[:2], path, *command[2:])
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("command", SCORING + ROSTER_FIRST, ids=" ".join)
    def test_scoring_commands_refuse_four_candidates(self, capsys, tmp_path, command):
        path = self.profile(tmp_path, self.FOUR)
        code, out, err = invoke(capsys, *command[:2], path, *command[2:])
        assert (code, out, err) == (2, "", self.REFUSAL)

    def test_roster_is_refused_before_the_grid(self, capsys, tmp_path):
        argv = ("star", "sweep", self.profile(tmp_path, self.FOUR), "--grid", "1:4:7")
        assert invoke(capsys, *argv) == (2, "", self.REFUSAL)

    def test_star_threshold_takes_four_candidates(self, capsys, tmp_path):
        argv = ("star", "threshold", self.profile(tmp_path, self.FOUR),
                "--guaranteed", "A", "--rival", "B", "--format", "csv")
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert "threshold_stars,163/50\nachieved_score,951/25\nrival_maximum,38\n" in out


class TestOneSpelling:
    """With two candidates, a top overvote of both is all-way however it is spelled:
    ``over2:A+B``, ``over3:A+B`` and a raw ballot marking both at the top give the same bytes."""

    ROWS = "pattern,count\nbullet:A,3\nbullet:B,2\nfull:A>B,2\nfull:B>A,4\n"
    BALLOTS = [*[[["A"], []]] * 3, *[[["B"], []]] * 2, *[[["A"], ["B"]]] * 2,
               *[[["B"], ["A"]]] * 4, *[[["A", "B"], []]] * 3]
    COMMANDS = [  # (command path, flags)
        (["irv"], []), (["pairwise"], ["--basis", "include-ties"]), (["approval", "range"], []),
        (["approval", "range"], ["--plot-data"]), (["approval", "eval"], ["--p", "1/2"]),
        (["star", "range"], []), (["star", "eval"], ["--s", "2"]),
    ]

    @pytest.mark.parametrize("path, flags", COMMANDS, ids=[" ".join(p + f) for p, f in COMMANDS])
    def test_spellings_give_the_same_bytes(self, capsys, tmp_path, path, flags):
        (tmp_path / "over2.csv").write_text(self.ROWS + "over2:A+B,3\n")
        (tmp_path / "over3.csv").write_text(self.ROWS + "over3:A+B,3\n")
        (tmp_path / "raw.json").write_text(json.dumps({"candidates": ["A", "B"],
                                                       "ballots": self.BALLOTS}))
        outputs = {}
        for name in ("over2.csv", "over3.csv", "raw.json"):
            outputs[name] = invoke(capsys, *path, str(tmp_path / name), *flags, "--format", "csv")
        assert outputs["over2.csv"] == outputs["over3.csv"] == outputs["raw.json"]
        assert outputs["raw.json"][:1] == (0,)

    def test_ingest_writes_the_all_way_pattern_once(self, capsys, tmp_path):
        """The CSV ``ingest`` writes holds one row per pattern, so it reads back."""
        raw, out = tmp_path / "raw.json", tmp_path / "profile.csv"
        raw.write_text(json.dumps({"candidates": ["A", "B"], "ballots": self.BALLOTS}))
        assert invoke(capsys, "ingest", str(raw), "--out", str(out))[0] == 0
        assert out.read_text() == self.ROWS + "over3:A+B,3\nblank,0\n"
        csv = ("--format", "csv")
        assert invoke(capsys, "irv", str(out), *csv) == invoke(capsys, "irv", str(raw), *csv)


class TestCommandOutputs:
    def test_ingest_raw_document(self, capsys, tmp_path):
        raw = {
            "candidates": ["A", "B", "C"],
            "ballots": [
                [["A"], ["B"], []],
                [["A"], [], []],
                [["B", "C"], [], []],
                [[], [], []],
            ],
        }
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw))
        code, out, _ = invoke(capsys, "ingest", str(path))
        assert code == 0
        profile = parse_condensed(out.encode())
        assert profile.full_count("A", "B") == 1
        assert profile.bullet_count("A") == 1
        assert profile.over2_count("B", "C") == 1
        assert profile.blank_count == 1

    def test_approval_range_csv(self, capsys, fixture):
        code, out, _ = invoke(capsys, "approval", "range", fixture, "--format", "csv")
        assert code == 0
        assert out == (
            "candidate,min,max\n"
            "Begich,54157,135703\n"
            "Palin,59055,91040\n"
            "Peltola,75895,95150\n"
        )

    def test_star_range_csv(self, capsys, fixture):
        code, out, _ = invoke(capsys, "star", "range", fixture, "--format", "csv")
        assert code == 0
        assert out == (
            "candidate,min,max\n"
            "Begich,352331,596969\n"
            "Palin,327260,423215\n"
            "Peltola,398730,456495\n"
        )

    def test_irv_table(self, capsys, fixture):
        code, out, _ = invoke(capsys, "irv", fixture)
        assert code == 0
        assert "winner: Peltola" in out
        assert "51.46%" in out
        assert "11179" in out

    def test_pairwise_table_shows_published_shares(self, capsys, fixture):
        code, out, _ = invoke(capsys, "pairwise", fixture)
        assert code == 0
        for token in ("61.44%", "52.58%", "51.46%", "101438", "63666"):
            assert token in out

    def test_pairwise_include_ties_basis(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "pairwise", fixture, "--basis", "include-ties", "--format", "csv"
        )
        assert code == 0
        assert "Begich,Peltola,88212,79516,21201" in out

    def test_condorcet(self, capsys, fixture):
        code, out, _ = invoke(capsys, "condorcet", fixture, "--format", "csv")
        assert code == 0
        assert "condorcet_winner,Begich" in out
        assert "condorcet_loser,Palin" in out

    def test_squeeze(self, capsys, fixture):
        code, out, _ = invoke(capsys, "squeeze", fixture, "--format", "csv")
        assert code == 0
        assert "squeezed,true" in out
        assert "condorcet_winner_eliminated_in_round,1" in out

    def test_approval_eval_uniform(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "approval", "eval", fixture, "--p", "0.35", "--format", "csv"
        )
        assert code == 0
        assert "score Begich,826981/10" in out
        assert "winner,Begich" in out

    def test_approval_eval_group_overrides(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "approval", "eval", fixture,
            "--p", "0", "--p-group", "Peltola>Begich=1", "--format", "csv",
        )
        assert code == 0
        assert f"score Begich,{54157 + 47429}" in out

    def test_approval_threshold_note(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "approval", "threshold", fixture, "--riser", "Begich", "--leader", "Peltola"
        )
        assert code == 0
        assert "p* = 21738/62291 ≈ 0.3490" in out
        assert "1.349 approvals per ranking voter" in out

    def test_approval_clinch(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "approval", "clinch", fixture,
            "--candidate", "Begich", "--group", "Peltola>Begich", "--format", "csv",
        )
        assert code == 0
        assert "required_votes,40994" in out
        assert "guaranteed_total,95151" in out

    def test_approval_sweep_grid(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "approval", "sweep", fixture, "--grid", "0:1:0.5", "--format", "csv"
        )
        assert code == 0
        assert out == "p,winner\n0,Peltola\n1/2,Begich\n1,Begich\n"

    def test_star_eval(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "star", "eval", fixture, "--s", "1", "--format", "csv"
        )
        assert code == 0
        assert "finalists,Begich|Peltola" in out
        assert "runoff Begich,88212" in out
        assert "runoff Peltola,79516" in out
        assert "winner,Begich" in out

    def test_star_threshold(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "star", "threshold", fixture,
            "--guaranteed", "Begich", "--rival", "Palin", "--format", "csv",
        )
        assert code == 0
        assert "threshold_stars,187/100" in out
        assert "achieved_score,21163801/50" in out
        assert "rival_maximum,423215" in out

    def test_star_sweep_grid(self, capsys, fixture):
        code, out, _ = invoke(
            capsys, "star", "sweep", fixture, "--grid", "1:4:1", "--format", "csv"
        )
        assert code == 0
        assert out == "s,winner\n1,Begich\n2,Begich\n3,Begich\n4,Begich\n"

    def test_star_sweep_rejects_step_finer_than_hundredths(self, capsys, fixture):
        code, out, err = invoke(capsys, "star", "sweep", fixture, "--grid", "1:2:0.003")
        assert code == 2
        assert out == ""
        assert err == "error: grid step must be a whole number of hundredths, got 3/1000\n"

    def test_star_sweep_rejects_step_wider_than_the_scale(self, capsys, fixture):
        code, out, err = invoke(capsys, "star", "sweep", fixture, "--grid", "1:4:3.5")
        assert code == 2
        assert out == ""
        assert err == "error: grid step must lie in (0, 3], got 7/2\n"

    def test_irv_reads_condensed_file_with_byte_order_mark(self, capsys, fixture, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + Path(fixture).read_bytes())
        expected = invoke(capsys, "irv", fixture, "--format", "csv")
        assert expected[0] == 0
        assert invoke(capsys, "irv", str(path), "--format", "csv") == expected

    def test_plot_data_flags(self, capsys, fixture):
        code, out, _ = invoke(capsys, "approval", "range", fixture, "--plot-data")
        assert code == 0
        assert out.startswith("candidate,segment,source,value\n")
        code, star_out, _ = invoke(capsys, "star", "range", fixture, "--plot-data")
        assert code == 0
        assert "Begich,potential,Peltola,142287" in star_out

    @pytest.mark.parametrize("model", ["approval", "star"])
    def test_plot_data_takes_format_csv_only(self, capsys, fixture, model):
        plain = invoke(capsys, model, "range", fixture, "--plot-data")
        assert plain[0] == 0
        assert invoke(capsys, model, "range", fixture, "--plot-data", "--format", "csv") == plain
        assert invoke(capsys, model, "range", "--format", "csv", fixture, "--plot-data") == plain
        for fmt in ("table", "json-lines"):
            assert invoke(capsys, model, "range", fixture, "--plot-data", "--format", fmt) == (
                2, "", f"error: --plot-data writes CSV and cannot take --format {fmt}\n")


class TestBeyondThreeCandidates:
    """Exact rows on 4-candidate rosters, where the fixture's digests do not reach."""

    def profile(self, tmp_path, rows: str) -> str:
        path = tmp_path / "four.csv"
        path.write_text("pattern,count\n" + rows)
        return str(path)

    def test_irv_rounds_after_an_early_elimination(self, capsys, tmp_path):
        # D falls in round 1 and B in round 2; B's bullets exhaust in round 3.
        path = self.profile(tmp_path, "bullet:A,10\nbullet:B,4\nfull:B>C,2\nfull:C>B,5\n"
                                      "full:D>C,2\nfull:D>A,1\nover2:A+B,1\n")
        code, out, _ = invoke(capsys, "irv", path, "--format", "csv")
        assert code == 0
        assert out == (
            "round,candidate,votes,share_active,share_round1,transfers_in,"
            "exhausted_this_round,active_ballots,status\n"
            "1,A,10,5/12,5/12,0,0,24,continuing\n"
            "1,B,6,1/4,1/4,0,0,24,continuing\n"
            "1,C,5,5/24,5/24,0,0,24,continuing\n"
            "1,D,3,1/8,1/8,0,0,24,eliminated\n"
            "2,A,11,11/24,11/24,1,0,24,continuing\n"
            "2,B,6,1/4,1/4,0,0,24,eliminated\n"
            "2,C,7,7/24,7/24,2,0,24,continuing\n"
            "3,A,11,11/20,11/24,0,4,20,winner\n"
            "3,C,9,9/20,3/8,2,4,20,continuing\n"
        )
        code, out, _ = invoke(capsys, "irv", path)
        assert code == 0
        assert "\nwinner: A with 55.00% of round-3 active ballots\n" in out

    def test_condorcet_leaves_out_a_pair_without_a_two_way_vote(self, capsys, tmp_path):
        # C and D appear only together in one two-way top overvote.
        path = self.profile(tmp_path, "bullet:A,5\nbullet:B,3\nfull:A>B,2\nfull:B>A,3\n"
                                      "over2:C+D,1\n")
        code, out, _ = invoke(capsys, "condorcet", path, "--format", "csv")
        assert code == 0
        assert out == (
            "item,value\n"
            "condorcet_winner,A\n"
            "condorcet_loser,(none)\n"
            "share A vs B,7/13\n"
            "share B vs A,6/13\n"
            "share A vs C,1\n"
            "share C vs A,0\n"
            "share A vs D,1\n"
            "share D vs A,0\n"
            "share B vs C,1\n"
            "share C vs B,0\n"
            "share B vs D,1\n"
            "share D vs B,0\n"
        )


def every_flag_parser() -> argparse.ArgumentParser:
    """The command-line parser with every row of ``COMMANDS`` given its flags."""
    parser = argparse.ArgumentParser(
        prog="ballotlab",
        description="Tabulate ranked-ballot profiles: instant runoff, head-to-head "
                    "contests, and approval/STAR counterfactual models.",
    )
    parser.add_argument("--version", action="version", version=f"ballotlab {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True, metavar="command")}
    for path, help_text, build, *flags in COMMANDS:
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, help=help_text)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
        if build is None:
            groups[name] = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    return parser


class TestHelpAndUsage:
    """``--help`` and every usage error read as they do with every command's flags built."""

    USAGE_ERRORS = [
        [], ["tallyho", "$F"], ["approval"], ["star", "nope", "$F"], ["irv"],
        ["irv", "$F", "--format", "xml"], ["irv", "$F", "--bogus"], ["irv", "$F", "--p", "1"],
        ["ingest", "$F", "--format", "csv"], ["pairwise", "$F", "--basis", "both"],
        ["approval", "threshold", "$F"], ["approval", "threshold", "$F", "--riser", "A"],
        ["approval", "sweep", "$F", "--grid", "0:1"], ["star", "sweep", "$F", "--grid", "0:1:x"],
        ["approval", "eval", "$F", "--p-group", "foo"], ["star", "eval", "$F", "--s-group", "A=1"],
        ["approval", "clinch", "$F", "--candidate", "A", "--group", "AB"], ["irv", "--version"],
        # Near-valid spellings, which the fast path leaves to argparse.
        ["irv", "$F", "$F"], ["irv", "$F", "--form", "xml"], ["irv", "$F", "--format"],
        ["irv", "$F", "--format", "--out"], ["irv", "$F", "--", "--format", "csv"],
        ["irv", "$F", "--format=xml"], ["star", "range", "$F", "--plot-data=1"],
        ["approval", "eval", "$F", "--p-group", "-1"], ["approval", "sweep", "$F", "--grid=0:1"],
        ["approval", "threshold", "$F", "--riser=Begich"],
    ]

    def _outcome(self, capsys, parse, argv):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    def _compare(self, capsys, monkeypatch, argv) -> int:
        monkeypatch.setenv("COLUMNS", "80")
        got = self._outcome(capsys, run, argv)
        assert got == self._outcome(capsys, every_flag_parser().parse_args, argv)
        return got[0]

    @pytest.mark.parametrize("path", ["", *(row[0] for row in COMMANDS)])
    def test_help(self, capsys, monkeypatch, path):
        assert self._compare(capsys, monkeypatch, [*path.split(), "--help"]) == 0

    def test_version(self, capsys, monkeypatch):
        assert self._compare(capsys, monkeypatch, ["--version"]) == 0

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error(self, capsys, monkeypatch, fixture, argv):
        assert self._compare(capsys, monkeypatch, [fixture if a == "$F" else a for a in argv]) == 2


# Values the property below gives a flag without choices, besides a candidate's name;
# any flag may also get one of ODD_VALUES, which some flags refuse.
FLAG_VALUES = {
    "--out": ["out.csv"], "--p": ["0.35", "1/2", "2"], "--s": ["2", "4", "5"],
    "--p-group": ["Peltola>Begich=0.9", "Begich>Palin=1/3"], "--s-group": ["Begich>Palin=4"],
    "--group": ["Peltola>Begich"], "--grid": ["0:1:0.5", "1:4:0.5", "-1:1:1"],
}
ODD_VALUES = ["xml", "x", "A=1", "0:1", "-1", ""]
NAMES = ["Begich", "Palin", "Peltola", "Nobody"]


@st.composite
def command_lines(draw) -> list[str]:
    """An argv built from one :data:`COMMANDS` row: the file and the row's flags, each
    given zero to two times as ``--flag value`` or ``--flag=value`` in any order, and
    sometimes near-valid tokens besides: an abbreviated or unknown flag, ``--``, help,
    a second file, a negative number, a value given to a switch, a flag without its value."""
    path, _, _, *flags = draw(st.sampled_from(COMMANDS))
    given = [["$F"]]
    near = [["--"], ["-h"], ["--version"], ["$F"], ["--bogus"], ["-1"], ["--plot-data=1"]]
    for (name,), kwargs in flags:
        if name == "file":
            continue
        if kwargs.get("action") == "store_true":
            given += [[name]] * draw(st.sampled_from([0, 1, 1, 2]))
            continue
        values = st.sampled_from(kwargs.get("choices") or FLAG_VALUES.get(name, NAMES))
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            value = draw(st.sampled_from(ODD_VALUES) if draw(st.integers(0, 5)) == 0 else values)
            given.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
        near += [[name[:-1], draw(values)], [name]]  # abbreviated, or without its value
    given.append(draw(st.sampled_from([[]] * len(near) + near)))  # near-valid half the time
    return [*path.split(), *(t for group in draw(st.permutations(given)) for t in group)]


def command_path(namespace: dict) -> str:
    """The :data:`COMMANDS` path a parsed namespace names."""
    return " ".join(filter(None, (namespace["command"], namespace.get("subcommand"))))


class TestFastPath:
    """:func:`cli._parse` answers only where argparse accepts, with argparse's namespace;
    whether it answers or not, :func:`run` behaves as it does with argparse alone."""

    @staticmethod
    def _outcome(capsysbinary, call, argv):
        """Exit code, stdout, stderr, and the files written to the working directory."""
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        written = {}
        for path in Path().iterdir():
            written[path.name] = path.read_bytes()
            path.unlink()
        return code, *capsysbinary.readouterr(), written

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=command_lines())
    def test_fast_path_reads_argv_as_argparse_does(self, capsysbinary, monkeypatch, fixture,
                                                   tmp_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)  # where --out writes
        argv = [fixture if a == "$F" else a for a in argv]
        fast = _parse(argv)
        try:
            expected = vars(every_flag_parser().parse_args(argv))
        except SystemExit as exc:
            refused = exc.code, *capsysbinary.readouterr(), {}
            event("argparse refuses")
            assert fast is None
            assert self._outcome(capsysbinary, run, argv) == refused
        else:
            event("argparse accepts; fast path " + ("declines" if fast is None else "answers"))
            if fast is not None:
                assert vars(fast) == {"build": BUILDERS[command_path(expected)], **expected}
            ran = self._outcome(capsysbinary, run, argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_parse", lambda argv: None)
                assert self._outcome(capsysbinary, run, argv) == ran

    @pytest.mark.parametrize("argv", [
        ["irv", "$F"],
        ["irv", "--format=csv", "$F", "--out", "o.csv", "--input-format", "condensed"],
        ["approval", "sweep", "$F"], ["approval", "sweep", "$F", "--grid=0:1:0.5"],
        ["approval", "eval", "$F", "--p-group", "A>B=1", "--p-group=C>D=1/2", "--p", "0"],
        ["star", "range", "$F", "--plot-data", "--plot-data"], ["pairwise", "$F"],
        ["approval", "threshold", "$F", "--riser", "Begich", "--leader=Peltola=x"],
    ], ids=" ".join)
    def test_plain_argv_is_read_without_argparse(self, argv):
        expected = vars(every_flag_parser().parse_args(argv))
        assert vars(_parse(argv)) == {"build": BUILDERS[command_path(expected)], **expected}

    @pytest.mark.parametrize("argv", [
        ["irv"], ["approval", "$F"], ["irv", "$F", "-h"], ["irv", "$F", "--version"],
        ["irv", "$F", "--form", "csv"], ["irv", "$F", "--"], ["irv", "$F", "$F"],
        ["irv", "$F", "--format"], ["irv", "$F", "--format", ""], ["irv", "$F", "--out="],
        ["approval", "eval", "$F", "--p", "-1"], ["approval", "eval", "$F", "--p=-1"],
        ["star", "range", "$F", "--plot-data=1"], ["approval", "threshold", "$F"],
        ["irv", "$F", "--format", "xml"], ["approval", "sweep", "$F", "--grid", "0:1"],
        ["irv", "-", "--format", "csv"], ["irv", ""], ["IRV", "$F"],
    ], ids=repr)
    def test_anything_else_goes_to_argparse(self, argv):
        assert _parse(argv) is None

    @pytest.mark.parametrize("declined, spelled_out", [
        (["irv", "$F", "--form", "csv"], ["irv", "$F", "--format", "csv"]),
        (["approval", "eval", "$F", "--format", "csv", "--p-g", "Peltola>Begich=0.9"],
         ["approval", "eval", "$F", "--format", "csv", "--p-group", "Peltola>Begich=0.9"]),
    ])
    def test_spellings_only_argparse_reads_still_run(self, capsys, fixture, declined, spelled_out):
        declined, spelled_out = ([fixture if a == "$F" else a for a in argv]
                                 for argv in (declined, spelled_out))
        assert _parse(declined) is None
        assert invoke(capsys, *declined) == invoke(capsys, *spelled_out)


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_repeated_runs_are_byte_identical(self, capsys, fixture, fmt):
        args = ("pairwise", fixture, "--format", fmt)
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second

    def test_table_provenance_is_stable(self, capsys, fixture):
        first = invoke(capsys, "irv", fixture)
        second = invoke(capsys, "irv", fixture)
        assert first == second
        assert "sha256=" in first[1]


# sha256 of the stdout of model commands on the fixture, recorded before
# sweeps and the STAR threshold were computed in closed form, and of every
# other README command before the CLI became one command table.  The
# 1/62291 grid lands on the exact Begich-Peltola crossing 21738/62291, a
# tied row; it was recorded before the score lines were counted in
# ``score_lines`` alone.  The input follows the command words; a
# ``None`` format passes no ``--format`` flag; ``ingest`` reads RAW_CVR.
# Table output ends in a provenance line carrying the argv and the package
# version.
MODEL_COMMAND_DIGESTS = {
    ("approval sweep --grid 0:1:0.0001", "table"):
        "507e5de2e5d7d3e4beb32ee93da5ba19d1f8b1efb67041e50ae5b41bacd484bc",
    ("approval sweep --grid 0:1:0.0001", "csv"):
        "996812b3be755080ce484e1293fd547405f4edbc67a000612e8a530fa4779937",
    ("approval sweep --grid 0:1:0.0001", "json-lines"):
        "e7639f6799211396605376e4b88623025f0b04dc985ace19b46f370480bc2127",
    ("approval sweep --grid 0:1:1/62291", "table"):
        "183a3d0e8b9f6811048bc1777cc72589be649b6cbc40635ecbfb2a15056e742a",
    ("approval sweep --grid 0:1:1/62291", "csv"):
        "9f9cd586716b65518557fc41eef37bb148a2922e2f202905f77888f382db8221",
    ("approval sweep --grid 0:1:1/62291", "json-lines"):
        "7eb37f4ea4dd461623e248b9649caa51737fb371237ae82f6163a4e1abaac09a",
    ("star sweep", "table"):
        "467fd936f15b6b286be80cc3e6358b8de53d474e9f22175f77f643650823dafd",
    ("star sweep", "csv"):
        "162b345bfe378b80fe96396506c89c1a176556678bdd96e738555744bbf9beca",
    ("star sweep", "json-lines"):
        "f55e87ddf8d8e9677cbbaf97568e1d8a37d3a144f03bd93c56d905b64b99dd40",
    ("approval threshold --riser Begich --leader Peltola", "table"):
        "905f1a8af18928f5dafaf384839255cb2c66b07d9e5d3c12f3fe501f7d44857c",
    ("approval threshold --riser Begich --leader Peltola", "csv"):
        "d81d6c89d1b7b7aad91950a3290d9f8a0f3477ebcf8cae77559405a1b9c3436c",
    ("approval threshold --riser Begich --leader Peltola", "json-lines"):
        "15e5557667a3c65c8e6c0c143f9f1390d988ed1d42a60508a83ab449a0a80022",
    ("star threshold --guaranteed Begich --rival Palin", "table"):
        "c572db942490c0e89432594ff442e833b03e4e86e1865b948d8a0360f6df7fca",
    ("star threshold --guaranteed Begich --rival Palin", "csv"):
        "10962b53755e15ceb11c87eba2da94f523628aad5cc25b67cf8d1016b01a9378",
    ("star threshold --guaranteed Begich --rival Palin", "json-lines"):
        "044d72b64e16272c3f7bc4fcf63b666ed82073328f00caab3c545a30c135e340",
    ("irv", "table"):
        "ddf5dc0cf1fa87b4b175ff7bd2de21480158ad8aa68a93f666d21c002a99269b",
    ("irv", "csv"):
        "bfe85e7b7eb08fab724b0d6d0ed1e6d4f8e986f6dceff4b379ff87a156141b84",
    ("irv", "json-lines"):
        "1af30bb50f0f5e0c9debf1be1ff42db6c1ce166716db21effb8d4c2121d89181",
    ("pairwise", "table"):
        "9ae574db79381fdd3bb3963900aa98f8ef85d2a3d30a39cb0eddb293f88ef99f",
    ("pairwise", "csv"):
        "0828bcbcc055d6eaabc44e8493e412410b5b77fb6774d580aac4a1358cc01732",
    ("pairwise", "json-lines"):
        "b17fd3ea7bed0536f5a82454e2ce9f92845eec62fad1b53cf5c62b9fce37dc88",
    ("pairwise --basis include-ties", "table"):
        "c05ea099227c4d08891c64463963eed22248747d5fc054c26a8388c1d072020e",
    ("pairwise --basis include-ties", "csv"):
        "e541a37f12691535204aa605e8ad6acf8ae1515717fc76303a80b08e0f3a73c7",
    ("pairwise --basis include-ties", "json-lines"):
        "9030817f49f57ea86492755aa022de22d9aa563e479d04bbd6453eb565f8a8c6",
    ("condorcet", "table"):
        "eb8833e6787ae7ddb709fed4142ce5146328a14719c0f1fcb9935c321e4cc1f3",
    ("condorcet", "csv"):
        "fbbf93573c0fb0188552ef4bf068bfeddd119996eda3b7aa03c57b3bd61c9085",
    ("condorcet", "json-lines"):
        "89ba6d92d0af3da71f731d1d5b3861f730f05590e821adb6d846f7afa8065ddb",
    ("squeeze", "table"):
        "bcb62029d1899b18108319adf24501bd18cf2652967798ab3dbc39578a3384e0",
    ("squeeze", "csv"):
        "890a732fa555ab0723225184ae6feaff1667b69278940f8435eee30326e9d87d",
    ("squeeze", "json-lines"):
        "879563563196931da6885c9cc24b19258f2607fa7767bceda7ec1da4fb5726da",
    ("approval range", "table"):
        "72387ac173bb316ad9e6cc573880aad0399bd9dc27fe43ad5d445b0e9678d5f8",
    ("approval range", "csv"):
        "11addeacf26e0d7e6333e5c1942d15504891e54e4c5826bea838865cd7859665",
    ("approval range", "json-lines"):
        "3d36f96e5b97d15ba0a23a8fd4f5b9e4a81da5d6c405db4d0c018d330163a736",
    ("approval eval --p 0.35", "table"):
        "cb2d7cd231c6a61e3d00e9bd5d301ba29edc4807bd34cfb92cfd3feb2a3d92a0",
    ("approval eval --p 0.35", "csv"):
        "5c2c4efd999198e3eed2a62de7660b7595425b27aee6a0d3a232f54c8eaf5a7a",
    ("approval eval --p 0.35", "json-lines"):
        "cc7e8a255b790456c02e15e7122c0c41655e6f0d88985952b6aed1bba3732bf4",
    ("approval eval --p 0 --p-group Peltola>Begich=0.9", "table"):
        "9e2596ae08eab89bb5e4c45057ddc1f558240aea12d85bd4a5283a1b19239fad",
    ("approval eval --p 0 --p-group Peltola>Begich=0.9", "csv"):
        "f8abaf42a3e81c4d84b78be421cbdd6fc62d625292a9cfaf2b986be21bee90b1",
    ("approval eval --p 0 --p-group Peltola>Begich=0.9", "json-lines"):
        "2f4d203035e50c9a5adb79afe34ca790fe6c4b11701b46e8c9a4daf5d9779114",
    ("approval clinch --candidate Begich --group Peltola>Begich", "table"):
        "742464bd7d76df623304c2fd4ed44a46ccf21f3a904ec4b2f4b009f23c8c6b64",
    ("approval clinch --candidate Begich --group Peltola>Begich", "csv"):
        "51ce3d9a474cbaf555faa02d47d40b65d3c70d941e05ae92cf955ff2f527b03e",
    ("approval clinch --candidate Begich --group Peltola>Begich", "json-lines"):
        "5c1ee6afcc412682312246b6e1445338c912b9b76df1df2b76d8c4f4eaae835b",
    ("star range", "table"):
        "99e2623859630d7988ce411a3a047c63f9f0b9398b3c57bba377a0c81209eaa5",
    ("star range", "csv"):
        "868150aa8e6ba6dfd4e69ab8d567d29f1a1e46f8308b7473b1994abbf4e95913",
    ("star range", "json-lines"):
        "91b878ba8f609503ba738322da4ea8c1b54e16bc5a65e5e1331e0cdb66944a21",
    ("star eval --s 1 --s-group Begich>Palin=4", "table"):
        "10830d1f010a5ca7f4cb390ecd06ca4e41241f4826b1b740077f3dd74bec5e73",
    ("star eval --s 1 --s-group Begich>Palin=4", "csv"):
        "45ce65eba40834455e5f13cf500b6ef675371a52054d521ace5c670ed5fc2475",
    ("star eval --s 1 --s-group Begich>Palin=4", "json-lines"):
        "9e52e3aa3e912c06bed0c2d14c667c73cd12ec1969f450f35ff7048e02a2b041",
    ("approval range --plot-data", None):
        "a9666a7e0c681c0e3a4af42a7e9792b9c7d953797410d0b87e785ca03a709320",
    ("star range --plot-data", None):
        "e79a9a4d66d5472f943b9dc707e4de093f4aee9088835560dbea44c0d5b2b9dc",
    ("ingest", None):
        "307ace64fdda9d4cd31251e6e2e480174b55e32f75805e80ccb2a5109304cf99",
}

RAW_CVR = {
    "candidates": ["A", "B", "C"],
    "ballots": [
        [["A"], ["B"], []], [["A"], [], []], [["B", "C"], [], []], [[], [], []],
        [["C"], ["A"], []], [["B"], ["C"], ["A"]], [["A", "B", "C"], [], []],
        [["WRITEIN:zz"], ["C"], []], [["B"], ["A", "C"], []],
    ],
}


@pytest.mark.parametrize("command, fmt", MODEL_COMMAND_DIGESTS)
def test_model_command_output_is_unchanged(capsysbinary, monkeypatch, alaska_csv, tmp_path,
                                           command, fmt):
    # Run from the repository root so the provenance line names the fixture
    # by the same relative path as when the digests were recorded.
    monkeypatch.chdir(alaska_csv.parent.parent)
    words = command.split()
    n = next((i for i, w in enumerate(words) if w.startswith("--")), len(words))
    source = "fixtures/alaska_special_2022.condensed.csv"
    if words[0] == "ingest":
        source = tmp_path / "raw.json"
        source.write_text(json.dumps(RAW_CVR))
    argv = [*words[:n], str(source), *words[n:], *(["--format", fmt] if fmt else [])]
    assert run(argv) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digest == MODEL_COMMAND_DIGESTS[(command, fmt)]


# -- fresh-interpreter checks ----------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("approval", "cli", "condorcet", "core", "ingest", "irv", "rational", "report", "star")

# Runs in a new interpreter without site hooks, which may import modules
# first: records every module body that executes (the "exec" audit event),
# imports the CLI, runs one command with its output discarded, and prints
# what ran, and every module then imported, as JSON.
AUDIT_SCRIPT = """
import io, os, sys

executed = []
sys.addaudithook(lambda event, args: event == "exec" and executed.append(args[0].co_filename))

import ballotlab.cli

package = os.path.dirname(ballotlab.cli.__file__)
def ran():
    return sorted({os.path.basename(f) for f in executed if os.path.dirname(f) == package})

after_import = ran()
imported = sorted({os.path.basename(f) for f in executed})
loaded = sorted(m for m in sys.modules if m.startswith("ballotlab."))
sys.stdout = io.TextIOWrapper(io.BytesIO())
code = ballotlab.cli.run(sys.argv[1:])
modules = sorted(sys.modules)
import json
sys.__stdout__.write(json.dumps({
    "code": code,
    "after_import": after_import,
    "imported": imported,
    "loaded": loaded,
    "after_run": ran(),
    "executed": sorted({os.path.basename(f) for f in executed}),
    "modules": modules,
}))
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _audit(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", AUDIT_SCRIPT, *argv],
        env=_child_env(), capture_output=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout)


class TestHugeExponents:
    """``Fraction("1e-30000000")`` builds ``10**30000000``: minutes of CPU.  Each
    flag refuses such a value at once; the timeout fails a regression fast."""

    @pytest.mark.parametrize("argv, flag", [
        (["approval", "eval", "--p", "1e-30000000"], "--p"),
        (["approval", "eval", "--p-group", "Begich>Palin=1e30000000"], "--p-group"),
        (["star", "eval", "--s", "1E-30000000"], "--s"),
        (["star", "eval", "--s-group", "Palin>Begich=2e-30000000"], "--s-group"),
        (["approval", "sweep", "--grid", "0:1e-3000000:1e-3000000"],
         "argument --grid: grid value"),
    ])
    def test_flag_value_is_refused_promptly(self, alaska_csv, argv, flag):
        proc = subprocess.run(
            [sys.executable, "-m", "ballotlab", *argv[:2], str(alaska_csv), *argv[2:]],
            env=_child_env(), capture_output=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert f"error: {flag} has a decimal exponent outside ±4300: ".encode() in proc.stderr

    @pytest.mark.parametrize("fmt", ["csv", "json-lines", "table"])
    @pytest.mark.parametrize("argv", [
        ["approval", "eval", "--p", "1e-4300"],
        ["approval", "sweep", "--grid", "0:1e-4300:1e-4300"],
    ], ids=" ".join)
    def test_machine_format_names_the_digit_limit(self, alaska_csv, argv, fmt):
        """A value just inside the exponent bound has a 4301-digit denominator, which ``str()``
        refuses; the machine formats say so, and the table format rounds the value."""
        proc = subprocess.run(
            [sys.executable, "-m", "ballotlab", *argv[:2], str(alaska_csv), *argv[2:],
             "--format", fmt],
            env=_child_env(), capture_output=True, timeout=60,
        )
        if fmt == "table":
            assert (proc.returncode, proc.stderr) == (0, b"")
            return
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (b"error: exact value has a numerator or denominator of over 4300 "
                               b"digits, too long for machine output; table output rounds it\n")


MODEL_MODULES = {"approval.py", "condorcet.py", "irv.py", "scoring.py", "star.py"}


class TestLazyModelModules:
    # The flags a command needs to render its report on the fixture.
    REPORT_FLAGS = {
        "approval eval": ["--p", "1/2"],
        "approval threshold": ["--riser", "Begich", "--leader", "Peltola"],
        "approval clinch": ["--candidate", "Begich", "--group", "Peltola>Begich"],
        "star eval": ["--s", "2"],
        "star threshold": ["--guaranteed", "Begich", "--rival", "Palin"],
    }
    # Modules a command runs besides its builder's: the squeeze diagnostic runs the IRV
    # count, and approval and STAR score with the model they share.
    ALSO_RUNS = {"squeeze": {"irv.py"},
                 **dict.fromkeys((c for c in BUILDERS if c.startswith(("approval ", "star "))),
                                 {"scoring.py"})}

    @pytest.mark.parametrize("command, flags, absent", [
        ("irv", [],
         {"approval.py", "star.py", "condorcet.py", "dataclasses.py", "inspect.py"}),
        ("approval sweep", ["--format", "csv"],
         {"star.py", "condorcet.py", "irv.py", "hashlib.py", "dataclasses.py", "inspect.py"}),
        ("star eval", [], {"approval.py", "condorcet.py", "irv.py", "dataclasses.py", "inspect.py"}),
        ("squeeze", [], {"approval.py", "star.py", "dataclasses.py", "inspect.py"}),
        ("pairwise", [], {"irv.py", "approval.py", "star.py", "dataclasses.py", "inspect.py"}),
        ("star sweep", ["--format", "csv"],
         {"approval.py", "condorcet.py", "irv.py", "dataclasses.py", "inspect.py"}),
        ("star range", [], {"approval.py", "condorcet.py", "irv.py", "dataclasses.py", "inspect.py"}),
        ("star threshold", REPORT_FLAGS["star threshold"],
         {"approval.py", "condorcet.py", "irv.py", "dataclasses.py", "inspect.py"}),
    ])
    def test_command_executes_only_the_modules_it_uses(self, alaska_csv, command, flags, absent):
        result = _audit(*command.split(), str(alaska_csv), *flags)
        assert result["code"] == 0
        assert not absent & set(result["executed"])
        model = BUILDERS[command].partition(".")[0]  # the module holding the command's builder
        assert {f"{model}.py", "cli.py", "core.py"} <= set(result["after_run"])
        assert self.ALSO_RUNS.get(command, set()) <= set(result["after_run"])

    @pytest.mark.parametrize("command", BUILDERS)
    def test_builder_reference_names_a_function(self, command):
        assert callable(_builder(BUILDERS[command]))

    @pytest.mark.parametrize("path", ["", *(row[0] for row in COMMANDS)])
    def test_building_the_parser_executes_no_model_module(self, path):
        """``--help`` builds the parser for the path, with its flags, then exits."""
        result = _audit(*path.split(), "--help")
        assert result["code"] == 0
        assert not MODEL_MODULES & set(result["executed"])

    @pytest.mark.parametrize("raw", [False, True], ids=["condensed", "raw"])
    def test_ingest_loads_no_report_layer(self, alaska_csv, tmp_path, raw):
        source = alaska_csv
        if raw:
            source = tmp_path / "raw.json"
            source.write_text(json.dumps(RAW_CVR))
        result = _audit("ingest", str(source), "--out", str(tmp_path / "out.csv"))
        assert result["code"] == 0
        assert not {"report.py", "rational.py"} & set(result["executed"])
        assert not {"fractions", "decimal"} & set(result["modules"])

    @pytest.mark.parametrize("command", [c for c in BUILDERS if c != "ingest"])
    def test_command_that_renders_a_report_runs_the_report_layer(self, alaska_csv, command):
        result = _audit(*command.split(), str(alaska_csv), *self.REPORT_FLAGS.get(command, []))
        assert result["code"] == 0
        assert {"report.py", "rational.py"} <= set(result["after_run"])

    def test_format_choices_are_the_report_formats(self):
        assert _FORMAT[1]["choices"] == report.FORMATS
        assert _FORMAT[1]["help"] == f"output format (default: {report.TABLE})"

    def test_import_runs_no_model_module_yet_registers_every_layer(self, alaska_csv):
        result = _audit("ingest", str(alaska_csv))
        assert not MODEL_MODULES & set(result["after_import"])
        assert {f"ballotlab.{m}" for m in LAYERS} <= set(result["loaded"])
        assert not {"dataclasses.py", "inspect.py"} & set(result["imported"])

    @pytest.mark.parametrize("flags, imported, absent", [
        ([], set(), {"json", "csv", "gc"}),
        (["--format", "csv"], {"csv"}, {"json", "gc"}),
        (["--format", "json-lines"], {"json"}, {"csv", "gc"}),
    ], ids=["table", "csv", "json-lines"])
    def test_condensed_command_runs_no_raw_reader_and_imports_its_format_only(
            self, alaska_csv, flags, imported, absent):
        result = _audit("irv", str(alaska_csv), *flags)
        assert result["code"] == 0
        assert "ingest.py" not in result["executed"]
        assert imported <= set(result["modules"])
        assert not absent & set(result["modules"])

    def test_raw_command_runs_the_raw_reader(self, tmp_path):
        source = tmp_path / "raw.json"
        source.write_text(json.dumps(RAW_CVR))
        result = _audit("pairwise", str(source), "--format", "csv")
        assert result["code"] == 0
        assert "ingest.py" in result["executed"]
        assert {"json", "gc"} <= set(result["modules"])

    @pytest.mark.parametrize("argv, code", [
        (["irv", "$F"], 0),
        (["approval", "sweep", "$F", "--grid=0:1:0.5", "--format", "csv"], 0),
        (["ingest", "$F", "--out", "$OUT"], 0),
        (["irv", "--help"], 0),
        (["irv", "$F", "--bogus"], 2),
    ], ids=["irv", "approval-sweep", "ingest", "help", "usage-error"])
    def test_only_help_and_usage_errors_import_argparse(self, alaska_csv, tmp_path, argv, code):
        """Without site hooks, a valid command never imports ``argparse`` (nor ``gettext`` and
        ``shutil``, which it would bring); ``--help`` and a usage error do."""
        subs = {"$F": str(alaska_csv), "$OUT": str(tmp_path / "out.csv")}
        result = _audit(*(subs.get(a, a) for a in argv))
        assert result["code"] == code
        assert ("argparse" in result["modules"]) == (code != 0 or "--help" in argv)
        if "argparse" not in result["modules"]:
            assert not {"gettext", "shutil"} & set(result["modules"])

    def test_cli_imports_neither_pathlib_nor_typing(self):
        """Without site hooks, which may import them first, ``import ballotlab.cli`` loads none
        of these: ``pathlib`` and ``typing`` never, the rest only in the reader or output
        format that uses them."""
        names = {"pathlib", "typing", "json", "csv", "gc", "hashlib"}
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys, ballotlab.cli; print(sorted({names!r} & set(sys.modules)))"],
            env=_child_env(), capture_output=True, check=True, timeout=60,
        )
        assert proc.stdout == b"[]\n"

    def test_module_entry_point_matches_in_process_run(self, capsysbinary, alaska_csv):
        argv = ["irv", str(alaska_csv), "--format", "csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "ballotlab", *argv],
            env=_child_env(), capture_output=True, check=True, timeout=60,
        )
        assert run(argv) == 0
        captured = capsysbinary.readouterr()
        assert proc.stdout == captured.out
        assert proc.stderr == captured.err == b""
