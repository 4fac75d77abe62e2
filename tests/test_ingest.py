import codecs
import gc
import json
import re
import sys

import pytest

from ballotlab import (
    CondensedProfile,
    MalformedBallotError,
    ParseError,
    RawCvrDocument,
    classify_ballot,
    ingest,
    parse_condensed,
    parse_raw,
    write_condensed,
)
from ballotlab.cli import run
from ballotlab.ingest import ingest_raw

from .conftest import alaska
from .oracles import ranked_ballot, zero_profile


def raw_doc(ballots, candidates=("A", "B", "C")):
    return json.dumps({"candidates": list(candidates), "ballots": ballots}).encode()


DEEP = b"[" * 100_000
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_INTEGER = pytest.param(
    b'{"candidates": ["A", "B"], "ballots": [[[' + b"1" * 5000 + b"]]]}", id="long-integer",
    marks=pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 5000, reason="no integer digit limit"))


class TestParseRaw:
    def test_basic_document(self):
        doc = parse_raw(raw_doc([[["A"], ["B"], []]]))
        assert doc.candidates == ("A", "B", "C")
        assert len(doc.ballots) == 1
        assert doc.ballots[0].ranks == (frozenset(["A"]), frozenset(["B"]), frozenset())

    def test_overvote_rank(self):
        doc = parse_raw(raw_doc([[["A", "B"], [], []]]))
        assert doc.ballots[0].ranks[0] == frozenset(["A", "B"])

    def test_unknown_candidate_token(self):
        with pytest.raises(ParseError, match="names no roster candidate"):
            parse_raw(raw_doc([[["D"], [], []]]))

    def test_write_in_token_is_accepted(self):
        doc = parse_raw(raw_doc([[["WRITEIN:zz"], [], []]]))
        assert doc.ballots[0].ranks[0] == frozenset(["WRITEIN:zz"])

    def test_ragged_ballots(self):
        with pytest.raises(ParseError, match="rank positions"):
            parse_raw(raw_doc([[["A"], [], []], [["B"], []]]))

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError, match="unknown field"):
            parse_raw(b'{"candidates": ["A", "B"], "ballots": [], "extra": 1}')

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line 1, column"):
            parse_raw(b'{"candidates": [')

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ParseError, match="distinct"):
            parse_raw(raw_doc([], candidates=("A", "A")))

    @pytest.mark.parametrize("field", ["candidates", "ballots"])
    def test_repeated_field_rejected(self, field):
        fields = {"candidates": '["A", "B", "C"]',
                  "ballots": '[[["A"], [], []], [["B"], [], []]]'}
        data = ", ".join(f'"{name}": {value}' for name, value in fields.items())
        with pytest.raises(ParseError, match=f"^raw document repeats field '{field}'$"):
            parse_raw(f'{{{data}, "{field}": {fields[field]}}}'.encode())

    @pytest.mark.parametrize("data", [pytest.param(DEEP, id="deep-nesting"), LONG_INTEGER])
    def test_undecodable_document_is_a_parse_error(self, capsys, tmp_path, data):
        for read in (parse_raw, ingest_raw):
            with pytest.raises(ParseError, match="^raw document cannot be read: "):
                read(data)
        path = tmp_path / "raw.json"
        path.write_bytes(data)
        assert run(["irv", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: raw document cannot be read: ")

    def test_byte_order_mark(self, tmp_path):
        data = raw_doc([[["A"], ["B"], []], [["C"], ["WRITEIN:x"], ["A"]], [["B", "C"], [], []]])
        assert parse_raw(codecs.BOM_UTF8 + data) == parse_raw(data)
        assert ingest_raw(codecs.BOM_UTF8 + data) == ingest_raw(data)
        for name, body in (("plain", data), ("bom", codecs.BOM_UTF8 + data)):
            (tmp_path / f"{name}.json").write_bytes(body)
            assert run(["ingest", str(tmp_path / f"{name}.json"),
                        "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_not_utf8(self):
        message = ("raw document is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                   "in position 17: invalid start byte")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_raw(b'{"candidates": ["\xff"], "ballots": []}')

    def test_repeated_field_is_a_cli_parse_error(self, capsys, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text('{"candidates": ["A", "B", "C"], "ballots": [[["A"], [], []], '
                        '[["B"], [], []]], "ballots": [[["A"], [], []]]}')
        assert run(["ingest", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: raw document repeats field 'ballots'\n")


class TestDocumentShapeErrors:
    """Each shape error of a raw document, through both readers and the CLI."""

    CASES = [
        (b"[]", "raw document must be a JSON object"),
        (b'{"candidates": ["A"]}', "raw document needs both 'candidates' and 'ballots'"),
        (b'{"ballots": []}', "raw document needs both 'candidates' and 'ballots'"),
        (b'{"candidates": "AB", "ballots": []}', "'candidates' must be an array of strings"),
        (b'{"candidates": ["A", 1], "ballots": []}', "'candidates' must be an array of strings"),
        (b'{"candidates": ["A", "B"], "ballots": {}}', "'ballots' must be an array"),
        (b'{"candidates": ["A", "B"], "ballots": [[["A"]], "A"]}',
         "ballot 1 must be an array of rank positions"),
    ]

    @pytest.mark.parametrize("data, message", CASES)
    @pytest.mark.parametrize("read", [parse_raw, ingest_raw])
    def test_library_reader(self, read, data, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read(data)

    @pytest.mark.parametrize("data, message", CASES)
    def test_cli_exits_2_and_writes_nothing(self, capsys, tmp_path, data, message):
        path, out = tmp_path / "raw.json", tmp_path / "out.csv"
        path.write_bytes(data)
        assert run(["ingest", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestIngest:
    def test_small_document(self):
        doc = parse_raw(raw_doc([
            [["A"], ["B"], ["C"]],
            [["A"], [], []],
            [["A", "B"], [], []],
        ]))
        profile = ingest(doc)
        assert profile.full_count("A", "B") == 1
        assert profile.bullet_count("A") == 1
        assert profile.over2_count("A", "B") == 1
        assert profile.blank_count == 0

    def test_blank_ballots_counted(self):
        doc = parse_raw(raw_doc([[[], [], []], [["WRITEIN:q"], [], []]]))
        profile = ingest(doc)
        assert profile.blank_count == 2
        assert profile.total_with_any_mark == 0

    def test_zero_ballots(self):
        assert ingest(parse_raw(raw_doc([]))) == zero_profile(("A", "B", "C"))

    def test_partitions_input(self):
        doc = parse_raw(raw_doc([
            [["A"], ["C"], []],
            [["B", "C"], [], []],
            [[], [], []],
            [["A", "B", "C"], [], []],
        ]))
        profile = ingest(doc)
        total = profile.total_with_any_mark + profile.blank_count
        assert total == len(doc.ballots)

    @pytest.mark.parametrize(("ranks", "message"), [
        pytest.param([{"WRITEIN:w", "Z", "A"}, {"B"}, set()],
                     "mark 'Z' names no roster candidate", id="unknown-mark-beside-a-write-in"),
        pytest.param([{"Z"}, {"B"}, set(), set()],
                     "ballot has 4 rank positions but the roster has only 3 candidates",
                     id="rank-count-beats-unknown-mark"),
    ])
    def test_hand_built_document_errors(self, ranks, message):
        doc = RawCvrDocument(("A", "B", "C"), (ranked_ballot([["A"], ["B"], []]),
                                               ranked_ballot(ranks)))
        with pytest.raises(MalformedBallotError, match=f"^{re.escape(message)}$"):
            ingest(doc)


VALID = [["A"], ["B"], []]


class TestRepeatedGrids:
    def test_identical_grids_share_one_ballot(self):
        doc = parse_raw(raw_doc([VALID, [["A"], ["B"], ["C"]], VALID, [["A"], ["B"], []]]))
        assert len(doc.ballots) == 4
        assert doc.ballots[0] is doc.ballots[2] is doc.ballots[3]
        assert doc.ballots[1] is not doc.ballots[0]

    def test_mark_order_and_duplicates_share_one_ballot(self):
        doc = parse_raw(raw_doc([[["A", "B"], [], []], [["B", "A", "A"], [], []]]))
        assert doc.ballots[0] is doc.ballots[1]
        assert doc.ballots[0].ranks[1] is doc.ballots[0].ranks[2]


class TestRepeatedGridErrors:
    """A reused grid never hides an error: the CLI reports the first offending ballot."""

    @pytest.mark.parametrize(
        ("ballots", "candidates", "message"),
        [
            pytest.param(
                [VALID, ["A", ["B"], []]], "ABC",
                "ballot 1 rank 1 must be an array of mark strings",
                id="string-rank",
            ),
            pytest.param(
                [[["A", "B"], [], []], ["AB", [], []]], "ABC",
                "ballot 1 rank 1 must be an array of mark strings",
                id="string-rank-spelling-a-seen-rank",
            ),
            pytest.param(
                [VALID, [{"A": 1}, ["B"], []]], "ABC",
                "ballot 1 rank 1 must be an array of mark strings",
                id="object-rank",
            ),
            pytest.param(
                [VALID, [[["A"]], ["B"], []]], "ABC",
                "ballot 1 rank 1 must be an array of mark strings",
                id="nested-array-mark",
            ),
            pytest.param(
                [VALID, [["A"], 2, []]], "ABC",
                "ballot 1 rank 2 must be an array of mark strings",
                id="number-rank",
            ),
            pytest.param(
                [[["A"], ["B"], ["C"]], [["A"], ["B"], [1]]], "ABC",
                "ballot 1 rank 3 must be an array of mark strings",
                id="integer-mark-after-seen-prefix",
            ),
            pytest.param(
                [[["A"], ["B"], ["C"]], [["A"], ["B"], [{"x": 1}]]], "ABC",
                "ballot 1 rank 3 must be an array of mark strings",
                id="object-mark-after-seen-prefix",
            ),
            pytest.param(
                [VALID, [["A"], ["B"], ["D"]]], "ABC",
                "ballot 1 rank 3: mark 'D' names no roster candidate",
                id="unknown-mark-after-seen-prefix",
            ),
            pytest.param(
                [VALID] * 1000 + [[["A"], ["B"]]], "ABC",
                "ballot 1000 has 2 rank positions, expected 3",
                id="rank-count-after-repeats",
            ),
            pytest.param(
                [[["A", "B", "C"], [], [], []], [["A"], [], [], "B"]], "ABCD",
                "ballot 1 rank 4 must be an array of mark strings",
                id="structural-error-beats-earlier-overvote",
            ),
            pytest.param(
                [VALID, [["Z"], [], []]], "AB",
                "ballot 1 rank 1: mark 'Z' names no roster candidate",
                id="unknown-mark-beats-rank-count",
            ),
            pytest.param(
                [VALID], "AB",
                "ballot has 3 rank positions but the roster has only 2 candidates",
                id="rank-count-once-every-ballot-is-checked",
            ),
            pytest.param(
                [VALID, [["WRITEIN:a", "Y", "A", "X"], [], []]], "ABC",
                "ballot 1 rank 1: mark 'Y' names no roster candidate",
                id="first-unknown-mark-in-rank-order",
            ),
            pytest.param(
                [VALID, [["Z", 1], [], []]], "ABC",
                "ballot 1 rank 1 must be an array of mark strings",
                id="non-string-mark-beats-unknown-mark",
            ),
            pytest.param(
                [VALID, [["A"], [True], []]], "ABC",
                "ballot 1 rank 2 must be an array of mark strings",
                id="boolean-mark",
            ),
        ],
    )
    def test_exact_message_and_exit_code(self, capsys, tmp_path, ballots, candidates, message):
        path = tmp_path / "raw.json"
        path.write_bytes(raw_doc(ballots, tuple(candidates)))
        assert run(["ingest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("marks", [3, 4])
    def test_first_failing_grid_names_the_error(self, capsys, tmp_path, marks):
        overvotes = [[list("ABCDE"[:k]), [], [], [], []] for k in (marks, 7 - marks)]
        path = tmp_path / "raw.json"
        path.write_bytes(raw_doc([[["A"], [], [], [], []], *overvotes, *overvotes], "ABCDE"))
        assert run(["ingest", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: top-rank overvote of {marks} marks covers neither two candidates "
            "nor the whole roster\n"
        )


class TestOneCheckPerDistinctRank:
    """Each distinct raw array rank is checked once, in file order, up to the first error.

    The documents are indented, a layout that ``ingest_raw`` reads with
    ``parse_raw`` then ``ingest``; the distinct-text reader's checks
    are in ``TestDistinctTexts``."""

    BALLOTS = [
        [["A"], ["B"], []], [["A"], ["B"], []], [["B", "A"], [], []], [["A"], [], ["B"]],
        [["A", "B"], ["WRITEIN:x"], []], [["B"], ["WRITEIN:x"], ["A"]],
    ]
    FIRST_SEEN = [(0, 0, ["A"]), (0, 1, ["B"]), (0, 2, []), (2, 0, ["B", "A"]),
                  (4, 0, ["A", "B"]), (4, 1, ["WRITEIN:x"])]

    def checks(self, monkeypatch, read, ballots):
        module = sys.modules["ballotlab.ingest"]
        check_rank, calls = module._check_rank, []

        def spy(i, j, raw_rank, roster_set):
            calls.append((i, j, raw_rank))
            return check_rank(i, j, raw_rank, roster_set)

        monkeypatch.setattr(module, "_check_rank", spy)
        try:
            read(json.dumps({"candidates": ["A", "B", "C"], "ballots": ballots}, indent=1).encode())
        except ParseError:
            pass
        return calls

    @pytest.mark.parametrize("read", [parse_raw, ingest_raw])
    def test_repeated_ranks_are_not_checked_again(self, monkeypatch, read):
        assert self.checks(monkeypatch, read, self.BALLOTS) == self.FIRST_SEEN

    @pytest.mark.parametrize("read", [parse_raw, ingest_raw])
    @pytest.mark.parametrize(("broken", "last"), [
        pytest.param([["A"], "B", []], [(6, 1, "B")], id="string-rank-spelling-a-seen-rank"),
        pytest.param([["A"], [["B"]], []], [(6, 1, [["B"]])], id="nested-array-mark"),
        pytest.param([["C"], ["D"], []], [(6, 0, ["C"]), (6, 1, ["D"])], id="unknown-mark"),
        pytest.param([["C"], []], [], id="rank-count"),
    ])
    def test_checks_stop_at_the_first_error(self, monkeypatch, read, broken, last):
        ballots = [*self.BALLOTS, broken, [["C"], [], ["B", "A"]]]
        assert self.checks(monkeypatch, read, ballots) == [*self.FIRST_SEEN, *last]


class TestGcPause:
    """parse_raw decodes with the cyclic collector paused and restores the caller's setting."""

    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def gc_before(self, request):
        was_enabled = gc.isenabled()
        gc.enable() if request.param else gc.disable()
        yield request.param
        gc.enable() if was_enabled else gc.disable()

    @pytest.mark.parametrize(("data", "error"), [
        pytest.param(raw_doc([VALID, [["WRITEIN:w"], ["A"], []]]), None, id="valid"),
        pytest.param(b'{"candidates": [', "syntax error", id="bad-json"),
        pytest.param(raw_doc([VALID, [["A"], ["D"], []]]), "names no roster", id="bad-ballot"),
        pytest.param(DEEP, "cannot be read", id="deep-nesting"),
    ])
    def test_setting_is_restored(self, gc_before, data, error):
        if error is None:
            parse_raw(data)
        else:
            with pytest.raises(ParseError, match=error):
                parse_raw(data)
        assert gc.isenabled() is gc_before

    def test_collector_is_paused_while_decoding(self, gc_before, monkeypatch):
        seen = []
        loads = json.loads
        monkeypatch.setattr(
            json, "loads", lambda text, **kw: seen.append(gc.isenabled()) or loads(text, **kw)
        )
        parse_raw(raw_doc([VALID]))
        assert seen == [False]

    @pytest.mark.parametrize(("data", "error"), [
        pytest.param(raw_doc([VALID, [["WRITEIN:w"], ["A"], []]]), None, id="valid"),
        pytest.param(b'{"candidates": [', "syntax error", id="bad-json"),
        pytest.param(raw_doc([VALID, [["A"], ["D"], []]]), "names no roster", id="bad-ballot"),
        pytest.param(raw_doc([[["A", "B", "C"], [], [], []]], "ABCD"), "top-rank overvote",
                     id="unclassifiable-ballot"),
        pytest.param(DEEP, "cannot be read", id="deep-nesting"),
    ])
    def test_one_pass_restores_the_setting(self, gc_before, data, error):
        if error is None:
            ingest_raw(data)
        else:
            with pytest.raises(ValueError, match=error):
                ingest_raw(data)
        assert gc.isenabled() is gc_before

    def test_one_pass_pauses_the_collector_from_decoding_to_condensing(self, gc_before, monkeypatch):
        """``parse_raw`` then ``ingest`` (an indented document): one ``json.loads``, two grids."""
        seen = []
        loads = json.loads
        monkeypatch.setattr(
            json, "loads", lambda text, **kw: seen.append(gc.isenabled()) or loads(text, **kw)
        )
        monkeypatch.setattr(
            sys.modules["ballotlab.ingest"], "classify_ballot",
            lambda ballot, roster: seen.append(gc.isenabled()) or classify_ballot(ballot, roster)
        )
        ingest_raw(json.dumps({"candidates": ["A", "B", "C"],
                               "ballots": [VALID, [["B"], [], []]]}, indent=1).encode())
        assert seen == [False, False, False]

    def test_distinct_texts_are_read_with_the_collector_paused(self, gc_before, monkeypatch):
        """The distinct-text reader: the roster and two ballot texts scanned, two grids."""
        module, seen = sys.modules["ballotlab.ingest"], []
        scan = module._scan
        monkeypatch.setattr(json, "loads", lambda *args, **kw: pytest.fail("json.loads called"))
        monkeypatch.setattr(
            module, "_scan", lambda text, at: seen.append(gc.isenabled()) or scan(text, at))
        monkeypatch.setattr(
            module, "classify_ballot",
            lambda ballot, roster: seen.append(gc.isenabled()) or classify_ballot(ballot, roster)
        )
        ingest_raw(raw_doc([VALID, [["B"], [], []], VALID]))
        assert seen == [False] * 5
        assert gc.isenabled() is gc_before


class TestClassifyOncePerRosterOnlyGrid:
    def test_grids_differing_in_write_ins_order_and_empty_ranks(self, monkeypatch):
        grids = []

        def counting(ballot, roster):
            grids.append(ballot.ranks)
            return classify_ballot(ballot, roster)

        monkeypatch.setattr(sys.modules["ballotlab.ingest"], "classify_ballot", counting)
        doc = parse_raw(raw_doc([
            [["A"], ["B"], []],
            [["A"], [], ["B"]],
            [["WRITEIN:x"], ["A"], ["B"]],
            [["A", "WRITEIN:y"], ["WRITEIN:z", "B"], []],
            [["WRITEIN:y", "A"], ["B", "WRITEIN:z"], []],
            [[], ["A"], ["B", "WRITEIN:x"]],
            [["A"], ["B"], []],
        ]))
        assert len(set(map(id, doc.ballots))) == 5
        assert ingest(doc) == CondensedProfile(("A", "B", "C"), {("A", "B"): 7})
        assert grids == [(frozenset("A"), frozenset("B"))]

    def test_each_distinct_pattern_is_classified_in_order_of_first_appearance(self, monkeypatch):
        keys = []

        def recording(ballot, roster):
            keys.append(classify_ballot(ballot, roster))
            return keys[-1]

        monkeypatch.setattr(sys.modules["ballotlab.ingest"], "classify_ballot", recording)
        ingest(parse_raw(raw_doc([
            [["C"], ["A"], []], [["A"], ["B"], []], [["C"], ["WRITEIN:q"], ["A"]], [["A"], [], ["B"]],
        ])))
        assert keys == [("C", "A"), ("A", "B")]

    def test_one_pass_counts_each_ballot_under_its_roster_only_grid(self, monkeypatch):
        grids = []

        def counting(ballot, roster):
            grids.append(ballot.ranks)
            return classify_ballot(ballot, roster)

        monkeypatch.setattr(sys.modules["ballotlab.ingest"], "classify_ballot", counting)
        profile = ingest_raw(raw_doc([
            [["C"], ["A"], []],
            [["A"], [], ["B"]],
            [["WRITEIN:x"], ["A"], ["B"]],
            [["B", "WRITEIN:y"], [], []],
            [["A", "WRITEIN:y"], ["WRITEIN:z", "B"], []],
            [["C"], ["WRITEIN:q"], ["A"]],
        ]))
        assert profile == CondensedProfile(("A", "B", "C"),
                                           {("B",): 1, ("A", "B"): 3, ("C", "A"): 2})
        assert grids == [(frozenset("C"), frozenset("A")), (frozenset("A"), frozenset("B")),
                         (frozenset("B"),)]


def _outcome(read):
    """A profile with its counts in order, or the exception's type and message."""
    try:
        profile = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return profile, list(profile.counts.items())


def _layouts(doc):
    """A document written compact and with ``json.dumps``'s defaults."""
    return [json.dumps(doc, separators=(",", ":")).encode(), json.dumps(doc).encode()]


class TestDistinctTexts:
    """``ingest_raw`` reads each distinct ballot text once on compact and default
    layouts, and gives ``ingest(parse_raw(data))``'s profile, counts order and errors."""

    WRITE_INS_HOLDING_SEPARATORS_AND_ESCAPES = {
        "candidates": ["A", "B", "C"],
        "ballots": [[["A"], ["WRITEIN:]],[["], []], [["A"], ["WRITEIN:a]], [[b"], []],
                    [["B"], ["WRITEIN:q\""], ["A"]], [["C", "WRITEIN:\\"], [], ["B"]],
                    [["A"], ["WRITEIN:\\\""], []], [["A"], ["WRITEIN:]],[["], []]],
    }

    @pytest.mark.parametrize("doc", [
        pytest.param({"candidates": ["A", "B", "C"], "ballots": [
            VALID, [["WRITEIN:x"], ["B"], ["A"]], VALID, [["C", "B"], [], []],
            [["WRITEIN:y"], ["B"], ["A"]],
        ]}, id="repeats-and-write-ins"),
        pytest.param({"candidates": ["A", "B"], "ballots": [[["B"], ["A"]]]}, id="one-ballot"),
        pytest.param({"candidates": ['"WRITEIN:x', "A"], "ballots": [
            [['"WRITEIN:x'], ["A"]], [["WRITEIN:y"], ['"WRITEIN:x']], [['"WRITEIN:x'], ["A"]],
        ]}, id="roster-name-after-a-quote"),
        pytest.param(WRITE_INS_HOLDING_SEPARATORS_AND_ESCAPES,
                     id="write-ins-holding-separators-and-escapes"),
    ])
    def test_compact_and_default_layouts_never_decode_the_whole_document(self, monkeypatch, doc):
        for data in (*_layouts(doc), codecs.BOM_UTF8 + _layouts(doc)[0]):
            expected = _outcome(lambda: ingest(parse_raw(data)))
            monkeypatch.setattr(sys.modules["ballotlab.ingest"], "_document",
                                lambda data: pytest.fail("the general reader ran"))
            assert _outcome(lambda: ingest_raw(data)) == expected
            monkeypatch.undo()

    @pytest.mark.parametrize("mark", ["WRITEIN:\\]],[[ ]], [[", 'WRITEIN:"]],[[ ]], [[',
                                      "WRITEIN:\n]],[[ ]], [["])
    def test_a_separator_in_a_kept_write_in_goes_to_the_general_reader(self, monkeypatch, mark):
        """A write-in holding ``\\``, ``"`` or a line break does not collapse, so a
        separator inside it splits a string, and that piece does not decode alone."""
        module, general = sys.modules["ballotlab.ingest"], []
        document = module._document
        monkeypatch.setattr(module, "_document", lambda data: general.append(1) or document(data))
        doc = {"candidates": ["A", "B"], "ballots": [[["A"], []], [[mark], ["B"]], [["A"], []]]}
        for data in _layouts(doc):
            expected = _outcome(lambda: ingest(parse_raw(data)))
            general.clear()
            assert _outcome(lambda: ingest_raw(data)) == expected
            assert general == [1]

    def test_roster_name_after_a_quote_keeps_its_votes(self):
        """An escaped quote before the write-in prefix turns the collapse off, so
        ``"WRITEIN:x`` is not read as ``"WRITEIN:``, another name on the roster."""
        roster = ('"WRITEIN:x', '"WRITEIN:', "A")
        data = raw_doc([[['"WRITEIN:x'], ["A"], []], [["WRITEIN:y"], ['"WRITEIN:'], []]], roster)
        assert ingest_raw(data) == CondensedProfile(
            roster, {('"WRITEIN:x', "A"): 1, ('"WRITEIN:',): 1})

    def test_each_distinct_rank_of_the_distinct_texts_is_checked_once(self, monkeypatch):
        module, calls = sys.modules["ballotlab.ingest"], []
        check_rank = module._check_rank

        def spy(i, j, raw_rank, roster_set):
            calls.append((i, j, raw_rank))
            return check_rank(i, j, raw_rank, roster_set)

        monkeypatch.setattr(module, "_check_rank", spy)
        ingest_raw(raw_doc(TestOneCheckPerDistinctRank.BALLOTS))
        # Ballot 1 repeats ballot 0's text; write-ins collapse to the bare prefix.
        assert calls == [(0, 0, ["A"]), (0, 1, ["B"]), (0, 2, []), (1, 0, ["B", "A"]),
                         (3, 0, ["A", "B"]), (3, 1, ["WRITEIN:"])]

    @pytest.mark.parametrize(("data", "message"), [
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[["A"], []], '
                     b'[["WRITEIN:a\x01"], ["B"]]]}',
                     "raw document syntax error at line 1, column 65: Invalid control character at",
                     id="control-character-in-a-write-in"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[["A"], []],\n'
                     b' [["B"], ["WRITEIN:\x1f"]]]}',
                     "raw document syntax error at line 2, column 20: Invalid control character at",
                     id="control-character-on-line-2"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[["A"], [], []], '
                     b'[["B"], {"x": 1, "x": 2}, []]]}',
                     "raw document repeats field 'x'", id="object-rank-repeating-a-key"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[["A"], []], [[NaN], []]]}',
                     "ballot 1 rank 1 must be an array of mark strings", id="nan-mark"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[["A"], []], [['
                     + b"[" * 100_000 + b"]" * 100_000 + b"]]]}",
                     "raw document cannot be read: ", id="deep-nesting"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[["A"], []], [["B"]]]}',
                     "ballot 1 has 1 rank positions, expected 2", id="ragged"),
        pytest.param(b'{"candidates": ["A", "B", "C", "D"], "ballots": [[["A"], [], [], []], '
                     b'[["A", "B", "C"], [], [], []]]}',
                     "top-rank overvote of 3 marks covers neither two candidates nor the "
                     "whole roster",
                     id="unclassifiable"),
    ])
    def test_errors_come_from_the_general_reader(self, data, message):
        expected = _outcome(lambda: ingest(parse_raw(data)))
        assert expected[1].startswith(message)
        assert _outcome(lambda: ingest_raw(data)) == expected

    @pytest.mark.parametrize("data", [
        pytest.param(b'{"ballots": [[["A"], []], [["B"], ["A"]]], "candidates": ["A", "B"]}',
                     id="ballots-before-candidates"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[], [], []]}',
                     id="zero-rank-ballots"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": [[[]], [[]], [["A"]]]}',
                     id="empty-ranks"),
        pytest.param(b'{"candidates": ["A", "B"], "ballots": []}', id="no-ballots"),
        pytest.param(b' {"candidates" : ["A", "B"] , "ballots" :[[["A"], []],'
                     b'\r\n\t[["B"], []]] }\n',
                     id="whitespace-everywhere"),
    ])
    def test_edge_cases_match_the_general_reader(self, data):
        """Some of these take the distinct-text reader, some the general one."""
        assert _outcome(lambda: ingest_raw(data)) == _outcome(lambda: ingest(parse_raw(data)))


class TestLibraryFallback:
    """A layout the distinct-text reader does not take, or an error, is read
    once by the library's ``parse_raw`` and, when that succeeds, ``ingest``."""

    BALLOTS = [[["A"], ["B"], []], [["WRITEIN:x"], ["C"], ["A"]], [["A"], ["B"], []]]

    @pytest.mark.parametrize(("data", "parsed"), [
        pytest.param(json.dumps({"candidates": ["A", "B", "C"], "ballots": BALLOTS},
                                indent=1).encode(), True, id="indent-1"),
        pytest.param(json.dumps({"ballots": BALLOTS, "candidates": ["A", "B", "C"]}).encode(),
                     True, id="ballots-before-candidates"),
        pytest.param(raw_doc([*BALLOTS, [["A"], ["D"], []]]), False, id="parse-error"),
    ])
    def test_parse_raw_then_ingest_each_run_once(self, monkeypatch, data, parsed):
        module, calls = sys.modules["ballotlab.ingest"], []
        for name in ("parse_raw", "ingest"):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda arg, name=name, original=original:
                                calls.append(name) or original(arg))
        expected = _outcome(lambda: ingest(parse_raw(data)))
        assert _outcome(lambda: ingest_raw(data)) == expected
        assert calls == (["parse_raw", "ingest"] if parsed else ["parse_raw"])


class TestByteOrderMark:
    """Each reader strips one leading UTF-8 BOM and decodes the rest as UTF-8, with the
    text and errors the ``utf-8-sig`` codec gave: a bad byte's position counts from
    after the BOM, and a second BOM is text, which neither reader accepts."""

    CSV = b"pattern,count\nbullet:A,3\nfull:A>B,2\n"
    RAW = b'{"candidates": ["A", "B", "C"], "ballots": [[["A"], ["B"], []], [["B"], [], []]]}'
    READERS = [
        pytest.param(parse_condensed, CSV, "condensed file", id="condensed"),
        pytest.param(parse_raw, RAW, "raw document", id="parse_raw"),
        pytest.param(ingest_raw, RAW, "raw document", id="ingest_raw"),
    ]

    @pytest.mark.parametrize("read, data, what", READERS)
    def test_bom_then_valid_text(self, read, data, what):
        assert read(codecs.BOM_UTF8 + data) == read(data)

    @pytest.mark.parametrize("read, data, what", READERS)
    def test_bom_then_invalid_byte(self, read, data, what):
        data = codecs.BOM_UTF8 + data[:14] + b"\xff" + data[15:]
        message = (f"{what} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                   "in position 14: invalid start byte")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read(data)

    @pytest.mark.parametrize("read, data, message", [
        (parse_condensed, CSV, "condensed file must start with header 'pattern,count'"),
        (parse_raw, RAW, "raw document starts with a second UTF-8 byte order mark"),
        (ingest_raw, RAW, "raw document starts with a second UTF-8 byte order mark"),
    ], ids=["condensed", "parse_raw", "ingest_raw"])
    def test_double_bom_is_refused(self, read, data, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read(codecs.BOM_UTF8 * 2 + data)


class TestCondensedFile:
    def test_single_row(self):
        profile = parse_condensed(b"pattern,count\nfull:Palin>Begich,34117\n")
        assert profile.full_count("Palin", "Begich") == 34117
        assert profile.candidates == ("Palin", "Begich")

    def test_empty_file_is_zero_profile(self):
        profile = parse_condensed(b"pattern,count\n")
        assert profile.candidates == ()
        assert profile.total_with_any_mark == 0

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_condensed(b"bullet:A,1\n")

    def test_duplicate_pattern(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_condensed(b"pattern,count\nbullet:A,1\nbullet:A,2\n")

    @pytest.mark.parametrize("first, second", [
        ("over2:A+B", "over2:B+A"),
        ("over3:A+B+C", "over3:C+B+A"),
        ("over3:A+B+C", "over3:A+B"),
    ])
    def test_respelled_pattern_is_a_duplicate(self, first, second):
        data = f"pattern,count\nbullet:C,1\n{first},5\n{second},7\n".encode()
        with pytest.raises(ParseError, match=re.escape(f"line 4: duplicate pattern '{second}'")):
            parse_condensed(data)

    def test_respelled_pair_keeps_its_counts_out_of_pairwise(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("pattern,count\nfull:A>C,1\nover2:A+B,5\nover2:B+A,7\n")
        assert run(["pairwise", str(path), "--basis", "include-ties"]) == 2
        assert capsys.readouterr() == ("", "error: line 4: duplicate pattern 'over2:B+A'\n")

    def test_whole_roster_counted_twice_is_refused(self, capsys, tmp_path):
        """On two candidates ``over2:A+B`` and ``over3:A+B`` are one pattern, the all-way
        overvote: a file holding both is refused, not summed."""
        path = tmp_path / "profile.csv"
        path.write_text("pattern,count\nbullet:A,3\nover2:A+B,1\nover3:A+B,2\n")
        assert run(["approval", "range", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: line 4: duplicate pattern 'over3:A+B'\n")

    def test_negative_count(self):
        with pytest.raises(ParseError, match="negative"):
            parse_condensed(b"pattern,count\nbullet:A,-4\n")

    def test_malformed_pattern(self):
        with pytest.raises(ParseError, match="unknown pattern"):
            parse_condensed(b"pattern,count\ntriple:A,1\n")

    def test_malformed_full_pattern(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_condensed(b"pattern,count\nfull:A>A,1\n")

    def test_overlarge_count(self):
        with pytest.raises(ParseError, match="64-bit"):
            parse_condensed(f"pattern,count\nbullet:A,{2**63}\n".encode())

    def test_all_overvote_must_cover_roster(self):
        data = b"pattern,count\nbullet:A,1\nbullet:B,1\nbullet:C,1\nover3:A+B,5\n"
        with pytest.raises(ParseError, match="whole roster"):
            parse_condensed(data)

    @pytest.mark.parametrize(("rows", "message"), [
        pytest.param(b"pattern,count\nbullet:A,1\n\xff\n", "condensed file is not UTF-8: 'utf-8' "
                     "codec can't decode byte 0xff in position 25: invalid start byte", id="not-utf8"),
        pytest.param(b"bullet:A,1\n", "condensed file must start with header 'pattern,count'",
                     id="missing-header"),
        pytest.param("bullet:A,1,2", "line 2: expected 'pattern,count', got 'bullet:A,1,2'",
                     id="three-fields"),
        pytest.param("bullet:A", "line 2: expected 'pattern,count', got 'bullet:A'",
                     id="one-field"),
        pytest.param("bullet:A,1\nbullet:A,2", "line 3: duplicate pattern 'bullet:A'",
                     id="duplicate"),
        pytest.param("full:A>B,1\nover2:A+B,5\nover2:B+A,7",
                     "line 4: duplicate pattern 'over2:B+A'", id="respelled-over2"),
        pytest.param("over3:A+B,1\nover3:B+A,2", "line 3: duplicate pattern 'over3:B+A'",
                     id="second-over3"),
        pytest.param("over2:A+B,1\nover2:B+A+A,2", "line 3: duplicate pattern 'over2:B+A+A'",
                     id="duplicate-before-malformed"),
        pytest.param("bullet:A,3\nover2:A+B,1\nover3:A+B,2",
                     "line 4: duplicate pattern 'over3:A+B'", id="over2-then-over3-of-two"),
        pytest.param("over3:A+B,2\nover2:B+A,1", "line 3: duplicate pattern 'over2:B+A'",
                     id="over3-then-over2-of-two"),
        pytest.param("over3:A+B,1\nover3,0", "line 3: unknown pattern 'over3'",
                     id="bare-over3-after-over3"),
        pytest.param("bullet:A,x", "line 2: count 'x' is not an integer", id="count-not-integer"),
        pytest.param("bullet:A,-4", "line 2: count -4 is negative", id="count-negative"),
        pytest.param(f"bullet:A,{2**63}", "line 2: count 9223372036854775808 exceeds 64-bit range",
                     id="count-over-64-bits"),
        pytest.param("foo:A,x", "line 2: count 'x' is not an integer", id="count-before-unknown"),
        pytest.param("blank:,1", "line 2: unknown pattern 'blank:'", id="blank-colon"),
        pytest.param("bullet,1", "line 2: unknown pattern 'bullet'", id="bullet-no-colon"),
        pytest.param("foo:,1", "line 2: unknown pattern 'foo:'", id="foo-colon"),
        pytest.param("full:A,1", "line 2: malformed pattern 'full:A'", id="full-one-name"),
        pytest.param("full:A>B>C,1", "line 2: malformed pattern 'full:A>B>C'",
                     id="full-three-names"),
        pytest.param("full:A>A,1", "line 2: malformed pattern 'full:A>A'", id="full-repeat"),
        pytest.param("over2:A,1", "line 2: malformed pattern 'over2:A'", id="over2-one-name"),
        pytest.param("over2:A+B+C,1", "line 2: malformed pattern 'over2:A+B+C'",
                     id="over2-three-names"),
        pytest.param("over2:A+A,1", "line 2: malformed pattern 'over2:A+A'", id="over2-repeat"),
        pytest.param("over3:A,1", "line 2: malformed pattern 'over3:A'", id="over3-one-name"),
        pytest.param("over3:A+B+A,1", "line 2: malformed pattern 'over3:A+B+A'",
                     id="over3-repeat"),
        pytest.param("bullet:A>B,1", "candidate name 'A>B' contains reserved character '>'",
                     id="reserved-in-bullet"),
        pytest.param("full:A>B+C,1", "candidate name 'B+C' contains reserved character '+'",
                     id="reserved-in-full"),
        pytest.param("bullet:,1", "pattern names an empty candidate", id="empty-name"),
        pytest.param("bullet: ,1", "pattern names an empty candidate", id="blank-name"),
        pytest.param("full:A>,1", "pattern names an empty candidate", id="empty-second-name"),
        pytest.param("bullet:C,1\nover3:A+B,5",
                     "all-overvote pattern must list the whole roster, got ['A', 'B'] "
                     "with roster ['C', 'A', 'B']", id="over3-not-whole-roster"),
        pytest.param("bullet:A,1\nbullet: A,2",
                     "candidate name ' A' has leading or trailing whitespace",
                     id="names-clash-after-trimming"),
        pytest.param("bullet: A,2", "candidate name ' A' has leading or trailing whitespace",
                     id="leading-space"),
        pytest.param("bullet:A ,2", "candidate name 'A ' has leading or trailing whitespace",
                     id="trailing-space"),
        pytest.param("bullet:\tA,2", "candidate name '\\tA' has leading or trailing whitespace",
                     id="leading-tab"),
        pytest.param("bullet: A,2\nbullet:B,1\nfull:A>B,3",
                     "candidate name ' A' has leading or trailing whitespace",
                     id="padded-then-plain"),
        pytest.param("full:A> B,2", "candidate name ' B' has leading or trailing whitespace",
                     id="padded-in-full"),
        pytest.param("over2:A +B,2", "candidate name 'A ' has leading or trailing whitespace",
                     id="padded-in-over2"),
        pytest.param("over3:A+B+ C,2", "candidate name ' C' has leading or trailing whitespace",
                     id="padded-in-over3"),
    ])
    def test_error_message(self, rows, message):
        """``rows`` follow the header, or are the whole file when given as bytes."""
        data = rows if isinstance(rows, bytes) else f"pattern,count\n{rows}\n".encode()
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_condensed(data)

    def test_padded_name_is_refused_by_the_cli(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_bytes(b"pattern,count\nfull: A>B,2\nbullet:B,1\n")
        assert run(["irv", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: candidate name ' A' has leading or trailing whitespace\n")

    def test_line_break_in_a_name_is_refused(self, capsys, tmp_path):
        path, out = tmp_path / "raw.json", tmp_path / "profile.csv"
        path.write_bytes(raw_doc([[["C"], ["D"], []]], candidates=("A\nB", "C", "D")))
        assert run(["ingest", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: candidate name 'A\\nB' contains reserved character '\\n'\n")
        assert not out.exists()

    @pytest.mark.parametrize("ch", "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
                             ids=lambda ch: f"U+{ord(ch):04X}")
    def test_every_line_break_in_a_name_is_refused(self, capsys, tmp_path, ch):
        # Each one splits a line for str.splitlines and text-mode open().
        message = f"candidate name {'A' + ch + 'B'!r} contains reserved character {ch!r}"
        path, out = tmp_path / "raw.json", tmp_path / "profile.csv"
        path.write_bytes(raw_doc([[["C"], ["D"], []]], candidates=(f"A{ch}B", "C", "D")))
        assert run(["ingest", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_condensed(f"pattern,count\nbullet:A{ch}B,2\nbullet:C,1\n".encode())

    def test_round_trip_alaska(self, alaska_profile):
        assert parse_condensed(write_condensed(alaska_profile)) == alaska_profile

    def test_write_is_deterministic(self, alaska_profile):
        assert write_condensed(alaska_profile) == write_condensed(alaska())


class TestPipeInNames:
    """``|`` joins tied winners and the STAR finalists in every report, so a name holding
    one would make ``winner,A|B`` read both as a tie of A and B and as a win by A|B."""

    MESSAGE = "error: candidate name 'A|B' contains reserved character '|'\n"

    @pytest.mark.parametrize("tie", [4, 6], ids=["tie-of-A-and-B", "lone-win-by-A|B"])
    def test_condensed_name_is_refused(self, capsys, tmp_path, tie):
        path = tmp_path / "profile.csv"
        path.write_text(f"pattern,count\nbullet:A|B,{tie}\nbullet:A,5\nbullet:B,5\n")
        assert run(["approval", "eval", str(path), "--p", "0", "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)

    def test_raw_name_is_refused(self, capsys, tmp_path):
        path = tmp_path / "raw.json"
        path.write_bytes(raw_doc([[["A"], [], []], [["B"], [], []]], candidates=("A|B", "A", "B")))
        assert run(["star", "eval", str(path), "--s", "1", "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)


class TestLoneSurrogateNames:
    """A JSON escape can spell a lone surrogate, which no UTF-8 output can carry."""

    DOC = b'{"candidates": ["A\\ud800", "B", "C"], "ballots": [[["A\\ud800"], ["B"], []]]}'
    MESSAGE = "candidate name 'A\\ud800' is not valid Unicode text"

    @pytest.mark.parametrize("command, flags", [
        ("irv", []), ("irv", ["--format", "csv"]), ("pairwise", ["--format", "json-lines"]),
    ])
    def test_commands_refuse_the_document(self, capsys, tmp_path, command, flags):
        path = tmp_path / "raw.json"
        path.write_bytes(self.DOC)
        assert run([command, str(path), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {self.MESSAGE}\n")

    def test_ingest_writes_no_file(self, capsys, tmp_path):
        path, out = tmp_path / "raw.json", tmp_path / "profile.csv"
        path.write_bytes(self.DOC)
        assert run(["ingest", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {self.MESSAGE}\n")
        assert not out.exists()

    def test_parse_raw_raises_parse_error(self):
        with pytest.raises(ParseError, match=f"^{re.escape(self.MESSAGE)}$"):
            parse_raw(self.DOC)

    def test_profile_raises_value_error(self):
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            CondensedProfile(("A\ud800", "B", "C"), {})


class TestShippedFixture:
    def test_matches_published_counts(self, alaska_csv):
        profile = parse_condensed(alaska_csv.read_bytes())
        assert profile == alaska()

    def test_totals(self, alaska_csv):
        profile = parse_condensed(alaska_csv.read_bytes())
        assert profile.total_with_any_mark == 188985
        assert profile.total_valid_ranked == 188751
