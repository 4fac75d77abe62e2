"""The package namespace: every public name, whether eager or lazily loaded."""

import copy
import importlib
import pickle
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ballotlab
from ballotlab import report

DEFINING_MODULES = ("core", "errors", "ingest", "irv", "condorcet", "approval", "star")


def _definitions() -> dict[str, object]:
    found = {"__version__": ballotlab.__version__}
    for name in DEFINING_MODULES:
        module = importlib.import_module(f"ballotlab.{name}")
        found.update({k: v for k, v in vars(module).items() if k in ballotlab.__all__})
    return found


def test_every_public_name_is_its_defining_object():
    definitions = _definitions()
    assert set(definitions) == set(ballotlab.__all__)
    for name in ballotlab.__all__:
        assert getattr(ballotlab, name) is definitions[name], name


def test_ingest_is_the_function_not_the_module():
    assert callable(ballotlab.ingest)
    assert ballotlab.ingest is importlib.import_module("ballotlab.ingest").ingest


# Three ballots: a full ranking, a two-way top overvote, a write-in then two choices.
SMALL_CVR = (b'{"candidates": ["A", "B", "C"], "ballots": [[["A"], ["B"], []], '
             b'[["B", "C"], [], []], [["WRITEIN:x"], ["C"], ["A"]]]}')


def test_raw_reader_module_is_registered_but_not_the_package_name():
    module = sys.modules["ballotlab.ingest"]
    assert isinstance(module, types.ModuleType) and module.__name__ == "ballotlab.ingest"
    from ballotlab import ingest
    import ballotlab.ingest as imported
    from ballotlab.ingest import ingest_raw
    assert ingest is imported is ballotlab.ingest is module.ingest
    assert ingest_raw is module.ingest_raw
    assert {"parse_raw", "RawCvrDocument"} <= set(dir(ballotlab))
    # The condensed reader and writer keep their names in the raw reader's module.
    assert module.parse_condensed is ballotlab.parse_condensed
    assert module.write_condensed is ballotlab.write_condensed


def test_library_raw_reader_pickles_and_matches_the_one_pass():
    from ballotlab.ingest import ingest_raw

    doc = ballotlab.parse_raw(SMALL_CVR)
    assert pickle.loads(pickle.dumps(doc)) == doc
    assert ballotlab.ingest(doc) == ingest_raw(SMALL_CVR)
    assert ingest_raw(SMALL_CVR).total_with_any_mark == 3


def test_star_import_binds_every_name():
    namespace: dict[str, object] = {}
    exec("from ballotlab import *", namespace)
    assert set(ballotlab.__all__) <= set(namespace)
    definitions = _definitions()
    assert all(namespace[name] is definitions[name] for name in ballotlab.__all__)


def test_dir_lists_every_public_name():
    assert set(ballotlab.__all__) <= set(dir(ballotlab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ballotlab.no_such_name  # noqa: B018
    assert not hasattr(ballotlab, "no_such_name")


# -- value semantics of the public record types ------------------------------

A, B = frozenset({"A"}), frozenset({"B"})
ROUND = (1, {"A": 2}, 2, {}, 0, None)

KEY_ROSTER = ("A", "B", "C")
KEY_ARGS = ("ballot", "roster")


def _ballot(*ranks: str) -> tuple[ballotlab.RankedBallot, tuple[str, ...]]:
    """classify_ballot's arguments for a ballot whose ranks hold these one-letter names."""
    return ballotlab.RankedBallot(tuple(map(frozenset, ranks))), KEY_ROSTER


# (type, field names, positional values, exact repr, hashable).  One case
# per record type.  The profile key that classify_ballot returns for each
# kind of ballot (a plain tuple or frozenset) is a Counter key of the
# profile, so it is held to the same value semantics: one case per kind,
# plus a second ranking for bullets and full rankings.
RECORDS = [
    ("RankedBallot", ("ranks",), ((A, frozenset()),),
     "RankedBallot(ranks=(frozenset({'A'}), frozenset()))", True),
    ("Bullet", KEY_ARGS, _ballot("A"), "('A',)", True),
    ("Bullet", KEY_ARGS, _ballot("B"), "('B',)", True),
    ("Full", KEY_ARGS, _ballot("A", "B"), "('A', 'B')", True),
    ("Full", KEY_ARGS, _ballot("B", "A"), "('B', 'A')", True),
    ("OvervoteTopTwo", KEY_ARGS, _ballot("AB"), "frozenset({'A', 'B'})", True),
    ("OvervoteTopAll", KEY_ARGS, _ballot("ABC"), "frozenset({'A', 'B', 'C'})", True),
    ("Blank", KEY_ARGS, _ballot(""), "()", True),
    ("CondensedProfile", ("candidates", "counts"),
     (("A", "B"), {("A",): 1, ("B", "A"): 2, (): 4}),
     "CondensedProfile(candidates=('A', 'B'), counts={('A',): 1, ('B', 'A'): 2, (): 4})", False),
    ("RawCvrDocument", ("candidates", "ballots"), (("A",), ()),
     "RawCvrDocument(candidates=('A',), ballots=())", True),
    ("Column", ("name", "kind"), ("votes", "int"), "Column(name='votes', kind='int')", True),
    ("Cell", ("value", "kind"), (Fraction(1, 2), "percent"),
     "Cell(value=Fraction(1, 2), kind='percent')", True),
    ("Report", ("title", "columns", "rows", "notes"), ("T", (), [("x",)], ["n"]),
     "Report(title='T', columns=(), rows=[('x',)], notes=['n'])", False),
    ("IrvRound", ("round_index", "tallies", "active_ballots", "transfers",
                  "exhausted_this_round", "eliminated"), ROUND,
     "IrvRound(round_index=1, tallies={'A': 2}, active_ballots=2, transfers={}, "
     "exhausted_this_round=0, eliminated=None)", False),
    ("IrvOutcome", ("rounds", "winner", "invalid_overvotes"), ((), "A", 0),
     "IrvOutcome(rounds=(), winner='A', invalid_overvotes=0)", True),
    ("RoundShares", ("of_active", "of_round1"), ({"A": Fraction(1)}, {}),
     "RoundShares(of_active={'A': Fraction(1, 1)}, of_round1={})", False),
    ("PairwiseTally", ("candidates", "basis", "prefers", "no_preference", "total"),
     (("A", "B"), "ranked-only", {("A", "B"): 1, ("B", "A"): 0}, {}, 1),
     "PairwiseTally(candidates=('A', 'B'), basis='ranked-only', "
     "prefers={('A', 'B'): 1, ('B', 'A'): 0}, no_preference={}, total=1)", False),
    ("CondorcetReport", ("winner", "loser", "margins"), ("A", "B", {}),
     "CondorcetReport(winner='A', loser='B', margins={})", False),
    ("CenterSqueeze", ("squeezed", "condorcet_winner", "irv_winner",
                       "condorcet_winner_eliminated_in_round"), (True, "B", "A", 1),
     "CenterSqueeze(squeezed=True, condorcet_winner='B', irv_winner='A', "
     "condorcet_winner_eliminated_in_round=1)", True),
    ("ApprovalScenario", ("rates",), ({("A", "B"): "1/2"},),
     "ApprovalScenario(rates={('A', 'B'): Fraction(1, 2)})", False),
    ("ApprovalOutcome", ("scores", "winners", "mean_approvals_ranking_voters",
                         "mean_approvals_all_voters"), ({"A": 1}, ("A",), 1, 1),
     "ApprovalOutcome(scores={'A': 1}, winners=('A',), mean_approvals_ranking_voters=1, "
     "mean_approvals_all_voters=1)", False),
    ("ScoreRange", ("minimum", "maximum"), ({"A": 1}, {"A": 2}),
     "ScoreRange(minimum={'A': 1}, maximum={'A': 2})", False),
    ("StarScenario", ("stars",), ({("A", "B"): 2},),
     "StarScenario(stars={('A', 'B'): Fraction(2, 1)})", False),
    ("StarOutcome", ("scores", "finalists", "runoff_tallies", "runoff_no_preference",
                     "winners"), ({"A": 5}, ("A", "B"), {"A": 1, "B": 0}, 0, ("A",)),
     "StarOutcome(scores={'A': 5}, finalists=('A', 'B'), runoff_tallies={'A': 1, 'B': 0}, "
     "runoff_no_preference=0, winners=('A',))", False),
    ("StarThreshold", ("stars", "achieved_score", "rival_maximum"), (Fraction(3, 2), 7, 6),
     "StarThreshold(stars=Fraction(3, 2), achieved_score=7, rival_maximum=6)", True),
]
KEY_KINDS = ("Bullet", "Full", "OvervoteTopTwo", "OvervoteTopAll", "Blank")
RECORD_TYPES = {"Report": report.Report, "Column": report.Column, "Cell": report.Cell,
                **dict.fromkeys(KEY_KINDS, ballotlab.classify_ballot)}


def _record_type(name: str) -> type:
    return RECORD_TYPES.get(name) or getattr(ballotlab, name)


def _repr(value: object) -> str:
    """The repr, with a frozenset's members sorted: their order follows string hashing."""
    if isinstance(value, frozenset):
        return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
    return repr(value)


@pytest.mark.parametrize("name, fields, values, text, hashable", RECORDS,
                         ids=[case[0] for case in RECORDS])
class TestRecordValues:
    def test_positional_and_keyword_construction_agree(self, name, fields, values, text,
                                                       hashable):
        cls = _record_type(name)
        record = cls(*values)
        assert record == cls(**dict(zip(fields, values)))
        if name in KEY_KINDS:
            assert type(record) is (frozenset if name.startswith("Overvote") else tuple)
            return
        assert record is not cls(*values)
        assert cls.__match_args__ == fields
        assert tuple(getattr(record, f) for f in fields) == tuple(
            getattr(cls(*values), f) for f in fields)

    def test_repr_is_exact(self, name, fields, values, text, hashable):
        assert _repr(_record_type(name)(*values)) == text

    def test_hash_by_value(self, name, fields, values, text, hashable):
        cls = _record_type(name)
        if hashable:
            assert hash(cls(*values)) == hash(cls(*values))
            assert len({cls(*values), cls(*values)}) == 1
        else:
            with pytest.raises(TypeError):
                hash(cls(*values))

    def test_assignment(self, name, fields, values, text, hashable):
        record = _record_type(name)(*values)
        if name == "Report":
            record.title = "U"
            assert record.title == "U"
            return
        for attr in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, None)
        assert _repr(record) == text

    def test_copy_and_pickle_keep_the_value(self, name, fields, values, text, hashable):
        record = _record_type(name)(*values)
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)

    def test_unequal_to_every_other_record(self, name, fields, values, text, hashable):
        record = _record_type(name)(*values)
        for other_name, _, other_values, other_text, _ in RECORDS:
            if other_text != text:
                assert record != _record_type(other_name)(*other_values)
        assert record != values


def test_all_way_overvote_and_blank_stay_separate_counter_keys():
    roster = ("A", "B", "C")
    over3 = ballotlab.classify_ballot(ballotlab.RankedBallot((frozenset(roster),)), roster)
    blank = ballotlab.classify_ballot(ballotlab.RankedBallot((frozenset(),)), roster)
    counts = Counter([over3, blank, blank])
    assert over3 != blank
    assert counts == {frozenset(roster): 1, (): 2}
    profile = ballotlab.condense(counts.elements(), roster)
    assert profile.counts == {frozenset(roster): 1, (): 2}
    assert profile.blank_count == 2


def test_record_defaults():
    with pytest.raises(TypeError, match=r"takes the fields \('candidates', 'counts'\)"):
        ballotlab.CondensedProfile(("A", "B"))
    assert report.Column("name").kind == "text"
    assert report.Cell(1).kind is None
    first, second = report.Report("T", ()), report.Report("T", ())
    assert first.rows == first.notes == []
    first.rows.append(("x",))
    first.notes.append("n")
    assert second.rows == second.notes == []


def test_records_match_positionally():
    profile = ballotlab.CondensedProfile(("A", "B"), {("A",): 1})
    matched = []
    for record in (ballotlab.RankedBallot((A, B)), report.Column("n"), profile):
        match record:
            case ballotlab.RankedBallot(ranks):
                matched.append(ranks)
            case ballotlab.CondensedProfile(candidates, counts):
                matched.append((candidates, counts))
            case report.Column(name, kind):
                matched.append((name, kind))
    assert matched == [(A, B), ("n", "text"), (("A", "B"), {("A",): 1})]


README = Path(__file__).resolve().parent.parent / "README.md"

# A line of the README's Library block -> the value its comment states, and a check of it.
STATED = {
    "bl.condorcet_winner_loser(tally)": (
        'winner="Begich", loser="Palin"', lambda r: (r.winner, r.loser) == ("Begich", "Palin")),
    "bl.detect_center_squeeze(profile)": (
        "squeezed=True, eliminated in round 1",
        lambda s: s.squeezed and s.condorcet_winner_eliminated_in_round == 1),
    'bl.approval_range(profile).maximum["Begich"]': (
        "135703 approvals", lambda n: n == 135703),
    'bl.star_range(profile).minimum["Peltola"]': ("398730 stars", lambda n: n == 398730),
    'bl.uniform_threshold(profile, "Begich", "Peltola")': (
        "Fraction(21738, 62291)", lambda t: t == Fraction(21738, 62291)),
    'bl.uniform_star_threshold(profile, "Begich", "Palin")': (
        "1.87 stars", lambda t: t.stars == Fraction(187, 100)),
    'profile.counts[("Peltola", "Begich")]': ("47429 ballots", lambda n: n == 47429),
    "profile.counts[frozenset(profile.candidates)]": ("56 all-way overvotes", lambda n: n == 56),
    "bl.classify_ballot(ballot, profile.candidates)": (
        '("Begich", "Peltola")', lambda key: key == ("Begich", "Peltola")),
}


def test_readme_library_block_states_true_values(monkeypatch):
    block = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    namespace: dict[str, object] = {}
    exec(block, namespace)
    checked = {}
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code in STATED:
            stated, holds = STATED[code]
            checked[code] = comment == stated and holds(eval(code, namespace))
    assert checked == dict.fromkeys(STATED, True)
