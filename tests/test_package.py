"""The package namespace: every public name, whether eager or lazily loaded."""

import copy
import importlib
import pickle
from collections import Counter
from fractions import Fraction

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

# (type, field names, positional values, exact repr, hashable).  One case
# per record type, plus a second value for the pattern types.
RECORDS = [
    ("RankedBallot", ("ranks",), ((A, frozenset()),),
     "RankedBallot(ranks=(frozenset({'A'}), frozenset()))", True),
    ("Bullet", ("first",), ("A",), "Bullet(first='A')", True),
    ("Bullet", ("first",), ("B",), "Bullet(first='B')", True),
    ("Full", ("first", "second"), ("A", "B"), "Full(first='A', second='B')", True),
    ("Full", ("first", "second"), ("B", "A"), "Full(first='B', second='A')", True),
    ("OvervoteTopTwo", ("pair",), (A,), "OvervoteTopTwo(pair=frozenset({'A'}))", True),
    ("OvervoteTopAll", (), (), "OvervoteTopAll()", True),
    ("Blank", (), (), "Blank()", True),
    ("CondensedProfile", ("candidates", "bullet", "full", "over2", "over3", "blank_count"),
     (("A", "B"), {"A": 1}, {("B", "A"): 2}, {}, 3, 4),
     "CondensedProfile(candidates=('A', 'B'), bullet={'A': 1}, full={('B', 'A'): 2}, "
     "over2={}, over3=3, blank_count=4)", False),
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
    ("ApprovalRange", ("minimum", "maximum"), ({"A": 1}, {"A": 2}),
     "ApprovalRange(minimum={'A': 1}, maximum={'A': 2})", False),
    ("StarScenario", ("stars",), ({("A", "B"): 2},),
     "StarScenario(stars={('A', 'B'): Fraction(2, 1)})", False),
    ("StarOutcome", ("scores", "finalists", "runoff_tallies", "runoff_no_preference",
                     "winners"), ({"A": 5}, ("A", "B"), {"A": 1, "B": 0}, 0, ("A",)),
     "StarOutcome(scores={'A': 5}, finalists=('A', 'B'), runoff_tallies={'A': 1, 'B': 0}, "
     "runoff_no_preference=0, winners=('A',))", False),
    ("StarRange", ("minimum", "maximum"), ({"A": 1}, {"A": 2}),
     "StarRange(minimum={'A': 1}, maximum={'A': 2})", False),
    ("StarThreshold", ("stars", "achieved_score", "rival_maximum"), (Fraction(3, 2), 7, 6),
     "StarThreshold(stars=Fraction(3, 2), achieved_score=7, rival_maximum=6)", True),
]
RECORD_TYPES = {"Report": report.Report, "Column": report.Column, "Cell": report.Cell}


def _record_type(name: str) -> type:
    return RECORD_TYPES.get(name) or getattr(ballotlab, name)


@pytest.mark.parametrize("name, fields, values, text, hashable", RECORDS,
                         ids=[case[0] for case in RECORDS])
class TestRecordValues:
    def test_positional_and_keyword_construction_agree(self, name, fields, values, text,
                                                       hashable):
        cls = _record_type(name)
        record = cls(*values)
        assert record == cls(**dict(zip(fields, values)))
        assert record is not cls(*values)
        assert cls.__match_args__ == fields
        assert tuple(getattr(record, f) for f in fields) == tuple(
            getattr(cls(*values), f) for f in fields)

    def test_repr_is_exact(self, name, fields, values, text, hashable):
        assert repr(_record_type(name)(*values)) == text

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
        assert repr(record) == text

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
    counts = Counter([ballotlab.OvervoteTopAll(), ballotlab.Blank(), ballotlab.Blank()])
    assert ballotlab.OvervoteTopAll() != ballotlab.Blank()
    assert counts == {ballotlab.OvervoteTopAll(): 1, ballotlab.Blank(): 2}
    assert len(counts) == 2


def test_record_defaults():
    profile = ballotlab.CondensedProfile(("A", "B"), {}, {}, {})
    assert (profile.over3, profile.blank_count) == (0, 0)
    assert report.Column("name").kind == "text"
    assert report.Cell(1).kind is None
    first, second = report.Report("T", ()), report.Report("T", ())
    assert first.rows == first.notes == []
    first.rows.append(("x",))
    first.notes.append("n")
    assert second.rows == second.notes == []


def test_records_match_positionally():
    profile = ballotlab.CondensedProfile(("A", "B"), {"A": 1}, {}, {})
    matched = []
    for record in (ballotlab.Full("A", "B"), ballotlab.Bullet("A"), ballotlab.Blank(), profile):
        match record:
            case ballotlab.Full(first, second):
                matched.append((first, second))
            case ballotlab.Bullet(first):
                matched.append(first)
            case ballotlab.CondensedProfile(candidates, bullet, _, _, over3):
                matched.append((candidates, bullet, over3))
            case ballotlab.Blank():
                matched.append("blank")
    assert matched == [("A", "B"), "A", "blank", (("A", "B"), {"A": 1}, 0)]
