"""The README's commands, run through ``cli.run``, against the per-ballot reference.

``perfbench/refcheck.py`` re-derives every figure from the input file and
shares no code with ``ballotlab``; ``perfbench/run.py::README_COMMANDS``
is the README's command block.  Both are imported and only read here.
Hypothesis draws raw CVRs over a shuffled roster of Begich, Peltola and
Palin, so the README's arguments apply as written, and each CVR is run
both as it is and as the condensed CSV that ``write_condensed`` makes
from it.  Raw CVRs over two of them run every command whose flags name
only those two.  A command either prints what the reference expects and exits
0, or exits 1 where the reference has no answer (an exact tie, an
unattainable threshold, no valid ballot).  Raw CVRs of 4-6 candidates,
whose rankings run past the second choice, are checked the same way for
the commands that take any roster.
"""

import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ballotlab import ingest, parse_raw, write_condensed
from ballotlab.cli import run

from .oracles import ranked_ballot, whole_ranking

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))  # run.py imports its sibling modules by name
import refcheck  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

ROSTER = ("Begich", "Peltola", "Palin")
WRITE_INS = ("WRITEIN:Smith", "WRITEIN:Mickey Mouse")
PAIRWISE_KINDS = ["text", "text", "int", "int", "int", "percent", "percent"]


@st.composite
def raw_cvrs(draw, size=3):
    """A raw CVR of 0-40 ballots over ``size`` of the README's candidates,
    which every README command naming only them accepts.

    A rank holds 0-3 marks drawn from the roster and two write-ins, with
    repeats, so ballots skip ranks, repeat a mark, overvote a rank or are
    blank.  Half the time the first 20 ballots are also cast with two
    candidates swapped, which ties those two exactly.
    """
    roster = draw(st.permutations(ROSTER))[:size]
    positions = draw(st.integers(1, size))
    rank = st.lists(st.sampled_from(roster + list(WRITE_INS)), max_size=3)
    ballot = st.lists(rank, min_size=positions, max_size=positions)
    ballots = draw(st.lists(ballot, max_size=40))
    if draw(st.booleans()):
        a, b = draw(st.permutations(roster))[:2]
        swap = {a: b, b: a}
        ballots = ballots[:20]
        ballots += [[[swap.get(m, m) for m in marks] for marks in cast] for cast in ballots]
    return {"candidates": roster, "ballots": ballots}


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, standard output and standard error of one in-process ``ballotlab`` command."""
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = run(argv)
        sys.stdout.flush()
        sys.stderr.flush()
        return code, sys.stdout.buffer.getvalue(), sys.stderr.buffer.getvalue()
    finally:
        sys.stdout, sys.stderr = saved


def _pairwise_without_shares(e, argv: list[str], path: str, data: bytes) -> list[str]:
    """Differences from the reference's counts where a pair has no two-way vote.

    ``refcheck.expect`` cannot render the missing share, so the counts come
    from ``refcheck.pairwise`` and both share cells must be blank: dropped
    from the table's row, empty in ``--format csv``.
    """
    basis = refcheck._flag(argv, "--basis", "ranked-only")
    prefers, neither, total = refcheck.pairwise(e, basis == "include-ties")
    errors = []
    for machine in (False, True):
        rows = []
        for a, b in e.pairs():
            row = [a, b, prefers[(a, b)], prefers[(b, a)], neither[(a, b)],
                   refcheck.share(prefers, a, b), refcheck.share(prefers, b, a)]
            cells = [refcheck.cell(v, k, machine) for v, k in zip(row[:5], PAIRWISE_KINDS)]
            if row[5] is None:
                cells += ["", ""] if machine else []
            else:
                cells += [refcheck.cell(v, "percent", machine) for v in row[5:]]
            rows.append(cells)
        x = refcheck.Expected(title=f"Head-to-head tallies ({basis})",
                              header=["candidate_a", "candidate_b", "prefers_a", "prefers_b",
                                      "no_preference", "share_a", "share_b"],
                              rows=rows, notes=[] if machine else [f"ballots in basis: {total}"])
        fmt = ["--format", "csv"] if machine else []
        code, stdout, _ = _run([argv[0], path, *argv[1:], *fmt])
        if code != 0:
            errors.append(f"exit {code}")
        errors += refcheck.check(x, argv + fmt, stdout, None, data)
    return errors


def _check_readme_commands(e, path: Path, data: bytes, work: Path) -> None:
    """Every README command whose flags name only candidates of the roster."""
    out = work / "out.csv"
    absent = set(ROSTER) - set(e.roster)
    for template in bench.README_COMMANDS:
        argv = [a for a in template if a not in ("$FIX", "$OUT")]
        if any(name in a for a in argv for name in absent):
            continue
        out.unlink(missing_ok=True)
        try:
            expected = refcheck.expect(e, argv)
        except refcheck.NoReference:
            expected = None
        except TypeError:
            # A pair without a two-way vote has no share for the reference to render.
            assert argv[0] == "pairwise"
            assert _pairwise_without_shares(e, argv, str(path), data) == [], argv
            continue
        code, stdout, _ = _run([str(path) if a == "$FIX" else str(out) if a == "$OUT" else a
                                for a in template])
        if expected is None:
            assert code == 1, argv
        else:
            assert code == 0, argv
            out_file = out.read_bytes() if out.exists() else None
            assert refcheck.check(expected, argv, stdout, out_file, data) == [], argv


def _check_cvr_and_its_csv(doc) -> None:
    raw = json.dumps(doc).encode()
    e = refcheck.from_raw(raw)
    condensed = write_condensed(ingest(parse_raw(raw)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, data in (("cvr.json", raw), ("profile.csv", condensed)):
            (work / name).write_bytes(data)
            _check_readme_commands(e, work / name, data, work)


@settings(max_examples=30, deadline=None)
@given(raw_cvrs())
def test_readme_commands_match_the_reference(doc):
    _check_cvr_and_its_csv(doc)


@settings(max_examples=30, deadline=None)
@given(raw_cvrs(size=2))
def test_readme_commands_match_the_reference_on_two_candidates(doc):
    """A top overvote of both candidates is all-way, in the CVR and in the CSV
    ``ingest`` writes from it (one ``over3:A+B`` row, no ``over2`` row)."""
    _check_cvr_and_its_csv(doc)


@st.composite
def deep_cvrs(draw):
    """A raw CVR of 0-40 ballots over 4-6 candidates, in shuffled roster order.

    Most ranks hold one mark; some are empty, hold a write-in, repeat a
    candidate already ranked, or overvote two or three candidates.  A ballot
    whose first non-empty rank would overvote 3 or more candidates but not
    the whole roster, which no command accepts, keeps two of them.
    """
    roster = draw(st.permutations("ABCDEF"[:draw(st.integers(4, 6))]))
    positions = draw(st.integers(1, len(roster)))
    one = st.sampled_from(roster).map(lambda c: [c])
    rank = st.one_of(one, one, one, st.just([]), st.sampled_from(WRITE_INS).map(lambda w: [w]),
                     st.lists(st.sampled_from(roster), min_size=2, max_size=3, unique=True),
                     st.just(list(roster)))
    ballots = draw(st.lists(st.lists(rank, min_size=positions, max_size=positions), max_size=40))
    for ballot in ballots:
        j = next((j for j, r in enumerate(ballot) if set(r) & set(roster)), None)
        if j is not None and 2 < len(ballot[j]) < len(roster):
            ballot[j] = ballot[j][:2]
    return {"candidates": roster, "ballots": ballots}


ANY_ROSTER = [["irv"], ["irv", "--format", "csv"], ["pairwise"],
              ["pairwise", "--basis", "include-ties"], ["condorcet"], ["squeeze"]]
SCORING = [["approval", "range"], ["approval", "eval", "--p", "1/2"], ["approval", "sweep"],
           ["star", "range"], ["star", "eval", "--s", "2"], ["star", "sweep"]]


@settings(max_examples=30, deadline=None)
@given(deep_cvrs())
def test_deep_rankings_match_the_reference(doc):
    raw = json.dumps(doc).encode()
    e = refcheck.from_raw(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cvr.json", Path(tmp) / "out.csv"
        path.write_bytes(raw)
        for argv in ANY_ROSTER:
            try:
                expected = refcheck.expect(e, argv)
            except refcheck.NoReference:
                assert _run([argv[0], str(path), *argv[1:]])[0] == 1, argv
                continue
            except TypeError:  # a pair without a two-way vote: see _pairwise_without_shares
                assert _pairwise_without_shares(e, argv, str(path), raw) == [], argv
                continue
            code, stdout, stderr = _run([argv[0], str(path), *argv[1:]])
            assert (code, stderr) == (0, b""), argv
            assert refcheck.check(expected, argv, stdout, None, raw) == [], argv
        code, stdout, _ = _run(["ingest", str(path), "--out", str(out)])
        assert (code, stdout) == (0, b"")
        assert refcheck.check(refcheck.expect(e, ["ingest"]), ["ingest"], b"", out.read_bytes(),
                              raw) == []
        refusal = f"error: this model needs 2 or 3 candidates, got {len(doc['candidates'])}\n"
        for argv in SCORING:
            assert _run([*argv[:2], str(path), *argv[2:]]) == (2, b"", refusal.encode()), argv


@settings(max_examples=60, deadline=None)
@given(deep_cvrs())
def test_whole_ranking_oracle_matches_the_reference(doc):
    """``oracles.whole_ranking`` reads the ballots as ``refcheck.from_raw`` does,
    keeping all but the implied last of N candidates."""
    roster = tuple(doc["candidates"])
    expected = Counter()
    for ranking, n in refcheck.from_raw(json.dumps(doc).encode()).rankings.items():
        expected[ranking[:len(roster) - 1]] += n
    read = (whole_ranking(ranked_ballot(ballot).ranks, roster) for ballot in doc["ballots"])
    assert Counter(r for r in read if r is not None) == expected
