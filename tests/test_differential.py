"""The README's commands, run through ``cli.run``, against the per-ballot reference.

``perfbench/refcheck.py`` re-derives every figure from the input file and
shares no code with ``ballotlab``; ``perfbench/run.py::README_COMMANDS``
is the README's command block.  Both are imported and only read here.
Hypothesis draws raw CVRs over a shuffled roster of Begich, Peltola and
Palin, so the README's arguments apply as written, and each CVR is run
both as it is and as the condensed CSV that ``write_condensed`` makes
from it.  A command either prints what the reference expects and exits
0, or exits 1 where the reference has no answer (an exact tie, an
unattainable threshold, no valid ballot).
"""

import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ballotlab import ingest, parse_raw, write_condensed
from ballotlab.cli import run

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
def raw_cvrs(draw):
    """A raw CVR of 0-40 ballots that every README command accepts.

    A rank holds 0-3 marks drawn from the roster and two write-ins, with
    repeats, so ballots skip ranks, repeat a mark, overvote a rank or are
    blank.  Half the time the first 20 ballots are also cast with two
    candidates swapped, which ties those two exactly.
    """
    roster = draw(st.permutations(ROSTER))
    positions = draw(st.integers(1, 3))
    rank = st.lists(st.sampled_from(roster + list(WRITE_INS)), max_size=3)
    ballot = st.lists(rank, min_size=positions, max_size=positions)
    ballots = draw(st.lists(ballot, max_size=40))
    if draw(st.booleans()):
        a, b = draw(st.permutations(roster))[:2]
        swap = {a: b, b: a}
        ballots = ballots[:20]
        ballots += [[[swap.get(m, m) for m in marks] for marks in cast] for cast in ballots]
    return {"candidates": roster, "ballots": ballots}


def _run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and standard output of one in-process ``ballotlab`` command."""
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = run(argv)
        sys.stdout.flush()
        return code, sys.stdout.buffer.getvalue()
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
        code, stdout = _run([argv[0], path, *argv[1:], *fmt])
        if code != 0:
            errors.append(f"exit {code}")
        errors += refcheck.check(x, argv + fmt, stdout, None, data)
    return errors


def _check_readme_commands(e, path: Path, data: bytes, work: Path) -> None:
    out = work / "out.csv"
    for template in bench.README_COMMANDS:
        argv = [a for a in template if a not in ("$FIX", "$OUT")]
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
        code, stdout = _run([str(path) if a == "$FIX" else str(out) if a == "$OUT" else a
                             for a in template])
        if expected is None:
            assert code == 1, argv
        else:
            assert code == 0, argv
            out_file = out.read_bytes() if out.exists() else None
            assert refcheck.check(expected, argv, stdout, out_file, data) == [], argv


@settings(max_examples=30, deadline=None)
@given(raw_cvrs())
def test_readme_commands_match_the_reference(doc):
    raw = json.dumps(doc).encode()
    e = refcheck.from_raw(raw)
    condensed = write_condensed(ingest(parse_raw(raw)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, data in (("cvr.json", raw), ("profile.csv", condensed)):
            (work / name).write_bytes(data)
            _check_readme_commands(e, work / name, data, work)
