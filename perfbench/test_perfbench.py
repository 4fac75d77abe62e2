"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cvrgen  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_generator_is_deterministic_per_seed():
    def make(seed):
        rng = random.Random(seed)
        return (cvrgen.raw_bytes(cvrgen.repeat_cvr(rng, 300)),
                cvrgen.raw_bytes(cvrgen.diverse_cvr(rng, 5, 300)),
                cvrgen.condensed_bytes(cvrgen.sweep_profile(rng, 10_000)))

    assert make(3) == make(3)
    assert all(a != b for a, b in zip(make(3), make(4)))


def test_repeat_cvr_covers_every_ballot_form():
    doc = cvrgen.repeat_cvr(random.Random(1), 5000)
    marks = [m for b in doc["ballots"] for r in b for m in r]
    assert any(m.startswith(cvrgen.W) for m in marks)
    assert any(b[0] == [] and b[1] for b in doc["ballots"])            # skipped rank
    assert any(len(b[0]) == 2 and b[0][0] == b[0][1] for b in doc["ballots"])
    e = refcheck.from_raw(cvrgen.raw_bytes(doc))
    assert e.over2 and e.over_all and e.blank
    assert any(len(r) == 1 for r in e.rankings)                         # incl. second-rank overvotes
    d = cvrgen.describe(doc, cvrgen.raw_bytes(doc))
    assert d["ballots"] == 5000 and d["distinct_grids"] < 200


@pytest.mark.parametrize("workload", ["cli-fixture", "model-sweep"])
def test_checker_agrees_with_ballotlab_on_three_candidates(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SWEEP_BALLOTS", 20_000)
    ops = run.build_ops(workload, 5, tmp_path)
    for op in ops:
        code, out, err = run.run_in_process(op)
        assert run.check_op(op, code, out, err) == [], op.label


def test_checker_agrees_on_raw_three_candidate_cvr(tmp_path):
    doc = cvrgen.repeat_cvr(random.Random(2), 3000)
    path = tmp_path / "cvr.json"
    data = cvrgen.raw_bytes(doc)
    path.write_bytes(data)
    e = refcheck.from_raw(data)
    for argv in (["ingest", "$FIX", "--out", "$OUT"], ["irv", "$FIX"], ["pairwise", "$FIX"],
                 ["pairwise", "$FIX", "--basis", "include-ties", "--format", "csv"]):
        op = run._op(argv, path, e, tmp_path / "out.csv")
        code, out, err = run.run_in_process(op)
        assert run.check_op(op, code, out, err) == [], op.label


def test_checker_rejects_corrupted_output(tmp_path):
    data = run.FIXTURE.read_bytes()
    e = refcheck.from_condensed(data)
    op = run._op(["irv", "$FIX"], run.FIXTURE, e)
    code, out, err = run.run_in_process(op)
    assert run.check_op(op, code, out, err) == []
    corrupted = out.replace(b"Peltola", b"Begich", 1)
    assert run.check_op(op, code, corrupted, err)
    assert run.check_op(op, code, out.replace(b"51.46%", b"51.45%", 1), err)
    assert run.check_op(op, code, b"", err)
    assert run.check_op(op, 1, out, err)
    assert run.check_op(op, code, out.replace(b"Instant-runoff", b"Instant runoff", 1), err)
    lines = out.split(b"\n")
    surplus = b"\n".join(lines[:4] + [lines[3]] + lines[4:])             # a duplicated row
    assert run.check_op(op, code, surplus, err)


def test_checker_confirms_paper_figures():
    e = refcheck.from_condensed(run.FIXTURE.read_bytes())
    assert refcheck.irv(e)[1] == "Peltola"
    assert refcheck.condorcet(e)[0] == "Begich"
    assert refcheck.approval_threshold(e, "Begich", "Peltola") == refcheck.Fraction(21738, 62291)
    squeeze = refcheck.expect(e, ["squeeze"])
    assert ["squeezed", "true"] in squeeze.rows


def test_full_ranking_irv_differs_from_truncation():
    # ROADMAP's repro: true IRV elects B 7-5 in round 3.
    ballots = [[["A"], [], [], []]] * 5 + [[["B"], [], [], []]] * 4 \
        + [[["C"], ["D"], ["B"], []]] * 2 + [[["D"], ["C"], ["B"], []]]
    e = refcheck.from_raw(cvrgen.raw_bytes({"candidates": ["A", "B", "C", "D"], "ballots": ballots}))
    rounds, winner = refcheck.irv(e)
    assert winner == "B" and rounds[-1].tallies == {"A": 5, "B": 7}


def test_self_time_subtracts_children_once():
    #        0 root [0, 100]
    #        1  child [10, 40]      2 child [30, 60] overlaps 1
    #        3   grandchild [15, 20] inside 1
    s = [("root", 0, 100, -1, 1), ("a", 10, 40, 0, 1), ("b", 30, 60, 0, 1), ("g", 15, 20, 1, 1)]
    assert spans.self_times(s) == [50, 25, 30, 5]
    totals, calls = spans.self_ms_by_name(s)
    assert calls["root"] == 1 and totals["a"] == pytest.approx(25e-6)


def test_tracer_wraps_every_binding_and_restores():
    import ballotlab.cli  # noqa: F401

    core = sys.modules["ballotlab.core"]
    ingest = sys.modules["ballotlab.ingest"]
    original = core.classify_ballot
    tracer = spans.Tracer()
    tracer.install(original, "core.classify")
    try:
        assert ingest.classify_ballot is core.classify_ballot is not original
        doc = ingest.parse_raw(b'{"candidates": ["A", "B", "C"], "ballots": [[["A"], ["B"], []]]}')
        ingest.ingest(doc)
    finally:
        tracer.uninstall()
    assert ingest.classify_ballot is original and core.classify_ballot is original
    assert [s[0] for s in tracer.spans] == ["core.classify"]
