"""ballotlab benchmark: end-to-end CLI processes, or a traced in-process run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` times real
``python -m ballotlab ...`` processes one at a time (a closed loop with
one client) and reports the end-to-end metrics; ``--trace 1`` runs the
same operations inside this process through ``ballotlab.cli.run`` with
spans around each layer and reports the per-layer metrics.  Every
command's output is checked against ``refcheck``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
turn (including ``irv-diverse``, which is not in BENCHMARK.json).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import cvrgen
import refcheck
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "fixtures" / "alaska_special_2022.condensed.csv"
WORK = ROOT / ".perfbench_work"

# SpeedGauge's reference: the median launch time of a bare interpreter on a
# 2-vCPU 2.1 GHz x86-64 VM under Python 3.11, so scaled times read close to raw ones there.
REFERENCE_START_S = 0.012
SETUP_SAMPLES = 41
INTERPRETER_SAMPLES = 7
IMPORTTIME_SAMPLES = 5
# Raw-ingest inputs hold 2 * 10^4 ballots, so an ingest process lasts about
# 0.5 s and a 20 s run holds 30 or more process samples; longer processes
# drift too much within a sample for the speed calibration to follow.
REPEAT_BALLOTS = 20_000
DIVERSE_ROSTERS = (4, 5, 6)
DIVERSE_BALLOTS = 6_667
SWEEP_BALLOTS = 1_000_000
# The 10^4-point approval grid at step 10^-4 runs as sixteen sub-range processes
# of 625 points (about 0.2 s each rather than 1.5 s), so a run holds enough
# sweep samples and they are the majority the median falls among.
APPROVAL_SUBGRIDS = [f"{625 * k / 10_000:.4f}:{(625 * k + 624) / 10_000 if k < 15 else 1:.4f}:0.0001"
                     for k in range(16)]

# The README's command block, with $FIX as the placeholder for the input.
README_COMMANDS = [
    ["irv", "$FIX"],
    ["pairwise", "$FIX"],
    ["pairwise", "$FIX", "--basis", "include-ties"],
    ["condorcet", "$FIX"],
    ["squeeze", "$FIX"],
    ["approval", "range", "$FIX", "--format", "csv"],
    ["approval", "eval", "$FIX", "--p", "0.35"],
    ["approval", "eval", "$FIX", "--p", "0", "--p-group", "Peltola>Begich=0.9"],
    ["approval", "threshold", "$FIX", "--riser", "Begich", "--leader", "Peltola"],
    ["approval", "clinch", "$FIX", "--candidate", "Begich", "--group", "Peltola>Begich"],
    ["approval", "sweep", "$FIX", "--grid", "0:1:0.01"],
    ["star", "range", "$FIX"],
    ["star", "eval", "$FIX", "--s", "1", "--s-group", "Begich>Palin=4"],
    ["star", "threshold", "$FIX", "--guaranteed", "Begich", "--rival", "Palin"],
    ["star", "sweep", "$FIX", "--grid", "1:4:0.01"],
    ["ingest", "$FIX", "--out", "$OUT"],
    ["approval", "range", "$FIX", "--plot-data"],
]

WORKLOADS = ("cli-fixture", "ingest-repeat", "ingest-diverse", "irv-diverse", "model-sweep")


@dataclass
class Op:
    """One ``ballotlab`` command and what it must print."""

    argv: list[str]
    input: Path
    ballots: int
    expected: refcheck.Expected
    out: Path | None = None

    @property
    def check_argv(self) -> list[str]:
        """The arguments without the input and ``--out`` paths."""
        return [a for a in self.argv if a not in (str(self.input), str(self.out))]

    @property
    def label(self) -> str:
        return " ".join(self.check_argv)


class Setup(Exception):
    """The checkout cannot run the benchmark."""


# -- inputs ----------------------------------------------------------------


def _op(argv: list[str], path: Path, electorate, out: Path | None = None) -> Op:
    out = out if "$OUT" in argv else None
    argv = [str(path) if a == "$FIX" else str(out) if a == "$OUT" else a for a in argv]
    op = Op(argv, path, electorate.ballots, refcheck.Expected(), out)
    op.expected = refcheck.expect(electorate, op.check_argv)
    return op


def _write(path: Path, data: bytes) -> bytes:
    path.write_bytes(data)
    return data


def _sweep_profile(rng: random.Random, work: Path):
    """A condensed 3-candidate profile whose approval winner changes on [0, 1].

    Redrawn until no STAR tie or unattainable threshold would make a
    command exit with a domain error.
    """
    while True:
        data = cvrgen.condensed_bytes(cvrgen.sweep_profile(rng, SWEEP_BALLOTS))
        e = refcheck.from_condensed(data)
        winners = {w for _, w in refcheck.approval_sweep_winners(e, 0, 1, Fraction(1, 100))}
        try:
            for h in range(100, 401):
                refcheck.star(e, {g: Fraction(h, 100) for g in e.groups()})
        except refcheck.NoReference:
            continue
        if (len(winners) > 1 and refcheck.approval_threshold(e, "Nakamura", "Ortiz") is not None
                and refcheck.star_threshold(e, "Nakamura", "Keller") is not None):
            path = work / "profile.csv"
            path.write_bytes(data)
            return path, e


def build_ops(workload: str, seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    if workload == "cli-fixture":
        e = refcheck.from_condensed(FIXTURE.read_bytes())
        ops = [_op(c, FIXTURE, e, work / "profile.csv") for c in README_COMMANDS]
        rng.shuffle(ops)
        return ops
    if workload == "ingest-repeat":
        doc = cvrgen.repeat_cvr(rng, REPEAT_BALLOTS)
        path = work / "repeat.json"
        data = _write(path, cvrgen.raw_bytes(doc))
        _describe(path, doc, data)
        e = refcheck.from_raw(data)
        return [_op(["ingest", "$FIX", "--out", "$OUT"], path, e, work / "repeat.csv"),
                _op(["irv", "$FIX"], path, e),
                _op(["pairwise", "$FIX"], path, e)]
    if workload in ("ingest-diverse", "irv-diverse"):
        ops = []
        for n in DIVERSE_ROSTERS:
            doc = cvrgen.diverse_cvr(rng, n, DIVERSE_BALLOTS)
            path = work / f"diverse-{n}.json"
            data = _write(path, cvrgen.raw_bytes(doc))
            _describe(path, doc, data)
            e = refcheck.from_raw(data)
            if workload == "ingest-diverse":
                ops.append(_op(["ingest", "$FIX", "--out", "$OUT"], path, e, work / f"diverse-{n}.csv"))
            else:
                ops.append(_op(["irv", "$FIX"], path, e))
        return ops
    if workload == "model-sweep":
        inputs = [(FIXTURE, refcheck.from_condensed(FIXTURE.read_bytes()), ("Begich", "Peltola", "Palin")),
                  (*_sweep_profile(rng, work), ("Nakamura", "Ortiz", "Keller"))]
        ops = []
        for path, e, (middle, leader, third) in inputs:
            p = f"{rng.randint(1, 99)}/100"
            s = f"{rng.randint(100, 400)}/100"
            for argv in (
                *(["approval", "sweep", "$FIX", "--grid", g, "--format", "csv"] for g in APPROVAL_SUBGRIDS),
                ["star", "sweep", "$FIX", "--format", "csv"],
                ["approval", "threshold", "$FIX", "--riser", middle, "--leader", leader],
                ["star", "threshold", "$FIX", "--guaranteed", middle, "--rival", third],
                ["approval", "eval", "$FIX", "--p", p],
                ["star", "eval", "$FIX", "--s", s],
            ):
                ops.append(_op(argv, path, e))
        rng.shuffle(ops)
        return ops
    raise Setup(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)} or all")


def _describe(path: Path, doc: dict, data: bytes) -> None:
    d = cvrgen.describe(doc, data)
    print(f"input {path.name}: {d['ballots']} ballots, {d['distinct_grids']} distinct rank grids "
          f"({d['repeated_share']:.1%} of ballots repeat an earlier grid), {d['bytes']} bytes")


# -- processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SpeedGauge:
    """Scales wall times to a reference machine speed.

    Shared machines drift in speed by tens of percent over tens of
    seconds, which would swamp any change to ballotlab.  After every
    sample a bare interpreter (``python -I -S -c pass``: no site hooks,
    nothing from the repository) is launched and timed.  A sample's wall
    time is multiplied by ``REFERENCE_START_S`` over the median launch
    time of the ten launches around it (five before, five after).  A
    launch follows the cold-start costs that dominate short ballotlab
    processes better than a loop inside this process does, and the
    median follows drift over seconds but not one launch's hiccup.
    Nothing ballotlab does can change the reference launch.
    """

    def __init__(self):
        self.starts = [self.start()]
        self.raw: list[float] = []

    @staticmethod
    def start() -> float:
        began = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        return time.perf_counter() - began

    def record(self, wall: float) -> None:
        self.raw.append(wall)
        self.starts.append(self.start())

    def scaled(self) -> list[float]:
        # Sample i ran between launches i and i + 1.
        return [wall * REFERENCE_START_S / statistics.median(self.starts[max(0, i - 4):i + 6])
                for i, wall in enumerate(self.raw)]


def spawn(args: list[str], stdout, stderr=subprocess.DEVNULL) -> tuple[float, int, float]:
    """Run one process to exit; returns (wall seconds, exit code, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def median_wall(args: list[str], n: int) -> tuple[float, float]:
    """Median wall time of ``n`` runs: (scaled to reference speed, raw)."""
    gauge = SpeedGauge()
    for _ in range(n):
        wall, code, _ = spawn(args, subprocess.DEVNULL)
        if code != 0:
            raise Setup(f"{' '.join(args)} exited with {code}")
        gauge.record(wall)
    return statistics.median(gauge.scaled()), statistics.median(gauge.raw)


def check_op(op: Op, code: int, stdout: bytes, err: bytes = b"") -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.decode(errors='replace').strip()[:200]}"]
    out_bytes = op.out.read_bytes() if op.out is not None and op.out.exists() else None
    return refcheck.check(op.expected, op.check_argv, stdout, out_bytes, op.input.read_bytes())


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_passes(seconds: float, one_pass) -> int:
    """Call ``one_pass`` until the call that ends nearest ``seconds``; at least once.

    Stopping at the pass nearest the deadline, rather than before it, keeps
    the number of passes the same from run to run when a pass lasts about
    half of ``seconds``.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 > seconds:
            return passes


def end_to_end(workload: str, ops: list[Op], seconds: float, work: Path) -> dict:
    py = sys.executable
    spawn([py, "-c", "import ballotlab.cli"], subprocess.DEVNULL)  # compile bytecode once
    setup, setup_raw = median_wall([py, "-c", "import ballotlab.cli"], SETUP_SAMPLES)
    interpreter, interpreter_raw = median_wall([py, "-c", "pass"], INTERPRETER_SAMPLES)

    gauge = SpeedGauge()
    ballots = 0
    rss: list[float] = []
    failures: list[str] = []
    stdout_path, stderr_path = work / "stdout", work / "stderr"

    def run_one(op: Op) -> None:
        nonlocal ballots
        if op.out is not None and op.out.exists():
            op.out.unlink()
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            wall, code, peak = spawn([py, "-m", "ballotlab", *op.argv], out, err)
        gauge.record(wall)
        ballots += op.ballots
        rss.append(peak)
        problems = check_op(op, code, stdout_path.read_bytes(), stderr_path.read_bytes())
        if problems:
            failures.append(f"{op.label}: {problems[0]}")

    passes = run_passes(seconds, lambda: [run_one(op) for op in ops])
    walls = gauge.scaled()
    n = len(walls)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_ms_p50": (statistics.median(walls) * 1000, "ms"),
        "ballots_per_s": (ballots / sum(walls), "ballots/s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    side = {"wall_ms_p90": (p90(walls) * 1000, "ms"),
            "failed_ratio": (len(failures) / n, "ratio"),
            "proc.interpreter_ms": (interpreter * 1000, "ms"),
            "raw.setup_s": (setup_raw, "s"),
            "raw.wall_ms_p50": (statistics.median(gauge.raw) * 1000, "ms"),
            "raw.wall_ms_p90": (p90(gauge.raw) * 1000, "ms"),
            "raw.proc.interpreter_ms": (interpreter_raw * 1000, "ms"),
            **source_lines()}
    print(f"workload {workload}: {n} processes in {passes} passes over {len(ops)} commands; "
          f"p90 has {n - 1 - int(0.9 * (n - 1))} samples above it; times scaled to reference "
          "speed, raw.* unscaled")
    return report(metrics, side, n, failures)


def source_lines() -> dict:
    files = sorted((SRC / "ballotlab").glob("*.py"))
    count = lambda p: len(p.read_bytes().splitlines())  # noqa: E731
    return {"src.lines": (sum(count(p) for p in files), "count"),
            "src.cli_lines": (count(SRC / "ballotlab" / "cli.py"), "count")}


def report(metrics: dict, side: dict, attempted: int, failures: list[str]) -> dict:
    for name, (value, unit) in {**metrics, **side}.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- traced run ------------------------------------------------------------------


def import_layer() -> dict:
    """Self time per module from ``-X importtime`` (median over runs)."""
    samples: dict[str, list[float]] = {}
    startup = _importtime(["-c", "pass"])
    for _ in range(IMPORTTIME_SAMPLES):
        lines = _importtime(["-c", "import ballotlab.cli"])
        total = stdlib = 0.0
        per: dict[str, float] = {}
        for name, self_us in lines.items():
            if name in startup:
                continue
            total += self_us
            if name == "ballotlab" or name.startswith("ballotlab."):
                per[name.removeprefix("ballotlab.")] = self_us
            else:
                stdlib += self_us
        mods = {f"import.{m}_ms": per.get(m, 0.0) / 1000
                for m in ("cli", "core", "approval", "star", "ingest", "report")}
        for key, value in {"import.total_ms": total / 1000, **mods,
                           "import.stdlib_ms": stdlib / 1000}.items():
            samples.setdefault(key, []).append(value)
    return {k: (statistics.median(v), "ms") for k, v in samples.items()}


def _importtime(code: list[str]) -> dict[str, float]:
    proc = subprocess.run([sys.executable, "-X", "importtime", *code], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m:
            out[m.group(2)] = float(m.group(1))
    return out


def _install(tracer: spans.Tracer) -> None:
    # The package re-exports functions under some module names (``ballotlab.ingest``
    # is the ``ingest`` function), so take the modules from ``sys.modules``.
    approval, cli, condorcet, core, ingest, irv, rational, report_mod, star = (
        sys.modules[f"ballotlab.{m}"] for m in
        ("approval", "cli", "condorcet", "core", "ingest", "irv", "rational", "report", "star"))

    def raw_count(c, args, doc):
        c["ingest.ballots"] += len(doc.ballots)
        c["ingest.bytes_in"] += len(args[0])

    def condensed_count(c, args, profile):
        c["ingest.ballots"] += profile.total_with_any_mark + profile.blank_count
        c["ingest.bytes_in"] += len(args[0])

    grids: set = set()

    def classify_count(c, args, _):
        key = (tracer.op, args[0].ranks)
        if key not in grids:
            grids.add(key)
            c["core.distinct_grids"] += 1

    def sweep_count(prefix):
        def count(c, _, points):
            c[f"{prefix}.sweeps"] += 1
            c[f"{prefix}.sweep_points"] += len(points)
            c[f"{prefix}.winner_changes"] += sum(a[1] != b[1] for a, b in zip(points, points[1:]))
        return count

    def emit_count(c, args, out):
        c["report.rows"] += len(args[0].rows) if hasattr(args[0], "rows") else out.count(b"\n") - 1
        c["report.bytes_out"] += len(out)

    tracer.install(cli.run, "cli.run")
    tracer.install_module_function(ingest, "json", "loads", "ingest.json_loads")
    tracer.install(ingest.parse_raw, "ingest.parse_raw", raw_count)
    tracer.install(ingest.parse_condensed, "ingest.parse_condensed", condensed_count)
    tracer.install(ingest.write_condensed, "ingest.write_condensed")
    tracer.install(core.classify_ballot, "core.classify", classify_count)
    tracer.install(core.condense, "core.condense")
    tracer.install_attr(core.CondensedProfile, "__post_init__", "core.profile")
    tracer.install(irv.tabulate_irv, "irv.tabulate",
                   lambda c, _, out: c.update({"irv.rounds": len(out.rounds)}))
    tracer.install(irv.irv_percentages, "irv.percentages")
    tracer.install(condorcet.pairwise_tallies, "condorcet.pairwise")
    tracer.install(condorcet.detect_center_squeeze, "condorcet.squeeze")
    tracer.install(approval.evaluate_approval, "approval.evaluate")
    tracer.install(approval.sweep_uniform, "approval.sweep", sweep_count("approval"))
    tracer.install(star.evaluate_star, "star.evaluate")
    tracer.install(star.sweep_star, "star.sweep", sweep_count("star"))
    tracer.install(star.uniform_star_threshold, "star.threshold")
    tracer.install(report_mod.emit_table, "report.emit", emit_count)
    tracer.install(report_mod.emit_range_plot_data, "report.emit", emit_count)
    tracer.install(rational.decimal_string, "rational.decimal_string")


def run_in_process(op: Op) -> tuple[int, bytes, bytes]:
    import ballotlab.cli

    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = ballotlab.cli.run(op.argv)
        sys.stdout.flush()
        sys.stderr.flush()
        return code, sys.stdout.buffer.getvalue(), sys.stderr.buffer.getvalue()
    finally:
        sys.stdout, sys.stderr = saved


LAYER_METRICS = {
    # metric: (span name, "self" | "calls")
    "cli.run_self_ms": ("cli.run", "self"),
    "ingest.json_loads_ms": ("ingest.json_loads", "self"),
    "ingest.parse_raw_self_ms": ("ingest.parse_raw", "self"),
    "ingest.parse_condensed_ms": ("ingest.parse_condensed", "self"),
    "ingest.write_condensed_ms": ("ingest.write_condensed", "self"),
    "core.classify_ms": ("core.classify", "self"),
    "core.classify_calls": ("core.classify", "calls"),
    "core.condense_ms": ("core.condense", "self"),
    "core.profile_ms": ("core.profile", "self"),
    "irv.tabulate_ms": ("irv.tabulate", "self"),
    "irv.percentages_ms": ("irv.percentages", "self"),
    "condorcet.pairwise_ms": ("condorcet.pairwise", "self"),
    "condorcet.squeeze_ms": ("condorcet.squeeze", "self"),
    "approval.evaluate_calls": ("approval.evaluate", "calls"),
    "approval.evaluate_ms": ("approval.evaluate", "self"),
    "approval.sweep_ms": ("approval.sweep", "self"),
    "star.evaluate_calls": ("star.evaluate", "calls"),
    "star.evaluate_ms": ("star.evaluate", "self"),
    "star.sweep_ms": ("star.sweep", "self"),
    "star.threshold_ms": ("star.threshold", "self"),
    "report.emit_ms": ("report.emit", "self"),
    "rational.decimal_string_calls": ("rational.decimal_string", "calls"),
    "rational.decimal_string_ms": ("rational.decimal_string", "self"),
}
COUNTERS = ("ingest.ballots", "ingest.bytes_in", "core.distinct_grids", "irv.rounds",
            "approval.sweep_points", "approval.winner_changes", "report.rows", "report.bytes_out")


def traced(workload: str, ops: list[Op], seconds: float, work: Path) -> dict:
    side = {**import_layer(),
            "proc.interpreter_ms": (median_wall([sys.executable, "-c", "pass"], INTERPRETER_SAMPLES)[0] * 1000, "ms")}
    sys.path.insert(0, str(SRC))
    import ballotlab.cli  # noqa: F401  (loads every layer module before wrapping)

    tracer = spans.Tracer()
    failures: list[str] = []
    attempted = 0
    plain_walls, traced_walls = [], []

    def one_pass(trace: bool) -> None:
        nonlocal attempted
        start = time.perf_counter()
        for op in ops:
            tracer.op += 1
            code, out, err = run_in_process(op)
            attempted += 1
            problems = check_op(op, code, out, err)
            if problems:
                failures.append(f"{op.label}: {problems[0]}")
        (traced_walls if trace else plain_walls).append(time.perf_counter() - start)

    def pair() -> None:
        one_pass(False)
        _install(tracer)
        try:
            one_pass(True)
        finally:
            tracer.uninstall()

    traced_passes = run_passes(seconds, pair)

    selfs, calls = spans.self_ms_by_name(tracer.spans)
    per_pass = lambda v: v / traced_passes  # noqa: E731
    metrics = {}
    for metric, (span, kind) in LAYER_METRICS.items():
        value = calls.get(span, 0) if kind == "calls" else selfs.get(span, 0.0)
        metrics[metric] = (per_pass(value), "count" if kind == "calls" else "ms")
    c = tracer.counts
    for name in COUNTERS:
        metrics[name] = (per_pass(c[name]), "count")
    metrics["core.classify_useful_ratio"] = (
        c["core.distinct_grids"] / calls["core.classify"] if calls.get("core.classify") else 0.0, "ratio")
    metrics["approval.sweep_useful_ratio"] = (
        (c["approval.winner_changes"] + c["approval.sweeps"]) / c["approval.sweep_points"]
        if c["approval.sweep_points"] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    metrics.update(side)
    metrics.update(source_lines())

    path = WORK / f"spans-{workload}.jsonl"
    tracer.write_jsonl(path)
    print(f"workload {workload}: {traced_passes} traced and {len(plain_walls)} untraced passes over "
          f"{len(ops)} commands; {len(tracer.spans)} spans written to {path.relative_to(ROOT)}; "
          "per-layer values are per pass")
    return report(metrics, {"failed_ratio": (len(failures) / attempted, "ratio")}, attempted, failures)


# -- main --------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = build_ops(workload, seed, work)
        return (traced if trace else end_to_end)(workload, ops, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"{', '.join(WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        for path in (SRC / "ballotlab" / "cli.py", FIXTURE):
            if not path.is_file():
                raise Setup(f"{path.relative_to(ROOT)} is missing; run from a full checkout")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except Setup as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
