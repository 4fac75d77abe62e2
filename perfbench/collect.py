"""Run the benchmark over several seeds and record every result.

    python3 perfbench/collect.py --out results.jsonl
    python3 perfbench/collect.py --checkout ../parent --out parent.jsonl \\
                                 --checkout . --out change.jsonl

Each record is one JSON line: ``workload``, ``seed``, ``trace`` and the
benchmark's ``result``.  Runs last BENCHMARK.json's ``run_seconds`` and
use seeds ``first-seed .. first-seed+9`` with tracing off, then one traced
run per workload.  With two checkouts the runs alternate which one goes
first.  At the end it prints, per workload and end-to-end metric, the
median, the quartiles and the spread (quartile distance over median)
next to the metric's bound.  A results file is written afresh; an
existing one is refused, so no stale records mix in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def values_by_metric(records: list[dict], workload: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == 0:
            for name, m in r["result"]["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def spread_table(records: list[dict], spec: dict) -> bool:
    """Print spreads; True when every spread is under a third of its bound."""
    steady = True
    for w in dict.fromkeys(r["workload"] for r in records):
        failed = sum(r["result"]["failed"] for r in records if r["workload"] == w)
        values = values_by_metric(records, w)
        for metric in spec["end_to_end"]:
            xs = values.get(metric["name"], [])
            if len(xs) < 2:
                continue
            q1, med, q3 = quartiles(xs)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"{w:15s} {metric['name']:14s} median {med:14.4f} {metric['unit']:9s} "
                  f"q1 {q1:14.4f} q3 {q3:14.4f} spread {spread:7.4f} bound {metric['bound']:.2f} "
                  f"{'ok' if ok else 'WIDE'}  (n={len(xs)}, failed ops {failed})")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to run (repeat for two); default: this one")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="results file, one per checkout")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = load_spec()
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]
    if len(checkouts) != len(args.out):
        parser.error("give one --out per --checkout")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    files = [open(p, "x") for p in args.out]
    try:
        for w in workloads:
            for i in range(RUNS):
                seed = args.first_seed + i
                order = range(len(checkouts)) if i % 2 == 0 else reversed(range(len(checkouts)))
                for k in order:
                    result = run_once(checkouts[k], w, seed, seconds, 0)
                    files[k].write(json.dumps({"workload": w, "seed": seed, "trace": 0, "result": result}) + "\n")
                    files[k].flush()
                    print(f"{checkouts[k].name} {w} seed {seed}: "
                          + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                          flush=True)
            for k, checkout in enumerate(checkouts):
                result = run_once(checkout, w, args.first_seed, seconds, 1)
                files[k].write(json.dumps({"workload": w, "seed": args.first_seed, "trace": 1,
                                           "result": result}) + "\n")
    finally:
        for f in files:
            f.close()
    steady = True
    for path in args.out:
        print(f"== {path}")
        steady &= spread_table(load_records(path), spec)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
