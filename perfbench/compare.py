"""Compare two result sets from ``collect.py``: the parent commit and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload and end-to-end metric it prints both medians and
quartiles and one verdict, following the rule for noisy shared machines:

* ``improved`` -- the change is better in at least 9 of every 10 seed
  pairs (ties count for neither side) and the medians differ by more
  than the quartile distance of the parent's own runs;
* ``no worse`` -- the change's median is worse than the parent's by no
  more than the metric's bound;
* ``regressed`` -- it is worse by more than the bound;
* ``unresolved`` -- the parent's own spread is wider than the bound, and
  not every change run beats every parent run.

It then prints per-layer deltas between the two traced runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from collect import load_records, load_spec, quartiles, values_by_metric


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return "improved"
    if (p3 - p1) / pm > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return "no worse (every change run better)" if all_better else "unresolved"
    worse = sign * (cm - pm) / pm
    return "no worse" if worse <= bound else f"regressed by {worse:.1%}"


def layer_deltas(parent: list[dict], change: list[dict], workload: str) -> list[str]:
    def traced(records):
        return next((r["result"]["metrics"] for r in records
                     if r["workload"] == workload and r["trace"] == 1), None)

    a, b = traced(parent), traced(change)
    if a is None or b is None:
        return [f"  (no traced run for {workload} on both sides)"]
    lines = []
    for name in a:
        if name in b and a[name]["unit"] == "ms":
            va, vb = a[name]["value"], b[name]["value"]
            rel = f"{(vb - va) / va:+.1%}" if va else "n/a"
            lines.append(f"  {name:32s} {va:12.3f} -> {vb:12.3f} ms  ({vb - va:+.3f} ms, {rel})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = load_spec()
    parent, change = load_records(args.parent), load_records(args.change)
    for w in dict.fromkeys(r["workload"] for r in parent):
        pv, cv = values_by_metric(parent, w), values_by_metric(change, w)
        by_seed = {r["seed"]: r["result"]["metrics"] for r in change
                   if r["workload"] == w and r["trace"] == 0}
        print(f"== {w}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if len(pv.get(name, [])) < 2 or len(cv.get(name, [])) < 2:
                continue
            pairs = [(r["result"]["metrics"][name]["value"], by_seed[r["seed"]][name]["value"])
                     for r in parent
                     if r["workload"] == w and r["trace"] == 0 and r["seed"] in by_seed]
            p1, pm, p3 = quartiles(pv[name])
            c1, cm, c3 = quartiles(cv[name])
            v = verdict(pv[name], cv[name], pairs, metric["better"], metric["bound"])
            print(f"  {name:14s} parent {pm:14.4f} [{p1:.4f}, {p3:.4f}]  change {cm:14.4f} "
                  f"[{c1:.4f}, {c3:.4f}] {metric['unit']:9s} n={len(pv[name])}/{len(cv[name])} "
                  f"pairs={len(pairs)}  {v}")
        print("  per-layer self time, traced runs (parent -> change):")
        print("\n".join(layer_deltas(parent, change, w)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
