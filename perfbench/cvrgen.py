"""Seeded synthetic inputs for the benchmark.

Everything here is a pure function of a ``random.Random``: the same
seed gives byte-identical files.  The program under test only ever
sees the files.

* ``repeat_cvr`` -- a 3-candidate raw cast-vote record whose ballots
  reuse a small set of rank grids, as real 3-candidate CVRs do.  It
  carries write-ins from a short token list, skipped ranks, duplicate
  marks, second-rank overvotes, top-two and all-way overvotes, and
  blanks.
* ``diverse_cvr`` -- a raw CVR with a 4-6 candidate roster, full-depth
  rankings, later-rank overvotes and mostly unique write-in tokens, so
  most rank grids are distinct.  Top overvotes are limited to the two
  forms the README documents (two candidates, or the whole roster).
* ``sweep_profile`` -- a 3-candidate condensed profile shaped like the
  Alaska race: one candidate leads on first choices, another on second
  choices, so the approval winner changes along the rate grid.
"""

from __future__ import annotations

import json
import random
import string

W = "WRITEIN:"
REPEAT_ROSTER = ("Alvarez", "Brooks", "Chen")
WRITE_IN_TOKENS = ("Smith", "Jones", "Mickey Mouse", "None of the above")


def _order(rng: random.Random, roster, weights) -> list[str]:
    """A preference order drawn by sequential weighted choice."""
    left, w, out = list(roster), list(weights), []
    while left:
        i = rng.choices(range(len(left)), w)[0]
        out.append(left.pop(i))
        w.pop(i)
    return out


def _repeat_shapes(roster) -> list[tuple[float, object]]:
    """(weight, shape) pairs; a shape maps a preference order (a, b, c) to a grid."""
    w = [[f"{W}{t}"] for t in WRITE_IN_TOKENS]
    shapes = [
        (40, lambda a, b, c: [[a], [b], [c]]),
        (14, lambda a, b, c: [[a], [b], []]),
        (12, lambda a, b, c: [[a], [], []]),
        (4, lambda a, b, c: [[a], [], [b]]),               # skipped rank
        (2, lambda a, b, c: [[], [a], [b]]),               # skipped first rank
        (2, lambda a, b, c: [[a], [a], [b]]),              # later duplicate of first
        (2, lambda a, b, c: [[a, a], [b], []]),            # duplicate mark in one rank
        (2, lambda a, b, c: [[a], [b, c], []]),            # second-rank overvote
        (1, lambda a, b, c: [[a, b], [], []]),             # top-two overvote
        (1, lambda a, b, c: [[a, b], [c], []]),
        (0.3, lambda a, b, c: [list(roster), [], []]),     # all-way overvote
        (0.7, lambda a, b, c: [[], [], []]),               # blank
    ]
    for i, tok in enumerate(w):
        shapes.append((1.0 / (i + 1), lambda a, b, c, tok=tok: [tok, [a], [b]]))
        shapes.append((0.5 / (i + 1), lambda a, b, c, tok=tok: [[a], tok, [b]]))
        shapes.append((0.3 / (i + 1), lambda a, b, c, tok=tok: [tok, [], []]))
    return shapes


def repeat_cvr(rng: random.Random, n_ballots: int) -> dict:
    roster = REPEAT_ROSTER
    # First-choice support near a three-way race; exact shares vary with the seed.
    first = [rng.uniform(0.8, 1.2) * s for s in (1.0, 1.1, 1.2)]
    shapes = _repeat_shapes(roster)
    weights = [s[0] for s in shapes]
    ballots = []
    for shape in rng.choices([s[1] for s in shapes], weights, k=n_ballots):
        ballots.append(shape(*_order(rng, roster, first)))
    return {"candidates": list(roster), "ballots": ballots}


def _token(rng: random.Random) -> str:
    return W + "".join(rng.choices(string.ascii_lowercase, k=8))


def diverse_cvr(rng: random.Random, n_candidates: int, n_ballots: int) -> dict:
    roster = [f"Cand{chr(ord('A') + i)}" for i in range(n_candidates)]
    support = [rng.uniform(0.6, 1.4) for _ in roster]
    ballots = []
    for _ in range(n_ballots):
        order = _order(rng, roster, support)
        depth = n_candidates if rng.random() < 0.7 else rng.randint(2, n_candidates)
        grid = [[c] for c in order[:depth]] + [[] for _ in range(n_candidates - depth)]
        r = rng.random()
        if r < 0.08 and depth >= 4:
            grid[rng.randint(2, depth - 1)].append(order[-1])  # later-rank overvote
        elif r < 0.10:
            grid[0].append(order[1])                            # top-two overvote
        elif r < 0.105:
            grid = [list(roster)] + [[] for _ in range(n_candidates - 1)]
        if rng.random() < 0.8:                                  # mostly unique write-ins
            grid[rng.randrange(n_candidates)].append(_token(rng))
        ballots.append(grid)
    return {"candidates": roster, "ballots": ballots}


# Alaska 2022 special-election pattern counts (README fixture), by role:
# L leads on first choices, M is the broad second choice, R is third.
_ALASKA = {
    ("bullet", "M"): 11179, ("bullet", "R"): 21139, ("bullet", "L"): 23647,
    ("full", "M", "R"): 27258, ("full", "M", "L"): 15572, ("full", "R", "M"): 34117,
    ("full", "R", "L"): 3683, ("full", "L", "M"): 47429, ("full", "L", "R"): 4727,
    ("over2", "M", "R"): 86, ("over2", "M", "L"): 62, ("over2", "R", "L"): 30,
    ("over3",): 56,
}
SWEEP_ROLES = {"M": "Nakamura", "R": "Keller", "L": "Ortiz"}
SWEEP_ROSTER = ("Nakamura", "Keller", "Ortiz")


def sweep_profile(rng: random.Random, total: int) -> dict[str, int]:
    """Pattern counts near Alaska's proportions, scaled to about ``total`` ballots."""
    weights = {k: v * rng.uniform(0.9, 1.1) for k, v in _ALASKA.items()}
    scale = total / sum(weights.values())
    counts: dict[str, int] = {}
    for key, w in weights.items():
        names = [SWEEP_ROLES[r] for r in key[1:]]
        if key[0] == "bullet":
            tok = f"bullet:{names[0]}"
        elif key[0] == "full":
            tok = f"full:{names[0]}>{names[1]}"
        elif key[0] == "over2":
            a, b = sorted(names, key=SWEEP_ROSTER.index)
            tok = f"over2:{a}+{b}"
        else:
            tok = "over3:" + "+".join(SWEEP_ROSTER)
        counts[tok] = round(w * scale)
    return counts


def condensed_bytes(counts: dict[str, int]) -> bytes:
    return ("pattern,count\n" + "".join(f"{k},{v}\n" for k, v in counts.items())).encode()


def raw_bytes(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode()


def describe(doc: dict, data: bytes) -> dict:
    """Ballots, distinct rank grids (marks as sets per rank) and bytes of one CVR."""
    grids = {tuple(frozenset(r) for r in b) for b in doc["ballots"]}
    n = len(doc["ballots"])
    return {"ballots": n, "distinct_grids": len(grids), "bytes": len(data),
            "repeated_share": 1 - len(grids) / n if n else 0.0}
