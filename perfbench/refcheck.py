"""Per-ballot reference results for checking ballotlab's command output.

This module shares no code with ``src/ballotlab``.  It re-derives every
figure from the input file itself: raw ballots are normalized one at a
time by the README's rules, IRV runs over full rankings (every
preference a ballot expresses, not just the first two), and the
approval/STAR models are evaluated from integer pattern counts.
``expect`` returns the rows a command should print, as strings, so
``check`` is an exact comparison with the parsed output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

WRITE_IN = "WRITEIN:"


class NoReference(Exception):
    """The reference itself cannot produce a result (e.g. a decisive tie)."""


@dataclass
class Electorate:
    """Ballots normalized per the README.

    ``rankings`` counts valid ballots by their full preference order (a
    single top choice followed by every later distinct choice, stopping
    at a later-rank overvote); ``over2`` counts two-way top overvotes
    and ``over_all`` all-way ones.
    """

    roster: tuple[str, ...]
    rankings: Counter = field(default_factory=Counter)
    over2: Counter = field(default_factory=Counter)
    over_all: int = 0
    blank: int = 0

    @property
    def ballots(self) -> int:
        return sum(self.rankings.values()) + sum(self.over2.values()) + self.over_all + self.blank

    def pairs(self) -> list[tuple[str, str]]:
        r = self.roster
        return [(r[i], r[j]) for i in range(len(r)) for j in range(i + 1, len(r))]

    def groups(self) -> list[tuple[str, str]]:
        return [(a, b) for a in self.roster for b in self.roster if a != b]

    def patterns(self) -> dict[str, int]:
        """Condensed-pattern counts (the README's ``pattern,count`` rows)."""
        out: Counter = Counter()
        for ranking, n in self.rankings.items():
            key = f"bullet:{ranking[0]}" if len(ranking) == 1 else f"full:{ranking[0]}>{ranking[1]}"
            out[key] += n
        for pair, n in self.over2.items():
            a, b = sorted(pair, key=self.roster.index)
            out[f"over2:{a}+{b}"] += n
        if self.over_all:
            out["over3:" + "+".join(self.roster)] += self.over_all
        if self.blank:
            out["blank"] += self.blank
        return {k: v for k, v in out.items() if v}

    def full(self, a: str, b: str) -> int:
        return sum(n for r, n in self.rankings.items() if len(r) >= 2 and r[0] == a and r[1] == b)


def normalize(ballot: list[list[str]], roster: tuple[str, ...]):
    """One raw ballot -> ``("rank", order) | ("over2", pair) | ("all",) | ("blank",)``."""
    everyone = set(roster)
    ranks = []
    for marks in ballot:
        kept = {m for m in marks if not m.startswith(WRITE_IN)}
        if kept - everyone:
            raise ValueError(f"unknown mark in {ballot!r}")
        if kept:
            ranks.append(kept)
    if not ranks:
        return ("blank",)
    top = ranks[0]
    if len(top) >= 2 and top == everyone:
        return ("all",)
    if len(top) == 2:
        return ("over2", frozenset(top))
    if len(top) > 2:
        raise ValueError(f"partial top overvote in {ballot!r}")
    order = [next(iter(top))]
    for marks in ranks[1:]:
        new = marks - set(order)
        if not new:
            continue
        if len(new) > 1:
            break
        order.append(next(iter(new)))
    return ("rank", tuple(order))


def from_raw(data: bytes) -> Electorate:
    doc = json.loads(data)
    roster = tuple(doc["candidates"])
    e = Electorate(roster)
    for ballot in doc["ballots"]:
        kind = normalize(ballot, roster)
        if kind[0] == "rank":
            e.rankings[kind[1]] += 1
        elif kind[0] == "over2":
            e.over2[kind[1]] += 1
        elif kind[0] == "all":
            e.over_all += 1
        else:
            e.blank += 1
    return e


def parse_patterns(text: str) -> tuple[tuple[str, ...], dict[str, int]]:
    """Read a ``pattern,count`` file; returns roster (first appearance) and counts."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "pattern,count":
        raise ValueError("missing pattern,count header")
    roster: list[str] = []
    counts: dict[str, int] = {}
    for line in lines[1:]:
        token, count = line.split(",")
        if token in counts:
            raise ValueError(f"duplicate pattern {token!r}")
        counts[token] = int(count)
        if token != "blank":
            for name in re.split(r"[>+]", token.split(":", 1)[1]):
                if name not in roster:
                    roster.append(name)
    return tuple(roster), {k: v for k, v in counts.items() if v}


def from_condensed(data: bytes) -> Electorate:
    roster, counts = parse_patterns(data.decode())
    e = Electorate(roster)
    for token, n in counts.items():
        kind, _, rest = token.partition(":")
        if kind == "bullet":
            e.rankings[(rest,)] += n
        elif kind == "full":
            e.rankings[tuple(rest.split(">"))] += n
        elif kind == "over2":
            e.over2[frozenset(rest.split("+"))] += n
        elif kind == "over3":
            e.over_all += n
        elif token == "blank":
            e.blank += n
        else:
            raise ValueError(f"unknown pattern {token!r}")
    return e


# -- rendering (the README's display rules, implemented independently) ---


def dec(value: Fraction, places: int) -> str:
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    num = abs(value.numerator) * 10**places
    units, rem = divmod(num, value.denominator)
    if 2 * rem >= value.denominator:
        units += 1
    if places == 0:
        return f"{sign}{units}"
    s = str(units).rjust(places + 1, "0")
    return f"{sign}{s[:-places]}.{s[-places:]}"


def pct(value: Fraction) -> str:
    return dec(Fraction(value) * 100, 2) + "%"


def token(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def cell(value, kind: str, machine: bool) -> str:
    """Render one value the way a table (``machine=False``) or csv would."""
    if isinstance(value, str):
        return value
    if machine or kind in ("int", "text"):
        return token(value)
    if kind == "percent":
        return pct(value)
    return dec(value, int(kind[len("decimal"):]))


# -- models --------------------------------------------------------------


@dataclass
class IrvRound:
    index: int
    tallies: dict[str, int]
    active: int
    transfers: dict[str, int]
    exhausted: int
    eliminated: str | None


def irv(e: Electorate) -> tuple[list[IrvRound], str]:
    """Full-ranking IRV: a ballot moves to its next continuing choice at any depth."""
    continuing = list(e.roster)
    rounds: list[IrvRound] = []
    transfers: dict[str, int] = {}
    exhausted = 0
    while True:
        tallies = {c: 0 for c in continuing}
        for ranking, n in e.rankings.items():
            top = next((c for c in ranking if c in tallies), None)
            if top is not None:
                tallies[top] += n
        active = sum(tallies.values())
        if active == 0:
            raise NoReference("every ballot exhausted")
        leader = max(continuing, key=tallies.__getitem__)
        if 2 * tallies[leader] > active:
            rounds.append(IrvRound(len(rounds) + 1, tallies, active, transfers, exhausted, None))
            return rounds, leader
        low = min(tallies.values())
        tied = [c for c in continuing if tallies[c] == low]
        if len(tied) > 1:
            raise NoReference(f"elimination tie {tied}")
        loser = tied[0]
        rounds.append(IrvRound(len(rounds) + 1, tallies, active, transfers, exhausted, loser))
        rest = [c for c in continuing if c != loser]
        transfers, exhausted = {}, 0
        for ranking, n in e.rankings.items():
            if next((c for c in ranking if c in continuing), None) != loser:
                continue
            target = next((c for c in ranking if c in rest), None)
            if target is None:
                exhausted += n
            else:
                transfers[target] = transfers.get(target, 0) + n
        continuing = rest


def pairwise(e: Electorate, include_ties: bool):
    """``(prefers, no_preference, total)`` from every ballot's full order."""
    basis = [({c: i for i, c in enumerate(r)}, n) for r, n in e.rankings.items()]
    if include_ties:
        basis += [({c: 0 for c in pair}, n) for pair, n in e.over2.items()]
    prefers: dict[tuple[str, str], int] = {}
    neither: dict[tuple[str, str], int] = {}
    for a, b in e.pairs():
        ab = ba = tie = 0
        for pos, n in basis:
            ra, rb = pos.get(a), pos.get(b)
            if ra is not None and (rb is None or ra < rb):
                ab += n
            elif rb is not None and (ra is None or rb < ra):
                ba += n
            else:
                tie += n
        prefers[(a, b)], prefers[(b, a)], neither[(a, b)] = ab, ba, tie
    return prefers, neither, sum(n for _, n in basis)


def share(prefers, a, b) -> Fraction | None:
    two_way = prefers[(a, b)] + prefers[(b, a)]
    return Fraction(prefers[(a, b)], two_way) if two_way else None


def condorcet(e: Electorate):
    prefers, _, _ = pairwise(e, False)
    winner = loser = None
    for c in e.roster:
        others = [x for x in e.roster if x != c]
        if all(prefers[(c, x)] > prefers[(x, c)] for x in others):
            winner = c
        if all(prefers[(x, c)] > prefers[(c, x)] for x in others):
            loser = c
    return winner, loser, prefers


def first_places(e: Electorate) -> dict[str, int]:
    """First choices with two-way top overvotes counted for both members."""
    base = {c: 0 for c in e.roster}
    for r, n in e.rankings.items():
        base[r[0]] += n
    for pair, n in e.over2.items():
        for c in pair:
            base[c] += n
    return base


def seconds(e: Electorate) -> dict[str, int]:
    out = {c: 0 for c in e.roster}
    for r, n in e.rankings.items():
        if len(r) >= 2:
            out[r[1]] += n
    return out


def top(scores: dict[str, Fraction], roster) -> tuple[str, ...]:
    best = max(scores.values())
    return tuple(c for c in roster if scores[c] == best)


def approval(e: Electorate, rates: dict[tuple[str, str], Fraction]):
    scores = {c: Fraction(n) for c, n in first_places(e).items()}
    extra = Fraction(0)
    for (a, b), p in rates.items():
        n = e.full(a, b)
        scores[b] += p * n
        extra += p * n
    rankers = sum(n for r, n in e.rankings.items() if len(r) >= 2)
    participating = sum(e.rankings.values()) + sum(e.over2.values())
    mean_rankers = 1 + extra / rankers if rankers else Fraction(1)
    mean_all = sum(scores.values()) / participating if participating else Fraction(0)
    return scores, top(scores, e.roster), mean_rankers, mean_all


def approval_threshold(e: Electorate, riser: str, leader: str) -> Fraction | None:
    base, slope = first_places(e), seconds(e)
    gap = base[leader] - base[riser]
    if gap <= 0:
        return Fraction(0)
    rise = slope[riser] - slope[leader]
    if rise <= 0 or gap > rise:
        return None
    return Fraction(gap, rise)


def approval_sweep_winners(e: Electorate, start: Fraction, end: Fraction, step: Fraction):
    """Winners at each grid point, by integer comparison of affine scores."""
    base, slope = first_places(e), seconds(e)
    out = []
    k = 0
    while (p := start + k * step) <= end:
        scaled = {c: base[c] * p.denominator + slope[c] * p.numerator for c in e.roster}
        best = max(scaled.values())
        out.append((p, tuple(c for c in e.roster if scaled[c] == best)))
        k += 1
    return out


def star_scores(e: Electorate, stars: dict[tuple[str, str], Fraction]) -> dict[str, Fraction]:
    scores = {c: Fraction(5 * n) for c, n in first_places(e).items()}
    for (a, b), s in stars.items():
        scores[b] += s * e.full(a, b)
    return scores


def star_runoff(e: Electorate, stars, x: str, y: str):
    """Ballot-by-ballot comparison of two candidates' stars."""
    vx = vy = tie = 0
    ballots = []
    for r, n in e.rankings.items():
        score = {r[0]: Fraction(5)}
        if len(r) >= 2:
            score[r[1]] = stars[(r[0], r[1])]
        ballots.append((score, n))
    ballots += [({c: Fraction(5) for c in pair}, n) for pair, n in e.over2.items()]
    for score, n in ballots:
        sx, sy = score.get(x, 0), score.get(y, 0)
        if sx > sy:
            vx += n
        elif sy > sx:
            vy += n
        elif sx > 0:
            tie += n
    return vx, vy, tie


def star(e: Electorate, stars):
    scores = star_scores(e, stars)
    order = sorted(e.roster, key=lambda c: -scores[c])
    if len(order) == 2:
        final = set(order)
    elif scores[order[1]] > scores[order[2]]:
        final = set(order[:2])
    elif scores[order[0]] > scores[order[1]]:
        x, y = order[1], order[2]
        vx, vy, _ = star_runoff(e, stars, x, y)
        if vx == vy:
            raise NoReference("second finalist tie")
        final = {order[0], x if vx > vy else y}
    else:
        raise NoReference("three-way score tie")
    a, b = (c for c in e.roster if c in final)
    va, vb, tie = star_runoff(e, stars, a, b)
    winners = (a,) if va > vb else (b,) if vb > va else (a, b)
    return scores, (a, b), va, vb, tie, winners


def star_threshold(e: Electorate, guaranteed: str, rival: str):
    base = {c: 5 * n for c, n in first_places(e).items()}
    slope = seconds(e)
    rival_max = base[rival] + 4 * slope[rival]
    for h in range(100, 401):
        s = Fraction(h, 100)
        achieved = base[guaranteed] + s * slope[guaranteed]
        if achieved > rival_max:
            return s, achieved, rival_max
    return None


# -- expected command output ---------------------------------------------


@dataclass
class Expected:
    """What one command run must produce.

    ``title`` is a table's first line; ``rows`` are rendered cells;
    ``notes`` are the table footer lines before the provenance line,
    which is checked separately; ``ingest`` holds the pattern counts an
    ``ingest`` output file must carry.
    """

    title: str | None = None
    header: list[str] | None = None
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    ingest: dict[str, int] | None = None


def _rates(e: Electorate, uniform: str | None, groups: list[str], default: Fraction):
    rates = {g: default for g in e.groups()}
    if uniform is not None:
        rates = {g: Fraction(uniform) for g in e.groups()}
    for spec in groups:
        head, _, value = spec.partition("=")
        a, _, b = head.partition(">")
        rates[(a, b)] = Fraction(value)
    return rates


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _flags(argv: list[str], name: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == name]


def _grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    a, b, c = (Fraction(x) for x in text.split(":"))
    return a, b, c


# Table titles, keyed like the commands in ``expect``.
TITLES = {
    "irv": "Instant-runoff rounds",
    "condorcet": "Condorcet analysis (ranked-only)",
    "squeeze": "Center-squeeze diagnostic",
    "approval range": "Approval voting: possible vote ranges",
    "approval eval": "Approval voting: scenario outcome",
    "approval threshold": "Approval voting: uniform crossover threshold",
    "approval clinch": "Approval voting: clinch requirement",
    "approval sweep": "Approval voting: uniform-rate sweep",
    "star range": "STAR voting: possible score ranges",
    "star eval": "STAR voting: scenario outcome",
    "star threshold": "STAR voting: guaranteed-berth threshold",
    "star sweep": "STAR voting: uniform-rating sweep",
}


def expect(e: Electorate, argv: list[str]) -> Expected:
    """Expected output of ``ballotlab <argv>`` on electorate ``e``."""
    machine = _flag(argv, "--format", "table") != "table"
    cmd = argv[0] if argv[0] not in ("approval", "star") else f"{argv[0]} {argv[1]}"
    x = Expected(title=TITLES.get(cmd))

    def rows(header, kinds, data):
        x.header = header
        x.rows = [[cell(v, k, machine) for v, k in zip(row, kinds)] for row in data]

    if cmd == "ingest":
        x.ingest = e.patterns()
    elif cmd == "irv":
        rounds, winner = irv(e)
        first = rounds[0].active
        data = []
        for rnd in rounds:
            for c in e.roster:
                if c not in rnd.tallies:
                    continue
                status = ("eliminated" if rnd.eliminated == c
                          else "winner" if rnd.eliminated is None and c == winner else "continuing")
                data.append([rnd.index, c, rnd.tallies[c], Fraction(rnd.tallies[c], rnd.active),
                             Fraction(rnd.tallies[c], first), rnd.transfers.get(c, 0),
                             rnd.exhausted, rnd.active, status])
        rows(["round", "candidate", "votes", "share_active", "share_round1", "transfers_in",
              "exhausted_this_round", "active_ballots", "status"],
             ["int", "text", "int", "percent", "percent", "int", "int", "int", "text"], data)
        last = rounds[-1]
        x.notes = [
            f"winner: {winner} with {dec(Fraction(last.tallies[winner] * 100, last.active), 2)}% "
            f"of round-{last.index} active ballots",
            f"invalid overvote ballots excluded: {sum(e.over2.values()) + e.over_all}",
        ]
    elif cmd == "pairwise":
        basis = _flag(argv, "--basis", "ranked-only")
        ties = basis == "include-ties"
        x.title = f"Head-to-head tallies ({basis})"
        prefers, neither, total = pairwise(e, ties)
        data = [[a, b, prefers[(a, b)], prefers[(b, a)], neither[(a, b)],
                 share(prefers, a, b), share(prefers, b, a)] for a, b in e.pairs()]
        rows(["candidate_a", "candidate_b", "prefers_a", "prefers_b", "no_preference",
              "share_a", "share_b"], ["text", "text", "int", "int", "int", "percent", "percent"], data)
        x.notes = [f"ballots in basis: {total}"]
    elif cmd == "condorcet":
        winner, loser, prefers = condorcet(e)
        data = [["condorcet_winner", winner or "(none)"], ["condorcet_loser", loser or "(none)"]]
        for a, b in e.pairs():
            for p, q in ((a, b), (b, a)):
                s = share(prefers, p, q)
                if s is not None:
                    data.append([f"share {p} vs {q}", (s, "percent")])
        _item_rows(x, data, machine)
    elif cmd == "squeeze":
        winner, _, _ = condorcet(e)
        rounds, irv_winner = irv(e)
        out = next((r.index for r in rounds if winner is not None and r.eliminated == winner), None)
        _item_rows(x, [["squeezed", "true" if out is not None else "false"],
                       ["condorcet_winner", winner or "(none)"], ["irv_winner", irv_winner],
                       ["condorcet_winner_eliminated_in_round",
                        (out, "int") if out is not None else "(never)"]], machine)
    elif cmd in ("approval range", "star range"):
        base, slope = first_places(e), seconds(e)
        if cmd == "star range":
            lo = {c: 5 * base[c] + slope[c] for c in e.roster}
            hi = {c: 5 * base[c] + 4 * slope[c] for c in e.roster}
        else:
            lo = dict(base)
            hi = {c: base[c] + slope[c] for c in e.roster}
        if "--plot-data" in argv:
            span = 3 if cmd == "star range" else 1
            x.header = ["candidate", "segment", "source", "value"]
            for c in e.roster:
                x.rows.append([c, "base", "", str(lo[c])])
                x.rows += [[c, "potential", r, str(span * e.full(r, c))] for r in e.roster if r != c]
        else:
            rows(["candidate", "min", "max"], ["text", "int", "int"],
                 [[c, lo[c], hi[c]] for c in e.roster])
    elif cmd == "approval eval":
        rates = _rates(e, _flag(argv, "--p"), _flags(argv, "--p-group"), Fraction(0))
        scores, winners, mr, ma = approval(e, rates)
        _item_rows(x, [[f"score {c}", (scores[c], "decimal2")] for c in e.roster]
                   + [["winner", "|".join(winners)],
                      ["mean_approvals_ranking_voters", (mr, "decimal3")],
                      ["mean_approvals_all_voters", (ma, "decimal3")]], machine)
    elif cmd == "approval threshold":
        riser, leader = _flag(argv, "--riser"), _flag(argv, "--leader")
        p = approval_threshold(e, riser, leader)
        if p is None:
            raise NoReference("threshold unattainable")
        _, _, mr, ma = approval(e, {g: p for g in e.groups()})
        _item_rows(x, [["riser", riser], ["leader", leader], ["threshold_p", (p, "decimal4")],
                       ["mean_approvals_ranking_voters", (mr, "decimal3")],
                       ["mean_approvals_all_voters", (ma, "decimal3")]], machine)
        x.notes = [f"p* = {token(p)} ≈ {dec(p, 4)} (≈ {dec(mr, 3)} approvals per ranking voter)"]
    elif cmd == "approval clinch":
        cand = _flag(argv, "--candidate")
        a, _, b = _flag(argv, "--group").partition(">")
        base, slope = first_places(e), seconds(e)
        best_rival = max(base[c] + slope[c] for c in e.roster if c != cand)
        needed = max(best_rival - base[cand] + 1, 0)
        if needed > e.full(a, b):
            raise NoReference("clinch unattainable")
        _item_rows(x, [["candidate", cand], ["group", f"{a}>{b}"],
                       ["group_size", (e.full(a, b), "int")], ["required_votes", (needed, "int")],
                       ["guaranteed_total", (base[cand] + needed, "int")],
                       ["best_rival_maximum", (best_rival, "int")]], machine)
    elif cmd == "approval sweep":
        start, end, step = _grid(_flag(argv, "--grid", "0:1:0.01"))
        rows(["p", "winner"], ["decimal4", "text"],
             [[p, "|".join(w)] for p, w in approval_sweep_winners(e, start, end, step)])
    elif cmd == "star eval":
        stars = _rates(e, _flag(argv, "--s"), _flags(argv, "--s-group"), Fraction(1))
        scores, final, va, vb, tie, winners = star(e, stars)
        a, b = final
        _item_rows(x, [[f"score {c}", (scores[c], "decimal2")] for c in e.roster]
                   + [["finalists", f"{a}|{b}"], [f"runoff {a}", (va, "int")],
                      [f"runoff {b}", (vb, "int")], ["runoff_no_preference", (tie, "int")],
                      ["winner", "|".join(winners)]], machine)
    elif cmd == "star threshold":
        g, r = _flag(argv, "--guaranteed"), _flag(argv, "--rival")
        found = star_threshold(e, g, r)
        if found is None:
            raise NoReference("star threshold unattainable")
        s, achieved, rival_max = found
        _item_rows(x, [["guaranteed", g], ["rival", r], ["threshold_stars", (s, "decimal2")],
                       ["achieved_score", (achieved, "decimal2")],
                       ["rival_maximum", (rival_max, "int")]], machine)
        x.notes = [f"s = {dec(s, 2)} → score {dec(achieved, 2)} > rival maximum {rival_max}"]
    elif cmd == "star sweep":
        start, end, step = _grid(_flag(argv, "--grid", "1:4:0.01"))
        data = []
        k = 0
        while (s := start + k * step) <= end:
            data.append([s, "|".join(star(e, {g: s for g in e.groups()})[5])])
            k += 1
        rows(["s", "winner"], ["decimal2", "text"], data)
    else:
        raise ValueError(f"no reference for {cmd!r}")
    if machine:
        x.notes = []
    return x


def _item_rows(x: Expected, data, machine: bool) -> None:
    x.header = ["item", "value"]
    for item, value in data:
        if isinstance(value, tuple):
            value = cell(value[0], value[1], machine)
        x.rows.append([item, cell(value, "text", machine)])


# -- comparing ------------------------------------------------------------


def parse_output(text: str, machine: bool, n_rows: int):
    """Split command output into ``(title, header, rows, footer)``.

    A table's footer is every line after its first ``n_rows`` body rows,
    so a surplus row lands in the footer and fails the footer check.
    """
    if machine:
        rows = list(csv.reader(io.StringIO(text)))
        return None, rows[0], rows[1:], []
    lines = text.rstrip("\n").split("\n")
    split = lambda line: re.split(r"\s{2,}", line.strip())  # noqa: E731
    body = [split(line) for line in lines[3:3 + n_rows]]
    return lines[0], split(lines[1]), body, lines[3 + n_rows:]


def check(x: Expected, argv: list[str], stdout: bytes, out_file: bytes | None,
          input_data: bytes) -> list[str]:
    """Differences between one command's output and the reference; empty if none."""
    if x.ingest is not None:
        try:
            _, got = parse_patterns((out_file or b"").decode())
        except ValueError as exc:
            return [f"ingest output unreadable: {exc}"]
        if got != x.ingest:
            diff = sorted(k for k in set(got) | set(x.ingest) if got.get(k) != x.ingest.get(k))
            return [f"pattern {k}: got {got.get(k, 0)}, expected {x.ingest.get(k, 0)}" for k in diff[:5]]
        return []
    text = (out_file if out_file is not None else stdout).decode()
    machine = _flag(argv, "--format", "table") != "table" or "--plot-data" in argv
    try:
        title, header, body, footer = parse_output(text, machine, len(x.rows))
    except IndexError:
        return [f"output too short to read: {text[:80]!r}"]
    errors = []
    if not machine and title != x.title:
        errors.append(f"title {title!r} != {x.title!r}")
    if header != x.header:
        errors.append(f"header {header!r} != {x.header!r}")
    if len(body) != len(x.rows):
        errors.append(f"{len(body)} rows, expected {len(x.rows)}")
    for i, (got, want) in enumerate(zip(body, x.rows)):
        if got != want:
            errors.append(f"row {i}: {got!r} != {want!r}")
            break
    if not machine:
        if footer[:-1] != x.notes:
            errors.append(f"footer {footer[:-1]!r} != {x.notes!r}")
        digest = hashlib.sha256(input_data).hexdigest()
        if not footer or not footer[-1].startswith(f"# input sha256={digest} "):
            errors.append("provenance footer missing or wrong input digest")
    return errors
