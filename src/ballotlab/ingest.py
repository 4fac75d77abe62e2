"""Reading and writing ballot files.

Two formats are supported:

* **Raw cast-vote-record document** -- a UTF-8 JSON object
  ``{"candidates": [...], "ballots": [[["A"], ["B"], []], ...]}`` where
  each ballot is an array of rank positions and each rank position an
  array of mark strings.  Write-in marks carry the ``WRITEIN:`` prefix.

* **Condensed profile file** -- UTF-8 CSV with header ``pattern,count``
  and one row per preference pattern: ``bullet:<C>``, ``full:<C1>><C2>``,
  ``over2:<C1>+<C2>``, ``over3:<C1>+...+<Cn>`` (the whole roster), and
  ``blank``.  Missing patterns read as zero.  Candidate names must not
  contain ``,``, ``>`` or ``+``.
"""

from __future__ import annotations

import gc
import json
from collections import Counter

from .core import (
    CondensedProfile,
    Full,
    RankedBallot,
    Record,
    classification_roster,
    classify_ballot,
    condense_weighted,
    is_write_in,
    roster_marks,
    validate_roster,
)
from .errors import ParseError

MAX_COUNT = 2**63 - 1  # counts must fit a 64-bit signed integer

_RESERVED = (",", ">", "+")


class RawCvrDocument(Record):
    """A parsed raw cast-vote-record: roster plus one ballot per voter.

    Ballots with identical rank grids (the same mark set at every rank)
    share one :class:`RankedBallot` instance, so ``ballots`` holds one
    entry per voter in file order but only one object per distinct grid.
    """

    candidates: tuple[str, ...]
    ballots: tuple[RankedBallot, ...]


def parse_raw(data: bytes) -> RawCvrDocument:
    """Parse and structurally validate a raw CVR document.

    Every ballot is checked for being an array with the first ballot's
    rank count.  The per-rank checks run only where the raw marks are new:
    a ballot repeating an earlier ballot's marks reuses its
    :class:`RankedBallot`, and a rank repeating an earlier rank's marks
    reuses its mark set.  What is reused passed the checks at its first
    occurrence, so an error still names the first offending ballot and
    rank.

    The cyclic garbage collector is paused meanwhile, then restored: decoded
    JSON is a tree, freed before the collector resumes, so rescanning its
    lists would find nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_raw(data)
    finally:
        if enabled:
            gc.enable()


def _fields(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object's fields; a repeated field raises ``ParseError``."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        ((name, _),) = Counter(name for name, _ in pairs).most_common(1)
        raise ParseError(f"raw document repeats field {name!r}")
    return fields


def _parse_raw(data: bytes) -> RawCvrDocument:
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_fields)
    except UnicodeDecodeError as exc:
        raise ParseError(f"raw document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"raw document syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    if not isinstance(doc, dict):
        raise ParseError("raw document must be a JSON object")
    unknown = set(doc) - {"candidates", "ballots"}
    if unknown:
        raise ParseError(f"raw document has unknown field {sorted(unknown)[0]!r}")
    if "candidates" not in doc or "ballots" not in doc:
        raise ParseError("raw document needs both 'candidates' and 'ballots'")

    if not isinstance(doc["candidates"], list) or not all(
        isinstance(c, str) for c in doc["candidates"]
    ):
        raise ParseError("'candidates' must be an array of strings")
    try:
        roster = validate_roster(doc["candidates"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    roster_set = frozenset(roster)

    if not isinstance(doc["ballots"], list):
        raise ParseError("'ballots' must be an array")
    # checked: raw-mark key of a grid that passed the checks -> its ballot.
    # rank_sets: marks of a rank that passed them -> one shared frozenset.
    # grids: one ballot per distinct grid of mark sets.
    checked: dict[tuple, RankedBallot] = {}
    rank_sets: dict[tuple[str, ...], frozenset[str]] = {}
    grids: dict[RankedBallot, RankedBallot] = {}
    ballots = []
    rank_positions: int | None = None
    for i, raw_ballot in enumerate(doc["ballots"]):
        if not isinstance(raw_ballot, list):
            raise ParseError(f"ballot {i} must be an array of rank positions")
        if rank_positions is None:
            rank_positions = len(raw_ballot)
        elif len(raw_ballot) != rank_positions:
            raise ParseError(
                f"ballot {i} has {len(raw_ballot)} rank positions, expected {rank_positions}"
            )
        # The rank types are part of the key: a string or object rank
        # iterates to the same marks as an array of them.  A rank that is
        # not iterable, or an array or object mark, raises TypeError here
        # and fails the checks in _check_ranks.
        try:
            key = (*map(tuple, raw_ballot), *map(type, raw_ballot))
            ballot = checked.get(key)
        except TypeError:
            key = ballot = None
        if ballot is None:
            ballot = RankedBallot(_check_ranks(i, raw_ballot, key, roster_set, rank_sets))
            ballot = grids.setdefault(ballot, ballot)
            if key is not None:
                checked[key] = ballot
        ballots.append(ballot)
    return RawCvrDocument(candidates=roster, ballots=tuple(ballots))


def _check_ranks(i: int, raw_ballot: list, key: tuple | None, roster_set: frozenset[str],
                 rank_sets: dict[tuple[str, ...], frozenset[str]]) -> tuple[frozenset[str], ...]:
    """Check ballot ``i``'s rank positions and return their mark sets.

    ``key`` is the ballot's raw-mark key, or None if it has none.  A rank
    that is an array whose marks are already in ``rank_sets`` passed the
    checks before and is not checked again.
    """
    ranks = []
    for j, raw_rank in enumerate(raw_ballot):
        marks = rank_sets.get(key[j]) if key is not None and isinstance(raw_rank, list) else None
        if marks is None:
            if not isinstance(raw_rank, list) or not all(isinstance(m, str) for m in raw_rank):
                raise ParseError(f"ballot {i} rank {j + 1} must be an array of mark strings")
            for mark in raw_rank:
                if mark not in roster_set and not is_write_in(mark):
                    raise ParseError(
                        f"ballot {i} rank {j + 1}: mark {mark!r} names no roster candidate")
            marks = rank_sets[tuple(raw_rank)] = frozenset(raw_rank)
        ranks.append(marks)
    return tuple(ranks)


class _RosterMarks(dict):
    """Rank mark set -> its marks on ``roster_set``, one shared set per distinct result."""

    def __missing__(self, marks: frozenset[str]) -> frozenset[str]:
        kept = roster_marks(marks, self.roster_set)
        return self.setdefault(marks, self.setdefault(kept, kept))


def ingest(doc: RawCvrDocument) -> CondensedProfile:
    """Condense a raw CVR.  ``classify_ballot`` runs once per distinct
    roster-only grid (write-ins dropped, empty ranks removed), in order of
    first appearance, so an error is the first offending ballot's."""
    return ingest_counting_truncated(doc)[0]


def ingest_counting_truncated(doc: RawCvrDocument) -> tuple[CondensedProfile, int]:
    """:func:`ingest`'s profile and its number of truncated ballots: with 4 or
    more candidates, those whose roster-only grid names a third candidate after
    the rank that supplied the second choice, a choice the profile drops."""
    roster = doc.candidates
    roster_set = classification_roster(tuple(roster)) if doc.ballots else frozenset()
    reduced = _RosterMarks()
    reduced.roster_set = roster_set
    grids = dict(zip(map(id, doc.ballots), doc.ballots))
    classes, weights = {}, {}  # roster-only grid -> its class, its number of ballots
    for key, n in Counter(map(id, doc.ballots)).items():
        grid = grids[key].ranks
        if len(grid) <= len(roster_set):  # else classify_ballot rejects it whole
            grid = tuple(filter(None, map(reduced.__getitem__, grid)))
        if grid not in classes:
            classes[grid] = classify_ballot(RankedBallot(grid), roster)
        weights[grid] = weights.get(grid, 0) + n
    profile = condense_weighted(((classes[g], n) for g, n in weights.items()), roster)
    # A Full's ranks up to its second choice name only those two: a third name comes later.
    return profile, sum(n for g, n in weights.items() if len(roster_set) > 3
                        and classes[g].__class__ is Full and len(frozenset().union(*g)) > 2)


def _check_name(name: str) -> str:
    for ch in _RESERVED:
        if ch in name:
            raise ParseError(
                f"candidate name {name!r} contains reserved character {ch!r}"
            )
    return name


def _parse_count(text: str, line_no: int) -> int:
    try:
        count = int(text)
    except ValueError as exc:
        raise ParseError(f"line {line_no}: count {text!r} is not an integer") from exc
    if count < 0:
        raise ParseError(f"line {line_no}: count {count} is negative")
    if count > MAX_COUNT:
        raise ParseError(f"line {line_no}: count {count} exceeds 64-bit range")
    return count


def parse_condensed(data: bytes) -> CondensedProfile:
    """Parse a condensed profile file.

    The roster is the candidates' order of first appearance across the
    pattern rows, which matches the order :func:`write_condensed` emits.
    """
    try:
        text = data.decode("utf-8-sig")  # spreadsheet exports often start with a BOM
    except UnicodeDecodeError as exc:
        raise ParseError(f"condensed file is not UTF-8: {exc}") from exc

    lines = text.split("\n")
    if not lines or lines[0].strip() != "pattern,count":
        raise ParseError("condensed file must start with header 'pattern,count'")

    roster: list[str] = []

    def register(name: str) -> str:
        _check_name(name)
        if not name.strip():
            raise ParseError("pattern names an empty candidate")
        if name not in roster:
            roster.append(name)
        return name

    seen: set[str] = set()
    bullet: dict[str, int] = {}
    full: dict[tuple[str, str], int] = {}
    over2: dict[frozenset[str], int] = {}
    over3 = 0
    over3_names: tuple[str, ...] | None = None
    blank = 0

    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"line {line_no}: expected 'pattern,count', got {line!r}")
        token, raw_count = fields
        # A pattern, not its spelling: over2 names a set, and there is one over3.
        key = (frozenset(token[len("over2:"):].split("+")) if token.startswith("over2:")
               else "over3:" if token.startswith("over3:") else token)
        if key in seen:
            raise ParseError(f"line {line_no}: duplicate pattern {token!r}")
        seen.add(key)
        count = _parse_count(raw_count, line_no)

        if token == "blank":
            blank = count
        elif token.startswith("bullet:"):
            bullet[register(token[len("bullet:"):])] = count
        elif token.startswith("full:"):
            parts = token[len("full:"):].split(">")
            if len(parts) != 2 or parts[0] == parts[1]:
                raise ParseError(f"line {line_no}: malformed pattern {token!r}")
            full[(register(parts[0]), register(parts[1]))] = count
        elif token.startswith("over2:"):
            parts = token[len("over2:"):].split("+")
            if len(parts) != 2 or parts[0] == parts[1]:
                raise ParseError(f"line {line_no}: malformed pattern {token!r}")
            over2[frozenset(register(p) for p in parts)] = count
        elif token.startswith("over3:"):
            parts = token[len("over3:"):].split("+")
            if len(parts) < 2 or len(set(parts)) != len(parts):
                raise ParseError(f"line {line_no}: malformed pattern {token!r}")
            over3 = count
            over3_names = tuple(register(p) for p in parts)
        else:
            raise ParseError(f"line {line_no}: unknown pattern {token!r}")

    if over3_names is not None and set(over3_names) != set(roster):
        raise ParseError(
            "all-overvote pattern must list the whole roster, got "
            f"{list(over3_names)!r} with roster {roster!r}"
        )
    try:
        return CondensedProfile(tuple(roster), bullet, full, over2, over3, blank)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_condensed(profile: CondensedProfile) -> bytes:
    """Serialize a profile with every pattern spelled out, roster order.

    ``parse_condensed(write_condensed(p)) == p`` for all profiles.
    """
    for name in profile.candidates:
        _check_name(name)
    lines = ["pattern,count"]
    for c in profile.candidates:
        lines.append(f"bullet:{c},{profile.bullet_count(c)}")
    for first, second in profile.ranking_groups():
        lines.append(f"full:{first}>{second},{profile.full_count(first, second)}")
    for a, b in profile.candidate_pairs():
        lines.append(f"over2:{a}+{b},{profile.over2_count(a, b)}")
    if len(profile.candidates) >= 2:
        lines.append(f"over3:{'+'.join(profile.candidates)},{profile.over3}")
    lines.append(f"blank,{profile.blank_count}")
    return ("\n".join(lines) + "\n").encode("utf-8")
