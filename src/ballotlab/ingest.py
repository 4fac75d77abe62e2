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

The command line reads a raw document in one pass (:func:`ingest_raw`);
the library's :func:`parse_raw` then :func:`ingest` give the same profile
through the same checks and the same per-grid tail.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from functools import wraps

from .core import (
    CondensedProfile,
    Full,
    RankedBallot,
    Record,
    classification_roster,
    classify_ballot,
    condense_weighted,
    is_write_in,
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


def _gc_paused(read):
    """``read`` with the cyclic garbage collector paused, then restored:
    decoded JSON is a tree, freed before the collector resumes, so rescanning
    its lists would find nothing."""
    @wraps(read)
    def paused(data: bytes):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return read(data)
        finally:
            if enabled:
                gc.enable()
    return paused


@_gc_paused
def parse_raw(data: bytes) -> RawCvrDocument:
    """Parse and structurally validate a raw CVR document: the checks and
    errors of :func:`ingest_raw`, keeping one ballot per voter.  Voters with
    the same grid share one :class:`RankedBallot`."""
    roster, raw_ballots = _document(data)
    ballots: dict[tuple[frozenset[str], ...], RankedBallot] = {}  # one per distinct grid
    grids = _grids(raw_ballots, frozenset(roster), lambda marks: marks,
                   lambda ranks: ballots.setdefault(ranks, RankedBallot(ranks)))
    return RawCvrDocument(candidates=roster, ballots=tuple(grids))


@_gc_paused
def ingest_raw(data: bytes) -> tuple[CondensedProfile, int]:
    """``ingest_counting_truncated(parse_raw(data))`` in one pass over the ballots.

    Each rank's raw marks map once to their roster-only mark set, and each
    ballot is counted under its roster-only grid; no per-voter ballot is
    kept.  ``classify_ballot`` runs only after every ballot passed the checks
    of :func:`_grids`, so a parse error comes ahead of a classification error.
    """
    roster, raw_ballots = _document(data)
    roster_set = frozenset(roster)
    kept: dict[frozenset[str], frozenset[str]] = {}  # one shared set per roster-only mark set

    def roster_only(marks: frozenset[str]) -> frozenset[str]:
        marks &= roster_set
        return kept.setdefault(marks, marks)

    return _tally(Counter(_grids(raw_ballots, roster_set, roster_only,
                                 _compressor(len(roster)))).items(), roster)


def _fields(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object's fields; a repeated field raises ``ParseError``."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        ((name, _),) = Counter(name for name, _ in pairs).most_common(1)
        raise ParseError(f"raw document repeats field {name!r}")
    return fields


def _document(data: bytes) -> tuple[tuple[str, ...], list]:
    """Decode a raw CVR and check its fields and roster: the roster, the raw ballots."""
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

    if not isinstance(doc["ballots"], list):
        raise ParseError("'ballots' must be an array")
    return roster, doc["ballots"]


def _grids(raw_ballots: list, roster_set: frozenset[str], rank_marks, grid_of):
    """Check each raw ballot in file order and yield its grid: ``grid_of`` the
    tuple of ``rank_marks(marks)`` over each rank's mark set.

    Every ballot is checked for being an array with the first ballot's rank
    count.  The per-rank checks run only where the raw marks are new: a
    ballot repeating an earlier ballot's raw marks yields its grid, and a
    rank repeating an earlier rank's raw marks reuses their ``rank_marks``.
    What is reused passed the checks at its first occurrence, so an error
    still names the first offending ballot and rank.
    """
    # checked: raw-mark key of a ballot that passed the checks -> its grid.
    # ranks_seen: raw marks of a rank that passed them -> rank_marks of their set.
    checked: dict[tuple, object] = {}
    ranks_seen: dict[tuple[str, ...], frozenset[str]] = {}
    rank_positions: int | None = None
    for i, raw_ballot in enumerate(raw_ballots):
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
        # and fails the checks in _check_rank.
        try:
            key = (*map(tuple, raw_ballot), *map(type, raw_ballot))
            grid = checked.get(key)
        except TypeError:
            key = grid = None
        if grid is None:
            ranks = []
            for j, raw_rank in enumerate(raw_ballot):
                marks = (ranks_seen.get(key[j]) if key is not None and isinstance(raw_rank, list)
                         else None)
                if marks is None:
                    marks = ranks_seen[tuple(raw_rank)] = rank_marks(
                        _check_rank(i, j, raw_rank, roster_set))
                ranks.append(marks)
            grid = grid_of(tuple(ranks))
            if key is not None:
                checked[key] = grid
        yield grid


def _check_rank(i: int, j: int, raw_rank: object, roster_set: frozenset[str]) -> frozenset[str]:
    """Ballot ``i``'s rank ``j + 1``, checked: its mark set.  Roster names are
    strings, so only the marks off the roster (one set difference) are tested
    for their type and the write-in prefix."""
    try:
        marks = frozenset(raw_rank) if isinstance(raw_rank, list) else None
    except TypeError:  # an array or object mark
        marks = None
    if marks is not None:
        unknown = [m for m in marks - roster_set if not (isinstance(m, str) and is_write_in(m))]
        if not unknown:
            return marks
        if all(isinstance(m, str) for m in unknown):
            mark = next(m for m in raw_rank if m in unknown)  # the first in rank order
            raise ParseError(f"ballot {i} rank {j + 1}: mark {mark!r} names no roster candidate")
    raise ParseError(f"ballot {i} rank {j + 1} must be an array of mark strings")


def _compressor(size: int):
    """Drops a grid's empty ranks.  A grid of more than ``size`` ranks stays
    whole, for ``classify_ballot`` to reject by its rank count."""
    return lambda ranks: ranks if len(ranks) > size else tuple(filter(None, ranks))


def ingest(doc: RawCvrDocument) -> CondensedProfile:
    """Condense a raw CVR.  ``classify_ballot`` runs once per distinct
    roster-only grid (write-ins dropped, empty ranks removed), in order of
    first appearance, so an error is the first offending ballot's."""
    return ingest_counting_truncated(doc)[0]


def ingest_counting_truncated(doc: RawCvrDocument) -> tuple[CondensedProfile, int]:
    """:func:`ingest`'s profile and its number of truncated ballots: with 4 or
    more candidates, those whose roster-only grid names a third candidate after
    the rank that supplied the second choice, a choice the profile drops."""
    roster_set = classification_roster(tuple(doc.candidates)) if doc.ballots else frozenset()
    reduced = _WithoutWriteIns(roster_set)
    compressed = _compressor(len(roster_set))
    ballots = dict(zip(map(id, doc.ballots), doc.ballots))
    return _tally(((compressed(tuple(map(reduced.__getitem__, ballots[key].ranks))), n)
                   for key, n in Counter(map(id, doc.ballots)).items()), doc.candidates)


class _WithoutWriteIns(dict):
    """Rank mark set -> the set without its write-ins, one shared set per
    distinct result.  A mark that is neither a roster name nor a write-in
    stays, for ``classify_ballot`` to name."""

    def __init__(self, roster_set: frozenset[str]) -> None:
        self.roster_set = roster_set

    def __missing__(self, marks: frozenset[str]) -> frozenset[str]:
        kept = marks.difference(filter(is_write_in, marks - self.roster_set))
        return self.setdefault(marks, self.setdefault(kept, kept))


def _tally(weighted, roster: tuple[str, ...]) -> tuple[CondensedProfile, int]:
    """Profile and truncated-ballot count of ``(roster-only grid, ballots)``
    pairs, a grid possibly in several.  ``classify_ballot`` runs once per
    distinct grid, in order of first appearance, as the pairs are read."""
    classes, weights = {}, {}  # roster-only grid -> its class, its number of ballots
    for grid, n in weighted:
        if grid not in classes:
            classes[grid] = classify_ballot(RankedBallot(grid), roster)
        weights[grid] = weights.get(grid, 0) + n
    profile = condense_weighted(((classes[g], n) for g, n in weights.items()), roster)
    # A Full's ranks up to its second choice name only those two: a third name comes later.
    return profile, sum(n for g, n in weights.items() if len(roster) > 3
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
