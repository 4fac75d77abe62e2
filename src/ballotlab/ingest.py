"""Reading and writing ballot files.

Two formats are supported:

* **Raw cast-vote-record document** -- a UTF-8 JSON object (a BOM may
  lead) ``{"candidates": [...], "ballots": [[["A"], ["B"], []], ...]}``
  where each ballot is an array of rank positions and each rank position
  an array of mark strings.  Write-in marks carry the ``WRITEIN:`` prefix.

* **Condensed profile file** -- UTF-8 CSV with header ``pattern,count``
  and one row per preference pattern: ``blank`` or a ``kind:names`` row
  read through one table, ``_PATTERNS``: ``bullet:<C>``,
  ``full:<C1>><C2>``, ``over2:<C1>+<C2>`` and ``over3:<C1>+...+<Cn>``
  (the whole roster).  Missing patterns read as zero.  Candidate names
  must not contain ``,``, ``>``, ``+`` or a line break: LF, CR, VT, FF,
  FS, GS, RS, NEL, LS or PS, each character ``str.splitlines`` splits at.

The command line's one pass (:func:`ingest_raw`) and the library's
:func:`parse_raw` then :func:`ingest` run the same checks, :func:`_grids`:
each ballot's shape, then each distinct raw rank once.  They end in one
tail, :func:`_tally`, whose profile keeps each ranking whole; the
condensed file keeps only its first two names.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from functools import wraps

from .core import (
    CondensedProfile,
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

# The pattern separators, then every character at which ``str.splitlines`` breaks a line.
_RESERVED = (",", ">", "+", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")

# kind -> (name separator, number of names; 0: two or more distinct names)
_PATTERNS = {"bullet": ("", 1), "full": (">", 2), "over2": ("+", 2), "over3": ("+", 0)}


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
    grids = list(_grids(raw_ballots, frozenset(roster), lambda marks: marks))
    shared = {grid: RankedBallot(grid) for grid in dict.fromkeys(grids)}
    return RawCvrDocument(candidates=roster, ballots=tuple(map(shared.__getitem__, grids)))


@_gc_paused
def ingest_raw(data: bytes) -> CondensedProfile:
    """``ingest(parse_raw(data))`` in one pass.

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

    return _tally(Counter(_grids(raw_ballots, roster_set, roster_only)).items(), roster)


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
        doc = json.loads(data.decode("utf-8-sig"), object_pairs_hook=_fields)
    except UnicodeDecodeError as exc:
        raise ParseError(f"raw document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"raw document syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ParseError:  # a repeated field
        raise
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, deep nesting
        raise ParseError(f"raw document cannot be read: {exc}") from exc

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


def _grids(raw_ballots: list, roster_set: frozenset[str], rank_marks):
    """Check each raw ballot in file order and yield its grid: the tuple of
    ``rank_marks(marks)`` over each rank's mark set.

    Each ballot gets only its shape checks: an array with the first ballot's
    rank count.  :func:`_check_rank` runs once per distinct raw rank; an array
    rank repeating earlier raw marks reuses their ``rank_marks``, which passed
    the checks there, so an error still names the first offending ballot and rank.
    """
    ranks_seen: dict[tuple[str, ...], frozenset[str]] = {}  # checked raw marks -> rank_marks
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
        ranks = []
        for j, raw_rank in enumerate(raw_ballot):
            try:  # a string or object rank iterates to marks too, so only arrays are looked up
                marks = ranks_seen.get(tuple(raw_rank)) if isinstance(raw_rank, list) else None
            except TypeError:  # an array or object mark: _check_rank names the error
                marks = None
            if marks is None:
                marks = ranks_seen[tuple(raw_rank)] = rank_marks(
                    _check_rank(i, j, raw_rank, roster_set))
            ranks.append(marks)
        yield tuple(ranks)


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


def ingest(doc: RawCvrDocument) -> CondensedProfile:
    """Condense a raw CVR as :func:`condense` of each ballot's profile key would.
    ``classify_ballot`` runs once per distinct roster-only grid (write-ins dropped,
    empty ranks removed), in order of first appearance, so an error is the first
    offending ballot's."""
    roster_set = classification_roster(tuple(doc.candidates)) if doc.ballots else frozenset()
    reduced = _WithoutWriteIns(roster_set)
    ballots = dict(zip(map(id, doc.ballots), doc.ballots))
    return _tally(((tuple(map(reduced.__getitem__, ballots[key].ranks)), n)
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


def _tally(weighted, roster: tuple[str, ...]) -> CondensedProfile:
    """Profile of ``(grid, ballots)`` pairs, a grid possibly in several.  Empty
    ranks are dropped, except from a grid of more ranks than the roster, which
    ``classify_ballot`` rejects; it reads each distinct result's profile key
    once, in order of first appearance."""
    keys, weights = {}, {}  # roster-only grid -> its profile key, its number of ballots
    for grid, n in weighted:
        if len(grid) <= len(roster):
            grid = tuple(filter(None, grid))
        if grid not in keys:
            keys[grid] = classify_ballot(RankedBallot(grid), roster)
        weights[grid] = weights.get(grid, 0) + n
    return condense_weighted(((keys[g], n) for g, n in weights.items()), roster)


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
        if name != name.strip():
            raise ParseError(f"candidate name {name!r} has leading or trailing whitespace")
        if name not in roster:
            roster.append(name)
        return name

    seen: set = set()
    rows: dict[str, dict[tuple[str, ...], int]] = {kind: {} for kind in _PATTERNS}
    blank = 0

    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"line {line_no}: expected 'pattern,count', got {line!r}")
        token, raw_count = fields
        kind, colon, spelled = token.partition(":")
        sep, arity = _PATTERNS.get(kind, (None, 0)) if colon else (None, 0)
        names = spelled.split(sep) if sep else [spelled]
        # A pattern, not its spelling: over2 names a set, and over3 (arity 0) is one pattern.
        key = (kind, arity and frozenset(names)) if sep == "+" else token
        if key in seen:
            raise ParseError(f"line {line_no}: duplicate pattern {token!r}")
        seen.add(key)
        count = _parse_count(raw_count, line_no)

        if token == "blank":
            blank = count
        elif sep is None:
            raise ParseError(f"line {line_no}: unknown pattern {token!r}")
        elif len(set(names)) != len(names) or (len(names) != arity if arity else len(names) < 2):
            raise ParseError(f"line {line_no}: malformed pattern {token!r}")
        else:
            rows[kind][tuple(map(register, names))] = count

    over3_names = next(iter(rows["over3"]), None)
    if over3_names is not None and set(over3_names) != set(roster):
        raise ParseError(
            "all-overvote pattern must list the whole roster, got "
            f"{list(over3_names)!r} with roster {roster!r}"
        )
    bullet = {name: n for (name,), n in rows["bullet"].items()}
    over2 = {frozenset(pair): n for pair, n in rows["over2"].items()}
    try:
        return CondensedProfile(tuple(roster), bullet, rows["full"], over2,
                                sum(rows["over3"].values()), blank)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_condensed(profile: CondensedProfile) -> bytes:
    """Serialize a profile with every pattern spelled out, roster order.

    A ranking counts under its first two names, so
    ``parse_condensed(write_condensed(p)) == p`` for every profile whose
    rankings name at most two candidates, as every 3-candidate one does.
    """
    lines = ["pattern,count"]
    for c in profile.candidates:
        lines.append(f"bullet:{_check_name(c)},{profile.bullet_count(c)}")
    heads = dict.fromkeys(profile.ranking_groups(), 0)
    for prefs, n in profile.full.items():
        heads[prefs[:2]] += n
    for (first, second), n in heads.items():
        lines.append(f"full:{first}>{second},{n}")
    for a, b in profile.candidate_pairs():
        lines.append(f"over2:{a}+{b},{profile.over2_count(a, b)}")
    if len(profile.candidates) >= 2:
        lines.append(f"over3:{'+'.join(profile.candidates)},{profile.over3}")
    lines.append(f"blank,{profile.blank_count}")
    return ("\n".join(lines) + "\n").encode("utf-8")
