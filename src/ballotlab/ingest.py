"""Reading raw cast-vote-record documents.

A raw CVR is a UTF-8 JSON object (a BOM may lead)
``{"candidates": [...], "ballots": [[["A"], ["B"], []], ...]}`` where each
ballot is an array of rank positions and each rank position an array of
mark strings.  Write-in marks carry the ``WRITEIN:`` prefix.

The command line's reader, :func:`ingest_raw`, first tries the distinct
texts of the ballots (:func:`_distinct_texts`).  That takes the compact
layout and ``json.dumps``'s default one: ``candidates`` then ``ballots``,
the ballots array opening with ``[[[`` and its ballots joined by one
separator such as ``]],[[`` or ``]], [[``.  Write-in marks collapse to the
bare prefix before ballot texts are counted, since write-ins are dropped
anyway, and each distinct text is decoded and checked once.  Every other
layout (an indented one, fields in another order), and every document with
an error, goes to ``ingest(parse_raw(data))``, which names every error.
Both paths run the same checks, :func:`_grids`: each ballot's shape, then
each distinct raw rank once.  Both drop write-ins through one reduction,
``_WithoutWriteIns``, and end in one tail, :func:`_tally`, whose profile
keeps each ranking whole; the condensed file keeps only its first two names.

The package registers this module lazily (see its docstring), so only a
command that reads a raw CVR executes it and imports ``json``, ``re`` and
``gc``.  The condensed CSV format lives in :mod:`ballotlab.condensed`; its
reader and writer are bound here too.
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter
from functools import wraps

from .core import (
    WRITE_IN_PREFIX,
    CondensedProfile,
    RankedBallot,
    Record,
    classification_roster,
    classify_ballot,
    condense_weighted,
    is_write_in,
    validate_roster,
)
from .condensed import parse_condensed, write_condensed  # perfbench/run.py wraps these names
from .errors import ParseError


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
    """``ingest(parse_raw(data))``, reading each distinct ballot text once
    where the layout allows (see the module docstring).

    There, each rank's raw marks lose their write-ins once, and each ballot
    text is counted under its roster-only grid; no per-voter ballot is kept.
    ``classify_ballot`` runs only after every ballot passed the checks of
    :func:`_grids`, so a parse error comes ahead of a classification error.
    """
    try:
        distinct = _distinct_texts(data)
        if distinct is not None:
            roster, raw_ballots, counts = distinct
            roster_set = frozenset(roster)
            grids = list(_grids(raw_ballots, roster_set, _WithoutWriteIns(roster_set).__getitem__))
            return _tally(zip(grids, counts), roster)
    except (ValueError, StopIteration, RecursionError):  # ParseError, MalformedBallotError too
        pass  # parse_raw then ingest name the error
    return ingest(parse_raw(data))


_WS = r"[ \t\n\r]*"  # JSON's whitespace
_HEAD = re.compile(rf'{_WS}\{{{_WS}"candidates"{_WS}:{_WS}')
_BALLOTS = re.compile(rf'{_WS},{_WS}"ballots"{_WS}:{_WS}\[\[\[')
_TAIL = re.compile(rf"\]\]\]{_WS}\}}{_WS}")
_SEPARATOR = re.compile(rf"\]\]{_WS},{_WS}\[\[")
# A whole write-in mark: after the prefix, no quote, escape or control character.
_WRITE_IN = re.compile(rf'"{WRITE_IN_PREFIX}[^"\\\x00-\x1f]*"')
_scan = json.scanner.make_scanner(json.JSONDecoder())


def _distinct_texts(data: bytes) -> tuple[tuple[str, ...], list, list[int]] | None:
    """The roster, each distinct ballot decoded, and how many ballots repeat
    its text; ``None`` for a layout this reader does not take.

    Write-in marks collapse to the bare prefix first (write-ins are dropped
    anyway), unless an escaped quote precedes a prefix.  The ballots text
    splits at its first ballot separator, and each distinct piece must then
    decode, alone, as exactly one ballot, so the pieces rejoined are the
    ``ballots`` array that ``json.loads`` would read.
    A document it cannot read raises, for :func:`parse_raw` to name."""
    text = data.decode("utf-8-sig")
    head = _HEAD.match(text)
    if not head:
        return None
    candidates, end = _scan(text, head.end())
    ballots, stop = _BALLOTS.match(text, end), text.rfind("]]]")
    if not (ballots and _TAIL.fullmatch(text, stop) and isinstance(candidates, list)
            and all(isinstance(c, str) for c in candidates)):
        return None
    roster = validate_roster(candidates)

    body = text[ballots.end():stop]
    if f'\\"{WRITE_IN_PREFIX}' not in body:
        body = _WRITE_IN.sub(f'"{WRITE_IN_PREFIX}"', body)
    separator = _SEPARATOR.search(body)
    pieces = Counter(body.split(separator.group()) if separator else (body,))

    raw_ballots = []
    for piece in pieces:
        piece = f"[[{piece}]]"
        ballot, end = _scan(piece, 0)
        if end != len(piece):
            return None
        raw_ballots.append(ballot)
    return roster, raw_ballots, list(pieces.values())


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
    ``rank_marks(marks)`` over each rank's mark set.  :func:`parse_raw` keeps
    the marks as they are; :func:`ingest_raw` drops their write-ins through
    ``_WithoutWriteIns``.

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
