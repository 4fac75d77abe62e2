"""Ballot classification and condensed preference profiles.

A ranked ballot in a three-candidate race carries far less information
than its rank grid suggests: once write-in marks are dropped and skipped
rankings are compressed, every ballot collapses to one of a handful of
patterns -- a bullet vote, a (first, second) ranking with the remaining
candidate implied last, a top-rank overvote, or a blank.  A
:class:`CondensedProfile` stores one count per pattern (13 integers for
three candidates) and is the input every tabulation in this package
runs on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import MalformedBallotError

#: Marks carrying this prefix denote write-in candidates.  Write-ins are
#: dropped during classification; everything after the prefix is opaque.
WRITE_IN_PREFIX = "WRITEIN:"


def is_write_in(mark: str) -> bool:
    return mark.startswith(WRITE_IN_PREFIX)


def validate_roster(candidates: Sequence[str]) -> tuple[str, ...]:
    """Normalize a candidate roster: trim names, require them distinct.

    Roster order is preserved; it determines output ordering everywhere
    but never breaks a tie unless a rule explicitly says so.
    """
    trimmed = []
    for name in candidates:
        name = name.strip()
        if not name:
            raise ValueError("candidate names must be non-empty")
        if is_write_in(name):
            raise ValueError(
                f"candidate name must not carry the {WRITE_IN_PREFIX!r} prefix: {name!r}"
            )
        trimmed.append(name)
    if len(set(trimmed)) != len(trimmed):
        raise ValueError(f"candidate names must be distinct: {trimmed!r}")
    return tuple(trimmed)


@dataclass(frozen=True)
class RankedBallot:
    """One raw ballot: a mark set per rank position.

    A mark set may be empty (skipped rank) or hold several marks (an
    overvote at that rank).  Marks are roster candidates or write-in
    tokens.
    """

    ranks: tuple[frozenset[str], ...]

    @classmethod
    def from_marks(cls, ranks: Iterable[Iterable[str]]) -> "RankedBallot":
        return cls(tuple(frozenset(marks) for marks in ranks))


@dataclass(frozen=True)
class Bullet:
    """Ballot supporting a single candidate, no further preference."""

    first: str


@dataclass(frozen=True)
class Full:
    """Ballot ranking a first and a distinct second choice.

    With three candidates the third preference is implied; with more,
    the pattern records first > second > (everyone else, unordered).
    """

    first: str
    second: str


@dataclass(frozen=True)
class OvervoteTopTwo:
    """Ballot giving its highest ranking to exactly two candidates."""

    pair: frozenset[str]


@dataclass(frozen=True)
class OvervoteTopAll:
    """Ballot giving its highest ranking to every roster candidate."""


@dataclass(frozen=True)
class Blank:
    """Ballot with no usable mark for any roster candidate."""


BallotClass = Bullet | Full | OvervoteTopTwo | OvervoteTopAll | Blank


def classify_ballot(ballot: RankedBallot, roster: Sequence[str]) -> BallotClass:
    """Reduce a raw ballot to its preference pattern.

    Normalization order: delete write-in marks, compress now-empty rank
    positions, then read the leading ranks.  A top rank covering the
    whole roster is an all-way overvote; exactly two marks is a top-two
    overvote; a single mark fixes the first choice, and the next
    remaining rank supplies the second choice when it holds exactly one
    distinct mark.  A later duplicate of the first choice is ignored,
    and a second-rank overvote yields a bullet (the voter expressed no
    usable preference among the rest).
    """
    candidates = validate_roster(roster)
    if len(candidates) < 2:
        raise ValueError("classification needs a roster of at least 2 candidates")
    if len(ballot.ranks) > len(candidates):
        raise MalformedBallotError(
            f"ballot has {len(ballot.ranks)} rank positions but the roster "
            f"has only {len(candidates)} candidates"
        )
    roster_set = frozenset(candidates)

    ranks: list[frozenset[str] | set[str]] = []
    for marks in ballot.ranks:
        if not marks <= roster_set:
            marks = {m for m in marks if not is_write_in(m)}
            unknown = marks - roster_set
            if unknown:
                raise MalformedBallotError(
                    f"mark {sorted(unknown)[0]!r} names no roster candidate"
                )
        if marks:
            ranks.append(marks)

    if not ranks:
        return Blank()
    top = ranks[0]
    if len(top) >= 2 and top == roster_set:
        return OvervoteTopAll()
    if len(top) == 2:
        return OvervoteTopTwo(pair=frozenset(top))
    if len(top) > 2:
        # Only reachable with rosters of 4+; the pattern vocabulary has
        # no class for a partial overvote of 3 or more candidates.
        raise MalformedBallotError(
            f"top-rank overvote of {len(top)} marks covers neither two "
            f"candidates nor the whole roster"
        )
    first = next(iter(top))
    for marks in ranks[1:]:
        rest = marks - {first}
        if not rest:
            continue
        if len(rest) == 1:
            return Full(first=first, second=next(iter(rest)))
        return Bullet(first=first)
    return Bullet(first=first)


@dataclass(frozen=True)
class CondensedProfile:
    """Counts of ballots by preference pattern for one race.

    Zero counts are dropped on construction, so profiles compare equal
    regardless of whether absent patterns were spelled out.  All counts
    must be nonnegative and refer only to roster candidates.
    """

    candidates: tuple[str, ...]
    bullet: dict[str, int]
    full: dict[tuple[str, str], int]
    over2: dict[frozenset[str], int]
    over3: int = 0
    blank_count: int = 0

    def __post_init__(self) -> None:
        roster = validate_roster(self.candidates)
        object.__setattr__(self, "candidates", roster)
        roster_set = frozenset(roster)

        for c in self.bullet:
            if c not in roster_set:
                raise ValueError(f"bullet pattern names non-roster candidate {c!r}")
        for first, second in self.full:
            if first == second:
                raise ValueError(f"full pattern repeats candidate {first!r}")
            if first not in roster_set or second not in roster_set:
                raise ValueError(f"full pattern {(first, second)!r} leaves the roster")
        for pair in self.over2:
            if len(pair) != 2 or not pair <= roster_set:
                raise ValueError(f"overvote pair {sorted(pair)!r} is invalid")

        for count in (*self.bullet.values(), *self.full.values(),
                      *self.over2.values(), self.over3, self.blank_count):
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"pattern counts must be nonnegative integers, got {count!r}")

        object.__setattr__(self, "bullet", {c: n for c, n in self.bullet.items() if n})
        object.__setattr__(self, "full", {g: n for g, n in self.full.items() if n})
        object.__setattr__(self, "over2", {p: n for p, n in self.over2.items() if n})

    @classmethod
    def zero(cls, candidates: Sequence[str]) -> "CondensedProfile":
        return cls(tuple(candidates), {}, {}, {})

    # -- totals ---------------------------------------------------------

    @property
    def total_valid_ranked(self) -> int:
        """Ballots whose highest ranking went to a single candidate."""
        return sum(self.bullet.values()) + sum(self.full.values())

    @property
    def total_overvotes(self) -> int:
        return sum(self.over2.values()) + self.over3

    @property
    def total_with_any_mark(self) -> int:
        return self.total_valid_ranked + self.total_overvotes

    # -- accessors ------------------------------------------------------

    def bullet_count(self, candidate: str) -> int:
        return self.bullet.get(candidate, 0)

    def full_count(self, first: str, second: str) -> int:
        return self.full.get((first, second), 0)

    def over2_count(self, a: str, b: str) -> int:
        return self.over2.get(frozenset((a, b)), 0)

    def ranking_groups(self) -> tuple[tuple[str, str], ...]:
        """All (first, second) groups in roster order, zero counts included."""
        return tuple(
            (first, second)
            for first in self.candidates
            for second in self.candidates
            if first != second
        )

    def candidate_pairs(self) -> tuple[tuple[str, str], ...]:
        """Unordered candidate pairs, each as a roster-ordered tuple."""
        return tuple(
            (a, self.candidates[j])
            for i, a in enumerate(self.candidates)
            for j in range(i + 1, len(self.candidates))
        )

    # -- tallies --------------------------------------------------------

    def first_place_totals(self, include_top_ties: bool = False) -> dict[str, int]:
        """First-choice support per candidate.

        With ``include_top_ties`` every two-way top overvote adds one
        vote to each of its pair members.  All-way overvotes never
        contribute; they express no preference.
        """
        totals = {c: self.bullet.get(c, 0) for c in self.candidates}
        for (first, _), n in self.full.items():
            totals[first] += n
        if include_top_ties:
            for pair, n in self.over2.items():
                for c in pair:
                    totals[c] += n
        return totals

    def second_place_totals(self) -> dict[str, int]:
        """Count of full rankings placing each candidate second."""
        totals = {c: 0 for c in self.candidates}
        for (_, second), n in self.full.items():
            totals[second] += n
        return totals

    # -- reshaping ------------------------------------------------------

    def expand(self) -> Iterable[BallotClass]:
        """Yield one pattern instance per counted ballot, roster order."""
        for c in self.candidates:
            yield from (Bullet(c) for _ in range(self.bullet.get(c, 0)))
        for group in self.ranking_groups():
            yield from (Full(*group) for _ in range(self.full.get(group, 0)))
        for a, b in self.candidate_pairs():
            pair = frozenset((a, b))
            yield from (OvervoteTopTwo(pair) for _ in range(self.over2.get(pair, 0)))
        yield from (OvervoteTopAll() for _ in range(self.over3))
        yield from (Blank() for _ in range(self.blank_count))

    def scaled(self, factor: int) -> "CondensedProfile":
        """Profile with every count multiplied by a positive integer."""
        if factor < 1:
            raise ValueError("scale factor must be a positive integer")
        return CondensedProfile(
            candidates=self.candidates,
            bullet={c: n * factor for c, n in self.bullet.items()},
            full={g: n * factor for g, n in self.full.items()},
            over2={p: n * factor for p, n in self.over2.items()},
            over3=self.over3 * factor,
            blank_count=self.blank_count * factor,
        )


def condense(classified: Iterable[BallotClass], roster: Sequence[str]) -> CondensedProfile:
    """Count classified ballots into a condensed profile."""
    return condense_weighted(((cls, 1) for cls in classified), roster)


def condense_weighted(
    weighted: Iterable[tuple[BallotClass, int]], roster: Sequence[str]
) -> CondensedProfile:
    """Count ``(ballot class, number of ballots)`` pairs into a condensed profile."""
    bullet: dict[str, int] = {}
    full: dict[tuple[str, str], int] = {}
    over2: dict[frozenset[str], int] = {}
    over3 = 0
    blank = 0
    for cls, n in weighted:
        match cls:
            case Bullet(first=c):
                bullet[c] = bullet.get(c, 0) + n
            case Full(first=f, second=s):
                full[(f, s)] = full.get((f, s), 0) + n
            case OvervoteTopTwo(pair=p):
                over2[p] = over2.get(p, 0) + n
            case OvervoteTopAll():
                over3 += n
            case Blank():
                blank += n
            case _:
                raise TypeError(f"not a ballot class: {cls!r}")
    return CondensedProfile(tuple(roster), bullet, full, over2, over3, blank)
