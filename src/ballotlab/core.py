"""Ballot classification and condensed preference profiles.

A ranked ballot carries less information than its rank grid suggests:
once write-in marks are dropped and skipped rankings are compressed,
every ballot collapses to a profile key (:func:`classify_ballot`): its
ranking's names, top first (one for a bullet vote), its top-rank
overvote's set, or ``()`` for a blank.  In a three-candidate race a
ranking is a (first, second) pair with the third candidate implied last,
so a :class:`CondensedProfile` maps at most 14 keys (13 patterns and the
blank) to their ballot counts; it is the input every tabulation in this
package runs on.

Every other value type of the package is a :class:`Record`, a slotted
class that compares, hashes and reprs by value and generates no code.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import attrgetter

from .errors import MalformedBallotError

_set = object.__setattr__  # sets a field of an immutable record

#: A ballot's preference pattern: its ranking, its top-rank overvote, or ``()``.
ProfileKey = tuple[str, ...] | frozenset[str]

#: Marks carrying this prefix denote write-in candidates.  Write-ins are
#: dropped during classification; everything after the prefix is opaque.
WRITE_IN_PREFIX = "WRITEIN:"


def is_write_in(mark: str) -> bool:
    return mark.startswith(WRITE_IN_PREFIX)


def utf8_text(data: bytes) -> str:
    """An input file's text: UTF-8 after at most one leading byte order mark.  Same text
    and errors as the ``utf-8-sig`` codec, whose module (``encodings.utf_8_sig``) a
    process would otherwise import on every read."""
    return data.removeprefix(b"\xef\xbb\xbf").decode("utf-8")


def validate_roster(candidates: Sequence[str]) -> tuple[str, ...]:
    """Normalize a candidate roster: trim names, require them valid Unicode text, free
    of ``|`` (which joins tied names in every report) and distinct.

    Roster order is preserved; it determines output ordering everywhere
    but never breaks a tie unless a rule explicitly says so.
    """
    trimmed = []
    for name in candidates:
        name = name.strip()
        if not name:
            raise ValueError("candidate names must be non-empty")
        if "|" in name:
            raise ValueError(f"candidate name {name!r} contains reserved character '|'")
        if not name.isascii() and any("\ud800" <= ch <= "\udfff" for ch in name):
            raise ValueError(f"candidate name {name!r} is not valid Unicode text")
        if is_write_in(name):
            raise ValueError(
                f"candidate name must not carry the {WRITE_IN_PREFIX!r} prefix: {name!r}"
            )
        trimmed.append(name)
    if len(set(trimmed)) != len(trimmed):
        raise ValueError(f"candidate names must be distinct: {trimmed!r}")
    return tuple(trimmed)


class _RecordType(type):
    """Turns a record class body's annotated names into its fields; see :class:`Record`."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = namespace["__match_args__"] = fields
        namespace["_key"] = attrgetter(*fields) if fields else staticmethod(lambda _: ())
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordType):
    """Immutable value type over the fields its class body annotates, in order.

    The fields are the ``__slots__`` and ``__match_args__``; a value the body
    assigns to one is its default.  The constructor takes them by position
    or name, then calls ``__post_init__``, which may normalize them with
    ``object.__setattr__``.  Setting or deleting an attribute raises
    :class:`AttributeError`.  :class:`RankedBallot` defines a faster ``__init__``.
    """

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or kwargs.keys() & names[:len(args)]
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        for name in names:
            _set(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class RankedBallot(Record):
    """One raw ballot: a mark set per rank position.

    A mark set may be empty (skipped rank) or hold several marks (an
    overvote at that rank).  Marks are roster candidates or write-in
    tokens.
    """

    ranks: tuple[frozenset[str], ...]

    def __init__(self, ranks: tuple[frozenset[str], ...]) -> None:
        _set(self, "ranks", ranks)


@lru_cache
def classification_roster(roster: tuple[str, ...]) -> frozenset[str]:
    """:func:`classify_ballot`'s validated roster, cached; a bad one raises every time."""
    candidates = validate_roster(roster)
    if len(candidates) < 2:
        raise ValueError("classification needs a roster of at least 2 candidates")
    return frozenset(candidates)


def read_ranking(ranks: Sequence[frozenset[str]], depth: int) -> tuple[str, ...]:
    """Up to ``depth`` names a ballot ranks, top first, from its roster-only mark
    sets, the first a single name: a later rank adding one new name extends the
    ranking, one adding two or more ends it."""
    order = list(ranks[0])
    for marks in ranks[1:]:
        if len(order) == depth:
            break
        new = marks if len(marks) == 1 else marks.difference(order)  # one mark: no new set
        if len(new) > 1:
            break
        if new.isdisjoint(order):
            order += new
    return tuple(order)


def classify_ballot(ballot: RankedBallot, roster: Sequence[str]) -> ProfileKey:
    """Reduce a raw ballot to its profile key.

    Normalization order: delete write-in marks, compress now-empty rank
    positions, then read the leading ranks.  No rank left is a blank, ``()``.
    A top rank of two marks, or of the whole roster, is an overvote: its
    mark set.  A single top mark starts the ranking, read once by
    :func:`read_ranking` to max(2, N - 1) of the N candidates: a later
    duplicate is ignored, and a later overvote ends the ranking, so one name
    left is a bullet vote.  Each roster is validated once.
    """
    roster_set = classification_roster(tuple(roster))
    if len(ballot.ranks) > len(roster_set):
        raise MalformedBallotError(
            f"ballot has {len(ballot.ranks)} rank positions but the roster "
            f"has only {len(roster_set)} candidates"
        )
    ranks = []
    for marks in ballot.ranks:
        if not marks <= roster_set:  # drop write-ins; any other mark raises
            unknown = [m for m in marks - roster_set if not is_write_in(m)]
            if unknown:
                raise MalformedBallotError(f"mark {min(unknown)!r} names no roster candidate")
            marks &= roster_set
        if marks:
            ranks.append(marks)

    if not ranks:
        return ()
    top = ranks[0]
    if len(top) == 1:
        return read_ranking(ranks, max(2, len(roster_set) - 1))
    if len(top) == 2 or top == roster_set:
        return frozenset(top)
    # A partial overvote of 3 or more marks, possible with 4+ candidates, has no key.
    raise MalformedBallotError(
        f"top-rank overvote of {len(top)} marks covers neither two "
        f"candidates nor the whole roster"
    )


class CondensedProfile(Record):
    """Ballot counts by profile key for one race.

    ``counts`` maps each :func:`classify_ballot` key to its number of
    ballots: a ranking of 1 to max(2, N - 1) distinct roster names, top
    first, the last being implied (one name is a bullet vote); a top
    overvote's set, two roster names or the whole roster (all-way, however
    it was counted); ``()`` for a blank.  Counts must be nonnegative
    integers, and construction drops zero counts, so profiles compare
    equal however spelled.  Tabulations read rankings through
    :meth:`rankings`, and count each one for its highest-ranked candidate
    among those in play through :meth:`top_choices`.
    """

    candidates: tuple[str, ...]
    counts: dict[ProfileKey, int]

    def __post_init__(self) -> None:
        roster = validate_roster(self.candidates)
        _set(self, "candidates", roster)
        roster_set = frozenset(roster)
        depth = max(2, len(roster) - 1)
        for key, n in self.counts.items():
            if isinstance(key, tuple):
                if not (len(set(key)) == len(key) <= depth and roster_set.issuperset(key)):
                    raise ValueError(f"ranking {key!r} needs at most {depth} distinct roster names")
            elif not isinstance(key, frozenset):
                raise ValueError(f"not a profile key: {key!r}")
            elif len(key) < 2 or not (key == roster_set or len(key) == 2 and key <= roster_set):
                raise ValueError(f"overvote {sorted(key)!r} is neither two roster names "
                                 "nor the whole roster")
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"pattern counts must be nonnegative integers, got {n!r}")
        _set(self, "counts", {key: n for key, n in self.counts.items() if n})

    # -- totals ---------------------------------------------------------

    @property
    def total_valid_ranked(self) -> int:
        """Ballots whose highest ranking went to a single candidate."""
        return sum(n for _, n in self.rankings())

    @property
    def total_overvotes(self) -> int:
        return sum(n for key, n in self.counts.items() if isinstance(key, frozenset))

    @property
    def total_with_any_mark(self) -> int:
        return sum(n for key, n in self.counts.items() if key)

    @property
    def total_with_preference(self) -> int:
        """Ballots ranking someone above someone: rankings and two-way top overvotes."""
        return self.total_valid_ranked + sum(n for _, n in self.two_way_overvotes())

    @property
    def blank_count(self) -> int:
        return self.counts.get((), 0)

    # -- accessors ------------------------------------------------------

    def bullet_count(self, candidate: str) -> int:
        return self.counts.get((candidate,), 0)

    def full_count(self, first: str, second: str) -> int:
        """Rankings whose first two names are ``first`` then ``second``."""
        return self.group_sizes().get((first, second), 0)

    def over2_count(self, a: str, b: str) -> int:
        """Two-way top overvotes of ``a`` and ``b``; on two candidates the pair is all-way."""
        return self.counts.get(frozenset((a, b)), 0) if len(self.candidates) > 2 else 0

    def ranking_groups(self) -> tuple[tuple[str, str], ...]:
        """All (first, second) groups in roster order, zero counts included."""
        return tuple(
            (first, second)
            for first in self.candidates
            for second in self.candidates
            if first != second
        )

    def group_sizes(self) -> dict[tuple[str, str], int]:
        """Rankings per (first, second) group: every :meth:`ranking_groups`
        group, in its order, zero counts included."""
        sizes = dict.fromkeys(self.ranking_groups(), 0)
        for prefs, n in self.rankings():
            if len(prefs) > 1:
                sizes[prefs[:2]] += n
        return sizes

    def candidate_pairs(self) -> tuple[tuple[str, str], ...]:
        """Unordered candidate pairs, each as a roster-ordered tuple."""
        return tuple(
            (a, self.candidates[j])
            for i, a in enumerate(self.candidates)
            for j in range(i + 1, len(self.candidates))
        )

    # -- tallies --------------------------------------------------------

    def rankings(self) -> list[tuple[tuple[str, ...], int]]:
        """Each ranking as ``(preferences, count)``, top first: ``((c,), n)`` for a bullet."""
        return [(key, n) for key, n in self.counts.items() if key and isinstance(key, tuple)]

    def two_way_overvotes(self) -> list[tuple[frozenset[str], int]]:
        """Each two-way top overvote as ``(pair, count)``: a set short of the whole roster."""
        return [(key, n) for key, n in self.counts.items()
                if isinstance(key, frozenset) and len(key) < len(self.candidates)]

    def top_choices(self, among: Sequence[str]) -> dict[str, int]:
        """Per candidate of ``among``, in its order, the rankings placing them above the rest of it.

        A ranking naming none of ``among`` counts for no one; overvotes never count.
        """
        counts = dict.fromkeys(among, 0)
        for prefs, n in self.rankings():
            for c in prefs:
                if c in counts:
                    counts[c] += n
                    break
        return counts

    def preferences(self, include_ties: bool = False) -> dict[tuple[str, str], int]:
        """Ballots ranking ``a`` above ``b``, per ordered pair: each of
        :meth:`candidate_pairs` as ``(a, b)`` then ``(b, a)``, zeros included.

        A ranking places each of its names above every later and every
        unranked name.  With ``include_ties`` a two-way top overvote places
        its pair above everyone else and neither member above the other;
        all-way overvotes never place anyone above anyone.
        """
        roster = self.candidates
        index = {c: i for i, c in enumerate(roster)}
        rows = [[0] * len(roster) for _ in roster]  # rows[i][j]: roster[i] above roster[j]
        for names, n in self.rankings():
            below = [j for j, c in enumerate(roster) if c not in names]
            for a in reversed(names):
                row = rows[index[a]]
                for j in below:
                    row[j] += n
                below.append(index[a])
        if include_ties:
            for pair, n in self.two_way_overvotes():
                for a in pair:
                    row = rows[index[a]]
                    for j, c in enumerate(roster):
                        if c not in pair:
                            row[j] += n
        prefers = {}
        for a, b in self.candidate_pairs():
            prefers[a, b], prefers[b, a] = rows[index[a]][index[b]], rows[index[b]][index[a]]
        return prefers


def condense(keys: Iterable[ProfileKey], roster: Sequence[str]) -> CondensedProfile:
    """Count :func:`classify_ballot` keys, one per ballot, into a condensed profile."""
    return condense_weighted(((key, 1) for key in keys), roster)


def condense_weighted(
    weighted: Iterable[tuple[ProfileKey, int]], roster: Sequence[str]
) -> CondensedProfile:
    """Sum ``(profile key, number of ballots)`` pairs into a profile; a key of
    another type raises :class:`TypeError`."""
    counts: dict[ProfileKey, int] = {}
    for key, n in weighted:
        if not isinstance(key, (tuple, frozenset)):
            raise TypeError(f"not a profile key: {key!r}")
        counts[key] = counts.get(key, 0) + n
    return CondensedProfile(tuple(roster), counts)
