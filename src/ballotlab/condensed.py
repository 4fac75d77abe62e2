"""The condensed profile file: read and write.

UTF-8 CSV with header ``pattern,count`` and one row per key of the
profile's ``counts``: ``blank`` for ``()``, or a ``kind:names`` row read
through one table, ``_PATTERNS``: rankings ``bullet:<C>`` and
``full:<C1>><C2>``, overvote sets ``over2:<C1>+<C2>`` and
``over3:<C1>+...+<Cn>`` (the whole roster).  Missing patterns read as
zero.  Candidate names must not contain ``,``, ``>``, ``+`` or a line
break: LF, CR, VT, FF, FS, GS, RS, NEL, LS or PS, each character
``str.splitlines`` splits at.  A ranking counts under its first two names.
"""

from __future__ import annotations

from .core import CondensedProfile, ProfileKey, condense_weighted
from .errors import ParseError

MAX_COUNT = 2**63 - 1  # counts must fit a 64-bit signed integer

# The pattern separators, then every character at which ``str.splitlines`` breaks a line.
_RESERVED = (",", ">", "+", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")

# kind -> (name separator, number of names; 0: two or more distinct names)
_PATTERNS = {"bullet": ("", 1), "full": (">", 2), "over2": ("+", 2), "over3": ("+", 0)}


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
    weighted: list[tuple[ProfileKey, int]] = []  # each row's profile key and count
    everyone = None  # the over3 row's names

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
        # A row's profile key: an overvote row's set, whichever kind spells it; one over3 row.
        key = frozenset(names) if sep == "+" else token
        if key in seen or (sep == "+" and not arity and everyone is not None):
            raise ParseError(f"line {line_no}: duplicate pattern {token!r}")
        seen.add(key)
        count = _parse_count(raw_count, line_no)

        if token == "blank":
            weighted.append(((), count))
        elif sep is None:
            raise ParseError(f"line {line_no}: unknown pattern {token!r}")
        elif len(set(names)) != len(names) or (len(names) != arity if arity else len(names) < 2):
            raise ParseError(f"line {line_no}: malformed pattern {token!r}")
        else:
            names = tuple(map(register, names))
            weighted.append((frozenset(names) if sep == "+" else names, count))
            everyone = everyone if arity else names

    if everyone is not None and set(everyone) != set(roster):
        raise ParseError(
            "all-overvote pattern must list the whole roster, got "
            f"{list(everyone)!r} with roster {roster!r}"
        )
    try:
        return condense_weighted(weighted, roster)
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
    for (first, second), n in profile.group_sizes().items():
        lines.append(f"full:{first}>{second},{n}")
    if len(profile.candidates) > 2:  # two names of two are the all-way over3 row
        for a, b in profile.candidate_pairs():
            lines.append(f"over2:{a}+{b},{profile.over2_count(a, b)}")
    if len(profile.candidates) >= 2:
        everyone = profile.counts.get(frozenset(profile.candidates), 0)
        lines.append(f"over3:{'+'.join(profile.candidates)},{everyone}")
    lines.append(f"blank,{profile.blank_count}")
    return ("\n".join(lines) + "\n").encode("utf-8")
