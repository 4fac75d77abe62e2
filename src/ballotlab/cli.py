"""Command-line interface.

Grammar: ``ballotlab <command> <profile-or-raw-file> [flags]``.  Input
files are auto-detected by extension (``.json`` raw cast-vote-record,
``.csv`` condensed profile) unless ``--input-format`` overrides.

Exit codes: 0 success; 1 domain error (decisive tie, unattainable
threshold, no valid ranked ballot to tabulate); 2 usage or parse error,
or an output file that cannot be written.  Machine output formats are
byte-deterministic; the table format appends a provenance footer.  A
raw CVR's profile keeps every ranked choice; only ``ingest``, whose CSV
keeps two, warns when it drops later ones.

Each command is one row of :data:`COMMANDS`: path, help text, builder
and flags.  :func:`_parse` reads a plain argv straight from its row: the
command's exact words, one file that does not start with ``-``, and the
row's own flags spelled exactly, as ``--flag value`` or ``--flag=value``.
Anything else (``--help``, ``--version``, an abbreviated or unknown flag,
``--``, a value starting with ``-``, a value the row refuses) goes to
argparse, so ``argparse`` is imported only for help, usage errors and the
spellings only it reads.  Its parser holds only the rows on the path argv
names, with flags only on the one being run.  :func:`run` loads the
profile, calls the builder and renders the :class:`Report` it returns
(``ingest`` and ``--plot-data`` return bytes).  Except ``ingest``'s, each
builder ends its model's lazily loaded module (see the package
docstring); :func:`run` looks it up only after parsing, so a process
compiles only its own command's model and ``--help`` runs none.  The
report layer (``report`` and ``rational``, with ``fractions``) is lazily
registered too and runs only for a command that renders a report or
parses a grid, so ``ingest`` never loads it.
``hashlib``, ``csv`` and ``json`` load only for the output that uses them.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from types import SimpleNamespace

from . import __version__, _ingest_module, rational, report
from .core import CondensedProfile
from .errors import DecisiveTieError, NoValidBallotsError, ParseError, UnattainableError
from .condensed import parse_condensed, write_condensed


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: Sequence[str]) -> int:
    """Parse arguments, build the command's output, and stream it."""
    args = _parse(argv)
    if args is None:  # help, version, a usage error, or a spelling only argparse reads
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    try:
        profile, data = _load_profile(args)
        output = _builder(args.build)(args, profile)
        if not isinstance(output, bytes):  # a Report
            fmt = args.format or "table"
            if fmt == "table":
                output.notes.append(_provenance(argv, data))
            output = report.emit_table(output, fmt)
        if args.out:
            with open(args.out, "wb") as out:
                out.write(output)
        else:
            sys.stdout.buffer.write(output)
            sys.stdout.buffer.flush()
    except (DecisiveTieError, UnattainableError, NoValidBallotsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ParseError and MalformedBallotError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# -- argument plumbing ---------------------------------------------------


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse builds from a plain ``argv`` (see the module
    docstring), read straight from its :data:`COMMANDS` row; ``None`` for
    any other ``argv``, which argparse then parses or refuses."""
    for path, _, build, *flags in COMMANDS:
        words = path.split()
        if build and list(argv[:len(words)]) == words:
            break
    else:
        return None
    kinds = {name: kwargs for (name,), kwargs in flags}
    rest, given = iter(argv[len(words):]), {}
    for arg in rest:
        name, eq, value = arg.partition("=") if arg[:1] == "-" else ("file", "=", arg)
        kwargs = kinds.get(name)
        if kwargs is None or name == "file" and name in given:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            given[name] = True
            continue
        value = value if eq else next(rest, "")
        if value[:1] in ("", "-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except Exception:  # argparse reports the refused value (or raises the error itself)
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[name] = [*given.get(name, ()), value] if kwargs.get("action") == "append" else value
    args = SimpleNamespace(command=words[0], build=build)
    if len(words) > 1:
        args.subcommand = words[1]
    for name, kwargs in kinds.items():
        if name not in given:
            if name == "file" or kwargs.get("required"):
                return None
            default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
            # argparse passes a string default through ``type``
            given[name] = kwargs.get("type", str)(default) if isinstance(default, str) else default
        setattr(args, name.lstrip("-").replace("-", "_"), given[name])
    return args


# The ``type`` callables raise argparse's error, so that argparse names the flag and
# the problem rather than an "invalid value".  Argparse then reports it, so importing
# argparse here costs a valid command nothing.
def _refuse(message: str):
    import argparse

    return argparse.ArgumentTypeError(message)


def _parse_group(text: str) -> tuple[str, str]:
    first, sep, second = text.partition(">")
    if not sep or not first or not second:
        raise _refuse(f"group must look like First>Second, got {text!r}")
    return first, second


def _parse_group_assignment(text: str) -> tuple[tuple[str, str], str]:
    # The value is a number, so the last "=" ends the group: a name may hold "=".
    head, sep, value = text.rpartition("=")
    if not sep or not value:
        raise _refuse(f"expected First>Second=value, got {text!r}")
    return _parse_group(head), value


def _parse_grid(text: str) -> tuple[rational.Fraction, rational.Fraction, rational.Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _refuse(f"grid must look like start:end:step, got {text!r}")
    try:
        return tuple(rational.exact_rational(p, "grid value") for p in parts)
    except ValueError as exc:
        raise _refuse(str(exc)) from None


def _load_profile(args) -> tuple[CondensedProfile, bytes]:
    with open(args.file, "rb") as f:
        data = f.read()
    extension = args.file[args.file.rfind("."):]
    fmt = args.input_format or {".json": "raw", ".csv": "condensed"}.get(extension)
    if fmt is None:
        raise ParseError(f"cannot infer input format of {args.file!r}; pass --input-format")
    return (_ingest_module.ingest_raw if fmt == "raw" else parse_condensed)(data), data


def _builder(ref: str):
    """The function a :data:`COMMANDS` row names as ``module.attribute``; runs the module."""
    module, _, name = ref.rpartition(".")
    return getattr(sys.modules[f"{__package__}.{module}"], name)


def _provenance(argv: Sequence[str], data: bytes) -> str:
    import hashlib  # only table output carries the digest

    digest = hashlib.sha256(data).hexdigest()
    return f"# input sha256={digest} command={' '.join(argv)} version={__version__}"


# -- the command table ---------------------------------------------------


# The one builder that is not a model's: ``ingest`` writes the profile CSV.
def _ingest(args, profile: CondensedProfile) -> bytes:
    later = sum(n for prefs, n in profile.rankings() if len(prefs) > 2)
    if later:  # the CSV keeps two choices per ranking
        print(f"warning: {later} {'ballot ranks' if later == 1 else 'ballots rank'} a "
              "candidate after the second choice; the first-and-second-choice profile drops "
              "those later choices", file=sys.stderr)
    return write_condensed(profile)


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """The arguments of one ``add_argument`` call."""
    return names, kwargs


_FILE = _flag("file", help="condensed profile (.csv) or raw cast-vote-record (.json)")
_INPUT_FORMAT = _flag("--input-format", choices=("raw", "condensed"),
                      help="override input detection by file extension")
# Literal values of report.FORMATS and report.TABLE: building the parser
# must not load the report module.
_FORMAT = _flag("--format", choices=("table", "csv", "json-lines"),
                help="output format (default: table)")
_OUT = _flag("--out", help="write to this path instead of standard output")
_IO = (_FILE, _INPUT_FORMAT, _FORMAT, _OUT)
_PLOT_DATA = _flag("--plot-data", action="store_true",
                   help="emit long-form CSV segments for a range chart instead of a table")

#: One row per command: path, help text, builder, then its flags in
#: ``--help`` order.  The builder is named ``module.attribute`` within the
#: package and looked up only once arguments parse, so building the parser
#: runs no model module.  A row without a builder opens a group of subcommands.
COMMANDS = (
    ("ingest", "normalize a ballot file into a condensed profile CSV", "cli._ingest",
     _FILE, _INPUT_FORMAT, _OUT),
    ("irv", "instant-runoff rounds, transfers, and winner", "irv.irv_report", *_IO),
    ("pairwise", "head-to-head tallies for every candidate pair", "condorcet.pairwise_report",
     *_IO,
     # Literal values of condorcet.RANKED_ONLY and INCLUDE_TIES: building
     # the parser must not load the condorcet module.
     _flag("--basis", choices=("ranked-only", "include-ties"), default="ranked-only",
           help="whether two-way top overvotes count toward the pair members")),
    ("condorcet", "Condorcet winner/loser and pair margins", "condorcet.condorcet_report", *_IO),
    ("squeeze", "was the Condorcet winner eliminated early?", "condorcet.squeeze_report", *_IO),
    ("approval", "approval-voting counterfactual model", None),
    ("approval range", "minimum/maximum possible votes per candidate", "approval.range_report",
     *_IO, _PLOT_DATA),
    ("approval eval", "scores and winner under a behavior scenario",
     "approval.eval_report", *_IO,
     _flag("--p", help="uniform second-choice approval rate (rational or decimal)"),
     _flag("--p-group", action="append", type=_parse_group_assignment,
           metavar="FIRST>SECOND=RATE", help="per-group rate; repeatable")),
    ("approval threshold", "uniform rate at which a riser catches the leader",
     "approval.threshold_report", *_IO,
     _flag("--riser", required=True, help="candidate trying to catch up"),
     _flag("--leader", required=True, help="candidate currently ahead")),
    ("approval clinch", "second-choice votes from one group that guarantee victory",
     "approval.clinch_report", *_IO,
     _flag("--candidate", required=True),
     _flag("--group", required=True, type=_parse_group, metavar="FIRST>SECOND",
           help="source group; its second choice must be the candidate")),
    ("approval sweep", "winner at every uniform rate on a grid", "approval.sweep_report", *_IO,
     # argparse passes a string default through ``type``, and only when the flag is absent.
     _flag("--grid", type=_parse_grid, default="0:1:0.01",
           metavar="START:END:STEP", help="default 0:1:0.01")),
    ("star", "STAR-voting counterfactual model", None),
    ("star range", "minimum/maximum possible scores per candidate", "star.range_report",
     *_IO, _PLOT_DATA),
    ("star eval", "score round, finalists, and runoff under a scenario",
     "star.eval_report", *_IO,
     _flag("--s", help="uniform second-choice star rating in [1,4]"),
     _flag("--s-group", action="append", type=_parse_group_assignment,
           metavar="FIRST>SECOND=STARS", help="per-group rating; repeatable")),
    ("star threshold", "rating that locks a candidate past a rival's maximum",
     "star.threshold_report", *_IO,
     _flag("--guaranteed", required=True, help="candidate locking in the runoff berth"),
     _flag("--rival", required=True, help="rival whose maximum must be beaten")),
    ("star sweep", "winner at every uniform rating on a grid", "star.sweep_report", *_IO,
     _flag("--grid", type=_parse_grid, default="1:4:0.01",
           metavar="START:END:STEP", help="default 1:4:0.01")),
)


def _build_parser(argv: Sequence[str]):
    """The rows on the longest command path ``argv`` starts with, flags only on
    its last, and every row below it, so that ``--help`` and an invalid choice
    list a group's (or, with no command named, every) command."""
    import argparse  # only for help, usage errors and what _parse declines

    chosen = max((w for w in (tuple(row[0].split()) for row in COMMANDS)
                  if tuple(argv[:len(w)]) == w), key=len, default=())
    parser = argparse.ArgumentParser(
        prog="ballotlab",
        description="Tabulate ranked-ballot profiles: instant runoff, head-to-head "
                    "contests, and approval/STAR counterfactual models.",
    )
    parser.add_argument("--version", action="version", version=f"ballotlab {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True, metavar="command")}
    for path, help_text, build, *flags in COMMANDS:
        words = tuple(path.split())
        if words[:len(chosen)] != chosen and chosen[:len(words)] != words:
            continue  # off the path: neither above nor below its end
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, help=help_text)
        for names, kwargs in flags if words == chosen else ():
            p.add_argument(*names, **kwargs)
        if build is None:
            groups[name] = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
        else:
            p.set_defaults(build=build)
    return parser
