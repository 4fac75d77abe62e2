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
and flags; the parser holds only the rows on the path argv names, with
flags only on the one being run.  :func:`run` loads the profile, calls the
builder and renders the :class:`Report` it returns (``ingest`` and
``--plot-data`` return bytes).  The raw-CVR reader and the model modules
load lazily (see the package docstring), so the table holds only this
module's builders; ``hashlib``, ``csv`` and ``json`` load only for the
output that uses them.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import __version__, _ingest_module, approval, condorcet, irv, star
from .core import CondensedProfile
from .errors import DecisiveTieError, NoValidBallotsError, ParseError, UnattainableError
from .condensed import parse_condensed, write_condensed
from .rational import decimal_string, exact_rational, fraction_token, percent_string
from .report import (
    CSV,
    FORMATS,
    TABLE,
    Cell,
    Column,
    Report,
    emit_range_plot_data,
    emit_table,
)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: Sequence[str]) -> int:
    """Parse arguments, build the command's output, and stream it."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        profile, data = _load_profile(args)
        output = args.build(args, profile)
        if isinstance(output, Report):
            fmt = args.format or TABLE
            if fmt == TABLE:
                output.notes.append(_provenance(argv, data))
            output = emit_table(output, fmt)
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


def _parse_group(text: str) -> approval.Group:
    first, sep, second = text.partition(">")
    if not sep or not first or not second:
        raise argparse.ArgumentTypeError(f"group must look like First>Second, got {text!r}")
    return first, second


def _parse_group_assignment(text: str) -> tuple[approval.Group, str]:
    head, sep, value = text.partition("=")
    if not sep or not value:
        raise argparse.ArgumentTypeError(f"expected First>Second=value, got {text!r}")
    return _parse_group(head), value


def _parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like start:end:step, got {text!r}")
    try:
        return tuple(exact_rational(p, "grid value") for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_profile(args: argparse.Namespace) -> tuple[CondensedProfile, bytes]:
    with open(args.file, "rb") as f:
        data = f.read()
    extension = args.file[args.file.rfind("."):]
    fmt = args.input_format or {".json": "raw", ".csv": "condensed"}.get(extension)
    if fmt is None:
        raise ParseError(f"cannot infer input format of {args.file!r}; pass --input-format")
    return (_ingest_module.ingest_raw if fmt == "raw" else parse_condensed)(data), data


def _provenance(argv: Sequence[str], data: bytes) -> str:
    import hashlib  # only table output carries the digest

    digest = hashlib.sha256(data).hexdigest()
    return f"# input sha256={digest} command={' '.join(argv)} version={__version__}"


def _scenario_rates(args: argparse.Namespace,
                    profile: CondensedProfile) -> dict[approval.Group, object]:
    flag = "s" if args.command == "star" else "p"
    rates: dict[approval.Group, object] = {}
    uniform = getattr(args, flag)
    if uniform is not None:
        value = exact_rational(uniform, f"--{flag}")
        rates = {g: value for g in profile.ranking_groups()}
    given: set[approval.Group] = set()
    for group, raw in getattr(args, f"{flag}_group") or []:
        if group in given:
            raise ValueError(f"--{flag}-group repeats group {group[0]}>{group[1]}")
        given.add(group)
        rates[group] = exact_rational(raw, f"--{flag}-group")
    return rates


def _items(title: str, rows, notes: Sequence[str] = ()) -> Report:
    """A two-column ``item``/``value`` report."""
    return Report(title, (Column("item"), Column("value")), list(rows), list(notes))


# -- builders: (args, profile) -> Report or finished bytes ----------------


def _ingest(args: argparse.Namespace, profile: CondensedProfile) -> bytes:
    later = sum(n for prefs, n in profile.full.items() if len(prefs) > 2)
    if later:  # the CSV keeps two choices per ranking
        print(f"warning: {later} {'ballot ranks' if later == 1 else 'ballots rank'} a "
              "candidate after the second choice; the first-and-second-choice profile drops "
              "those later choices", file=sys.stderr)
    return write_condensed(profile)


def _irv(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    outcome = irv.tabulate_irv(profile)
    shares = irv.irv_percentages(outcome)

    report = Report(
        title="Instant-runoff rounds",
        columns=(
            Column("round", "int"),
            Column("candidate"),
            Column("votes", "int"),
            Column("share_active", "percent"),
            Column("share_round1", "percent"),
            Column("transfers_in", "int"),
            Column("exhausted_this_round", "int"),
            Column("active_ballots", "int"),
            Column("status"),
        ),
    )
    for rnd, share in zip(outcome.rounds, shares):
        for c, votes in rnd.tallies.items():
            if rnd.eliminated == c:
                status = "eliminated"
            elif rnd.eliminated is None and c == outcome.winner:
                status = "winner"
            else:
                status = "continuing"
            report.add(
                rnd.round_index, c, votes,
                share.of_active[c], share.of_round1[c],
                rnd.transfers.get(c, 0), rnd.exhausted_this_round,
                rnd.active_ballots, status,
            )
    report.notes.append(
        f"winner: {outcome.winner} with {percent_string(shares[-1].of_active[outcome.winner])} "
        f"of round-{outcome.rounds[-1].round_index} active ballots"
    )
    report.notes.append(f"invalid overvote ballots excluded: {outcome.invalid_overvotes}")
    return report


def _pairwise(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    tally = condorcet.pairwise_tallies(profile, args.basis)

    report = Report(
        title=f"Head-to-head tallies ({args.basis})",
        columns=(
            Column("candidate_a"),
            Column("candidate_b"),
            Column("prefers_a", "int"),
            Column("prefers_b", "int"),
            Column("no_preference", "int"),
            Column("share_a", "percent"),
            Column("share_b", "percent"),
        ),
    )
    for a, b in profile.candidate_pairs():
        share_a = tally.pair_share(a, b)
        share_b = tally.pair_share(b, a)
        report.add(
            a, b, tally.prefers[(a, b)], tally.prefers[(b, a)],
            tally.no_preference[frozenset((a, b))],
            "" if share_a is None else share_a,
            "" if share_b is None else share_b,
        )
    report.notes.append(f"ballots in basis: {tally.total}")
    return report


def _condorcet(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    result = condorcet.condorcet_winner_loser(
        condorcet.pairwise_tallies(profile, condorcet.RANKED_ONLY)
    )
    return _items("Condorcet analysis (ranked-only)", [
        ("condorcet_winner", result.winner or "(none)"),
        ("condorcet_loser", result.loser or "(none)"),
        *((f"share {x} vs {y}", Cell(share, "percent"))
          for (x, y), share in result.margins.items()),
    ])


def _squeeze(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    diag = condorcet.detect_center_squeeze(profile)
    eliminated = diag.condorcet_winner_eliminated_in_round
    return _items("Center-squeeze diagnostic", [
        ("squeezed", "true" if diag.squeezed else "false"),
        ("condorcet_winner", diag.condorcet_winner or "(none)"),
        ("irv_winner", diag.irv_winner),
        ("condorcet_winner_eliminated_in_round",
         Cell(eliminated, "int") if eliminated is not None else "(never)"),
    ])


def _range(args: argparse.Namespace, profile: CondensedProfile) -> Report | bytes:
    """``approval range`` and ``star range``."""
    if args.plot_data and args.format not in (None, CSV):
        raise ValueError(f"--plot-data writes CSV and cannot take --format {args.format}")
    is_star = args.command == "star"
    if is_star:
        rng, title = star.star_range(profile), "STAR voting: possible score ranges"
    else:
        rng, title = approval.approval_range(profile), "Approval voting: possible vote ranges"
    if args.plot_data:
        return emit_range_plot_data(rng.minimum, profile, star=is_star)
    return Report(title, (Column("candidate"), Column("min", "int"), Column("max", "int")),
                  [(c, rng.minimum[c], rng.maximum[c]) for c in profile.candidates])


def _sweep(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    """``approval sweep`` and ``star sweep``."""
    start, end, step = args.grid
    if args.command == "star":
        points = star.sweep_star(profile, step, start=start, end=end)
        title, column = "STAR voting: uniform-rating sweep", Column("s", "decimal2")
    else:
        points = approval.sweep_uniform(profile, step, start=start, end=end)
        title, column = "Approval voting: uniform-rate sweep", Column("p", "decimal4")
    return Report(title, (column, Column("winner")), [(t, "|".join(w)) for t, w in points])


def _approval_eval(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    scenario = approval.ApprovalScenario.for_profile(profile, _scenario_rates(args, profile))
    outcome = approval.evaluate_approval(profile, scenario)
    return _items("Approval voting: scenario outcome", [
        *((f"score {c}", Cell(outcome.scores[c], "decimal2")) for c in profile.candidates),
        ("winner", "|".join(outcome.winners)),
        ("mean_approvals_ranking_voters", Cell(outcome.mean_approvals_ranking_voters, "decimal3")),
        ("mean_approvals_all_voters", Cell(outcome.mean_approvals_all_voters, "decimal3")),
    ])


def _approval_threshold(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    p = approval.uniform_threshold(profile, args.riser, args.leader)
    if p is None:
        raise UnattainableError(
            f"{args.riser} cannot catch {args.leader} at any uniform "
            "second-choice approval rate in [0, 1]"
        )
    outcome = approval.evaluate_approval(profile, approval.ApprovalScenario.uniform(profile, p))
    return _items("Approval voting: uniform crossover threshold", [
        ("riser", args.riser),
        ("leader", args.leader),
        ("threshold_p", Cell(p, "decimal4")),
        ("mean_approvals_ranking_voters", Cell(outcome.mean_approvals_ranking_voters, "decimal3")),
        ("mean_approvals_all_voters", Cell(outcome.mean_approvals_all_voters, "decimal3")),
    ], notes=[
        f"p* = {fraction_token(p)} ≈ {decimal_string(p, 4)} "
        f"(≈ {decimal_string(outcome.mean_approvals_ranking_voters, 3)} "
        "approvals per ranking voter)"
    ])


def _approval_clinch(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    needed = approval.min_second_votes_to_clinch(profile, args.candidate, args.group)
    rng = approval.approval_range(profile)
    return _items("Approval voting: clinch requirement", [
        ("candidate", args.candidate),
        ("group", f"{args.group[0]}>{args.group[1]}"),
        ("group_size", Cell(profile.full_count(*args.group), "int")),
        ("required_votes", Cell(needed, "int")),
        ("guaranteed_total", Cell(rng.minimum[args.candidate] + needed, "int")),
        ("best_rival_maximum",
         Cell(max(n for c, n in rng.maximum.items() if c != args.candidate), "int")),
    ])


def _star_eval(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    scenario = star.StarScenario.for_profile(profile, _scenario_rates(args, profile))
    outcome = star.evaluate_star(profile, scenario)
    return _items("STAR voting: scenario outcome", [
        *((f"score {c}", Cell(outcome.scores[c], "decimal2")) for c in profile.candidates),
        ("finalists", "|".join(outcome.finalists)),
        *((f"runoff {c}", Cell(outcome.runoff_tallies[c], "int")) for c in outcome.finalists),
        ("runoff_no_preference", Cell(outcome.runoff_no_preference, "int")),
        ("winner", "|".join(outcome.winners)),
    ])


def _star_threshold(args: argparse.Namespace, profile: CondensedProfile) -> Report:
    result = star.uniform_star_threshold(profile, args.guaranteed, args.rival)
    return _items("STAR voting: guaranteed-berth threshold", [
        ("guaranteed", args.guaranteed),
        ("rival", args.rival),
        ("threshold_stars", Cell(result.stars, "decimal2")),
        ("achieved_score", Cell(result.achieved_score, "decimal2")),
        ("rival_maximum", Cell(result.rival_maximum, "int")),
    ], notes=[
        f"s = {decimal_string(result.stars, 2)} → score "
        f"{decimal_string(result.achieved_score, 2)} > rival maximum {result.rival_maximum}"
    ])


# -- the command table ---------------------------------------------------


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """The arguments of one ``add_argument`` call."""
    return names, kwargs


_FILE = _flag("file", help="condensed profile (.csv) or raw cast-vote-record (.json)")
_INPUT_FORMAT = _flag("--input-format", choices=("raw", "condensed"),
                      help="override input detection by file extension")
_FORMAT = _flag("--format", choices=FORMATS, help=f"output format (default: {TABLE})")
_OUT = _flag("--out", help="write to this path instead of standard output")
_IO = (_FILE, _INPUT_FORMAT, _FORMAT, _OUT)
_PLOT_DATA = _flag("--plot-data", action="store_true",
                   help="emit long-form CSV segments for a range chart instead of a table")

#: One row per command: path, help text, builder, then its flags in
#: ``--help`` order.  A row without a builder opens a group of subcommands.
COMMANDS = (
    ("ingest", "normalize a ballot file into a condensed profile CSV", _ingest,
     _FILE, _INPUT_FORMAT, _OUT),
    ("irv", "instant-runoff rounds, transfers, and winner", _irv, *_IO),
    ("pairwise", "head-to-head tallies for every candidate pair", _pairwise, *_IO,
     # Literal values of condorcet.RANKED_ONLY and INCLUDE_TIES: building
     # the parser must not load the condorcet module.
     _flag("--basis", choices=("ranked-only", "include-ties"), default="ranked-only",
           help="whether two-way top overvotes count toward the pair members")),
    ("condorcet", "Condorcet winner/loser and pair margins", _condorcet, *_IO),
    ("squeeze", "was the Condorcet winner eliminated early?", _squeeze, *_IO),
    ("approval", "approval-voting counterfactual model", None),
    ("approval range", "minimum/maximum possible votes per candidate", _range,
     *_IO, _PLOT_DATA),
    ("approval eval", "scores and winner under a behavior scenario", _approval_eval, *_IO,
     _flag("--p", help="uniform second-choice approval rate (rational or decimal)"),
     _flag("--p-group", action="append", type=_parse_group_assignment,
           metavar="FIRST>SECOND=RATE", help="per-group rate; repeatable")),
    ("approval threshold", "uniform rate at which a riser catches the leader",
     _approval_threshold, *_IO,
     _flag("--riser", required=True, help="candidate trying to catch up"),
     _flag("--leader", required=True, help="candidate currently ahead")),
    ("approval clinch", "second-choice votes from one group that guarantee victory",
     _approval_clinch, *_IO,
     _flag("--candidate", required=True),
     _flag("--group", required=True, type=_parse_group, metavar="FIRST>SECOND",
           help="source group; its second choice must be the candidate")),
    ("approval sweep", "winner at every uniform rate on a grid", _sweep, *_IO,
     _flag("--grid", type=_parse_grid, default=(Fraction(0), Fraction(1), Fraction(1, 100)),
           metavar="START:END:STEP", help="default 0:1:0.01")),
    ("star", "STAR-voting counterfactual model", None),
    ("star range", "minimum/maximum possible scores per candidate", _range,
     *_IO, _PLOT_DATA),
    ("star eval", "score round, finalists, and runoff under a scenario", _star_eval, *_IO,
     _flag("--s", help="uniform second-choice star rating in [1,4]"),
     _flag("--s-group", action="append", type=_parse_group_assignment,
           metavar="FIRST>SECOND=STARS", help="per-group rating; repeatable")),
    ("star threshold", "rating that locks a candidate past a rival's maximum",
     _star_threshold, *_IO,
     _flag("--guaranteed", required=True, help="candidate locking in the runoff berth"),
     _flag("--rival", required=True, help="rival whose maximum must be beaten")),
    ("star sweep", "winner at every uniform rating on a grid", _sweep, *_IO,
     _flag("--grid", type=_parse_grid, default=(Fraction(1), Fraction(4), Fraction(1, 100)),
           metavar="START:END:STEP", help="default 1:4:0.01")),
)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The rows on the longest command path ``argv`` starts with, flags only on
    its last, and every row below it, so that ``--help`` and an invalid choice
    list a group's (or, with no command named, every) command."""
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
