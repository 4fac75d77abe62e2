"""Command-line interface.

Grammar: ``ballotlab <command> <profile-or-raw-file> [flags]``.  Input
files are auto-detected by extension (``.json`` raw cast-vote-record,
``.csv`` condensed profile) unless ``--input-format`` overrides.

Exit codes: 0 success; 1 domain error (decisive tie, unattainable
threshold, no valid ranked ballot to tabulate); 2 usage or parse
error.  Machine output formats are byte-deterministic; the table
format appends a provenance footer.

The model modules are imported lazily (see the package docstring), so a
command executes only the model it calls, e.g. ``irv`` runs none of the
approval, STAR or Condorcet code; ``hashlib`` is imported only for the
table footer's digest.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__, approval, condorcet, irv, star
from .core import CondensedProfile
from .errors import (
    DecisiveTieError,
    MalformedBallotError,
    NoValidBallotsError,
    ParseError,
    UnattainableError,
)
from .ingest import ingest, parse_condensed, parse_raw, write_condensed
from .rational import decimal_string, exact_rational, fraction_token
from .report import (
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
    """Parse arguments, dispatch, and stream the result."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        output = args.handler(args, list(argv))
    except (DecisiveTieError, UnattainableError, NoValidBallotsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, MalformedBallotError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        Path(args.out).write_bytes(output)
    else:
        sys.stdout.buffer.write(output)
        sys.stdout.buffer.flush()
    return 0


# -- argument plumbing ---------------------------------------------------


def _parse_group(text: str) -> approval.Group:
    first, sep, second = text.partition(">")
    if not sep or not first or not second:
        raise ValueError(f"group must look like First>Second, got {text!r}")
    return first, second


def _parse_group_assignment(text: str) -> tuple[approval.Group, str]:
    head, sep, value = text.partition("=")
    if not sep or not value:
        raise ValueError(f"expected First>Second=value, got {text!r}")
    return _parse_group(head), value


def _parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:end:step, got {text!r}")
    start, end, step = (exact_rational(p, "grid value") for p in parts)
    return start, end, step


def _add_io_arguments(parser: argparse.ArgumentParser, *, formats: bool = True) -> None:
    parser.add_argument("file", help="condensed profile (.csv) or raw cast-vote-record (.json)")
    parser.add_argument(
        "--input-format", choices=("raw", "condensed"),
        help="override input detection by file extension",
    )
    if formats:
        parser.add_argument("--format", choices=FORMATS, default=TABLE, help="output format")
    parser.add_argument("--out", help="write to this path instead of standard output")


def _load_profile(args: argparse.Namespace) -> tuple[CondensedProfile, bytes]:
    data = Path(args.file).read_bytes()
    fmt = args.input_format
    if fmt is None:
        if args.file.endswith(".json"):
            fmt = "raw"
        elif args.file.endswith(".csv"):
            fmt = "condensed"
        else:
            raise ParseError(
                f"cannot infer input format of {args.file!r}; pass --input-format"
            )
    if fmt == "raw":
        return ingest(parse_raw(data)), data
    return parse_condensed(data), data


def _provenance(args: argparse.Namespace, argv: list[str], data: bytes) -> str:
    import hashlib  # only table output carries the digest

    digest = hashlib.sha256(data).hexdigest()
    return f"# input sha256={digest} command={' '.join(argv)} version={__version__}"


def _finish(report: Report, args: argparse.Namespace, argv: list[str], data: bytes) -> bytes:
    if getattr(args, "format", TABLE) == TABLE:
        report.notes.append(_provenance(args, argv, data))
    return emit_table(report, getattr(args, "format", TABLE))


def _names(winners: tuple[str, ...]) -> str:
    return "|".join(winners)


def _scenario_rates(args: argparse.Namespace, profile: CondensedProfile,
                    uniform_flag: str, group_flag: str) -> dict[approval.Group, object]:
    rates: dict[approval.Group, object] = {}
    uniform = getattr(args, uniform_flag)
    if uniform is not None:
        value = exact_rational(uniform, f"--{uniform_flag}")
        rates = {g: value for g in profile.ranking_groups()}
    for group, raw in getattr(args, group_flag) or []:
        rates[group] = exact_rational(raw, f"--{group_flag.replace('_', '-')}")
    return rates


# -- command handlers ----------------------------------------------------


def _cmd_ingest(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, _ = _load_profile(args)
    return write_condensed(profile)


def _cmd_irv(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
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
        for c in profile.candidates:
            if c not in rnd.tallies:
                continue
            if rnd.eliminated == c:
                status = "eliminated"
            elif rnd.eliminated is None and c == outcome.winner:
                status = "winner"
            else:
                status = "continuing"
            report.add(
                rnd.round_index, c, rnd.tallies[c],
                share.of_active[c], share.of_round1[c],
                rnd.transfers.get(c, 0), rnd.exhausted_this_round,
                rnd.active_ballots, status,
            )
    final = outcome.rounds[-1]
    report.notes.append(
        f"winner: {outcome.winner} with "
        f"{decimal_string(Fraction(final.tallies[outcome.winner] * 100, final.active_ballots), 2)}% "
        f"of round-{final.round_index} active ballots"
    )
    report.notes.append(f"invalid overvote ballots excluded: {outcome.invalid_overvotes}")
    return _finish(report, args, argv, data)


def _cmd_pairwise(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
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
            Cell("", "text") if share_a is None else share_a,
            Cell("", "text") if share_b is None else share_b,
        )
    report.notes.append(f"ballots in basis: {tally.total}")
    return _finish(report, args, argv, data)


def _cmd_condorcet(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    result = condorcet.condorcet_winner_loser(
        condorcet.pairwise_tallies(profile, condorcet.RANKED_ONLY)
    )

    report = Report(
        title="Condorcet analysis (ranked-only)",
        columns=(Column("item"), Column("value")),
    )
    report.add("condorcet_winner", result.winner or "(none)")
    report.add("condorcet_loser", result.loser or "(none)")
    for a, b in profile.candidate_pairs():
        for x, y in ((a, b), (b, a)):
            if (x, y) in result.margins:
                report.add(f"share {x} vs {y}", Cell(result.margins[(x, y)], "percent"))
    return _finish(report, args, argv, data)


def _cmd_squeeze(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    diag = condorcet.detect_center_squeeze(profile)

    report = Report(
        title="Center-squeeze diagnostic",
        columns=(Column("item"), Column("value")),
    )
    report.add("squeezed", "true" if diag.squeezed else "false")
    report.add("condorcet_winner", diag.condorcet_winner or "(none)")
    report.add("irv_winner", diag.irv_winner)
    eliminated = diag.condorcet_winner_eliminated_in_round
    report.add(
        "condorcet_winner_eliminated_in_round",
        Cell(eliminated, "int") if eliminated is not None else "(never)",
    )
    return _finish(report, args, argv, data)


def _range_report(title: str, minimum: dict[str, int], maximum: dict[str, int],
                  profile: CondensedProfile) -> Report:
    report = Report(
        title=title,
        columns=(Column("candidate"), Column("min", "int"), Column("max", "int")),
    )
    for c in profile.candidates:
        report.add(c, minimum[c], maximum[c])
    return report


def _cmd_approval_range(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    rng = approval.approval_range(profile)
    if args.plot_data:
        return emit_range_plot_data(rng.minimum, profile, star=False)
    report = _range_report("Approval voting: possible vote ranges", rng.minimum, rng.maximum, profile)
    return _finish(report, args, argv, data)


def _cmd_approval_eval(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    scenario = approval.ApprovalScenario.for_profile(
        profile, _scenario_rates(args, profile, "p", "p_group")
    )
    outcome = approval.evaluate_approval(profile, scenario)

    report = Report(
        title="Approval voting: scenario outcome",
        columns=(Column("item"), Column("value")),
    )
    for c in profile.candidates:
        report.add(f"score {c}", Cell(outcome.scores[c], "decimal2"))
    report.add("winner", _names(outcome.winners))
    report.add("mean_approvals_ranking_voters", Cell(outcome.mean_approvals_ranking_voters, "decimal3"))
    report.add("mean_approvals_all_voters", Cell(outcome.mean_approvals_all_voters, "decimal3"))
    return _finish(report, args, argv, data)


def _cmd_approval_threshold(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    p = approval.uniform_threshold(profile, args.riser, args.leader)
    if p is None:
        raise UnattainableError(
            f"{args.riser} cannot catch {args.leader} at any uniform "
            "second-choice approval rate in [0, 1]"
        )
    outcome = approval.evaluate_approval(profile, approval.ApprovalScenario.uniform(profile, p))

    report = Report(
        title="Approval voting: uniform crossover threshold",
        columns=(Column("item"), Column("value")),
    )
    report.add("riser", args.riser)
    report.add("leader", args.leader)
    report.add("threshold_p", Cell(p, "decimal4"))
    report.add("mean_approvals_ranking_voters", Cell(outcome.mean_approvals_ranking_voters, "decimal3"))
    report.add("mean_approvals_all_voters", Cell(outcome.mean_approvals_all_voters, "decimal3"))
    report.notes.append(
        f"p* = {fraction_token(p)} ≈ {decimal_string(p, 4)} "
        f"(≈ {decimal_string(outcome.mean_approvals_ranking_voters, 3)} "
        "approvals per ranking voter)"
    )
    return _finish(report, args, argv, data)


def _cmd_approval_clinch(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    needed = approval.min_second_votes_to_clinch(profile, args.candidate, args.group)
    rng = approval.approval_range(profile)

    report = Report(
        title="Approval voting: clinch requirement",
        columns=(Column("item"), Column("value")),
    )
    report.add("candidate", args.candidate)
    report.add("group", f"{args.group[0]}>{args.group[1]}")
    report.add("group_size", Cell(profile.full_count(*args.group), "int"))
    report.add("required_votes", Cell(needed, "int"))
    report.add("guaranteed_total", Cell(rng.minimum[args.candidate] + needed, "int"))
    report.add(
        "best_rival_maximum",
        Cell(max(n for c, n in rng.maximum.items() if c != args.candidate), "int"),
    )
    return _finish(report, args, argv, data)


def _cmd_approval_sweep(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    start, end, step = args.grid
    points = approval.sweep_uniform(profile, step, start=start, end=end)

    report = Report(
        title="Approval voting: uniform-rate sweep",
        columns=(Column("p", "decimal4"), Column("winner")),
    )
    for p, winners in points:
        report.add(p, _names(winners))
    return _finish(report, args, argv, data)


def _cmd_star_range(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    rng = star.star_range(profile)
    if args.plot_data:
        return emit_range_plot_data(rng.minimum, profile, star=True)
    report = _range_report("STAR voting: possible score ranges", rng.minimum, rng.maximum, profile)
    return _finish(report, args, argv, data)


def _cmd_star_eval(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    scenario = star.StarScenario.for_profile(profile, _scenario_rates(args, profile, "s", "s_group"))
    outcome = star.evaluate_star(profile, scenario)

    report = Report(
        title="STAR voting: scenario outcome",
        columns=(Column("item"), Column("value")),
    )
    for c in profile.candidates:
        report.add(f"score {c}", Cell(outcome.scores[c], "decimal2"))
    report.add("finalists", _names(outcome.finalists))
    for c in outcome.finalists:
        report.add(f"runoff {c}", Cell(outcome.runoff_tallies[c], "int"))
    report.add("runoff_no_preference", Cell(outcome.runoff_no_preference, "int"))
    report.add("winner", _names(outcome.winners))
    return _finish(report, args, argv, data)


def _cmd_star_threshold(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    result = star.uniform_star_threshold(profile, args.guaranteed, args.rival)

    report = Report(
        title="STAR voting: guaranteed-berth threshold",
        columns=(Column("item"), Column("value")),
    )
    report.add("guaranteed", args.guaranteed)
    report.add("rival", args.rival)
    report.add("threshold_stars", Cell(result.stars, "decimal2"))
    report.add("achieved_score", Cell(result.achieved_score, "decimal2"))
    report.add("rival_maximum", Cell(result.rival_maximum, "int"))
    report.notes.append(
        f"s = {decimal_string(result.stars, 2)} → score "
        f"{decimal_string(result.achieved_score, 2)} > rival maximum {result.rival_maximum}"
    )
    return _finish(report, args, argv, data)


def _cmd_star_sweep(args: argparse.Namespace, argv: list[str]) -> bytes:
    profile, data = _load_profile(args)
    start, end, step = args.grid
    points = star.sweep_star(profile, step, start=start, end=end)

    report = Report(
        title="STAR voting: uniform-rating sweep",
        columns=(Column("s", "decimal2"), Column("winner")),
    )
    for s, winners in points:
        report.add(s, _names(winners))
    return _finish(report, args, argv, data)


# -- parser --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballotlab",
        description="Tabulate ranked-ballot profiles: instant runoff, head-to-head "
                    "contests, and approval/STAR counterfactual models.",
    )
    parser.add_argument("--version", action="version", version=f"ballotlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", help="normalize a ballot file into a condensed profile CSV")
    _add_io_arguments(p, formats=False)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("irv", help="instant-runoff rounds, transfers, and winner")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_irv)

    p = sub.add_parser("pairwise", help="head-to-head tallies for every candidate pair")
    _add_io_arguments(p)
    p.add_argument(
        # Literal values of condorcet.RANKED_ONLY and INCLUDE_TIES: building
        # the parser must not load the condorcet module.
        "--basis", choices=("ranked-only", "include-ties"), default="ranked-only",
        help="whether two-way top overvotes count toward the pair members",
    )
    p.set_defaults(handler=_cmd_pairwise)

    p = sub.add_parser("condorcet", help="Condorcet winner/loser and pair margins")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_condorcet)

    p = sub.add_parser("squeeze", help="was the Condorcet winner eliminated early?")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_squeeze)

    p = sub.add_parser("approval", help="approval-voting counterfactual model")
    asub = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = asub.add_parser("range", help="minimum/maximum possible votes per candidate")
    _add_io_arguments(p)
    p.add_argument("--plot-data", action="store_true",
                   help="emit long-form CSV segments for a range chart instead of a table")
    p.set_defaults(handler=_cmd_approval_range)

    p = asub.add_parser("eval", help="scores and winner under a behavior scenario")
    _add_io_arguments(p)
    p.add_argument("--p", help="uniform second-choice approval rate (rational or decimal)")
    p.add_argument("--p-group", action="append", type=_parse_group_assignment,
                   metavar="FIRST>SECOND=RATE", help="per-group rate; repeatable")
    p.set_defaults(handler=_cmd_approval_eval)

    p = asub.add_parser("threshold", help="uniform rate at which a riser catches the leader")
    _add_io_arguments(p)
    p.add_argument("--riser", required=True, help="candidate trying to catch up")
    p.add_argument("--leader", required=True, help="candidate currently ahead")
    p.set_defaults(handler=_cmd_approval_threshold)

    p = asub.add_parser("clinch", help="second-choice votes from one group that guarantee victory")
    _add_io_arguments(p)
    p.add_argument("--candidate", required=True)
    p.add_argument("--group", required=True, type=_parse_group, metavar="FIRST>SECOND",
                   help="source group; its second choice must be the candidate")
    p.set_defaults(handler=_cmd_approval_clinch)

    p = asub.add_parser("sweep", help="winner at every uniform rate on a grid")
    _add_io_arguments(p)
    p.add_argument("--grid", type=_parse_grid, default=(Fraction(0), Fraction(1), Fraction(1, 100)),
                   metavar="START:END:STEP", help="default 0:1:0.01")
    p.set_defaults(handler=_cmd_approval_sweep)

    p = sub.add_parser("star", help="STAR-voting counterfactual model")
    ssub = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = ssub.add_parser("range", help="minimum/maximum possible scores per candidate")
    _add_io_arguments(p)
    p.add_argument("--plot-data", action="store_true",
                   help="emit long-form CSV segments for a range chart instead of a table")
    p.set_defaults(handler=_cmd_star_range)

    p = ssub.add_parser("eval", help="score round, finalists, and runoff under a scenario")
    _add_io_arguments(p)
    p.add_argument("--s", help="uniform second-choice star rating in [1,4]")
    p.add_argument("--s-group", action="append", type=_parse_group_assignment,
                   metavar="FIRST>SECOND=STARS", help="per-group rating; repeatable")
    p.set_defaults(handler=_cmd_star_eval)

    p = ssub.add_parser("threshold", help="rating that locks a candidate past a rival's maximum")
    _add_io_arguments(p)
    p.add_argument("--guaranteed", required=True, help="candidate locking in the runoff berth")
    p.add_argument("--rival", required=True, help="rival whose maximum must be beaten")
    p.set_defaults(handler=_cmd_star_threshold)

    p = ssub.add_parser("sweep", help="winner at every uniform rating on a grid")
    _add_io_arguments(p)
    p.add_argument("--grid", type=_parse_grid, default=(Fraction(1), Fraction(4), Fraction(1, 100)),
                   metavar="START:END:STEP", help="default 1:4:0.01")
    p.set_defaults(handler=_cmd_star_sweep)

    return parser
