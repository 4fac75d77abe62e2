"""Acceptance criteria, one test per criterion.

Each test prints a ``criterion N PASS`` line after its assertions, so
running ``pytest tests/test_acceptance.py -s`` yields one line per
criterion.  Tolerances are pinned in the assertions themselves; the
exact expected integers come from the published condensed counts in
``fixtures/alaska_special_2022.condensed.csv``.
"""

import random
from fractions import Fraction

import pytest

from ballotlab import (
    INCLUDE_TIES,
    RANKED_ONLY,
    ApprovalScenario,
    DecisiveTieError,
    StarScenario,
    condense,
    condorcet_winner_loser,
    detect_center_squeeze,
    evaluate_approval,
    evaluate_star,
    min_second_votes_to_clinch,
    pairwise_tallies,
    parse_condensed,
    sweep_star,
    sweep_uniform,
    tabulate_irv,
    uniform_star_threshold,
    uniform_threshold,
    write_condensed,
)
from ballotlab.cli import run
from ballotlab.rational import percent_string

from .oracles import (
    brute_approval,
    brute_pairwise,
    brute_star_runoff,
    brute_star_scores,
    expand,
    random_profile,
)

GROUPS = tuple((a, b) for a in ("A", "B", "C") for b in ("A", "B", "C") if a != b)


@pytest.fixture
def fixture(alaska_csv) -> str:
    return str(alaska_csv)


def cli(capsys, *argv: str) -> str:
    assert run(list(argv)) == 0
    return capsys.readouterr().out


def test_criterion_1_approval_range_exact(capsys, fixture):
    out = cli(capsys, "approval", "range", fixture, "--format", "csv")
    assert out == (
        "candidate,min,max\n"
        "Begich,54157,135703\n"
        "Palin,59055,91040\n"
        "Peltola,75895,95150\n"
    )
    print("criterion 1 PASS: approval ranges exact "
          "(54157/135703, 59055/91040, 75895/95150)")


def test_criterion_2_star_range_exact(capsys, fixture):
    out = cli(capsys, "star", "range", fixture, "--format", "csv")
    assert out == (
        "candidate,min,max\n"
        "Begich,352331,596969\n"
        "Palin,327260,423215\n"
        "Peltola,398730,456495\n"
    )
    print("criterion 2 PASS: STAR score ranges exact "
          "(352331/596969, 327260/423215, 398730/456495)")


def test_criterion_3_pairwise_exact(capsys, fixture, alaska_profile):
    tally = pairwise_tallies(alaska_profile, RANKED_ONLY)
    assert tally.prefers[("Begich", "Palin")] == 101438
    assert tally.prefers[("Palin", "Begich")] == 63666
    assert tally.prefers[("Begich", "Peltola")] == 88126
    assert tally.prefers[("Peltola", "Begich")] == 79486
    assert tally.prefers[("Palin", "Peltola")] == 86197
    assert tally.prefers[("Peltola", "Palin")] == 91375

    assert percent_string(tally.pair_share("Begich", "Palin")) == "61.44%"
    assert percent_string(tally.pair_share("Begich", "Peltola")) == "52.58%"
    assert percent_string(tally.pair_share("Peltola", "Palin")) == "51.46%"
    table = cli(capsys, "pairwise", fixture)
    for shown in ("61.44%", "52.58%", "51.46%"):
        assert shown in table

    report = condorcet_winner_loser(tally)
    assert report.winner == "Begich"
    assert report.loser == "Palin"
    print("criterion 3 PASS: six pairwise tallies exact; displayed shares "
          "61.44%/52.58%/51.46%; Condorcet winner Begich, loser Palin")


def test_criterion_4_irv_rounds(alaska_profile):
    outcome = tabulate_irv(alaska_profile)
    first, final = outcome.rounds
    assert first.tallies == {"Begich": 54009, "Palin": 58939, "Peltola": 75803}
    assert first.eliminated == "Begich"
    assert final.transfers == {"Palin": 27258, "Peltola": 15572}
    assert final.exhausted_this_round == 11179
    assert final.tallies == {"Palin": 86197, "Peltola": 91375}
    assert outcome.winner == "Peltola"
    share = Fraction(final.tallies["Peltola"], final.active_ballots)
    assert percent_string(share) == "51.46%"
    print("criterion 4 PASS: IRV rounds {54009,58939,75803} -> Begich out, "
          "transfers +27258/+15572, 11179 exhausted, final 86197/91375, "
          "Peltola wins with 51.46%")


def test_criterion_5_approval_threshold(alaska_profile):
    p_star = uniform_threshold(alaska_profile, "Begich", "Peltola")
    assert p_star == Fraction(21738, 62291)
    assert abs(p_star - Fraction(3490, 10000)) <= Fraction(1, 10000)

    outcome = evaluate_approval(
        alaska_profile, ApprovalScenario.uniform(alaska_profile, p_star)
    )
    mean = outcome.mean_approvals_ranking_voters
    assert abs(mean - Fraction(1349, 1000)) <= Fraction(1, 1000)

    points = sweep_uniform(alaska_profile, Fraction(1, 100))
    assert len(points) == 101
    assert all("Palin" not in winners for _, winners in points)
    print("criterion 5 PASS: p* = 21738/62291 (0.3490 +- 0.0001), "
          "1.349 approvals per ranking voter; 0.01-step sweep never elects Palin")


def test_criterion_6_clinch_bound(alaska_profile):
    needed = min_second_votes_to_clinch(alaska_profile, "Begich", ("Peltola", "Begich"))
    assert needed == 40994
    print("criterion 6 PASS: Begich clinches with exactly 40994 votes "
          "from the Peltola>Begich group")


def test_criterion_7_star_threshold_and_sweep(alaska_profile):
    result = uniform_star_threshold(alaska_profile, "Begich", "Palin")
    assert result.stars == Fraction(187, 100)
    assert result.achieved_score > 423215

    floor = evaluate_star(alaska_profile, StarScenario.uniform(alaska_profile, 1))
    assert floor.finalists == ("Begich", "Peltola")
    assert floor.winners == ("Begich",)

    points = sweep_star(alaska_profile, Fraction(1, 100))
    assert len(points) == 301
    assert all(winners == ("Begich",) for _, winners in points)
    print("criterion 7 PASS: 1.87-star threshold beats Palin's maximum 423215; "
          "floor scenario elects Begich; 0.01-step sweep over [1,4] always "
          "elects Begich, never Palin")


def test_criterion_8_center_squeeze(alaska_profile):
    diag = detect_center_squeeze(alaska_profile)
    assert diag.squeezed is True
    assert diag.condorcet_winner == "Begich"
    assert diag.condorcet_winner_eliminated_in_round == 1
    assert diag.irv_winner == "Peltola"
    print("criterion 8 PASS: center squeeze detected (Condorcet winner Begich "
          "eliminated in round 1; IRV winner Peltola)")


def test_criterion_9_property_suites():
    rng = random.Random(20220816)

    # (a) oracle equivalence on 1,000 random profiles of <= 100 ballots
    star_ties = 0
    for _ in range(1000):
        profile = random_profile(rng, max_ballots=100)

        include = rng.random() < 0.5
        tally = pairwise_tallies(profile, INCLUDE_TIES if include else RANKED_ONLY)
        prefers, no_preference, total = brute_pairwise(profile, include)
        assert tally.prefers == prefers
        assert tally.no_preference == no_preference
        assert tally.total == total

        flags = {g: rng.random() < 0.5 for g in GROUPS}
        scenario = ApprovalScenario({g: Fraction(int(v)) for g, v in flags.items()})
        approval = evaluate_approval(profile, scenario)
        votes = brute_approval(profile, flags)
        assert approval.scores == votes
        top = max(votes.values())
        assert set(approval.winners) == {c for c, v in votes.items() if v == top}

        stars = {g: rng.randint(1, 4) for g in GROUPS}
        expected_scores = brute_star_scores(profile, stars)
        try:
            star = evaluate_star(
                profile, StarScenario({g: Fraction(v) for g, v in stars.items()})
            )
        except DecisiveTieError:
            ordered = sorted(expected_scores.values(), reverse=True)
            assert ordered[1] == ordered[2]
            star_ties += 1
            continue
        assert star.scores == expected_scores
        a, b = star.finalists
        votes_a, votes_b, no_pref = brute_star_runoff(profile, stars, a, b)
        assert star.runoff_tallies == {a: votes_a, b: votes_b}
        assert star.runoff_no_preference == no_pref
        others = [c for c in profile.candidates if c not in star.finalists]
        assert all(expected_scores[c] <= min(expected_scores[a], expected_scores[b])
                   for c in others)
    assert star_ties < 500  # ties must stay the exception, not the rule

    # (b) linearity and monotonicity of the behavioral models
    for _ in range(200):
        profile = random_profile(rng, max_ballots=60)
        p, q = Fraction(rng.randint(0, 100), 100), Fraction(rng.randint(0, 100), 100)
        lo = evaluate_approval(profile, ApprovalScenario.uniform(profile, p)).scores
        hi = evaluate_approval(profile, ApprovalScenario.uniform(profile, q)).scores
        mid = evaluate_approval(
            profile, ApprovalScenario.uniform(profile, (p + q) / 2)
        ).scores
        for c in profile.candidates:
            assert mid[c] == (lo[c] + hi[c]) / 2

        group = GROUPS[rng.randrange(len(GROUPS))]
        r1, r2 = sorted(Fraction(rng.randint(0, 100), 100) for _ in range(2))
        a_lo = evaluate_approval(
            profile, ApprovalScenario.for_profile(profile, {group: r1})
        ).scores
        a_hi = evaluate_approval(
            profile, ApprovalScenario.for_profile(profile, {group: r2})
        ).scores
        assert a_hi[group[1]] >= a_lo[group[1]]
        assert all(a_hi[c] == a_lo[c] for c in profile.candidates if c != group[1])

        # even hundredths keep the STAR midpoint on the scenario grid
        s1, s2 = sorted(Fraction(2 * rng.randint(50, 200), 100) for _ in range(2))
        try:
            star_lo = evaluate_star(
                profile, StarScenario.for_profile(profile, {group: s1})
            ).scores
            star_mid = evaluate_star(
                profile, StarScenario.for_profile(profile, {group: (s1 + s2) / 2})
            ).scores
            star_hi = evaluate_star(
                profile, StarScenario.for_profile(profile, {group: s2})
            ).scores
        except DecisiveTieError:
            continue
        assert star_hi[group[1]] >= star_lo[group[1]]
        assert all(star_hi[c] == star_lo[c] for c in profile.candidates if c != group[1])
        for c in profile.candidates:
            assert star_mid[c] == (star_lo[c] + star_hi[c]) / 2

    # (c) condensed-file round-trip identity
    for _ in range(200):
        profile = random_profile(rng, max_ballots=80)
        assert parse_condensed(write_condensed(profile)) == profile
        assert condense(expand(profile), profile.candidates) == profile

    # (d) IRV final round equals the head-to-head between the finalists
    checked = 0
    for _ in range(300):
        profile = random_profile(rng, max_ballots=80, allow_overvotes=False)
        if profile.total_valid_ranked == 0:
            continue
        outcome = tabulate_irv(profile, break_ties_by_roster=True)
        final = outcome.rounds[-1]
        if len(final.tallies) != 2:
            continue
        a, b = final.tallies
        tally = pairwise_tallies(profile, RANKED_ONLY)
        assert final.tallies[a] == tally.prefers[(a, b)]
        assert final.tallies[b] == tally.prefers[(b, a)]
        checked += 1
    assert checked > 100

    # (e) the STAR winner is never the Condorcet loser
    checked = 0
    for _ in range(300):
        profile = random_profile(rng, max_ballots=80, allow_overvotes=False)
        loser = condorcet_winner_loser(pairwise_tallies(profile)).loser
        if loser is None:
            continue
        stars = {g: Fraction(rng.randint(100, 400), 100) for g in GROUPS}
        try:
            outcome = evaluate_star(profile, StarScenario(stars))
        except DecisiveTieError:
            continue
        assert loser not in outcome.winners
        checked += 1
    assert checked > 100

    print("criterion 9 PASS: per-ballot oracle equivalence on 1000 random "
          "profiles; linearity/monotonicity, round-trip identity, IRV-vs-"
          "pairwise and Condorcet-loser-safety properties all hold")


def test_criterion_10_byte_identical_output(fixture, tmp_path):
    commands = [
        ["ingest", fixture],
        ["irv", fixture],
        ["pairwise", fixture],
        ["pairwise", fixture, "--basis", "include-ties"],
        ["condorcet", fixture],
        ["squeeze", fixture],
        ["approval", "range", fixture],
        ["approval", "range", fixture, "--plot-data"],
        ["approval", "eval", fixture, "--p", "0.35"],
        ["approval", "threshold", fixture, "--riser", "Begich", "--leader", "Peltola"],
        ["approval", "clinch", fixture, "--candidate", "Begich", "--group", "Peltola>Begich"],
        ["approval", "sweep", fixture, "--grid", "0:1:0.05"],
        ["star", "range", fixture],
        ["star", "range", fixture, "--plot-data"],
        ["star", "eval", fixture, "--s", "1"],
        ["star", "threshold", fixture, "--guaranteed", "Begich", "--rival", "Palin"],
        ["star", "sweep", fixture, "--grid", "1:4:0.25"],
    ]
    for base in commands:
        formats = [None] if base[0] == "ingest" or "--plot-data" in base else ["csv", "json-lines"]
        for fmt in formats:
            argv = base + (["--format", fmt] if fmt else [])
            first, second = tmp_path / "first.bin", tmp_path / "second.bin"
            assert run(argv + ["--out", str(first)]) == 0
            assert run(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            assert first.stat().st_size > 0
    print("criterion 10 PASS: repeated runs of every command produce "
          "byte-identical machine output")
