import contextlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ballotlab import (
    INCLUDE_TIES,
    RANKED_ONLY,
    WRITE_IN_PREFIX,
    ApprovalScenario,
    CondensedProfile,
    DecisiveTieError,
    MalformedBallotError,
    NoValidBallotsError,
    ParseError,
    RankedBallot,
    RawCvrDocument,
    StarScenario,
    UnattainableError,
    approval_range,
    classify_ballot,
    condense,
    condorcet_winner_loser,
    evaluate_approval,
    evaluate_star,
    ingest,
    pairwise_tallies,
    parse_condensed,
    parse_raw,
    star_range,
    sweep_star,
    sweep_uniform,
    tabulate_irv,
    uniform_star_threshold,
    uniform_threshold,
    write_condensed,
)

from .oracles import (
    all_way,
    brute_approval,
    brute_irv,
    brute_pairwise,
    brute_star,
    brute_star_scores,
    brute_top_choices,
    expand,
    later_choice_ballots,
    per_ballot_ingest,
    per_ballot_profile,
    per_point_sweep,
    scan_star_threshold,
    scaled,
    whole_ranking,
    zero_profile,
)
from ballotlab.condensed import _RESERVED
from ballotlab.core import condense_weighted
from ballotlab.ingest import ingest_raw
from ballotlab.scoring import score_lines, score_range

ABC = ("A", "B", "C")
GROUPS = tuple((a, b) for a in ABC for b in ABC if a != b)
PAIRS = tuple(
    frozenset((ABC[i], ABC[j])) for i in range(3) for j in range(i + 1, 3)
)

counts = st.integers(0, 25)


@st.composite
def profiles(draw, allow_overvotes: bool = True, min_ranked: int = 0):
    keys = [(c,) for c in ABC] + list(GROUPS)
    if allow_overvotes:
        keys += [*PAIRS, frozenset(ABC)]
    profile = CondensedProfile(ABC, {key: draw(counts) for key in keys})
    assume(profile.total_valid_ranked >= min_ranked)
    return profile


rates = st.fractions(min_value=0, max_value=1, max_denominator=50)
star_ratings = st.integers(100, 400).map(lambda k: Fraction(k, 100))


@st.composite
def approval_grids(draw):
    """``(step, start, end)`` inside [0, 1], at most 41 points."""
    d = draw(st.integers(1, 40))
    step = Fraction(draw(st.integers(1, d)), d)
    start, end = sorted((draw(rates), draw(rates)))
    return step, start, end


@st.composite
def star_grids(draw):
    """``(step, start, end)`` in whole hundredths inside [1, 4]."""
    step = Fraction(draw(st.integers(1, 300)), 100)
    start, end = sorted((draw(star_ratings), draw(star_ratings)))
    return step, start, end


def _points_or_error(sweep):
    try:
        return sweep()
    except DecisiveTieError as exc:
        return type(exc), str(exc), exc.tied


names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1,
    max_size=8,
)
# Trimmed names of any characters a UTF-8 file can hold but the reserved ones.
any_names = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="".join(_RESERVED) + "|"),
                    min_size=1, max_size=8).map(str.strip).filter(
                        lambda name: name and not name.startswith(WRITE_IN_PREFIX))


@st.composite
def named_profiles(draw, names=names):
    roster = tuple(draw(st.lists(names, min_size=2, max_size=4, unique=True)))
    keys = [(c,) for c in roster] + [(a, b) for a in roster for b in roster if a != b]
    keys += [frozenset(pair) for pair in itertools.combinations(roster, 2)]
    keys += [frozenset(roster), ()]  # on 2 candidates the pair is the whole roster again
    return CondensedProfile(roster, {key: draw(counts) for key in keys})


WRITE_INS = ("WRITEIN:x", "WRITEIN:yy")

# Ways to break one rank while keeping its marks recognisable: a string or
# object rank iterates to the same marks as the array it replaces.
DISGUISES = (
    lambda rank: "".join(rank),
    lambda rank: dict.fromkeys(rank, 1),
    lambda rank: [rank],
    lambda rank: rank + [1],
    lambda rank: rank + [{"A": 1}],
    lambda rank: rank + ["Z"],
    lambda rank: len(rank),
    lambda rank: None,
)


@st.composite
def raw_documents(draw):
    """Raw CVRs whose ballots repeat a small pool of grids, sometimes broken."""
    roster = "ABCDE"[:draw(st.integers(3, 5))]
    # One rank more than the roster has candidates is a classification error.
    positions = draw(st.integers(1, len(roster) + 1))
    rank = st.lists(st.sampled_from(tuple(roster) + WRITE_INS), max_size=4)
    grid = st.lists(rank, min_size=positions, max_size=positions)
    pool = draw(st.lists(grid, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=30))
    # Permute the marks inside each rank of about half the ballots.
    rng = random.Random(draw(st.integers(0, 2**32)))
    ballots = [[rng.sample(r, len(r)) if rng.random() < 0.5 else list(r) for r in pool[k]]
               for k in picks]
    if rng.random() < 0.3:
        # Break a rank of a repeat of an earlier ballot, so the broken
        # ballot's marks match a grid that has already been seen.
        i = draw(st.integers(0, len(ballots) - 1))
        j = draw(st.integers(0, positions - 1))
        broken = [list(r) for r in ballots[draw(st.integers(0, i))]]
        broken[j] = draw(st.sampled_from(DISGUISES))(broken[j])
        ballots.insert(i + 1, broken)
    if rng.random() < 0.1:
        # Drop the last rank of one ballot.
        i = draw(st.integers(0, len(ballots) - 1))
        ballots[i] = ballots[i][:-1]
    return {"candidates": list(roster), "ballots": ballots}


def _outcome(ingest_fn):
    try:
        return ingest_fn()
    except (ParseError, MalformedBallotError) as exc:
        return type(exc), str(exc)


class TestRawIngest:
    @given(raw_documents())
    def test_matches_per_ballot_ingest(self, doc):
        data = json.dumps(doc).encode()
        assert _outcome(lambda: ingest(parse_raw(data))) == _outcome(lambda: per_ballot_ingest(doc))

    @given(raw_documents())
    def test_one_pass_matches_parse_then_ingest(self, doc):
        data = json.dumps(doc).encode()
        one_pass = _outcome(lambda: ingest_raw(data))
        two_pass = _outcome(lambda: ingest(parse_raw(data)))
        # The two paths share their checks; the per-ballot reading shares none of them.
        assert one_pass == two_pass == _outcome(lambda: per_ballot_ingest(doc))


# Write-in text that holds a ballot separator, an escape, a quote or a control character.
TRICKY_WRITE_INS = st.one_of(
    st.sampled_from(('WRITEIN:\\"]],[[', 'WRITEIN:"]], [[', "WRITEIN:\\\\]],[[")),
    st.text(alphabet='ab[], "\\\n\x01', max_size=8).map("WRITEIN:".__add__))
# Roster names that an escaped quote precedes, one the other's prefix, or holding a separator.
TRICKY_NAMES = {"A": ("A", '"WRITEIN:A', "A]],[[A", "A]], [[A"), "B": ("B", '"WRITEIN:')}
# Compact and json.dumps's default layouts take the distinct-text reader; indented ones do not.
LAYOUTS = ({"separators": (",", ":")}, {}, {"indent": 1})


@st.composite
def layout_documents(draw):
    """raw_documents() with tricky write-ins, sometimes tricky names for A and
    B, and now and then every ballot emptied of its ranks."""
    doc = draw(raw_documents())
    names = {w: draw(TRICKY_WRITE_INS) for w in WRITE_INS}
    names.update((name, draw(st.sampled_from(spelt))) for name, spelt in TRICKY_NAMES.items())

    def rename(rank):
        if not isinstance(rank, list):
            return rank
        return [names.get(m, m) if isinstance(m, str) else m for m in rank]

    ballots = [list(map(rename, ballot)) for ballot in doc["ballots"]]
    if draw(st.integers(0, 9)) == 9:  # Hypothesis favours small draws
        ballots = [[] for _ in ballots]
    return {"candidates": rename(doc["candidates"]), "ballots": ballots}


def _counted(read):
    """A profile with its counts in order, or the exception's type and message."""
    try:
        profile = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return profile, list(profile.counts.items())


class TestRawLayouts:
    @given(layout_documents())
    @example({"candidates": ['"WRITEIN:A', '"WRITEIN:', "C"],
              "ballots": [[['"WRITEIN:A'], ["C"], []], [["WRITEIN:b"], ['"WRITEIN:'], []]]})
    def test_every_layout_reads_as_parse_then_ingest(self, doc):
        for layout in LAYOUTS:
            data = json.dumps(doc, **layout).encode()
            assert _counted(lambda: ingest_raw(data)) == _counted(lambda: ingest(parse_raw(data)))


@st.composite
def hand_built_documents(draw, deep=False):
    """RawCvrDocuments made without parse_raw: up to 6 candidates, sometimes
    unknown marks or more ranks than candidates, equal grids not always shared.
    ``deep`` documents have 4-6 candidates and one mark in every rank."""
    roster = "ABCDEF"[:draw(st.integers(4 if deep else 1, 6))]
    positions = len(roster) if deep else draw(st.integers(1, len(roster) + 1))
    unknown = ("Z",) if draw(st.integers(0, 4)) == 0 else ()
    rank = st.frozensets(st.sampled_from(tuple(roster) + WRITE_INS + unknown),
                         min_size=int(deep), max_size=1 if deep else 3)
    pool = draw(st.lists(st.lists(rank, min_size=positions, max_size=positions).map(tuple),
                         min_size=1, max_size=6))
    shared = [RankedBallot(grid) for grid in pool]
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=30))
    ballots = tuple(shared[k] if share else RankedBallot(pool[k]) for k, share in picks)
    return RawCvrDocument(candidates=tuple(roster), ballots=ballots)


def _result(compute):
    try:
        return compute()
    except ValueError as exc:  # MalformedBallotError or a roster error
        return type(exc), str(exc)


class TestHandBuiltIngest:
    @given(hand_built_documents())
    def test_matches_classifying_every_ballot(self, doc):
        assert _result(lambda: ingest(doc)) == _result(
            lambda: per_ballot_profile(doc.ballots, doc.candidates))

    @given(st.one_of(hand_built_documents(), hand_built_documents(deep=True)))
    def test_truncated_count_matches_per_ballot_reading(self, doc):
        """The one pass keeps every ranking whole; the rankings of three or more
        names are the ballots ``ingest`` warns about."""
        assume(not any("Z" in marks for ballot in doc.ballots for marks in ballot.ranks))
        data = json.dumps({"candidates": doc.candidates,
                           "ballots": [list(map(sorted, b.ranks)) for b in doc.ballots]})
        outcome = _result(lambda: ingest_raw(data.encode()))
        if isinstance(outcome, CondensedProfile):
            assert outcome == per_ballot_profile(doc.ballots, doc.candidates)
            later = sum(n for prefs, n in outcome.rankings() if len(prefs) > 2)
            assert later == later_choice_ballots(doc.ballots, doc.candidates)


@st.composite
def hand_built_ballots(draw):
    """A roster of 2-6 and one ballot on it, up to one rank per candidate:
    write-ins, skipped ranks, repeats, and overvotes of two, three or every
    candidate at any rank."""
    roster = tuple("ABCDEF"[:draw(st.integers(2, 6))])
    one = st.sampled_from(roster).map(lambda name: frozenset({name}))
    other = st.one_of(st.frozensets(st.sampled_from(roster + WRITE_INS), max_size=3),
                      st.frozensets(st.sampled_from(roster), min_size=2),
                      st.just(frozenset(roster)))
    rank = st.one_of(one, other)  # half the ranks name one candidate
    positions = draw(st.integers(0, len(roster)))
    return roster, RankedBallot(tuple(draw(st.lists(rank, min_size=positions, max_size=positions))))


class TestProfileKeys:
    @given(hand_built_ballots())
    @example((tuple("ABCD"), RankedBallot((frozenset("A"), frozenset("AB"), frozenset("C")))))
    @example((tuple("ABCD"), RankedBallot((frozenset(), frozenset("ABC")))))
    def test_key_matches_per_ballot_reading(self, case):
        """A one-mark top keys the whole ranking, a top of two or of every
        candidate its set, no mark ``()``; any other top is refused."""
        roster, ballot = case
        tops = (marks & set(roster) for marks in ballot.ranks)
        top = next(filter(None, tops), frozenset())
        if len(top) > 2 and top != set(roster):
            with pytest.raises(MalformedBallotError, match="covers neither two"):
                classify_ballot(ballot, roster)
            return
        expected = whole_ranking(ballot.ranks, roster) if len(top) == 1 else top or ()
        assert classify_ballot(ballot, roster) == expected


class TestCondensedRoundTrips:
    @given(st.one_of(named_profiles(), named_profiles(any_names)))
    def test_file_round_trip_identity(self, profile):
        assert parse_condensed(write_condensed(profile)) == profile

    @given(profiles())
    def test_expand_condense_identity(self, profile):
        assert condense(expand(profile), profile.candidates) == profile


class TestWholeRosterOvervote:
    @given(named_profiles(), counts)
    def test_whole_roster_set_is_the_all_way_count(self, profile, n):
        """The whole roster's set is one key, the all-way count, whichever way it was
        counted: a raw ballot marking every candidate at the top, an ``over3`` row, or
        on 2 candidates an ``over2`` row.  It supports no one."""
        roster = profile.candidates
        everyone = frozenset(roster)
        key = classify_ballot(RankedBallot((everyone,)), roster)
        more = condense_weighted([*profile.counts.items(), (key, n)], roster)
        assert key == everyone and more.counts.get(everyone, 0) == all_way(profile) + n
        assert dict(more.two_way_overvotes()) == dict(profile.two_way_overvotes())
        assert score_lines(more, 1)[0] == score_lines(profile, 1)[0]
        assert more.total_with_preference == profile.total_with_preference
        rows = [r for r in write_condensed(profile).decode().splitlines()
                if not r.startswith("over3:")]
        for kind in ("over3", "over2") if len(roster) == 2 else ("over3",):
            row = f"{kind}:{'+'.join(roster)},{all_way(profile) + n}"
            assert parse_condensed("\n".join([*rows, row]).encode()) == more


@st.composite
def key_maps(draw):
    """A roster of 2-6 and counts, zeros included, of its profile keys: whole
    rankings of 1 to max(2, N - 1) names, two-way and all-way overvotes, blanks."""
    roster = tuple("ABCDEF"[:draw(st.integers(2, 6))])
    depth = max(2, len(roster) - 1)
    ranking = st.lists(st.sampled_from(roster), min_size=1, max_size=depth, unique=True)
    overvote = st.sampled_from([*itertools.combinations(roster, 2), roster])
    keys = st.one_of(ranking.map(tuple), overvote.map(frozenset), st.just(()))
    return roster, draw(st.dictionaries(keys, counts, max_size=20))


class TestKeyCounts:
    @given(key_maps())
    def test_the_counts_are_the_profile(self, case):
        """A profile is its nonzero key counts: summing them again, reordering them
        or adding zero entries gives the same profile, and the totals add up."""
        roster, key_counts = case
        profile = CondensedProfile(roster, key_counts)
        assert profile.counts == {key: n for key, n in key_counts.items() if n}
        assert condense_weighted(profile.counts.items(), profile.candidates) == profile
        zeros = dict.fromkeys([*((c,) for c in roster), frozenset(roster), ()], 0)
        assert CondensedProfile(roster, {**zeros, **dict(reversed(key_counts.items()))}) == profile
        assert profile.total_with_any_mark + profile.blank_count == sum(profile.counts.values())
        assert (profile.total_valid_ranked + profile.total_overvotes + profile.blank_count
                == sum(profile.counts.values()))


def deep_profiles():
    """Profiles of :func:`key_maps`: rosters of 2-6, rankings of up to max(2, N - 1)
    names, two-way and all-way overvotes, and blanks."""
    return key_maps().map(lambda case: CondensedProfile(*case))


class TestGroupSizes:
    @given(st.one_of(named_profiles(), deep_profiles()))
    def test_each_group_counts_the_rankings_it_heads(self, profile):
        """Every ranking group, in order, with the rankings whose first two names it is."""
        sizes = profile.group_sizes()
        assert list(sizes) == list(profile.ranking_groups())
        for group, size in sizes.items():
            heads = 0
            for key, n in profile.counts.items():
                if isinstance(key, tuple) and key[:2] == group:
                    heads += n
            assert size == heads == profile.full_count(*group)


class TestTopChoices:
    @given(named_profiles())
    def test_matches_per_ballot_count_for_every_ordered_subset(self, profile):
        roster = profile.candidates
        for k in range(len(roster) + 1):
            for among in itertools.permutations(roster, k):
                counts = profile.top_choices(among)
                assert list(counts.items()) == list(brute_top_choices(profile, among).items())


class TestPairwiseProperties:
    @given(st.one_of(profiles(), named_profiles(), deep_profiles()), st.booleans())
    @example(CondensedProfile(tuple("ABCDE"), {tuple("DBCA"): 3, tuple("AEB"): 2,
                                               frozenset("CE"): 1, frozenset("ABCDE"): 1}),
             True)
    def test_matches_per_ballot_enumeration(self, profile, include_ties):
        basis = INCLUDE_TIES if include_ties else RANKED_ONLY
        tally = pairwise_tallies(profile, basis)
        prefers, no_preference, total = brute_pairwise(profile, include_ties)
        assert tally.prefers == prefers
        assert tally.no_preference == no_preference
        assert tally.total == total

    @given(st.one_of(named_profiles(), deep_profiles()), st.booleans())
    def test_preferences_follow_candidate_pairs(self, profile, include_ties):
        """Each unordered pair's two counts, in :meth:`candidate_pairs` order."""
        order = [key for a, b in profile.candidate_pairs() for key in ((a, b), (b, a))]
        assert list(profile.preferences(include_ties)) == order

    @given(profiles())
    def test_pair_accounting(self, profile):
        tally = pairwise_tallies(profile, INCLUDE_TIES)
        for a, b in profile.candidate_pairs():
            three_way = (
                tally.prefers[(a, b)]
                + tally.prefers[(b, a)]
                + tally.no_preference[frozenset((a, b))]
            )
            assert three_way == tally.total

    @given(profiles())
    def test_basis_monotonicity(self, profile):
        ranked = pairwise_tallies(profile, RANKED_ONLY)
        ties = pairwise_tallies(profile, INCLUDE_TIES)
        for key in ranked.prefers:
            assert ties.prefers[key] >= ranked.prefers[key]
        for pair in ranked.no_preference:
            assert ties.no_preference[pair] >= ranked.no_preference[pair]

    @given(profiles())
    def test_at_most_one_winner_and_loser(self, profile):
        report = condorcet_winner_loser(pairwise_tallies(profile))
        if report.winner is not None and report.loser is not None:
            assert report.winner != report.loser


class TestIrvProperties:
    @given(profiles(allow_overvotes=False, min_ranked=1))
    def test_final_round_equals_pairwise_between_finalists(self, profile):
        outcome = tabulate_irv(profile, break_ties_by_roster=True)
        final = outcome.rounds[-1]
        if len(final.tallies) != 2:
            return
        (a, b) = final.tallies
        tally = pairwise_tallies(profile, RANKED_ONLY)
        assert final.tallies[a] == tally.prefers[(a, b)]
        assert final.tallies[b] == tally.prefers[(b, a)]

    @given(profiles(min_ranked=1))
    def test_conservation_and_majority(self, profile):
        outcome = tabulate_irv(profile, break_ties_by_roster=True)
        for prev, nxt in zip(outcome.rounds, outcome.rounds[1:]):
            assert nxt.active_ballots == prev.active_ballots - nxt.exhausted_this_round
            moved = sum(nxt.transfers.values()) + nxt.exhausted_this_round
            assert moved == prev.tallies[prev.eliminated]
        final = outcome.rounds[-1]
        assert 2 * final.tallies[outcome.winner] > final.active_ballots

    @given(st.one_of(profiles(), named_profiles()))
    def test_every_round_matches_per_ballot_irv(self, profile):
        assert _irv_or_error(lambda: tabulate_irv(profile, break_ties_by_roster=True)) == (
            _irv_or_error(lambda: brute_irv(profile, True))
        )

    @given(st.one_of(profiles(), named_profiles()))
    def test_tie_errors_match_per_ballot_irv(self, profile):
        assert _irv_or_error(lambda: tabulate_irv(profile)) == (
            _irv_or_error(lambda: brute_irv(profile))
        )


def _irv_or_error(tabulate):
    try:
        return tabulate()
    except (DecisiveTieError, NoValidBallotsError) as exc:
        return type(exc), str(exc), getattr(exc, "tied", None)


class TestApprovalProperties:
    @given(profiles(), st.tuples(*(st.booleans() for _ in GROUPS)))
    def test_matches_per_ballot_enumeration(self, profile, flags):
        scenario = ApprovalScenario(
            {g: Fraction(int(flag)) for g, flag in zip(GROUPS, flags)}
        )
        outcome = evaluate_approval(profile, scenario)
        votes = brute_approval(profile, {g: bool(flag) for g, flag in zip(GROUPS, flags)})
        assert outcome.scores == votes
        top = max(votes.values())
        assert set(outcome.winners) == {c for c, v in votes.items() if v == top}

    @given(profiles(), rates, rates)
    def test_scores_are_affine_in_the_uniform_rate(self, profile, p, q):
        mid = (p + q) / 2
        lo = evaluate_approval(profile, ApprovalScenario.uniform(profile, p)).scores
        hi = evaluate_approval(profile, ApprovalScenario.uniform(profile, q)).scores
        at_mid = evaluate_approval(profile, ApprovalScenario.uniform(profile, mid)).scores
        for c in ABC:
            assert at_mid[c] == (lo[c] + hi[c]) / 2

    @given(profiles(), st.sampled_from(GROUPS), rates, rates)
    def test_raising_one_group_only_helps_its_second_choice(self, profile, group, p, q):
        lo, hi = min(p, q), max(p, q)
        low = evaluate_approval(
            profile, ApprovalScenario.for_profile(profile, {group: lo})
        ).scores
        high = evaluate_approval(
            profile, ApprovalScenario.for_profile(profile, {group: hi})
        ).scores
        assert high[group[1]] >= low[group[1]]
        for c in ABC:
            if c != group[1]:
                assert high[c] == low[c]

    @given(profiles(), rates)
    def test_scores_stay_inside_the_range(self, profile, p):
        rng = approval_range(profile)
        scores = evaluate_approval(profile, ApprovalScenario.uniform(profile, p)).scores
        for c in ABC:
            assert rng.minimum[c] <= scores[c] <= rng.maximum[c]

    @given(st.one_of(profiles(), named_profiles()), st.integers(1, 5))
    def test_range_matches_per_ballot_enumeration_at_endpoints(self, profile, weight):
        """The score lines, and on 2 or 3 candidates the range, at rates 0 and 1."""
        groups = profile.ranking_groups()
        low = brute_approval(profile, dict.fromkeys(groups, False))
        high = brute_approval(profile, dict.fromkeys(groups, True))
        base, slope = score_lines(profile, weight)
        assert base == {c: weight * n for c, n in low.items()}
        assert slope == {c: high[c] - n for c, n in low.items()}
        if len(profile.candidates) <= 3:
            rng = approval_range(profile)
            assert (rng.minimum, rng.maximum) == (low, high)

    @given(profiles(), st.integers(2, 7), rates)
    def test_scaling_counts_preserves_winners(self, profile, factor, p):
        big = scaled(profile, factor)
        assert (
            evaluate_approval(profile, ApprovalScenario.uniform(profile, p)).winners
            == evaluate_approval(big, ApprovalScenario.uniform(big, p)).winners
        )

    @given(profiles(min_ranked=1))
    def test_threshold_separates_the_orders(self, profile):
        for riser, leader in GROUPS:
            p_star = uniform_threshold(profile, riser, leader)
            if p_star is None or not 0 < p_star < 1:
                continue
            eps = min(p_star, 1 - p_star) / 2
            below = evaluate_approval(
                profile, ApprovalScenario.uniform(profile, p_star - eps)
            ).scores
            at = evaluate_approval(profile, ApprovalScenario.uniform(profile, p_star)).scores
            assert below[leader] > below[riser]
            assert at[riser] >= at[leader]


class TestStarProperties:
    @given(profiles(), st.tuples(*(st.integers(1, 4) for _ in GROUPS)))
    def test_score_round_matches_per_ballot_enumeration(self, profile, ratings):
        stars = dict(zip(GROUPS, ratings))
        expected = brute_star_scores(profile, stars)
        try:
            outcome = evaluate_star(profile, StarScenario({g: Fraction(v) for g, v in stars.items()}))
        except DecisiveTieError:
            ordered = sorted(expected.values(), reverse=True)
            assert ordered[1] == ordered[2]  # a genuine boundary tie
            return
        assert outcome.scores == expected

    @given(profiles())
    def test_range_matches_whole_star_enumeration_at_endpoints(self, profile):
        rng = star_range(profile)
        assert rng.minimum == brute_star_scores(profile, {g: 1 for g in GROUPS})
        assert rng.maximum == brute_star_scores(profile, {g: 4 for g in GROUPS})

    @given(profiles(), st.sampled_from(GROUPS), star_ratings, star_ratings)
    def test_raising_one_group_only_helps_its_second_choice(self, profile, group, s, t):
        lo, hi = min(s, t), max(s, t)
        try:
            low = evaluate_star(
                profile, StarScenario.for_profile(profile, {group: lo})
            ).scores
            high = evaluate_star(
                profile, StarScenario.for_profile(profile, {group: hi})
            ).scores
        except DecisiveTieError:
            return
        assert high[group[1]] >= low[group[1]]
        for c in ABC:
            if c != group[1]:
                assert high[c] == low[c]

    @given(profiles(), star_ratings)
    def test_runoff_equals_include_ties_pairwise(self, profile, s):
        try:
            outcome = evaluate_star(profile, StarScenario.uniform(profile, s))
        except DecisiveTieError:
            return
        a, b = outcome.finalists
        ties = pairwise_tallies(profile, INCLUDE_TIES)
        assert outcome.runoff_tallies == {a: ties.prefers[(a, b)], b: ties.prefers[(b, a)]}

    @given(profiles(allow_overvotes=False), star_ratings)
    def test_runoff_equals_ranked_only_pairwise_without_overvotes(self, profile, s):
        try:
            outcome = evaluate_star(profile, StarScenario.uniform(profile, s))
        except DecisiveTieError:
            return
        a, b = outcome.finalists
        ranked = pairwise_tallies(profile, RANKED_ONLY)
        assert outcome.runoff_tallies == {a: ranked.prefers[(a, b)], b: ranked.prefers[(b, a)]}

    @given(profiles(allow_overvotes=False, min_ranked=1), star_ratings)
    def test_condorcet_loser_never_wins(self, profile, s):
        loser = condorcet_winner_loser(pairwise_tallies(profile)).loser
        assume(loser is not None)
        try:
            outcome = evaluate_star(profile, StarScenario.uniform(profile, s))
        except DecisiveTieError:
            return
        assert loser not in outcome.winners

    @given(profiles(), st.integers(2, 7), star_ratings)
    def test_scaling_counts_preserves_the_outcome(self, profile, factor, s):
        big = scaled(profile, factor)
        try:
            small_outcome = evaluate_star(profile, StarScenario.uniform(profile, s))
        except DecisiveTieError:
            return
        big_outcome = evaluate_star(big, StarScenario.uniform(big, s))
        assert small_outcome.finalists == big_outcome.finalists
        assert small_outcome.winners == big_outcome.winners


class TestSharedScoringModel:
    """The model approval and STAR share, on any names and rosters of 2 or 3."""

    scored_profiles = named_profiles().filter(lambda p: len(p.candidates) <= 3)

    @given(deep_profiles(), st.integers(1, 5))
    def test_score_lines_read_the_first_two_names_of_any_ranking(self, profile, weight):
        base = dict.fromkeys(profile.candidates, 0)
        slope = dict.fromkeys(profile.candidates, 0)
        for key, n in profile.counts.items():
            if isinstance(key, tuple):
                for c, line in zip(key, (base, slope)):
                    line[c] += n
            elif key != frozenset(profile.candidates):  # an all-way overvote supports no one
                for c in key:
                    base[c] += n
        assert score_lines(profile, weight) == ({c: weight * n for c, n in base.items()}, slope)

    @pytest.mark.parametrize("scenario", [ApprovalScenario, StarScenario], ids=["approval", "star"])
    @given(profile=scored_profiles)
    def test_uniform_floor_and_cap_scores_are_the_range(self, scenario, profile):
        scale = scenario.scale
        rng = score_range(profile, scale)
        assert scenario.uniform(profile, scale.low).scores(profile) == rng.minimum
        assert scenario.uniform(profile, scale.high).scores(profile) == rng.maximum

    @pytest.mark.parametrize("scenario, brute", [(ApprovalScenario, brute_approval),
                                                 (StarScenario, brute_star_scores)],
                             ids=["approval", "star"])
    @given(profile=scored_profiles, data=st.data())
    def test_scores_match_per_ballot_enumeration(self, scenario, brute, profile, data):
        """Whole per-group values: approve the second choice or not, whole stars."""
        scale = scenario.scale
        values = {g: data.draw(st.integers(scale.low, scale.high))
                  for g in profile.ranking_groups()}
        assert scenario(values).scores(profile) == brute(profile, values)


class TestClosedFormModels:
    """Closed-form sweeps and thresholds against per-point evaluation."""

    @given(profiles(), approval_grids())
    def test_approval_sweep_matches_per_point_evaluation(self, profile, grid):
        step, start, end = grid
        assert sweep_uniform(profile, step, start=start, end=end) == per_point_sweep(
            profile, evaluate_approval, ApprovalScenario, step, start, end
        )

    @given(profiles(), star_grids())
    def test_star_sweep_matches_per_point_evaluation(self, profile, grid):
        # Ties are common with counts of 0-25, so this also checks that the
        # same error, message and tied set come up at the same first point.
        step, start, end = grid
        assert _points_or_error(
            lambda: sweep_star(profile, step, start=start, end=end)
        ) == _points_or_error(
            lambda: per_point_sweep(profile, evaluate_star, StarScenario, step, start, end)
        )

    @given(profiles(), st.permutations(ABC))
    def test_star_threshold_matches_grid_scan(self, profile, order):
        guaranteed, rival, _ = order
        expected = scan_star_threshold(profile, guaranteed, rival)
        if expected is None:
            with pytest.raises(UnattainableError, match="even at 4 stars"):
                uniform_star_threshold(profile, guaranteed, rival)
            return
        result = uniform_star_threshold(profile, guaranteed, rival)
        assert (result.stars, result.achieved_score, result.rival_maximum) == expected

    @given(profiles(), st.tuples(*(star_ratings for _ in GROUPS)))
    def test_star_outcome_matches_per_ballot_enumeration(self, profile, ratings):
        stars = dict(zip(GROUPS, ratings))
        try:
            expected = brute_star(profile, stars)
        except DecisiveTieError as exc:
            with pytest.raises(DecisiveTieError) as raised:
                evaluate_star(profile, StarScenario(stars))
            assert (str(raised.value), raised.value.tied) == (str(exc), exc.tied)
            return
        outcome = evaluate_star(profile, StarScenario(stars))
        a, b = outcome.finalists
        assert (
            outcome.scores,
            outcome.finalists,
            (outcome.runoff_tallies[a], outcome.runoff_tallies[b], outcome.runoff_no_preference),
            outcome.winners,
        ) == expected


class TestRosterRule:
    """Every model that scores each candidate takes 2 or 3 of them; thresholds take any roster."""

    @given(named_profiles(), rates, star_ratings)
    def test_scoring_models_take_two_or_three_candidates(self, profile, p, s):
        n = len(profile.candidates)
        for model in (
            lambda: approval_range(profile),
            lambda: star_range(profile),
            lambda: evaluate_approval(profile, ApprovalScenario.uniform(profile, p)),
            lambda: evaluate_star(profile, StarScenario.uniform(profile, s)),
            lambda: sweep_uniform(profile, Fraction(1, 4)),
            lambda: sweep_star(profile, 1),
        ):
            if n <= 3:
                with contextlib.suppress(DecisiveTieError):
                    model()
            else:
                with pytest.raises(ValueError) as exc:
                    model()
                assert str(exc.value) == f"this model needs 2 or 3 candidates, got {n}"

    @given(named_profiles(), st.data())
    def test_thresholds_take_any_roster(self, profile, data):
        a, b = data.draw(st.permutations(profile.candidates))[:2]
        uniform_threshold(profile, a, b)
        with contextlib.suppress(UnattainableError):
            uniform_star_threshold(profile, a, b)

    def test_roster_is_refused_before_the_grid_and_the_groups(self):
        profile = zero_profile(("A", "B", "C", "D"))
        for model in (
            lambda: sweep_uniform(profile, 0),
            lambda: sweep_star(profile, 7),
            lambda: evaluate_approval(profile, ApprovalScenario({("X", "Y"): 1})),
            lambda: evaluate_star(profile, StarScenario({("X", "Y"): 2})),
        ):
            with pytest.raises(ValueError, match="^this model needs 2 or 3 candidates, got 4$"):
                model()
