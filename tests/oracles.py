"""Per-ballot brute-force reference tabulations.

These deliberately re-derive every result from an explicit list of
individual ballots, one at a time, so they share no code path with the
condensed-profile implementations they cross-check.  A ballot here is a
plain tuple:

    ("bullet", c) | ("full", first, second) | ("over2", a, b) | ("over3",)
"""

import random
from fractions import Fraction

from ballotlab import (
    CondensedProfile,
    DecisiveTieError,
    IrvOutcome,
    IrvRound,
    NoValidBallotsError,
    ParseError,
    RankedBallot,
    classify_ballot,
    condense,
)
from ballotlab.core import is_write_in, validate_roster


def zero_profile(candidates) -> CondensedProfile:
    """A profile over ``candidates`` that counts no ballot."""
    return CondensedProfile(tuple(candidates), {})


def ranked_ballot(ranks) -> RankedBallot:
    """A raw ballot from one iterable of marks per rank position."""
    return RankedBallot(tuple(frozenset(marks) for marks in ranks))


def expand_ballots(profile: CondensedProfile) -> list[tuple]:
    ballots: list[tuple] = []
    for c in profile.candidates:
        ballots += [("bullet", c)] * profile.bullet_count(c)
    for first in profile.candidates:
        for second in profile.candidates:
            if first != second:
                ballots += [("full", first, second)] * profile.full_count(first, second)
    for i, a in enumerate(profile.candidates):
        for b in profile.candidates[i + 1:]:
            ballots += [("over2", a, b)] * profile.over2_count(a, b)
    ballots += [("over3",)] * all_way(profile)
    return ballots


def all_way(profile: CondensedProfile) -> int:
    """The profile's all-way top overvotes: the count of its whole roster's set."""
    return profile.counts.get(frozenset(profile.candidates), 0)


def expand(profile: CondensedProfile) -> list:
    """One profile key per counted ballot, blanks last, roster order."""
    keys = [tuple(names) if kind in ("bullet", "full") else frozenset(names or profile.candidates)
            for kind, *names in expand_ballots(profile)]
    return keys + [()] * profile.blank_count


def scaled(profile: CondensedProfile, factor: int) -> CondensedProfile:
    """The profile with every count multiplied by a positive integer."""
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    return CondensedProfile(profile.candidates, {k: n * factor for k, n in profile.counts.items()})


def _rank(ballot: tuple, candidate: str):
    """Position of a candidate on one ballot; None means unranked."""
    kind = ballot[0]
    if kind == "bullet":
        return 0 if candidate == ballot[1] else None
    if kind == "full":
        if candidate == ballot[1]:
            return 0
        if candidate == ballot[2]:
            return 1
        return None
    if kind == "over2":
        return 0 if candidate in ballot[1:] else None
    return None


def brute_top_choices(profile: CondensedProfile, among) -> dict[str, int]:
    """Per candidate of ``among``, in its order, the ballots ranking them above the rest of it.

    Each bullet or full-ranking ballot is read on its own; one that ranks
    none of ``among`` counts for no one, and overvotes never count.
    """
    counts = dict.fromkeys(among, 0)
    for ballot in expand_ballots(profile):
        ranked = [c for c in among if _rank(ballot, c) is not None]
        if ballot[0] in ("bullet", "full") and ranked:
            counts[min(ranked, key=lambda c: _rank(ballot, c))] += 1
    return counts


def brute_pairwise(profile: CondensedProfile, include_ties: bool):
    """Head-to-head counts by scanning every ballot individually.

    Each key of ``profile.counts`` is expanded on its own into its ballots,
    each a map from name to position: a ranking of any length numbers its
    names top first, a two-way overvote puts both names first, and an
    all-way overvote or a blank is no ballot here.
    """
    counted = []
    for key, n in profile.counts.items():
        if isinstance(key, tuple) and key:
            counted += [{c: i for i, c in enumerate(key)}] * n
        elif include_ties and key and key != frozenset(profile.candidates):
            counted += [dict.fromkeys(key, 0)] * n

    prefers: dict[tuple[str, str], int] = {}
    no_preference: dict[frozenset, int] = {}
    for i, a in enumerate(profile.candidates):
        for b in profile.candidates[i + 1:]:
            above_a = above_b = neither = 0
            for ballot in counted:
                ra, rb = ballot.get(a), ballot.get(b)
                if ra is not None and (rb is None or ra < rb):
                    above_a += 1
                elif rb is not None and (ra is None or rb < ra):
                    above_b += 1
                else:
                    neither += 1
            prefers[(a, b)] = above_a
            prefers[(b, a)] = above_b
            no_preference[frozenset((a, b))] = neither
    return prefers, no_preference, len(counted)


def brute_irv(profile: CondensedProfile, break_ties_by_roster: bool = False) -> IrvOutcome:
    """Instant runoff re-read one ballot at a time in every round.

    Each bullet or full-ranking ballot counts for its best-ranked
    continuing candidate, and each round records, per ballot, whether its
    choice changed since the previous round (a transfer) or vanished (an
    exhausted ballot).  Raises the same errors as
    :func:`ballotlab.tabulate_irv`.
    """
    ballots = [b for b in expand_ballots(profile) if b[0] in ("bullet", "full")]
    if not ballots:
        raise NoValidBallotsError("no valid ranked ballots to tabulate")
    continuing = list(profile.candidates)
    choices = [None] * len(ballots)
    rounds = []
    while True:
        tallies = {c: 0 for c in continuing}
        transfers: dict[str, int] = {}
        exhausted = 0
        for i, ballot in enumerate(ballots):
            ranked = [c for c in continuing if _rank(ballot, c) is not None]
            choice = min(ranked, key=lambda c: _rank(ballot, c), default=None)
            if choice is not None:
                tallies[choice] += 1
            if rounds and choice != choices[i]:
                if choice is None:
                    exhausted += 1
                else:
                    transfers[choice] = transfers.get(choice, 0) + 1
            choices[i] = choice
        active = sum(choice is not None for choice in choices)
        if active == 0:
            raise DecisiveTieError("every remaining ballot is exhausted")
        top = max(tallies.values())
        eliminated = None
        if 2 * top <= active:
            lowest = min(tallies.values())
            tied = [c for c in continuing if tallies[c] == lowest]
            if len(tied) > 1 and not break_ties_by_roster:
                raise DecisiveTieError(
                    f"exact tie for elimination between {', '.join(tied)}", tied=tuple(tied)
                )
            eliminated = tied[-1]
        rounds.append(
            IrvRound(len(rounds) + 1, tallies, active, transfers, exhausted, eliminated)
        )
        if eliminated is None:
            winner = next(c for c in continuing if tallies[c] == top)
            return IrvOutcome(tuple(rounds), winner, profile.total_overvotes)
        continuing.remove(eliminated)


def brute_approval(profile: CondensedProfile, approve_second: dict) -> dict[str, int]:
    """Approval counts when each group's second-choice decision is all-or-nothing."""
    votes = {c: 0 for c in profile.candidates}
    for ballot in expand_ballots(profile):
        kind = ballot[0]
        if kind == "bullet":
            votes[ballot[1]] += 1
        elif kind == "full":
            votes[ballot[1]] += 1
            if approve_second[(ballot[1], ballot[2])]:
                votes[ballot[2]] += 1
        elif kind == "over2":
            votes[ballot[1]] += 1
            votes[ballot[2]] += 1
    return votes


def _star_score(ballot: tuple, candidate: str, stars: dict) -> int:
    kind = ballot[0]
    if kind == "bullet":
        return 5 if candidate == ballot[1] else 0
    if kind == "full":
        if candidate == ballot[1]:
            return 5
        if candidate == ballot[2]:
            return stars[(ballot[1], ballot[2])]
        return 0
    if kind == "over2":
        return 5 if candidate in ballot[1:] else 0
    return 0


def brute_star_scores(profile: CondensedProfile, stars: dict) -> dict[str, int]:
    """Score-round totals with whole-star second-choice ratings."""
    totals = {c: 0 for c in profile.candidates}
    for ballot in expand_ballots(profile):
        if ballot[0] == "over3":
            continue
        for c in profile.candidates:
            totals[c] += _star_score(ballot, c, stars)
    return totals


def brute_star_runoff(profile: CondensedProfile, stars: dict, a: str, b: str):
    """Ballot-by-ballot runoff between two candidates.

    Returns (votes_a, votes_b, no_preference); ballots scoring neither
    candidate carry no runoff vote.
    """
    votes_a = votes_b = no_pref = 0
    for ballot in expand_ballots(profile):
        if ballot[0] == "over3":
            continue
        sa = _star_score(ballot, a, stars)
        sb = _star_score(ballot, b, stars)
        if sa > sb:
            votes_a += 1
        elif sb > sa:
            votes_b += 1
        elif sa > 0:
            no_pref += 1
    return votes_a, votes_b, no_pref


def brute_star(profile: CondensedProfile, stars: dict):
    """STAR outcome from per-ballot scores and runoffs.

    Returns ``(scores, finalists, (votes_a, votes_b, no_preference),
    winners)``; score-round ties raise :class:`DecisiveTieError` with the
    same message and ``tied`` as :func:`ballotlab.evaluate_star`.
    """
    scores = brute_star_scores(profile, stars)
    roster = profile.candidates
    if len(roster) == 2:
        finalists = roster
    else:
        ordered = sorted(roster, key=lambda c: -scores[c])
        top, mid, low = (scores[c] for c in ordered)
        if top == mid == low:
            raise DecisiveTieError(
                "all three candidates tied in the score round", tied=tuple(ordered)
            )
        if mid == low:
            x, y = ordered[1], ordered[2]
            vx, vy, _ = brute_star_runoff(profile, stars, x, y)
            if vx == vy:
                raise DecisiveTieError(
                    f"score and head-to-head both tie {x} with {y} for the second "
                    "runoff spot",
                    tied=(x, y),
                )
            ordered[1] = x if vx > vy else y
        finalists = tuple(c for c in roster if c in ordered[:2])
    a, b = finalists
    runoff = brute_star_runoff(profile, stars, a, b)
    winners = (a,) if runoff[0] > runoff[1] else (b,) if runoff[1] > runoff[0] else finalists
    return scores, finalists, runoff, winners


def per_point_sweep(profile: CondensedProfile, evaluate, scenario, step, start, end):
    """Winners from a full evaluation of a uniform scenario at every grid point.

    ``evaluate``/``scenario`` are :func:`ballotlab.evaluate_approval` and
    :class:`ballotlab.ApprovalScenario`, or the STAR pair; sweeps ran this
    way before they were computed in closed form.  The grid must be valid.
    """
    points = []
    k = 0
    while (t := start + k * step) <= end:
        points.append((t, evaluate(profile, scenario.uniform(profile, t)).winners))
        k += 1
    return points


def scan_star_threshold(profile: CondensedProfile, guaranteed: str, rival: str):
    """First hundredth in [1, 4] at which ``guaranteed`` beats ``rival``'s maximum.

    Scores come from per-ballot enumeration at 1 and 4 stars (they are
    affine in a uniform rating); returns ``(stars, achieved, rival_maximum)``
    or ``None`` when no rating on the 301-point grid suffices.
    """
    groups = [(a, b) for a in profile.candidates for b in profile.candidates if a != b]
    at_1 = brute_star_scores(profile, {g: 1 for g in groups})
    at_4 = brute_star_scores(profile, {g: 4 for g in groups})
    slope = Fraction(at_4[guaranteed] - at_1[guaranteed], 3)
    for hundredths in range(100, 401):
        s = Fraction(hundredths, 100)
        achieved = at_1[guaranteed] + (s - 1) * slope
        if achieved > at_4[rival]:
            return s, achieved, at_4[rival]
    return None


_PATTERNS_3 = (
    ("bullet", 0), ("bullet", 1), ("bullet", 2),
    ("full", 0, 1), ("full", 0, 2), ("full", 1, 0),
    ("full", 1, 2), ("full", 2, 0), ("full", 2, 1),
    ("over2", 0, 1), ("over2", 0, 2), ("over2", 1, 2),
    ("over3",),
)


def random_profile(
    rng: random.Random,
    max_ballots: int = 100,
    candidates: tuple[str, ...] = ("A", "B", "C"),
    allow_overvotes: bool = True,
) -> CondensedProfile:
    """A random 3-candidate profile of at most ``max_ballots`` ballots."""
    patterns = [p for p in _PATTERNS_3 if allow_overvotes or not p[0].startswith("over")]
    counts: dict = {}
    for _ in range(rng.randint(0, max_ballots)):
        kind, *positions = rng.choice(patterns)
        names = [candidates[i] for i in positions]
        key = tuple(names) if kind in ("bullet", "full") else frozenset(names or candidates)
        counts[key] = counts.get(key, 0) + 1
    return CondensedProfile(candidates, counts)


def whole_ranking(ranks, roster) -> tuple[str, ...] | None:
    """The ranking one raw ballot expresses, read on its own; ``None`` if its
    top rank does not name exactly one candidate (a blank or a top overvote).

    Write-ins and empty ranks are removed.  The remaining ranks are walked in
    order, each one's not-yet-ranked candidates being its new ones: no new
    candidate skips the rank, one is appended, two or more end the walk.
    The last of N candidates is implied, so the first max(2, N - 1) are kept.
    """
    ranks = [set(marks) & set(roster) for marks in ranks]
    ranks = [r for r in ranks if r]
    if not ranks or len(ranks[0]) != 1:
        return None
    ranking: list[str] = []
    for r in ranks:
        new = sorted(r - set(ranking))
        if len(new) > 1:
            break
        ranking += new
    return tuple(ranking[:max(2, len(roster) - 1)])


def per_ballot_profile(ballots, roster) -> CondensedProfile:
    """Classify each :class:`RankedBallot` on its own, raising as
    :func:`classify_ballot` does, and count each ballot with one first
    choice under its :func:`whole_ranking`."""
    keys = [classify_ballot(b, roster) for b in ballots]
    return condense([whole_ranking(b.ranks, roster) if key and isinstance(key, tuple) else key
                     for b, key in zip(ballots, keys)], roster)


def per_ballot_ingest(doc: dict) -> CondensedProfile:
    """Check and read each ballot of a decoded raw document on its own.

    ``doc`` is the JSON object of a raw CVR with a valid roster.  Every
    ballot gets the full structural check and its own
    :class:`RankedBallot`, with the same error messages as
    :func:`ballotlab.parse_raw`, before any is read by :func:`per_ballot_profile`.
    """
    roster = validate_roster(doc["candidates"])
    ballots = []
    for i, raw_ballot in enumerate(doc["ballots"]):
        if not isinstance(raw_ballot, list):
            raise ParseError(f"ballot {i} must be an array of rank positions")
        if ballots and len(raw_ballot) != len(ballots[0].ranks):
            raise ParseError(
                f"ballot {i} has {len(raw_ballot)} rank positions, "
                f"expected {len(ballots[0].ranks)}"
            )
        for j, raw_rank in enumerate(raw_ballot):
            if not isinstance(raw_rank, list) or not all(isinstance(m, str) for m in raw_rank):
                raise ParseError(f"ballot {i} rank {j + 1} must be an array of mark strings")
            for mark in raw_rank:
                if not is_write_in(mark) and mark not in roster:
                    raise ParseError(
                        f"ballot {i} rank {j + 1}: mark {mark!r} names no roster candidate"
                    )
        ballots.append(ranked_ballot(raw_ballot))
    return per_ballot_profile(ballots, roster)


def later_choice_ballots(ballots, roster) -> int:
    """Ballots whose :func:`whole_ranking` names three or more candidates: the
    ones whose later choices a first-and-second-choice CSV drops."""
    return sum(len(whole_ranking(b.ranks, roster) or ()) > 2 for b in ballots)
