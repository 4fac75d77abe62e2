"""Ranked-ballot analysis over condensed vote profiles.

Ingests ranked ballots (raw cast-vote-record JSON or condensed pattern
CSV), tabulates instant-runoff rounds with transfers and exhaustion,
computes head-to-head Condorcet results, and evaluates parameterized
approval- and STAR-voting counterfactual models in exact rational
arithmetic.
"""

__version__ = "1.0.0"

from .approval import (
    ApprovalOutcome,
    ApprovalRange,
    ApprovalScenario,
    approval_range,
    evaluate_approval,
    min_second_votes_to_clinch,
    sweep_uniform,
    uniform_threshold,
)
from .condorcet import (
    INCLUDE_TIES,
    RANKED_ONLY,
    CenterSqueeze,
    CondorcetReport,
    PairwiseTally,
    condorcet_winner_loser,
    detect_center_squeeze,
    pairwise_tallies,
)
from .core import (
    WRITE_IN_PREFIX,
    BallotClass,
    Blank,
    Bullet,
    CondensedProfile,
    Full,
    OvervoteTopAll,
    OvervoteTopTwo,
    RankedBallot,
    classify_ballot,
    condense,
)
from .errors import (
    DecisiveTieError,
    MalformedBallotError,
    NoValidBallotsError,
    ParseError,
    UnattainableError,
)
from .ingest import (
    RawCvrDocument,
    ingest,
    parse_condensed,
    parse_raw,
    write_condensed,
)
from .irv import IrvOutcome, IrvRound, RoundShares, irv_percentages, tabulate_irv
from .star import (
    StarOutcome,
    StarRange,
    StarScenario,
    StarThreshold,
    evaluate_star,
    star_range,
    sweep_star,
    uniform_star_threshold,
)

__all__ = [
    "__version__",
    "WRITE_IN_PREFIX",
    "RankedBallot",
    "Bullet",
    "Full",
    "OvervoteTopTwo",
    "OvervoteTopAll",
    "Blank",
    "BallotClass",
    "CondensedProfile",
    "classify_ballot",
    "condense",
    "RawCvrDocument",
    "parse_raw",
    "ingest",
    "parse_condensed",
    "write_condensed",
    "IrvRound",
    "IrvOutcome",
    "RoundShares",
    "tabulate_irv",
    "irv_percentages",
    "RANKED_ONLY",
    "INCLUDE_TIES",
    "PairwiseTally",
    "CondorcetReport",
    "CenterSqueeze",
    "pairwise_tallies",
    "condorcet_winner_loser",
    "detect_center_squeeze",
    "ApprovalScenario",
    "ApprovalOutcome",
    "ApprovalRange",
    "approval_range",
    "evaluate_approval",
    "uniform_threshold",
    "min_second_votes_to_clinch",
    "sweep_uniform",
    "StarScenario",
    "StarOutcome",
    "StarRange",
    "StarThreshold",
    "star_range",
    "evaluate_star",
    "uniform_star_threshold",
    "sweep_star",
    "MalformedBallotError",
    "NoValidBallotsError",
    "ParseError",
    "DecisiveTieError",
    "UnattainableError",
]
