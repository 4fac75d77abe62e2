"""Ranked-ballot analysis over condensed vote profiles.

Ingests ranked ballots (raw cast-vote-record JSON or condensed pattern
CSV), tabulates instant-runoff rounds with transfers and exhaustion,
computes head-to-head Condorcet results, and evaluates parameterized
approval- and STAR-voting counterfactual models in exact rational
arithmetic.

The raw-CVR reader (``ingest``), the model modules (``irv``,
``condorcet``, ``approval``, ``star``) and the report layer (``report``,
``rational``) are registered in ``sys.modules`` at import but execute on
first attribute access; ``scoring``, the model ``approval`` and ``star``
share, is not registered and runs when they import it.  Each model
module ends with the report builders of its commands, so a command-line
process compiles and runs only the reader, model, builder and renderer
it needs: ``ingest`` loads no report layer, nor ``fractions`` or
``decimal``.  Public names are served from here on demand and behave
exactly like eager re-exports; ``ballotlab.ingest`` is the function, not
the module.
"""

__version__ = "1.0.0"

import importlib.util as _importlib_util
import sys as _sys

from .core import (
    WRITE_IN_PREFIX,
    CondensedProfile,
    RankedBallot,
    classify_ballot,
    condense,
)
from .condensed import parse_condensed, write_condensed
from .errors import (
    DecisiveTieError,
    MalformedBallotError,
    NoValidBallotsError,
    ParseError,
    UnattainableError,
)

_LAZY_EXPORTS = {
    "ingest": ("RawCvrDocument", "parse_raw", "ingest"),
    "irv": ("IrvOutcome", "IrvRound", "RoundShares", "irv_percentages", "tabulate_irv"),
    "condorcet": (
        "INCLUDE_TIES",
        "RANKED_ONLY",
        "CenterSqueeze",
        "CondorcetReport",
        "PairwiseTally",
        "condorcet_winner_loser",
        "detect_center_squeeze",
        "pairwise_tallies",
    ),
    "approval": (
        "ApprovalOutcome",
        "ApprovalScenario",
        "ScoreRange",
        "approval_range",
        "evaluate_approval",
        "min_second_votes_to_clinch",
        "sweep_uniform",
        "uniform_threshold",
    ),
    "star": (
        "StarOutcome",
        "StarScenario",
        "StarThreshold",
        "evaluate_star",
        "star_range",
        "sweep_star",
        "uniform_star_threshold",
    ),
}
# Public name -> the lazily loaded submodule that defines it.
_DEFINED_IN = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def _register_lazy(name: str):
    """Put ``ballotlab.<name>`` in ``sys.modules``; its code runs on first attribute access."""
    spec = _importlib_util.find_spec(f"{__name__}.{name}")
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_ingest_module = _register_lazy("ingest")  # ``ballotlab.ingest`` is the function
irv = _register_lazy("irv")
condorcet = _register_lazy("condorcet")
approval = _register_lazy("approval")
star = _register_lazy("star")
rational = _register_lazy("rational")
report = _register_lazy("report")


def __getattr__(name: str):
    try:
        module = _DEFINED_IN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_sys.modules[f"{__name__}.{module}"], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFINED_IN})


__all__ = [
    "__version__",
    "WRITE_IN_PREFIX",
    "RankedBallot",
    "CondensedProfile",
    "classify_ballot",
    "condense",
    "parse_condensed",
    "write_condensed",
    *_DEFINED_IN,
    "MalformedBallotError",
    "NoValidBallotsError",
    "ParseError",
    "DecisiveTieError",
    "UnattainableError",
]
