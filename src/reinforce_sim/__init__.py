"""Simulation and verification toolkit for linearly reinforced two-particle
walks on the integer line, their marble-urn representation, the coupled
random-environment sandwich, and birth-death recurrence criteria."""

__version__ = "0.2.3"

from .direct import ModelParams, TrajectoryRecord, WeightMap, meeting_statistics, run_direct
from .distributions import BetaParams, RngStream
from .rwre import Classification, CriterionResult, criterion
from .urn import MagicUrn, PolyaUrn, Side
from .urn_process import enumerate_exact, tv_distance

__all__ = [
    "BetaParams",
    "Classification",
    "CriterionResult",
    "MagicUrn",
    "ModelParams",
    "PolyaUrn",
    "RngStream",
    "Side",
    "TrajectoryRecord",
    "WeightMap",
    "criterion",
    "enumerate_exact",
    "meeting_statistics",
    "run_direct",
    "tv_distance",
    "__version__",
]
