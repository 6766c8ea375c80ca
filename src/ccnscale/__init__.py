"""Cache allocation optimizer and Monte-Carlo simulator for
content-centric wireless networks on the unit torus."""

from __future__ import annotations

__version__ = "0.2.0"

from ._kernels import get_backend
from .alloc import (
    Allocation,
    AllocationProblem,
    kkt_residual,
    optimized_delay,
    round_to_integers,
    solve,
)
from .config import Mode, NetworkConfig
from .errors import (
    CcnScaleError,
    ConfigError,
    InfeasibleError,
    NoHolderError,
    UnsupportedRegimeError,
)
from .geometry import CellGrid, expected_nearest_distance_exact
from .popularity import PopularityModel, zipf
from .scaling import (
    ScalingRegime,
    predicted_delay_order,
    predicted_throughput_order,
)
from .sched import TdmSchedule, audit_schedule, build_schedule
from .sim import NetworkInstance, TrialStats, build_instance, run_trials

__all__ = [
    "__version__",
    "get_backend",
    "Allocation",
    "AllocationProblem",
    "kkt_residual",
    "optimized_delay",
    "round_to_integers",
    "solve",
    "Mode",
    "NetworkConfig",
    "CcnScaleError",
    "ConfigError",
    "InfeasibleError",
    "NoHolderError",
    "UnsupportedRegimeError",
    "CellGrid",
    "expected_nearest_distance_exact",
    "PopularityModel",
    "zipf",
    "ScalingRegime",
    "predicted_delay_order",
    "predicted_throughput_order",
    "TdmSchedule",
    "audit_schedule",
    "build_schedule",
    "NetworkInstance",
    "TrialStats",
    "build_instance",
    "run_trials",
]
