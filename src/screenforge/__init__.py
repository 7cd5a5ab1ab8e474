"""Solver and verifier for multi-good sequential screening contracts."""

__version__ = "0.1.0"

from .model import JointModel, build_model  # noqa: F401
from .numerics import RngStream, uniform_draws  # noqa: F401

# The continuum solver and the LP oracle are imported on first use
# (PEP 562): the continuum solver starts with numpy alone, the oracle
# loads HiGHS and scipy.sparse, and neither loads the other.
_CONTINUUM_NAMES = ("InterimUtilityCurve", "ThresholdMechanism", "ic_audit", "revenue_direct",
                    "revenue_functional", "revenue_impulse_form", "solve_thresholds",
                    "upfront_t1", "virtual_value")
_ORACLE_NAMES = ("DiscreteInstance", "DiscreteMechanism", "SolveReport", "discretize",
                 "solve_relaxed", "solve_sequential", "solve_simultaneous")


def __getattr__(name):
    if name in _CONTINUUM_NAMES:
        from . import mech

        return getattr(mech, name)
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
