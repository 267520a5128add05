"""Pareto-optimal risk sharing with (robust) distortion risk measures.

The package computes Choquet valuations on finite empirical spaces, solves
the peer-to-peer layer allocation problem with side payments, and compares
the outcome against a centralized insurance market priced by expected
shortfall, including Stackelberg premiums.  See the demos directory for
worked narratives and the cli module for the command line surface.
"""

from . import oracle
from .centralized import (CentralizedContract, CentralizedWelfare,
                          centralized_welfare, solve_centralized,
                          solve_measure_lp, stackelberg_premiums)
from .distortion import Distortion, DistortionSet, single
from .errors import ParetopoolError
from .ingest import (LossPanel, correlation, parse_losses, summary_stats,
                     to_space)
from .posolver import (AgentSpec, LayerAllocation, MarketReport,
                       aggregate_loss, layer_decomposition, prelec_deductible,
                       settle, side_payments, solve_fixed, solve_robust,
                       welfare_report, with_side_payments)
from .riskmeasure import (EmpiricalSpace, choquet, es, robust_drm, survival,
                          var)

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "CentralizedContract",
    "CentralizedWelfare",
    "Distortion",
    "DistortionSet",
    "EmpiricalSpace",
    "LayerAllocation",
    "LossPanel",
    "MarketReport",
    "ParetopoolError",
    "aggregate_loss",
    "centralized_welfare",
    "choquet",
    "correlation",
    "es",
    "layer_decomposition",
    "oracle",
    "parse_losses",
    "prelec_deductible",
    "robust_drm",
    "settle",
    "side_payments",
    "single",
    "solve_centralized",
    "solve_fixed",
    "solve_measure_lp",
    "solve_robust",
    "stackelberg_premiums",
    "summary_stats",
    "survival",
    "to_space",
    "var",
    "welfare_report",
    "with_side_payments",
]
