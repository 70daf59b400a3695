"""Covariance-based device activity detection for massive MIMO.

Solver library and simulation harness for detecting which devices in a
large population transmitted, from a single received pilot block, under
spatially correlated Rician (near-field) channel statistics.  Includes
exact and inexact coordinate-descent solvers for the relaxed
maximum-likelihood problem, a block-diagonal acceleration exploiting
low-rank channel correlation, identifiability/dimension diagnostics,
and a Monte Carlo experiment CLI whose plans also run joint activity and
data detection (2^bits sequences per device).
"""

from .geometry import (ChannelStats, DeviceGeometry, GeometryConfig,
                       rayleigh_distance)
from .population import (DevicePopulation, ScenarioConfig, build_population,
                         mismatched_population)
from .synthesis import (ActivityTruth, ReceivedSignal, SignatureSet,
                        generate_sequences, sample_truth, synthesize_signal)
from .mle import FullState, NumericalFailure, StepKernel
from .solvers import (DivergenceSignal, SolveOptions, SolveResult, solve)
from .lowrank import BlockState, LowRankBasis, build_basis, transform_problem
from .analysis import (DimensionReport, cosine_similarity_pair,
                       identifiability_holds, statistical_dimension,
                       theorem3_scan)
from .harness import (DetectionReport, ExperimentPlan, baseline_mismatched,
                      convergence_table, error_probability, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "ActivityTruth", "BlockState", "ChannelStats", "DetectionReport",
    "DeviceGeometry", "DevicePopulation", "DimensionReport",
    "DivergenceSignal", "ExperimentPlan", "FullState", "GeometryConfig",
    "LowRankBasis", "NumericalFailure", "ReceivedSignal", "ScenarioConfig",
    "SignatureSet", "SolveOptions", "SolveResult", "StepKernel",
    "baseline_mismatched", "build_basis", "build_population",
    "convergence_table", "cosine_similarity_pair", "error_probability",
    "generate_sequences", "identifiability_holds", "mismatched_population",
    "rayleigh_distance", "run_experiment", "sample_truth", "solve",
    "statistical_dimension", "synthesize_signal", "theorem3_scan",
    "transform_problem",
]
