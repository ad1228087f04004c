"""Characterization of single-mode squeezed vacuum from click statistics.

A tunable beamsplitter in front of an on/off single-photon detector turns
the no-click probability into a linear probe of the two phase-insensitive
invariants (trace and determinant) of the state's covariance matrix.
This package provides the forward Monte Carlo simulator of that
experiment, the exact two-point inversion, a constrained
maximum-likelihood estimator, the classical-gain and homodyne reference
estimators, and the ensemble machinery for error analysis.
"""

__version__ = "0.1.0"

from .ensemble import EnsembleResult, RunResult, derive_seed, eta_sweep, run_ensemble, state_sweep
from .estimate import (
    Estimate,
    EstimationError,
    classical_estimate,
    estimate_eta,
    homodyne_correct,
    invert_two_point,
    likelihood_grid,
    log_likelihood,
    ml_estimate,
    mode_count_fit,
    sensitivity,
)
from .gaussian import (
    PHYS_TOL,
    CovarianceMatrix,
    QuadratureVariances,
    SqueezerParams,
    UnphysicalStateError,
    check_physicality,
    click_probability_from_invariants,
    cov_from_squeezer,
    gain_bounds_from_trace,
    no_click_from_invariants,
    purity_from_h,
    squeezer_from_trace_det,
    trace_det_from_squeezer,
    variances_from_invariants,
)
from .simulate import (
    ClickRecord,
    ExperimentConfig,
    expected_click_rate,
    perturbed_eta,
    simulate_run,
    subtract_dark,
)

__all__ = [
    "CovarianceMatrix",
    "SqueezerParams",
    "QuadratureVariances",
    "UnphysicalStateError",
    "PHYS_TOL",
    "cov_from_squeezer",
    "trace_det_from_squeezer",
    "squeezer_from_trace_det",
    "variances_from_invariants",
    "purity_from_h",
    "no_click_from_invariants",
    "click_probability_from_invariants",
    "gain_bounds_from_trace",
    "check_physicality",
    "ExperimentConfig",
    "ClickRecord",
    "simulate_run",
    "expected_click_rate",
    "subtract_dark",
    "perturbed_eta",
    "Estimate",
    "EstimationError",
    "invert_two_point",
    "sensitivity",
    "log_likelihood",
    "likelihood_grid",
    "ml_estimate",
    "classical_estimate",
    "homodyne_correct",
    "estimate_eta",
    "mode_count_fit",
    "EnsembleResult",
    "RunResult",
    "derive_seed",
    "run_ensemble",
    "eta_sweep",
    "state_sweep",
]
