"""Characterization of single-mode squeezed vacuum from click statistics.

A tunable beamsplitter in front of an on/off single-photon detector turns
the no-click probability into a linear probe of the two phase-insensitive
invariants (trace and determinant) of the state's covariance matrix.
This package provides the forward Monte Carlo simulator of that
experiment, the exact two-point inversion, a constrained
maximum-likelihood estimator, the classical-gain and homodyne reference
estimators, and the ensemble machinery for error analysis.

The namespace is lazy (PEP 562): a public name imports its module on
first access, so ``import sqclick`` alone loads no submodule and no numpy.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "gaussian": (
        "CovarianceMatrix", "SqueezerParams", "QuadratureVariances", "UnphysicalStateError",
        "EstimationError", "PHYS_TOL", "cov_from_squeezer", "trace_det_from_squeezer",
        "squeezer_from_trace_det", "variances_from_invariants", "purity_from_h",
        "no_click_from_invariants", "click_probability_from_invariants",
        "gain_bounds_from_trace", "check_physicality", "invert_two_point", "sensitivity",
        "expected_click_rate", "classical_estimate", "homodyne_correct", "estimate_eta"),
    "simulate": ("ExperimentConfig", "ClickRecord", "simulate_run", "subtract_dark",
                 "perturbed_eta", "derive_seed"),
    "estimate": ("Estimate", "log_likelihood", "likelihood_grid", "ml_estimate"),
    "modes": ("mode_count_fit",),
    "ensemble": ("EnsembleResult", "RunResult", "run_ensemble", "eta_sweep", "state_sweep"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
