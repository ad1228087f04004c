"""Repeated simulate-then-estimate cycles and their error statistics.

The reported sigmas are RMS deviations from the TRUE invariants (the
maximum-likelihood estimator is biased, so deviations about the mean
would understate the error).  Every run keeps its per-run artifacts so
any statistic can be recomputed afterwards.

Seeding: run k of an ensemble uses the pair of derived seeds
``derive_seed(master, 2k)`` (data acquisition) and
``derive_seed(master, 2k + 1)`` (efficiency knowledge), where
``derive_seed`` is a SplitMix64 mix of the master seed and the index.
Sweeps derive one master per sweep point the same way.  Results are
therefore identical no matter how runs are scheduled.
"""

import math
from dataclasses import dataclass, replace

from .estimate import _ml_solve, ml_estimate  # noqa: F401  (ml_estimate: bench/ patches it here)
from .simulate import ExperimentConfig, perturbed_eta, subtract_dark, _simulate_with_truth

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Deterministic 64-bit seed for stream ``index`` of ``master`` (SplitMix64)."""
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RunResult:
    """One simulate-then-estimate cycle."""

    index: int
    trace_est: float
    det_est: float
    det_reliable: bool
    eta_assumed: float
    t_true: tuple
    log_likelihood_at_max: float


@dataclass(frozen=True)
class EnsembleResult:
    """RMS deviations and means over an ensemble of simulated experiments."""

    eta: float
    sigma_det: float
    sigma_trace: float
    mean_det_est: float
    mean_trace_est: float
    n_runs: int
    fraction_det_reliable: float
    trace_true: float
    det_true: float
    runs: tuple


def run_ensemble(
    trace_true: float,
    det_true: float,
    config: ExperimentConfig,
    n_runs: int,
    seed: int,
) -> EnsembleResult:
    """Simulate the whole experiment ``n_runs`` times and estimate each run.

    Each run draws fresh true transmittances, fresh click statistics, and
    a fresh efficiency value as known to the estimator; expected dark
    counts are subtracted before estimation when the config has a dark
    rate.  All runs are then solved in one batch, each bit-identical to
    ``ml_estimate`` on its own records.  Returns RMS deviations from
    (trace_true, det_true).
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    acquisitions, t_trues, etas = [], [], []
    for k in range(n_runs):
        records, t_true = _simulate_with_truth(
            trace_true, det_true, config, derive_seed(seed, 2 * k)
        )
        if config.dark_rate > 0.0:
            records = [
                subtract_dark(r, config.dark_rate, config.duration) for r in records
            ]
        acquisitions.append(records)
        t_trues.append(t_true)
        etas.append(perturbed_eta(config, derive_seed(seed, 2 * k + 1)))
    solved = (x.tolist() for x in _ml_solve(acquisitions, etas))
    runs = [
        RunResult(k, trace, det, reliable, eta_assumed, t_true, log_l)
        for k, (trace, det, reliable, log_l, eta_assumed, t_true)
        in enumerate(zip(*solved, etas, t_trues))
    ]
    return EnsembleResult(
        eta=config.eta_apd,
        sigma_det=math.sqrt(sum((r.det_est - det_true) ** 2 for r in runs) / n_runs),
        sigma_trace=math.sqrt(sum((r.trace_est - trace_true) ** 2 for r in runs) / n_runs),
        mean_det_est=sum(r.det_est for r in runs) / n_runs,
        mean_trace_est=sum(r.trace_est for r in runs) / n_runs,
        n_runs=n_runs,
        fraction_det_reliable=sum(r.det_reliable for r in runs) / n_runs,
        trace_true=trace_true,
        det_true=det_true,
        runs=tuple(runs),
    )


def eta_sweep(
    trace_true: float,
    det_true: float,
    base_config: ExperimentConfig,
    etas: list,
    n_runs: int,
    with_uncertainties: bool,
    seed: int,
) -> list:
    """One ensemble per detector efficiency.

    with_uncertainties toggles the calibration-knowledge noise: False
    zeroes t_uncertainty and eta_rel_uncertainty regardless of the base
    config, True keeps the base config values.
    """
    if not etas:
        raise ValueError("etas must be non-empty")
    results = []
    for k, eta in enumerate(etas):
        cfg = replace(base_config, eta_apd=eta)
        if not with_uncertainties:
            cfg = replace(cfg, t_uncertainty=0.0, eta_rel_uncertainty=0.0)
        results.append(
            run_ensemble(trace_true, det_true, cfg, n_runs, derive_seed(seed, k))
        )
    return results


def state_sweep(
    states: list,
    config: ExperimentConfig,
    n_runs: int,
    seed: int,
) -> list:
    """One ensemble per true state, at the config's fixed efficiency."""
    if not states:
        raise ValueError("states must be non-empty")
    results = []
    for k, (trace_true, det_true) in enumerate(states):
        results.append(
            run_ensemble(trace_true, det_true, config, n_runs, derive_seed(seed, k))
        )
    return results
