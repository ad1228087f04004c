"""Repeated simulate-then-estimate cycles and their error statistics.

The reported sigmas are RMS deviations from the TRUE invariants (the
maximum-likelihood estimator is biased, so deviations about the mean
would understate the error).  Both records are NamedTuples, and every run
keeps its artifacts so any statistic can be recomputed afterwards.

Seeding: run k of an ensemble uses the derived seeds
``derive_seed(master, 2k)`` (data acquisition) and
``derive_seed(master, 2k + 1)`` (efficiency knowledge), and both sweeps
give point k the master ``derive_seed(seed, k)``; a master is any integer,
numpy's included, taken mod 2**64.  An ensemble hands its seeds, built in
one array pass, to ``simulate``'s draw helpers, which build the Generators
and hold the no-noise rule, so run k draws exactly what ``simulate_run``
and ``perturbed_eta`` draw from its two seeds, however runs are scheduled.
Like ``ml_estimate``, an ensemble rejects an assumed efficiency below 1e-12.
"""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .estimate import _check_etas, _ml_solve, ml_estimate  # noqa: F401  (ml_estimate: bench/ patches it here)
from .simulate import ExperimentConfig, _draw_clicks, _draw_etas, _expected_dark, derive_seed


class RunResult(NamedTuple):
    """One simulate-then-estimate cycle: an immutable record, equal by value."""

    index: int
    trace_est: float
    det_est: float
    det_reliable: bool
    eta_assumed: float
    t_true: tuple
    log_likelihood_at_max: float


class EnsembleResult(NamedTuple):
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
    # run k: seed 2k for its data, 2k + 1 for its eta
    seeds = derive_seed(seed, np.arange(2 * n_runs, dtype=np.uint64))
    rows, t_trues = _draw_clicks(trace_true, det_true, config, seeds[0::2])
    cs = np.array(rows, dtype=np.int64)
    if config.dark_rate > 0.0:
        cs = np.maximum(cs - _expected_dark(config.dark_rate, config.duration), 0)
    etas = _draw_etas(config, seeds[1::2])
    _check_etas(etas)
    eff = np.array(etas)[:, None] * np.array(config.transmittances)
    traces, dets, reliable, log_ls = (
        x.tolist() for x in _ml_solve(eff, np.full(eff.shape, float(config.n_trials)),
                                      cs.astype(float)))
    return EnsembleResult(
        eta=config.eta_apd,
        sigma_det=math.sqrt(sum((d - det_true) ** 2 for d in dets) / n_runs),
        sigma_trace=math.sqrt(sum((t - trace_true) ** 2 for t in traces) / n_runs),
        mean_det_est=sum(dets) / n_runs,
        mean_trace_est=sum(traces) / n_runs,
        n_runs=n_runs,
        fraction_det_reliable=sum(reliable) / n_runs,
        trace_true=trace_true,
        det_true=det_true,
        runs=tuple(map(RunResult._make,
                       zip(range(n_runs), traces, dets, reliable, etas, t_trues, log_ls))),
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
    if not with_uncertainties:
        base_config = replace(base_config, t_uncertainty=0.0, eta_rel_uncertainty=0.0)
    return _sweep(((trace_true, det_true, replace(base_config, eta_apd=eta)) for eta in etas),
                  n_runs, seed)


def state_sweep(
    states: list,
    config: ExperimentConfig,
    n_runs: int,
    seed: int,
) -> list:
    """One ensemble per true state, at the config's fixed efficiency."""
    if not states:
        raise ValueError("states must be non-empty")
    return _sweep(((trace, det, config) for trace, det in states), n_runs, seed)


def _sweep(points, n_runs, seed):
    """One ensemble per (trace_true, det_true, config) point, point k seeded by
    ``derive_seed(seed, k)``; ``run_ensemble`` is looked up at each call."""
    return [run_ensemble(trace, det, config, n_runs, derive_seed(seed, k))
            for k, (trace, det, config) in enumerate(points)]
