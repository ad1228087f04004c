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
Like ``ml_estimate``, an ensemble rejects an assumed efficiency below 1e-12,
and a sweep checks that it has points, and every point, before it runs any.
"""

import math
import operator
from dataclasses import replace
from typing import Iterable, NamedTuple

import numpy as np

from .estimate import _check_etas, _ml_solve, ml_estimate  # noqa: F401  (ml_estimate: bench/ patches it here)
from .gaussian import _require_physical
from .simulate import ExperimentConfig, _draw_clicks, _draw_etas, derive_seed


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
    """Simulate the whole experiment ``n_runs`` (an integer) times and estimate each run.

    Each run draws fresh true transmittances, fresh click statistics, and
    a fresh efficiency value as known to the estimator.  Dark counts are
    not subtracted: the solver fits the model the simulator draws, with the
    dark mean ``dark_rate / rep_rate`` per pulse, so a blocked (t = 0)
    setting may click.  All runs are then solved in one batch, each
    bit-identical to the solver on its own records (to ``ml_estimate``
    without a dark rate).  Returns RMS deviations from (trace_true, det_true).
    """
    n_runs = operator.index(n_runs)  # a float raises TypeError, as a float seed does
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    # run k: seed 2k for its data, 2k + 1 for its eta
    seeds = derive_seed(seed, np.arange(2 * n_runs, dtype=np.uint64))
    rows, t_trues = _draw_clicks(trace_true, det_true, config, seeds[0::2])
    etas = _draw_etas(config, seeds[1::2])
    _check_etas(etas)
    eff = np.array(etas)[:, None] * np.array(config.transmittances)
    traces, dets, reliable, log_ls = (
        x.tolist() for x in _ml_solve(eff, np.full(eff.shape, float(config.n_trials)),
                                      np.array(rows, dtype=float),
                                      config.dark_rate / config.rep_rate))
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
    etas: Iterable[float],
    n_runs: int,
    with_uncertainties: bool,
    seed: int,
) -> list:
    """One ensemble per detector efficiency of ``etas``, any iterable (numpy
    arrays included); an empty one raises ValueError.  with_uncertainties
    toggles the calibration-knowledge noise: False zeroes t_uncertainty and
    eta_rel_uncertainty regardless of the base config, True keeps its values.
    """
    if not with_uncertainties:
        base_config = replace(base_config, t_uncertainty=0.0, eta_rel_uncertainty=0.0)
    return _sweep([(trace_true, det_true, replace(base_config, eta_apd=eta)) for eta in etas],
                  n_runs, seed, "etas")


def state_sweep(
    states: Iterable[tuple],
    config: ExperimentConfig,
    n_runs: int,
    seed: int,
) -> list:
    """One ensemble per true (trace, det) of ``states`` at the config's fixed efficiency:
    any iterable of pairs, an (N, 2) array included; an empty one raises ValueError."""
    return _sweep([(trace, det, config) for trace, det in states], n_runs, seed, "states")


def _check_assumed_etas(config):
    """Raise ValueError where run_ensemble would refuse the config's assumed
    efficiencies.  ``_draw_etas`` decides: without eta noise they are eta_apd,
    with it a draw clipped to the floor, which always passes."""
    _check_etas(_draw_etas(config, [0]))


def _sweep(points, n_runs, seed, name="points"):
    """One ensemble per (trace_true, det_true, config) of the list ``points``,
    point k seeded by ``derive_seed(seed, k)``; ``run_ensemble`` is looked up at
    each call.  Every point is checked first, so an empty list ("<name> must be
    non-empty") or a point that would be refused stops the sweep before any runs."""
    if not points:
        raise ValueError(f"{name} must be non-empty")
    for trace, det, config in points:
        _require_physical(trace, det)
        _check_assumed_etas(config)
    return [run_ensemble(trace, det, config, n_runs, derive_seed(seed, k))
            for k, (trace, det, config) in enumerate(points)]
