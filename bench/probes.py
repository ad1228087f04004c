"""Per-layer probes run at the end of every traced run.

Some layers cost the same whatever the workload (the likelihood kernel,
the scalar likelihood, the click-probability formula, the click-table
reader and writer, interpreter start-up and import), so they are timed
here on fixed inputs.  Layers that a workload does not exercise (the
ensemble loop outside ``sweep-eta``, the CLI commands outside
``cli-session``) are timed here too, so that every traced run reports
every per-layer metric.
"""

import shutil
import sys
import time
from statistics import median

import numpy as np

import workloads as wl
from sqclick import __version__, ensemble, estimate, gaussian, simulate, tables
from tracer import Tracer, per_call_us

GRID_POINTS = 200
GRID_REPEATS = 15
ENSEMBLE_ETA = 0.10

ENSEMBLE_METRICS = ("ensemble.run_ensemble.s", "ensemble.overhead_share")
CLI_METRICS = tuple(f"cli.{name}_ms_p50" for name in wl.CLI_COMMANDS)


def _subprocess_ms(argv, repeats, env, out):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        code, _ = wl.run_subprocess(argv, env)
        walls.append(time.perf_counter() - start)
        out.attempted += 1
        if code != 0:
            out.fail(1, f"{argv[1:]} exited with {code}")
    return median(walls) * 1e3


def fixed_layers(seed, sizes, out):
    """Layer timings on fixed inputs: a 4-setting table at eta = 0.05."""
    cfg = simulate.ExperimentConfig(rep_rate=wl.REP_RATE, duration=wl.DURATION,
                                    transmittances=wl.PAPER_TS, eta_apd=0.05)
    records = simulate.simulate_run(wl.PAPER_TRACE, wl.PAPER_DET, cfg,
                                    ensemble.derive_seed(seed, 99))
    trace_axis = np.linspace(2.0, 4.0, GRID_POINTS)
    det_axis = np.linspace(1.0, 4.0, GRID_POINTS)
    grid_s = []
    for _ in range(GRID_REPEATS):
        start = time.perf_counter()
        estimate.likelihood_grid(records, 0.05, trace_axis, det_axis)
        grid_s.append(time.perf_counter() - start)
    grid = median(grid_s)

    path = wl.WORK / f"probe-{seed}.csv"
    manifest = tables.manifest_lines("simulate", __version__, seed=seed)

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            tables.write_click_records(fh, records, manifest)

    env = wl.cli_env()
    wl.WORK.mkdir(parents=True, exist_ok=True)
    try:
        write_us = per_call_us(write, 100, 7)
        read_us = per_call_us(lambda: tables.read_click_records(path), 100, 7)
    finally:
        path.unlink(missing_ok=True)
    return {
        "estimate.likelihood_grid.ms": (grid * 1e3, "ms"),
        "estimate.likelihood_grid.cells_per_s": (
            GRID_POINTS * GRID_POINTS * len(records) / grid, "cells/s"),
        "estimate.log_likelihood.us": (per_call_us(
            lambda: estimate.log_likelihood(wl.PAPER_TRACE, wl.PAPER_DET, records, 0.05),
            200, 7), "us"),
        "gaussian.click_probability.us_p50": (per_call_us(
            lambda: gaussian.click_probability_from_invariants(
                wl.PAPER_TRACE, wl.PAPER_DET, 0.025), 1000, 7), "us"),
        "tables.write_click_records_us": (write_us, "us"),
        "tables.read_click_records_us": (read_us, "us"),
        "cli.interpreter_ms": (_subprocess_ms([sys.executable, "-c", "pass"],
                                              sizes.subprocess_repeats, env, out), "ms"),
        "cli.import_ms": (_subprocess_ms([sys.executable, "-c", "import sqclick.cli"],
                                         sizes.subprocess_repeats, env, out), "ms"),
    }


def ensemble_layer(seed, sizes, out):
    """One traced run_ensemble at eta = 0.10 with exact knowledge, replayed."""
    tracer = Tracer()
    cfg = simulate.ExperimentConfig(rep_rate=wl.REP_RATE, duration=wl.DURATION,
                                    transmittances=wl.PAPER_TS, eta_apd=ENSEMBLE_ETA)
    n_runs = sizes.probe_ensemble_runs
    point_seed = ensemble.derive_seed(seed, 77)
    result = wl.traced_ensemble(tracer, lambda: ensemble.run_ensemble(
        wl.PAPER_TRACE, wl.PAPER_DET, cfg, n_runs, point_seed))
    start = time.perf_counter()
    bad = wl.replay_point(tracer, cfg, point_seed, result, n_runs)
    replay_wall = time.perf_counter() - start
    out.attempted += n_runs
    if bad:
        out.fail(len(bad), "replayed ensemble cycles differ from run_ensemble's RunResults")
    metrics = wl.ensemble_layer_metrics(tracer, replay_wall)
    return {name: metrics[name] for name in ENSEMBLE_METRICS}


def cli_layer(seed, sizes, out):
    """One experimenter's session, run ``subprocess_repeats`` times, traced."""
    tracer = Tracer()
    env = wl.cli_env()
    work = wl.WORK / f"probe-cli-{seed}"
    try:
        cfg_path, modes_path, sessions = wl.cli_setup(seed, 1, work, None, env)
        done, _ = wl.cli_pass(sessions, cfg_path, modes_path, 0.0,
                              sizes.subprocess_repeats * len(wl.CLI_COMMANDS), env, tracer)
        wl.check_cli(out, sessions, done, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {f"cli.{name}_ms_p50": (median(tracer.durations(f"cli.{name}")) * 1e3, "ms")
            for name in wl.CLI_COMMANDS}


def fill_layers(seed, sizes, out):
    """Add every per-layer metric the workload's own traced pass did not give."""
    out.metrics.update(fixed_layers(seed, sizes, out))
    if not all(name in out.metrics for name in ENSEMBLE_METRICS):
        out.metrics.update(ensemble_layer(seed, sizes, out))
    if not all(name in out.metrics for name in CLI_METRICS):
        out.metrics.update(cli_layer(seed, sizes, out))
