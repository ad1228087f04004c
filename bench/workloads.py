"""The three benchmark workloads, their output checks and their traced passes.

Every workload is closed loop and single process: one caller issues a call,
waits for it to return, then issues the next.  CLI commands run as
subprocesses, one at a time.  Each workload returns an ``Outcome``: the
operations attempted and failed, the end-to-end metrics (untraced run) or
the per-layer metrics (traced run), and report lines for humans.
"""

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from sqclick import ensemble, estimate, gaussian, simulate, tables
from statistics import median

from tracer import percentile

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

PAPER_TRACE, PAPER_DET = 2.321, 1.156
REP_RATE, DURATION = 780400.0, 100.0
PAPER_TS = (1.0, 0.75, 0.5, 0.25)
SCAN_TS = tuple((16 - i) / 16 for i in range(16))
SWEEP_ETAS = (0.01, 0.05, 0.08, 0.10, 0.125, 0.15, 0.175, 0.20)
TABLE_ETAS = (0.0084, 0.05, 0.5)
T_UNC, ETA_REL_UNC = 0.005, 0.01
CLI_ETA, CLI_DARK_RATE = 0.5, 300.0
CLI_COMMANDS = ("simulate", "estimate", "invert", "modefit")
CMD_TIMEOUT_S = 60

# An estimate whose log-likelihood is this far below the likelihood at the
# (feasible) true state provably missed the constrained maximum.
MISS_NATS = 0.01
PHYS_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; the self-test shrinks these."""

    sweep_etas: tuple = SWEEP_ETAS
    sweep_runs: int = 200
    tables: int = 1024
    cli_sessions: int = 5
    cli_min_commands: int = 100
    setup_repeats: int = 5
    subprocess_repeats: int = 5
    probe_ensemble_runs: int = 200


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: list = field(default_factory=list)

    def fail(self, count, why):
        self.failed += count
        print(f"FAIL ({count} operations): {why}", file=sys.stderr)


def _call(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, *args)


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def repeat_setup(setup, repeats):
    """Run ``setup`` ``repeats`` times; return (wall seconds of each, last result)."""
    walls, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = setup()
        walls.append(time.perf_counter() - start)
    return walls, result


def is_physical(trace, det):
    return (math.isfinite(trace) and math.isfinite(det)
            and 1.0 - PHYS_TOL <= det <= 0.25 * trace * trace + PHYS_TOL)


def is_miss(log_l_at_max, records, eta_assumed):
    truth = estimate.log_likelihood(PAPER_TRACE, PAPER_DET, records, eta_assumed)
    return log_l_at_max < truth - MISS_NATS


def record_e2e(out, setup_walls, call_s, ops, tail_q, hits, hit_samples):
    """Fill the end-to-end metrics shared by every workload.

    ops is the number of operations done in the calls timed by ``call_s``;
    call_ms_tail is the ``tail_q`` percentile of the call latencies.
    """
    calls_ms = [c * 1e3 for c in call_s]
    out.metrics.update({
        "setup_s": (median(setup_walls), "s"),
        "ops_per_s": (ops / sum(call_s), "1/s"),
        "call_ms_p50": (median(calls_ms), "ms"),
        "call_ms_tail": (percentile(calls_ms, tail_q), "ms"),
        "mle_hit_rate": (hits / hit_samples if hit_samples else 0.0, "share"),
    })
    out.report.append(f"calls: n={len(calls_ms)}, call_ms_tail is p{tail_q:g}")
    out.report.append(f"mle_miss_rate = {1 - hits / hit_samples if hit_samples else 1.0:.6g} "
                      f"share ({hit_samples - hits}/{hit_samples} estimates)")


# --------------------------------------------------------------------------
# sweep-eta: eta_sweep exactly as in acceptance criterion 5.

def _sweep_base():
    # eta_sweep(with_uncertainties=False) zeroes the calibration noise, so the
    # true transmittances equal the nominal ones.
    return simulate.ExperimentConfig(rep_rate=REP_RATE, duration=DURATION,
                                     transmittances=PAPER_TS, eta_apd=0.5)


def _check_sweep(results, sizes):
    """(point, run) pairs that fail criterion 5's bands or give unphysical estimates."""
    etas, runs = sizes.sweep_etas, sizes.sweep_runs
    every = {(k, j) for k in range(len(etas)) for j in range(runs)}
    if len(results) != len(etas) or any(len(r.runs) != runs for r in results):
        print("sweep returned the wrong number of points or runs", file=sys.stderr)
        return every
    bad = set()
    for k, res in enumerate(results):
        bad.update((k, j) for j, run in enumerate(res.runs)
                   if not is_physical(run.trace_est, run.det_est))
        if not res.sigma_trace <= 1e-2:
            print(f"sigma_trace {res.sigma_trace} > 1e-2 at eta {res.eta}", file=sys.stderr)
            bad.update((k, j) for j in range(runs))
    crossing = next((r.eta for r in results if r.sigma_det < 1e-2), None)
    if crossing is None or not 0.10 <= crossing <= 0.20:
        print(f"sigma_det first below 1e-2 at eta {crossing}, not in [0.10, 0.20]",
              file=sys.stderr)
        return every
    return bad


def replay_point(tracer, cfg, point_seed, result, n_runs):
    """Re-run an ensemble's cycles through the public layer functions, traced.

    Returns the run indices whose RunResult differs from ``result``'s in any
    bit, or every index when ``result`` is missing.
    """
    bad = set()
    for j in range(n_runs):
        records = tracer.call("simulate.simulate_run", simulate.simulate_run,
                              PAPER_TRACE, PAPER_DET, cfg, ensemble.derive_seed(point_seed, 2 * j))
        eta_assumed = tracer.call("simulate.perturbed_eta", simulate.perturbed_eta,
                                  cfg, ensemble.derive_seed(point_seed, 2 * j + 1))
        est = tracer.call("estimate.ml_estimate", estimate.ml_estimate, records, eta_assumed)
        replayed = ensemble.RunResult(
            index=j, trace_est=est.trace, det_est=est.det, det_reliable=est.det_reliable,
            eta_assumed=eta_assumed, t_true=cfg.transmittances,
            log_likelihood_at_max=est.log_likelihood_at_max,
        )
        if result is None or j >= len(result.runs) or result.runs[j] != replayed:
            bad.add(j)
    return bad


def traced_ensemble(tracer, fn, *args):
    """Call ``fn`` with ``ensemble.run_ensemble`` wrapped in a span.

    The wrapper is installed on the module attribute that ``eta_sweep``
    looks up, and removed before returning.
    """
    original = ensemble.run_ensemble

    def spanned(*a, **kw):
        with tracer.span("ensemble.run_ensemble"):
            return original(*a, **kw)

    ensemble.run_ensemble = spanned
    try:
        return fn(*args)
    finally:
        ensemble.run_ensemble = original


def call_metrics(tracer):
    """Per-call timings of the estimate and simulate layers from the spans."""
    ml = tracer.durations("estimate.ml_estimate")
    return {
        "estimate.ml_estimate.ms_p50": (median(ml) * 1e3, "ms"),
        "estimate.ml_estimate.ms_p99": (percentile(ml, 99) * 1e3, "ms"),
        "simulate.simulate_run.us_p50": (median(tracer.durations("simulate.simulate_run")) * 1e6,
                                         "us"),
        "simulate.perturbed_eta.us_p50": (median(tracer.durations("simulate.perturbed_eta")) * 1e6,
                                          "us"),
    }


def ensemble_layer_metrics(tracer, replay_wall):
    ml = tracer.total("estimate.ml_estimate")
    sim = tracer.total("simulate.simulate_run", "simulate.perturbed_eta")
    ens = tracer.durations("ensemble.run_ensemble")
    return {
        **call_metrics(tracer),
        "estimate.ml_estimate.busy_share": (ml / replay_wall, "share"),
        "simulate.busy_share": (sim / replay_wall, "share"),
        "ensemble.run_ensemble.s": (median(ens), "s"),
        "ensemble.overhead_share": ((sum(ens) - ml - sim) / sum(ens), "share"),
    }


def sweep_eta(seed, seconds, tracer, sizes):
    out = Outcome()
    base = _sweep_base()
    etas, runs = sizes.sweep_etas, sizes.sweep_runs
    n_cycles = len(etas) * runs

    def setup():
        # One simulate -> estimate cycle per point, on seeds the sweep never uses.
        for k, eta in enumerate(etas):
            cfg = replace(base, eta_apd=eta)
            records = simulate.simulate_run(PAPER_TRACE, PAPER_DET, cfg,
                                            ensemble.derive_seed(seed, 1_000_000 + k))
            estimate.ml_estimate(records, eta)

    setup_walls, _ = repeat_setup(setup, sizes.setup_repeats)

    def one_sweep(sweep_seed):
        try:
            return ensemble.eta_sweep(PAPER_TRACE, PAPER_DET, base, list(etas), runs,
                                      with_uncertainties=False, seed=sweep_seed)
        except Exception as exc:  # the benchmark counts the failure and goes on
            print(f"eta_sweep raised {exc!r}", file=sys.stderr)
            return None

    sweeps, walls = [], []  # (seed, results or None), wall seconds
    start = time.perf_counter()
    while True:
        sweep_seed = ensemble.derive_seed(seed, len(sweeps))
        t0 = time.perf_counter()
        if tracer is None:
            results = one_sweep(sweep_seed)
        else:
            with tracer.span("ensemble.eta_sweep"):
                results = traced_ensemble(tracer, one_sweep, sweep_seed)
        walls.append(time.perf_counter() - t0)
        sweeps.append((sweep_seed, results))
        elapsed = time.perf_counter() - start
        # A traced run replays one sweep; an untraced one starts another sweep
        # only when it is expected to end within the measuring time.
        if tracer is not None or elapsed * (len(sweeps) + 1) / len(sweeps) > seconds:
            break

    for i, (sweep_seed, results) in enumerate(sweeps):
        out.attempted += n_cycles
        bad = _check_sweep(results, sizes) if results is not None else None
        if bad is None or len(bad) == n_cycles:
            out.fail(n_cycles, f"sweep {i} failed")
        elif bad:
            out.fail(len(bad), f"sweep {i}: failed cycles")

    first_seed, first = sweeps[0]
    for res in first or ():
        out.report.append(f"fingerprint eta={res.eta:g}: sigma_trace={res.sigma_trace:.6g} "
                          f"sigma_det={res.sigma_det:.6g} "
                          f"fraction_det_reliable={res.fraction_det_reliable:.6g}")

    if tracer is None:
        hits = samples = 0
        for k, res in enumerate(first or ()):
            cfg = replace(base, eta_apd=res.eta)
            point_seed = ensemble.derive_seed(first_seed, k)
            for j, run in enumerate(res.runs):
                records = simulate.simulate_run(PAPER_TRACE, PAPER_DET, cfg,
                                                ensemble.derive_seed(point_seed, 2 * j))
                hits += not is_miss(run.log_likelihood_at_max, records, run.eta_assumed)
                samples += 1
        # One run holds a few sweeps, too few calls for any tail percentile
        # to have ten calls beyond it, so the reported tail is the median.
        record_e2e(out, setup_walls, walls, n_cycles * len(walls), 50, hits, samples)
        out.report.append(f"runs_per_s = {n_cycles * len(walls) / sum(walls):.6g} 1/s "
                          f"({len(walls)} sweeps of {n_cycles} cycles)")
        return out

    replay_start = time.perf_counter()
    bad = set()
    with tracer.span("replay"):
        for k, eta in enumerate(etas):
            point = first[k] if first is not None and k < len(first) else None
            cfg = replace(base, eta_apd=eta)
            bad.update((k, j) for j in replay_point(
                tracer, cfg, ensemble.derive_seed(first_seed, k), point, runs))
    replay_wall = time.perf_counter() - replay_start
    out.attempted += n_cycles
    if bad:
        out.fail(len(bad), "replayed cycles differ from the sweep's RunResults")
    out.metrics.update(ensemble_layer_metrics(tracer, replay_wall))
    out.metrics["trace.overhead_share"] = (replay_wall / walls[0] - 1.0, "share")
    return out


# --------------------------------------------------------------------------
# estimate-tables: one ml_estimate call per pre-generated click table.

def _make_tables(seed, n, tracer):
    pool = []
    for i in range(n):
        cfg = simulate.ExperimentConfig(
            rep_rate=REP_RATE, duration=DURATION,
            transmittances=SCAN_TS if i % 4 == 3 else PAPER_TS,
            eta_apd=TABLE_ETAS[i % len(TABLE_ETAS)],
            t_uncertainty=T_UNC, eta_rel_uncertainty=ETA_REL_UNC,
        )
        records = _call(tracer, "simulate.simulate_run", simulate.simulate_run,
                        PAPER_TRACE, PAPER_DET, cfg, ensemble.derive_seed(seed, 2 * i))
        eta_assumed = _call(tracer, "simulate.perturbed_eta", simulate.perturbed_eta,
                            cfg, ensemble.derive_seed(seed, 2 * i + 1))
        pool.append((records, eta_assumed))
    return pool


def _estimate_pass(pool, seconds, tracer):
    """Estimate the tables in order, cycling, until ``seconds`` have passed
    and every table has been estimated at least once."""
    ests, lat = [], []
    start = time.perf_counter()
    while len(lat) < len(pool) or time.perf_counter() - start < seconds:
        records, eta_assumed = pool[len(lat) % len(pool)]
        t0 = time.perf_counter()
        try:
            est = _call(tracer, "estimate.ml_estimate", estimate.ml_estimate, records, eta_assumed)
        except Exception as exc:  # counted as a failed operation below
            est = exc
        lat.append(time.perf_counter() - t0)
        ests.append(est)
    return ests, lat, time.perf_counter() - start


def _check_estimates(out, pool, ests):
    out.attempted += len(ests)
    for i, est in enumerate(ests):
        if isinstance(est, Exception):
            out.fail(1, f"table {i % len(pool)}: ml_estimate raised {est!r}")
        elif not is_physical(est.trace, est.det):
            out.fail(1, f"table {i % len(pool)}: unphysical ({est.trace}, {est.det})")
        elif i >= len(pool) and est != ests[i % len(pool)]:
            out.fail(1, f"table {i % len(pool)}: estimate changed on repeat")


def estimate_tables(seed, seconds, tracer, sizes):
    out = Outcome()
    setup_walls, pool = repeat_setup(lambda: _make_tables(seed, sizes.tables, tracer),
                                     sizes.setup_repeats)
    if tracer is None:
        ests, lat, _ = _estimate_pass(pool, seconds, None)
    else:
        plain_ests, _, plain_wall = _estimate_pass(pool, 0.0, None)
        ests, lat, traced_wall = _estimate_pass(pool, 0.0, tracer)
        _check_estimates(out, pool, plain_ests)
    _check_estimates(out, pool, ests)

    hits = samples = 0
    for (records, eta_assumed), est in zip(pool, ests):
        if not isinstance(est, Exception):
            hits += not is_miss(est.log_likelihood_at_max, records, eta_assumed)
            samples += 1

    if tracer is None:
        record_e2e(out, setup_walls, lat, len(lat), 99, hits, samples)
        lat_ms = [x * 1e3 for x in lat]
        out.report.append(f"estimate_ms_p50 = {median(lat_ms):.6g} ms, estimate_ms_p99 = "
                          f"{percentile(lat_ms, 99):.6g} ms (n={len(lat)} calls over "
                          f"{len(pool)} tables)")
        return out

    traced = sum(setup_walls) + traced_wall
    out.metrics.update(call_metrics(tracer))
    out.metrics.update({
        "estimate.ml_estimate.busy_share": (tracer.total("estimate.ml_estimate") / traced, "share"),
        "simulate.busy_share": (
            tracer.total("simulate.simulate_run", "simulate.perturbed_eta") / traced, "share"),
        "trace.overhead_share": (traced_wall / plain_wall - 1.0, "share"),
    })
    return out


# --------------------------------------------------------------------------
# cli-session: simulate -> estimate -> invert -> modefit as subprocesses.

@dataclass(frozen=True)
class Session:
    sim_seed: int
    eta_believed: float
    records: tuple
    table: Path


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv, env):
    """Run one command to completion; return (exit code or None on timeout, stdout)."""
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CMD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def cli_setup(seed, n_sessions, work, tracer, env):
    """Write the session's config and calibration-scan files; warm the interpreter."""
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "session.cfg"
    cfg_path.write_text(
        f"rep_rate_hz = {REP_RATE!r}\nduration_s = {DURATION!r}\n"
        f"transmittances = {', '.join(repr(t) for t in PAPER_TS)}\n"
        f"eta_apd = {CLI_ETA!r}\ndark_rate_hz = {CLI_DARK_RATE!r}\n"
        f"t_uncertainty = {T_UNC!r}\neta_rel_uncertainty = {ETA_REL_UNC!r}\n",
        encoding="utf-8")
    cfg = simulate.ExperimentConfig(rep_rate=REP_RATE, duration=DURATION,
                                    transmittances=PAPER_TS, eta_apd=CLI_ETA,
                                    dark_rate=CLI_DARK_RATE, t_uncertainty=T_UNC,
                                    eta_rel_uncertainty=ETA_REL_UNC)
    modes_path = work / "modes.csv"
    scan = [0.05 + 0.85 * i / 8 for i in range(9)]
    modes_path.write_text(
        "".join(f"{t!r},{gaussian.no_click_from_invariants(PAPER_TRACE, PAPER_DET, t)!r}\n"
                for t in scan), encoding="utf-8")
    sessions = []
    for s in range(n_sessions):
        sim_seed = ensemble.derive_seed(seed, 2 * s)
        records = _call(tracer, "simulate.simulate_run", simulate.simulate_run,
                        PAPER_TRACE, PAPER_DET, cfg, sim_seed)
        eta_believed = _call(tracer, "simulate.perturbed_eta", simulate.perturbed_eta,
                             cfg, ensemble.derive_seed(seed, 2 * s + 1))
        sessions.append(Session(sim_seed, eta_believed, tuple(records), work / f"clicks{s}.csv"))
    code, _ = run_subprocess([sys.executable, "-c", "import sqclick.cli"], env)
    if code != 0:
        raise RuntimeError("importing sqclick.cli in a subprocess failed")
    return cfg_path, modes_path, sessions


def _no_click(session, t):
    rec = next(r for r in session.records if r.t_nominal == t)
    return 1.0 - rec.clicks / rec.trials


def session_commands(session, cfg_path, modes_path):
    """(name, argv) of each command of one experimenter's session, in order."""
    cli = [sys.executable, "-m", "sqclick.cli"]
    eta = repr(session.eta_believed)
    return [
        ("simulate", cli + ["simulate", "--config", str(cfg_path), "--trace", repr(PAPER_TRACE),
                            "--det", repr(PAPER_DET), "--seed", str(session.sim_seed),
                            "--output", str(session.table)]),
        ("estimate", cli + ["estimate", "--data", str(session.table), "--eta", eta,
                            "--dark-rate", repr(CLI_DARK_RATE), "--duration", repr(DURATION)]),
        ("invert", cli + ["invert", "--t1", "0.5", "--p1", repr(_no_click(session, 0.5)),
                          "--t2", "0.25", "--p2", repr(_no_click(session, 0.25)), "--eta", eta]),
        ("modefit", cli + ["modefit", "--data", str(modes_path), "--max-modes", "3"]),
    ]


def cli_pass(sessions, cfg_path, modes_path, seconds, min_commands, env, tracer):
    """Run whole sessions, cycling over ``sessions``, until both limits are met.

    Returns one (session index, command, exit code, stdout, table text,
    seconds) tuple per command, and the number of sessions run.
    """
    done = []
    n = 0
    start = time.perf_counter()
    while len(done) < min_commands or time.perf_counter() - start < seconds:
        s = n % len(sessions)
        for name, argv in session_commands(sessions[s], cfg_path, modes_path):
            t0 = time.perf_counter()
            with _span(tracer, f"cli.{name}"):
                code, stdout = run_subprocess(argv, env)
            elapsed = time.perf_counter() - t0
            table = sessions[s].table.read_text(encoding="utf-8") \
                if name == "simulate" and code == 0 else None
            done.append((s, name, code, stdout, table, elapsed))
        n += 1
    return done, n


def _without_created(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# created"))


def _without_comments(text):
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


def _expected_outputs(session, tracer):
    """What each command must print (or write), computed in-process.

    Returns ({command: text}, estimate, dark-subtracted records); the
    simulate text is the table body without its manifest.
    """
    body = io.StringIO()
    tables.write_click_records(body, session.records, [])
    subtracted = [simulate.subtract_dark(r, CLI_DARK_RATE, DURATION) for r in session.records]
    est = _call(tracer, "estimate.ml_estimate", estimate.ml_estimate,
                subtracted, session.eta_believed)
    trace, det = estimate.invert_two_point(
        session.eta_believed * 0.5, _no_click(session, 0.5),
        session.eta_believed * 0.25, _no_click(session, 0.25))
    expected = {
        "simulate": body.getvalue(),
        "estimate": "".join(line + "\n" for line in tables.estimate_lines(est)),
        "invert": f"trace = {tables.fmt(trace)}\ndet = {tables.fmt(det)}\n",
        "modefit": "n_modes = 1\n",
    }
    return expected, est, subtracted


def check_cli(out, sessions, done, tracer):
    """Count commands that exited non-zero, printed something unexpected, or
    changed output between repeats.  Returns (hits, estimates checked)."""
    out.attempted += len(done)
    expected, first = {}, {}
    hits = 0
    for s, session in enumerate(sessions):
        expected[s], est, subtracted = _expected_outputs(session, tracer)
        hits += not is_miss(est.log_likelihood_at_max, subtracted, session.eta_believed)
        if not is_physical(est.trace, est.det):
            out.fail(1, f"session {s}: unphysical estimate ({est.trace}, {est.det})")
    for s, name, code, stdout, table, _ in done:
        if code != 0:
            out.fail(1, f"session {s}: {name} exited with {code}")
            continue
        want = expected[s][name]
        if name == "simulate":
            ok = _without_comments(table) == want
        elif name == "invert":
            ok = stdout.startswith(want)  # the lines derived from trace and det follow
        elif name == "modefit":
            ok = want in stdout
        else:
            ok = stdout == want
        seen = (_without_created(stdout), _without_created(table or ""))
        if not ok:
            out.fail(1, f"session {s}: {name} printed unexpected output")
        elif first.setdefault((s, name), seen) != seen:
            out.fail(1, f"session {s}: {name} output changed between repeats")
    return hits, len(sessions)


def cli_session(seed, seconds, tracer, sizes):
    out = Outcome()
    env = cli_env()
    work = WORK / f"cli-{os.getpid()}"
    try:
        setup_walls, (cfg_path, modes_path, sessions) = repeat_setup(
            lambda: cli_setup(seed, sizes.cli_sessions, work, tracer, env), sizes.setup_repeats)
        if tracer is None:
            done, _ = cli_pass(sessions, cfg_path, modes_path, seconds,
                               sizes.cli_min_commands, env, None)
        else:
            plain, _ = cli_pass(sessions, cfg_path, modes_path, seconds / 2,
                                len(sessions) * len(CLI_COMMANDS), env, None)
            traced_start = time.perf_counter()
            done, n_sessions = cli_pass(sessions, cfg_path, modes_path, seconds / 2,
                                        len(sessions) * len(CLI_COMMANDS), env, tracer)
            session_wall = (time.perf_counter() - traced_start) / n_sessions
            check_cli(out, sessions, plain, None)
        hits, samples = check_cli(out, sessions, done, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = [d[5] for d in done]
    if tracer is None:
        record_e2e(out, setup_walls, lat, len(lat), 90, hits, samples)
        lat_ms = [x * 1e3 for x in lat]
        out.report.append(f"cli_cmd_ms_p50 = {median(lat_ms):.6g} ms, cli_cmd_ms_p90 = "
                          f"{percentile(lat_ms, 90):.6g} ms (n={len(lat)} commands)")
        return out

    # The library calls run inside the subprocesses; their in-process replays
    # stand in for them, as a share of one session's wall time.
    out.metrics.update(call_metrics(tracer))
    out.metrics.update({
        "estimate.ml_estimate.busy_share": (
            median(tracer.durations("estimate.ml_estimate")) / session_wall, "share"),
        "simulate.busy_share": (
            median(tracer.durations("simulate.simulate_run")) / session_wall, "share"),
        "trace.overhead_share": (sum(lat) / len(lat) / (sum(d[5] for d in plain) / len(plain))
                                 - 1.0, "share"),
    })
    for name in CLI_COMMANDS:
        out.metrics[f"cli.{name}_ms_p50"] = (median(tracer.durations(f"cli.{name}")) * 1e3, "ms")
    return out


WORKLOADS = {
    "sweep-eta": sweep_eta,
    "estimate-tables": estimate_tables,
    "cli-session": cli_session,
}
