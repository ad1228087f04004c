"""Benchmark of sqclick: three closed-loop, single-process workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep-eta --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

  sweep-eta        eta_sweep exactly as in acceptance criterion 5: paper
                   state, 4 settings, 7.804e7 pulses per setting, 8
                   efficiencies, 200 runs per point, exact knowledge.
  estimate-tables  one ml_estimate call per click table; the tables are
                   simulated in set-up at eta 0.0084, 0.05 and 0.5 with the
                   paper's calibration noise, a quarter of them 16-setting
                   scans.
  cli-session      simulate -> estimate -> invert -> modefit, each a
                   `python -m sqclick.cli` subprocess, with dark counts on.

--trace 0 measures the end-to-end metrics with tracing off.  The
"operation" and "call" of each workload are:

  workload          operation (ops_per_s)          call (call_ms_*)
  sweep-eta         one simulate -> estimate cycle one eta_sweep; tail = p50
  estimate-tables   one ml_estimate                one ml_estimate; tail = p99
  cli-session       one CLI command                one CLI command; tail = p90

Each tail is the highest percentile with at least ten calls beyond it at
the run's minimum size (1024 estimates, 100 commands); a run holds only a
few sweeps, so sweep-eta has no such percentile and reports its median.

  setup_s       median wall time of the workload's set-up, repeated 5 times
  mle_hit_rate  share of estimates whose log-likelihood is no more than
                0.01 nat below the likelihood at the true state (for a
                fixed seed this is deterministic; 1 - mle_miss_rate)
  success_rate  1 - error_rate: operations that raised, exited non-zero or
                failed a check, over operations attempted

--trace 1 re-runs the workload with spans around calls into each sqclick
module and then times the remaining layers on fixed inputs (probes.py);
it reports the per-layer metrics and writes the spans to .bench_work/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the run
environment, the quality fingerprint and every metric by name and unit.
The metric names and units are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare_imports():
    """Limit BLAS to one thread and make the package importable.

    Must run before numpy is imported.  Returns False when the checkout
    holds no sqclick sources.
    """
    src = ROOT / "src"
    if not (src / "sqclick" / "__init__.py").is_file():
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return True


def declared_metrics(traced):
    """{name: unit} of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def metric_problems(metrics, declared):
    """Differences between measured and declared metric names and units."""
    problems = [f"missing metric {name}" for name in declared if name not in metrics]
    problems += [f"undeclared metric {name}" for name in metrics if name not in declared]
    problems += [f"{name}: unit {metrics[name][1]} is not {unit}"
                 for name, unit in declared.items()
                 if name in metrics and metrics[name][1] != unit]
    return problems


def run_workload(name, seed, seconds, traced, sizes):
    import probes
    import workloads
    from tracer import Tracer

    tracer = Tracer() if traced else None
    out = workloads.WORKLOADS[name](seed, seconds, tracer, sizes)
    if traced:
        probes.fill_layers(seed, sizes, out)
        workloads.WORK.mkdir(parents=True, exist_ok=True)
        tracer.write(workloads.WORK / f"spans-{name}-{seed}.jsonl")
    else:
        out.metrics["success_rate"] = (1.0 - out.failed / out.attempted, "share")
    return out


def environment(load_at_start):
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "loadavg_1m_at_start": load_at_start,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sqclick benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("sweep-eta", "estimate-tables", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load_at_start = os.getloadavg()[0]
    if not prepare_imports():
        print(f"bench: no sqclick sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       workloads.Sizes())
    problems = metric_problems(out.metrics, declared_metrics(bool(args.trace)))
    if problems:
        print("bench: " + "; ".join(problems), file=sys.stderr)
        return 3
    for key, value in environment(load_at_start).items():
        print(f"env {key} = {value}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in out.report:
        print(line)
    print(f"error_rate = {out.failed / out.attempted:.6g} share "
          f"({out.failed}/{out.attempted} operations)")
    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
