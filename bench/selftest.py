"""Smoke self-test of the benchmark at tiny sizes (about 15 s).

    python3 bench/selftest.py

For every workload, untraced and traced, the run must report every metric
that BENCHMARK.json declares for it, with the declared unit, and fail no
operation.  Then one failing operation is injected into each workload and
the run must count it.  Last, the benchmark must exit non-zero without a
result in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check holds.
"""

import contextlib
import shutil
import subprocess
import sys

import run

SEED = 3
SECONDS = 0.2


@contextlib.contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def fail_on_call(fn, n):
    """``fn``, except that its ``n``-th call raises."""
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            raise RuntimeError("injected failure")
        return fn(*args, **kwargs)

    return wrapper


def injections(wl):
    from sqclick import ensemble, estimate

    original_commands = wl.session_commands

    def bad_estimate_eta(*args):
        """The session's commands, with an efficiency outside (0, 1] for estimate."""
        commands = []
        for name, argv in original_commands(*args):
            if name == "estimate":
                argv = list(argv)
                argv[argv.index("--eta") + 1] = "2"
            commands.append((name, argv))
        return commands

    return {
        "sweep-eta": patched(ensemble, "ml_estimate", fail_on_call(ensemble.ml_estimate, 3)),
        "estimate-tables": patched(estimate, "ml_estimate",
                                   fail_on_call(estimate.ml_estimate, 3)),
        "cli-session": patched(wl, "session_commands", bad_estimate_eta),
    }


def stripped_checkout_fails():
    """Run the benchmark where the package sources are absent."""
    import workloads as wl

    bare = wl.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        for path in (run.ROOT / "bench").glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-eta",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main():
    if not run.prepare_imports():
        print("selftest: no sqclick sources", file=sys.stderr)
        return 2
    import workloads as wl

    tiny = wl.Sizes(sweep_etas=(0.05, 0.15, 0.2), sweep_runs=20, tables=24, cli_sessions=1,
                    cli_min_commands=4, setup_repeats=2, subprocess_repeats=1,
                    probe_ensemble_runs=4)
    problems = []
    for name in wl.WORKLOADS:
        for traced in (False, True):
            out = run.run_workload(name, SEED, SECONDS, traced, tiny)
            where = f"{name} trace={int(traced)}"
            problems += [f"{where}: {p}"
                         for p in run.metric_problems(out.metrics, run.declared_metrics(traced))]
            if out.attempted < 1 or out.failed:
                problems.append(f"{where}: {out.failed} of {out.attempted} operations failed")
    for name, injection in injections(wl).items():
        with injection:
            out = run.run_workload(name, SEED, SECONDS, False, tiny)
        if out.failed < 1 or out.metrics["success_rate"][0] >= 1.0:
            problems.append(f"{name}: the injected failure was not counted")
    if not stripped_checkout_fails():
        problems.append("the benchmark did not fail without the package sources")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
