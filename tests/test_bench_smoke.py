"""Each benchmark workload runs at tiny sizes, untraced and traced, reports
every declared metric and fails no operation; it counts one injected failure;
and a checkout without the package sources yields no result.

These are the checks of ``bench/selftest.py``: a change to the library that
breaks a workload, or the traced sweep-eta replay (batched == ``ml_estimate``
bit for bit, one ``ensemble.run_ensemble`` span per point), shows here, before
the benchmark itself is run.  The sizes are the self-test's.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize(
    "name, traced",
    [pytest.param(name, traced, id=name + "-traced" * traced) for traced in (False, True)
     for name in ("sweep-eta", "estimate-tables", "cli-session")],
)
def test_workload_runs_clean(name, traced, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    monkeypatch.setattr(workloads, "WORK", tmp_path)
    tiny = workloads.Sizes(sweep_etas=(0.05, 0.15, 0.2), sweep_runs=20, tables=24,
                           cli_sessions=1, cli_min_commands=4, setup_repeats=2,
                           subprocess_repeats=1, probe_ensemble_runs=4)
    out = run.run_workload(name, 3, 0.2, traced, tiny)
    assert run.metric_problems(out.metrics, run.declared_metrics(traced)) == []
    assert out.attempted > 0
    assert out.failed == 0


@pytest.mark.parametrize("name", ["sweep-eta", "estimate-tables", "cli-session"])
def test_workload_counts_an_injected_failure(name, tmp_path, monkeypatch):
    # bench/selftest.py's injections, except for sweep-eta: its runs are solved
    # by ensemble._ml_solve, so a failing ensemble.ml_estimate is never called.
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import selftest
    import workloads
    from sqclick import ensemble

    monkeypatch.setattr(workloads, "WORK", tmp_path)
    tiny = workloads.Sizes(sweep_etas=(0.05, 0.15, 0.2), sweep_runs=20, tables=24,
                           cli_sessions=1, cli_min_commands=4, setup_repeats=2,
                           subprocess_repeats=1, probe_ensemble_runs=4)
    injection = selftest.injections(workloads)[name]
    if name == "sweep-eta":
        injection = selftest.patched(ensemble, "_ml_solve",
                                     selftest.fail_on_call(ensemble._ml_solve, 3))
    with injection:
        out = run.run_workload(name, 3, 0.2, False, tiny)
    assert out.failed >= 1
    assert out.metrics["success_rate"][0] < 1.0


def test_checkout_without_sources_yields_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-eta",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
