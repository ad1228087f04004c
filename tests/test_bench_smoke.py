"""Each benchmark workload runs at tiny sizes, untraced and traced, reports
every declared metric and fails no operation.

These are the plain and traced runs of ``bench/selftest.py`` (which also
injects failures): a change to the library that breaks a workload, or the
traced sweep-eta replay (batched == ``ml_estimate`` bit for bit, one
``ensemble.run_ensemble`` span per point), shows here, before the benchmark
itself is run.  The sizes are the self-test's.
"""

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
