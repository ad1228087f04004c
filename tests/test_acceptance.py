"""End-to-end acceptance checks at their stated tolerances.

Each test prints one PASS line (visible with ``pytest -s``); a failure
reads as the usual pytest assertion report.  The heavy Monte Carlo
criteria run 200-run ensembles at the full acquisition size and stay
well inside their runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from sqclick import (
    ExperimentConfig,
    SqueezerParams,
    cov_from_squeezer,
    eta_sweep,
    expected_click_rate,
    invert_two_point,
    mode_count_fit,
    no_click_from_invariants,
    purity_from_h,
    run_ensemble,
    sensitivity,
    state_sweep,
    trace_det_from_squeezer,
)
from sqclick.cli import main
from sqclick.estimate import _mode_fit_table

TRACE0, DET0 = 2.321, 1.156
REP_RATE = 780400.0
DURATION = 100.0
TRANSMITTANCES = (1.0, 0.75, 0.5, 0.25)
ETA_EXP = 0.0084  # experimentally calibrated overall detection efficiency
T_UNC = 0.005  # absolute std dev of the true transmittances
ETA_REL_UNC = 0.01  # relative std dev of the efficiency knowledge
N_RUNS = 200


def reference_config(eta, with_uncertainties=True):
    return ExperimentConfig(
        rep_rate=REP_RATE,
        duration=DURATION,
        transmittances=TRANSMITTANCES,
        eta_apd=eta,
        t_uncertainty=T_UNC if with_uncertainties else 0.0,
        eta_rel_uncertainty=ETA_REL_UNC if with_uncertainties else 0.0,
    )


def test_criterion_01_roundtrip_exactness():
    """Forward probabilities then two-point inversion over 10^4 random cases."""
    rng = np.random.default_rng(1)
    start = time.time()
    worst = 0.0
    n_cases = 10_000
    for _ in range(n_cases):
        det = rng.uniform(1.0, 2.5)
        trace = 2.0 * math.sqrt(det) + rng.uniform(0.0, 2.0)
        t1 = rng.uniform(0.05, 1.0)
        t2 = rng.uniform(0.05, 1.0)
        if abs(t1 - t2) < 0.05:
            t2 = t1 - 0.05 if t1 > 0.5 else t1 + 0.05
        p1 = no_click_from_invariants(trace, det, t1)
        p2 = no_click_from_invariants(trace, det, t2)
        got_trace, got_det = invert_two_point(t1, p1, t2, p2)
        worst = max(worst, abs(got_trace - trace), abs(got_det - det))
    elapsed = time.time() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    print(f"PASS criterion 1: round-trip max abs error {worst:.2e} over {n_cases} cases "
          f"in {elapsed:.2f}s")


def test_criterion_02_sensitivity_ratio():
    """det/trace sensitivity ratio 4/eta, analytic and by finite differences."""
    for eta in (0.0084, 0.05, 0.5):
        d_tr, d_det = sensitivity(0.93, eta)
        assert abs(d_det) / d_tr == pytest.approx(4.0 / eta, rel=1e-12)

    # finite differences of the raw inversion at the derivative's native
    # setting pair (t1, t2) = (eta, eta/2); eta small enough that the
    # 0.1% agreement includes the det derivative's O(eta/4) remainder
    eta, p1, p2 = 0.002, 0.93, 0.96
    delta = 1e-6
    tr_hi, det_hi = invert_two_point(eta, p1 + delta, eta / 2.0, p2)
    tr_lo, det_lo = invert_two_point(eta, p1 - delta, eta / 2.0, p2)
    fd_tr = (tr_hi - tr_lo) / (2.0 * delta)
    fd_det = (det_hi - det_lo) / (2.0 * delta)
    an_tr, an_det = sensitivity(p1, eta)
    assert fd_tr == pytest.approx(an_tr, rel=1e-3)
    assert fd_det == pytest.approx(an_det, rel=1e-3)
    assert abs(fd_det) / fd_tr == pytest.approx(4.0 / eta, rel=1e-3)

    d_tr, d_det = sensitivity(1.0, ETA_EXP)
    ratio = abs(d_det) / d_tr
    assert ratio == pytest.approx(476.19, abs=0.5)
    print(f"PASS criterion 2: sensitivity ratio 4/eta verified; at eta={ETA_EXP} "
          f"ratio = {ratio:.1f} (roughly 400x)")


def test_criterion_03_purity_identities():
    """1/(2h-1) equals 1/sqrt(det) for every gain combination."""
    worst = 0.0
    for g in np.linspace(1.0, 5.0, 21):
        for h in np.linspace(1.0, 3.0, 21):
            cov = cov_from_squeezer(SqueezerParams(g, h))
            worst = max(worst, abs(purity_from_h(h) - 1.0 / math.sqrt(cov.det)))
    assert worst < 1e-12
    print(f"PASS criterion 3: purity identity max abs deviation {worst:.2e}")


def test_criterion_04_low_eta_regime():
    """Percent-level efficiency: trace accurate, determinant uninformative."""
    start = time.time()
    res = run_ensemble(TRACE0, DET0, reference_config(ETA_EXP), N_RUNS, seed=20260809)
    elapsed = time.time() - start
    sigma_det_flat = 0.5 * (TRACE0**2 / 4.0 - 1.0)  # ~0.173 for this state
    assert res.sigma_trace <= 1e-2
    assert res.fraction_det_reliable <= 0.10
    assert sigma_det_flat / 2.0 <= res.sigma_det <= sigma_det_flat * 2.0
    assert elapsed < 300.0
    print(f"PASS criterion 4: eta={ETA_EXP}: sigma_tr={res.sigma_trace:.2e} <= 1e-2, "
          f"det flagged unreliable in {100 * (1 - res.fraction_det_reliable):.1f}% of runs, "
          f"sigma_det={res.sigma_det:.3f} vs flat-prediction {sigma_det_flat:.3f} "
          f"({elapsed:.0f}s)")


def test_criterion_05_exact_knowledge_threshold():
    """With perfectly known parameters, sigma_det drops below 1e-2 by eta ~ 0.15-0.2."""
    start = time.time()
    etas = [0.01, 0.05, 0.08, 0.10, 0.125, 0.15, 0.175, 0.20]
    results = eta_sweep(
        TRACE0, DET0, reference_config(0.5), etas, N_RUNS, with_uncertainties=False,
        seed=314159,
    )
    elapsed = time.time() - start
    sigma_det = [r.sigma_det for r in results]
    crossings = [eta for eta, s in zip(etas, sigma_det) if s < 1e-2]
    assert crossings, "sigma_det never dropped below 1e-2"
    assert 0.10 <= crossings[0] <= 0.20
    # trace stays accurate across the whole sweep, down to eta = 1%
    assert all(r.sigma_trace <= 1e-2 for r in results)
    # sigma_det decreases with eta (3-point moving average absorbs noise)
    smooth = [np.mean(sigma_det[i : i + 3]) for i in range(len(sigma_det) - 2)]
    assert all(a >= b - 1e-4 for a, b in zip(smooth, smooth[1:]))
    assert elapsed < 900.0
    print(f"PASS criterion 5: exact-knowledge sigma_det crosses 1e-2 at eta="
          f"{crossings[0]} (within [0.10, 0.20]); sigma_tr <= "
          f"{max(r.sigma_trace for r in results):.2e} down to eta=0.01 ({elapsed:.0f}s)")


def test_criterion_06_uncertainty_limited_regime():
    """0.5% transmittance and 1% efficiency knowledge dominate at eta = 0.5."""
    start = time.time()
    res = run_ensemble(TRACE0, DET0, reference_config(0.5), N_RUNS, seed=271828)
    elapsed = time.time() - start
    assert 1e-2 <= res.sigma_det <= 4e-2
    assert elapsed < 600.0
    print(f"PASS criterion 6: eta=0.5 with uncertainties: sigma_det="
          f"{res.sigma_det:.3f} in [0.01, 0.04] ({elapsed:.0f}s)")


def test_criterion_07_state_sweep_agreement():
    """Mean determinant estimates track the truth across a family of states."""
    states = [(2.10, 1.05), (TRACE0, DET0), (2.60, 1.30), (3.00, 1.50), (3.50, 1.90)]
    results = state_sweep(states, reference_config(0.5), N_RUNS, seed=1618)
    for (trace_true, det_true), res in zip(states, results):
        tol = 2.0 * max(res.sigma_det, 1e-12)
        assert abs(res.mean_det_est - det_true) <= tol, (
            f"state ({trace_true}, {det_true}): mean {res.mean_det_est} "
            f"misses truth by more than 2 sigma ({res.sigma_det})"
        )
    worst = max(
        abs(r.mean_det_est - d) / max(r.sigma_det, 1e-12)
        for (t, d), r in zip(states, results)
    )
    print(f"PASS criterion 7: {len(states)} states at eta=0.5, every mean det within "
          f"2 sigma of truth (worst {worst:.2f} sigma)")


def test_criterion_08_click_rate_model():
    """Low-efficiency click-rate formula against the exact per-pulse rate."""
    worst = 0.0
    for g in np.linspace(1.0, 3.0, 9):
        for h in np.linspace(1.0, 1.5, 6):
            for eta in (0.001, 0.005, 0.01):
                params = SqueezerParams(g, h)
                trace, det = trace_det_from_squeezer(params)
                exact = REP_RATE * (1.0 - no_click_from_invariants(trace, det, eta))
                approx = expected_click_rate(params, eta, REP_RATE)
                if exact == 0.0:
                    assert approx == 0.0  # vacuum corner
                else:
                    worst = max(worst, abs(approx - exact) / exact)
    assert worst < 0.02
    print(f"PASS criterion 8: click-rate model within {100 * worst:.2f}% of the exact "
          f"rate for eta <= 0.01")


def test_criterion_09_mode_count_diagnostic():
    """Exact single-mode and two-mode data resolve to N=1 and N=2."""
    ts = np.linspace(0.05, 0.9, 12)
    single = [(t, no_click_from_invariants(TRACE0, DET0, t)) for t in ts]
    assert mode_count_fit(single, 3) == 1
    rows1 = _mode_fit_table(single, 3)
    rss_single = dict((r[0], r[2]) for r in rows1)[1]
    assert rss_single < 1e-20

    two = [
        (
            t,
            no_click_from_invariants(TRACE0, DET0, t)
            * no_click_from_invariants(2.8, 1.4, t),
        )
        for t in ts
    ]
    assert mode_count_fit(two, 3) == 2
    rows2 = _mode_fit_table(two, 3)
    rss_two = dict((r[0], r[2]) for r in rows2)[2]
    assert rss_two < 1e-20
    print(f"PASS criterion 9: mode diagnostic N=1 (rss {rss_single:.1e}) and "
          f"N=2 (rss {rss_two:.1e}) on exact data")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Every CLI command repeats byte-identically (timestamps aside)."""

    def strip_created(text):
        return "\n".join(l for l in text.splitlines() if not l.startswith("# created"))

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "rep_rate_hz = 780400\nduration_s = 0.02\ntransmittances = 1, 0.5\n"
        "eta_apd = 0.5\nt_uncertainty = 0.005\neta_rel_uncertainty = 0.01\n"
        "state_trace = 2.321\nstate_det = 1.156\netas = 0.3, 0.6\n"
        "states = 2.321,1.156; 2.5,1.2\n"
    )
    p1 = no_click_from_invariants(TRACE0, DET0, 0.5)
    p2 = no_click_from_invariants(TRACE0, DET0, 0.25)
    samples = tmp_path / "modes.csv"
    samples.write_text(
        "\n".join(
            f"{float(t)!r},{no_click_from_invariants(TRACE0, DET0, float(t))!r}"
            for t in np.linspace(0.05, 0.9, 9)
        )
        + "\n"
    )
    data = tmp_path / "clicks.csv"
    assert main(
        ["simulate", "--config", str(cfg), "--trace", "2.321", "--det", "1.156",
         "--seed", "5", "--output", str(data)]
    ) == 0

    commands = {
        "invert": ["invert", "--t1", "0.5", "--p1", repr(p1), "--t2", "0.25",
                   "--p2", repr(p2)],
        "simulate": ["simulate", "--config", str(cfg), "--trace", "2.321",
                     "--det", "1.156", "--seed", "5"],
        "estimate": ["estimate", "--data", str(data), "--eta", "0.5"],
        "sweep": ["sweep", "--config", str(cfg), "--mode", "eta", "--seed", "3",
                  "--runs", "2"],
        "modefit": ["modefit", "--data", str(samples), "--max-modes", "3"],
    }
    for name, argv in commands.items():
        assert main(argv) == 0
        first = strip_created(capsys.readouterr().out)
        assert main(argv) == 0
        second = strip_created(capsys.readouterr().out)
        assert first == second, f"{name} output changed between identical runs"
    print("PASS criterion 10: invert/simulate/estimate/sweep/modefit all reproducible")
