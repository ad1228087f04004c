import math

import pytest

from sqclick import (
    ExperimentConfig,
    derive_seed,
    eta_sweep,
    ml_estimate,
    perturbed_eta,
    run_ensemble,
    simulate_run,
    state_sweep,
    subtract_dark,
)

TRACE0, DET0 = 2.321, 1.156


def quick_config(**overrides):
    # short acquisition so ensembles stay cheap in unit tests
    base = dict(
        rep_rate=780400.0,
        duration=0.05,
        transmittances=(1.0, 0.75, 0.5, 0.25),
        eta_apd=0.5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_spreads_indices(self):
        seeds = {derive_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_master_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_64_bit_range(self):
        for k in range(100):
            assert 0 <= derive_seed(123456789, k) < 2**64


class TestRunEnsemble:
    def test_deterministic(self):
        cfg = quick_config(t_uncertainty=0.005, eta_rel_uncertainty=0.01)
        a = run_ensemble(TRACE0, DET0, cfg, 5, seed=9)
        b = run_ensemble(TRACE0, DET0, cfg, 5, seed=9)
        assert a == b

    def test_rms_matches_recomputation_from_runs(self):
        res = run_ensemble(TRACE0, DET0, quick_config(), 8, seed=3)
        sq_det = sum((r.det_est - DET0) ** 2 for r in res.runs) / res.n_runs
        sq_tr = sum((r.trace_est - TRACE0) ** 2 for r in res.runs) / res.n_runs
        assert res.sigma_det == pytest.approx(math.sqrt(sq_det), rel=1e-12)
        assert res.sigma_trace == pytest.approx(math.sqrt(sq_tr), rel=1e-12)
        assert res.mean_det_est == pytest.approx(
            sum(r.det_est for r in res.runs) / res.n_runs, rel=1e-12
        )

    def test_single_run_sigma_is_absolute_deviation(self):
        res = run_ensemble(TRACE0, DET0, quick_config(), 1, seed=1)
        assert res.sigma_det == pytest.approx(abs(res.runs[0].det_est - DET0))
        assert res.sigma_trace == pytest.approx(abs(res.runs[0].trace_est - TRACE0))

    def test_run_artifacts_recorded(self):
        cfg = quick_config(t_uncertainty=0.005, eta_rel_uncertainty=0.01)
        res = run_ensemble(TRACE0, DET0, cfg, 3, seed=5)
        assert len(res.runs) == 3
        for run in res.runs:
            assert run.eta_assumed != cfg.eta_apd  # perturbed knowledge
            assert len(run.t_true) == len(cfg.transmittances)
            # draws at nominal T = 1 may clip back to exactly 1, so only
            # the interior settings are guaranteed to move
            assert all(
                t != nom
                for t, nom in zip(run.t_true, cfg.transmittances)
                if nom < 1.0
            )

    def test_dark_counts_subtracted_before_estimation(self):
        # vacuum + dark counts must still estimate (2, 1) after subtraction
        cfg = quick_config(dark_rate=20.0, duration=1.0, rep_rate=10_000.0)
        res = run_ensemble(2.0, 1.0, cfg, 4, seed=2)
        assert res.sigma_trace < 0.05
        assert res.mean_det_est == pytest.approx(1.0, abs=0.02)

    def test_blocked_setting_under_calibration_noise(self):
        cfg = quick_config(
            transmittances=(1.0, 0.75, 0.5, 0.25, 0.0),
            t_uncertainty=0.005,
            eta_rel_uncertainty=0.01,
        )
        res = run_ensemble(TRACE0, DET0, cfg, 10, seed=4)
        assert all(run.t_true[-1] == 0.0 for run in res.runs)
        assert math.isfinite(res.sigma_trace) and math.isfinite(res.sigma_det)

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            run_ensemble(TRACE0, DET0, quick_config(), 0, seed=1)


SIXTEEN = tuple(k / 16 for k in range(16, 0, -1))


@pytest.mark.parametrize("eta", [0.0084, 0.5])
@pytest.mark.parametrize(
    "overrides",
    [
        dict(transmittances=(1.0, 0.5, 0.25, 0.0), t_uncertainty=0.005),
        dict(transmittances=(1.0, 0.75, 0.5, 0.25), dark_rate=200.0),
        dict(transmittances=SIXTEEN, t_uncertainty=0.005, eta_rel_uncertainty=0.01),
        dict(transmittances=SIXTEEN, dark_rate=200.0, eta_rel_uncertainty=0.01),
    ],
    ids=["4-blocked-noise", "4-dark", "16-noise", "16-dark-noise"],
)
def test_batched_runs_equal_serial_estimates(eta, overrides):
    # every run of the batch has the bits ml_estimate gives its records alone
    cfg = quick_config(eta_apd=eta, **overrides)
    res = run_ensemble(TRACE0, DET0, cfg, 12, seed=21)
    for j, run in enumerate(res.runs):
        records = simulate_run(TRACE0, DET0, cfg, derive_seed(21, 2 * j))
        if cfg.dark_rate > 0.0:
            records = [subtract_dark(r, cfg.dark_rate, cfg.duration) for r in records]
        eta_assumed = perturbed_eta(cfg, derive_seed(21, 2 * j + 1))
        est = ml_estimate(records, eta_assumed)
        serial = (est.trace, est.det, est.det_reliable, est.log_likelihood_at_max, eta_assumed)
        batched = (run.trace_est, run.det_est, run.det_reliable, run.log_likelihood_at_max,
                   run.eta_assumed)
        assert [float(x).hex() for x in batched] == [float(x).hex() for x in serial]


class TestEtaSweep:
    def test_exact_knowledge_strips_uncertainties(self):
        cfg = quick_config(t_uncertainty=0.005, eta_rel_uncertainty=0.01)
        res = eta_sweep(TRACE0, DET0, cfg, [0.4], 3, with_uncertainties=False, seed=1)
        for run in res[0].runs:
            assert run.eta_assumed == 0.4
            assert run.t_true == cfg.transmittances

    def test_with_uncertainties_keeps_them(self):
        cfg = quick_config(t_uncertainty=0.005, eta_rel_uncertainty=0.01)
        res = eta_sweep(TRACE0, DET0, cfg, [0.4], 3, with_uncertainties=True, seed=1)
        assert any(run.eta_assumed != 0.4 for run in res[0].runs)

    def test_one_result_per_eta(self):
        res = eta_sweep(TRACE0, DET0, quick_config(), [0.3, 0.6], 2, False, seed=4)
        assert [r.eta for r in res] == [0.3, 0.6]

    def test_empty_etas_rejected(self):
        with pytest.raises(ValueError):
            eta_sweep(TRACE0, DET0, quick_config(), [], 2, False, seed=4)


class TestStateSweep:
    def test_vacuum_state_is_exact(self):
        res = state_sweep([(2.0, 1.0)], quick_config(), 4, seed=6)[0]
        assert res.mean_det_est == pytest.approx(1.0)
        assert res.sigma_det == pytest.approx(0.0, abs=1e-12)
        assert res.fraction_det_reliable == 1.0

    def test_boundary_thermal_state_clamps(self):
        # det exactly at (trace/2)^2: estimates must stay physical
        res = state_sweep([(2.4, 1.44)], quick_config(), 5, seed=8)[0]
        for run in res.runs:
            assert run.det_est <= (run.trace_est / 2.0) ** 2 + 1e-9

    def test_results_in_input_order(self):
        states = [(2.1, 1.05), (2.6, 1.3)]
        res = state_sweep(states, quick_config(), 2, seed=10)
        assert [(r.trace_true, r.det_true) for r in res] == states
