import math

import numpy as np
import pytest

from sqclick import (
    ClickRecord,
    ExperimentConfig,
    SqueezerParams,
    click_probability_from_invariants,
    expected_click_rate,
    no_click_from_invariants,
    perturbed_eta,
    simulate_run,
    subtract_dark,
    trace_det_from_squeezer,
)
from sqclick.simulate import _draw_clicks

TRACE0, DET0 = 2.321, 1.156

FULL_SCALE = dict(
    rep_rate=780400.0,
    duration=100.0,
    transmittances=(1.0, 0.75, 0.5, 0.25),
)


def small_config(**overrides):
    base = dict(rep_rate=780400.0, duration=0.01, transmittances=(1.0, 0.5), eta_apd=0.5)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_trials_rounding(self):
        cfg = ExperimentConfig(**FULL_SCALE, eta_apd=0.5)
        assert cfg.n_trials == 78_040_000

    @pytest.mark.parametrize(
        "bad",
        [
            dict(rep_rate=0.0),
            dict(duration=-1.0),
            dict(transmittances=()),
            dict(transmittances=(0.5, 1.2)),
            dict(eta_apd=1.5),
            dict(dark_rate=-1.0),
            dict(t_uncertainty=-0.1),
            dict(rep_rate=math.inf),
            dict(duration=math.nan),
            dict(eta_apd=math.nan),
            dict(dark_rate=math.nan),
            dict(dark_rate=math.inf),
            dict(t_uncertainty=math.nan),
            dict(eta_rel_uncertainty=math.nan),
            dict(eta_rel_uncertainty=-math.inf),
            dict(transmittances=(1.0, math.nan)),
            dict(rep_rate=1e15, duration=1e15),
            dict(rep_rate=1e200, duration=1e200),
            dict(rep_rate=1.0, duration=0.2),
            dict(dark_rate=780401.0),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        params = dict(FULL_SCALE, eta_apd=0.5)
        params.update(bad)
        with pytest.raises(ValueError):
            ExperimentConfig(**params)

    def test_click_record_bounds(self):
        with pytest.raises(ValueError):
            ClickRecord(t_nominal=0.5, trials=10, clicks=11)
        with pytest.raises(ValueError):
            ClickRecord(t_nominal=0.5, trials=10, clicks=-1)

    @pytest.mark.parametrize("t", [1.5, -0.1, math.nan])
    def test_click_record_transmittance_outside_unit_interval(self, t):
        with pytest.raises(ValueError, match="t_nominal"):
            ClickRecord(t_nominal=t, trials=10, clicks=1)


class TestSimulateRun:
    def test_reproducible(self):
        cfg = small_config(t_uncertainty=0.005, dark_rate=20.0)
        a = simulate_run(TRACE0, DET0, cfg, seed=123)
        b = simulate_run(TRACE0, DET0, cfg, seed=123)
        assert a == b

    def test_seed_is_an_integer_reduced_mod_2_64(self):
        # like derive_seed's masters: a numpy integer seeds as its int, a float is refused
        cfg = small_config(t_uncertainty=0.005)
        ref = simulate_run(TRACE0, DET0, cfg, seed=7)
        assert simulate_run(TRACE0, DET0, cfg, seed=np.int64(7)) == ref
        assert simulate_run(TRACE0, DET0, cfg, seed=2**64 + 7) == ref
        with pytest.raises(TypeError):
            simulate_run(TRACE0, DET0, cfg, seed=7.0)

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = simulate_run(TRACE0, DET0, cfg, seed=1)
        b = simulate_run(TRACE0, DET0, cfg, seed=2)
        assert any(x.clicks != y.clicks for x, y in zip(a, b))

    def test_vacuum_never_clicks(self):
        cfg = small_config()
        for seed in range(5):
            records = simulate_run(2.0, 1.0, cfg, seed)
            assert all(r.clicks == 0 for r in records)

    def test_blocked_setting_stays_dark_under_calibration_noise(self):
        # t_nominal = 0 is a blocked beam: no light leaks through it, and the
        # other settings draw what they draw in the same scan without it
        scan = (1.0, 0.75, 0.5, 0.25)
        blocked = ExperimentConfig(
            **dict(FULL_SCALE, transmittances=scan + (0.0,)), eta_apd=0.5, t_uncertainty=0.005
        )
        open_only = ExperimentConfig(**FULL_SCALE, eta_apd=0.5, t_uncertainty=0.005)
        for seed in range(10):
            records = simulate_run(TRACE0, DET0, blocked, seed)
            assert records[-1].clicks == 0
            assert records[:-1] == simulate_run(TRACE0, DET0, open_only, seed)

    def test_ends_draw_nothing(self):
        # settings at 1 and 0 are exact: calibration noise draws no transmittance
        # there, so the clicks are the noiseless run's, dark counts included
        ends = dict(transmittances=(1.0, 0.0), dark_rate=300.0)
        noisy, exact = small_config(t_uncertainty=0.005, **ends), small_config(**ends)
        for seed in range(50):
            assert (simulate_run(TRACE0, DET0, noisy, seed)
                    == simulate_run(TRACE0, DET0, exact, seed))

    def test_ends_exact_and_interior_drawn_in_every_run(self):
        cfg = small_config(transmittances=(1.0, 0.5, 0.0), t_uncertainty=0.005)
        _, t_trues = _draw_clicks(TRACE0, DET0, cfg, list(range(200)))
        assert all(t[0] == 1.0 and t[2] == 0.0 for t in t_trues)
        assert len({t[1] for t in t_trues}) == 200

    def test_mean_against_analytic_rate(self):
        # full-scale acquisition at percent-level efficiency, T = 1 only
        cfg = ExperimentConfig(
            rep_rate=780400.0, duration=100.0, transmittances=(1.0,), eta_apd=0.0084
        )
        n = cfg.n_trials
        q = click_probability_from_invariants(TRACE0, DET0, 0.0084)
        clicks = [simulate_run(TRACE0, DET0, cfg, seed)[0].clicks for seed in range(100)]
        se = math.sqrt(n * q * (1.0 - q) / len(clicks))
        assert abs(np.mean(clicks) - n * q) < 3.0 * se

    def test_blind_detector_sees_only_dark_counts(self):
        cfg = ExperimentConfig(
            rep_rate=780400.0,
            duration=100.0,
            transmittances=(1.0,),
            eta_apd=0.0,
            dark_rate=20.0,
        )
        clicks = [simulate_run(TRACE0, DET0, cfg, seed)[0].clicks for seed in range(200)]
        # a click on a pulse whenever its Poisson dark count is nonzero: binomial
        # at 1 - exp(-lambda) per pulse, about 2000 per run (SE of the mean ~ 3.2)
        n, q = cfg.n_trials, -math.expm1(-cfg.dark_rate / cfg.rep_rate)
        se = math.sqrt(n * q * (1.0 - q) / len(clicks))
        assert abs(np.mean(clicks) - n * q) < 4.0 * se

    def test_monotone_in_transmittance_and_eta(self):
        cfg = ExperimentConfig(
            rep_rate=780400.0, duration=0.05, transmittances=(0.25, 1.0), eta_apd=0.3
        )
        lo, hi = [], []
        for seed in range(200):
            r = simulate_run(TRACE0, DET0, cfg, seed)
            lo.append(r[0].clicks)
            hi.append(r[1].clicks)
        assert np.mean(hi) > np.mean(lo)
        cfg2 = ExperimentConfig(
            rep_rate=780400.0, duration=0.05, transmittances=(1.0,), eta_apd=0.9
        )
        hi_eta = [simulate_run(TRACE0, DET0, cfg2, seed)[0].clicks for seed in range(200)]
        assert np.mean(hi_eta) > np.mean(hi)

    def test_statistical_soundness_across_settings(self):
        # binomial variances n*q*(1-q) from ~250 at T = 1 down to ~74 at T = 0.25
        cfg = ExperimentConfig(
            rep_rate=780400.0,
            duration=0.01,
            transmittances=(1.0, 0.75, 0.5, 0.25),
            eta_apd=0.5,
        )
        n = cfg.n_trials
        n_seeds = 1000
        clicks = np.array(
            [
                [rec.clicks for rec in simulate_run(TRACE0, DET0, cfg, seed)]
                for seed in range(n_seeds)
            ]
        )
        for j, t in enumerate(cfg.transmittances):
            q = click_probability_from_invariants(TRACE0, DET0, 0.5 * t)
            se = math.sqrt(q * (1.0 - q) / (n * n_seeds))
            assert abs(clicks[:, j].mean() / n - q) < 5.0 * se
            var = n * q * (1.0 - q)
            # relative standard error of a sample variance is ~sqrt(2/(N-1))
            assert abs(clicks[:, j].var(ddof=1) / var - 1.0) < 5.0 * math.sqrt(2.0 / (n_seeds - 1))


class TestExpectedClickRate:
    def test_vacuum_gives_zero(self):
        assert expected_click_rate(SqueezerParams(1.0, 1.0), 0.5, 780400.0) == 0.0

    def test_pure_squeezer_value(self):
        rate = expected_click_rate(SqueezerParams(2.0, 1.0), 0.01, 780400.0)
        assert rate == pytest.approx(975.5, rel=1e-12)

    def test_close_to_exact_rate_at_low_eta(self):
        eta, rep = 0.01, 780400.0
        params = SqueezerParams(2.0, 1.0)
        trace, det = trace_det_from_squeezer(params)
        exact = rep * (1.0 - no_click_from_invariants(trace, det, eta))
        approx = expected_click_rate(params, eta, rep)
        assert abs(approx - exact) / exact < 0.02

    def test_experimental_efficiency_order_of_magnitude(self):
        # hundreds to thousands of clicks per second at percent efficiency
        rate = expected_click_rate(SqueezerParams(1.75, 1.08), 0.0084, 780400.0)
        assert 100.0 < rate < 10_000.0


class TestSubtractDark:
    def test_plain_subtraction(self):
        rec = ClickRecord(t_nominal=1.0, trials=10_000_000, clicks=5000)
        out = subtract_dark(rec, 20.0, 100.0)
        assert out.clicks == 3000
        assert out.dark_subtracted

    def test_floor_at_zero(self):
        rec = ClickRecord(t_nominal=1.0, trials=10_000_000, clicks=1500)
        assert subtract_dark(rec, 20.0, 100.0).clicks == 0

    def test_blocked_beam_keeps_no_clicks(self):
        # at t = 0 no light arrives: every click is dark, whatever the rounded expectation
        for clicks in (0, 1999, 2000, 2001, 5000):
            rec = ClickRecord(t_nominal=0.0, trials=10_000_000, clicks=clicks)
            out = subtract_dark(rec, 20.0, 100.0)
            assert (out.clicks, out.dark_subtracted) == (0, True)

    def test_zero_rate_is_identity(self):
        rec = ClickRecord(t_nominal=1.0, trials=10_000_000, clicks=2000)
        assert subtract_dark(rec, 0.0, 100.0).clicks == 2000

    @pytest.mark.parametrize(
        "dark_rate, duration",
        [(-20.0, 100.0), (20.0, 0.0), (20.0, -100.0), (math.nan, 100.0), (math.inf, 100.0),
         (20.0, math.inf), (0.0, math.inf), (1e300, 1e300)],
    )
    def test_bad_rate_or_duration_rejected(self, dark_rate, duration):
        rec = ClickRecord(t_nominal=1.0, trials=10_000_000, clicks=5000)
        with pytest.raises(ValueError, match="duration"):
            subtract_dark(rec, dark_rate, duration)

    def test_double_subtraction_rejected(self):
        rec = ClickRecord(t_nominal=1.0, trials=10_000, clicks=500, dark_subtracted=True)
        with pytest.raises(ValueError):
            subtract_dark(rec, 20.0, 100.0)


class TestPerturbedEta:
    def test_exact_when_uncertainty_zero(self):
        cfg = small_config(eta_apd=0.37)
        assert perturbed_eta(cfg, seed=5) == 0.37

    @pytest.mark.parametrize("seed", [2.5, "x"])
    @pytest.mark.parametrize("eta_rel_uncertainty", [0.0, 0.01], ids=["exact", "noisy"])
    def test_non_integer_seed_rejected(self, eta_rel_uncertainty, seed):
        # with or without eta noise, so a seed is checked even when nothing is drawn
        cfg = small_config(eta_rel_uncertainty=eta_rel_uncertainty)
        with pytest.raises(TypeError):
            perturbed_eta(cfg, seed)

    def test_sample_spread_matches_relative_uncertainty(self):
        cfg = small_config(eta_apd=0.5, eta_rel_uncertainty=0.01)
        values = np.array([perturbed_eta(cfg, seed) for seed in range(10_000)])
        assert abs(values.std() - 0.005) / 0.005 < 0.10

    def test_always_in_unit_interval(self):
        cfg = small_config(eta_apd=0.0084, eta_rel_uncertainty=0.01)
        values = [perturbed_eta(cfg, seed) for seed in range(10_000)]
        assert all(0.0 < v <= 1.0 for v in values)
