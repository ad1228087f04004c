import math
from dataclasses import replace

import numpy as np
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
)
from sqclick import ensemble, estimate
from sqclick.simulate import _draw_clicks, generators

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

    @pytest.mark.parametrize("n", [1, 1000])
    @pytest.mark.parametrize("master", [0, 2**63, 2**64 - 1, -5])
    def test_vectorised_pass_equals_scalar(self, master, n):
        seeds = derive_seed(master, np.arange(n, dtype=np.uint64))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master, k) for k in range(n)]

    @pytest.mark.parametrize("master", [np.int64(-1), np.uint64(2**64 - 1)])
    def test_numpy_integer_master_is_its_int(self, master):
        assert derive_seed(master, 5) == derive_seed(-1, 5) == derive_seed(2**64 - 1, 5)

    def test_float_master_rejected(self):
        with pytest.raises(TypeError):
            derive_seed(3.0, 5)
        with pytest.raises(TypeError):
            run_ensemble(TRACE0, DET0, quick_config(), 2, seed=3.0)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


class TestSeedingPass:
    def test_one_seed_and_array_paths_agree(self):
        # simulate_run and perturbed_eta build one seed's words from Python ints,
        # run_ensemble all its seeds' words in one array pass
        seeds = EDGE_SEEDS + [derive_seed(17, k) for k in range(1000)]
        batch = generators(np.array(seeds, dtype=np.uint64))
        for seed, rng in zip(seeds, batch, strict=True):
            (alone,) = generators([seed])
            words = [derive_seed(seed, k) for k in range(4)]
            assert rng.bit_generator.seed_seq.generate_state(4, np.uint64).tolist() == words
            assert alone.bit_generator.seed_seq.generate_state(4, np.uint64).tolist() == words
            assert rng.bit_generator.state == alone.bit_generator.state
            first, again = (g.integers(2**64, size=3, dtype=np.uint64) for g in (rng, alone))
            assert first.tolist() == again.tolist()

    @pytest.mark.parametrize("request_", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                          (8, np.uint64)])
    def test_adapter_rejects_other_requests(self, request_):
        (rng,) = generators([5])
        state = rng.bit_generator.seed_seq
        with pytest.raises(RuntimeError):
            state.generate_state(*request_)
        assert state.generate_state(4, np.uint64).tolist() == [derive_seed(5, k) for k in range(4)]


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

    def test_dark_counts_modelled_in_estimation(self):
        # vacuum + dark counts must still estimate (2, 1) with the dark mean fitted
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

    @pytest.mark.parametrize("n_runs", [1, 40])
    def test_zero_efficiency_rejected_like_ml_estimate(self, n_runs):
        cfg = quick_config(eta_apd=0.0)
        with pytest.raises(ValueError, match=r"^eta_assumed = 0.0 outside \(0, 1\]$"):
            run_ensemble(TRACE0, DET0, cfg, n_runs, seed=1)

    def test_efficiency_below_floor_rejected(self):
        # The state is bright enough to click at eta = 1e-60; the solver used to
        # return inf/nan estimates for it without an error.
        cfg = quick_config(eta_apd=1e-60, transmittances=(1.0, 0.5))
        with pytest.raises(ValueError, match="below the efficiency floor"):
            run_ensemble(1e60, 1.0, cfg, 3, seed=1)


SIXTEEN = tuple(k / 16 for k in range(16, 0, -1))


@pytest.mark.parametrize("eta", [0.0084, 0.5])
@pytest.mark.parametrize(
    "overrides",
    [
        dict(transmittances=(1.0, 0.5, 0.25, 0.0), t_uncertainty=0.005),
        dict(transmittances=(1.0, 0.5, 0.25, 0.0), dark_rate=300.0),
        dict(transmittances=(1.0, 0.75, 0.5, 0.25), dark_rate=200.0),
        dict(transmittances=SIXTEEN, t_uncertainty=0.005, eta_rel_uncertainty=0.01),
        dict(transmittances=SIXTEEN, dark_rate=200.0, eta_rel_uncertainty=0.01),
        dict(t_uncertainty=0.005, eta_rel_uncertainty=0.01, dark_rate=200.0),
        dict(transmittances=(1.0, 0.75, 0.5, 0.25)),
        dict(transmittances=SIXTEEN),
    ],
    ids=["4-blocked-noise", "4-blocked-dark", "4-dark", "16-noise", "16-dark-noise",
         "4-dark-noise", "4-exact", "16-exact"],
)
def test_batched_runs_equal_serial_estimates(eta, overrides):
    # every run of the batch has the bits the solver gives its records alone
    # (ml_estimate without a dark rate, else the solver at R = 1 with the dark
    # mean), and a shorter ensemble is a prefix of a longer one
    cfg = quick_config(eta_apd=eta, **overrides)
    res = run_ensemble(TRACE0, DET0, cfg, 40, seed=21)
    assert run_ensemble(TRACE0, DET0, cfg, 12, seed=21).runs == res.runs[:12]
    for j, run in enumerate(res.runs):
        _, (t_true,) = _draw_clicks(TRACE0, DET0, cfg, [derive_seed(21, 2 * j)])
        assert run.t_true == t_true
        records = simulate_run(TRACE0, DET0, cfg, derive_seed(21, 2 * j))
        eta_assumed = perturbed_eta(cfg, derive_seed(21, 2 * j + 1))
        if cfg.dark_rate > 0.0:
            serial = [x.item() for x in estimate._ml_solve(
                *estimate._setting_arrays([records], [eta_assumed]), cfg.dark_rate / cfg.rep_rate)]
        else:
            est = ml_estimate(records, eta_assumed)
            serial = [est.trace, est.det, est.det_reliable, est.log_likelihood_at_max]
        serial.append(eta_assumed)
        batched = (run.trace_est, run.det_est, run.det_reliable, run.log_likelihood_at_max,
                   run.eta_assumed)
        assert [float(x).hex() for x in batched] == [float(x).hex() for x in serial]


def test_sweep_streams_are_pinned():
    # a 2-point x 200-run sweep with calibration noise.  What comes only from
    # the random streams (efficiency, true transmittances, clicks) is pinned
    # to the bit; the solver's outputs, which pass through numpy's
    # platform-dependent log/exp, to 6 significant digits.  The t = 1 setting
    # is exact, so it draws no transmittance and its true value is 1
    cfg = quick_config(t_uncertainty=0.005, eta_rel_uncertainty=0.01)
    etas = [0.05, 0.5]
    res = eta_sweep(TRACE0, DET0, cfg, etas, 200, with_uncertainties=True, seed=2026)
    golden = [
        (("0.0167039", "0.170255"),
         [(0, "0x1.972620930995dp-5",
           ("0x1.0000000000000p+0", "0x1.84e11a3367733p-1", "0x1.fe49cd058568bp-2",
            "0x1.046d0f88e0947p-2"), [150, 124, 82, 27],
           ("2.31692", "1.34203", "-2634.23"), False),
          (199, "0x1.96f4b66fa8ba2p-5",
           ("0x1.0000000000000p+0", "0x1.7f52ab566e049p-1", "0x1.fff5044dbbfb7p-2",
            "0x1.f7b4be1fe2753p-3"), [153, 123, 93, 38],
           ("2.34393", "1", "-2788.87"), False)]),
        (("0.0161699", "0.0640756"),
         [(0, "0x1.028c47fa0ecdbp-1",
           ("0x1.0000000000000p+0", "0x1.85dfa1d757947p-1", "0x1.ff8542c6b15b5p-2",
            "0x1.ef029c168510bp-3"), [1279, 975, 709, 360],
           ("2.30803", "1.16136", "-15779.1"), True),
          (199, "0x1.fc6c340bb4ae7p-2",
           ("0x1.0000000000000p+0", "0x1.80c5cb4183223p-1", "0x1.fd3bc4cb2f0b2p-2",
            "0x1.fac1df590121ep-3"), [1322, 1051, 691, 383],
           ("2.31967", "1.19332", "-16234.5"), True)]),
    ]

    def g6(*xs):
        return tuple(format(x, ".6g") for x in xs)

    observed = []
    for k, (eta, point) in enumerate(zip(etas, res)):
        point_seed = derive_seed(2026, k)
        ends = [0, 199]
        rows, _ = _draw_clicks(TRACE0, DET0, replace(cfg, eta_apd=eta),
                               [derive_seed(point_seed, 2 * j) for j in ends])
        observed.append((
            g6(point.sigma_trace, point.sigma_det),
            [(j, point.runs[j].eta_assumed.hex(), tuple(t.hex() for t in point.runs[j].t_true),
              row, g6(point.runs[j].trace_est, point.runs[j].det_est,
                      point.runs[j].log_likelihood_at_max), point.runs[j].det_reliable)
             for j, row in zip(ends, rows)],
        ))
    assert observed == golden


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3)], ids=["int64", "uint64"])
@pytest.mark.parametrize("entry", ["run_ensemble", "eta_sweep", "state_sweep"])
def test_numpy_integer_seed_runs_as_its_int(entry, seed):
    cfg = quick_config(t_uncertainty=0.005, eta_rel_uncertainty=0.01)
    call = {
        "run_ensemble": lambda s: run_ensemble(TRACE0, DET0, cfg, 3, seed=s),
        "eta_sweep": lambda s: eta_sweep(TRACE0, DET0, cfg, [0.2, 0.5], 3,
                                         with_uncertainties=True, seed=s),
        "state_sweep": lambda s: state_sweep([(TRACE0, DET0), (2.0, 1.0)], cfg, 3, seed=s),
    }[entry]
    assert call(seed) == call(3)


def test_edge_passes_per_solve_on_criterion_5_data(monkeypatch):
    # each pass of the edge Newton loop is one slope evaluation of both edges;
    # the closed-form starts leave about 3 per 200-run solve
    cfg = ExperimentConfig(rep_rate=780400.0, duration=100.0,
                           transmittances=(1.0, 0.75, 0.5, 0.25), eta_apd=0.5)
    edge_max, setting_loglike = estimate._edge_max, estimate._setting_loglike
    passes, inside = [], []

    def counted_edge_max(*args):
        passes.append(0)
        inside.append(True)
        try:
            return edge_max(*args)
        finally:
            inside.pop()

    def counted_setting_loglike(u, n, c, slopes=False):
        if slopes and inside:
            passes[-1] += 1
        return setting_loglike(u, n, c, slopes)

    monkeypatch.setattr(estimate, "_edge_max", counted_edge_max)
    monkeypatch.setattr(estimate, "_setting_loglike", counted_setting_loglike)
    etas = [0.01, 0.05, 0.08, 0.10, 0.125, 0.15, 0.175, 0.20]
    eta_sweep(TRACE0, DET0, cfg, etas, 200, with_uncertainties=False, seed=314159)
    assert len(passes) == len(etas)
    assert max(passes) <= 4, passes


def test_sweeps_call_run_ensemble_once_per_point_through_the_module(monkeypatch):
    # the traced benchmark pass times each ensemble by swapping this attribute
    real, calls = ensemble.run_ensemble, []

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(ensemble, "run_ensemble", counted)
    res = eta_sweep(TRACE0, DET0, quick_config(), [0.2, 0.4, 0.6], 2, False, seed=3)
    assert len(calls) == 3 and all(r is c for r, c in zip(res, calls, strict=True))
    calls.clear()
    res = state_sweep([(2.1, 1.05), (2.6, 1.3)], quick_config(), 2, seed=5)
    assert len(calls) == 2 and all(r is c for r, c in zip(res, calls, strict=True))


@pytest.mark.parametrize(
    "sweep, message",
    [(lambda cfg: eta_sweep(TRACE0, DET0, cfg, [0.3, 0.0], 2, False, seed=3),
      "eta_assumed = 0.0 outside"),
     (lambda cfg: state_sweep([(2.1, 1.05), (2.0, 1.5)], cfg, 2, seed=5), "is unphysical")],
    ids=["eta_sweep", "state_sweep"],
)
def test_sweeps_check_every_point_before_any_runs(monkeypatch, sweep, message):
    calls = []
    monkeypatch.setattr(ensemble, "run_ensemble", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        sweep(quick_config())
    assert calls == []


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

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError, match="states must be non-empty"):
            state_sweep([], quick_config(), 2, seed=10)

    @pytest.mark.parametrize("noise", [dict(t_uncertainty=0.005, eta_rel_uncertainty=0.01), {}],
                             ids=["paper-noise", "exact"])
    def test_mean_det_within_three_standard_errors(self, noise):
        # criterion 7's states and seed at 10x its runs: each mean det lies within
        # 3 standard errors (the runs' sd over sqrt(R)) of the truth
        states = [(2.10, 1.05), (TRACE0, DET0), (2.60, 1.30), (3.00, 1.50), (3.50, 1.90)]
        n_runs = 2000
        res = state_sweep(states, quick_config(duration=100.0, **noise), n_runs, seed=1618)
        for (_, det_true), point in zip(states, res, strict=True):
            se = np.std([run.det_est for run in point.runs], ddof=1) / math.sqrt(n_runs)
            assert abs(point.mean_det_est - det_true) <= 3.0 * se, (det_true, point.mean_det_est)
