import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from sqclick import (
    ClickRecord,
    Estimate,
    EstimationError,
    ExperimentConfig,
    SqueezerParams,
    UnphysicalStateError,
    check_physicality,
    classical_estimate,
    click_probability_from_invariants,
    cov_from_squeezer,
    estimate_eta,
    expected_click_rate,
    homodyne_correct,
    invert_two_point,
    likelihood_grid,
    log_likelihood,
    ml_estimate,
    mode_count_fit,
    no_click_from_invariants,
    perturbed_eta,
    sensitivity,
    simulate_run,
)
from sqclick import estimate
from sqclick.estimate import FLATNESS_NATS, _ml_solve, _setting_arrays
from sqclick.modes import _mode_fit_table
from sqclick.tables import estimate_lines

TRACE0, DET0 = 2.321, 1.156
N_FULL = 78_040_000


def noiseless_records(trace, det, eta, transmittances=(1.0, 0.75, 0.5, 0.25), n=N_FULL):
    records = []
    for t in transmittances:
        q = click_probability_from_invariants(trace, det, eta * t)
        records.append(ClickRecord(t_nominal=t, trials=n, clicks=int(round(n * q))))
    return records


def paper_config(eta):
    return ExperimentConfig(
        rep_rate=780400.0,
        duration=100.0,
        transmittances=(1.0, 0.75, 0.5, 0.25),
        eta_apd=eta,
    )


def reference_log_likelihood(trace, det, records, eta):
    # independent oracle: sum (n - c) ln P + c ln(1 - P) record by record
    total = 0.0
    for r in records:
        p = no_click_from_invariants(trace, det, eta * r.t_nominal)
        q = click_probability_from_invariants(trace, det, eta * r.t_nominal)
        total += (r.trials - r.clicks) * math.log(p)
        if r.clicks:
            total += r.clicks * math.log(q)
    return total


class TestInvertTwoPoint:
    def test_roundtrip_example_state(self):
        p1 = no_click_from_invariants(TRACE0, DET0, 0.5)
        p2 = no_click_from_invariants(TRACE0, DET0, 0.25)
        trace, det = invert_two_point(0.5, p1, 0.25, p2)
        assert trace == pytest.approx(TRACE0, abs=1e-10)
        assert det == pytest.approx(DET0, abs=1e-10)

    def test_vacuum(self):
        trace, det = invert_two_point(0.8, 1.0, 0.3, 1.0)
        assert trace == pytest.approx(2.0, abs=1e-12)
        assert det == pytest.approx(1.0, abs=1e-12)

    def test_against_linear_solver(self):
        # independent oracle: solve the 2x2 system for (det, trace) with
        # numpy instead of the closed form
        rng = np.random.default_rng(42)
        for _ in range(50):
            det = rng.uniform(1.0, 2.5)
            trace = 2.0 * math.sqrt(det) + rng.uniform(0.0, 2.0)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            if abs(t1 - t2) < 0.05:
                continue
            p1 = no_click_from_invariants(trace, det, t1)
            p2 = no_click_from_invariants(trace, det, t2)
            a = np.array([[t1 * t1, t1 * (2.0 - t1)], [t2 * t2, t2 * (2.0 - t2)]])
            b = np.array(
                [4.0 / p1**2 - (2.0 - t1) ** 2, 4.0 / p2**2 - (2.0 - t2) ** 2]
            )
            det_ref, trace_ref = np.linalg.solve(a, b)
            got_trace, got_det = invert_two_point(t1, p1, t2, p2)
            assert got_trace == pytest.approx(trace_ref, abs=1e-8)
            assert got_det == pytest.approx(det_ref, abs=1e-8)

    def test_degenerate_transmittances_rejected(self):
        with pytest.raises(EstimationError):
            invert_two_point(0.5, 0.9, 0.5 + 1e-7, 0.9)

    @pytest.mark.parametrize(
        "t1, p1",
        [(0.5, 1e-300), (1e-300, 0.5), (0.5, 1e-160)],
        ids=["p-squared-underflows", "determinant-underflows", "u-overflows"],
    )
    def test_non_finite_solve_rejected(self, t1, p1):
        # p1*p1 or the 2x2 determinant is 0.0, or 4/p1^2 is inf: no finite (trace, det)
        with pytest.raises(EstimationError, match="no finite inversion"):
            invert_two_point(t1, p1, 0.25, 0.9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            invert_two_point(0.0, 0.9, 0.5, 0.9)
        with pytest.raises(ValueError):
            invert_two_point(0.5, 1.2, 0.25, 0.9)

    def test_det_error_dwarfs_trace_error_at_low_eta(self):
        eta = 0.008
        t1, t2 = eta * 1.0, eta * 0.5
        p1 = no_click_from_invariants(TRACE0, DET0, t1)
        p2 = no_click_from_invariants(TRACE0, DET0, t2)
        trace_p, det_p = invert_two_point(t1, p1 + 1e-4, t2, p2)
        ratio = abs(det_p - DET0) / abs(trace_p - TRACE0)
        assert ratio == pytest.approx(4.0 / eta, rel=0.02)


class TestSensitivity:
    def test_unit_point(self):
        assert sensitivity(1.0, 1.0) == (4.0, -16.0)

    def test_ratio_is_4_over_eta(self):
        for eta in (0.0084, 0.1, 0.5, 1.0):
            d_tr, d_det = sensitivity(0.9, eta)
            assert abs(d_det) / abs(d_tr) == pytest.approx(4.0 / eta, rel=1e-12)

    def test_experimental_efficiency_ratio(self):
        d_tr, d_det = sensitivity(1.0, 0.0084)
        assert abs(d_det / d_tr) == pytest.approx(476.19, abs=0.5)

    def test_finite_difference_oracle(self):
        # the closed-form derivatives describe the two-point inversion
        # with settings (t1, t2) = (eta, eta/2); check them there
        eta, p1 = 0.002, 0.97
        t1, t2 = eta, eta / 2.0
        p2 = 0.98
        delta = 1e-6
        tr_hi, det_hi = invert_two_point(t1, p1 + delta, t2, p2)
        tr_lo, det_lo = invert_two_point(t1, p1 - delta, t2, p2)
        fd_tr = (tr_hi - tr_lo) / (2.0 * delta)
        fd_det = (det_hi - det_lo) / (2.0 * delta)
        an_tr, an_det = sensitivity(p1, eta)
        assert fd_tr == pytest.approx(an_tr, rel=1e-3)
        assert fd_det == pytest.approx(an_det, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sensitivity(0.0, 0.5)
        with pytest.raises(ValueError):
            sensitivity(0.5, 0.0)


class TestLogLikelihood:
    def test_vacuum_data_maximized_at_vacuum(self):
        records = [
            ClickRecord(t_nominal=1.0, trials=1000, clicks=0),
            ClickRecord(t_nominal=0.5, trials=1000, clicks=0),
        ]
        assert log_likelihood(2.0, 1.0, records, 0.5) == 0.0
        for trace, det in [(2.1, 1.0), (2.2, 1.05), (2.5, 1.2)]:
            assert log_likelihood(trace, det, records, 0.5) < 0.0

    def test_half_probability_arithmetic(self):
        # (trace, det) = (12, 3) at eff_t 1 gives P = 2/sqrt(16) = 1/2
        rec = ClickRecord(t_nominal=1.0, trials=10, clicks=5)
        assert log_likelihood(12.0, 3.0, [rec], 1.0) == pytest.approx(
            10.0 * math.log(0.5), abs=1e-12
        )

    def test_certain_no_click_with_clicks_is_impossible(self):
        rec = ClickRecord(t_nominal=1.0, trials=10, clicks=1)
        assert log_likelihood(2.0, 1.0, [rec], 1.0) == float("-inf")

    def test_no_records_rejected(self):
        with pytest.raises(EstimationError, match="no click records supplied"):
            log_likelihood(2.5, 1.2, [], 0.5)

    def test_grid_of_no_records_rejected(self):
        # it returned a grid of 0.0 log-likelihoods
        with pytest.raises(EstimationError, match="no click records supplied"):
            likelihood_grid([], 0.5, np.array([2.5]), np.array([1.2]))

    def test_unphysical_parameters_rejected(self):
        rec = ClickRecord(t_nominal=1.0, trials=10, clicks=1)
        with pytest.raises(UnphysicalStateError):
            log_likelihood(2.0, 0.5, [rec], 1.0)
        with pytest.raises(ValueError):
            log_likelihood(2.5, 1.2, [rec], 1.5)

    def test_grid_matches_scalar(self):
        records = noiseless_records(TRACE0, DET0, 0.3, n=1_000_000)
        trace_axis = np.linspace(2.05, 3.0, 7)
        det_axis = np.linspace(1.0, 1.5, 5)
        log_l = likelihood_grid(records, 0.3, trace_axis, det_axis)
        assert log_l.shape == (7, 5)
        for i in (0, 3, 6):
            for j in (0, 2, 4):
                if not check_physicality(trace_axis[i], det_axis[j]):
                    assert log_l[i, j] == float("-inf")
                    continue
                ref = reference_log_likelihood(trace_axis[i], det_axis[j], records, 0.3)
                assert log_l[i, j] == pytest.approx(ref, rel=1e-9)
                scalar = log_likelihood(trace_axis[i], det_axis[j], records, 0.3)
                assert scalar == pytest.approx(ref, rel=1e-9)

    def test_grid_excludes_forbidden_region(self):
        # vacuum data have no clicks, so the vacuum cell on the boundary is finite
        records = noiseless_records(2.0, 1.0, 0.3, n=1000)
        log_l = likelihood_grid(records, 0.3, np.array([2.0]), np.array([1.0, 1.2]))
        assert log_l[0, 0] == 0.0
        assert log_l[0, 1] == float("-inf")  # det = 1.2 > (2/2)^2


class TestMlEstimate:
    def test_noiseless_high_eta_recovers_truth(self):
        est = ml_estimate(noiseless_records(TRACE0, DET0, 0.5), 0.5)
        assert est.trace == pytest.approx(TRACE0, abs=2e-4)
        assert est.det == pytest.approx(DET0, abs=2e-4)
        assert est.det_reliable
        qv_sum = est.vmin + est.vmax
        assert qv_sum == pytest.approx(est.trace, rel=1e-12)
        assert est.purity == pytest.approx(1.0 / math.sqrt(est.det), rel=1e-12)

    def test_noiseless_second_state(self):
        est = ml_estimate(noiseless_records(2.6, 1.3, 0.3), 0.3)
        assert est.trace == pytest.approx(2.6, abs=2e-4)
        assert est.det == pytest.approx(1.3, abs=2e-4)

    def test_no_records_rejected(self):
        # it said "need at least two distinct nonzero transmittances"
        with pytest.raises(EstimationError, match="no click records supplied"):
            ml_estimate([], 0.5)

    def test_vacuum_data(self):
        records = [
            ClickRecord(t_nominal=1.0, trials=1000, clicks=0),
            ClickRecord(t_nominal=0.5, trials=1000, clicks=0),
        ]
        est = ml_estimate(records, 0.5)
        assert (est.trace, est.det) == (2.0, 1.0)
        assert est.det_reliable
        assert est.log_likelihood_at_max == 0.0
        assert est.purity == 1.0

    def test_low_eta_trace_accurate_det_unreliable(self):
        est = ml_estimate(simulate_run(TRACE0, DET0, paper_config(0.0084), seed=0), 0.0084)
        assert est.trace == pytest.approx(TRACE0, abs=0.03)
        assert not est.det_reliable

    def test_result_respects_constraints_under_noise(self):
        # inflate the clicks at one setting so the raw inversion would be
        # unphysical; the ML estimate must stay inside the allowed region
        eta = 0.008
        records = noiseless_records(TRACE0, DET0, eta, transmittances=(1.0, 0.5))
        bumped = ClickRecord(
            t_nominal=1.0, trials=records[0].trials, clicks=int(records[0].clicks * 1.05)
        )
        est = ml_estimate([bumped, records[1]], eta)
        assert check_physicality(est.trace, est.det)

    @pytest.mark.parametrize("bump,on_pure_edge", [(1.05, False), (0.95, True)])
    def test_edge_results_are_exactly_physical(self, bump, on_pure_edge):
        # scaling the clicks at t = 1 pushes the raw inversion across the
        # thermal (more clicks) or the pure (fewer clicks) edge
        eta = 0.008
        records = noiseless_records(TRACE0, DET0, eta, transmittances=(1.0, 0.5))
        bumped = ClickRecord(
            t_nominal=1.0, trials=records[0].trials, clicks=int(records[0].clicks * bump)
        )
        est = ml_estimate([bumped, records[1]], eta)
        assert est.det == (1.0 if on_pure_edge else 0.25 * est.trace * est.trace)
        assert 1.0 <= est.det <= 0.25 * est.trace * est.trace

    @pytest.mark.parametrize("eta,seed", [(0.0084, 3), (0.05, 13)])
    def test_at_least_as_likely_as_truth(self, eta, seed):
        # flat low-eta likelihoods whose maximum a 1e-4-step grid search
        # misses by 0.16 and 0.34 nats
        records = simulate_run(TRACE0, DET0, paper_config(eta), seed=seed)
        est = ml_estimate(records, eta)
        truth = log_likelihood(TRACE0, DET0, records, eta)
        assert est.log_likelihood_at_max >= truth - 1e-9

    def test_insufficient_data_rejected(self):
        rec = ClickRecord(t_nominal=0.5, trials=100, clicks=3)
        with pytest.raises(EstimationError):
            ml_estimate([rec], 0.5)
        with pytest.raises(EstimationError):
            ml_estimate([rec, rec], 0.5)

    def test_zero_transmittance_row_carries_no_information(self):
        rec = ClickRecord(t_nominal=0.5, trials=100, clicks=3)
        dark = ClickRecord(t_nominal=0.0, trials=100, clicks=0)
        with pytest.raises(EstimationError):
            ml_estimate([rec, dark], 0.5)
        records = noiseless_records(TRACE0, DET0, 0.5, n=10_000)
        assert ml_estimate(records + [dark], 0.5) == ml_estimate(records, 0.5)

    @pytest.mark.parametrize(
        "rows",
        [
            [(1.0, 100, 10), (0.5, 0, 0)],  # zero trials
            [(1.0, 100, 10), (0.5, 100, 5), (0.0, 100, 1)],  # clicks at t = 0
            [(1.0, 100, 100), (0.5, 100, 100), (0.0, 100, 0)],  # all saturated
        ],
        ids=["zero-trials", "clicks-at-t0", "saturated"],
    )
    def test_degenerate_data_rejected(self, rows):
        with pytest.raises(EstimationError):
            ml_estimate([ClickRecord(*row) for row in rows], 0.5)

    def test_partial_saturation_has_finite_maximum(self):
        records = [ClickRecord(1.0, 100, 100), ClickRecord(0.5, 100, 60)]
        est = ml_estimate(records, 1.0)
        assert math.isfinite(est.trace) and math.isfinite(est.log_likelihood_at_max)
        assert 1.0 <= est.det <= 0.25 * est.trace * est.trace

    def test_saturated_setting_beside_a_dark_one_ends_on_the_thermal_edge(self):
        # The supremum lies at trace -> inf; the solver stops on the thermal
        # edge at trace ~ 3e16, where det/vmax used to round above vmax.
        records = [ClickRecord(1.0, 1000, 1000), ClickRecord(1e-50, 1000, 0)]
        est = ml_estimate(records, 1.0)
        assert est.vmin == est.vmax
        assert est.det == pytest.approx(0.25 * est.trace * est.trace, rel=1e-15)

    SPARSE =[(1.0, 1000, 3), (0.5, 1000, 1)]

    @pytest.mark.parametrize("eta", [1e-13, 1e-60, 1e-170])
    def test_efficiency_below_floor_rejected(self, eta):
        # Below 1e-12 the solver overflowed: (inf, inf, -inf) at 1e-60 and a
        # point 1,544 nats below the maximum at 1e-170.
        with pytest.raises(ValueError, match="below the efficiency floor"):
            ml_estimate([ClickRecord(*row) for row in self.SPARSE], eta)

    def test_efficiency_at_floor_reaches_maximum(self):
        # The maximum lies on the thermal edge, where the log-likelihood
        # depends on eta only through eta * (trace - 2).
        records = [ClickRecord(*row) for row in self.SPARSE]
        est = ml_estimate(records, 1e-12)
        assert est.log_likelihood_at_max == pytest.approx(
            ml_estimate(records, 1e-6).log_likelihood_at_max, abs=1e-9)
        assert est.det == 0.25 * est.trace * est.trace

    def test_efficiency_below_floor_solves_on_thermal_edge(self):
        # The solver on its own, below the floor that ml_estimate enforces: the
        # thermal edge's start reaches the maximum that a normal efficiency gives.
        eff = np.array([[1e-60, 5e-61]])
        solved = _ml_solve(eff, np.full(eff.shape, 1000.0), np.array([[3.0, 1.0]]))
        trace, det, _, log_l = (x.item() for x in solved)
        assert det == 0.25 * trace * trace
        assert log_l == pytest.approx(
            ml_estimate([ClickRecord(*row) for row in self.SPARSE], 1e-6).log_likelihood_at_max,
            abs=1e-9)

    def test_non_finite_maximum_raises(self):
        # The solver on its own, with trial counts near the float maximum, where
        # the log-likelihood overflows at every candidate
        eff = np.array([[0.5, 0.25]])
        with np.errstate(over="ignore"), pytest.raises(EstimationError, match="not finite"):
            _ml_solve(eff, np.full(eff.shape, 1.7e308), np.array([[1.6e308, 1e308]]))

    def test_fields_in_record_order(self):
        est = ml_estimate(noiseless_records(TRACE0, DET0, 0.5), 0.5)
        assert list(Estimate._fields) == [line.split(" = ")[0] for line in estimate_lines(est)]
        assert Estimate._fields[-1] == "log_likelihood_at_max"


@settings(deadline=None)
@given(
    trace=st.floats(2.0, 4.0),
    det_frac=st.floats(0.0, 1.0),
    eta=st.floats(0.005, 1.0),
    t_percent=st.lists(st.integers(1, 100), min_size=2, max_size=16, unique=True),
    log10_trials=st.floats(3.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_ml_estimate_reaches_dense_grid_maximum(
    trace, det_frac, eta, t_percent, log10_trials, seed
):
    det = 1.0 + det_frac * (0.25 * trace * trace - 1.0)
    n = int(10**log10_trials)
    rng = np.random.default_rng(seed)
    records = []
    for k in t_percent:
        q = click_probability_from_invariants(trace, det, eta * k / 100)
        records.append(ClickRecord(t_nominal=k / 100, trials=n, clicks=int(rng.binomial(n, q))))
    est = ml_estimate(records, eta)
    trace_hi = 2.0 + 2.0 * (max(trace, est.trace) - 2.0) + 0.1
    grid = likelihood_grid(
        records,
        eta,
        np.linspace(2.0, trace_hi, 150),
        np.linspace(1.0, 0.25 * trace_hi * trace_hi, 150),
    )
    log_l = est.log_likelihood_at_max
    assert log_l >= grid.max() - 1e-9 * abs(log_l)
    assert 1.0 <= est.det <= 0.25 * est.trace * est.trace


@pytest.mark.parametrize("n", [10**5, 3 * 10**5, 5_383_592, 10**8, 10**12])
def test_singular_weighted_start_reaches_interior_maximum(n):
    # a dark t = 0.5 setting and three saturated ones: the weighted start's 2x2
    # system is singular to rounding, and the maximum is interior
    records = [ClickRecord(0.5, n, 0)] + [
        ClickRecord(t, n, n) for t in (0.25, 0.664458068287437, 1.0)]
    est = ml_estimate(records, 1.0)
    reference = log_likelihood(53.889, 84.773, records, 1.0)  # near the maximum
    assert est.log_likelihood_at_max >= reference - 1e-12 * abs(reference)
    assert est.trace == pytest.approx(53.8891972306, rel=1e-6)
    assert est.det == pytest.approx(84.7725125099, rel=1e-6)


def test_ml_solve_beats_grid_on_dark_and_saturated_tables():
    # one dark setting (sometimes more), the rest saturated or within 2 clicks of
    # n: tables whose weighted start can be singular.  Oracle: likelihood_grid's
    # kernel over 181 log-spaced b = trace - 2 in [1e-9, 1e9] by 61 det fractions
    # of [1, (trace/2)^2], a grid that is not rectangular in (trace, det); each
    # block is one batched solve, bit-identical to ml_estimate on each table
    trace = 2.0 + np.geomspace(1e-9, 1e9, 181)[:, None]
    det = 1.0 + np.linspace(0.0, 1.0, 61) * (0.25 * trace * trace - 1.0)
    rng = np.random.default_rng(0)
    for n_settings in range(3, 9):
        runs, etas = [], []
        for _ in range(40):
            n = int(10 ** rng.uniform(3.0, 12.0))
            dark = rng.random(n_settings) < 0.1
            dark[0] = True
            clicks = np.where(dark, 0, n - rng.integers(0, 3, n_settings))
            ts = rng.uniform(0.05, 1.0, n_settings)
            runs.append([ClickRecord(float(t), n, int(c)) for t, c in zip(ts, clicks)])
            etas.append(10 ** rng.uniform(-3.0, 0.0))
        eff, ns, cs = _setting_arrays(runs, etas)
        log_ls = _ml_solve(eff, ns, cs)[3]
        for row, log_l in enumerate(log_ls):
            grid = estimate._loglike(trace[..., None], det[..., None], eff[row], ns[row], cs[row])
            assert grid.max() <= log_l + 1e-9 * abs(log_l) + 1e-6, (runs[row], etas[row])


def edge_loglike(b, kappa, lam, eff, ns, cs):
    """Log-likelihood of one row at each b on the edge a = kappa*b^2 + lam*b."""
    b = np.asarray(b, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = eff * eff * ((kappa * b + lam) * b) + 2.0 * eff * b
        return estimate._setting_loglike(np.maximum(u, 0.0), ns, cs).sum(-1)


@settings(deadline=None)
@given(
    t_percent=st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True),
    blocked=st.booleans(),
    n_saturated=st.integers(0, 2),
    eta=st.sampled_from([0.0084, 0.05, 0.5]) | st.floats(0.005, 1.0),
    log10_trials=st.floats(3.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_results_are_maxima_along_their_edges(t_percent, blocked, n_saturated, eta,
                                                   log10_trials, seed):
    # each edge result of the solver's own call, from its closed-form start, against
    # scipy's bounded search around the best point of a log-spaced scan of the edge
    rng = np.random.default_rng(seed)
    trace = rng.uniform(2.0, 4.0)
    det = 1.0 + rng.uniform() * (0.25 * trace * trace - 1.0)
    n = int(10**log10_trials)
    records = [ClickRecord(0.0, n, 0)] if blocked else []
    for i, k in enumerate(t_percent):
        q = click_probability_from_invariants(trace, det, eta * k / 100)
        clicks = n - int(rng.integers(1, 4)) if i < n_saturated else int(rng.binomial(n, q))
        records.append(ClickRecord(k / 100, n, clicks))
    edge_max, calls = estimate._edge_max, []

    def spy(*args):
        calls.append((args, edge_max(*args)))
        return calls[-1][1]

    with mock.patch.object(estimate, "_edge_max", spy):
        ml_estimate(records, eta)
    eff, ns, cs = (x[0] for x in _setting_arrays([records], [eta]))
    (_, kappas, lams, *_), found = calls[0]
    for kappa, lam, b_row in zip(kappas[:, 0], lams[:, 0], found):
        for b in b_row:  # no rows when nothing clicked
            scan = b * np.geomspace(1e-6, 1e6, 1201)
            i = int(np.argmax(edge_loglike(scan, kappa, lam, eff, ns, cs)))
            best = minimize_scalar(lambda x: -edge_loglike(x, kappa, lam, eff, ns, cs),
                                   bounds=(scan[max(i - 1, 0)], scan[min(i + 1, scan.size - 1)]),
                                   method="bounded", options=dict(xatol=1e-12 * scan[i]))
            # 1e-9 nats, widened by the rounding of the log-likelihood's terms of
            # size n*ln(1 + u/4), which reach 1e7 on saturated data
            u = eff * eff * ((kappa * b + lam) * b) + 2.0 * eff * b
            tol = 1e-9 + 4.0 * np.finfo(float).eps * float((ns * np.log1p(0.25 * u)).sum())
            at_b = edge_loglike(b, kappa, lam, eff, ns, cs)
            assert at_b >= max(-best.fun, edge_loglike(scan[i], kappa, lam, eff, ns, cs)) - tol


def solved_bits(runs, etas):
    """(trace, det, det_reliable, log-likelihood) of each run, as raw bytes."""
    solved = _ml_solve(*_setting_arrays(runs, etas))
    return [tuple(x[i].tobytes() for x in solved) for i in range(len(runs))]


def model_block(n_runs, n_settings, seed):
    """Simulated tables with the same number of settings, one efficiency each;
    the settings are distinct percentages, t = 0 included."""
    rng = np.random.default_rng(seed)
    runs, etas = [], []
    for _ in range(n_runs):
        trace = rng.uniform(2.0, 4.0)
        det = 1.0 + rng.uniform() * (0.25 * trace * trace - 1.0)
        eta, n = rng.uniform(0.005, 1.0), int(10 ** rng.uniform(3.0, 8.0))
        ts = rng.choice(101, n_settings, replace=False) / 100
        qs = [click_probability_from_invariants(trace, det, eta * t) for t in ts]
        runs.append([ClickRecord(t, n, int(rng.binomial(n, q))) for t, q in zip(ts, qs)])
        etas.append(eta)
    return runs, etas


@settings(deadline=None)
@given(
    n_runs=st.integers(2, 6),
    n_settings=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batch_rows_are_solved_independently(n_runs, n_settings, seed, data):
    runs, etas = model_block(n_runs, n_settings, seed)
    try:
        alone = [solved_bits([r], [e])[0] for r, e in zip(runs, etas)]
    except EstimationError:  # e.g. t = 0 and a single other setting
        return
    order = data.draw(st.permutations(range(n_runs)))
    batch = solved_bits([runs[i] for i in order], [etas[i] for i in order])
    assert batch == [alone[i] for i in order]


class TestBatchedSolve:
    def block(self):
        return [noiseless_records(TRACE0, DET0, eta, n=10**6) for eta in (0.05, 0.5)], [0.05, 0.5]

    def test_vacuum_row_gives_vacuum_corner(self):
        runs, etas = self.block()
        vacuum = [ClickRecord(r.t_nominal, r.trials, 0) for r in runs[0]]
        batch = _ml_solve(*_setting_arrays([runs[0], vacuum, runs[1]], [etas[0], 0.3, etas[1]]))
        assert [x[1].item() for x in batch] == [2.0, 1.0, True, 0.0]
        assert solved_bits([runs[0], vacuum, runs[1]], [etas[0], 0.3, etas[1]])[::2] == (
            solved_bits(runs, etas))

    def test_saturated_row_raises_serial_message(self):
        runs, etas = self.block()
        saturated = [ClickRecord(r.t_nominal, r.trials, r.trials) for r in runs[0]]
        with pytest.raises(EstimationError) as serial:
            ml_estimate(saturated, 0.3)
        with pytest.raises(EstimationError) as batched:
            _ml_solve(*_setting_arrays([runs[0], saturated, runs[1]], [etas[0], 0.3, etas[1]]))
        assert str(batched.value) == str(serial.value)


def assert_det_reliable_matches_grid(records, eta):
    """det_reliable against the grid oracle: the log-likelihood's max - min over
    2001 dets spanning [1, (trace/2)^2] at the estimated trace."""
    est = ml_estimate(records, eta)
    top = 0.25 * est.trace * est.trace
    if top - 1.0 < 1e-9:  # det pinned by the constraints
        assert est.det_reliable
        return
    log_l = likelihood_grid(records, eta, [est.trace], np.linspace(1.0, top, 2001))
    spread = log_l.max() - log_l.min()
    if abs(spread - FLATNESS_NATS) >= 1e-3:
        assert est.det_reliable == (spread >= FLATNESS_NATS), spread


@pytest.mark.parametrize("eta", [0.0084, 0.012, 0.016, 0.05, 0.5])
@pytest.mark.parametrize("n_settings", [4, 16])
def test_det_reliable_matches_grid_oracle(n_settings, eta):
    # with calibration noise the spread straddles FLATNESS_NATS at eta 0.012 and
    # 0.016 for 4 settings and at 0.0084 for 16; it is far below or above elsewhere
    config = ExperimentConfig(
        rep_rate=780400.0,
        duration=100.0,
        transmittances=tuple(np.linspace(1.0, 1.0 / n_settings, n_settings)),
        eta_apd=eta,
        t_uncertainty=0.005,
        eta_rel_uncertainty=0.02,
    )
    for seed in range(8):
        records = simulate_run(TRACE0, DET0, config, seed)
        assert_det_reliable_matches_grid(records, perturbed_eta(config, seed))


def test_det_reliable_matches_grid_oracle_off_model():
    # random click counts, which no single-mode Gaussian state explains
    rng = np.random.default_rng(2024)
    for _ in range(40):
        ts = rng.choice(np.arange(1, 101), int(rng.integers(2, 7)), replace=False) / 100
        n = int(10 ** rng.uniform(1.0, 6.0))
        records = [ClickRecord(t, n, int(rng.integers(0, n // 2 + 1))) for t in ts]
        assert_det_reliable_matches_grid(records, rng.uniform(0.005, 1.0))


class TestClassicalEstimate:
    @pytest.mark.parametrize(
        "gmin,gmax,g,h",
        [(1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 2.0, 1.0), (0.6, 2.4, 2.0, 1.2)],
    )
    def test_known_values(self, gmin, gmax, g, h):
        params = classical_estimate(gmin, gmax)
        assert params.g == pytest.approx(g, rel=1e-12)
        assert params.h == pytest.approx(h, rel=1e-12)

    def test_trace_identity(self):
        params = classical_estimate(0.6, 2.4)
        cov = cov_from_squeezer(params)
        expected = (2.0 * params.h - 1.0) * (params.g + 1.0 / params.g)
        assert cov.trace == pytest.approx(expected, abs=1e-12)

    def test_non_positive_gain_rejected(self):
        with pytest.raises(ValueError):
            classical_estimate(0.0, 2.0)
        with pytest.raises(ValueError):
            classical_estimate(-0.5, 2.0)


class TestHomodyneCorrect:
    def test_unit_efficiency_is_identity(self):
        qv = homodyne_correct(0.7, 1.6, 1.0)
        assert qv.vmin == pytest.approx(0.7)
        assert qv.vmax == pytest.approx(1.6)

    def test_vacuum_fixed_point(self):
        for eta in (0.3, 0.76, 1.0):
            qv = homodyne_correct(1.0, 1.0, eta)
            assert qv.vmin == pytest.approx(1.0, abs=1e-12)
            assert qv.vmax == pytest.approx(1.0, abs=1e-12)

    def test_experimental_efficiency(self):
        qv = homodyne_correct(0.9, 1.40, 0.76)
        assert qv.vmin == pytest.approx((0.9 - 0.24) / 0.76, rel=1e-12)
        assert qv.vmin == pytest.approx(0.868421, abs=1e-6)

    def test_unphysical_corrections_rejected(self):
        with pytest.raises(UnphysicalStateError):
            homodyne_correct(0.2, 1.5, 0.76)  # corrected vmin < 0
        with pytest.raises(UnphysicalStateError):
            homodyne_correct(0.95, 1.0, 0.76)  # corrected product < 1
        with pytest.raises(ValueError):
            homodyne_correct(0.9, 1.4, 0.0)


class TestEstimateEta:
    GH = [(1.2, 1.05), (1.5, 1.1), (1.8, 1.15), (2.0, 1.2), (2.5, 1.3)]

    def points(self, eta, noise=None, rng=None):
        pts = []
        for g, h in self.GH:
            rate = expected_click_rate(SqueezerParams(g, h), eta, 780400.0)
            if noise:
                rate *= 1.0 + rng.normal(0.0, noise)
            pts.append((rate, SqueezerParams(g, h)))
        return pts

    def test_noiseless_recovery(self):
        assert estimate_eta(self.points(0.0084), 780400.0) == pytest.approx(
            0.0084, abs=1e-6
        )

    def test_noisy_recovery(self):
        rng = np.random.default_rng(11)
        pts = self.points(0.0084, noise=0.01, rng=rng) + self.points(
            0.0084, noise=0.01, rng=rng
        )
        assert estimate_eta(pts, 780400.0) == pytest.approx(0.0084, rel=0.01)

    def test_single_point_is_exact_ratio(self):
        params = SqueezerParams(2.0, 1.2)
        rate = expected_click_rate(params, 0.31, 780400.0)
        assert estimate_eta([(rate, params)], 780400.0) == pytest.approx(0.31, rel=1e-12)

    def test_vacuum_points_rejected(self):
        with pytest.raises(EstimationError):
            estimate_eta([(0.0, SqueezerParams(1.0, 1.0))], 780400.0)
        with pytest.raises(EstimationError):
            estimate_eta([], 780400.0)

    @pytest.mark.parametrize("rep_rate, expected", [(math.nan, None), (1e-170, 1.0)],
                             ids=["nan", "1e-170"])
    def test_undetermined_scale_rejected(self, rep_rate, expected):
        # a NaN rep_rate fixes no eta; at 1e-170 pulses/s the per-pulse fit's
        # scale is about 8e170, clamped to 1.0 (a fit in rate units underflowed)
        if expected is None:
            with pytest.raises(EstimationError):
                estimate_eta([(1.0, SqueezerParams(2.0, 1.0))], rep_rate)
        else:
            assert estimate_eta([(1.0, SqueezerParams(2.0, 1.0))], rep_rate) == expected

    @pytest.mark.parametrize("rep_rate", [0.0, -1.0, -math.inf])
    def test_rep_rate_not_positive_rejected(self, rep_rate):
        # 0 was reported as vacuum gain and -1 returned the 1e-12 floor
        with pytest.raises(EstimationError, match="rep_rate"):
            estimate_eta([(1.0, SqueezerParams(2.0, 1.0))], rep_rate)

    def test_large_finite_rates_do_not_overflow(self):
        # in rate units the sum of squared predictions overflowed to inf
        assert estimate_eta([(1e300, SqueezerParams(2.0, 1.0))], 1e200) == 1.0

    @pytest.mark.parametrize("rate, rep_rate", [(math.nan, 1e6), (1e3, math.inf), (math.inf, 1e6)],
                             ids=["nan-rate", "inf-rep-rate", "inf-rate"])
    def test_non_finite_scale_rejected(self, rate, rep_rate):
        # clamping would keep a NaN and turn an infinite scale into 1.0
        with pytest.raises(EstimationError):
            estimate_eta([(rate, SqueezerParams(2.0, 1.0))], rep_rate)

    @settings(deadline=None)
    @given(
        points=st.lists(st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 3.0), st.floats(0.0, 0.25)),
                        min_size=1, max_size=12),
        rep_rate=st.floats(1e3, 1e8),
    )
    def test_python_sums_match_the_dot_products(self, points, rep_rate):
        # Reference: np.dot(rates, preds)/np.dot(preds, preds).  A dot product
        # of n non-negative terms, in any summation order, lies within
        # n*u/(1 - n*u) of the exact one (u = 2**-53), so each ratio lies
        # within about (2n + 1)*u of the exact ratio, and the two within
        # (4n + 3)*u of each other; clamping cannot widen that gap.
        pts = [(frac * rep_rate, SqueezerParams(g, h)) for g, h, frac in points]
        preds = np.array([expected_click_rate(p, 1.0, rep_rate) for _, p in pts])
        if not preds.any():
            return  # vacuum gains: test_vacuum_points_rejected
        ratio = float(np.dot([r for r, _ in pts], preds) / np.dot(preds, preds))
        n = len(pts)
        assert estimate_eta(pts, rep_rate) == pytest.approx(
            min(max(ratio, 1e-12), 1.0), rel=0, abs=(4 * n + 3) * 2.0**-53 * ratio)


class TestModeCountFit:
    TS = np.linspace(0.05, 0.9, 12)

    def single_mode_samples(self, trace=TRACE0, det=DET0):
        return [(t, no_click_from_invariants(trace, det, t)) for t in self.TS]

    def two_mode_samples(self):
        pa = [no_click_from_invariants(TRACE0, DET0, t) for t in self.TS]
        pb = [no_click_from_invariants(2.8, 1.4, t) for t in self.TS]
        return [(t, a * b) for t, a, b in zip(self.TS, pa, pb)]

    def test_single_mode(self):
        assert mode_count_fit(self.single_mode_samples(), 3)[1] == 1

    @staticmethod
    def z_scale(samples):
        return max(abs(4.0 / (p * p) - 4.0) for _, p in samples)

    def test_single_mode_zero_residual(self):
        samples = self.single_mode_samples()
        scale, rows = self.z_scale(samples), _mode_fit_table(samples, 3)
        assert rows[0][0] == 1
        assert rows[0][2] < 1e-18 * scale**2 * len(self.TS) + 1e-20

    def test_two_mode_product(self):
        assert mode_count_fit(self.two_mode_samples(), 3)[1] == 2

    def test_two_mode_residuals(self):
        samples = self.two_mode_samples()
        scale, rows = self.z_scale(samples), _mode_fit_table(samples, 3)
        by_n = {r[0]: r for r in rows}
        assert by_n[1][2] > 1e-6  # quadratic cannot absorb the quartic term
        assert by_n[2][2] < 1e-18 * scale**2 * len(self.TS) + 1e-20

    def test_vacuum_flags_no_signal(self):
        samples = [(t, 1.0) for t in self.TS]
        assert mode_count_fit(samples, 3) == ([], 0)

    def test_noisy_single_mode_with_errors(self):
        rng = np.random.default_rng(5)
        sigma_p = 1e-5
        samples = [
            (t, p + rng.normal(0.0, sigma_p), sigma_p)
            for t, p in self.single_mode_samples()
        ]
        assert mode_count_fit(samples, 3)[1] == 1

    def test_underdetermined_rejected(self):
        with pytest.raises(EstimationError):
            mode_count_fit(self.single_mode_samples()[:5], 3)

    def test_duplicate_transmittances_rejected(self):
        samples = self.single_mode_samples()
        samples[1] = samples[0]
        with pytest.raises(EstimationError):
            mode_count_fit(samples, 3)

    def test_bad_probability_rejected(self):
        samples = self.single_mode_samples()
        samples[0] = (samples[0][0], 1.5)
        with pytest.raises(ValueError):
            mode_count_fit(samples, 3)
