import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from sqclick import (
    ClickRecord,
    CovarianceMatrix,
    EnsembleResult,
    Estimate,
    QuadratureVariances,
    SqueezerParams,
    UnphysicalStateError,
    check_physicality,
    classical_estimate,
    click_probability_from_invariants,
    cov_from_squeezer,
    gain_bounds_from_trace,
    homodyne_correct,
    no_click_from_invariants,
    purity_from_h,
    squeezer_from_trace_det,
    trace_det_from_squeezer,
    variances_from_invariants,
)

from matrix_oracle import apply_beamsplitter, no_click_probability, purity, q_function

# Running example state used throughout: a slightly mixed squeezed vacuum.
TRACE0, DET0 = 2.321, 1.156


class TestTypes:
    def test_vacuum_is_valid(self):
        cov = CovarianceMatrix(1.0, 1.0, 0.0)
        assert cov.trace == 2.0
        assert cov.det == 1.0

    def test_negative_variance_rejected(self):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(-0.5, 2.0)

    def test_heisenberg_violation_rejected(self):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(0.5, 1.0)  # det = 0.5 < 1

    def test_gains_below_one_rejected(self):
        with pytest.raises(UnphysicalStateError):
            SqueezerParams(0.9, 1.0)
        with pytest.raises(UnphysicalStateError):
            SqueezerParams(1.0, 0.99)

    def test_variance_pair_product_below_one_rejected(self):
        with pytest.raises(UnphysicalStateError):
            QuadratureVariances(0.5, 1.0)


# One valid instance of each record, by keyword, with one field changed to
# another valid value, and its repr.
RECORDS = [
    (CovarianceMatrix, dict(vxx=0.5, vpp=2.0, vxp=0.0), dict(vxx=1.5),
     "CovarianceMatrix(vxx=0.5, vpp=2.0, vxp=0.0)"),
    (SqueezerParams, dict(g=2.0, h=1.2), dict(g=1.5), "SqueezerParams(g=2.0, h=1.2)"),
    (QuadratureVariances, dict(vmin=0.5, vmax=2.0), dict(vmin=1.5),
     "QuadratureVariances(vmin=0.5, vmax=2.0)"),
    (ClickRecord, dict(t_nominal=0.5, trials=100, clicks=3, dark_subtracted=False),
     dict(clicks=4), "ClickRecord(t_nominal=0.5, trials=100, clicks=3, dark_subtracted=False)"),
    (Estimate, dict(trace=2.5, det=1.0, det_reliable=True, vmin=0.5, vmax=2.0, purity=1.0,
                    g_max_bound=2.0, h_max_bound=1.125, log_likelihood_at_max=-3.0),
     dict(det=1.2), "Estimate(trace=2.5, det=1.0, det_reliable=True, vmin=0.5, vmax=2.0, "
     "purity=1.0, g_max_bound=2.0, h_max_bound=1.125, log_likelihood_at_max=-3.0)"),
    (EnsembleResult, dict(eta=0.5, sigma_det=0.1, sigma_trace=0.01, mean_det_est=1.2,
                          mean_trace_est=2.3, n_runs=2, fraction_det_reliable=0.5,
                          trace_true=2.321, det_true=1.156, runs=()),
     dict(n_runs=3), "EnsembleResult(eta=0.5, sigma_det=0.1, sigma_trace=0.01, "
     "mean_det_est=1.2, mean_trace_est=2.3, n_runs=2, fraction_det_reliable=0.5, "
     "trace_true=2.321, det_true=1.156, runs=())"),
]
RECORD_IDS = [cls.__name__ for cls, *_ in RECORDS]


class TestRecordContract:
    @pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=RECORD_IDS)
    def test_positional_and_keyword_construction_agree(self, cls, fields, changed, text):
        rec = cls(*fields.values())
        assert rec == cls(**fields)
        assert [getattr(rec, name) for name in fields] == list(fields.values())

    def test_cross_moment_defaults_to_zero(self):
        assert CovarianceMatrix(1.0, 1.0).vxp == 0.0
        assert CovarianceMatrix(vxx=1.0, vpp=1.0) == CovarianceMatrix(1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "cls, fields, error, message",
        [(CovarianceMatrix, dict(vxx=-0.5, vpp=2.0), UnphysicalStateError,
          "quadrature variances must be positive"),
         (CovarianceMatrix, dict(vxx=0.5, vpp=1.0), UnphysicalStateError,
          "violates the Heisenberg bound"),
         (CovarianceMatrix, dict(vxx=1.0, vpp=1.0, vxp=0.5), UnphysicalStateError,
          "violates the Heisenberg bound"),
         (SqueezerParams, dict(g=0.9, h=1.0), UnphysicalStateError,
          "amplifier gains must satisfy"),
         (SqueezerParams, dict(g=1.0, h=0.99), UnphysicalStateError,
          "amplifier gains must satisfy"),
         (QuadratureVariances, dict(vmin=2.0, vmax=0.5), UnphysicalStateError,
          "need 0 < vmin <= vmax"),
         (QuadratureVariances, dict(vmin=0.5, vmax=1.0), UnphysicalStateError,
          "violates the Heisenberg bound"),
         (CovarianceMatrix, dict(vxx=1.0, vpp=1.0, vxp=math.nan), UnphysicalStateError,
          "violates the Heisenberg bound"),
         (SqueezerParams, dict(g=math.nan, h=math.nan), UnphysicalStateError,
          "amplifier gains must satisfy"),
         (SqueezerParams, dict(g=2.0, h=math.nan), UnphysicalStateError,
          "amplifier gains must satisfy"),
         (ClickRecord, dict(t_nominal=1.5, trials=10, clicks=1), ValueError,
          r"t_nominal = 1.5 outside \[0, 1\]"),
         (ClickRecord, dict(t_nominal=0.5, trials=2**63, clicks=1), ValueError,
          "trials exceeds 9223372036854775807"),
         (ClickRecord, dict(t_nominal=0.5, trials=10, clicks=11), ValueError,
          r"clicks = 11 outside \[0, trials = 10\]")],
        ids=["negative-variance", "heisenberg", "cross-moment", "g-below-one",
             "h-below-one", "unordered-pair", "pair-heisenberg", "nan-cross-moment",
             "nan-gains", "nan-h", "click-t-outside-unit-interval", "click-trials-beyond-int64",
             "click-clicks-above-trials"],
    )
    def test_validation_fires_on_keyword_construction(self, cls, fields, error, message):
        with pytest.raises(error, match=message):
            cls(**fields)
        with pytest.raises(error, match=message):
            cls(*fields.values())

    @pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=RECORD_IDS)
    def test_fields_are_read_only(self, cls, fields, changed, text):
        rec = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(rec, name, 3.0)
        assert rec == cls(**fields)

    @pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=RECORD_IDS)
    def test_equal_by_value_and_hashable(self, cls, fields, changed, text):
        a, b = cls(**fields), cls(**fields)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != cls(**{**fields, **changed})

    @pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=RECORD_IDS)
    def test_repr(self, cls, fields, changed, text):
        assert repr(cls(**fields)) == text

    @pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=RECORD_IDS)
    def test_records_are_tuples_of_their_fields(self, cls, fields, changed, text):
        rec = cls(**fields)
        assert tuple(rec) == tuple(fields.values()) == rec
        assert rec[1] == list(fields.values())[1]
        assert rec._fields == tuple(fields)

    @pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=RECORD_IDS)
    def test_pickle_round_trip(self, cls, fields, changed, text):
        rec = pickle.loads(pickle.dumps(cls(**fields)))
        assert type(rec) is cls and rec == cls(**fields)


def test_nan_fails_the_physical_checks():
    # each check itself refuses NaN, with its own message
    with pytest.raises(UnphysicalStateError, match="h = nan must be >= 1"):
        purity_from_h(math.nan)
    with pytest.raises(ValueError, match="trace = nan < 2 is unphysical"):
        gain_bounds_from_trace(math.nan)
    with pytest.raises(ValueError, match="classical gains must be positive"):
        classical_estimate(math.nan, 2.0)
    with pytest.raises(UnphysicalStateError, match="det = nan violates det >= 1"):
        variances_from_invariants(2.5, math.nan)
    with pytest.raises(UnphysicalStateError, match="no real quadrature variances"):
        variances_from_invariants(math.nan, 1.0)
    with pytest.raises(UnphysicalStateError, match="loss correction gave unphysical"):
        homodyne_correct(math.nan, 2.0, 0.5)


class TestCovFromSqueezer:
    @pytest.mark.parametrize(
        "g,h,vxx,vpp",
        [
            (1.0, 1.0, 1.0, 1.0),  # vacuum
            (2.0, 1.0, 0.5, 2.0),  # pure squeezed state
            (1.0, 1.5, 2.0, 2.0),  # thermal state
        ],
    )
    def test_known_states(self, g, h, vxx, vpp):
        cov = cov_from_squeezer(SqueezerParams(g, h))
        assert cov.vxx == pytest.approx(vxx, abs=1e-15)
        assert cov.vpp == pytest.approx(vpp, abs=1e-15)
        assert cov.vxp == 0.0

    def test_thermal_purity_agreement(self):
        cov = cov_from_squeezer(SqueezerParams(1.0, 1.5))
        assert cov.det == pytest.approx(4.0)
        assert purity(cov) == pytest.approx(0.5)
        assert purity_from_h(1.5) == pytest.approx(0.5)


class TestVariancesFromInvariants:
    def test_vacuum(self):
        qv = variances_from_invariants(2.0, 1.0)
        assert qv.vmin == pytest.approx(1.0)
        assert qv.vmax == pytest.approx(1.0)

    def test_pure_squeezed(self):
        qv = variances_from_invariants(2.5, 1.0)
        assert qv.vmin == pytest.approx(0.5)
        assert qv.vmax == pytest.approx(2.0)

    def test_against_root_finder(self):
        # independent oracle: numpy's polynomial root finder on
        # lambda^2 - trace*lambda + det = 0
        roots = sorted(np.roots([1.0, -TRACE0, DET0]).real)
        qv = variances_from_invariants(TRACE0, DET0)
        assert qv.vmin == pytest.approx(roots[0], abs=1e-12)
        assert qv.vmax == pytest.approx(roots[1], abs=1e-12)
        assert qv.vmin * qv.vmax == pytest.approx(DET0, abs=1e-12)
        assert qv.vmin + qv.vmax == pytest.approx(TRACE0, abs=1e-12)

    def test_unphysical_inputs_rejected(self):
        with pytest.raises(UnphysicalStateError):
            variances_from_invariants(2.0, 1.5)  # trace^2 < 4 det
        with pytest.raises(UnphysicalStateError):
            variances_from_invariants(2.321, 0.9)  # det < 1

    def test_large_trace_keeps_heisenberg_product(self):
        # trace - sqrt(trace^2 - 4) cancels; vmin must come out as det/vmax
        qv = variances_from_invariants(1e5, 1.0)
        assert qv.vmin * qv.vmax == pytest.approx(1.0, rel=1e-12)

    def test_tiny_negative_discriminant_clamped(self):
        qv = variances_from_invariants(2.0, 1.0 + 1e-13)
        assert qv.vmin == pytest.approx(qv.vmax)

    def test_thermal_states_at_large_trace_are_accepted(self):
        # on det = (trace/2)^2, det/vmax can round an ulp above vmax, which the
        # absolute PHYS_TOL cannot absorb once vmax is large
        for trace in np.logspace(4.0, 17.0, 2001):
            det = (0.5 * trace) ** 2
            qv = variances_from_invariants(trace, det)
            assert qv.vmin <= qv.vmax
            assert qv.vmin * qv.vmax == pytest.approx(det, rel=1e-15)


class TestPurity:
    def test_vacuum(self):
        assert purity(CovarianceMatrix(1.0, 1.0)) == pytest.approx(1.0)

    def test_example_state(self):
        cov = CovarianceMatrix(0.7237389097000511, 1.5972610902999491)
        assert purity(cov) == pytest.approx(1.0 / math.sqrt(1.156), rel=1e-9)

    @pytest.mark.parametrize("h,expected", [(1.0, 1.0), (1.5, 0.5), (2.0, 1.0 / 3.0)])
    def test_from_h(self, h, expected):
        assert purity_from_h(h) == pytest.approx(expected, abs=1e-15)

    def test_from_h_below_one_rejected(self):
        with pytest.raises(UnphysicalStateError, match="h = 0.5 must be >= 1"):
            purity_from_h(0.5)


class TestBeamsplitter:
    def test_identity_at_full_transmission(self):
        cov = CovarianceMatrix(0.5, 2.0, 0.0)
        out = apply_beamsplitter(cov, 1.0)
        assert out == cov

    def test_full_reflection_leaves_vacuum(self):
        out = apply_beamsplitter(CovarianceMatrix(0.5, 2.0), 0.0)
        assert (out.vxx, out.vpp, out.vxp) == (1.0, 1.0, 0.0)

    def test_half_transmission(self):
        out = apply_beamsplitter(CovarianceMatrix(0.5, 2.0), 0.5)
        assert out.vxx == pytest.approx(0.75)
        assert out.vpp == pytest.approx(1.5)

    @pytest.mark.parametrize("t", [-0.1, 1.1])
    def test_domain_error(self, t):
        with pytest.raises(ValueError):
            apply_beamsplitter(CovarianceMatrix(1.0, 1.0), t)


class TestQFunction:
    def test_vacuum_at_origin(self):
        assert q_function(CovarianceMatrix(1.0, 1.0), 0.0, 0.0) == pytest.approx(
            1.0 / (4.0 * math.pi)
        )

    def test_origin_value_is_noclick_over_4pi(self):
        for cov in (
            CovarianceMatrix(0.5, 2.0),
            CovarianceMatrix(1.2, 1.4, 0.3),
            CovarianceMatrix(2.0, 2.0),
        ):
            assert 4.0 * math.pi * q_function(cov, 0.0, 0.0) == pytest.approx(
                no_click_probability(cov), rel=1e-12
            )

    def test_hand_evaluated_point(self):
        # (gamma+I)^-1 = diag(1/1.5, 1/3) for diag(0.5, 2)
        expected = math.exp(-1.0 / 3.0) / (2.0 * math.pi * math.sqrt(4.5))
        assert q_function(CovarianceMatrix(0.5, 2.0), 1.0, 0.0) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(
        "cov",
        [
            CovarianceMatrix(1.0, 1.0),
            CovarianceMatrix(0.5, 2.0),
            CovarianceMatrix(0.7237389097000511, 1.5972610902999491),
            CovarianceMatrix(1.2, 1.4, 0.3),
        ],
    )
    def test_normalization_by_quadrature(self, cov):
        total, err = integrate.dblquad(
            lambda p, x: q_function(cov, x, p),
            -10.0,
            10.0,
            lambda x: -math.sqrt(max(100.0 - x * x, 0.0)),
            lambda x: math.sqrt(max(100.0 - x * x, 0.0)),
            epsabs=1e-9,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def _squeezed_vacuum_photon_probs(r, n_max):
    """Photon-number distribution of pure squeezed vacuum (odd terms vanish):
    P(2n) = (2n)!/(2^(2n) (n!)^2) * tanh(r)^(2n) / cosh(r)."""
    probs = {}
    for n in range(n_max + 1):
        probs[2 * n] = (
            math.factorial(2 * n)
            / (4.0**n * math.factorial(n) ** 2)
            * math.tanh(r) ** (2 * n)
            / math.cosh(r)
        )
    return probs


class TestNoClickProbability:
    def test_vacuum_never_clicks(self):
        assert no_click_probability(CovarianceMatrix(1.0, 1.0)) == pytest.approx(1.0)

    def test_pure_squeezed_against_fock_oracle(self):
        cov = CovarianceMatrix(0.5, 2.0)
        r = -0.5 * math.log(cov.vxx)  # vmin = exp(-2r)
        probs = _squeezed_vacuum_photon_probs(r, 60)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert no_click_probability(cov) == pytest.approx(probs[0], rel=1e-12)
        assert no_click_probability(cov) == pytest.approx(2.0 / math.sqrt(4.5), rel=1e-12)

    def test_thermal(self):
        # nbar = 0.5 thermal state: P = 1/(nbar+1) = 2/3
        assert no_click_probability(CovarianceMatrix(2.0, 2.0)) == pytest.approx(
            2.0 / 3.0, rel=1e-12
        )


class TestNoClickFromInvariants:
    def test_vacuum(self):
        for eff_t in (0.0, 0.3, 1.0):
            assert no_click_from_invariants(2.0, 1.0, eff_t) == pytest.approx(1.0)

    def test_zero_transmission(self):
        assert no_click_from_invariants(TRACE0, DET0, 0.0) == pytest.approx(1.0)

    def test_matches_matrix_path(self):
        qv = variances_from_invariants(TRACE0, DET0)
        cov = CovarianceMatrix(qv.vmin, qv.vmax)
        for eff_t in (0.008, 0.1, 0.5, 1.0):
            via_matrix = no_click_probability(apply_beamsplitter(cov, eff_t))
            assert no_click_from_invariants(TRACE0, DET0, eff_t) == pytest.approx(
                via_matrix, abs=1e-12
            )

    def test_click_probability_complement(self):
        for eff_t in (1e-4, 0.01, 0.5):
            p = no_click_from_invariants(TRACE0, DET0, eff_t)
            q = click_probability_from_invariants(TRACE0, DET0, eff_t)
            assert p + q == pytest.approx(1.0, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            no_click_from_invariants(TRACE0, DET0, 1.5)
        with pytest.raises(UnphysicalStateError):
            no_click_from_invariants(2.0, 0.5, 0.5)

    @pytest.mark.parametrize("modes", [2, 3])
    @pytest.mark.parametrize("state", [(TRACE0, DET0), (TRACE0, 1.0)], ids=["paper", "pure"])
    def test_identical_modes_look_like_one_effective_mode(self, state, modes):
        # M identical modes give P^M, which to order e^2 is the no-click
        # probability of one mode at trace' = 2 + M(trace - 2) and
        # det' = 1 + M(det - 1) + M(M - 1)(trace - 2)^2/2; the residual is
        # of order e^3, so halving e divides it by about 8.  (A thermal-edge
        # state maps above (trace'/2)^2 and is refused.)
        trace, det = state
        trace_m = 2 + modes * (trace - 2)
        det_m = 1 + modes * (det - 1) + modes * (modes - 1) * (trace - 2) ** 2 / 2
        effs = (0.02, 0.01, 0.005)
        residuals = [abs(no_click_from_invariants(trace, det, e) ** modes
                         - no_click_from_invariants(trace_m, det_m, e)) for e in effs]
        assert all(r < 0.1 * e**3 for r, e in zip(residuals, effs))
        assert all(7.5 < big / small < 8.5 for big, small in zip(residuals, residuals[1:]))


class TestGainBounds:
    def test_vacuum_trace(self):
        assert gain_bounds_from_trace(2.0) == (1.0, 1.0)

    def test_trace_2p5(self):
        g_max, h_max = gain_bounds_from_trace(2.5)
        assert g_max == pytest.approx(2.0, rel=1e-12)
        assert h_max == pytest.approx(1.125, rel=1e-12)
        # pure-state inversion: trace = (2h-1)(g+1/g) at h = 1 gives g+1/g = 2.5
        assert g_max + 1.0 / g_max == pytest.approx(2.5, rel=1e-12)

    def test_example_trace_against_brute_force(self):
        g_max, h_max = gain_bounds_from_trace(TRACE0)
        # brute force: (g, h) is feasible iff (2h-1)(g+1/g) = trace has a
        # solution with g, h >= 1
        gs = np.linspace(1.0, 3.0, 2_000_001)
        feasible_g = gs[gs + 1.0 / gs <= TRACE0]
        assert g_max == pytest.approx(feasible_g.max(), abs=1e-5)
        hs = np.linspace(1.0, 2.0, 2_000_001)
        feasible_h = hs[2.0 * (2.0 * hs - 1.0) <= TRACE0]
        assert h_max == pytest.approx(feasible_h.max(), abs=1e-5)
        assert g_max == pytest.approx(1.7493635240868637, rel=1e-12)
        assert h_max == pytest.approx(1.08025, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gain_bounds_from_trace(1.9)


class TestCheckPhysicality:
    @pytest.mark.parametrize(
        "trace,det,ok",
        [
            (2.0, 1.0, True),
            (TRACE0, DET0, True),
            (TRACE0, 0.9, False),
            (2.0, 1.5, False),
            (2.0, 1.0 + 1e-12, True),  # tolerance absorbs rounding
        ],
    )
    def test_cases(self, trace, det, ok):
        assert check_physicality(trace, det) is ok


# Property tests.  The squeezer gain g is kept a whisker away from 1
# (besides the exact boundary, tested above): for g within ~1e-4 of 1 the
# discriminant trace^2 - 4 det loses all significant digits in float64
# and no implementation could meet the 1e-10 round-trip bound there.
gains_g = st.floats(min_value=1.0001, max_value=5.0)
gains_h = st.floats(min_value=1.0, max_value=3.0)


@given(g=gains_g, h=gains_h)
def test_roundtrip_squeezer_invariants_variances(g, h):
    cov = cov_from_squeezer(SqueezerParams(g, h))
    qv = variances_from_invariants(cov.trace, cov.det)
    assert abs(qv.vmin - (2.0 * h - 1.0) / g) < 1e-10
    assert abs(qv.vmax - (2.0 * h - 1.0) * g) < 1e-10


def test_roundtrip_at_gain_boundary():
    cov = cov_from_squeezer(SqueezerParams(1.0, 2.5))
    qv = variances_from_invariants(cov.trace, cov.det)
    assert abs(qv.vmin - 4.0) < 1e-10
    assert abs(qv.vmax - 4.0) < 1e-10


@pytest.mark.parametrize("g", [1.0, 1.25, 2.0, 5.0])
@pytest.mark.parametrize("h", [1.0, 1.08, 3.0])
def test_squeezer_trace_det_pair_roundtrip(g, h):
    g_back, h_back = squeezer_from_trace_det(*trace_det_from_squeezer(SqueezerParams(g, h)))
    assert g_back == pytest.approx(g, rel=1e-12)
    assert h_back == pytest.approx(h, rel=1e-12)


@given(g=st.floats(min_value=1.0, max_value=5.0), h=gains_h)
def test_purity_is_g_independent(g, h):
    assert abs(purity(cov_from_squeezer(SqueezerParams(g, h))) - purity_from_h(h)) < 1e-12


@given(
    g=st.floats(min_value=1.0, max_value=5.0),
    h=gains_h,
    t1=st.floats(min_value=0.0, max_value=1.0),
    t2=st.floats(min_value=0.0, max_value=1.0),
)
def test_beamsplitter_semigroup(g, h, t1, t2):
    cov = cov_from_squeezer(SqueezerParams(g, h))
    once = apply_beamsplitter(cov, t1 * t2)
    twice = apply_beamsplitter(apply_beamsplitter(cov, t1), t2)
    assert abs(once.vxx - twice.vxx) < 1e-12
    assert abs(once.vpp - twice.vpp) < 1e-12
    assert abs(once.vxp - twice.vxp) < 1e-12


@given(
    g=st.floats(min_value=1.0, max_value=5.0),
    h=gains_h,
    eta=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_two_path_no_click(g, h, eta, t):
    # folding the efficiency into the transmittance commutes with the
    # matrix-level beamsplitter action
    cov = cov_from_squeezer(SqueezerParams(g, h))
    eff = eta * t
    via_matrix = no_click_probability(apply_beamsplitter(cov, eff))
    assert abs(no_click_from_invariants(cov.trace, cov.det, eff) - via_matrix) < 1e-12


@given(
    det=st.floats(min_value=1.0, max_value=4.0),
    extra1=st.floats(min_value=0.0, max_value=3.0),
    extra2=st.floats(min_value=1e-6, max_value=3.0),
    eff_t=st.floats(min_value=0.0, max_value=1.0),
)
def test_no_click_non_increasing_in_trace(det, extra1, extra2, eff_t):
    trace_lo = 2.0 * math.sqrt(det) + extra1
    trace_hi = trace_lo + extra2
    p_lo = no_click_from_invariants(trace_lo, det, eff_t)
    p_hi = no_click_from_invariants(trace_hi, det, eff_t)
    assert p_hi <= p_lo + 1e-12
