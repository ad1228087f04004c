"""Covariance-matrix algebra for zero-mean single-mode Gaussian states,
the click forward map, its exact two-point inversion, and the closed-form
reference methods the click estimate is compared with.

Conventions
-----------
Quadratures satisfy [x, p] = 2i, so the vacuum has unit variance in each
quadrature and its covariance matrix is the identity.  All variances are
expressed in these shot-noise units.  Mixing this convention with the
hbar = 1 one (vacuum variance 1/2) is the classic bug in this domain, so
every function in the package assumes vacuum = 1.

Physicality checks (Heisenberg bound det >= 1, discriminant sign) fail on
NaN and use the absolute tolerance ``PHYS_TOL`` so that round-trip
identities are not rejected by their own floating-point rounding.

After a beamsplitter of effective transmittance t, 4/P^2 - 4 is linear in
(trace, det) (``_bs_gram_excess``); ``invert_two_point`` solves that system
for two settings, ``sensitivity`` gives its error amplification.  The
click-rate model ``expected_click_rate`` calibrates the efficiency
(``estimate_eta``); ``classical_estimate`` and ``homodyne_correct`` are the
reference methods.  No numpy or dataclasses: the records are validating
namedtuples.
"""

import math
from collections import namedtuple

PHYS_TOL = 1e-9

# Two transmittances closer than this give a numerically meaningless inversion.
DEGENERATE_T_TOL = 1e-6

# Smallest efficiency the estimator accepts, and the clip of the drawn ones.
_ETA_FLOOR = 1e-12


class UnphysicalStateError(ValueError):
    """Covariance data violating positivity or the Heisenberg bound det >= 1."""


class EstimationError(ValueError):
    """Data insufficient or degenerate for the requested estimate."""


class CovarianceMatrix(namedtuple("CovarianceMatrix", "vxx vpp vxp")):
    """Second moments of a zero-mean single-mode Gaussian state.

    vxx, vpp are the variances of x and p; vxp is the symmetrized cross
    moment (1/2)<xp + px>.  Vacuum is (1, 1, 0).
    """

    __slots__ = ()

    def __new__(cls, vxx, vpp, vxp=0.0):
        self = tuple.__new__(cls, (vxx, vpp, vxp))  # what the namedtuple's __new__ runs
        if not (self.vxx > 0.0 and self.vpp > 0.0):
            raise UnphysicalStateError(
                f"quadrature variances must be positive, got ({self.vxx}, {self.vpp})"
            )
        if not self.det >= 1.0 - PHYS_TOL:
            raise UnphysicalStateError(
                f"det(cov) = {self.det} violates the Heisenberg bound det >= 1"
            )
        return self

    @property
    def trace(self) -> float:
        return self.vxx + self.vpp

    @property
    def det(self) -> float:
        return self.vxx * self.vpp - self.vxp * self.vxp


class SqueezerParams(namedtuple("SqueezerParams", "g h")):
    """Intensity gains of the two-stage amplifier model of the source.

    g is the phase-sensitive gain (squeezing), h the phase-insensitive
    gain (thermal noise, mean thermal photon number h - 1).  g = h = 1 is
    the vacuum.
    """

    __slots__ = ()

    def __new__(cls, g, h):
        self = tuple.__new__(cls, (g, h))
        if not (self.g >= 1.0 and self.h >= 1.0):
            raise UnphysicalStateError(
                f"amplifier gains must satisfy g >= 1 and h >= 1, got ({self.g}, {self.h})"
            )
        return self


class QuadratureVariances(namedtuple("QuadratureVariances", "vmin vmax")):
    """Squeezed / anti-squeezed quadrature variance pair."""

    __slots__ = ()

    def __new__(cls, vmin, vmax):
        self = tuple.__new__(cls, (vmin, vmax))
        if not (0.0 < self.vmin <= self.vmax + PHYS_TOL):
            raise UnphysicalStateError(
                f"need 0 < vmin <= vmax, got ({self.vmin}, {self.vmax})"
            )
        if self.vmin * self.vmax < 1.0 - PHYS_TOL:
            raise UnphysicalStateError(
                f"vmin*vmax = {self.vmin * self.vmax} < 1 violates the Heisenberg bound"
            )
        return self


def cov_from_squeezer(params: SqueezerParams) -> CovarianceMatrix:
    """Covariance matrix produced by the amplifier cascade acting on vacuum.

    The squeezed quadrature is x: vxx = (2h-1)/g, vpp = (2h-1)*g.  The
    output is always diagonal; every quantity measured downstream is
    phase-insensitive, so rotations are irrelevant here.
    """
    scale = 2.0 * params.h - 1.0
    return CovarianceMatrix(vxx=scale / params.g, vpp=scale * params.g, vxp=0.0)


def trace_det_from_squeezer(params: SqueezerParams) -> tuple[float, float]:
    """Invariants of the state generated by the given amplifier gains."""
    cov = cov_from_squeezer(params)
    return cov.trace, cov.det


def squeezer_from_trace_det(trace: float, det: float) -> tuple[float, float]:
    """Gains (g, h) generating a physical (trace, det); inverse of trace_det_from_squeezer.

    g = sqrt(vmax/vmin) and 2h - 1 = sqrt(det).  Returned as a plain pair:
    on the thermal edge det = (trace/2)^2 rounding can put g an ulp below 1,
    which SqueezerParams would reject.
    """
    qv = variances_from_invariants(trace, det)
    return math.sqrt(qv.vmax / qv.vmin), 0.5 * (math.sqrt(det) + 1.0)


def variances_from_invariants(trace: float, det: float) -> QuadratureVariances:
    """Recover (vmin, vmax) from the two invariants of the covariance matrix.

    The variances are the roots of lambda^2 - trace*lambda + det = 0:
    vmax = (trace + sqrt(trace^2 - 4*det))/2, vmin = det/vmax (no cancellation
    at large trace).  The checks are check_physicality's, one message per
    bound: a det up to PHYS_TOL above (trace/2)^2 has its negative
    discriminant clamped to zero, and a trace whose square overflows gives
    vmin = 0 or vmax = inf, refused as the record would.  The record is
    built past its own checks, whose Heisenberg bound would refuse
    det/vmax*vmax rounding an ulp below 1 - PHYS_TOL.  On the thermal edge
    det = (trace/2)^2, det/vmax can round above vmax; vmin is capped at
    vmax, which is exact there since vmin = vmax.
    """
    if not det >= 1.0 - PHYS_TOL:
        raise UnphysicalStateError(f"det = {det} violates det >= 1")
    disc = trace * trace - 4.0 * det
    if not det <= 0.25 * trace * trace + PHYS_TOL:
        raise UnphysicalStateError(
            f"trace^2 - 4*det = {disc} < 0: no real quadrature variances"
        )
    if not trace > 0.0:
        raise UnphysicalStateError(f"trace = {trace} is not positive")
    vmax = 0.5 * (trace + math.sqrt(max(disc, 0.0)))
    vmin = min(det / vmax, vmax)
    if not (0.0 < vmin and vmax < math.inf):
        raise UnphysicalStateError(f"need 0 < vmin <= vmax, got ({vmin}, {vmax})")
    return tuple.__new__(QuadratureVariances, (vmin, vmax))


def purity_from_h(h: float) -> float:
    """Purity in terms of the phase-insensitive gain alone: 1/(2h-1).

    Equals the purity 1/sqrt(det) of cov_from_squeezer(g, h) for any g,
    since squeezing is a unitary and cannot change the purity.
    """
    if not h >= 1.0:
        raise UnphysicalStateError(f"h = {h} must be >= 1")
    return 1.0 / (2.0 * h - 1.0)


def _bs_gram_excess(trace, det, eff_t):
    """u = 4/P^2 - 4 = eff_t^2*(det - trace + 1) + 2*eff_t*(trace - 2).

    4/P^2 = det(t*cov + (2-t)*I) = t^2*det + t*(2-t)*trace + (2-t)^2 at
    t = eff_t; subtracting 4 analytically avoids the 4 - 4 cancellation
    that ruins accuracy at small eff_t.  Accepts scalars or broadcasting
    numpy arrays; u >= 0 on the physical region 1 <= det <= (trace/2)^2
    with 0 <= eff_t <= 1.
    """
    return eff_t * eff_t * (det - trace + 1.0) + 2.0 * eff_t * (trace - 2.0)


def invert_two_point(t1: float, p1: float, t2: float, p2: float) -> tuple[float, float]:
    """Exact inversion of two (effective transmittance, no-click probability) pairs.

    Solves u = 4/P^2 - 4 = t^2*a + 2*t*b for a = det - trace + 1, b = trace - 2
    and returns the raw (trace, det) = (2 + b, a + b + 1); no physicality
    clamping is applied, so noisy inputs may yield det < 1.  The t's must
    already include the detection efficiency.  Pairs whose solve underflows
    to a zero divisor or gives a non-finite result raise EstimationError.
    """
    for t in (t1, t2):
        if not 0.0 < t <= 1.0:
            raise ValueError(f"effective transmittance {t} outside (0, 1]")
    for p in (p1, p2):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"no-click probability {p} outside (0, 1]")
    if abs(t1 - t2) < DEGENERATE_T_TOL:
        raise EstimationError(
            f"transmittances {t1} and {t2} too close to invert (|dt| < {DEGENERATE_T_TOL})"
        )
    u1, u2 = (_div(4.0 * (1.0 - p) * (1.0 + p), p * p) for p in (p1, p2))
    # The second row times 2*t1/t2^2 makes the system symmetric.
    a, b = _solve2(t1 * t1, 2.0 * t1, 4.0 * t1 / t2, u1, _div(2.0 * t1 * u2, t2 * t2))
    trace, det = 2.0 + b, a + b + 1.0
    if not (math.isfinite(trace) and math.isfinite(det)):
        raise EstimationError(f"pairs ({t1}, {p1}) and ({t2}, {p2}) have no finite inversion")
    return float(trace), float(det)


def sensitivity(p1: float, eta: float) -> tuple[float, float]:
    """Derivatives of the inverted invariants with respect to one probability.

    d(trace)/dP1 = 4/(eta*P1^3) and d(det)/dP1 = -16/(eta^2*P1^3): the
    determinant is 4/eta times more sensitive than the trace to a small
    error on P1, which is what ruins det estimation at percent-level
    efficiencies.
    """
    if not 0.0 < p1 <= 1.0:
        raise ValueError(f"p1 = {p1} outside (0, 1]")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta = {eta} outside (0, 1]")
    p3 = p1 * p1 * p1
    return 4.0 / (eta * p3), -16.0 / (eta * eta * p3)


def _div(x, y):
    """x / y, and IEEE 754's +-inf or NaN where Python raises: numpy's quotient, bit for bit."""
    try:
        return x / y
    except ZeroDivisionError:
        return x * math.copysign(math.inf, y)


def _solve2(h11, h12, h22, g1, g2):
    """Solution of the symmetric 2x2 systems [[h11, h12], [h12, h22]] x = g, row by row."""
    d = h11 * h22 - h12 * h12
    return _div(h22 * g1 - h12 * g2, d), _div(h11 * g2 - h12 * g1, d)


def no_click_from_invariants(trace: float, det: float, eff_t: float) -> float:
    """No-click probability after a beamsplitter of effective transmittance eff_t.

    eff_t is the product of the physical transmittance and the overall
    detection efficiency; a lossy detector is the same as extra
    reflection.  P = 2/sqrt(eff_t^2*det + eff_t*(2-eff_t)*trace +
    (2-eff_t)^2), evaluated in a cancellation-free grouping.
    """
    _check_click_args(trace, det, eff_t)
    u = _bs_gram_excess(trace, det, eff_t)
    return 2.0 / math.sqrt(4.0 + max(u, 0.0))


def click_probability_from_invariants(trace: float, det: float, eff_t: float) -> float:
    """Per-pulse click probability 1 - P, computed without cancellation.

    1 - 2/sqrt(4+u) = u / (sqrt(4+u)*(sqrt(4+u)+2)); accurate even when
    the click probability is parts-per-million.
    """
    _check_click_args(trace, det, eff_t)
    return _click_probability(trace, det, eff_t)


def expected_click_rate(params: SqueezerParams, eta: float, rep_rate: float) -> float:
    """Low-efficiency approximation to the click rate at full transmittance.

    rate = eta*rep_rate*(trace - 2)/4, the slope of 1 - P as eta -> 0,
    valid to first order in eta.  Used to calibrate the overall
    efficiency from measured rates.
    """
    return 0.25 * eta * rep_rate * (trace_det_from_squeezer(params)[0] - 2.0)


def _check_click_args(trace, det, eff_t):
    if not 0.0 <= eff_t <= 1.0:
        raise ValueError(f"effective transmittance {eff_t} outside [0, 1]")
    _require_physical(trace, det)


def _dark_terms(dark):
    """(k, e0) of ``dark`` counts per pulse: P' = P*exp(-dark) has 4/P'^2 - 4 = k*u + e0."""
    return math.exp(2.0 * dark), 4.0 * math.expm1(2.0 * dark)


def _click_probability(trace, det, eff_t, k=1.0, e0=0.0):
    """click_probability_from_invariants without its checks, and with _dark_terms' u'."""
    u = k * max(_bs_gram_excess(trace, det, eff_t), 0.0) + e0
    s = math.sqrt(4.0 + u)
    return u / (s * (s + 2.0))


def gain_bounds_from_trace(trace: float) -> tuple[float, float]:
    """Upper bounds on the amplifier gains compatible with a measured trace.

    With only the trace known, 1 <= g <= sqrt((trace+s)/(trace-s)) with
    s = sqrt(trace^2-4), and 1 <= h <= (trace+2)/4.  The g bound is
    attained by a pure state (h = 1), the h bound by a thermal one (g = 1).
    Since trace - s = 4/(trace + s), the g bound simplifies to
    (trace + s)/2, which is what is evaluated here.
    """
    if not trace >= 2.0 - PHYS_TOL:
        raise ValueError(f"trace = {trace} < 2 is unphysical")
    s = math.sqrt(max(trace * trace - 4.0, 0.0))
    g_max = 0.5 * (trace + s)
    h_max = (trace + 2.0) / 4.0
    return g_max, h_max


def check_physicality(trace: float, det: float) -> bool:
    """True iff 1 <= det <= (trace/2)^2 within PHYS_TOL, trace > 0 and trace^2 is
    finite (else the variances are not); elementwise on arrays."""
    return ((det >= 1.0 - PHYS_TOL) & (det <= 0.25 * trace * trace + PHYS_TOL)
            & (trace > 0.0) & (trace * trace < math.inf))


def _require_physical(trace, det):
    """Raise UnphysicalStateError unless check_physicality(trace, det)."""
    if not check_physicality(trace, det):
        raise UnphysicalStateError(f"(trace, det) = ({trace}, {det}) is unphysical")


def _state_summary(trace, det) -> dict:
    """vmin, vmax, purity and the gain bounds of a physical (trace, det), in record order."""
    qv = variances_from_invariants(trace, det)
    g_max, h_max = gain_bounds_from_trace(max(trace, 2.0))
    return dict(vmin=qv.vmin, vmax=qv.vmax, purity=1.0 / math.sqrt(det),
                g_max_bound=g_max, h_max_bound=h_max)


def classical_estimate(gain_min: float, gain_max: float) -> SqueezerParams:
    """Amplifier gains from classical probe (de)amplification measurements.

    g = sqrt(gain_max/gain_min), h = sqrt(gain_max*gain_min).
    """
    if not (gain_min > 0.0 and gain_max > 0.0):
        raise ValueError(f"classical gains must be positive, got ({gain_min}, {gain_max})")
    return SqueezerParams(
        g=math.sqrt(gain_max / gain_min), h=math.sqrt(gain_max * gain_min)
    )


def homodyne_correct(v_hom_min: float, v_hom_max: float, eta_hom: float) -> QuadratureVariances:
    """Undo homodyne detection losses: V = (V_hom - 1 + eta_hom)/eta_hom.

    Vacuum (V_hom = 1) is a fixed point for any efficiency.
    """
    if not 0.0 < eta_hom <= 1.0:
        raise ValueError(f"eta_hom = {eta_hom} outside (0, 1]")
    vmin = (v_hom_min - 1.0 + eta_hom) / eta_hom
    vmax = (v_hom_max - 1.0 + eta_hom) / eta_hom
    if not (vmin > 0.0 and vmin * vmax >= 1.0 - PHYS_TOL):
        raise UnphysicalStateError(
            f"loss correction gave unphysical variances ({vmin}, {vmax})"
        )
    return QuadratureVariances(vmin=vmin, vmax=vmax)


def estimate_eta(click_rates: list, rep_rate: float) -> float:
    """Overall detection efficiency from click rates at full transmittance.

    Least-squares fit of the single scale factor eta in
    rate = eta * rep_rate * (trace - 2)/4 (see expected_click_rate) across
    calibration points (rate, SqueezerParams), made per pulse (rate/rep_rate)
    so that no sum overflows.  Result clamped to (0, 1]; a rep_rate that is
    not positive and finite, or a scale that is not finite, raises EstimationError.
    """
    click_rates = list(click_rates)  # read once: any iterable of points
    if not click_rates:
        raise EstimationError("no calibration points supplied")
    if not 0.0 < rep_rate < math.inf:
        raise EstimationError(f"rep_rate = {rep_rate} must be positive and finite")
    preds = [expected_click_rate(p, 1.0, 1.0) for _, p in click_rates]
    rates = [float(r) / rep_rate for r, _ in click_rates]
    pp = sum(p * p for p in preds)
    if not pp > 0.0:  # also predictions whose squares underflow
        raise EstimationError("all calibration points are at vacuum gain; eta undetermined")
    eta = sum(r * p for r, p in zip(rates, preds)) / pp
    if not math.isfinite(eta):
        raise EstimationError(f"efficiency scale {eta}: a non-finite input or an overflow")
    return min(max(eta, _ETA_FLOOR), 1.0)
