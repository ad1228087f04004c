"""Inference of the covariance-matrix invariants from click statistics.

Two routes are implemented.  ``invert_two_point`` solves the exact 2x2
linear system relating 4/P^2 to (trace, det) for two transmittance
settings; it is algebraically exact but, at low detection efficiency,
amplifies probability errors in the determinant by a factor 4/eta more
than in the trace (see ``sensitivity``).  ``ml_estimate`` uses every
setting through a binomial likelihood maximized exactly over the physical
region 1 <= det <= (trace/2)^2: in a = det - trace + 1, b = trace - 2 each
4/P^2 - 4 is linear, Newton's method finds the interior, pure-edge and
thermal-edge maxima, the best wins (exact ties go to the smaller det), and
det is flagged unreliable when the likelihood is flat along it.

The module also carries the reference estimators (classical gain ratios,
loss-corrected homodyne variances), the efficiency calibration from
click rates, and a polynomial-order diagnostic for multimode light.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    PHYS_TOL,
    QuadratureVariances,
    SqueezerParams,
    UnphysicalStateError,
    _bs_gram_excess,
    check_physicality,
    gain_bounds_from_trace,
    variances_from_invariants,
)
from .simulate import expected_click_rate

# Two transmittances closer than this give a numerically meaningless inversion.
DEGENERATE_T_TOL = 1e-6

# Log-likelihood range along the determinant direction below which the
# determinant estimate carries no information.  Even perfectly
# uninformative data produce a max-min spread of order 1 nat from score
# fluctuations alone, while informative data sit orders of magnitude
# higher (tens of nats upward), so 3 nats splits the regimes cleanly.
FLATNESS_NATS = 3.0


class EstimationError(ValueError):
    """Data insufficient or degenerate for the requested estimate."""


@dataclass(frozen=True)
class Estimate:
    """Recovered invariants plus the physical quantities they determine."""

    trace: float
    det: float
    det_reliable: bool
    log_likelihood_at_max: float
    vmin: float
    vmax: float
    purity: float
    g_max_bound: float
    h_max_bound: float


@dataclass
class LikelihoodGrid:
    """Log-likelihood sampled on a rectangular (trace, det) grid.

    Cells outside the physical region are excluded and hold -inf.
    log_l has shape (len(trace_axis), len(det_axis)).
    """

    trace_axis: np.ndarray
    det_axis: np.ndarray
    log_l: np.ndarray
    excluded: np.ndarray


def invert_two_point(t1: float, p1: float, t2: float, p2: float) -> tuple[float, float]:
    """Exact inversion of two (effective transmittance, no-click probability) pairs.

    Solves u = 4/P^2 - 4 = t^2*a + 2*t*b for a = det - trace + 1, b = trace - 2
    and returns the raw (trace, det) = (2 + b, a + b + 1); no physicality
    clamping is applied, so noisy inputs may yield det < 1.  The t's must
    already include the detection efficiency.
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
    eff, p = np.array([t1, t2]), np.array([p1, p2])
    u = 4.0 * (1.0 - p) * (1.0 + p) / (p * p)
    a, b = np.linalg.solve(np.stack([eff * eff, 2.0 * eff], axis=1), u)
    return float(2.0 + b), float(a + b + 1.0)


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


def _setting_arrays(data, eta_assumed):
    """(effective transmittance, trials, clicks) arrays, one entry per record."""
    eff = np.array([eta_assumed * r.t_nominal for r in data], dtype=float)
    ns = np.array([r.trials for r in data], dtype=float)
    cs = np.array([r.clicks for r in data], dtype=float)
    return eff, ns, cs


def _setting_loglike(u, n, c, derivatives=False):
    """Per-setting binomial log-likelihood as a function of the excess u >= 0.

    With s = sqrt(4 + u), P = 2/s = (1 + u/4)^(-1/2) and 1 - P = u/(s(s + 2)),
    so l = (n - c)*ln(P) + c*ln(1 - P) = -n*ln(1 + u/4)/2 + c*ln(u/(2s + 4)),
    accurate even when clicks are parts-per-million; u = 0 with clicks
    gives -inf.  With ``derivatives`` also returns dl/du and d2l/du2.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(4.0 + u)
        click_term = np.where(c > 0, c * np.log(u / (2.0 * s + 4.0)), 0.0)
        value = -0.5 * n * np.log1p(0.25 * u) + click_term
        if not derivatives:
            return value
        w = np.where(c > 0, c * (s + 2.0) / (s * u), 0.0)  # = c/(s(s - 2))
        d1 = 0.5 * (w - n / (s * s))
        d2 = 0.5 * (n / s**4 - w * (s - 1.0) * (s + 2.0) / (s * s * u))
    return value, d1, d2


def _loglike_arrays(trace, det, eff_ts, trials, clicks):
    """Log-likelihood summed over settings, broadcasting over physical (trace, det)."""
    column = (-1,) + (1,) * np.broadcast(trace, det).ndim  # settings on the leading axis
    eff, n, c = (np.reshape(x, column) for x in (eff_ts, trials, clicks))
    return _setting_loglike(np.maximum(_bs_gram_excess(trace, det, eff), 0.0), n, c).sum(axis=0)


def log_likelihood(trace: float, det: float, data: list, eta_assumed: float) -> float:
    """Log-likelihood of the click records at the given invariants.

    Sum over settings of (trials - clicks)*ln(P) + clicks*ln(1 - P) with
    P the no-click probability at effective transmittance
    eta_assumed * t_nominal.  P = 1 with zero clicks contributes nothing;
    P = 1 with clicks present returns -inf.
    """
    if not data:
        raise EstimationError("no click records supplied")
    if not 0.0 < eta_assumed <= 1.0:
        raise ValueError(f"eta_assumed = {eta_assumed} outside (0, 1]")
    if not check_physicality(trace, det):
        raise UnphysicalStateError(f"(trace, det) = ({trace}, {det}) is unphysical")
    return float(_loglike_arrays(trace, det, *_setting_arrays(data, eta_assumed)))


def likelihood_grid(data, eta_assumed, trace_axis, det_axis) -> LikelihoodGrid:
    """Evaluate the log-likelihood on a rectangular grid of invariants.

    Grid cells violating 1 <= det <= (trace/2)^2 are marked excluded and
    set to -inf.
    """
    trace_axis = np.asarray(trace_axis, dtype=float)
    det_axis = np.asarray(det_axis, dtype=float)
    tr = trace_axis[:, None]
    dt = det_axis[None, :]
    excluded = (dt > 0.25 * tr * tr + PHYS_TOL) | (dt < 1.0 - PHYS_TOL)
    log_l = _loglike_arrays(tr, dt, *_setting_arrays(data, eta_assumed))
    log_l = np.where(excluded, -np.inf, log_l)
    return LikelihoodGrid(trace_axis, det_axis, log_l, excluded)


def _det_slice_spread(data, eta_assumed, trace_hat, n_det=401):
    """Log-likelihood range along det at the optimal trace.

    Evaluated over the admissible interval [1, (trace_hat/2)^2]; a small
    spread means every allowed determinant explains the data about
    equally well, i.e. the maximizer along det is arbitrary.  Returns
    +inf when the interval is effectively a point (det pinned by the
    constraints themselves).
    """
    det_hi = 0.25 * trace_hat * trace_hat
    if det_hi - 1.0 < 1e-9:
        return float("inf")
    det_axis = np.linspace(1.0, det_hi, n_det)
    ll = _loglike_arrays(trace_hat, det_axis, *_setting_arrays(data, eta_assumed))
    return float(ll.max() - ll.min())


def _finish_estimate(trace, det, det_reliable, log_l) -> Estimate:
    qv = variances_from_invariants(trace, det)
    g_max, h_max = gain_bounds_from_trace(max(trace, 2.0))
    return Estimate(
        trace=trace,
        det=det,
        det_reliable=det_reliable,
        log_likelihood_at_max=log_l,
        vmin=qv.vmin,
        vmax=qv.vmax,
        purity=1.0 / math.sqrt(det),
        g_max_bound=g_max,
        h_max_bound=h_max,
    )


def _edge_max(edge, b, jac, ns, cs):
    """Newton maximizer in b > 0 along an edge given by edge(b) = (a, da/db, d2a/db2),
    kept inside a bracket on the sign of the slope, which is +inf at b = 0."""
    lo, hi = 0.0, math.inf
    for _ in range(400):
        a, da, d2a = edge(b)
        _, d1, d2 = _setting_loglike(jac @ (a, b), ns, cs, derivatives=True)
        du = jac @ (da, 1.0)
        g, h = d1 @ du, d2 @ (du * du) + d2a * (d1 @ jac[:, 0])
        lo, hi = (b, hi) if g > 0.0 else (lo, b)
        step = -g / h if h < 0.0 else math.inf
        if abs(step) <= 4e-16 * b or hi - lo <= 4e-16 * b:
            break
        b = b + step if lo < b + step < hi else min(0.5 * (lo + hi), 2.0 * b)
    return b


def _interior_max(x, jac, ns, cs):
    """Damped Newton ascent in x = (a, b) where every u > 0; each setting enters
    the Hessian as -|d2l/du2|, so every step is an ascent direction."""
    for _ in range(100):
        value, d1, d2 = _setting_loglike(jac @ x, ns, cs, derivatives=True)
        grad = jac.T @ d1
        step = np.linalg.lstsq((jac.T * np.abs(d2)) @ jac, grad, rcond=None)[0]
        if not grad @ step > 1e-10:
            break
        for k in range(40):  # halve the step until the log-likelihood rises
            u = jac @ (x + 0.5**k * step)
            if np.all(u > 0.0) and _setting_loglike(u, ns, cs).sum() > value.sum():
                break
        else:
            break
        x = x + 0.5**k * step
    return x


def ml_estimate(data: list, eta_assumed: float) -> Estimate:
    """Constrained maximum-likelihood estimate of (trace, det).

    In a = det - trace + 1, b = trace - 2 each setting's u = 4/P^2 - 4 =
    t^2*a + 2*t*b is linear; the physical region is b >= 0, -b <= a <= b^2/4.
    Candidates: damped 2-D Newton from a weighted least-squares fit to
    u_hat = 4/p_hat^2 - 4, if it ends inside; 1-D Newton on the pure edge
    det = 1 and the thermal edge det = (trace/2)^2 (det set exactly); the
    vacuum corner when there are no clicks.  The most likely wins; exact
    ties prefer the smaller det (the more conservative, closer-to-pure claim).

    det_reliable is False when, at the optimal trace, the log-likelihood
    varies by less than FLATNESS_NATS across the whole admissible det
    interval.  EstimationError: no data, a zero-trial setting, fewer than
    two distinct nonzero transmittances, clicks at zero transmittance, or
    clicks == trials at every setting (no finite maximum).
    """
    if not 0.0 < eta_assumed <= 1.0:
        raise ValueError(f"eta_assumed = {eta_assumed} outside (0, 1]")
    eff, ns, cs = _setting_arrays(data, eta_assumed)
    if np.any(ns == 0):
        raise EstimationError("a setting has zero trials")
    if np.any(cs[eff == 0.0] > 0):
        raise EstimationError("clicks recorded at zero transmittance, where P(click) = 0")
    eff, ns, cs = eff[eff > 0.0], ns[eff > 0.0], cs[eff > 0.0]  # t = 0 is uninformative
    if np.unique(eff).size < 2:
        raise EstimationError("need at least two distinct nonzero transmittances")
    if cs.sum() == 0:
        # Zero clicks anywhere: the data are certain only for the vacuum.
        return _finish_estimate(2.0, 1.0, True, 0.0)
    if np.all(cs == ns):
        raise EstimationError("every setting always clicked: no finite likelihood maximum")

    jac = np.stack([eff * eff, 2.0 * eff], axis=1)  # du/d(a, b)
    q = (cs + 0.5) / (ns + 1.0)  # half a count keeps p_hat = 1 - q inside (0, 1)
    w = np.sqrt(ns * (1.0 - q) ** 5 / q)  # 1/sd of u_hat by the delta method
    u_hat = 4.0 * q * (2.0 - q) / (1.0 - q) ** 2  # 4/p_hat^2 - 4 without cancellation
    a, b = np.linalg.lstsq(jac * w[:, None], w * u_hat, rcond=None)[0]
    b = b if b > 0.0 else 1.0
    trace_p = 2.0 + _edge_max(lambda b: (-b, -1.0, 0.0), b, jac, ns, cs)
    trace_t = 2.0 + _edge_max(lambda b: (0.25 * b * b, 0.5 * b, 0.5), b, jac, ns, cs)
    candidates = [(trace_p, 1.0), (trace_t, 0.25 * trace_t * trace_t)]
    a, b = _interior_max(np.array([min(max(a, -b), 0.25 * b * b), b]), jac, ns, cs)
    if b > 0.0 and -b < a < 0.25 * b * b:
        candidates.append((2.0 + b, min(a + b + 1.0, 0.25 * (2.0 + b) * (2.0 + b))))
    scored = [(float(_loglike_arrays(t, d, eff, ns, cs)), -d, -t) for t, d in candidates]
    log_l, neg_det, neg_trace = max(scored)  # exact ties: smaller det, then smaller trace
    det_reliable = _det_slice_spread(data, eta_assumed, -neg_trace) >= FLATNESS_NATS
    return _finish_estimate(-neg_trace, -neg_det, det_reliable, log_l)


def classical_estimate(gain_min: float, gain_max: float) -> SqueezerParams:
    """Amplifier gains from classical probe (de)amplification measurements.

    g = sqrt(gain_max/gain_min), h = sqrt(gain_max*gain_min).
    """
    if gain_min <= 0.0 or gain_max <= 0.0:
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
    if vmin <= 0.0 or vmin * vmax < 1.0 - PHYS_TOL:
        raise UnphysicalStateError(
            f"loss correction gave unphysical variances ({vmin}, {vmax})"
        )
    return QuadratureVariances(vmin=vmin, vmax=vmax)


def estimate_eta(click_rates: list, rep_rate: float) -> float:
    """Overall detection efficiency from click rates at full transmittance.

    Least-squares fit of the single scale factor eta in
    rate = eta * rep_rate * ((h-1/2)(g+1/g) - 1)/2 across calibration
    points (rate, SqueezerParams).  Result clamped to (0, 1].
    """
    if not click_rates:
        raise EstimationError("no calibration points supplied")
    preds = np.array([expected_click_rate(p, 1.0, rep_rate) for _, p in click_rates])
    rates = np.array([r for r, _ in click_rates], dtype=float)
    if np.max(preds) <= 0.0:
        raise EstimationError("all calibration points are at vacuum gain; eta undetermined")
    eta = float(np.dot(rates, preds) / np.dot(preds, preds))
    return min(max(eta, 1e-12), 1.0)


def _mode_fit_table(samples, max_modes):
    """Weighted polynomial fits of 4/p^2 - 4 for each candidate mode count.

    Returns (z_scale, rows) with one row per candidate:
    (n_modes, degree, rss, chi2_per_dof).  samples are (eff_t, p) or
    (eff_t, p, sigma_p) tuples; when sigma_p is present the chi^2 uses
    the propagated error 8*sigma_p/p^3, otherwise the noise scale is
    taken from the highest-degree fit (with a floor so exact data pass).
    """
    if max_modes < 1:
        raise ValueError("max_modes must be >= 1")
    n = len(samples)
    if n < 2 * max_modes + 1:
        raise EstimationError(
            f"{n} samples cannot constrain {max_modes} modes (need {2 * max_modes + 1})"
        )
    t = np.array([s[0] for s in samples], dtype=float)
    p = np.array([s[1] for s in samples], dtype=float)
    if np.unique(t).size != n:
        raise EstimationError("effective transmittances must be distinct")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("no-click probabilities must lie in (0, 1]")
    has_sigma = all(len(s) >= 3 for s in samples)
    z = 4.0 / (p * p) - 4.0
    scale = float(np.max(np.abs(z)))
    if scale < 1e-12:
        return scale, []

    powers = t[:, None] ** np.arange(1, 2 * max_modes + 1)[None, :]
    if has_sigma:
        sigma_z = 8.0 * np.array([s[2] for s in samples], dtype=float) / p**3
        if np.any(sigma_z <= 0.0):
            raise ValueError("sigma_p values must be positive")
        noise_var = None
    else:
        sigma_z = None
        coef, *_ = np.linalg.lstsq(powers, z, rcond=None)
        rss_sat = float(np.sum((z - powers @ coef) ** 2))
        noise_var = max(rss_sat / (n - 2 * max_modes), (1e-10 * scale) ** 2)

    rows = []
    for m in range(1, max_modes + 1):
        cols = powers[:, : 2 * m]
        if has_sigma:
            coef, *_ = np.linalg.lstsq(cols / sigma_z[:, None], z / sigma_z, rcond=None)
            resid = (z - cols @ coef) / sigma_z
            rss = float(np.sum((z - cols @ coef) ** 2))
            chi2 = float(np.sum(resid * resid))
        else:
            coef, *_ = np.linalg.lstsq(cols, z, rcond=None)
            rss = float(np.sum((z - cols @ coef) ** 2))
            chi2 = rss / noise_var
        dof = n - 2 * m
        rows.append((m, 2 * m, rss, chi2 / dof))
    return scale, rows


def _mode_count(rows, max_modes):
    """Smallest mode count among _mode_fit_table rows with chi^2/dof < 2; 0 without rows."""
    if not rows:
        return 0
    for m, _deg, _rss, chi2_dof in rows:
        if chi2_dof < 2.0:
            return m
    raise EstimationError(
        f"no mode count up to {max_modes} fits the samples (min chi2/dof = "
        f"{min(r[3] for r in rows):.3g})"
    )


def mode_count_fit(samples: list, max_modes: int) -> int:
    """Smallest number of Gaussian modes consistent with P(eff_t) samples.

    For N modes, 1/P^2 is a polynomial of degree 2N in the effective
    transmittance with value 1 at zero; the fit therefore models
    4/p^2 - 4 without a constant term and returns the smallest N whose
    chi^2 per degree of freedom is below 2.  Identically-vacuum samples
    (p = 1 everywhere) return 0: no signal to fit.
    """
    return _mode_count(_mode_fit_table(samples, max_modes)[1], max_modes)
