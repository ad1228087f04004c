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
det is flagged unreliable when neither end of the admissible det interval
at the optimal trace lies FLATNESS_NATS below the maximum.  The solver
works on (R, S) blocks, R runs by S settings, and solves every row on its
own: ``run_ensemble`` hands it all its runs at once and gets, bit for bit,
what ``ml_estimate``, the same solver at R = 1, gives each run alone.

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
    _require_physical,
    _state_summary,
    check_physicality,
)
from .simulate import _ETA_FLOOR, expected_click_rate

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


@dataclass(frozen=True, kw_only=True)
class Estimate:
    """Recovered invariants plus the physical quantities they determine, in record order."""

    trace: float
    det: float
    det_reliable: bool
    vmin: float
    vmax: float
    purity: float
    g_max_bound: float
    h_max_bound: float
    log_likelihood_at_max: float


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
    u1, u2 = (4.0 * (1.0 - p) * (1.0 + p) / (p * p) for p in (p1, p2))
    # The second row times 2*t1/t2^2 makes the system symmetric.
    a, b = _solve2(t1 * t1, 2.0 * t1, 4.0 * t1 / t2, u1, 2.0 * t1 * u2 / (t2 * t2))
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


def _check_etas(etas):
    """Raise ValueError at the first assumed efficiency outside (0, 1] or below
    the efficiency floor, where the solver's arithmetic overflows."""
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta_assumed = {eta} outside (0, 1]")
        if eta < _ETA_FLOOR:
            raise ValueError(f"eta_assumed = {eta} below the efficiency floor {_ETA_FLOOR}")


def _setting_arrays(runs, etas):
    """(R, S) effective transmittance, trials and clicks of click-record lists:
    one row per run, settings last."""
    _check_etas(etas)
    eff = np.array([[eta * r.t_nominal for r in data] for data, eta in zip(runs, etas)], float)
    ns = np.array([[r.trials for r in data] for data in runs], float)
    cs = np.array([[r.clicks for r in data] for data in runs], float)
    return eff, ns, cs


def _setting_loglike(u, n, c, slopes=False):
    """Per-setting binomial log-likelihood as a function of the excess u >= 0.

    With s = sqrt(4 + u), P = 2/s = (1 + u/4)^(-1/2) and 1 - P = u/(s(s + 2)),
    so l = (n - c)*ln(P) + c*ln(1 - P) = -n*ln(1 + u/4)/2 + c*ln(u/(2s + 4)),
    accurate even when clicks are parts-per-million; u = 0 with clicks
    gives -inf (callers silence numpy's divide and invalid warnings).  With
    ``slopes`` returns dl/du and d2l/du2 instead, finite at u = 0 when c = 0.
    """
    s = np.sqrt(4.0 + u)
    if not slopes:
        click_term = np.where(c > 0, c * np.log(u / (2.0 * s + 4.0)), 0.0)
        return -0.5 * n * np.log1p(0.25 * u) + click_term
    r = np.where(c > 0, (s + 2.0) / (s * u), 0.0)  # = 1/(s(s - 2))
    w, s2 = c * r, s * s
    return 0.5 * (w - n / s2), 0.5 * (n / (s2 * s2) - w * (s - 1.0) * r / s)


@np.errstate(divide="ignore", invalid="ignore")
def _loglike(trace, det, eff, n, c):
    """Log-likelihood summed over settings, the last axis; trace and det broadcast
    against eff, n and c, so they carry a trailing length-1 axis when not scalar."""
    return _setting_loglike(np.maximum(_bs_gram_excess(trace, det, eff), 0.0), n, c).sum(-1)


def log_likelihood(trace: float, det: float, data: list, eta_assumed: float) -> float:
    """Log-likelihood of the click records at the given invariants.

    Sum over settings of (trials - clicks)*ln(P) + clicks*ln(1 - P) with
    P the no-click probability at effective transmittance
    eta_assumed * t_nominal.  P = 1 with zero clicks contributes nothing;
    P = 1 with clicks present returns -inf.
    """
    if not data:
        raise EstimationError("no click records supplied")
    eff, ns, cs = _setting_arrays([data], [eta_assumed])
    _require_physical(trace, det)
    return float(_loglike(trace, det, eff, ns, cs)[0])


def likelihood_grid(data, eta_assumed, trace_axis, det_axis) -> LikelihoodGrid:
    """Evaluate the log-likelihood on a rectangular grid of invariants.

    Grid cells violating 1 <= det <= (trace/2)^2 are marked excluded and
    set to -inf.
    """
    trace_axis = np.asarray(trace_axis, dtype=float)
    det_axis = np.asarray(det_axis, dtype=float)
    tr = trace_axis[:, None]
    dt = det_axis[None, :]
    excluded = ~check_physicality(tr, dt)
    log_l = _loglike(tr[..., None], dt[..., None], *_setting_arrays([data], [eta_assumed]))
    log_l = np.where(excluded, -np.inf, log_l)
    return LikelihoodGrid(trace_axis, det_axis, log_l, excluded)


def _solve2(h11, h12, h22, g1, g2):
    """Solution of the symmetric 2x2 systems [[h11, h12], [h12, h22]] x = g, row by row."""
    d = h11 * h22 - h12 * h12
    return (h22 * g1 - h12 * g2) / d, (h11 * g2 - h12 * g1) / d


def _edge_max(b, kappa, lam, e2, e1, ns, cs):
    """Newton maximizer in b > 0 along the edge a = kappa*b^2 + lam*b of each row,
    kept inside a bracket on the sign of the slope, which is +inf at b = 0."""
    lo, hi, done = np.zeros_like(b), np.full_like(b, np.inf), np.zeros(b.size, dtype=bool)
    two_kappa = 2.0 * kappa
    for _ in range(400):
        u = e2 * ((kappa * b + lam) * b)[:, None] + e1 * b[:, None]
        d1, d2 = _setting_loglike(u, ns, cs, slopes=True)
        du = e2 * (two_kappa * b + lam)[:, None] + e1
        g = (d1 * du).sum(-1)
        h = (d2 * du * du).sum(-1) + two_kappa * (d1 * e2).sum(-1)
        up = g > 0.0
        lo, hi = np.where(up, b, lo), np.where(up, hi, b)
        step = np.where(h < 0.0, -g / h, np.inf)
        new = b + step
        new = np.where((lo < new) & (new < hi), new, np.minimum(0.5 * (lo + hi), 2.0 * b))
        done |= np.fmin(np.abs(step), hi - lo) <= 4e-16 * b
        b = np.where(done, b, new)  # finished rows keep their b
        if done.all():
            break
    return b


def _interior_max(a, b, e2, e1, ns, cs):
    """Damped Newton ascent in (a, b) of each row where every informative u > 0.

    Each setting enters the Hessian as -|d2l/du2|, so every step is an ascent
    direction.  A row stops for good once the predicted gain grad.step is down
    to the rounding of its log-likelihood, or when 40 halvings of the step
    never raise the log-likelihood.
    """
    floor = np.where(e1 > 0.0, 0.0, -1.0)  # u > floor: u > 0 wherever the setting counts
    e22, e21, e11 = e2 * e2, e2 * e1, e1 * e1
    u = e2 * a[:, None] + e1 * b[:, None]
    value = _setting_loglike(u, ns, cs).sum(-1)
    moving = np.ones(a.size, dtype=bool)
    for _ in range(100):
        d1, d2 = _setting_loglike(u, ns, cs, slopes=True)
        d2 = np.abs(d2)
        ga, gb = (e2 * d1).sum(-1), (e1 * d1).sum(-1)
        sa, sb = _solve2((e22 * d2).sum(-1), (e21 * d2).sum(-1), (e11 * d2).sum(-1), ga, gb)
        pending = moving & (ga * sa + gb * sb > 1e-10 + 1e-15 * np.abs(value))
        moving = np.zeros(a.size, dtype=bool)
        for k in range(40):  # halve each pending step until the log-likelihood rises
            if not pending.any():
                break
            ta, tb = a + 0.5**k * sa, b + 0.5**k * sb
            ut = e2 * ta[:, None] + e1 * tb[:, None]
            trial = _setting_loglike(ut, ns, cs).sum(-1)
            ok = pending & (ut > floor).all(-1) & (trial > value)
            a, b, value = np.where(ok, ta, a), np.where(ok, tb, b), np.where(ok, trial, value)
            u = np.where(ok[:, None], ut, u)
            moving, pending = moving | ok, pending & ~ok
        if not moving.any():
            break
    return a, b


@np.errstate(divide="ignore", invalid="ignore")
def _ml_solve(eff, ns, cs):
    """Maximum-likelihood (trace, det, det_reliable, log-likelihood) arrays for R runs.

    eff, ns and cs are (R, S) float arrays of effective transmittance
    (assumed efficiency times nominal transmittance), trials and clicks, one
    row per run.  Every row is solved on its own: converged rows are frozen
    by masks, every sum runs over the last (settings) axis and no matrix
    product is used, so a run gets the same bits in any batch as alone.
    See ml_estimate for the method and the errors.
    """
    lo = np.min(np.where(eff > 0.0, eff, np.inf), axis=-1, initial=np.inf)
    clicked = cs.sum(-1) > 0
    checks = (
        ((ns == 0).any(-1), "a setting has zero trials"),
        (((eff == 0.0) & (cs > 0)).any(-1),
         "clicks recorded at zero transmittance, where P(click) = 0"),
        (~(lo < np.max(eff, axis=-1, initial=0.0)),
         "need at least two distinct nonzero transmittances"),
        (((cs == ns) | (eff == 0.0)).all(-1) & clicked,
         "every setting always clicked: no finite likelihood maximum"),
    )
    failed = np.array([f for f, _ in checks])
    if failed.any():  # the first failing run, with its first failing check
        raise EstimationError(checks[int(failed[:, failed.any(0).argmax()].argmax())][1])

    # Zero clicks anywhere: the data are certain only for the vacuum.
    n_runs = eff.shape[0]
    trace, det, log_l = np.full(n_runs, 2.0), np.ones(n_runs), np.zeros(n_runs)
    reliable = np.ones(n_runs, dtype=bool)
    live = np.flatnonzero(clicked)
    eff, ns, cs = eff[live], ns[live], cs[live]
    e2, e1 = eff * eff, 2.0 * eff  # du/da, du/db

    q = (cs + 0.5) / (ns + 1.0)  # half a count keeps p_hat = 1 - q inside (0, 1)
    w = ns * (1.0 - q) ** 5 / q  # 1/variance of u_hat by the delta method
    u_hat = 4.0 * q * (2.0 - q) / (1.0 - q) ** 2  # 4/p_hat^2 - 4 without cancellation
    we2, we1 = w * e2, w * e1
    a, b = _solve2(*(x.sum(-1) for x in (we2 * e2, we2 * e1, we1 * e1, we2 * u_hat, we1 * u_hat)))
    b = np.where(b > 0.0, b, 1.0)
    # One Newton loop for the pure edge a = -b (det = 1) and the thermal edge
    # a = b^2/4 (det = (trace/2)^2): 2 rows per run.
    b_pure, b_thermal = _edge_max(np.tile(b, 2), np.repeat([0.0, 0.25], live.size),
                                  np.repeat([-1.0, 0.0], live.size),
                                  *(np.tile(x, (2, 1)) for x in (e2, e1, ns, cs))).reshape(2, -1)
    a, b = _interior_max(np.minimum(np.maximum(a, -b), 0.25 * b * b), b, e2, e1, ns, cs)
    cand_t = 2.0 + np.stack([b_pure, b_thermal, b], axis=-1)
    cand_d = np.stack([np.ones(live.size), 0.25 * cand_t[:, 1] * cand_t[:, 1],
                       np.minimum(a + b + 1.0, 0.25 * cand_t[:, 2] * cand_t[:, 2])], axis=-1)
    scores = _loglike(cand_t[..., None], cand_d[..., None], eff[:, None], ns[:, None], cs[:, None])
    scores[:, 2] = np.where((b > 0.0) & (-b < a) & (a < 0.25 * b * b), scores[:, 2], -np.inf)
    # The most likely candidate; exact ties go to the smaller det, then the smaller trace.
    pick = np.arange(live.size), np.lexsort((cand_t, cand_d, -scores), axis=-1)[:, 0]
    best = cand_t[pick]
    trace[live], det[live], log_l[live] = best, cand_d[pick], scores[pick]

    # det is unreliable when the log-likelihood barely moves along the admissible
    # det interval [1, (trace/2)^2] at the optimal trace.  Its maximum there is
    # log_l, as the ML point lies on it; its minimum is at an end in practice.
    top = 0.25 * best * best
    ends = _loglike(best[:, None, None], np.stack([np.ones(live.size), top], -1)[..., None],
                    eff[:, None], ns[:, None], cs[:, None])
    pinned = top - 1.0 < 1e-9  # det is fixed by the constraints
    reliable[live] = pinned | (log_l[live] - ends.min(-1) >= FLATNESS_NATS)
    if not np.isfinite([trace, det, log_l]).all():
        raise EstimationError("the likelihood maximum is not finite at this efficiency")
    return trace, det, reliable, log_l


def ml_estimate(data: list, eta_assumed: float) -> Estimate:
    """Constrained maximum-likelihood estimate of (trace, det).

    In a = det - trace + 1, b = trace - 2 each setting's u = 4/P^2 - 4 =
    t^2*a + 2*t*b is linear; the physical region is b >= 0, -b <= a <= b^2/4.
    Candidates: damped 2-D Newton from a weighted least-squares fit to
    u_hat = 4/p_hat^2 - 4, stopped once its predicted gain is down to the
    rounding of the log-likelihood and kept if it ends inside; 1-D Newton
    on the pure edge det = 1 (a = -b) and the thermal edge det = (trace/2)^2
    (a = b^2/4), one loop over a = kappa*b^2 + lambda*b for both, det set
    exactly; the vacuum corner when there are no clicks.  The most likely
    wins; exact ties prefer the smaller det (the more conservative,
    closer-to-pure claim).  This is the batched solver at R = 1.

    det_reliable is False when, at the optimal trace, both ends of the
    admissible det interval [1, (trace/2)^2] lie less than FLATNESS_NATS
    below the maximum, which lies on that slice; its lowest point is at an
    end in practice (no table checked had a lower interior point).  A
    pinned interval (trace = 2) counts as reliable.  EstimationError: no
    data, a zero-trial setting, fewer than two distinct nonzero
    transmittances, clicks at zero transmittance, or clicks == trials at
    every setting (no finite maximum).
    """
    solved = _ml_solve(*_setting_arrays([data], [eta_assumed]))
    trace, det, reliable, log_l = (x.item() for x in solved)
    return Estimate(trace=trace, det=det, det_reliable=reliable, **_state_summary(trace, det),
                    log_likelihood_at_max=log_l)


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
    return min(max(eta, _ETA_FLOOR), 1.0)


def _mode_fit_table(samples, max_modes):
    """Weighted polynomial fits of 4/p^2 - 4 for each candidate mode count.

    Returns one row per candidate mode count, (n_modes, degree, rss,
    chi2_per_dof), and no rows for vacuum samples.  samples are (eff_t, p) or
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
        return []

    powers = t[:, None] ** np.arange(1, 2 * max_modes + 1)[None, :]
    sigma_z = np.ones(n)
    if has_sigma:
        sigma_z = 8.0 * np.array([s[2] for s in samples], dtype=float) / p**3
        if np.any(sigma_z <= 0.0):
            raise ValueError("sigma_p values must be positive")
    fits = []  # (rss, chi^2 before the noise scale) per mode count
    for m in range(1, max_modes + 1):
        cols = powers[:, : 2 * m]
        coef, *_ = np.linalg.lstsq(cols / sigma_z[:, None], z / sigma_z, rcond=None)
        resid = z - cols @ coef
        fits.append((float(np.sum(resid**2)), float(np.sum((resid / sigma_z) ** 2))))
    # Without sigmas the noise scale comes from the highest-degree fit, the last one.
    noise_var = 1.0 if has_sigma else max(fits[-1][0] / (n - 2 * max_modes), (1e-10 * scale) ** 2)
    return [(m, 2 * m, rss, chi2 / noise_var / (n - 2 * m))
            for m, (rss, chi2) in enumerate(fits, start=1)]


def mode_count_fit(samples: list, max_modes: int) -> tuple[list, int]:
    """Smallest number of Gaussian modes consistent with P(eff_t) samples.

    For N modes, 1/P^2 is a polynomial of degree 2N in the effective
    transmittance with value 1 at zero; the fit therefore models
    4/p^2 - 4 without a constant term and picks the smallest N whose
    chi^2 per degree of freedom is below 2.  Returns the fit rows, one
    (n_modes, degree, rss, chi2_per_dof) per candidate N, and that N.
    Identically-vacuum samples (p = 1 everywhere) give no rows and N = 0:
    no signal to fit.
    """
    rows = _mode_fit_table(samples, max_modes)
    if not rows:
        return rows, 0
    for m, _deg, _rss, chi2_dof in rows:
        if chi2_dof < 2.0:
            return rows, m
    raise EstimationError(
        f"no mode count up to {max_modes} fits the samples (min chi2/dof = "
        f"{min(r[3] for r in rows):.3g})"
    )
