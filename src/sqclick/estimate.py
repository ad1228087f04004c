"""Maximum-likelihood inference of the covariance-matrix invariants from click tables.

``ml_estimate`` uses every setting through a binomial likelihood
maximized exactly over the physical region 1 <= det <= (trace/2)^2: in
a = det - trace + 1, b = trace - 2 each 4/P^2 - 4 is linear, Newton's
method finds the interior, pure-edge and thermal-edge maxima, the best
wins (exact ties go to the smaller det), and det is flagged unreliable
when neither end of the admissible det interval at the optimal trace
lies FLATNESS_NATS below the maximum.  The solver works on (R, S)
blocks, R runs by S settings, and solves every row on its own:
``run_ensemble`` hands it all its runs at once and gets, bit for bit,
what ``ml_estimate``, the same solver at R = 1, gives each run alone.

The closed forms live in ``gaussian``: the exact two-point inversion
(re-exported here as ``invert_two_point``, its old import path), its
``sensitivity``, the reference estimators and the efficiency calibration.
``Estimate`` is a NamedTuple, so this module loads no ``dataclasses``.
"""

from typing import NamedTuple

import numpy as np

from .gaussian import (  # noqa: F401  (invert_two_point: the old import path)
    EstimationError,
    _ETA_FLOOR,
    _bs_gram_excess,
    _require_physical,
    _solve2,
    _state_summary,
    check_physicality,
    invert_two_point,
)

# Log-likelihood range along the determinant direction below which the
# determinant estimate carries no information.  Even perfectly
# uninformative data produce a max-min spread of order 1 nat from score
# fluctuations alone, while informative data sit orders of magnitude
# higher (tens of nats upward), so 3 nats splits the regimes cleanly.
FLATNESS_NATS = 3.0


class Estimate(NamedTuple):
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
    if not all(runs):
        raise EstimationError("no click records supplied")
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
    eff, ns, cs = _setting_arrays([data], [eta_assumed])
    _require_physical(trace, det)
    return float(_loglike(trace, det, eff, ns, cs)[0])


def likelihood_grid(data, eta_assumed, trace_axis, det_axis) -> np.ndarray:
    """Evaluate the log-likelihood on a rectangular grid of invariants.

    Returns the array of shape (len(trace_axis), len(det_axis)) whose cell
    [i, j] is log_likelihood(trace_axis[i], det_axis[j], data, eta_assumed);
    cells outside 1 <= det <= (trace/2)^2 hold -inf.
    """
    tr = np.asarray(trace_axis, dtype=float)[:, None]
    dt = np.asarray(det_axis, dtype=float)[None, :]
    log_l = _loglike(tr[..., None], dt[..., None], *_setting_arrays([data], [eta_assumed]))
    return np.where(check_physicality(tr, dt), log_l, -np.inf)


def _edge_max(b, kappa, lam, e2, e1, ns, cs):
    """Newton maximizer in b > 0 along the edge a = kappa*b^2 + lam*b of each row,
    kept inside a bracket on the sign of the slope, which is +inf at b = 0.  b has a
    row of starts per edge, kappa and lam a (1,)-row each.  A row stops after an
    in-bracket step of at most 1e-9*b, leaving an error of order step^2, or keeps
    its b once the step or the bracket is down to the rounding of b."""
    lo, hi, done = np.zeros_like(b), np.full_like(b, np.inf), np.zeros(b.shape, dtype=bool)
    two_kappa = 2.0 * kappa
    for _ in range(400):
        u = e2 * ((kappa * b + lam) * b)[..., None] + e1 * b[..., None]
        d1, d2 = _setting_loglike(u, ns, cs, slopes=True)
        du = e2 * (two_kappa * b + lam)[..., None] + e1
        g = (d1 * du).sum(-1)
        h = (d2 * du * du).sum(-1) + two_kappa * (d1 * e2).sum(-1)
        up = g > 0.0
        lo, hi = np.where(up, b, lo), np.where(up, hi, b)
        step = np.where(h < 0.0, -g / h, np.inf)
        new = b + step
        inside = (lo < new) & (new < hi)
        new = np.where(inside, new, np.minimum(0.5 * (lo + hi), 2.0 * b))
        rounded = np.fmin(np.abs(step), hi - lo) <= 4e-16 * b
        converged = inside & (np.abs(step) <= 1e-9 * b)
        b = np.where(done | rounded, b, new)  # finished rows keep their b
        done |= rounded | converged
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
    p = 1.0 - q
    w = ns * p**5 / q  # 1/variance of u_hat by the delta method
    u_hat = 4.0 * q * (2.0 - q) / p**2  # 4/p_hat^2 - 4 without cancellation
    s22, s21, s11, g2, g1 = (x.sum(-1) for x in (w * e2 * e2, w * e2 * e1, w * e1 * e1,
                                                  w * e2 * u_hat, w * e1 * u_hat))
    a, b = _solve2(s22, s21, s11, g2, g1)
    finite = np.isfinite(a) & np.isfinite(b)  # a singular fit starts from (0, 1)
    a, b = np.where(finite, a, 0.0), np.where(finite & (b > 0.0), b, 1.0)
    # One Newton loop for the pure edge a = -b (det = 1) and the thermal edge
    # a = b^2/4 (det = (trace/2)^2), each from its own weighted fit.  On the pure
    # edge u = b*(e1 - e2), a ratio of the sums above.  On the thermal edge
    # sqrt(4 + u) = 2 + eff*b/2, so each setting gives b_i = 4q/((1 - q)*eff),
    # averaged with inverse-variance weights n*eff^2*(1 - q)^3/q.
    starts = np.stack([(g1 - g2) / (s11 - 2.0 * s21 + s22),
                       (4.0 * ns * eff * p * p).sum(-1) / (ns * e2 * p * p * p / q).sum(-1)])
    b_pure, b_thermal = _edge_max(np.where((0.0 < starts) & (starts < np.inf), starts, b),
                                  np.array([[0.0], [0.25]]), np.array([[-1.0], [0.0]]),
                                  e2, e1, ns, cs)
    a, b = _interior_max(np.minimum(np.maximum(a, -b), 0.25 * b * b), b, e2, e1, ns, cs)
    cand_t = 2.0 + np.stack([b_pure, b_thermal, b], axis=-1)
    top = 0.25 * cand_t * cand_t
    cand_d = np.stack([np.ones(live.size), top[:, 1], np.minimum(a + b + 1.0, top[:, 2])], -1)
    scores = _loglike(cand_t[..., None], cand_d[..., None], eff[:, None], ns[:, None], cs[:, None])
    scores[:, 2] = np.where((b > 0.0) & (-b < a) & (a < 0.25 * b * b), scores[:, 2], -np.inf)
    # The most likely candidate; exact ties go to the smaller det, then the smaller trace.
    rows, k = np.arange(live.size), np.lexsort((cand_t, cand_d, -scores), axis=-1)[:, 0]
    best, top = cand_t[rows, k], top[rows, k]
    trace[live], det[live], log_l[live] = best, cand_d[rows, k], scores[rows, k]

    # det is unreliable when the log-likelihood barely moves along the admissible
    # det interval [1, (trace/2)^2] at the optimal trace.  Its maximum there is
    # log_l, as the ML point lies on it; its minimum is at an end in practice.
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
