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
what ``ml_estimate`` gives each run alone: one table, read once into
lists, is one pass on Python floats (``_ml_row``), where numpy's per-call
cost on length-S arrays would dominate.  It makes the batched solver's +,
-, *, / and sqrt in the batched order, which IEEE 754 rounds alike in
Python and numpy.  numpy stays where Python's math module need not round
alike: log and log1p, p**5, exp and expm1 of the dark mean, and each group
of sums over settings, one reduction as in the batched solver.

The closed forms live in ``gaussian``: the exact two-point inversion
(re-exported here as ``invert_two_point``, its old import path), its
``sensitivity``, the reference estimators and the efficiency calibration.
``Estimate`` is a NamedTuple, so this module loads no ``dataclasses``.
"""

import math
from typing import NamedTuple

import numpy as np

from .gaussian import (  # noqa: F401  (invert_two_point: the old import path)
    EstimationError,
    _ETA_FLOOR,
    _bs_gram_excess,
    _dark_terms,
    _div,
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

# The solver's refusals, in the order it checks each run, then its last check.
_CHECKS = ("a setting has zero trials", "clicks recorded at zero transmittance, where P(click) = 0",
           "need at least two distinct nonzero transmittances",
           "every setting always clicked: no finite likelihood maximum")
_NOT_FINITE = "the likelihood maximum is not finite at this efficiency"


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


def _setting_row(data, eta):
    """Effective transmittance, trials and clicks of one run's click records, any
    iterable read once, as three lists of floats over settings."""
    records = list(data)
    if not records:
        raise EstimationError("no click records supplied")
    _check_etas([eta])
    return ([float(eta * r.t_nominal) for r in records], [float(r.trials) for r in records],
            [float(r.clicks) for r in records])


def _setting_arrays(runs, etas):
    """(R, S) effective transmittance, trials and clicks of the runs' click records:
    ``_setting_row`` of each run, one row per run, settings last."""
    return tuple(np.array(x, float) for x in zip(*map(_setting_row, runs, etas)))


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


def _setting_slopes(u, n, c):
    """``_setting_loglike(u, n, c, slopes=True)`` of one setting on Python floats: the
    same operations in the same order, each rounded as numpy rounds it.  Callers take
    it at u >= -1, where sqrt(4 + u) is real and no divisor but s*u can be zero."""
    s = math.sqrt(4.0 + u)
    r = _div(s + 2.0, s * u) if c > 0 else 0.0
    w, s2 = c * r, s * s
    return 0.5 * (w - n / s2), 0.5 * (n / (s2 * s2) - w * (s - 1.0) * r / s)


@np.errstate(divide="ignore", invalid="ignore")
def _loglike(trace, det, eff, n, c, k=1.0, e0=0.0):
    """Log-likelihood summed over settings, the last axis; trace and det broadcast
    against eff, n and c, so they carry a trailing length-1 axis when not scalar."""
    u = k * np.maximum(_bs_gram_excess(trace, det, eff), 0.0) + e0  # u' with dark counts
    return _setting_loglike(u, n, c).sum(-1)


@np.errstate(divide="ignore", invalid="ignore")
def log_likelihood(trace: float, det: float, data: list, eta_assumed: float) -> float:
    """Log-likelihood of the click records, any iterable, at the given invariants.

    Sum over settings of (trials - clicks)*ln(P) + clicks*ln(1 - P) with
    P the no-click probability at effective transmittance
    eta_assumed * t_nominal.  P = 1 with zero clicks contributes nothing;
    P = 1 with clicks present returns -inf.  One point on the float path's kernel.
    """
    eff, ns, cs = _setting_row(data, eta_assumed)
    _require_physical(trace, det)
    return _row_scores([trace], [det], eff, ns, cs)[0]


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


def _edge_max(b, kappa, lam, e2, e1, e0, ns, cs):
    """Newton maximizer in b > 0 along the edge a = kappa*b^2 + lam*b of each row,
    kept inside a bracket on the sign of the slope (+inf at b = 0 without dark counts).
    b has a row of starts per edge, kappa and lam a (1,)-row each.  A row stops after
    an in-bracket step of at most 1e-9*b, leaving an error of order step^2, or keeps its
    b once the step or the bracket is down to the rounding of b or of trace = 2 + b.
    This numpy loop serves blocks of R > 1 rows; a one-row solve calls its twin
    ``_edge_row`` on Python floats, with the same bits, from ``_ml_row``."""
    lo, hi, done = np.zeros_like(b), np.full_like(b, np.inf), np.zeros(b.shape, dtype=bool)
    two_kappa = 2.0 * kappa
    for _ in range(400):
        u = e2 * ((kappa * b + lam) * b)[..., None] + e1 * b[..., None] + e0
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
        done |= rounded | converged | (2.0 + hi == 2.0)
        if done.all():
            break
    return b


def _edge_row(b, kappa, lam, e2, e1, e0, ns, cs):
    """``_edge_max`` of one edge of one row, on Python floats and lists over settings.

    Every +, -, *, / and sqrt is the batched loop's, in its order, and IEEE 754
    rounds each alike in Python and numpy; each pass's three sums over settings
    are one numpy reduction, so they keep numpy's pairwise order.  np.minimum's
    and np.fmin's NaN rules are spelled out.  The edge returns once it is done,
    where the batched loop freezes its b.  Here u >= e0 >= 0, as b > 0."""
    lo, hi = 0.0, math.inf
    two_kappa = 2.0 * kappa
    for _ in range(400):
        x, y = (kappa * b + lam) * b, two_kappa * b + lam
        terms = [], [], []
        for e2i, e1i, n, c in zip(e2, e1, ns, cs):
            d1, d2 = _setting_slopes(e2i * x + e1i * b + e0, n, c)
            du = e2i * y + e1i
            terms[0].append(d1 * du)
            terms[1].append(d2 * du * du)
            terms[2].append(d1 * e2i)
        g, h, h_kappa = np.add.reduce(np.array(terms), -1).tolist()
        h += two_kappa * h_kappa
        if g > 0.0:
            lo = b
        else:
            hi = b
        step = -g / h if h < 0.0 else math.inf
        new = b + step
        inside = lo < new < hi
        if not inside:
            mid, double = 0.5 * (lo + hi), 2.0 * b
            new = mid if mid <= double or mid != mid else double  # np.minimum
        bracket = hi - lo
        if (abs(step) if bracket != bracket or abs(step) <= bracket else bracket) <= 4e-16 * b:
            return b  # np.fmin above: the step or the bracket rounds away
        if inside and abs(step) <= 1e-9 * b or 2.0 + hi == 2.0:
            return new
        b = new
    return b


def _interior_max(a, b, e2, e1, e0, ns, cs):
    """Damped Newton ascent in (a, b) of each row where every informative u > e0.

    Each setting enters the Hessian as -|d2l/du2|, so every step is an ascent
    direction.  A row stops for good once the predicted gain grad.step is down
    to the rounding of its log-likelihood, once an accepted step gained no
    more than that rounding (a step cut short by the floor, which touches the
    physical region only at the vacuum corner, an edge candidate already), or
    when 40 halvings of the step never raise the log-likelihood.  A halving whose
    trial crosses the floor in every pending row skips the kernel.  This numpy
    loop serves blocks of R > 1 rows; a one-row solve calls its twin
    ``_interior_row`` on Python floats, with the same bits, from ``_ml_row``.
    """
    floor = np.where(e1 > 0.0, e0, -1.0)  # u > floor: u > e0 wherever the setting counts
    e22, e21, e11 = e2 * e2, e2 * e1, e1 * e1
    u = e2 * a[:, None] + e1 * b[:, None] + e0
    value = _setting_loglike(u, ns, cs).sum(-1)
    moving = np.ones(a.size, dtype=bool)
    for _ in range(100):
        d1, d2 = _setting_loglike(u, ns, cs, slopes=True)
        d2 = np.abs(d2)
        ga, gb = (e2 * d1).sum(-1), (e1 * d1).sum(-1)
        sa, sb = _solve2((e22 * d2).sum(-1), (e21 * d2).sum(-1), (e11 * d2).sum(-1), ga, gb)
        tol = 1e-10 + 1e-15 * np.abs(value)
        pending = moving & (ga * sa + gb * sb > tol)
        moving = np.zeros(a.size, dtype=bool)
        for k in range(40):  # halve each pending step until the log-likelihood rises
            if not pending.any():
                break
            ta, tb = a + 0.5**k * sa, b + 0.5**k * sb
            ut = e2 * ta[:, None] + e1 * tb[:, None] + e0
            clear = pending & (ut > floor).all(-1)
            if not clear.any():  # no trial can be accepted
                continue
            trial = _setting_loglike(ut, ns, cs).sum(-1)
            ok = clear & (trial > value)
            gained = ok & (trial - value > tol)
            a, b, value = np.where(ok, ta, a), np.where(ok, tb, b), np.where(ok, trial, value)
            u = np.where(ok[:, None], ut, u)
            moving, pending = moving | gained, pending & ~ok
        if not moving.any():
            break
    return a, b


def _interior_row(a, b, e2, e1, e0, ns, cs):
    """``_interior_max`` of one row on Python floats and lists over settings, as
    ``_edge_row`` is: each pass's five sums are one numpy reduction, the 2x2 solve
    divides as numpy does, and every log-likelihood value is ``_row_loglikes``'.  A
    slope is taken at the start, inside the physical region, or at an accepted
    u > floor >= -1."""
    coef = np.array([e2, e1, [x * x for x in e2], [x * y for x, y in zip(e2, e1)],
                     [y * y for y in e1]])
    floor = [e0 if e1i > 0.0 else -1.0 for e1i in e1]
    u = [e2i * a + e1i * b + e0 for e2i, e1i in zip(e2, e1)]
    value = _row_loglikes([u], ns, cs)[0]
    for _ in range(100):
        d1, d2 = zip(*map(_setting_slopes, u, ns, cs))
        d2 = [abs(x) for x in d2]
        ga, gb, h22, h21, h11 = np.add.reduce(coef * np.array((d1, d1, d2, d2, d2)), -1).tolist()
        sa, sb = _solve2(h22, h21, h11, ga, gb)
        tol = 1e-10 + 1e-15 * abs(value)
        if not ga * sa + gb * sb > tol:
            break
        for k in range(40):  # halve the step until the log-likelihood rises
            ta, tb = a + 0.5**k * sa, b + 0.5**k * sb
            ut = [e2i * ta + e1i * tb + e0 for e2i, e1i in zip(e2, e1)]
            if all(x > f for x, f in zip(ut, floor)):
                trial = _row_loglikes([ut], ns, cs)[0]
                if trial > value:
                    break
        else:
            break
        gained = trial - value > tol
        a, b, value, u = ta, tb, trial, ut
        if not gained:
            break
    return a, b


def _row_loglikes(us, ns, cs):
    """``_setting_loglike(u, ns, cs).sum(-1)`` of each row u of ``us``, one row's
    settings on Python lists: sqrt, the divisions and the products on floats, which
    IEEE 754 rounds as numpy does, and one np.log, one np.log1p and one reduction
    for all rows, which Python's math module need not round alike.  u > -1."""
    logs = np.log([[u / (2.0 * math.sqrt(4.0 + u) + 4.0) for u in row] for row in us]).tolist()
    log1ps = np.log1p([[0.25 * u for u in row] for row in us]).tolist()
    return np.add.reduce(np.array([[-0.5 * n * l1 + (c * lg if c > 0 else 0.0)
                                    for n, c, lg, l1 in zip(ns, cs, lgs, l1s)]
                                   for lgs, l1s in zip(logs, log1ps)]), -1).tolist()


def _row_scores(traces, dets, eff, ns, cs, scale=1.0, e0=0.0):
    """``_loglike`` of one row at each (trace, det), on lists; max keeps a NaN, as np.maximum."""
    return _row_loglikes([[scale * max(_bs_gram_excess(t, d, e), 0.0) + e0 for e in eff]
                          for t, d in zip(traces, dets)], ns, cs)


@np.errstate(divide="ignore", invalid="ignore")
def _ml_solve(eff, ns, cs, dark=0.0):
    """Maximum-likelihood (trace, det, det_reliable, log-likelihood) arrays for R runs.

    eff, ns and cs are (R, S) float arrays of effective transmittance
    (assumed efficiency times nominal transmittance), trials and clicks, one
    row per run, and ``dark`` the dark mean per pulse, fitted as the scale and
    offset of u that ``_dark_terms`` gives.  Every row is solved on its own:
    converged rows are frozen by masks, every sum runs over the last (settings)
    axis and no matrix product is used, so a run gets the same bits in any
    batch as alone.  A one-row block, as ``run_ensemble(n_runs=1)`` gives, is
    ``_ml_row``'s; the row count alone chooses.
    See ml_estimate for the method and the errors.
    """
    if eff.shape[0] == 1:
        return tuple(np.array([x]) for x in _ml_row(*(x[0].tolist() for x in (eff, ns, cs)), dark))
    lo = np.min(np.where(eff > 0.0, eff, np.inf), axis=-1, initial=np.inf)
    clicked = ((cs > 0) & (eff > 0.0)).any(-1)  # clicks that light can explain
    failed = np.array([(ns == 0).any(-1), ((eff == 0.0) & (cs > 0)).any(-1) & (dark == 0.0),
                       ~(lo < np.max(eff, axis=-1, initial=0.0)),
                       ((cs == ns) | (eff == 0.0)).all(-1) & clicked])
    if failed.any():  # the first failing run, with its first failing check
        raise EstimationError(_CHECKS[int(failed[:, failed.any(0).argmax()].argmax())])

    # No clicks where light reaches: the data are certain only for the vacuum (u' = e0).
    scale, e0 = _dark_terms(dark)
    n_runs = eff.shape[0]
    trace, det, log_l = np.full(n_runs, 2.0), np.ones(n_runs), np.zeros(n_runs)
    reliable = np.ones(n_runs, dtype=bool)
    if not clicked.all():
        log_l[~clicked] = _setting_loglike(e0, ns[~clicked], cs[~clicked]).sum(-1)
    live = np.flatnonzero(clicked)
    eff, ns, cs = eff[live], ns[live], cs[live]
    e2, e1 = scale * eff * eff, scale * 2.0 * eff  # du'/da, du'/db

    q = (cs + 0.5) / (ns + 1.0)  # half a count keeps p_hat = 1 - q inside (0, 1)
    p = 1.0 - q
    w = ns * p**5 / q  # 1/variance of u_hat by the delta method
    u_hat = 4.0 * q * (2.0 - q) / p**2 - e0  # 4/p_hat^2 - 4 without cancellation, less e0
    s22, s21, s11, g2, g1 = (x.sum(-1) for x in (w * e2 * e2, w * e2 * e1, w * e1 * e1,
                                                  w * e2 * u_hat, w * e1 * u_hat))
    a, b = _solve2(s22, s21, s11, g2, g1)
    finite = np.isfinite(a) & np.isfinite(b)  # a singular fit starts from (0, 1)
    a, b = np.where(finite, a, 0.0), np.where(finite & (b > 0.0), b, 1.0)
    # One Newton loop for the pure edge a = -b (det = 1) and the thermal edge
    # a = b^2/4 (det = (trace/2)^2), each from its own weighted fit.  On the pure
    # edge u = b*(e1 - e2), a ratio of the sums above.  On the thermal edge
    # sqrt(4 + u) = 2 + eff*b/2; with the light-only no-click pl = p*e^dark, ql = 1 - pl,
    # each setting gives b_i = 4ql/(pl*eff), weighted by n*(e2/scale)*pl^3/ql.
    pl, ql = p * np.exp(dark), q - p * np.expm1(dark)
    thermal = scale * (4.0 * ns * eff * pl * pl).sum(-1) / (ns * e2 * pl * pl * pl / ql).sum(-1)
    starts = np.stack([(g1 - g2) / (s11 - 2.0 * s21 + s22), thermal])
    b_pure, b_thermal = _edge_max(np.where((0.0 < starts) & (starts < np.inf), starts, b),
                                  np.array([[0.0], [0.25]]), np.array([[-1.0], [0.0]]),
                                  e2, e1, e0, ns, cs)
    a, b = _interior_max(np.minimum(np.maximum(a, -b), 0.25 * b * b), b, e2, e1, e0, ns, cs)
    cand_t = 2.0 + np.stack([b_pure, b_thermal, b], axis=-1)
    top = 0.25 * cand_t * cand_t
    cand_d = np.stack([np.ones(live.size), top[:, 1], np.minimum(a + b + 1.0, top[:, 2])], -1)
    per_cand = eff[:, None], ns[:, None], cs[:, None], scale, e0  # each row's candidates
    scores = _loglike(cand_t[..., None], cand_d[..., None], *per_cand)
    scores[:, 2] = np.where((b > 0.0) & (-b < a) & (a < 0.25 * b * b), scores[:, 2], -np.inf)
    # The most likely candidate; exact ties go to the smaller det, then the smaller trace.
    rows, k = np.arange(live.size), np.lexsort((cand_t, cand_d, -scores), axis=-1)[:, 0]
    best, top = cand_t[rows, k], top[rows, k]
    trace[live], det[live], log_l[live] = best, cand_d[rows, k], scores[rows, k]

    # det is unreliable when the log-likelihood barely moves along the admissible
    # det interval [1, (trace/2)^2] at the optimal trace.  Its maximum there is
    # log_l, as the ML point lies on it; its minimum is at an end in practice.
    ends = _loglike(best[:, None, None], np.stack([np.ones(live.size), top], -1)[..., None],
                    *per_cand)
    pinned = top - 1.0 < 1e-9  # det is fixed by the constraints
    reliable[live] = pinned | (log_l[live] - ends.min(-1) >= FLATNESS_NATS)
    if not np.isfinite([trace, det, log_l]).all():
        raise EstimationError(_NOT_FINITE)
    return trace, det, reliable, log_l


def _ml_row(eff, ns, cs, dark):
    """``_ml_solve`` of one row, given as lists over settings (``ml_estimate``'s records
    or a one-row block): the (trace, det, det_reliable, log-likelihood) floats.

    Every +, -, *, / and sqrt is the batched solver's, in its order, and rounds
    alike; ``gaussian._div`` gives numpy's +-inf or NaN where Python raises, numpy's
    NaN rules for maximum, minimum, lexsort and min are spelled out.  numpy keeps
    what Python's math module need not round alike: log and log1p (in
    ``_row_loglikes``), p**5 as np.power, exp and expm1 of ``dark``, and each group
    of sums over settings as one reduction on a (k, S) array."""
    clicked = any(c > 0 and e > 0.0 for e, c in zip(eff, cs))  # clicks that light can explain
    failed = (0.0 in ns, dark == 0.0 and any(e == 0.0 and c > 0 for e, c in zip(eff, cs)),
              len({e for e in eff if e > 0.0}) < 2,
              clicked and all(c == n or e == 0.0 for e, n, c in zip(eff, ns, cs)))
    if any(failed):
        raise EstimationError(_CHECKS[failed.index(True)])
    scale, e0 = _dark_terms(dark)
    if not clicked:  # the vacuum corner, u' = e0 at every setting
        log_l = _row_loglikes([[e0] * len(ns)], ns, cs)[0]
        if not math.isfinite(log_l):
            raise EstimationError(_NOT_FINITE)
        return 2.0, 1.0, True, log_l
    e2, e1 = [scale * e * e for e in eff], [scale * 2.0 * e for e in eff]

    # _ml_solve's weighted fit and edge starts: seven sums over settings, one reduction
    q = [(c + 0.5) / (n + 1.0) for n, c in zip(ns, cs)]
    p = [1.0 - x for x in q]
    exp_dark, expm1_dark = np.exp(dark).item(), np.expm1(dark).item()
    terms = []
    for e, e2i, e1i, n, pi, qi, p5 in zip(eff, e2, e1, ns, p, q, np.power(p, 5.0).tolist()):
        w, u_hat = n * p5 / qi, _div(4.0 * qi * (2.0 - qi), pi * pi) - e0
        pl, ql = pi * exp_dark, qi - pi * expm1_dark
        terms.append((w * e2i * e2i, w * e2i * e1i, w * e1i * e1i, w * e2i * u_hat,
                      w * e1i * u_hat, 4.0 * n * e * pl * pl, _div(n * e2i * pl * pl * pl, ql)))
    s22, s21, s11, g2, g1, th_num, th_den = np.add.reduce(np.array(list(zip(*terms))), -1).tolist()
    a, b = _solve2(s22, s21, s11, g2, g1)  # a singular fit starts from (0, 1)
    a, b = (a, b if b > 0.0 else 1.0) if math.isfinite(a) and math.isfinite(b) else (0.0, 1.0)
    b_pure, b_thermal = (
        _edge_row(start if 0.0 < start < math.inf else b, kappa, lam, e2, e1, e0, ns, cs)
        for start, kappa, lam in ((_div(g1 - g2, s11 - 2.0 * s21 + s22), 0.0, -1.0),
                                  (_div(scale * th_num, th_den), 0.25, 0.0)))
    a = a if a > -b else -b  # np.maximum and np.minimum: no NaN here, b > 0
    a, b = _interior_row(a if a < 0.25 * b * b else 0.25 * b * b, b, e2, e1, e0, ns, cs)

    cand_t = [2.0 + b_pure, 2.0 + b_thermal, 2.0 + b]
    top = [0.25 * t * t for t in cand_t]
    inner = a + b + 1.0
    cand_d = [1.0, top[1], inner if inner < top[2] or inner != inner else top[2]]  # np.minimum
    scores = _row_scores(cand_t, cand_d, eff, ns, cs, scale, e0)
    if not (b > 0.0 and -b < a < 0.25 * b * b):
        scores[2] = -math.inf
    # np.lexsort((cand_t, cand_d, -scores)): the most likely, then the smaller det,
    # then the smaller trace; NaN sorts after every number, and ties keep their order
    k = min(range(3), key=lambda i: [(x != x, x if x == x else 0.0)
                                     for x in (-scores[i], cand_d[i], cand_t[i])])
    trace, det, log_l, top = cand_t[k], cand_d[k], scores[k], top[k]
    ends = _row_scores([trace, trace], [1.0, top], eff, ns, cs, scale, e0)
    low = math.nan if any(x != x for x in ends) else min(ends)  # ends.min(): NaN propagates
    reliable = top - 1.0 < 1e-9 or log_l - low >= FLATNESS_NATS
    if not all(map(math.isfinite, (trace, det, log_l))):
        raise EstimationError(_NOT_FINITE)
    return trace, det, reliable, log_l


@np.errstate(divide="ignore", invalid="ignore")
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
    closer-to-pure claim).  The records, any iterable, are read once into the
    solver's one-row pass on Python floats (``_ml_row``), the batched solver's
    operations in their order; only log, log1p, power, exp and the sums over
    settings stay numpy calls, so it returns the batched solver's bits.

    det_reliable is False when, at the optimal trace, both ends of the
    admissible det interval [1, (trace/2)^2] lie less than FLATNESS_NATS
    below the maximum, which lies on that slice; its lowest point is at an
    end in practice (no table checked had a lower interior point).  A
    pinned interval (trace = 2) counts as reliable.  EstimationError: no
    data, a zero-trial setting, fewer than two distinct nonzero
    transmittances, clicks at zero transmittance, or clicks == trials at
    every setting (no finite maximum).
    """
    trace, det, reliable, log_l = _ml_row(*_setting_row(data, eta_assumed), 0.0)
    return Estimate(trace=trace, det=det, det_reliable=reliable, **_state_summary(trace, det),
                    log_likelihood_at_max=log_l)
