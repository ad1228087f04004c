"""Mode-count diagnostic: the even degree of 4/p^2 - 4 in the effective transmittance
that no-click samples need, fitted by a Householder QR on Python floats, without numpy."""

import math

from .gaussian import EstimationError


def _finite(values, what):  # Python floats do not raise on overflow
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"{what} is not finite")
    return values


def _nested_least_squares(cols, rhs, widths):
    """Coefficients on the first k of ``cols`` for each k in ``widths``, from one
    Householder QR of all columns (lists, overwritten with R)."""
    for j, x in enumerate(cols):
        norm = math.hypot(*x[j:])
        alpha = -math.copysign(norm, x[j])
        # the reflector over its norm: |v[0]| = v.v/2, and no tiny weight is squared
        v = [(x[j] - alpha) / norm] + [xi / norm for xi in x[j + 1:]]
        for col in cols[j + 1:] + [rhs]:
            s = sum(vi * ci for vi, ci in zip(v, col[j:])) / abs(v[0])
            col[j:] = [ci - s * vi for vi, ci in zip(v, col[j:])]
        x[j] = alpha
    for k in widths:
        coef = [0.0] * k
        for i in reversed(range(k)):
            coef[i] = (rhs[i] - sum(cols[j][i] * coef[j] for j in range(i + 1, k))) / cols[i][i]
        yield coef


def _mode_fit_table(samples, max_modes):
    """Weighted fits of 4/p^2 - 4, one (n_modes, degree, rss, chi2_per_dof) row
    per candidate mode count; no rows for vacuum samples.  samples are all
    (eff_t, p) or all (eff_t, p, sigma_p); with sigma_p the chi^2 uses the error
    8*sigma_p/p^3, without it the highest-degree fit sets the noise scale
    (with a floor so exact data pass)."""
    if max_modes < 1:
        raise ValueError("max_modes must be >= 1")
    n = len(samples)
    if n < 2 * max_modes + 1:
        raise EstimationError(
            f"{n} samples cannot constrain {max_modes} modes (need {2 * max_modes + 1})")
    t, p = ([float(s[k]) for s in samples] for k in (0, 1))
    # Written so that NaN fails each test.
    if not all(0.0 <= x <= 1.0 for x in t):
        raise ValueError("effective transmittances must lie in [0, 1]")
    if not all(0.0 < x <= 1.0 for x in p):
        raise ValueError("no-click probabilities must lie in (0, 1]")
    n_sigma = sum(len(s) >= 3 for s in samples)
    if 0 < n_sigma < n:
        raise ValueError(f"{n_sigma} of the {n} samples carry sigma_p; give it on all or none")
    sigma_p = [float(s[2]) for s in samples] if n_sigma else []
    if not all(math.isfinite(x) and x > 0.0 for x in sigma_p):
        raise ValueError("sigma_p values must be finite and positive")
    for k, (s, x) in enumerate(zip(sigma_p, p)):
        if s < math.ulp(x):  # a row pinned below its rounding: the fit's verdict is noise
            raise ValueError(f"sample {k + 1} (eff_t = {t[k]!r}): sigma_p = {s!r} is below "
                             f"the float resolution {math.ulp(x)!r} of its p = {x!r}")
    if len(set(t)) != n:
        raise EstimationError("effective transmittances must be distinct")
    z = _finite([4.0 / (x * x) - 4.0 for x in p], "4/p^2 - 4")
    scale = max(map(abs, z))
    if scale < 1e-12:
        return []
    powers = [[x**d for d in range(1, 2 * max_modes + 1)] for x in t]
    sigma_z = _finite([8.0 * s / (x * x * x) for s, x in zip(sigma_p, p)] or [1.0] * n,
                      "the propagated error 8*sigma_p/p^3")
    w = [1.0 / s for s in sigma_z]
    cols = [[wi * row[d] for wi, row in zip(w, powers)] for d in range(2 * max_modes)]
    fits = []  # (rss, chi^2 before the noise scale) per mode count
    for coef in _nested_least_squares(cols, [wi * zi for wi, zi in zip(w, z)],
                                      range(2, 2 * max_modes + 1, 2)):
        resid = [zi - sum(c * x for c, x in zip(coef, row)) for zi, row in zip(z, powers)]
        fits.append(_finite((sum(r * r for r in resid),
                             sum((r / s) * (r / s) for r, s in zip(resid, sigma_z))), "chi^2"))
    # Without sigmas the highest-degree fit sets the noise scale; above scale ~1e164
    # its floor squares to inf, and every chi^2/dof to 0.
    floor = 1e-10 * scale
    noise_var = 1.0 if n_sigma else max(fits[-1][0] / (n - 2 * max_modes), floor * floor)
    return [(m, 2 * m, rss, chi2 / noise_var / (n - 2 * m))
            for m, (rss, chi2) in enumerate(fits, start=1)]


def mode_count_fit(samples: list, max_modes: int) -> tuple[list, int]:
    """The ``_mode_fit_table`` rows and the smallest mode count N whose chi^2/dof is below 2.

    For N modes 1/P^2 is a polynomial of degree 2N in the effective transmittance,
    1 at zero, so 4/p^2 - 4 is fitted without a constant term.  Vacuum samples
    (p = 1 everywhere) give no rows and N = 0: no signal to fit.
    """
    try:
        rows = _mode_fit_table(samples, max_modes)
    except ArithmeticError as exc:  # e.g. p = 1e-160 overflows 4/p^2
        raise ValueError(f"the samples overflow the fit in float64 ({exc})") from exc
    for m, _deg, _rss, chi2_dof in rows:
        if chi2_dof < 2.0:
            return rows, m
    if not rows:
        return rows, 0
    raise EstimationError(f"no mode count up to {max_modes} fits the samples "
                          f"(min chi2/dof = {min(r[3] for r in rows):.3g})")
