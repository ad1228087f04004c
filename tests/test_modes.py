"""The numpy-free mode-count fit against numpy's least squares.

``lstsq_fit_table`` is the same weighted fit through ``np.linalg.lstsq``:
the two must pick the same mode count and agree on rss and chi^2/dof to
1e-9 relative wherever the residual lies above the rounding of the data.
"""

import math

import numpy as np
import pytest

from sqclick import EstimationError, mode_count_fit, no_click_from_invariants
from sqclick.modes import _mode_fit_table

# rss below this share of sum(z^2) is rounding, and rounding differs by algorithm
RSS_FLOOR = 1e-12


def lstsq_fit_table(samples, max_modes):
    """(n_modes, degree, rss, chi2_per_dof) rows from np.linalg.lstsq."""
    t, p = (np.array([s[k] for s in samples]) for k in (0, 1))
    n = len(samples)
    has_sigma = len(samples[0]) == 3
    z = 4.0 / p**2 - 4.0
    sigma_z = 8.0 * np.array([s[2] for s in samples]) / p**3 if has_sigma else np.ones(n)
    powers = t[:, None] ** np.arange(1, 2 * max_modes + 1)
    fits = []
    for m in range(1, max_modes + 1):
        cols = powers[:, : 2 * m]
        coef, *_ = np.linalg.lstsq(cols / sigma_z[:, None], z / sigma_z, rcond=None)
        resid = z - cols @ coef
        fits.append((np.sum(resid**2), np.sum((resid / sigma_z) ** 2)))
    scale = np.max(np.abs(z))
    noise_var = 1.0 if has_sigma else max(fits[-1][0] / (n - 2 * max_modes), (1e-10 * scale)**2)
    return [(m, 2 * m, rss, chi2 / noise_var / (n - 2 * m))
            for m, (rss, chi2) in enumerate(fits, start=1)]


def random_state(rng):
    trace = rng.uniform(2.05, 6.0)
    return trace, rng.uniform(1.0, (trace / 2) ** 2)


def random_samples(kind, seed):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.01, 1.0, rng.integers(7, 16)))
    states = [random_state(rng) for _ in range(2 if kind == "two-mode" else 1)]
    p = np.array([np.prod([no_click_from_invariants(*s, t) for s in states]) for t in ts])
    if kind == "noisy":
        sigma_p = 10 ** rng.uniform(-6, -4)
        p = np.minimum(p + rng.normal(0.0, sigma_p, ts.size), 1.0)
        return [(float(t), float(q), sigma_p) for t, q in zip(ts, p)]
    return [(float(t), float(q)) for t, q in zip(ts, p)]


def n_modes(rows):
    return next((m for m, _deg, _rss, chi2_dof in rows if chi2_dof < 2.0), None)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("kind", ["single-mode", "two-mode", "noisy"])
def test_fit_matches_lstsq(kind, seed):
    samples = random_samples(kind, seed)
    got, want = _mode_fit_table(samples, 3), lstsq_fit_table(samples, 3)
    assert n_modes(got) == n_modes(want)
    floor = RSS_FLOOR * sum((4.0 / (s[1] * s[1]) - 4.0) ** 2 for s in samples)
    compared = 0
    for (m, deg, rss, chi2_dof), ref in zip(got, want):
        assert (m, deg) == ref[:2]
        if ref[2] > floor:
            assert rss == pytest.approx(ref[2], rel=1e-9)
            assert chi2_dof == pytest.approx(ref[3], rel=1e-9)
            compared += 1
    # a single mode fits to rounding at every degree; the others leave a residual
    assert compared == {"single-mode": 0, "two-mode": 1, "noisy": 3}[kind]


def test_zero_max_modes_rejected():
    with pytest.raises(ValueError, match="max_modes must be >= 1") as info:
        mode_count_fit(random_samples("single-mode", 0), 0)
    assert not isinstance(info.value, EstimationError)  # a domain error, CLI exit 3


def test_sigma_on_some_samples_only_rejected():
    samples = random_samples("noisy", 0)
    samples[1:] = [s[:2] for s in samples[1:]]
    with pytest.raises(ValueError, match=f"1 of the {len(samples)} samples carry sigma_p"):
        mode_count_fit(samples, 3)
    with pytest.raises(ValueError) as info:
        mode_count_fit(samples, 3)
    assert not isinstance(info.value, EstimationError)  # a domain error, CLI exit 3


def test_noise_floor_beyond_float_range_fits_one_mode():
    # exact single-mode data with 4/p^2 - 4 near 1e166: the floor (1e-10 * scale)^2
    # overflows, which stops no fit; the numpy version ended in an OverflowError
    ts = [0.05 + 0.07 * k for k in range(12)]
    samples = [(t, 2.0 / math.sqrt(1e166 * t * t + 3e165 * t + 4.0)) for t in ts]
    rows, n = mode_count_fit(samples, 3)
    assert n == 1
    assert [r[3] for r in rows] == [0.0, 0.0, 0.0]
