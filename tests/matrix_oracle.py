"""Matrix-form reference for the no-click probability, used by the tests.

The package works only with the invariant form: 4/P^2 - 4 is linear in
(trace, det).  These functions derive P the other way, from the
covariance matrix itself: a beamsplitter mixes the state with vacuum,
and an ideal on/off detector's no-click probability is the vacuum
overlap 4*pi*Q(0) of the Husimi Q function.  The tests compare the two
routes and check this one against Fock-space and quadrature oracles.
Conventions are the package's: vacuum covariance = identity.
"""

import math

from sqclick import CovarianceMatrix


def purity(cov: CovarianceMatrix) -> float:
    """State purity Tr[rho^2] = 1/sqrt(det(cov)), in (0, 1]."""
    return 1.0 / math.sqrt(cov.det)


def apply_beamsplitter(cov: CovarianceMatrix, t: float) -> CovarianceMatrix:
    """Mix the state with vacuum on a beamsplitter of intensity transmittance t.

    cov' = t*cov + (1-t)*I.  t = 1 is the identity, t = 0 leaves vacuum.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance t = {t} outside [0, 1]")
    return CovarianceMatrix(
        vxx=t * cov.vxx + (1.0 - t),
        vpp=t * cov.vpp + (1.0 - t),
        vxp=t * cov.vxp,
    )


def q_function(cov: CovarianceMatrix, x: float, p: float) -> float:
    """Husimi Q function of the zero-mean Gaussian state at phase-space point (x, p).

    Q(r) = exp(-r^T (cov+I)^{-1} r / 2) / (2*pi*sqrt(det(cov+I))), which
    integrates to 1 over dx dp.  The no-click probability of an ideal
    on/off detector is the vacuum overlap 4*pi*Q(0).
    """
    sxx = cov.vxx + 1.0
    spp = cov.vpp + 1.0
    sxp = cov.vxp
    det_s = sxx * spp - sxp * sxp
    quad = (spp * x * x - 2.0 * sxp * x * p + sxx * p * p) / det_s
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det_s))


def no_click_probability(cov: CovarianceMatrix) -> float:
    """Probability that an ideal on/off detector sees no photon: 2/sqrt(det(cov+I))."""
    sxx = cov.vxx + 1.0
    spp = cov.vpp + 1.0
    det_s = sxx * spp - cov.vxp * cov.vxp
    return 2.0 / math.sqrt(det_s)
