"""Covariance-matrix algebra for zero-mean single-mode Gaussian states.

Conventions
-----------
Quadratures satisfy [x, p] = 2i, so the vacuum has unit variance in each
quadrature and its covariance matrix is the identity.  All variances are
expressed in these shot-noise units.  Mixing this convention with the
hbar = 1 one (vacuum variance 1/2) is the classic bug in this domain, so
every function in the package assumes vacuum = 1.

Physicality checks (Heisenberg bound det >= 1, discriminant sign) use the
absolute tolerance ``PHYS_TOL`` so that round-trip identities are not
rejected by their own floating-point rounding.
"""

import math
from dataclasses import dataclass

PHYS_TOL = 1e-9


class UnphysicalStateError(ValueError):
    """Covariance data violating positivity or the Heisenberg bound det >= 1."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second moments of a zero-mean single-mode Gaussian state.

    vxx, vpp are the variances of x and p; vxp is the symmetrized cross
    moment (1/2)<xp + px>.  Vacuum is (1, 1, 0).
    """

    vxx: float
    vpp: float
    vxp: float = 0.0

    def __post_init__(self):
        if not (self.vxx > 0.0 and self.vpp > 0.0):
            raise UnphysicalStateError(
                f"quadrature variances must be positive, got ({self.vxx}, {self.vpp})"
            )
        if self.det < 1.0 - PHYS_TOL:
            raise UnphysicalStateError(
                f"det(cov) = {self.det} violates the Heisenberg bound det >= 1"
            )

    @property
    def trace(self) -> float:
        return self.vxx + self.vpp

    @property
    def det(self) -> float:
        return self.vxx * self.vpp - self.vxp * self.vxp


@dataclass(frozen=True)
class SqueezerParams:
    """Intensity gains of the two-stage amplifier model of the source.

    g is the phase-sensitive gain (squeezing), h the phase-insensitive
    gain (thermal noise, mean thermal photon number h - 1).  g = h = 1 is
    the vacuum.
    """

    g: float
    h: float

    def __post_init__(self):
        if self.g < 1.0 or self.h < 1.0:
            raise UnphysicalStateError(
                f"amplifier gains must satisfy g >= 1 and h >= 1, got ({self.g}, {self.h})"
            )


@dataclass(frozen=True)
class QuadratureVariances:
    """Squeezed / anti-squeezed quadrature variance pair."""

    vmin: float
    vmax: float

    def __post_init__(self):
        if not (0.0 < self.vmin <= self.vmax + PHYS_TOL):
            raise UnphysicalStateError(
                f"need 0 < vmin <= vmax, got ({self.vmin}, {self.vmax})"
            )
        if self.vmin * self.vmax < 1.0 - PHYS_TOL:
            raise UnphysicalStateError(
                f"vmin*vmax = {self.vmin * self.vmax} < 1 violates the Heisenberg bound"
            )


def cov_from_squeezer(params: SqueezerParams) -> CovarianceMatrix:
    """Covariance matrix produced by the amplifier cascade acting on vacuum.

    The squeezed quadrature is x: vxx = (2h-1)/g, vpp = (2h-1)*g.  The
    output is always diagonal; every quantity measured downstream is
    phase-insensitive, so rotations are irrelevant here.
    """
    scale = 2.0 * params.h - 1.0
    return CovarianceMatrix(vxx=scale / params.g, vpp=scale * params.g, vxp=0.0)


def variances_from_invariants(trace: float, det: float) -> QuadratureVariances:
    """Recover (vmin, vmax) from the two invariants of the covariance matrix.

    The variances are the roots of lambda^2 - trace*lambda + det = 0:
    vmax = (trace + sqrt(trace^2 - 4*det))/2, vmin = det/vmax (no cancellation
    at large trace).  A discriminant in [-PHYS_TOL, 0) is clamped to zero;
    anything more negative means (trace, det) cannot come from a real matrix.
    """
    if det < 1.0 - PHYS_TOL:
        raise UnphysicalStateError(f"det = {det} violates det >= 1")
    disc = trace * trace - 4.0 * det
    if disc < -PHYS_TOL:
        raise UnphysicalStateError(
            f"trace^2 - 4*det = {disc} < 0: no real quadrature variances"
        )
    vmax = 0.5 * (trace + math.sqrt(max(disc, 0.0)))
    return QuadratureVariances(vmin=det / vmax, vmax=vmax)


def purity(cov: CovarianceMatrix) -> float:
    """State purity Tr[rho^2] = 1/sqrt(det(cov)), in (0, 1]."""
    return 1.0 / math.sqrt(cov.det)


def purity_from_h(h: float) -> float:
    """Purity in terms of the phase-insensitive gain alone: 1/(2h-1).

    Equals purity(cov_from_squeezer(g, h)) for any g, since squeezing is
    a unitary and cannot change the purity.
    """
    if h < 1.0:
        raise UnphysicalStateError(f"h = {h} must be >= 1")
    return 1.0 / (2.0 * h - 1.0)


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


def _bs_gram_excess(trace, det, eff_t):
    """det(eff_t*cov + (2-eff_t)*I/... ) - 4, i.e. 4/P^2 - 4, in invariant form.

    Expanding det(t*gamma + (2-t)*I diag form) = t^2*det + t*(2-t)*trace
    + (2-t)^2 and subtracting 4 analytically gives

        u = eff_t^2*(det - trace + 1) + 2*eff_t*(trace - 2),

    which avoids the 4 - 4 cancellation that ruins accuracy at small
    eff_t.  Accepts scalars or broadcasting numpy arrays; u >= 0 on the
    physical region 1 <= det <= (trace/2)^2 with 0 <= eff_t <= 1.
    """
    return eff_t * eff_t * (det - trace + 1.0) + 2.0 * eff_t * (trace - 2.0)


def no_click_from_invariants(trace: float, det: float, eff_t: float) -> float:
    """No-click probability after a beamsplitter of effective transmittance eff_t.

    eff_t is the product of the physical transmittance and the overall
    detection efficiency; a lossy detector is the same as extra
    reflection.  P = 2/sqrt(eff_t^2*det + eff_t*(2-eff_t)*trace +
    (2-eff_t)^2), evaluated in a cancellation-free grouping.
    """
    if not 0.0 <= eff_t <= 1.0:
        raise ValueError(f"effective transmittance {eff_t} outside [0, 1]")
    if not check_physicality(trace, det):
        raise UnphysicalStateError(f"(trace, det) = ({trace}, {det}) is unphysical")
    u = _bs_gram_excess(trace, det, eff_t)
    return 2.0 / math.sqrt(4.0 + max(u, 0.0))


def click_probability_from_invariants(trace: float, det: float, eff_t: float) -> float:
    """Per-pulse click probability 1 - P, computed without cancellation.

    1 - 2/sqrt(4+u) = u / (sqrt(4+u)*(sqrt(4+u)+2)); accurate even when
    the click probability is parts-per-million.
    """
    if not 0.0 <= eff_t <= 1.0:
        raise ValueError(f"effective transmittance {eff_t} outside [0, 1]")
    if not check_physicality(trace, det):
        raise UnphysicalStateError(f"(trace, det) = ({trace}, {det}) is unphysical")
    u = max(_bs_gram_excess(trace, det, eff_t), 0.0)
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
    if trace < 2.0 - PHYS_TOL:
        raise ValueError(f"trace = {trace} < 2 is unphysical")
    s = math.sqrt(max(trace * trace - 4.0, 0.0))
    g_max = 0.5 * (trace + s)
    h_max = (trace + 2.0) / 4.0
    return g_max, h_max


def check_physicality(trace: float, det: float) -> bool:
    """True iff 1 <= det <= (trace/2)^2 within PHYS_TOL."""
    if det < 1.0 - PHYS_TOL:
        return False
    return det <= 0.25 * trace * trace + PHYS_TOL
