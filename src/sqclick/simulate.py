"""Monte Carlo model of the pulsed click-counting measurement.

Each beamsplitter setting accumulates ``rep_rate * duration`` pulses; the
clicks at one setting are a single binomial draw (the totals are a
sufficient statistic, so per-second sub-windows are not simulated).  Two
calibration imperfections are modeled: the true transmittance of each
setting differs from its nominal value by a normal perturbation drawn
once per run, and the efficiency value handed to the estimator carries a
relative error (``perturbed_eta``).  Dark counts are an independent
Poisson stream.  The click probabilities come from ``gaussian``; this
module only draws.  ``ClickRecord`` is a validating namedtuple; the config
stays a frozen dataclass, as ``dataclasses.replace`` re-runs its checks.

This module owns the streams: seed s drives PCG64 seeded with the four
SplitMix64 words ``derive_seed(s, 0..3)``, built from Python ints for one
seed and in one array pass for an ensemble's (``generators``), which the
draw helpers call on the seeds they take; ``_draw_etas`` holds the no-noise rule.
"""

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .gaussian import _ETA_FLOOR, _click_probability, _require_physical

# numpy draws binomials with an int64 trial count, and Poisson counts with a
# mean of at most its int64 maximum less 10 standard deviations.
_MAX_TRIALS = 2**63 - 1
_MAX_DARK = _MAX_TRIALS - 10.0 * math.sqrt(_MAX_TRIALS)
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master, index):
    """Deterministic 64-bit seed for stream ``index`` of ``master`` (SplitMix64).

    Either may be a uint64 array; arrays broadcast and wrap mod 2**64 as the masks
    do on Python ints.  Any other master is coerced by operator.index (a float raises).
    """
    if not isinstance(master, np.ndarray):
        master = operator.index(master)
    z = ((index + 1) * _GOLDEN + (master & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SeedState:
    """Four precomputed uint64 seed words in SeedSequence's place.

    PCG64 asks for exactly (4, uint64); any other request means numpy seeds
    differently, and raises instead of silently changing a stream.
    """

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(f"unexpected seed request ({n_words}, {np.dtype(dtype)}); "
                               "only (4, uint64) is precomputed")
        return self._words


def generators(seeds):
    """An iterator of a Generator per seed s, PCG64 seeded with derive_seed(s, 0..3).

    A list of ints gets its words from Python ints (cheaper for a few seeds), a
    uint64 array from one array pass.  SeedState is registered as numpy's
    ISeedSequence here, not at import, so that importing loads no numpy.random.
    """
    if isinstance(seeds, np.ndarray):
        words = derive_seed(seeds[:, None], np.arange(4, dtype=np.uint64))
    else:
        words = np.array([[derive_seed(s, k) for k in range(4)] for s in seeds], np.uint64)
    np.random.bit_generator.ISeedSequence.register(SeedState)
    return (np.random.Generator(np.random.PCG64(SeedState(w))) for w in words)


@dataclass(frozen=True)
class ExperimentConfig:
    """Acquisition parameters and calibration-knowledge uncertainties.

    rep_rate: pulses per second.
    duration: seconds spent on each transmittance setting.
    transmittances: nominal beamsplitter settings, each in [0, 1].
    eta_apd: true overall detection efficiency (filters + detector).
    dark_rate: dark counts per second.
    t_uncertainty: absolute std dev of the true transmittance around nominal.
    eta_rel_uncertainty: relative std dev of the efficiency value reported
        to the estimator (calibration knowledge, not physics).
    """

    rep_rate: float
    duration: float
    transmittances: tuple
    eta_apd: float
    dark_rate: float = 0.0
    t_uncertainty: float = 0.0
    eta_rel_uncertainty: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "transmittances", tuple(float(t) for t in self.transmittances))
        for name in ("rep_rate", "duration", "eta_apd", "dark_rate", "t_uncertainty",
                     "eta_rel_uncertainty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is not finite")
        if self.rep_rate <= 0.0 or self.duration <= 0.0:
            raise ValueError("rep_rate and duration must be positive")
        pulses = self.rep_rate * self.duration
        if not (math.isfinite(pulses) and round(pulses) <= _MAX_TRIALS):
            raise ValueError(
                f"rep_rate * duration = {pulses} pulses per setting exceeds {_MAX_TRIALS}"
            )
        if round(pulses) < 1:
            raise ValueError(f"rep_rate * duration = {pulses} pulses per setting rounds to 0")
        if not self.transmittances:
            raise ValueError("at least one transmittance setting is required")
        if any(not 0.0 <= t <= 1.0 for t in self.transmittances):
            raise ValueError(f"transmittances {self.transmittances} must lie in [0, 1]")
        if not 0.0 <= self.eta_apd <= 1.0:
            raise ValueError(f"eta_apd = {self.eta_apd} outside [0, 1]")
        if self.dark_rate < 0.0 or self.t_uncertainty < 0.0 or self.eta_rel_uncertainty < 0.0:
            raise ValueError("rates and uncertainties must be non-negative")
        dark_cap = min(self.n_trials, _MAX_DARK)  # more than every pulse clicking is no data
        if self.dark_rate * self.duration > dark_cap:
            raise ValueError(f"dark_rate_hz = {self.dark_rate} expects more dark counts per "
                             f"setting than its {self.n_trials} pulses or numpy's Poisson "
                             f"limit allow ({dark_cap:.6g})")

    @property
    def n_trials(self) -> int:
        """Pulses per setting, rounded to the nearest integer."""
        return int(round(self.rep_rate * self.duration))


class ClickRecord(namedtuple("ClickRecord", "t_nominal trials clicks dark_subtracted")):
    """Click total for one beamsplitter setting.

    t_nominal is the transmittance the experimenter believes; the data may
    have been generated at a slightly different true value.
    """

    __slots__ = ()

    def __new__(cls, t_nominal, trials, clicks, dark_subtracted=False):
        self = tuple.__new__(cls, (t_nominal, trials, clicks, dark_subtracted))
        if not 0.0 <= self.t_nominal <= 1.0:
            raise ValueError(f"t_nominal = {self.t_nominal} outside [0, 1]")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"trials exceeds {_MAX_TRIALS}, the largest count numpy can draw")
        if not 0 <= self.clicks <= self.trials:
            raise ValueError(f"clicks = {self.clicks} outside [0, trials = {self.trials}]")
        return self


def _draw_clicks(trace, det, config, seeds):
    """Click totals and true transmittances of one run per seed in ``seeds``.

    Returns a list of rows, each a list of one click count per setting, and
    a list of true-transmittance tuples.  Each run draws, setting by
    setting, the true transmittance (when t_uncertainty > 0), the clicks
    and the dark counts (when dark_rate > 0), in that order.
    """
    _require_physical(trace, det)
    n, eta, sigma = config.n_trials, config.eta_apd, config.t_uncertainty
    dark = config.dark_rate * config.duration if config.dark_rate > 0.0 else None
    nominal = config.transmittances
    nominal_q = [_click_probability(trace, det, eta * t) for t in nominal] if sigma == 0.0 else None
    rows, t_trues = [], []
    for rng in generators(seeds):
        row, t_true = [], []
        for i, t_nom in enumerate(nominal):
            if nominal_q is None:
                drawn = min(max(rng.normal(t_nom, sigma), 0.0), 1.0)
                t = drawn if t_nom > 0.0 else 0.0  # a blocked beam stays blocked
                q = _click_probability(trace, det, eta * t)
                t_true.append(t)
            else:
                q = nominal_q[i]
            clicks = int(rng.binomial(n, q))
            if dark is not None:
                clicks = min(clicks + int(rng.poisson(dark)), n)
            row.append(clicks)
        rows.append(row)
        t_trues.append(tuple(t_true) if nominal_q is None else nominal)
    return rows, t_trues


def simulate_run(trace: float, det: float, config: ExperimentConfig, seed: int) -> list:
    """Simulate one full acquisition: a ClickRecord per transmittance setting.

    Deterministic for a fixed seed.  The records carry the nominal
    transmittances; the (possibly perturbed) true values stay internal,
    exactly like a real calibration error would.
    """
    (row,), _ = _draw_clicks(trace, det, config, [seed])
    return [ClickRecord(t, config.n_trials, c) for t, c in zip(config.transmittances, row)]


def _expected_dark(dark_rate, duration) -> int:
    """Dark counts expected in one setting's acquisition, rounded to a count."""
    return int(round(dark_rate * duration))


def subtract_dark(record: ClickRecord, dark_rate: float, duration: float) -> ClickRecord:
    """Remove the expected dark-count total, flooring at zero clicks."""
    if not (dark_rate >= 0.0 and duration > 0.0 and math.isfinite(dark_rate * duration)):
        raise ValueError(f"need dark_rate >= 0 and duration > 0 with a finite product, "
                         f"got dark_rate = {dark_rate}, duration = {duration}")
    if record.dark_subtracted:
        raise ValueError("dark counts already subtracted from this record")
    if dark_rate * duration > record.trials:
        raise ValueError(f"dark_rate * duration = {dark_rate * duration} expected dark counts "
                         f"exceed the record's {record.trials} trials")
    clicks = max(0, record.clicks - _expected_dark(dark_rate, duration))
    return ClickRecord(record.t_nominal, record.trials, clicks, dark_subtracted=True)


def perturbed_eta(config: ExperimentConfig, seed: int) -> float:
    """Efficiency value the experimenter would hand to the estimator.

    eta_apd*(1 + Normal(0, eta_rel_uncertainty)), clipped to (0, 1].
    With zero uncertainty this is exactly eta_apd.
    """
    return _draw_etas(config, [operator.index(seed)])[0]


def _draw_etas(config, seeds):
    """perturbed_eta's value per seed; eta_apd for each, nothing drawn, without eta noise."""
    if config.eta_rel_uncertainty == 0.0:
        return [config.eta_apd] * len(seeds)
    return [
        float(min(max(config.eta_apd * (1.0 + rng.normal(0.0, config.eta_rel_uncertainty)),
                      _ETA_FLOOR), 1.0))
        for rng in generators(seeds)
    ]
