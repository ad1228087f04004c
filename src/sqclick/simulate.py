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
"""

import math
from collections import namedtuple
from dataclasses import dataclass

from .gaussian import _ETA_FLOOR, _click_probability, _require_physical

# numpy draws binomials with an int64 trial count, and Poisson counts with a
# mean of at most its int64 maximum less 10 standard deviations.
_MAX_TRIALS = 2**63 - 1
_MAX_DARK = _MAX_TRIALS - 10.0 * math.sqrt(_MAX_TRIALS)


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


def _draw_clicks(trace, det, config, rngs):
    """Click totals and true transmittances of one run per Generator in ``rngs``.

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
    for rng in rngs:
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
    from numpy.random import default_rng  # deferred: tables and the CLI import this module without numpy

    rows, _ = _draw_clicks(trace, det, config, [default_rng(seed)])
    n = config.n_trials
    return [ClickRecord(t, n, c) for t, c in zip(config.transmittances, rows[0])]


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
    if config.eta_rel_uncertainty == 0.0:
        return config.eta_apd
    from numpy.random import default_rng

    return _draw_etas(config, [default_rng(seed)])[0]


def _draw_etas(config, rngs):
    """perturbed_eta's value, one per Generator in ``rngs``."""
    return [
        float(min(max(config.eta_apd * (1.0 + rng.normal(0.0, config.eta_rel_uncertainty)),
                      _ETA_FLOOR), 1.0))
        for rng in rngs
    ]
