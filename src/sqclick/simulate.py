"""Monte Carlo model of the pulsed click-counting measurement.

Each beamsplitter setting accumulates ``rep_rate * duration`` pulses; the
clicks at one setting are a single binomial draw (the totals are a
sufficient statistic, so per-second sub-windows are not simulated).  Two
calibration imperfections are modeled: the true transmittance of each
setting differs from its nominal value by a normal perturbation drawn
once per run, and the efficiency value handed to the estimator carries a
relative error (``perturbed_eta``).  Dark counts are an independent
Poisson stream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    SqueezerParams,
    UnphysicalStateError,
    check_physicality,
    click_probability_from_invariants,
)

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
        if not self.transmittances:
            raise ValueError("at least one transmittance setting is required")
        if any(not 0.0 <= t <= 1.0 for t in self.transmittances):
            raise ValueError(f"transmittances {self.transmittances} must lie in [0, 1]")
        if not 0.0 <= self.eta_apd <= 1.0:
            raise ValueError(f"eta_apd = {self.eta_apd} outside [0, 1]")
        if self.dark_rate < 0.0 or self.t_uncertainty < 0.0 or self.eta_rel_uncertainty < 0.0:
            raise ValueError("rates and uncertainties must be non-negative")

    @property
    def n_trials(self) -> int:
        """Pulses per setting, rounded to the nearest integer."""
        return int(round(self.rep_rate * self.duration))


@dataclass(frozen=True)
class ClickRecord:
    """Click total for one beamsplitter setting.

    t_nominal is the transmittance the experimenter believes; the data may
    have been generated at a slightly different true value.
    """

    t_nominal: float
    trials: int
    clicks: int
    dark_subtracted: bool = False

    def __post_init__(self):
        if not 0.0 <= self.t_nominal <= 1.0:
            raise ValueError(f"t_nominal = {self.t_nominal} outside [0, 1]")
        if not 0 <= self.clicks <= self.trials:
            raise ValueError(f"clicks = {self.clicks} outside [0, trials = {self.trials}]")


def _simulate_with_truth(trace, det, config, seed):
    """Run the experiment once; also return the true transmittances used."""
    if not check_physicality(trace, det):
        raise UnphysicalStateError(f"(trace, det) = ({trace}, {det}) is unphysical")
    rng = np.random.default_rng(seed)
    n = config.n_trials
    records = []
    t_true_values = []
    for t_nom in config.transmittances:
        t_true = t_nom
        if config.t_uncertainty > 0.0:
            drawn = min(max(rng.normal(t_nom, config.t_uncertainty), 0.0), 1.0)
            t_true = drawn if t_nom > 0.0 else 0.0  # a blocked beam stays blocked
        q = click_probability_from_invariants(trace, det, config.eta_apd * t_true)
        clicks = int(rng.binomial(n, q))
        if config.dark_rate > 0.0:
            dark = int(rng.poisson(config.dark_rate * config.duration))
            clicks = min(clicks + dark, n)
        records.append(ClickRecord(t_nominal=t_nom, trials=n, clicks=clicks))
        t_true_values.append(t_true)
    return records, tuple(t_true_values)


def simulate_run(trace: float, det: float, config: ExperimentConfig, seed: int) -> list:
    """Simulate one full acquisition: a ClickRecord per transmittance setting.

    Deterministic for a fixed seed.  The records carry the nominal
    transmittances; the (possibly perturbed) true values stay internal,
    exactly like a real calibration error would.
    """
    records, _ = _simulate_with_truth(trace, det, config, seed)
    return records


def expected_click_rate(params: SqueezerParams, eta: float, rep_rate: float) -> float:
    """Low-efficiency approximation to the click rate at full transmittance.

    rate = eta*rep_rate*((h-1/2)*(g+1/g)-1)/2, valid to first order in
    eta.  Used to calibrate the overall efficiency from measured rates.
    """
    return 0.5 * eta * rep_rate * ((params.h - 0.5) * (params.g + 1.0 / params.g) - 1.0)


def subtract_dark(record: ClickRecord, dark_rate: float, duration: float) -> ClickRecord:
    """Remove the expected dark-count total, flooring at zero clicks."""
    if not (dark_rate >= 0.0 and duration > 0.0):
        raise ValueError(
            f"dark_rate = {dark_rate} must be >= 0 and duration = {duration} > 0"
        )
    if record.dark_subtracted:
        raise ValueError("dark counts already subtracted from this record")
    expected_dark = int(round(dark_rate * duration))
    return ClickRecord(
        t_nominal=record.t_nominal,
        trials=record.trials,
        clicks=max(0, record.clicks - expected_dark),
        dark_subtracted=True,
    )


def perturbed_eta(config: ExperimentConfig, seed: int) -> float:
    """Efficiency value the experimenter would hand to the estimator.

    eta_apd*(1 + Normal(0, eta_rel_uncertainty)), clipped to (0, 1].
    With zero uncertainty this is exactly eta_apd.
    """
    if config.eta_rel_uncertainty == 0.0:
        return config.eta_apd
    rng = np.random.default_rng(seed)
    value = config.eta_apd * (1.0 + rng.normal(0.0, config.eta_rel_uncertainty))
    return float(min(max(value, 1e-12), 1.0))
