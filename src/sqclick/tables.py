"""Text interchange: config files, click tables, estimate records, sweep tables.

Numbers are written at 12 significant digits, integers exactly.  Tabular
files are comma-separated with a single header row preceded by a commented
manifest block; each writer names its columns once, and that list gives the
header and picks each row's values from the records' ``_asdict()``.  Records
are 'key = value' lines from one formatter (bools as true/false).  Readers
skip '#' lines, so any file written here round-trips through its reader.
Config files take only the keys of ``_CONFIG_KEYS`` and of the sweep, each
once, and only ``ExperimentConfig`` states their defaults.  The click table's
row, ``ClickRecord``, and its dark correction live here, so analysing a measured
table needs no simulator; ``simulate``'s config is imported where it is built.
"""

import math
import numbers
import time
from collections import namedtuple

FMT = "%.12g"
_MAX_TRIALS = 2**63 - 1  # numpy draws binomials with an int64 trial count


class ConfigError(ValueError):
    """Malformed config or data file."""


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


def subtract_dark(record: ClickRecord, dark_rate: float, duration: float) -> ClickRecord:
    """Remove the expected dark-count total, flooring at zero; at t = 0 every click is dark."""
    if not (dark_rate >= 0.0 and duration > 0.0 and math.isfinite(dark_rate * duration)):
        raise ValueError(f"need dark_rate >= 0 and duration > 0 with a finite product, "
                         f"got dark_rate = {dark_rate}, duration = {duration}")
    if record.dark_subtracted:
        raise ValueError("dark counts already subtracted from this record")
    if dark_rate * duration > record.trials:
        raise ValueError(f"dark_rate * duration = {dark_rate * duration} expected dark counts "
                         f"exceed the record's {record.trials} trials")
    clicks = max(0, record.clicks - int(round(dark_rate * duration))) if record.t_nominal else 0
    return ClickRecord(record.t_nominal, record.trials, clicks, dark_subtracted=True)


def fmt(x) -> str:
    """A number as written: integers exactly (bools as 0/1), others at FMT."""
    return str(int(x)) if isinstance(x, numbers.Integral) else FMT % x


def _key_value_lines(**fields) -> list:
    """'key = value' lines: bools as true/false, numbers through fmt."""
    return [f"{key} = {str(value).lower() if isinstance(value, bool) else fmt(value)}"
            for key, value in fields.items()]


def manifest_lines(command: str, version: str, **fields) -> list:
    """Commented provenance block embedded at the top of every output file."""
    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return ["# sqclick manifest", f"# command = {command}", f"# version = {version}",
            *(f"# {key} = {value}" for key, value in fields.items()), f"# created = {created}"]


def _read_rows(path, parse, header=None, what=None) -> list:
    """``parse(line, raw)`` of each data line of a text file, in file order.

    Blank lines, '#' comment lines and lines starting with ``header`` are
    skipped; ``line`` is the stripped line.  A ValueError from ``parse``
    becomes a ConfigError naming ``path:line``.  With ``what``, a file
    without data lines is refused as holding no ``what``.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#") and not (header and line.startswith(header)):
                try:
                    rows.append(parse(line, raw))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if what and not rows:
        raise ConfigError(f"{path}: no {what} found")
    return rows


def _write_table(fh, manifest, columns, rows):
    """Manifest lines, the header row naming ``columns``, then one
    comma-separated line per row, a mapping from column to value."""
    for line in [*manifest, ",".join(columns)]:
        fh.write(line + "\n")
    for row in rows:
        fh.write(",".join(fmt(row[c]) for c in columns) + "\n")


def read_key_values(path) -> dict:
    """Parse a 'key = value' file; '#' starts a comment, blank lines ignored,
    a key given twice refused."""
    mapping = {}

    def pair(line, raw):
        key, eq, value = (part.strip() for part in line.split("#", 1)[0].partition("="))
        if not eq:
            raise ValueError(f"expected 'key = value', got {raw!r}")
        if key in mapping:
            raise ValueError(f"key '{key}' given twice")
        mapping[key] = value

    _read_rows(path, pair)
    return mapping


def _parse_float(mapping, key):
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {mapping[key]!r} is not a number") from exc


def _parse_float_list(text, where):
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{where}: {text!r} is not a list of numbers") from exc


_SWEEP_KEYS = {"eta": ("state_trace", "state_det", "etas"), "state": ("states",)}
# config-file key -> the ExperimentConfig field it sets, in the order keys are checked
_CONFIG_KEYS = {"rep_rate_hz": "rep_rate", "duration_s": "duration",
                "transmittances": "transmittances", "eta_apd": "eta_apd",
                "dark_rate_hz": "dark_rate", "t_uncertainty": "t_uncertainty",
                "eta_rel_uncertainty": "eta_rel_uncertainty"}


def config_from_mapping(mapping: dict):
    """Build an ExperimentConfig from parsed key-value pairs.

    Each _CONFIG_KEYS key sets its ExperimentConfig field, and is optional
    where that field has a default.  The sweep's keys (_SWEEP_KEYS) are allowed
    too, as one file serves both; any other key, a misspelling most likely, is
    refused.  Faults are named in order: missing keys (table order), values
    that do not parse, unknown keys (file order), then ExperimentConfig's checks.
    """
    from dataclasses import MISSING, fields

    from .simulate import ExperimentConfig

    required = {field.name for field in fields(ExperimentConfig) if field.default is MISSING}
    for key, name in _CONFIG_KEYS.items():
        if name in required and key not in mapping:
            raise ConfigError(f"missing required config key '{key}'")
    values = {name: _parse_float_list(mapping[key], key) if key == "transmittances"
              else _parse_float(mapping, key) for key, name in _CONFIG_KEYS.items()
              if key in mapping}
    for key in mapping:
        if key not in _CONFIG_KEYS and not any(key in keys for keys in _SWEEP_KEYS.values()):
            raise ConfigError(f"unknown config key '{key}'")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_states(text: str) -> list:
    """Parse 'trace,det; trace,det; ...' into (trace, det) pairs."""
    states = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        values = _parse_float_list(chunk, "states")
        if len(values) != 2:
            raise ConfigError(f"state {chunk!r} must be a 'trace,det' pair")
        states.append((values[0], values[1]))
    if not states:
        raise ConfigError("states list is empty")
    return states


def write_click_records(fh, records, manifest: list):
    _write_table(fh, manifest, ("t_nominal", "trials", "clicks", "dark_subtracted"),
                 (r._asdict() for r in records))


def read_click_records(path) -> list:
    """Read a click table; comment lines and the header row are skipped."""
    def record(line, _raw):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError("expected 4 comma-separated fields")
        subtracted = int(parts[3])
        if subtracted not in (0, 1):
            raise ValueError(f"dark_subtracted = {subtracted} is not 0 or 1")
        return ClickRecord(float(parts[0]), int(parts[1]), int(parts[2]), bool(subtracted))

    return _read_rows(path, record, "t_nominal", "click records")


def estimate_lines(est) -> list:
    """Serialize an Estimate as 'key = value' lines, one per field in order."""
    return _key_value_lines(**est._asdict())


def write_sweep(fh, results, manifest: list):
    _write_table(fh, manifest, ("trace_true", "det_true", "eta", "n_runs", "sigma_trace",
                                "sigma_det", "mean_trace_est", "mean_det_est",
                                "fraction_det_reliable"), (r._asdict() for r in results))


def write_run_details(fh, results, manifest: list):
    """Per-run artifacts of each ensemble, for post-hoc recomputation."""
    _write_table(fh, manifest, ("trace_true", "det_true", "eta", "run_index", "trace_est",
                                "det_est", "det_reliable", "eta_assumed",
                                "log_likelihood_at_max"),
                 (dict(res._asdict(), run_index=run.index, **run._asdict())
                  for res in results for run in res.runs))


def read_mode_samples(path) -> list:
    """Read (eff_t, p[, sigma_p]) rows for the mode-count diagnostic."""
    def sample(line, raw):
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise ValueError(f"expected 'eff_t p [sigma_p]', got {raw!r}")
        return tuple(float(tok) for tok in parts)

    return _read_rows(path, sample, "eff_t", "samples")
