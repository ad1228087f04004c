"""Text interchange: config files, click tables, estimate records, sweep tables.

Numbers are written at 12 significant digits, integers exactly.  Tabular
files are comma-separated with a single header row preceded by a commented
manifest block; each writer names its columns once, and that list gives the
header and picks each row's values from the records' ``_asdict()``.  Records
are 'key = value' lines from one formatter (bools as true/false).  Readers
skip '#' lines, so any file written here round-trips through its reader.
The ``simulate`` records are imported only where they are built.
"""

import numbers
import time

FMT = "%.12g"


class ConfigError(ValueError):
    """Malformed config or data file."""


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


def _data_lines(path, header=None):
    """Yield (lineno, stripped line, raw line) for each data line of a text file.

    Blank lines, '#' comment lines and lines starting with ``header`` are
    skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#") and not (header and line.startswith(header)):
                yield lineno, line, raw


def _write_table(fh, manifest, columns, rows):
    """Manifest lines, the header row naming ``columns``, then one
    comma-separated line per row, a mapping from column to value."""
    for line in [*manifest, ",".join(columns)]:
        fh.write(line + "\n")
    for row in rows:
        fh.write(",".join(fmt(row[c]) for c in columns) + "\n")


def read_key_values(path) -> dict:
    """Parse a 'key = value' file; '#' starts a comment, blank lines ignored."""
    mapping = {}
    for lineno, line, raw in _data_lines(path):
        key, eq, value = line.split("#", 1)[0].partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_float(mapping, key, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {mapping[key]!r} is not a number") from exc


def _parse_float_list(text, where):
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{where}: {text!r} is not a list of numbers") from exc


def config_from_mapping(mapping: dict):
    """Build an ExperimentConfig from parsed key-value pairs.

    Required keys: rep_rate_hz, duration_s, transmittances, eta_apd.
    Optional: dark_rate_hz, t_uncertainty, eta_rel_uncertainty (default 0).
    """
    from .simulate import ExperimentConfig

    if "transmittances" not in mapping:
        raise ConfigError("missing required config key 'transmittances'")
    try:
        return ExperimentConfig(
            rep_rate=_parse_float(mapping, "rep_rate_hz"),
            duration=_parse_float(mapping, "duration_s"),
            transmittances=tuple(
                _parse_float_list(mapping["transmittances"], "transmittances")
            ),
            eta_apd=_parse_float(mapping, "eta_apd"),
            dark_rate=_parse_float(mapping, "dark_rate_hz", 0.0),
            t_uncertainty=_parse_float(mapping, "t_uncertainty", 0.0),
            eta_rel_uncertainty=_parse_float(mapping, "eta_rel_uncertainty", 0.0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path):
    return config_from_mapping(read_key_values(path))


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
    from .simulate import ClickRecord

    records = []
    for lineno, line, _raw in _data_lines(path, "t_nominal"):
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"{path}:{lineno}: expected 4 comma-separated fields")
        try:
            subtracted = int(parts[3])
            if subtracted not in (0, 1):
                raise ValueError(f"dark_subtracted = {subtracted} is not 0 or 1")
            records.append(ClickRecord(float(parts[0]), int(parts[1]), int(parts[2]),
                                       bool(subtracted)))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise ConfigError(f"{path}: no click records found")
    return records


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
    samples = []
    for lineno, line, raw in _data_lines(path, "eff_t"):
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise ConfigError(f"{path}:{lineno}: expected 'eff_t p [sigma_p]', got {raw!r}")
        try:
            samples.append(tuple(float(tok) for tok in parts))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not samples:
        raise ConfigError(f"{path}: no samples found")
    return samples
