"""Command-line driver: invert, simulate, estimate, sweep, modefit.

Every command writes its output through ``_emit``: an ``--output`` file
(and ``sweep --details``) starts with a commented provenance manifest
naming the command and every option it parsed, followed by exactly what
stdout would carry without ``--output``.  Stdout carries the plain
content, so repeated runs with the same seed are byte-identical.

Each command imports the modules it runs and builds the manifest only for a file:
``invert``, ``modefit`` and ``--help`` load no numpy, dataclasses or ``simulate``.
"""

import argparse
import sys

from . import __version__
from .gaussian import (
    EstimationError,
    SqueezerParams,
    _require_physical,
    _state_summary,
    check_physicality,
    invert_two_point,
    squeezer_from_trace_det,
    trace_det_from_squeezer,
)
from .tables import (
    ConfigError,
    _key_value_lines,
    _parse_float,
    _parse_float_list,
    config_from_mapping,
    estimate_lines,
    fmt,
    manifest_lines,
    parse_states,
    read_click_records,
    read_key_values,
    read_mode_samples,
    write_click_records,
    write_run_details,
    write_sweep,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_ESTIMATION = 4

_EPILOG = """exit codes:
  0  success
  2  config or data file could not be parsed
  3  domain error (unphysical state, argument outside its range)
  4  estimation failure (degenerate or insufficient data)
"""


def _resolve_state(args):
    """State from --trace/--det or --g/--h; returns (trace, det, g, h)."""
    trace, det, g, h = args.state_trace, args.state_det, args.state_g, args.state_h
    has_gh = g is not None and h is not None
    if (trace is not None and det is not None) == has_gh:
        raise ValueError("specify the state as either --trace/--det or --g/--h")
    if has_gh:
        trace, det = trace_det_from_squeezer(SqueezerParams(g=g, h=h))
    else:
        _require_physical(trace, det)
        g, h = squeezer_from_trace_det(trace, det)
    return trace, det, g, h


def _emit(args, write, write_details=None, **resolved):
    """Write a command's output and return its exit code.

    ``write(fh, manifest)`` writes the content: to ``--output`` after the
    provenance manifest, or to stdout without one.  The manifest records
    ``args.command`` and every option in ``args`` (floats through fmt), with
    the ``resolved`` values in place of the options of the same name.
    ``write_details``, a writer of the same kind, writes the ``--details``
    file with the same manifest, built once for both files.
    """
    files = [(path, writer) for path, writer in
             ((args.output, write), (write_details and args.details, write_details)) if path]
    if not args.output:
        write(sys.stdout, [])
    fields = {key: fmt(value) if isinstance(value, float) else value
              for key, value in (vars(args) | resolved).items() if key not in ("command", "func")}
    manifest = manifest_lines(args.command, __version__, **fields) if files else None
    for path, writer in files:
        with open(path, "w", encoding="utf-8") as fh:
            writer(fh, manifest)
    return EXIT_OK


def _lines(lines):
    """An ``_emit`` writer for 'key = value' lines."""
    return lambda fh, manifest: fh.writelines(f"{line}\n" for line in manifest + lines)


def cmd_invert(args) -> int:
    for flag in ("t1", "t2", "eta"):
        if not 0.0 < getattr(args, flag) <= 1.0:
            raise ValueError(f"--{flag} {getattr(args, flag)} outside (0, 1]")
    trace, det = invert_two_point(args.eta * args.t1, args.p1, args.eta * args.t2, args.p2)
    physical = check_physicality(trace, det)
    lines = _key_value_lines(trace=trace, det=det, physical=physical)
    if physical:
        lines += _key_value_lines(**_state_summary(trace, det))
    else:
        lines.append("warning = unphysical result: 1 <= det <= (trace/2)^2 violated; "
                     "derived quantities omitted")
    return _emit(args, _lines(lines))


def cmd_simulate(args) -> int:
    from .simulate import simulate_run

    config = config_from_mapping(read_key_values(args.config))
    trace, det, g, h = _resolve_state(args)
    records = simulate_run(trace, det, config, args.seed)
    return _emit(args, lambda fh, manifest: write_click_records(fh, records, manifest),
                 state_trace=trace, state_det=det, state_g=g, state_h=h)


def cmd_estimate(args) -> int:
    from .estimate import ml_estimate
    from .simulate import subtract_dark

    records = read_click_records(args.data)
    if args.dark_rate != 0.0 or args.duration is not None:
        if args.duration is None:
            raise ValueError("--dark-rate requires --duration")
        records = [
            r if r.dark_subtracted else subtract_dark(r, args.dark_rate, args.duration)
            for r in records
        ]
    est = ml_estimate(records, args.eta)
    return _emit(args, _lines(estimate_lines(est)))


def cmd_sweep(args) -> int:
    from dataclasses import replace

    from .ensemble import _sweep

    mapping = read_key_values(args.config)
    config = config_from_mapping(mapping)
    if args.exact_knowledge:
        config = replace(config, t_uncertainty=0.0, eta_rel_uncertainty=0.0)
    for key in ("state_trace", "state_det", "etas") if args.mode == "eta" else ("states",):
        if key not in mapping:
            raise ConfigError(f"{args.mode} sweep config requires key '{key}'")
    if args.mode == "eta":
        etas = _parse_float_list(mapping["etas"], "etas")
        try:  # each value is a sweep point's eta_apd, under its rule
            configs = [replace(config, eta_apd=eta) for eta in etas]
        except ValueError as exc:
            raise ConfigError(f"config key 'etas': {exc}") from exc
        if not configs:
            raise ConfigError("config key 'etas': the list is empty")
        trace, det = _parse_float(mapping, "state_trace"), _parse_float(mapping, "state_det")
        points = [(trace, det, point_config) for point_config in configs]
    else:
        points = [(trace, det, config) for trace, det in parse_states(mapping["states"])]
    results = _sweep(points, args.runs, args.seed)
    return _emit(args, lambda fh, manifest: write_sweep(fh, results, manifest),
                 write_details=lambda fh, manifest: write_run_details(fh, results, manifest))


def cmd_modefit(args) -> int:
    from .modes import mode_count_fit

    rows, n_modes = mode_count_fit(read_mode_samples(args.data), args.max_modes)
    fields = {}
    for _m, degree, rss, chi2_dof in rows:
        fields |= {f"degree_{degree}_rss": rss, f"degree_{degree}_chi2_per_dof": chi2_dof}
    lines = _key_value_lines(**fields, n_modes=n_modes)
    if n_modes == 0:
        lines.append("signal = none")
    return _emit(args, _lines(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqclick",
        description="Characterize squeezed vacuum from photon-counting click statistics.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"sqclick {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invert",
        help="exact two-point inversion of (transmittance, no-click probability) pairs",
    )
    p.add_argument("--t1", type=float, required=True, help="first beamsplitter transmittance")
    p.add_argument("--p1", type=float, required=True, help="first no-click probability")
    p.add_argument("--t2", type=float, required=True, help="second beamsplitter transmittance")
    p.add_argument("--p2", type=float, required=True, help="second no-click probability")
    p.add_argument(
        "--eta", type=float, default=1.0, help="detection efficiency folded into the t's"
    )
    p.add_argument("--output", help="write the record to this file instead of stdout")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("simulate", help="simulate one acquisition, emit a click table")
    p.add_argument("--config", required=True, help="experiment config file")
    for name, text in (("trace", "true trace of the covariance matrix"),
                       ("det", "true determinant of the covariance matrix"),
                       ("g", "phase-sensitive gain (alternative to --trace/--det)"),
                       ("h", "phase-insensitive gain")):  # the manifest records state_<name>
        p.add_argument(f"--{name}", type=float, dest=f"state_{name}", metavar=name.upper(),
                       help=text)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write the click table here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="maximum-likelihood estimate from a click table")
    p.add_argument("--data", required=True, help="click table (as written by simulate)")
    p.add_argument("--eta", type=float, required=True, help="assumed detection efficiency")
    p.add_argument(
        "--dark-rate", type=float, default=0.0, help="dark counts per second to subtract"
    )
    p.add_argument("--duration", type=float, help="seconds per setting (for dark subtraction)")
    p.add_argument("--output", help="write the estimate record here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="Monte Carlo error analysis over efficiencies or states")
    p.add_argument("--config", required=True, help="sweep config file")
    p.add_argument("--mode", choices=("eta", "state"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=200, help="runs per sweep point")
    p.add_argument(
        "--exact-knowledge",
        action="store_true",
        help="zero the calibration uncertainties",
    )
    p.add_argument("--output", help="write the sweep table here instead of stdout")
    p.add_argument("--details", help="also write per-run artifacts to this file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("modefit", help="polynomial-order diagnostic for the mode count")
    p.add_argument("--data", required=True, help="samples of (eff_t, p[, sigma_p])")
    p.add_argument("--max-modes", type=int, default=3)
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_modefit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= getattr(args, "seed", 0) < 2**64:  # derive_seed reduces seeds mod 2**64
            raise ValueError(f"--seed {args.seed} outside [0, 2**64)")
        return args.func(args)
    except (OSError, ValueError) as exc:  # every sqclick error is a ValueError
        print(f"sqclick: error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, OSError)):
            return EXIT_PARSE
        return EXIT_ESTIMATION if isinstance(exc, EstimationError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
