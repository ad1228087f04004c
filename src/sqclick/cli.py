"""Command-line driver: invert, simulate, estimate, sweep, modefit.

Every command writes its output through ``_emit``: an ``--output`` file
(and ``sweep --details``) starts with a commented provenance manifest
naming the command and its arguments, followed by exactly what stdout
would carry without ``--output``.  Stdout carries the plain content, so
repeated runs with the same seed are byte-identical.
"""

import argparse
import sys
from dataclasses import replace

from . import __version__
from .ensemble import eta_sweep, state_sweep
from .estimate import EstimationError, invert_two_point, ml_estimate, mode_count_fit
from .gaussian import (
    SqueezerParams,
    _require_physical,
    _state_summary,
    check_physicality,
    squeezer_from_trace_det,
    trace_det_from_squeezer,
)
from .simulate import simulate_run, subtract_dark
from .tables import (
    ConfigError,
    _key_value_lines,
    _parse_float,
    _parse_float_list,
    config_from_mapping,
    estimate_lines,
    fmt,
    load_config,
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
    has_td = args.trace is not None and args.det is not None
    has_gh = args.g is not None and args.h is not None
    if has_td == has_gh:
        raise ValueError("specify the state as either --trace/--det or --g/--h")
    if has_gh:
        trace, det = trace_det_from_squeezer(SqueezerParams(g=args.g, h=args.h))
        return trace, det, args.g, args.h
    _require_physical(args.trace, args.det)
    g, h = squeezer_from_trace_det(args.trace, args.det)
    return args.trace, args.det, g, h


def _emit(args, write, write_details=None, **fields):
    """Write a command's output and return its exit code.

    ``write(fh, manifest)`` writes the content: to ``--output`` after the
    provenance manifest of ``args.command`` and ``fields``, or to stdout
    without one.  ``write_details``, a writer of the same kind, writes the
    ``--details`` file with the same manifest.
    """
    manifest = manifest_lines(args.command, __version__, **fields)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write(fh, manifest)
    else:
        write(sys.stdout, [])
    if write_details and args.details:
        with open(args.details, "w", encoding="utf-8") as fh:
            write_details(fh, manifest)
    return EXIT_OK


def _lines(lines):
    """An ``_emit`` writer for 'key = value' lines."""
    return lambda fh, manifest: fh.writelines(f"{line}\n" for line in manifest + lines)


def cmd_invert(args) -> int:
    trace, det = invert_two_point(args.eta * args.t1, args.p1, args.eta * args.t2, args.p2)
    physical = check_physicality(trace, det)
    lines = _key_value_lines(trace=trace, det=det, physical=physical)
    if physical:
        lines += _key_value_lines(**_state_summary(trace, det))
    else:
        lines.append("warning = unphysical result: 1 <= det <= (trace/2)^2 violated; "
                     "derived quantities omitted")
    return _emit(args, _lines(lines), t1=fmt(args.t1), p1=fmt(args.p1), t2=fmt(args.t2),
                 p2=fmt(args.p2), eta=fmt(args.eta), output=args.output)


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    trace, det, g, h = _resolve_state(args)
    records = simulate_run(trace, det, config, args.seed)
    return _emit(args, lambda fh, manifest: write_click_records(fh, records, manifest),
                 config=args.config, seed=args.seed, output=args.output, state_trace=fmt(trace),
                 state_det=fmt(det), state_g=fmt(g), state_h=fmt(h))


def cmd_estimate(args) -> int:
    records = read_click_records(args.data)
    if args.dark_rate != 0.0 or args.duration is not None:
        if args.duration is None:
            raise ValueError("--dark-rate requires --duration")
        records = [
            r if r.dark_subtracted else subtract_dark(r, args.dark_rate, args.duration)
            for r in records
        ]
    est = ml_estimate(records, args.eta)
    return _emit(args, _lines(estimate_lines(est)), data=args.data, eta=fmt(args.eta),
                 dark_rate=fmt(args.dark_rate),
                 duration=None if args.duration is None else fmt(args.duration),
                 output=args.output)


def cmd_sweep(args) -> int:
    mapping = read_key_values(args.config)
    config = config_from_mapping(mapping)
    if args.exact_knowledge:
        config = replace(config, t_uncertainty=0.0, eta_rel_uncertainty=0.0)
    for key in ("state_trace", "state_det", "etas") if args.mode == "eta" else ("states",):
        if key not in mapping:
            raise ConfigError(f"{args.mode} sweep config requires key '{key}'")
    if args.mode == "eta":
        results = eta_sweep(
            _parse_float(mapping, "state_trace"),
            _parse_float(mapping, "state_det"),
            config,
            _parse_float_list(mapping["etas"], "etas"),
            args.runs,
            with_uncertainties=True,  # --exact-knowledge has zeroed them in config
            seed=args.seed,
        )
    else:
        results = state_sweep(parse_states(mapping["states"]), config, args.runs, args.seed)
    return _emit(args, lambda fh, manifest: write_sweep(fh, results, manifest),
                 write_details=lambda fh, manifest: write_run_details(fh, results, manifest),
                 config=args.config, mode=args.mode, seed=args.seed, output=args.output,
                 details=args.details, runs=args.runs, exact_knowledge=args.exact_knowledge)


def cmd_modefit(args) -> int:
    rows, n_modes = mode_count_fit(read_mode_samples(args.data), args.max_modes)
    fields = {}
    for _m, degree, rss, chi2_dof in rows:
        fields |= {f"degree_{degree}_rss": rss, f"degree_{degree}_chi2_per_dof": chi2_dof}
    lines = _key_value_lines(**fields, n_modes=n_modes)
    if n_modes == 0:
        lines.append("signal = none")
    return _emit(args, _lines(lines), data=args.data, max_modes=args.max_modes,
                 output=args.output)


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
    p.add_argument("--trace", type=float, help="true trace of the covariance matrix")
    p.add_argument("--det", type=float, help="true determinant of the covariance matrix")
    p.add_argument("--g", type=float, help="phase-sensitive gain (alternative to --trace/--det)")
    p.add_argument("--h", type=float, help="phase-insensitive gain")
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
        return args.func(args)
    except (OSError, ValueError) as exc:  # every sqclick error is a ValueError
        print(f"sqclick: error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, OSError)):
            return EXIT_PARSE
        return EXIT_ESTIMATION if isinstance(exc, EstimationError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
