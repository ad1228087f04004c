"""Command-line driver: invert, simulate, estimate, sweep, modefit.

File outputs embed a commented provenance manifest; stdout carries the
plain content so repeated runs with the same seed are byte-identical.
"""

import argparse
import sys

from . import __version__
from .ensemble import eta_sweep, state_sweep
from .estimate import (
    EstimationError,
    _mode_count,
    _mode_fit_table,
    invert_two_point,
    ml_estimate,
)
from .gaussian import (
    SqueezerParams,
    UnphysicalStateError,
    check_physicality,
    gain_bounds_from_trace,
    squeezer_from_trace_det,
    trace_det_from_squeezer,
    variances_from_invariants,
)
from .simulate import simulate_run, subtract_dark
from .tables import (
    ConfigError,
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
    if not check_physicality(args.trace, args.det):
        raise UnphysicalStateError(
            f"(trace, det) = ({args.trace}, {args.det}) is unphysical"
        )
    g, h = squeezer_from_trace_det(args.trace, args.det)
    return args.trace, args.det, g, h


def _emit(path, lines):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    else:
        for line in lines:
            print(line)


def cmd_invert(args) -> int:
    eff_t1 = args.eta * args.t1
    eff_t2 = args.eta * args.t2
    trace, det = invert_two_point(eff_t1, args.p1, eff_t2, args.p2)
    lines = [f"trace = {fmt(trace)}", f"det = {fmt(det)}"]
    if check_physicality(trace, det):
        qv = variances_from_invariants(trace, det)
        g_max, h_max = gain_bounds_from_trace(max(trace, 2.0))
        lines += [
            "physical = true",
            f"vmin = {fmt(qv.vmin)}",
            f"vmax = {fmt(qv.vmax)}",
            f"purity = {fmt(det ** -0.5)}",
            f"g_max_bound = {fmt(g_max)}",
            f"h_max_bound = {fmt(h_max)}",
        ]
    else:
        lines += [
            "physical = false",
            "warning = unphysical result: 1 <= det <= (trace/2)^2 violated; "
            "derived quantities omitted",
        ]
    _emit(args.output, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    trace, det, g, h = _resolve_state(args)
    records = simulate_run(trace, det, config, args.seed)
    if args.output:
        manifest = manifest_lines(
            "simulate",
            __version__,
            config=args.config,
            seed=args.seed,
            output=args.output,
            state_trace=fmt(trace),
            state_det=fmt(det),
            state_g=fmt(g),
            state_h=fmt(h),
        )
        with open(args.output, "w", encoding="utf-8") as fh:
            write_click_records(fh, records, manifest)
    else:
        write_click_records(sys.stdout, records, [])
    return EXIT_OK


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
    lines = estimate_lines(est)
    if args.output:
        manifest = manifest_lines(
            "estimate", __version__, data=args.data, eta=fmt(args.eta), output=args.output
        )
        _emit(args.output, manifest + lines)
    else:
        _emit(None, lines)
    return EXIT_OK


def cmd_sweep(args) -> int:
    mapping = read_key_values(args.config)
    config = load_config(args.config)
    if args.mode == "eta":
        for key in ("state_trace", "state_det", "etas"):
            if key not in mapping:
                raise ConfigError(f"eta sweep config requires key '{key}'")
        trace_true = float(mapping["state_trace"])
        det_true = float(mapping["state_det"])
        etas = [float(tok) for tok in mapping["etas"].replace(",", " ").split()]
        results = eta_sweep(
            trace_true,
            det_true,
            config,
            etas,
            args.runs,
            with_uncertainties=not args.exact_knowledge,
            seed=args.seed,
        )
    else:
        if "states" not in mapping:
            raise ConfigError("state sweep config requires key 'states'")
        states = parse_states(mapping["states"])
        results = state_sweep(states, config, args.runs, args.seed)
    manifest = manifest_lines(
        "sweep",
        __version__,
        config=args.config,
        mode=args.mode,
        seed=args.seed,
        output=args.output,
        runs=args.runs,
        exact_knowledge=args.exact_knowledge,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_sweep(fh, results, manifest)
    else:
        write_sweep(sys.stdout, results, [])
    if args.details:
        with open(args.details, "w", encoding="utf-8") as fh:
            write_run_details(fh, results, manifest)
    return EXIT_OK


def cmd_modefit(args) -> int:
    samples = read_mode_samples(args.data)
    rows = _mode_fit_table(samples, args.max_modes)
    lines = []
    for _m, degree, rss, chi2_dof in rows:
        lines.append(f"degree_{degree}_rss = {fmt(rss)}")
        lines.append(f"degree_{degree}_chi2_per_dof = {fmt(chi2_dof)}")
    n_modes = _mode_count(rows, args.max_modes)
    lines.append(f"n_modes = {n_modes}")
    if n_modes == 0:
        lines.append("signal = none")
    _emit(args.output, lines)
    return EXIT_OK


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
        help="zero the calibration uncertainties (eta mode)",
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
    except (ConfigError, OSError) as exc:
        print(f"sqclick: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EstimationError as exc:
        print(f"sqclick: error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (UnphysicalStateError, ValueError) as exc:
        print(f"sqclick: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
