"""Command-line front end.

Subcommands: ``run`` (execute a scenario file), ``preset`` (print a
built-in scenario as JSON), ``calibrate`` (solve detection thresholds
for a residual sigma), ``report`` (recompute summaries from emitted
CSVs) and ``sweep`` (comparison table over presets, methods and seeds).

Exit codes: 0 success, 1 usage error, 2 invalid scenario or malformed
data file, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .evidence import calibrate
from .harness import (
    EMIT_FORMATS,
    METHODS,
    PRESET_NAMES,
    ScenarioError,
    emit,
    format_sweep_table,
    parse_run_csv,
    parsed_stats,
    plotdata_text,
    preset,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    summarize_parsed,
    summarize_run,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_IO = 3

_PS = 1e12


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 0.5:
        raise argparse.ArgumentTypeError("must lie in (0, 0.5)")
    return value


def _cmd_run(args) -> int:
    text = Path(args.scenario).read_text(encoding="utf-8")
    scenario = scenario_from_json(text)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.method is not None:
        scenario = replace(scenario, method=args.method)
    result = run_scenario(scenario)
    written = emit(result, args.out, formats=args.format)
    # print the summary file emit wrote rather than format the summary again
    summary = dict(zip(args.format, written)).get("summary")
    print(summarize_run(result) if summary is None else summary.read_text("utf-8"), end="")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    scenario = preset(args.name, method=args.method, seed=args.seed)
    print(scenario_to_json(scenario), end="")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    calib = calibrate(
        args.sigma / _PS,
        args.pf,
        args.pm,
        mass_ceiling=args.kmax,
        mass_floor=args.kmin,
        two_sided=args.two_sided,
    )
    print(f"sigma            = {calib.sigma * _PS:.3f} ps")
    print(f"threshold T      = {calib.threshold * _PS:.3f} ps")
    print(f"min detectable L = {calib.min_detectable * _PS:.3f} ps")
    print(f"midpoint B       = {calib.midpoint * _PS:.3f} ps")
    print(f"steepness A      = {calib.steepness / _PS:.6f} 1/ps")
    return EXIT_OK


def _cmd_report(args) -> int:
    for k, name in enumerate(args.csv):
        parsed = parse_run_csv(name)
        stats = parsed_stats(parsed)
        summary = summarize_parsed(parsed, stats)
        if k:
            print()
        print(summary, end="")
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = f"{parsed.name}_{parsed.method}_seed{parsed.seed}"
            summary_path = out_dir / f"{stem}_summary.txt"
            summary_path.write_text(summary, encoding="utf-8", newline="\n")
            plot_path = out_dir / f"{stem}_tdev.csv"
            plot_path.write_text(plotdata_text(stats[2]), encoding="utf-8", newline="\n")
            print(f"wrote {summary_path}")
            print(f"wrote {plot_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.preset == "all":
        names = PRESET_NAMES
    elif args.preset in PRESET_NAMES:
        names = (args.preset,)
    else:
        raise ScenarioError(
            f"unknown preset {args.preset!r}; expected 'all' or one of {PRESET_NAMES}"
        )
    seeds = list(range(1, args.seeds + 1))
    rows = sweep(names, args.methods, seeds)
    print(format_sweep_table(rows), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="timefuse",
        description="Simulate multi-path time transfer under delay attacks and "
        "compare steering methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_run = sub.add_parser("run", help="execute a scenario JSON file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the file's seed")
    p_run.add_argument("--method", default=None, help=f"override the method ({', '.join(METHODS)})")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.add_argument(
        "--format",
        nargs="+",
        choices=EMIT_FORMATS,
        default=list(EMIT_FORMATS),
        help="artifacts to write (default: all)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="print a built-in scenario as JSON")
    p_preset.add_argument("name", help=f"one of {', '.join(PRESET_NAMES)}")
    p_preset.add_argument("--method", default="DS2")
    p_preset.add_argument("--seed", type=int, default=1)
    p_preset.set_defaults(func=_cmd_preset)

    p_cal = sub.add_parser("calibrate", help="solve detection thresholds for a residual sigma")
    p_cal.add_argument("--sigma", type=float, required=True, help="residual sigma in ps")
    p_cal.add_argument("--pf", type=_probability, default=1e-6, help="false-alarm rate")
    p_cal.add_argument("--pm", type=_probability, default=1e-6, help="missed-detection rate")
    p_cal.add_argument("--kmax", type=float, default=0.9, help="mass ceiling")
    p_cal.add_argument("--kmin", type=float, default=0.1, help="mass floor")
    p_cal.add_argument("--two-sided", action="store_true", help="split the false-alarm budget over both tails")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_rep = sub.add_parser("report", help="recompute summaries from emitted CSVs")
    p_rep.add_argument("csv", nargs="+", help="CSV files produced by 'run'")
    p_rep.add_argument("--out", default=None, help="also write summary and plot data here")
    p_rep.set_defaults(func=_cmd_report)

    p_sweep = sub.add_parser("sweep", help="comparison table over presets, methods and seeds")
    p_sweep.add_argument("--preset", default="all", help="preset name or 'all'")
    p_sweep.add_argument("--seeds", type=_positive_int, default=5, help="use seeds 1..K")
    p_sweep.add_argument(
        "--methods", nargs="+", default=["DS2", "FTA", "Single"], help="methods to compare"
    )
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"timefuse: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except OSError as exc:
        print(f"timefuse: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"timefuse: invalid data: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    raise SystemExit(main())
