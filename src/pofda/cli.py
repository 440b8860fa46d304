"""Command line interface.

Subcommands: simulate, depth, trim, run-scenario, reproduce-tables,
plot-data. All outputs are UTF-8 CSV with header rows; exit code 0 on
success, 1 with a diagnostic on stderr for any module error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .depths import DepthKind
from .harness import (
    ScenarioConfig,
    apply_overrides,
    load_scenarios,
    reproduce_tables,
    run_scenario,
    write_results_csv,
)
from .io import (
    read_curves_csv,
    write_curves_csv,
    write_depth_csv,
    write_estimate_csv,
    write_mask_csv,
)
from .plots import plot_data
from .poifd import NAMED_PHI, poifd_all
from .simulate import ContaminationKind, ObservationKind, simulate_sample
from .trimming import select_trim, trimmed_mean

_DEPTH_CHOICES = [k.value for k in DepthKind]
_PHI_CHOICES = sorted(NAMED_PHI)
_CONTAMINATION_CHOICES = [k.value for k in ContaminationKind]
_OBSERVE_CHOICES = [k.value for k in ObservationKind]


def _add_depth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", choices=_DEPTH_CHOICES, default=DepthKind.FRAIMAN_MUNIZ.value)
    parser.add_argument("--phi", choices=_PHI_CHOICES, default="identity")


def _add_simulation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=50, dest="n_curves", metavar="N", help="number of curves")
    parser.add_argument("--len", type=int, default=200, dest="grid_len", help="grid size")
    parser.add_argument("--theta", type=float, default=None, help="covariance decay rate (default: n)")
    parser.add_argument("--contamination", choices=_CONTAMINATION_CHOICES, default="none")
    parser.add_argument("--q", type=float, default=0.1, help="contamination probability")
    parser.add_argument("--M", type=float, default=25.0, dest="magnitude", help="contamination magnitude")
    parser.add_argument("--observe", choices=_OBSERVE_CHOICES, default="centered", dest="observation")
    parser.add_argument("--m", type=int, default=3, dest="n_intervals", help="interval count for --observe intervals")
    parser.add_argument("--p-obs", type=float, default=0.5, dest="p_obs", help="expected observation proportion")
    parser.add_argument("--seed", type=int, default=0)


def _scenario_config(args, base: ScenarioConfig = ScenarioConfig()) -> ScenarioConfig:
    """`base` with every ScenarioConfig field that `args` sets (is not None)."""
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name in ScenarioConfig.__dataclass_fields__
    }
    return apply_overrides(base, overrides)


def _cmd_simulate(args) -> int:
    config = _scenario_config(args)
    sample = simulate_sample(
        config.model(),
        config.n_curves,
        config.contamination_spec(),
        config.observation_spec(),
        config.seed,
    )
    write_curves_csv(args.out, sample)
    mask_out = args.mask_out or str(Path(args.out).with_suffix("")) + "_mask.csv"
    write_mask_csv(mask_out, sample)
    print(f"wrote {sample.n_curves} curves on {sample.grid.size} points to {args.out}")
    print(f"wrote masks to {mask_out}")
    return 0


def _cmd_depth(args) -> int:
    sample, names = read_curves_csv(args.input)
    result = poifd_all(sample, kind=args.depth, phi=args.phi)
    write_depth_csv(args.out, names, result.poifd)
    print(f"wrote {len(names)} depths to {args.out}")
    return 0


def _cmd_trim(args) -> int:
    sample, _ = read_curves_csv(args.input)
    result = poifd_all(sample, kind=args.depth, phi=args.phi)
    trim = select_trim(result.poifd, args.alpha)
    estimate = trimmed_mean(sample, trim)
    write_estimate_csv(args.out, sample.grid, estimate)
    print(
        f"kept {trim.keep_count}/{sample.n_curves} curves "
        f"(beta={trim.beta:.6g}); wrote estimate to {args.out}"
    )
    return 0


def _cmd_run_scenario(args) -> int:
    if args.config:
        configs = [_scenario_config(args, c) for c in load_scenarios(args.config)]
    else:
        configs = [_scenario_config(args)]
    results = [run_scenario(config, index) for index, config in enumerate(configs)]
    write_results_csv(args.out, results)
    print(f"wrote {len(results)} scenario rows to {args.out}")
    return 0


def _cmd_reproduce_tables(args) -> int:
    paths = reproduce_tables(
        args.out_dir,
        seed=args.seed,
        jobs=args.jobs,
        n_reps=args.n_reps,
        grid_len=args.grid_len,
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_plot_data(args) -> int:
    config = _scenario_config(args)
    paths = plot_data(config, args.out_dir, svg=not args.no_svg)
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pofda",
        description="Depth and trimmed means for partially observed functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate curves and write curve + mask CSVs")
    _add_simulation_flags(p)
    p.add_argument("--out", default="curves.csv")
    p.add_argument("--mask-out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("depth", help="compute integrated depths from a curve CSV")
    p.add_argument("--input", required=True)
    _add_depth_flags(p)
    p.add_argument("--out", default="depths.csv")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("trim", help="depth-trimmed mean from a curve CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, default=0.2)
    _add_depth_flags(p)
    p.add_argument("--out", default="trimmed_mean.csv")
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("run-scenario", help="run scenarios from JSON config or flags")
    p.add_argument("--config", default=None, help="JSON scenario object or list")
    p.add_argument("--n", type=int, default=None, dest="n_curves", metavar="N")
    p.add_argument("--len", type=int, default=None, dest="grid_len")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--M", type=float, default=None, dest="magnitude")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--contamination", choices=_CONTAMINATION_CHOICES, default=None)
    p.add_argument("--observe", choices=_OBSERVE_CHOICES, default=None, dest="observation")
    p.add_argument("--p-obs", type=float, default=None, dest="p_obs")
    p.add_argument("--m", type=int, default=None, dest="n_intervals",
                   help="interval count for --observe intervals")
    p.add_argument("--depth", choices=_DEPTH_CHOICES, default=None)
    p.add_argument("--phi", choices=_PHI_CHOICES, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--reps", type=int, default=None, dest="n_reps", metavar="REPS")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="scenario_results.csv")
    p.set_defaults(func=_cmd_run_scenario)

    p = sub.add_parser("reproduce-tables", help="run the full benchmark grid")
    p.add_argument("--out-dir", default="tables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--reps", type=int, default=10, dest="n_reps", metavar="REPS", help="replications per scenario")
    p.add_argument("--len", type=int, default=200, dest="grid_len", help="grid size")
    p.set_defaults(func=_cmd_reproduce_tables)

    p = sub.add_parser("plot-data", help="export plot CSVs and SVG panels")
    _add_simulation_flags(p)
    p.add_argument("--alpha", type=float, default=0.3)
    _add_depth_flags(p)
    p.add_argument("--out-dir", default="plot_data")
    p.add_argument("--no-svg", action="store_true")
    p.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface module errors as diagnostics, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
