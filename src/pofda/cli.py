"""Command line interface.

Subcommands: simulate, depth, trim, run-scenario, reproduce-tables,
plot-data. All outputs are UTF-8 CSV with header rows; exit code 0 on
success, 1 with a diagnostic on stderr for any module error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .depths import DepthKind
from .harness import (
    ScenarioConfig,
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
)
from .plots import plot_data
from .poifd import NAMED_PHI, poifd_all
from .simulate import ContaminationKind, ObservationKind, simulate_sample
from .trimming import select_trim, trimmed_mean

# Every scenario flag, declared once with the ScenarioConfig field it
# sets. None means "not given": the defaults live in ScenarioConfig.
_FLAGS = {
    "--n": dict(type=int, dest="n_curves", metavar="N", help="number of curves"),
    "--len": dict(type=int, dest="grid_len", help="grid size"),
    "--theta": dict(type=float, help="covariance decay rate (default: n)"),
    "--contamination": dict(choices=[k.value for k in ContaminationKind]),
    "--q": dict(type=float, help="contamination probability"),
    "--M": dict(type=float, dest="magnitude", help="contamination magnitude"),
    "--observe": dict(choices=[k.value for k in ObservationKind], dest="observation"),
    "--m": dict(type=int, dest="n_intervals", help="interval count for --observe intervals"),
    "--p-obs": dict(type=float, dest="p_obs", help="expected observation proportion"),
    "--seed": dict(type=int),
    "--alpha": dict(type=float, help="trimming level"),
    "--depth": dict(choices=[k.value for k in DepthKind]),
    "--phi": dict(choices=sorted(NAMED_PHI)),
    "--reps": dict(type=int, dest="n_reps", metavar="REPS", help="replications per scenario"),
}
_SIMULATION_FLAGS = (
    "--n", "--len", "--theta", "--contamination", "--q", "--M",
    "--observe", "--m", "--p-obs", "--seed",
)
_TRIM_FLAGS = ("--alpha", "--depth", "--phi")

# Bases of the commands whose defaults differ from ScenarioConfig's.
_SIMULATE_BASE = ScenarioConfig(contamination="none")
_PLOT_BASE = ScenarioConfig(contamination="none", alpha=0.3)


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, default=None, **_FLAGS[name])


def _scenario_config(args, base: ScenarioConfig = ScenarioConfig()) -> ScenarioConfig:
    """`base` with every ScenarioConfig field that `args` sets (is not None)."""
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name in ScenarioConfig.__dataclass_fields__ and value is not None
    }
    return replace(base, **overrides)


def _cmd_simulate(args) -> int:
    config = _scenario_config(args, _SIMULATE_BASE)
    sample = simulate_sample(
        config.model(),
        config.n_curves,
        config.contamination_spec(),
        config.observation_spec(),
        config.seed,
    )
    write_curves_csv(args.out, sample)
    print(f"wrote {sample.n_curves} curves on {sample.grid.size} points to {args.out}")
    return 0


def _cmd_depth(args) -> int:
    config = _scenario_config(args)
    sample, names = read_curves_csv(args.input)
    result = poifd_all(sample, kind=config.depth, phi=config.phi)
    write_depth_csv(args.out, names, result.poifd)
    print(f"wrote {len(names)} depths to {args.out}")
    return 0


def _cmd_trim(args) -> int:
    config = _scenario_config(args)
    sample, _ = read_curves_csv(args.input)
    result = poifd_all(sample, kind=config.depth, phi=config.phi)
    trim = select_trim(result.poifd, config.alpha)
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
    config = _scenario_config(args)
    paths = reproduce_tables(
        args.out_dir,
        seed=config.seed,
        jobs=args.jobs,
        n_reps=config.n_reps,
        grid_len=config.grid_len,
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_plot_data(args) -> int:
    config = _scenario_config(args, _PLOT_BASE)
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

    p = sub.add_parser("simulate", help="generate curves and write a curve CSV")
    _add_flags(p, *_SIMULATION_FLAGS)
    p.add_argument("--out", default="curves.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("depth", help="compute integrated depths from a curve CSV")
    p.add_argument("--input", required=True)
    _add_flags(p, "--depth", "--phi")
    p.add_argument("--out", default="depths.csv")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("trim", help="depth-trimmed mean from a curve CSV")
    p.add_argument("--input", required=True)
    _add_flags(p, *_TRIM_FLAGS)
    p.add_argument("--out", default="trimmed_mean.csv")
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("run-scenario", help="run scenarios from JSON config or flags")
    p.add_argument("--config", default=None, help="JSON scenario object or list")
    _add_flags(p, *_SIMULATION_FLAGS, *_TRIM_FLAGS, "--reps")
    p.add_argument("--out", default="scenario_results.csv")
    p.set_defaults(func=_cmd_run_scenario)

    p = sub.add_parser("reproduce-tables", help="run the full benchmark grid")
    p.add_argument("--out-dir", default="tables")
    _add_flags(p, "--seed", "--reps", "--len")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_reproduce_tables)

    p = sub.add_parser("plot-data", help="export plot CSVs and SVG panels")
    _add_flags(p, *_SIMULATION_FLAGS, *_TRIM_FLAGS)
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
