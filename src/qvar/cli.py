"""Command-line entry point: simulate, run, backtest and report subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 fit failure. Errors go
to stderr, results to files or stdout. Every run flag has a config-file
equivalent; flags override the config file, which overrides the defaults
of ExperimentConfig and TrainConfig.
"""

import argparse
import configparser
import dataclasses
import logging
import os
import sys
from collections import namedtuple
from pathlib import Path

# numpy-backed modules load inside the command that uses them, so `qvar
# --help` loads no numpy and main() can pin the BLAS threads before it loads
from .config import (
    ALL_METHODS,
    DEFAULT_HIT_LAGS,
    GARCH11,
    IID_NORMAL,
    ExperimentConfig,
    TrainConfig,
)
from .errors import FitError, ParseError, QvarError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_FIT = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.replace(",", " ").split())
    except ValueError:
        message = f"expected comma-separated numbers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.replace(",", " ").split())


def _parse_bool(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qvar",
        description="One-day-ahead Value at Risk forecasting and backtesting.",
        epilog=(
            "exit codes: 0 success, 1 usage error, 2 data error, 3 fit failure. "
            "`run` writes results_{method}_theta{level}.csv (asset_id, exceedance_rate, "
            "dq_stat, p_value, mean_var), summary_theta{level}.csv, joint model "
            "checkpoints, and run_manifest.json into the output directory."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic price CSV")
    sim.add_argument("--process", choices=[IID_NORMAL, GARCH11], required=True)
    sim.add_argument("--n", type=int, required=True, help="number of returns to simulate")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mu", type=float, default=0.0, help="mean return")
    sim.add_argument("--sigma", type=float, default=1.0, help="iid_normal volatility")
    sim.add_argument("--omega", type=float, default=None, help="garch11 omega")
    sim.add_argument("--alpha", type=float, default=None, help="garch11 alpha")
    sim.add_argument("--beta", type=float, default=None, help="garch11 beta")
    sim.add_argument("--asset-id", default=None)
    sim.add_argument("--out", type=Path, required=True, help="price CSV to write")

    run = sub.add_parser("run", help="run the full experiment over a manifest of assets")
    run.add_argument("--config", type=Path, default=None, help="key=value config file")
    run.add_argument("--manifest", type=Path, default=None)
    run.add_argument("--output-dir", type=Path, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--theta", type=_parse_float_list, default=None, dest="thetas",
                     metavar="THETA", help="comma-separated quantile levels")
    run.add_argument("--methods", type=_parse_str_list, default=None,
                     help=f"comma-separated subset of {','.join(ALL_METHODS)}")
    run.add_argument("--sample-size", type=int, default=None, help="seeded draw of assets from the manifest")
    run.add_argument("--workers", type=int, default=None, help="worker processes (default: available parallelism)")
    run.add_argument("--epochs", type=int, default=None)
    run.add_argument("--batch-size", type=int, default=None)
    run.add_argument("--window", type=int, default=None)
    run.add_argument("--stride", type=int, default=None)
    run.add_argument("--write-series", action="store_true", default=None,
                     help="also write per-asset VaR series CSVs")

    bt = sub.add_parser("backtest", help="score an existing VaR series against a price CSV")
    bt.add_argument("--prices", type=Path, required=True, help="price CSV (date, close)")
    bt.add_argument("--var", type=Path, required=True,
                    help="CSV with a 'var' column, aligned to the last rows of the return series")
    bt.add_argument("--theta", type=float, required=True)
    bt.add_argument("--hit-lags", type=int, default=DEFAULT_HIT_LAGS)

    rep = sub.add_parser("report", help="rebuild summary files from per-asset result CSVs")
    rep.add_argument("--results-dir", type=Path, required=True)

    return parser


# ---------------------------------------------------------------------------
# run config assembly
# ---------------------------------------------------------------------------

# each config key: its section and the parser of its file value. A key is
# also the name of the ExperimentConfig or TrainConfig field it sets and the
# dest of its run flag; those dataclasses give every default.
CONFIG_KEYS = {
    "manifest": ("experiment", Path),
    "output_dir": ("experiment", Path),
    "thetas": ("experiment", _parse_float_list),
    "methods": ("experiment", _parse_str_list),
    "seed": ("experiment", int),
    "sample_size": ("experiment", int),
    "workers": ("experiment", int),
    "write_series": ("experiment", _parse_bool),
    "window": ("train", int),
    "stride": ("train", int),
    "epochs": ("train", int),
    "batch_size": ("train", int),
    "rho": ("train", float),
    "epsilon": ("train", float),
}
# the seed of each task's TrainConfig is derived from the experiment seed
_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}


def _load_config_file(path: Path) -> dict:
    """The config file's non-blank values, parsed and keyed by config key."""
    from .data import open_input

    with open_input(path, "config file") as fh:
        text = fh.read()
    # without interpolation a '%' in a value is a plain character
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        ini.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    sections = {section for section, _ in CONFIG_KEYS.values()}
    out = {}
    for section in ini.sections():
        if section not in sections:
            raise ParseError(f"{path}: unknown config section [{section}]")
        for key, value in ini.items(section):
            if key not in CONFIG_KEYS or CONFIG_KEYS[key][0] != section:
                raise ParseError(f"{path}: unknown key {key!r} in [{section}]")
            # an indented line continues the value above it
            if "\n" in value:
                raise ParseError(f"{path}: value of {key!r} in [{section}] spans lines")
            if value == "":
                continue
            try:
                out[key] = CONFIG_KEYS[key][1](value)
            except (ValueError, KeyError, argparse.ArgumentTypeError) as exc:
                raise QvarError(f"bad value for {key}: {value!r}") from exc
    return out


def experiment_config_from_args(args) -> ExperimentConfig:
    """Merge the optional config file, then the flags given, over the defaults
    of ExperimentConfig and TrainConfig."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    if "manifest" not in values:
        raise QvarError("a manifest is required (--manifest or config [experiment] manifest)")
    if "output_dir" not in values:
        raise QvarError("an output directory is required (--output-dir or config)")
    train = TrainConfig(**{k: values.pop(k) for k in _TRAIN_KEYS & values.keys()})
    return ExperimentConfig(train=train, **values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    from .baselines import GarchParams
    from .data import make_output_dir
    from .synthlab import SimSpec, simulate, write_price_csv

    if args.process == GARCH11:
        if args.omega is None or args.alpha is None or args.beta is None:
            raise QvarError("garch11 simulation needs --omega, --alpha and --beta")
        garch = GarchParams(omega=args.omega, alpha=args.alpha, beta=args.beta, mu=args.mu)
        spec = SimSpec(process=GARCH11, length=args.n, seed=args.seed, garch=garch)
    else:
        spec = SimSpec(
            process=IID_NORMAL, length=args.n, seed=args.seed, mu=args.mu, sigma=args.sigma
        )
    series, _sigma = simulate(spec, asset_id=args.asset_id)
    make_output_dir(args.out.parent)
    write_price_csv(series, args.out)
    print(f"wrote {len(series)} returns as prices to {args.out}")
    return EXIT_OK


def run_experiment(cfg: ExperimentConfig):
    """qvar.harness.run_experiment, imported on the first call."""
    from .harness import run_experiment

    return run_experiment(cfg)


def _cmd_run(args) -> int:
    from .harness import summary_csv_path, theta_tag

    cfg = experiment_config_from_args(args)
    summaries = run_experiment(cfg)
    for theta in cfg.thetas:
        print(f"theta={theta_tag(theta)}  (summary: {summary_csv_path(cfg.output_dir, theta)})")
        for s in summaries[theta]:
            print(
                f"  {s.method:<11} exceed mean={s.exceedance_mean:.4f} "
                f"median={s.exceedance_median:.4f} sd={s.exceedance_sd:.4f} "
                f"rej@0.01={s.dq_rejection_rate_01:.2f} rej@0.05={s.dq_rejection_rate_05:.2f} "
                f"mean VaR={s.mean_var:.4f}"
            )
    return EXIT_OK


def _cmd_backtest(args) -> int:
    from .backtest import score_forecast
    from .data import finite_floats, load_prices, log_returns, read_csv

    series = log_returns(load_prices(args.prices))
    (var,) = read_csv(args.var, "VaR file", {"var": finite_floats})
    if not var.size:
        raise ParseError(f"{args.var}: no VaR rows")
    if var.size > len(series):
        raise QvarError(
            f"VaR series ({var.size}) is longer than the return series ({len(series)})"
        )
    returns = series.returns[len(series) - var.size :]
    result = score_forecast(returns, var, args.theta, hit_lags=args.hit_lags)
    print(f"asset: {series.asset_id}")
    print(f"days: {result.n_days}  exceedances: {result.n_exceedances}")
    print(f"exceedance_rate: {result.exceedance_rate!r}")
    print(f"mean_var: {result.mean_var!r}")
    print(f"dq_stat: {result.dq_statistic!r}  dof: {result.dof}  p_value: {result.p_value!r}")
    return EXIT_OK


_ResultRow = namedtuple("_ResultRow", "exceedance_rate p_value mean_var")


def _cmd_report(args) -> int:
    from .data import finite_floats, read_csv, reading
    from .harness import aggregate, write_summary_csv

    results_dir = Path(args.results_dir)
    groups: dict[str, dict[str, list[_ResultRow]]] = {}
    with reading(results_dir, "results directory"):
        paths = sorted(p for p in results_dir.iterdir() if p.match("results_*_theta*.csv"))
    for path in paths:
        stem = path.stem[len("results_") :]
        method, _, tag = stem.rpartition("_theta")
        try:
            finite_floats([tag])
        except ValueError as exc:
            raise ParseError(f"{path}: quantile level in the name: {exc}") from None
        columns = read_csv(path, "results file", dict.fromkeys(_ResultRow._fields, finite_floats))
        groups.setdefault(tag, {})[method] = [_ResultRow(*values) for values in zip(*columns)]
    if not groups:
        raise ParseError(f"no results_*_theta*.csv files in {results_dir}")
    for tag in sorted(groups, key=float):
        summaries = aggregate(groups[tag])
        out = results_dir / f"summary_theta{tag}.csv"
        write_summary_csv(out, summaries)
        print(f"theta={tag}: {len(summaries)} methods -> {out}")
    return EXIT_OK


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    # qvar's matrix products are sized to run on one thread and it runs in
    # parallel through --workers processes, so an OpenBLAS thread pool only
    # spins. numpy and scipy read this when they load; a preset value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "run": _cmd_run,
        "backtest": _cmd_backtest,
        "report": _cmd_report,
    }
    import signal  # past the parser, which `qvar --help` never gets beyond

    # SIGTERM stops a command as SIGINT does, by a KeyboardInterrupt that
    # unwinds through a run's pool shutdown
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return handlers[args.command](args)
    except FitError as exc:
        print(f"qvar: fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except QvarError as exc:
        print(f"qvar: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt as stop:
        # die by the stopping signal, so exit codes 0-3 keep their meaning, and
        # without the wait at exit for pool tasks still running
        signum = stop.args[0] if stop.args else signal.SIGINT
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
