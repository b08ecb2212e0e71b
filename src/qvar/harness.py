"""Experiment orchestration: fit every method per asset, forecast one day
ahead through the test segment, backtest, and aggregate across assets.

All fits use the training segment only and forecasts roll through the test
segment without refitting. run_single, run_joint_qcnn, the pool tasks and
the joint model of run_experiment share one fit-and-score body. The joint
QCNN trains once per quantile level on the pooled windows of every asset
and predicts each asset with that asset's own scaler.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import logging
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backtest import BacktestResult, score_forecast
from .baselines import (
    constant_var,
    fit_garch,
    fit_linear_qr,
    garch_var_path,
    linear_qr_var_path,
)
from .data import (
    DEFAULT_WINDOW,
    ReturnSeries,
    apply_scaler,
    fit_scaler,
    load_manifest,
    load_prices,
    log_returns,
    make_windows,
    pool_windows,
)
from .errors import DomainError, InsufficientDataError, QvarError
from .qcnn import QcnnModel, TrainConfig, predict_var_series, save_model, train

logger = logging.getLogger(__name__)

METHOD_CONSTANT = "constant"
METHOD_GARCH = "garch"
METHOD_LINEAR_QR = "linear_qr"
METHOD_QCNN = "qcnn"
METHOD_JOINT_QCNN = "joint_qcnn"
ALL_METHODS = (METHOD_CONSTANT, METHOD_GARCH, METHOD_LINEAR_QR, METHOD_QCNN, METHOD_JOINT_QCNN)
# the asset id of the one skip a joint model that fails as a whole records
WHOLE_LEVEL = "*"

DEFAULT_THETAS = (0.05, 0.01, 0.001)

# the scipy modules a method's tasks import on first use. GARCH's variance
# recursion calls scipy.linalg's BLAS; its Nelder-Mead loop is qvar's own, so a
# GARCH run loads no scipy.optimize
_SCIPY_USED_BY = {
    METHOD_CONSTANT: (),
    METHOD_GARCH: ("scipy.linalg",),
    METHOD_LINEAR_QR: ("scipy.optimize",),
    METHOD_QCNN: (),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full run needs; flags and config files both map onto this."""

    manifest: Path
    output_dir: Path
    thetas: tuple[float, ...] = DEFAULT_THETAS
    methods: tuple[str, ...] = ALL_METHODS
    train: TrainConfig = field(default_factory=TrainConfig)
    window: int = DEFAULT_WINDOW
    stride: int = 1
    seed: int = 0
    sample_size: int | None = None
    workers: int | None = None
    write_series: bool = False

    def __post_init__(self):
        for name in ("methods", "thetas"):
            values = getattr(self, name)
            if not values:
                raise DomainError(f"{name} list must not be empty")
            if len(set(values)) != len(values):
                raise DomainError(f"{name} list repeats a value: {values}")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise DomainError(f"unknown method {m!r}; choose from {ALL_METHODS}")
        for t in self.thetas:
            if not 0.0 < t < 1.0:
                raise DomainError(f"theta {t} must lie strictly inside (0, 1)")
        for name in ("window", "stride", "sample_size", "workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DomainError(f"{name} must be >= 1, got {value}")
        # derive_seed keys its hash with the seed's 8 unsigned bytes
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class VarForecast:
    """One VaR value per test day for a single (asset, method, theta)."""

    asset_id: str
    method: str
    theta: float
    start_index: int
    values: np.ndarray


@dataclass(frozen=True)
class MethodSummary:
    """Cross-asset aggregate for one method at one quantile level."""

    method: str
    n_assets: int
    exceedance_mean: float
    exceedance_median: float
    exceedance_sd: float
    dq_rejection_rate_01: float
    dq_rejection_rate_05: float
    mean_var: float


def derive_seed(master: int, *parts) -> int:
    """Stable per-task sub-seed from the master seed and task identity."""
    key = int(master).to_bytes(8, "little", signed=False)
    h = hashlib.blake2b(digest_size=8, key=key)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def _stage(method: str, theta: float) -> str:
    return f"{method}@{_theta_tag(theta)}"


def _skip(asset: str, stage: str, exc: QvarError) -> dict:
    # one run_manifest.json "skipped" entry, logged once as it is made;
    # "error" names the exception class
    logger.warning("skipping %s at %s: %s", asset, stage, exc)
    return {"asset": asset, "stage": stage, "error": type(exc).__name__, "reason": str(exc)}


def _train_config_for(cfg: ExperimentConfig, *parts) -> TrainConfig:
    return dataclasses.replace(cfg.train, seed=derive_seed(cfg.seed, *parts))


def _var_paths(series: ReturnSeries, method: str, cfg: ExperimentConfig, models=None):
    """The one method switch: fit what no quantile level changes and return
    the level -> VaR path over the test days.

    That is GARCH's parameters with the recursion's starting variance, or a
    QCNN's scaler (and, for qcnn, its training windows). For joint_qcnn,
    `models` maps each level to its jointly trained model.
    """
    # the paths forecast days split..len(history); the last test return is
    # never a forecast input
    history = series.returns[:-1]
    split = series.split_index
    train_returns = series.train
    if method == METHOD_CONSTANT:
        return lambda theta: np.full(len(series) - split, constant_var(train_returns, theta))
    if method == METHOD_GARCH:
        params = fit_garch(train_returns)
        init_var = float(np.var(train_returns - params.mu))
        return lambda theta: garch_var_path(params, history, split, theta, init_var)
    if method == METHOD_LINEAR_QR:
        return lambda theta: linear_qr_var_path(fit_linear_qr(train_returns, theta), history, split)
    if method == METHOD_QCNN:
        scaler = fit_scaler(series)
        windows = make_windows(series, scaler, window=cfg.window, stride=cfg.stride)
        model_for = lambda theta: train(
            windows, theta, _train_config_for(cfg, "qcnn", series.asset_id, theta)
        )
    elif method == METHOD_JOINT_QCNN:
        if models is None:
            raise DomainError("joint_qcnn needs the jointly trained model")
        scaler = fit_scaler(series)
        model_for = models.__getitem__
    else:
        raise DomainError(f"unknown method {method!r}")
    return lambda theta: predict_var_series(
        model_for(theta), apply_scaler(history, scaler), scaler, split
    )


def _fit_and_score(series: ReturnSeries, method: str, thetas, cfg: ExperimentConfig, models=None):
    """Each level's (VarForecast, BacktestResult), or the QvarError that
    stopped it. A failed level-free fit gives every level its error; after
    it, each level is forecast and scored on its own.
    """
    try:
        var_path = _var_paths(series, method, cfg, models)
    except QvarError as exc:
        return dict.fromkeys(thetas, exc)
    out = {}
    for theta in thetas:
        try:
            values = np.asarray(var_path(theta), dtype=float)
            out[theta] = (
                VarForecast(series.asset_id, method, theta, series.split_index, values),
                score_forecast(series.test, values, theta),
            )
        except QvarError as exc:
            out[theta] = exc
    return out


def _record(outcomes: dict, asset_id: str, method: str, scored: dict, cfg: ExperimentConfig):
    """Put _fit_and_score's outcomes into the outcome table: each level's
    BacktestResult, its series file written when cfg.write_series is set,
    or its skip."""
    for theta, outcome in scored.items():
        if isinstance(outcome, QvarError):
            outcomes[asset_id, method, theta] = _skip(asset_id, _stage(method, theta), outcome)
        else:
            forecast, outcomes[asset_id, method, theta] = outcome
            if cfg.write_series:
                _write_series_csv(cfg.output_dir, forecast)


def run_single(
    series: ReturnSeries,
    theta: float,
    method: str,
    cfg: ExperimentConfig,
    model: QcnnModel | None = None,
) -> tuple[VarForecast, BacktestResult]:
    """Fit one method on the training segment and forecast every test day.

    Each forecast uses only information available before its day; the
    constant method emits the same value daily. For joint_qcnn a trained
    model must be supplied.
    """
    models = None if model is None else {theta: model}
    outcome = _fit_and_score(series, method, (theta,), cfg, models)[theta]
    if isinstance(outcome, QvarError):
        raise outcome
    return outcome


def run_joint_qcnn(
    series_list: list[ReturnSeries],
    theta: float,
    cfg: ExperimentConfig,
) -> tuple[dict[str, tuple[VarForecast, BacktestResult]], QcnnModel]:
    """Train one model on the pooled windows of every asset, then forecast each.

    Windows are scaled per asset before pooling; the training shuffle mixes
    them across assets. Predictions unscale with each asset's own scaler. An
    asset whose scaling, windowing or forecast fails is absent from the
    result; the model trains when at least two assets remain. With fewer, it
    raises InsufficientDataError naming every left-out asset and its error.
    """
    members, pooled, left_out = _joint_pool(series_list, cfg)
    model = _train_joint(pooled, left_out, theta, cfg)
    models = {theta: model}
    scored = [_fit_and_score(s, METHOD_JOINT_QCNN, (theta,), cfg, models)[theta] for s in members]
    return {s.asset_id: o for s, o in zip(members, scored) if not isinstance(o, QvarError)}, model


def _joint_pool(series_list: list[ReturnSeries], cfg: ExperimentConfig):
    """The joint model's training windows, built once for every level.

    Returns each usable asset, their pooled windows (None when fewer than
    two remain), and each left-out asset with its error.
    """
    members, window_sets, left_out = [], [], []
    for series in series_list:
        try:
            windows = make_windows(series, fit_scaler(series), window=cfg.window, stride=cfg.stride)
        except QvarError as exc:
            left_out.append((series, exc))
            continue
        members.append(series)
        window_sets.append(windows)
    pooled = pool_windows(window_sets) if len(members) >= 2 else None
    return members, pooled, left_out


def _train_joint(pooled, left_out, theta: float, cfg: ExperimentConfig) -> QcnnModel:
    """The joint model at one level; with no pooled windows, the level's one
    failure, which names every left-out asset."""
    if pooled is None:
        reasons = "".join(
            f"; left out {s.asset_id} ({type(exc).__name__}: {exc})" for s, exc in left_out
        )
        raise InsufficientDataError(f"joint training needs at least 2 assets{reasons}")
    return train(pooled, theta, _train_config_for(cfg, "joint_qcnn", theta))


def aggregate(results: dict[str, list[BacktestResult]]) -> list[MethodSummary]:
    """Cross-asset summary per method: exceedance stats, DQ rejections, mean VaR.

    The SD is the population formula over assets; rejection at level s counts
    assets with p_value < s, which includes zero-exceedance assets (p = 0).
    """
    summaries = []
    for method, method_results in results.items():
        if not method_results:
            continue
        rates = np.array([r.exceedance_rate for r in method_results])
        pvals = np.array([r.p_value for r in method_results])
        summaries.append(
            MethodSummary(
                method=method,
                n_assets=len(method_results),
                exceedance_mean=float(np.mean(rates)),
                exceedance_median=float(np.median(rates)),
                exceedance_sd=float(np.std(rates)),
                dq_rejection_rate_01=float(np.mean(pvals < 0.01)),
                dq_rejection_rate_05=float(np.mean(pvals < 0.05)),
                mean_var=float(np.mean([r.mean_var for r in method_results])),
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# full runs and report files
# ---------------------------------------------------------------------------


def _run_asset(path: Path, cfg: ExperimentConfig):
    """One pool task: load an asset's price file and run every single-asset
    method on it at every level of cfg.thetas through _fit_and_score.

    Returns (None, the load skip) when the file cannot be read or its
    training segment is too short to window; otherwise the series and its
    outcome table, keyed (asset, method, theta).
    """
    try:
        series = log_returns(load_prices(path))
        if series.split_index < cfg.window + 1:
            raise InsufficientDataError(
                f"training segment has {series.split_index} returns, need >= {cfg.window + 1}"
            )
    except QvarError as exc:
        return None, _skip(path.stem, "load", exc)
    outcomes: dict = {}
    for method in cfg.methods:
        if method != METHOD_JOINT_QCNN:
            scored = _fit_and_score(series, method, cfg.thetas, cfg)
            _record(outcomes, series.asset_id, method, scored, cfg)
    return series, outcomes


def _theta_tag(theta: float) -> str:
    return format(theta, "g")


def results_csv_path(output_dir: Path, method: str, theta: float) -> Path:
    return Path(output_dir) / f"results_{method}_theta{_theta_tag(theta)}.csv"


def summary_csv_path(output_dir: Path, theta: float) -> Path:
    return Path(output_dir) / f"summary_theta{_theta_tag(theta)}.csv"


def write_results_csv(path: Path, rows: list[tuple[str, BacktestResult]]) -> None:
    lines = ["asset_id,exceedance_rate,dq_stat,p_value,mean_var"]
    for asset_id, r in rows:
        lines.append(
            f"{asset_id},{r.exceedance_rate!r},{r.dq_statistic!r},{r.p_value!r},{r.mean_var!r}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_summary_csv(path: Path, summaries: list[MethodSummary]) -> None:
    lines = [
        "method,exceedance_mean,exceedance_median,exceedance_sd,"
        "dq_rejection_rate_0.01,dq_rejection_rate_0.05,mean_var"
    ]
    for s in summaries:
        lines.append(
            f"{s.method},{s.exceedance_mean!r},{s.exceedance_median!r},"
            f"{s.exceedance_sd!r},{s.dq_rejection_rate_01!r},"
            f"{s.dq_rejection_rate_05!r},{s.mean_var!r}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_series_csv(output_dir: Path, forecast: VarForecast) -> None:
    path = Path(output_dir) / (
        f"series_{forecast.method}_theta{_theta_tag(forecast.theta)}_{forecast.asset_id}.csv"
    )
    lines = ["day_index,var"]
    for i, v in enumerate(forecast.values):
        lines.append(f"{forecast.start_index + i},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


def write_run_manifest(cfg: ExperimentConfig, assets: list[str], skips: list[dict]) -> None:
    import scipy

    from . import __version__

    # every setting but the two that change no result
    config = dataclasses.asdict(cfg)
    del config["workers"], config["write_series"]
    config.update(manifest=str(cfg.manifest), output_dir=str(cfg.output_dir))
    payload = {
        "qvar_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "config": config,
        "assets": assets,
        # one documented order, whatever order the tasks ran in
        "skipped": sorted(skips, key=lambda s: (s["asset"], s["stage"], s["reason"])),
    }
    path = Path(cfg.output_dir) / "run_manifest.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_experiment(cfg: ExperimentConfig) -> dict[float, list[MethodSummary]]:
    """Run every (asset, method, theta), write the report files, return summaries.

    A pool task is one asset: it loads the price file and sends each
    single-asset method through _fit_and_score, which fits the level-free
    state once (GARCH parameters, a QCNN's scaler and windows) and each
    level's own model after it. Tasks run on a process pool when workers
    allow; per-task seeds come from the (asset, method, level) identity. The
    joint model's pooled windows are built once and it trains once per theta
    in the main process; each pooled asset then goes through the same body.
    _record puts every outcome into one table, a BacktestResult (writing its
    series file under write_series) or a skip. A manifest line that does not
    load gets one load skip, and run_manifest.json lists every skip sorted
    by (asset, stage, reason). Output is deterministic for a fixed config
    and seed regardless of worker count.
    """
    output_dir = Path(cfg.output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        # a name the OS rejects (too long, a NUL byte), or a file in the way
        raise DomainError(f"cannot create output directory {output_dir}: {exc}") from None
    paths = load_manifest(cfg.manifest)
    if cfg.sample_size is not None and cfg.sample_size < len(paths):
        rng = np.random.default_rng(derive_seed(cfg.seed, "asset-sample"))
        chosen = sorted(rng.choice(len(paths), size=cfg.sample_size, replace=False))
        paths = [paths[i] for i in chosen]
    # an asset id names its output files, so only its first path is run
    first: dict[str, Path] = {}
    load_skips = []
    for path in paths:
        if path.stem == WHOLE_LEVEL:
            reserved = DomainError(
                f"asset id {WHOLE_LEVEL!r} is reserved for a joint model's whole-level skip"
            )
            load_skips.append(_skip(path.stem, "load", reserved))
        elif path.stem in first:
            taken = DomainError(f"asset id {path.stem!r} is taken by {first[path.stem]}")
            load_skips.append(_skip(path.stem, "load", taken))
        else:
            first[path.stem] = path
    tasks = list(first.values())

    single_methods = [m for m in cfg.methods if m != METHOD_JOINT_QCNN]
    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    workers = min(workers, max(1, len(tasks)))
    if workers > 1:
        # forked workers inherit the parent's modules, so importing what the
        # tasks use once here spares every worker an import of its own
        for method in single_methods:
            for module in _SCIPY_USED_BY[method]:
                importlib.import_module(module)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_asset, tasks, [cfg] * len(tasks), chunksize=1))
    else:
        done = [_run_asset(path, cfg) for path in tasks]

    series_list: list[ReturnSeries] = []
    outcomes: dict[tuple[str, str, float], BacktestResult | dict] = {}
    for series, loaded in done:
        if series is None:
            load_skips.append(loaded)
        else:
            series_list.append(series)
            outcomes.update(loaded)
    if not series_list:
        # the manifest still records why each asset was left out
        write_run_manifest(cfg, [], load_skips)
        raise InsufficientDataError(f"no usable assets in manifest {cfg.manifest}")

    if METHOD_JOINT_QCNN in cfg.methods:
        members, pooled, left_out = _joint_pool(series_list, cfg)
        models = {}
        for theta in cfg.thetas:
            try:
                models[theta] = _train_joint(pooled, left_out, theta, cfg)
                save_model(models[theta], output_dir / f"joint_qcnn_theta{_theta_tag(theta)}.json")
            except QvarError as exc:
                # the model failed as a whole: one skip stands for every asset
                skip = _skip(WHOLE_LEVEL, _stage(METHOD_JOINT_QCNN, theta), exc)
                outcomes[WHOLE_LEVEL, METHOD_JOINT_QCNN, theta] = skip
        for series in members:
            scored = _fit_and_score(series, METHOD_JOINT_QCNN, tuple(models), cfg, models)
            _record(outcomes, series.asset_id, METHOD_JOINT_QCNN, scored, cfg)
        for series, exc in left_out:
            _record(outcomes, series.asset_id, METHOD_JOINT_QCNN, dict.fromkeys(models, exc), cfg)

    summaries_by_theta: dict[float, list[MethodSummary]] = {}
    for theta in cfg.thetas:
        per_method: dict[str, list[BacktestResult]] = {}
        for method in cfg.methods:
            rows = [(s.asset_id, outcomes.get((s.asset_id, method, theta))) for s in series_list]
            rows = [(asset_id, r) for asset_id, r in rows if isinstance(r, BacktestResult)]
            per_method[method] = [r for _, r in rows]
            write_results_csv(results_csv_path(output_dir, method, theta), rows)
        summaries = aggregate(per_method)
        write_summary_csv(summary_csv_path(output_dir, theta), summaries)
        summaries_by_theta[theta] = summaries

    skips = [o for o in outcomes.values() if not isinstance(o, BacktestResult)]
    write_run_manifest(cfg, [s.asset_id for s in series_list], load_skips + skips)
    return summaries_by_theta
