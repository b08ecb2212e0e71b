"""Experiment orchestration: fit every method per asset, forecast one day
ahead through the test segment, backtest, and aggregate across assets.

All fits use the training segment only and forecasts roll through the test
segment without refitting. The joint QCNN trains once per quantile level on
the pooled windows of every asset and predicts each asset with that asset's
own scaler.
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


def _fit_level_free(series: ReturnSeries, method: str, cfg: ExperimentConfig):
    """The part of a method's fit that no quantile level changes.

    GARCH parameters with the recursion's starting variance, or a QCNN's
    scaler (and, for qcnn, its training windows); None for the methods that
    fit per level.
    """
    train_returns = series.train
    if method == METHOD_GARCH:
        params = fit_garch(train_returns)
        return params, float(np.var(train_returns - params.mu))
    if method in (METHOD_QCNN, METHOD_JOINT_QCNN):
        scaler = fit_scaler(series)
        if method == METHOD_JOINT_QCNN:
            return scaler, None
        return scaler, make_windows(series, scaler, window=cfg.window, stride=cfg.stride)
    return None


def _forecast(
    series: ReturnSeries,
    theta: float,
    method: str,
    cfg: ExperimentConfig,
    fitted,
    model: QcnnModel | None = None,
) -> tuple[VarForecast, BacktestResult]:
    # the path functions forecast days split..len(history); the last test
    # return is never a forecast input
    history = series.returns[:-1]
    split = series.split_index
    train_returns = series.train

    if method == METHOD_CONSTANT:
        values = np.full(len(series) - split, constant_var(train_returns, theta))
    elif method == METHOD_GARCH:
        params, init_var = fitted
        values = garch_var_path(params, history, split, theta, init_var)
    elif method == METHOD_LINEAR_QR:
        coeffs = fit_linear_qr(train_returns, theta)
        values = linear_qr_var_path(coeffs, history, split)
    elif method in (METHOD_QCNN, METHOD_JOINT_QCNN):
        scaler, windows = fitted
        if method == METHOD_QCNN:
            model = train(
                windows, theta, _train_config_for(cfg, "qcnn", series.asset_id, theta)
            )
        elif model is None:
            raise DomainError("joint_qcnn needs the jointly trained model")
        values = predict_var_series(model, apply_scaler(history, scaler), scaler, split)
    else:
        raise DomainError(f"unknown method {method!r}")

    forecast = VarForecast(
        asset_id=series.asset_id,
        method=method,
        theta=theta,
        start_index=split,
        values=np.asarray(values, dtype=float),
    )
    result = score_forecast(series.test, forecast.values, theta)
    return forecast, result


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
    return _forecast(series, theta, method, cfg, _fit_level_free(series, method, cfg), model)


def run_joint_qcnn(
    series_list: list[ReturnSeries],
    theta: float,
    cfg: ExperimentConfig,
) -> tuple[dict[str, tuple[VarForecast, BacktestResult]], QcnnModel]:
    """Train one model on the pooled windows of every asset, then forecast each.

    Windows are scaled per asset before pooling; the training shuffle mixes
    them across assets. Predictions unscale with each asset's own scaler. An
    asset whose scaling, windowing or forecast fails is left out with a
    warning and is absent from the result; the model trains when at least
    two assets remain. With fewer, it raises InsufficientDataError naming
    every left-out asset and its error.
    """
    outcomes, model = _run_joint_level(_joint_pool(series_list, cfg), theta, cfg)
    return {a: o for a, o in outcomes.items() if isinstance(o, tuple)}, model


def _joint_pool(series_list: list[ReturnSeries], cfg: ExperimentConfig):
    """The joint model's level-free state, fitted once for every level.

    Returns each usable asset with its scaler, their pooled windows (None
    when fewer than two remain), and each left-out asset with its error.
    """
    members, window_sets, left_out = [], [], []
    for series in series_list:
        try:
            scaler = fit_scaler(series)
            windows = make_windows(series, scaler, window=cfg.window, stride=cfg.stride)
        except QvarError as exc:
            left_out.append((series, exc))
            continue
        members.append((series, scaler))
        window_sets.append(windows)
    pooled = pool_windows(window_sets) if len(members) >= 2 else None
    return members, pooled, left_out


def _run_joint_level(joint_pool, theta: float, cfg: ExperimentConfig):
    """run_joint_qcnn at one level, from the state _joint_pool fitted.

    Returns each asset's outcome, its (forecast, result) or its skip, and
    the model; a left-out asset's skip is made only once the model trains.
    """
    members, pooled, left_out = joint_pool
    if pooled is None:
        # the level's one failure then stands for every asset, so no asset
        # gets a skip of its own
        reasons = "".join(
            f"; left out {s.asset_id} ({type(exc).__name__}: {exc})" for s, exc in left_out
        )
        raise InsufficientDataError(f"joint training needs at least 2 assets{reasons}")
    model = train(pooled, theta, _train_config_for(cfg, "joint_qcnn", theta))
    stage = _stage(METHOD_JOINT_QCNN, theta)
    out = {s.asset_id: _skip(s.asset_id, stage, exc) for s, exc in left_out}
    for series, scaler in members:
        try:
            out[series.asset_id] = _forecast(
                series, theta, METHOD_JOINT_QCNN, cfg, (scaler, None), model
            )
        except QvarError as exc:
            out[series.asset_id] = _skip(series.asset_id, stage, exc)
    return out, model


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
    method on it at every level of cfg.thetas.

    Returns (None, the load skip) when the file cannot be read or its
    training segment is too short to window; otherwise the series and its
    outcome table, keyed (asset, method, theta). A method's level-free fit
    runs once; if it fails, every level records its error. Otherwise each
    level is forecast and scored on its own, so a failing level records
    only its own skip.
    """
    try:
        series = log_returns(load_prices(path))
        if series.split_index < cfg.window + 1:
            raise InsufficientDataError(
                f"training segment has {series.split_index} returns, need >= {cfg.window + 1}"
            )
    except QvarError as exc:
        return None, _skip(path.stem, "load", exc)
    asset_id = series.asset_id
    outcomes: dict = {}
    for method in cfg.methods:
        if method == METHOD_JOINT_QCNN:
            continue
        try:
            fitted = _fit_level_free(series, method, cfg)
        except QvarError as exc:
            for theta in cfg.thetas:
                outcomes[asset_id, method, theta] = _skip(asset_id, _stage(method, theta), exc)
            continue
        for theta in cfg.thetas:
            key = (asset_id, method, theta)
            try:
                forecast, outcomes[key] = _forecast(series, theta, method, cfg, fitted)
            except QvarError as exc:
                outcomes[key] = _skip(asset_id, _stage(method, theta), exc)
                continue
            if cfg.write_series:
                _write_series_csv(cfg.output_dir, forecast)
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

    A task is one asset: it loads the price file, runs each single-asset
    method over every quantile level, fitting the level-free state once
    (GARCH parameters, a QCNN's scaler and windows) and each level's own
    model after it, and writes the asset's series files. Tasks are
    independent and run on a process pool when workers allow; per-task
    seeds still come from the (asset, method, level) identity. The joint
    model's pooled windows are built once, and it trains once per theta in
    the main process. Each (asset, method, theta) ends as one entry of one
    outcome table, its BacktestResult or its skip; a manifest line that
    does not load gets one load skip, and run_manifest.json lists every skip
    sorted by (asset, stage, reason). Output is deterministic for a fixed
    config and seed regardless of worker count.
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

    joint_pool = _joint_pool(series_list, cfg) if METHOD_JOINT_QCNN in cfg.methods else None
    summaries_by_theta: dict[float, list[MethodSummary]] = {}
    for theta in cfg.thetas:
        if joint_pool is not None:
            try:
                joint, joint_model = _run_joint_level(joint_pool, theta, cfg)
                save_model(joint_model, output_dir / f"joint_qcnn_theta{_theta_tag(theta)}.json")
            except QvarError as exc:
                # the model failed as a whole: one skip stands for every asset
                skip = _skip(WHOLE_LEVEL, _stage(METHOD_JOINT_QCNN, theta), exc)
                outcomes[WHOLE_LEVEL, METHOD_JOINT_QCNN, theta] = skip
            else:
                for asset_id, outcome in joint.items():
                    if isinstance(outcome, tuple):
                        forecast, outcome = outcome
                        if cfg.write_series:
                            _write_series_csv(output_dir, forecast)
                    outcomes[asset_id, METHOD_JOINT_QCNN, theta] = outcome

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
