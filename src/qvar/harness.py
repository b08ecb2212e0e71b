"""Experiment orchestration: fit every method per asset, forecast one day
ahead through the test segment, backtest, and aggregate across assets.

All fits use the training segment only and forecasts roll through the test
segment without refitting. run_single, the pool tasks and the joint model
share one fit-and-score body. The joint QCNN pools every asset's windows
once (_joint_pool); _joint_level trains it at one quantile level and scores
each asset with that asset's own scaler. run_joint_qcnn and run_experiment
both run the joint model through these two.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import platform
import signal
from dataclasses import dataclass
from pathlib import Path

# hashlib's own blake2b: importing hashlib loads OpenSSL's libcrypto (3.6 MB
# per process), which hashlib never uses for blake2b
from _blake2 import blake2b

import numpy as np

from .backtest import BacktestResult, score_forecast
from .baselines import (
    constant_var,
    fit_garch,
    fit_linear_qr,
    garch_var_path,
    linear_qr_var_path,
)
from .config import (
    ALL_METHODS,
    METHOD_CONSTANT,
    METHOD_GARCH,
    METHOD_JOINT_QCNN,
    METHOD_LINEAR_QR,
    METHOD_QCNN,
    ExperimentConfig,
    TrainConfig,
)
from .data import (
    ReturnSeries,
    apply_scaler,
    fit_scaler,
    load_manifest,
    load_prices,
    log_returns,
    make_output_dir,
    make_windows,
    pool_windows,
    write_output,
)
from .errors import DomainError, InsufficientDataError, QvarError
from .qcnn import QcnnModel, predict_var_series, save_model, train

logger = logging.getLogger(__name__)

# the asset id of the one skip a joint model that fails as a whole records
WHOLE_LEVEL = "*"

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
    h = blake2b(digest_size=8, key=key)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def _stage(method: str, theta: float) -> str:
    return f"{method}@{theta_tag(theta)}"


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
    It is one _joint_level of run_experiment's joint model, bit for bit.
    """
    model, scored = _joint_level(_joint_pool(series_list, cfg), theta, cfg)
    return {a: o for a, o in scored.items() if not isinstance(o, QvarError)}, model


def _joint_pool(series_list: list[ReturnSeries], cfg: ExperimentConfig):
    """The joint model's training windows, built once for every level.

    Returns the windows pooled over the usable assets (None when fewer than
    two remain) and each asset with its own windows or the QvarError that
    left it out.
    """
    assets = []
    for series in series_list:
        try:
            windows = make_windows(series, fit_scaler(series), window=cfg.window, stride=cfg.stride)
        except QvarError as exc:
            windows = exc
        assets.append((series, windows))
    window_sets = [w for _, w in assets if not isinstance(w, QvarError)]
    return (pool_windows(window_sets) if len(window_sets) >= 2 else None), assets


def _joint_level(pool, theta: float, cfg: ExperimentConfig):
    """Train the joint model at one level on _joint_pool's windows and score
    every asset through _fit_and_score.

    Returns the model and, per asset id, the (VarForecast, BacktestResult)
    or the QvarError that left the asset out or stopped its forecast. With
    no pooled windows the level fails as a whole: InsufficientDataError
    names every left-out asset and its error.
    """
    pooled, assets = pool
    if pooled is None:
        left_out = [(s, w) for s, w in assets if isinstance(w, QvarError)]
        reasons = "".join(f"; left out {s.asset_id} ({type(e).__name__}: {e})" for s, e in left_out)
        raise InsufficientDataError(f"joint training needs at least 2 assets{reasons}")
    model = train(pooled, theta, _train_config_for(cfg, "joint_qcnn", theta))
    score = lambda s: _fit_and_score(s, METHOD_JOINT_QCNN, (theta,), cfg, {theta: model})[theta]
    return model, {s.asset_id: w if isinstance(w, QvarError) else score(s) for s, w in assets}


def aggregate(results: dict[str, list[BacktestResult]]) -> list[MethodSummary]:
    """Cross-asset summary per method: exceedance stats, DQ rejections, mean VaR.

    Methods come in ALL_METHODS order, any other name after them
    alphabetically. The SD is the population formula over assets; rejection
    at level s counts assets with p_value < s, which includes
    zero-exceedance assets (p = 0).
    """
    rank = {method: i for i, method in enumerate(ALL_METHODS)}
    summaries = []
    for method in sorted(results, key=lambda m: (rank.get(m, len(rank)), m)):
        method_results = results[method]
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

    Returns the asset id, its outcome table keyed (asset, method, theta), and
    its series only when cfg.methods holds joint_qcnn, the one reader of a
    series after the task (else None). A file that cannot be read, or whose
    training segment is too short to window, gives (asset id, None, its load
    skip).
    """
    try:
        series = log_returns(load_prices(path))
        if series.split_index < cfg.window + 1:
            raise InsufficientDataError(
                f"training segment has {series.split_index} returns, need >= {cfg.window + 1}"
            )
    except QvarError as exc:
        return path.stem, None, _skip(path.stem, "load", exc)
    outcomes: dict = {}
    for method in cfg.methods:
        if method != METHOD_JOINT_QCNN:
            scored = _fit_and_score(series, method, cfg.thetas, cfg)
            _record(outcomes, series.asset_id, method, scored, cfg)
    return series.asset_id, outcomes, series if METHOD_JOINT_QCNN in cfg.methods else None


def _logged(results, n: int):
    """Pass the asset tasks' results on as they arrive, logging each one's place."""
    for k, result in enumerate(results, 1):
        logger.info("finished asset %s (%d of %d)", result[0], k, n)
        yield result


def _end_with_run(run_pid: int) -> None:
    """Pool initializer: on Linux the worker gets SIGTERM when the run's process ends.

    PR_SET_PDEATHSIG fires when the thread that forked the worker ends. Under
    the fork start method, Python 3.11's pool forks every worker at once from
    the thread that first submits a task, here the main thread through map,
    and never respawns one from its manager thread. The pid check catches a
    run that ended before the call.
    """
    # the calling program's SIGTERM handler, inherited, would keep the worker alive
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if platform.system() == "Linux":
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
        if os.getppid() != run_pid:
            signal.raise_signal(signal.SIGTERM)


def theta_tag(theta: float) -> str:
    """A level's tag in file names: the shortest round-trip form, so distinct
    levels never share a file."""
    return repr(float(theta))


def results_csv_path(output_dir: Path, method: str, theta: float) -> Path:
    return Path(output_dir) / f"results_{method}_theta{theta_tag(theta)}.csv"


def summary_csv_path(output_dir: Path, theta: float) -> Path:
    return Path(output_dir) / f"summary_theta{theta_tag(theta)}.csv"


def _csv_field(text: str) -> str:
    # csv's minimal quoting: a comma, double quote, CR or LF quotes the field
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_results_csv(path: Path, rows: list[tuple[str, BacktestResult]]) -> None:
    lines = ["asset_id,exceedance_rate,dq_stat,p_value,mean_var"]
    for asset_id, r in rows:
        lines.append(
            f"{_csv_field(asset_id)},{r.exceedance_rate!r},{r.dq_statistic!r},"
            f"{r.p_value!r},{r.mean_var!r}"
        )
    write_output(path, "results file", "\n".join(lines) + "\n")


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
    write_output(path, "summary file", "\n".join(lines) + "\n")


def _write_series_csv(output_dir: Path, forecast: VarForecast) -> None:
    path = Path(output_dir) / (
        f"series_{forecast.method}_theta{theta_tag(forecast.theta)}_{forecast.asset_id}.csv"
    )
    # repr once per distinct bit pattern, which keeps -0.0 and 0.0 apart: a
    # constant forecast's file repeats one text
    values = np.asarray(forecast.values, dtype=float)
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    texts = [repr(v) for v in bits.view(float).tolist()]
    days = range(forecast.start_index, forecast.start_index + values.size)
    lines = [f"{day},{texts[k]}" for day, k in zip(days, which.tolist())]
    write_output(path, "series file", "\n".join(["day_index,var", *lines]) + "\n")


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
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    write_output(Path(cfg.output_dir) / "run_manifest.json", "run manifest", text)


def run_experiment(cfg: ExperimentConfig) -> dict[float, list[MethodSummary]]:
    """Run every (asset, method, theta), write the report files, return summaries.

    A pool task is one asset: it loads the price file and sends each
    single-asset method through _fit_and_score, which fits the level-free
    state once (GARCH parameters, a QCNN's scaler and windows) and each
    level's own model after it. It returns the asset id and its outcome
    table, plus its ReturnSeries only when joint_qcnn is among the methods.
    Tasks run on a process pool, imported only then, when workers allow;
    per-task seeds come from the (asset, method, level) identity. The joint
    model's windows are pooled once, and each level is one _joint_level call
    in the main process, as in run_joint_qcnn: a level that fails as a whole
    gets one "*" skip, any other saves its checkpoint and each asset's
    outcome. _record puts every outcome into one table, a BacktestResult
    (writing its series file under write_series) or a skip. A manifest line
    that does not load gets one load skip, and run_manifest.json lists every
    skip sorted by (asset, stage, reason), and is written last. Each finished
    asset task and each trained joint level logs one INFO line. Output is
    deterministic for a fixed config and seed regardless of worker count.
    """
    output_dir = Path(cfg.output_dir)
    make_output_dir(output_dir)
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

    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    workers = min(workers, max(1, len(tasks)))
    if workers > 1:
        # imported here, so a one-worker run loads no multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked workers inherit the parent's modules, so linear_qr's linprog,
        # the one scipy submodule a task imports (GARCH loads only scipy's
        # BLAS extension, by file), is imported once here, not per worker
        if METHOD_LINEAR_QR in cfg.methods:
            import scipy.optimize  # noqa: F401
        # on Linux, fork whatever the default start method (forkserver from
        # Python 3.14): _end_with_run needs each worker to be this process's child
        linux = platform.system() == "Linux"
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork") if linux else None,
            initializer=_end_with_run,
            initargs=(os.getpid(),),
        )
        try:
            results = pool.map(_run_asset, tasks, [cfg] * len(tasks), chunksize=1)
            done = list(_logged(results, len(tasks)))
        except BaseException as exc:
            # the queued tasks go. A stop (KeyboardInterrupt) leaves the running
            # ones to die with this process; a failed task waits for them, as a
            # finished run does
            pool.shutdown(wait=not isinstance(exc, KeyboardInterrupt), cancel_futures=True)
            raise
        pool.shutdown()
    else:
        done = list(_logged((_run_asset(path, cfg) for path in tasks), len(tasks)))

    assets: list[str] = []
    series_list: list[ReturnSeries] = []
    outcomes: dict[tuple[str, str, float], BacktestResult | dict] = {}
    for asset_id, table, kept in done:
        if table is None:
            load_skips.append(kept)
            continue
        assets.append(asset_id)
        outcomes.update(table)
        if kept is not None:
            series_list.append(kept)
    if not assets:
        # the manifest still records why each asset was left out
        write_run_manifest(cfg, [], load_skips)
        raise InsufficientDataError(f"no usable assets in manifest {cfg.manifest}")

    if METHOD_JOINT_QCNN in cfg.methods:
        pool = _joint_pool(series_list, cfg)
        for theta in cfg.thetas:
            try:
                model, scored = _joint_level(pool, theta, cfg)
            except QvarError as exc:
                # the model failed as a whole: one skip stands for every asset
                skip = _skip(WHOLE_LEVEL, _stage(METHOD_JOINT_QCNN, theta), exc)
                outcomes[WHOLE_LEVEL, METHOD_JOINT_QCNN, theta] = skip
                continue
            logger.info("trained joint_qcnn at theta %s", theta_tag(theta))
            save_model(model, output_dir / f"joint_qcnn_theta{theta_tag(theta)}.json")
            for asset_id, outcome in scored.items():
                _record(outcomes, asset_id, METHOD_JOINT_QCNN, {theta: outcome}, cfg)

    summaries_by_theta: dict[float, list[MethodSummary]] = {}
    for theta in cfg.thetas:
        per_method: dict[str, list[BacktestResult]] = {}
        for method in cfg.methods:
            rows = [(asset_id, outcomes.get((asset_id, method, theta))) for asset_id in assets]
            rows = [(asset_id, r) for asset_id, r in rows if isinstance(r, BacktestResult)]
            per_method[method] = [r for _, r in rows]
            write_results_csv(results_csv_path(output_dir, method, theta), rows)
        summaries = aggregate(per_method)
        write_summary_csv(summary_csv_path(output_dir, theta), summaries)
        summaries_by_theta[theta] = summaries

    skips = [o for o in outcomes.values() if not isinstance(o, BacktestResult)]
    write_run_manifest(cfg, assets, load_skips + skips)
    return summaries_by_theta
