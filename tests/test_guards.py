"""Argument guards that the pipeline's own calls never trip: each rejects a
malformed input with its error class and a message that names the problem."""

import datetime as dt
import json
from pathlib import Path

import numpy as np
import pytest

from qvar.backtest import HitSeries, dq_regressors
from qvar.baselines import (
    GarchParams,
    QrCoefficients,
    garch_var_path,
    garch_variance_path,
    linear_qr_var_path,
)
from qvar.config import ExperimentConfig
from qvar.data import (
    PriceSeries,
    ReturnSeries,
    Scaler,
    WindowSet,
    fit_scaler,
    make_windows,
    pool_windows,
)
from qvar.errors import DomainError, InsufficientDataError, ShapeError
from qvar.harness import run_single
from qvar.qcnn import (
    ConvLayer,
    QcnnModel,
    backward,
    build_model,
    load_model,
    predict_var_series,
    save_model,
)
from qvar.synthlab import IID_NORMAL, SimSpec

GARCH = GarchParams(omega=0.1, alpha=0.1, beta=0.8, mu=0.0)
DAYS = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))


def conv(out=8, cin=1, k=2, **fields):
    """A rectifier layer of zero weights, with `fields` replaced."""
    spec = dict(weights=np.zeros((out, cin, k)), biases=np.zeros(out), dilation=1)
    return ConvLayer(**{**spec, "activation": "rectifier", **fields})


def windows(width, stride=1):
    """One window of `width` days over an asset of its own."""
    return WindowSet({f"w{width}": np.zeros(width + 1)}, width, stride)


def checkpoint(tmp_path, change):
    """A saved model's checkpoint with `change` applied to its JSON payload."""
    path = tmp_path / "model.json"
    save_model(build_model(0.05), path)
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))
    return path


GUARDS = {
    "backtest-dq-lengths": (
        lambda _: dq_regressors(HitSeries(np.full(5, -0.05), 0.05), np.ones(4)),
        ShapeError, "hits ((5,)) and VaR ((4,)) lengths differ",
    ),
    "baselines-no-returns": (
        lambda _: garch_variance_path(np.array([]), GARCH, 1.0),
        InsufficientDataError, "at least one observation",
    ),
    "baselines-init-var": (
        lambda _: garch_variance_path(np.zeros(3), GARCH, 0.0),
        DomainError, "initial variance must be positive",
    ),
    "baselines-garch-start": (
        lambda _: garch_var_path(GARCH, np.zeros(5), 0, 0.05, 1.0),
        DomainError, "start index 0 outside (0, 5]",
    ),
    "baselines-qr-weights": (
        lambda _: QrCoefficients(intercept=0.0, lag_weights=np.zeros((2, 2)), theta=0.05),
        DomainError, "lag weights must be a flat vector",
    ),
    "baselines-qr-start": (
        lambda _: linear_qr_var_path(QrCoefficients(0.0, np.zeros(4), 0.05), np.zeros(10), 3),
        DomainError, "start index 3 outside [4, 10]",
    ),
    "data-dates-closes": (
        lambda _: PriceSeries("x", DAYS[:1], np.array([1.0, 2.0])),
        DomainError, "x: 1 dates but 2 closes",
    ),
    "data-date-order": (
        lambda _: PriceSeries("x", DAYS[::-1], np.array([1.0, 2.0])),
        DomainError, "x: dates not strictly increasing at 2020-01-01",
    ),
    "data-no-returns": (
        lambda _: ReturnSeries("x", np.array([])),
        DomainError, "x: a return series needs at least one return",
    ),
    "data-window-set-width": (
        lambda _: WindowSet(series={"t": np.zeros(8)}, window=0, stride=1),
        DomainError, "window and stride must be positive: 0, 1",
    ),
    "data-scaler-train": (
        lambda _: fit_scaler(ReturnSeries("x", np.array([0.1, 0.2]))),
        InsufficientDataError, "x: training segment has 1 returns, need >= 2",
    ),
    "data-window": (
        lambda _: make_windows(ReturnSeries("x", np.zeros(300)), Scaler(0.0, 1.0), window=0),
        DomainError, "window and stride must be positive",
    ),
    "data-stride": (
        lambda _: make_windows(ReturnSeries("x", np.zeros(300)), Scaler(0.0, 1.0), stride=0),
        DomainError, "window and stride must be positive",
    ),
    "data-pool-empty": (
        lambda _: pool_windows([]),
        InsufficientDataError, "no window sets to pool",
    ),
    "data-pool-widths": (
        lambda _: pool_windows([windows(4), windows(5)]),
        DomainError, "cannot pool windows of different (window, stride): [(4, 1), (5, 1)]",
    ),
    "data-pool-strides": (
        lambda _: pool_windows([windows(4), windows(4, stride=2)]),
        DomainError, "cannot pool windows of different (window, stride): [(4, 1), (4, 2)]",
    ),
    "qcnn-weights-rank": (
        lambda _: conv(weights=np.zeros((8, 2))),
        ShapeError, "weights must be 3-d, got shape (8, 2)",
    ),
    "qcnn-kernel-size": (
        lambda _: conv(k=0),
        DomainError, "kernel size must be >= 1",
    ),
    "qcnn-dilation": (
        lambda _: conv(dilation=0),
        DomainError, "dilation must be >= 1",
    ),
    "qcnn-biases": (
        lambda _: conv(biases=np.zeros(3)),
        ShapeError, "biases shape (3,) does not match 8 output channels",
    ),
    "qcnn-activation": (
        lambda _: conv(activation="tanh"),
        DomainError, "unknown activation 'tanh'",
    ),
    "qcnn-first-layer": (
        lambda _: QcnnModel([conv(cin=2)], conv(out=1, cin=8, k=1), 0.05),
        ShapeError, "first layer must take a single input channel",
    ),
    "qcnn-channels": (
        lambda _: QcnnModel([conv(), conv(cin=4)], conv(out=1, cin=8, k=1), 0.05),
        ShapeError, "layer expects 4 input channels, previous layer emits 8",
    ),
    "qcnn-head": (
        lambda _: QcnnModel([conv()], conv(out=2, cin=8, k=1), 0.05),
        ShapeError, "head must emit a single channel",
    ),
    "qcnn-backward-lengths": (
        lambda _: backward(build_model(0.05), np.zeros(5), np.zeros(6)),
        ShapeError, "input (1, 5) and target (1, 6) lengths differ",
    ),
    "qcnn-predict-start": (
        lambda _: predict_var_series(build_model(0.05), np.zeros(5), Scaler(0.0, 1.0), 0),
        DomainError, "start index 0 outside (0, 5]",
    ),
    "qcnn-checkpoint-version": (
        lambda tmp: load_model(checkpoint(tmp, lambda p: p.update(version=2))),
        DomainError, "unsupported checkpoint version 2",
    ),
    "qcnn-checkpoint-head": (
        lambda tmp: load_model(checkpoint(tmp, lambda p: p["layers"].pop())),
        DomainError, "checkpoint has no head layer",
    ),
    "synthlab-sigma": (
        lambda _: SimSpec(process=IID_NORMAL, length=10, seed=0, sigma=0.0),
        DomainError, "sigma must be positive",
    ),
    "config-method": (
        lambda _: ExperimentConfig(Path("m"), Path("o"), methods=("bogus",)),
        DomainError, "unknown method 'bogus'",
    ),
    "config-theta": (
        lambda _: ExperimentConfig(Path("m"), Path("o"), thetas=(1.5,)),
        DomainError, "quantile level 1.5 must lie strictly inside (0, 1)",
    ),
    "harness-method": (
        lambda _: run_single(
            ReturnSeries("x", np.zeros(300)), 0.05, "bogus", ExperimentConfig(Path("m"), Path("o"))
        ),
        DomainError, "unknown method 'bogus'",
    ),
}


@pytest.mark.parametrize("call, error, fragment", GUARDS.values(), ids=list(GUARDS))
def test_guard_rejects_its_input(tmp_path, call, error, fragment):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error
    assert fragment in str(raised.value)
