"""One-day-ahead Value at Risk forecasting with a quantile convolutional
network, classical baselines, and the Dynamic Quantile backtest.

Each public name loads its submodule on first use (PEP 562), so `import
qvar` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "backtest": "BacktestResult HitSeries chi2_sf dq_test hits score_forecast",
        "baselines": "GarchParams QrCoefficients constant_quantile constant_var fit_garch "
        "fit_linear_qr gaussian_quantile",
        "config": "ExperimentConfig TrainConfig",
        "data": "PriceSeries ReturnSeries Scaler WindowSet apply_scaler fit_scaler "
        "invert_scaler load_prices log_returns make_windows",
        "errors": "DegenerateDataError DomainError FitError InsufficientDataError ParseError "
        "QvarError ShapeError",
        "harness": "aggregate run_experiment run_joint_qcnn run_single",
        "qcnn": "AdadeltaState ConvLayer QcnnModel adadelta_step backward build_model "
        "causal_conv_forward forward load_model pinball_loss save_model train",
        "synthlab": "SimSpec SplitMix64 simulate true_var write_price_csv",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
