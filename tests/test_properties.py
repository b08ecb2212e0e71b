"""Property tests: every forecaster keeps the path contract under random
truncation, the fitters turn hostile inputs into qvar errors only, a
window set lays out every (asset, start) in order, GARCH's
variance recursion and Nelder-Mead loop match scipy's bit for bit, price
files load back bit-exact in date order, a run survives broken price files
and gives every (asset, method, level) of a hostile panel one row or one
skip, a VaR of any finite scale is scored or refused, broken VaR,
results and config files end in no traceback, and the bulk forms of
per-value work keep the bits of the per-value forms: a CSV parsed by column
reads as one parsed field by field, GARCH's buffered likelihood is a freshly
allocated one, and a series file is the per-value repr loop."""

import csv
import datetime as dt
import json
import math
import warnings
import zlib
from pathlib import Path
from unittest.mock import patch

import numpy as np
import scipy.linalg.blas
import scipy.optimize
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qvar import baselines
from qvar.baselines import (
    MIN_GARCH_OBS,
    QR_LAGS,
    GarchParams,
    QrCoefficients,
    fit_garch,
    fit_linear_qr,
    garch_var_path,
    garch_variance_path,
    linear_qr_var_path,
)
from qvar.backtest import score_forecast
from qvar.cli import main
from qvar.data import (
    ReturnSeries,
    Scaler,
    WindowSet,
    finite_floats,
    fit_scaler,
    iso_dates,
    load_prices,
    make_windows,
    open_input,
    pool_windows,
    prices_from_returns,
    read_csv,
)
from qvar.errors import DomainError, ParseError, QvarError
from qvar.harness import ALL_METHODS, VarForecast, _write_series_csv
from qvar.qcnn import build_model, predict_var_series
from qvar.synthlab import IID_NORMAL, SimSpec, simulate, write_price_csv

THETAS = (0.05, 0.01, 0.001)


@st.composite
def truncated_histories(draw):
    """A seeded history h, a first forecast day `start` and a cut in [start, len(h)]."""
    n = draw(st.integers(QR_LAGS, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-4, 0.01, 1.0)))
    history = scale * rng.standard_normal(n)
    start = draw(st.integers(QR_LAGS, n))
    cut = draw(st.integers(start, n))
    return history, start, cut


@settings(max_examples=30, deadline=None)
@given(
    case=truncated_histories(),
    theta=st.sampled_from(THETAS),
    alpha=st.floats(0.0, 0.3),
    beta=st.floats(0.0, 0.69),
    init_var=st.floats(1e-8, 4.0),
)
def test_garch_path_contract(case, theta, alpha, beta, init_var):
    h, start, cut = case
    p = GarchParams(omega=1e-3, alpha=alpha, beta=beta, mu=float(np.mean(h)))
    path = garch_var_path(p, h, start, theta, init_var)
    assert path.shape == (h.size - start + 1,)
    assert np.array_equal(garch_var_path(p, h[:cut], start, theta, init_var), path[: cut - start + 1])


def variance_loop(returns, params, init_var):
    """The GARCH variance recursion as a plain Python loop."""
    sigma2 = [init_var]
    for r in returns[:-1]:
        e = float(r) - params.mu
        sigma2.append(params.omega + params.alpha * (e * e) + params.beta * sigma2[-1])
    return np.array(sigma2)


@st.composite
def garch_recursions(draw):
    """Parameters, a positive starting variance and 1-600 returns, some of
    them extreme.

    alpha and beta each take 0, 1 - 1e-9 or a value in between, kept to
    alpha + beta < 1; omega = 0 lies outside GarchParams' domain, so the
    smallest positive double stands in for it.
    """
    unit = st.one_of(st.sampled_from((0.0, 1.0 - 1e-9)), st.floats(0.0, 1.0, exclude_max=True))
    alpha, beta = draw(unit), draw(unit)
    assume(alpha + beta < 1.0)
    positive = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    omega = draw(st.one_of(st.just(5e-324), positive))
    params = GarchParams(omega=omega, alpha=alpha, beta=beta, mu=draw(st.floats(-1.0, 1.0)))
    init_var = draw(st.floats(5e-324, 1e300))
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    returns = draw(st.sampled_from((1e-4, 0.01, 1.0))) * rng.standard_normal(n)
    at = draw(st.lists(st.integers(0, n - 1), max_size=3))
    returns[at] = draw(st.sampled_from((-1.0, 1.0))) * draw(st.sampled_from((1e3, 1e50, 1e150)))
    return params, init_var, returns, draw(st.integers(1, n))


# the smallest omega with near-unit alpha, started at its (subnormal) unconditional variance
SUBNORMAL_GARCH = GarchParams(omega=5e-324, alpha=1.0 - 1e-9, beta=0.0, mu=0.0)


@settings(max_examples=100, deadline=None)
@given(case=garch_recursions())
@example(case=(SUBNORMAL_GARCH, SUBNORMAL_GARCH.unconditional_variance, np.r_[1e150, -1.0, 0.0], 2))
@example(case=(GarchParams(omega=1e-3, alpha=0.0, beta=1.0 - 1e-9, mu=0.0), 1e-8,
               np.random.default_rng(0).standard_normal(600), 300))
def test_garch_variance_path_is_the_recursion(case):
    params, init_var, returns, cut = case
    path = garch_variance_path(returns, params, init_var)
    # values below the normal range (2.2e-308) compare absolutely
    np.testing.assert_allclose(
        path, variance_loop(returns, params, init_var), rtol=1e-13, atol=np.finfo(float).tiny
    )
    assert np.array_equal(garch_variance_path(returns[:cut], params, init_var), path[:cut])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((1e-4, 0.01, 1.0, 1e50)),
    omega=st.floats(0.0, 1.0, exclude_min=True),
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 1.0, exclude_max=True),
    init_var=st.floats(5e-324, 1e300),
)
def test_variance_recursion_is_scipy_dtbsv(n, seed, scale, omega, alpha, beta, init_var):
    # the recursion is a fused multiply-add scan whose bits only BLAS gives;
    # this pins qvar's band solve to scipy's dtbsv on the same system
    eps2 = (scale * np.random.default_rng(seed).standard_normal(n)) ** 2
    driver = np.r_[init_var, omega + alpha * eps2]
    band = np.full((2, n + 1), -beta, order="F")
    want = scipy.linalg.blas.dtbsv(1, band, driver, lower=1, diag=1)
    got = baselines._variance_recursion(eps2, omega, alpha, beta, init_var)
    assert got.tobytes() == want.tobytes()
    # with diag=1 the solve never reads the band's diagonal row, which the
    # recursion leaves unfilled
    rhs, unfilled = baselines._recursion_buffers(n)
    unfilled[0] = np.nan
    got = baselines._variance_recursion(eps2, omega, alpha, beta, init_var, (rhs, unfilled))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    case=truncated_histories(),
    intercept=st.floats(-1.0, 1.0),
    weights=st.lists(st.floats(-1.0, 1.0), min_size=QR_LAGS, max_size=QR_LAGS),
)
def test_linear_qr_path_contract(case, intercept, weights):
    h, start, cut = case
    c = QrCoefficients(intercept=intercept, lag_weights=np.array(weights), theta=0.05)
    path = linear_qr_var_path(c, h, start)
    assert path.shape == (h.size - start + 1,)
    assert np.array_equal(linear_qr_var_path(c, h[:cut], start), path[: cut - start + 1])


@settings(max_examples=30, deadline=None)
@given(
    case=truncated_histories(),
    theta=st.sampled_from(THETAS),
    model_seed=st.integers(0, 1000),
    mean=st.floats(-0.01, 0.01),
    std=st.floats(1e-4, 0.1),
)
def test_qcnn_path_contract(case, theta, model_seed, mean, std):
    h, start, cut = case
    model = build_model(theta, seed=model_seed)
    scaler = Scaler(mean=mean, std=std)
    path = predict_var_series(model, h, scaler, start)
    assert path.shape == (h.size - start + 1,)
    assert np.array_equal(predict_var_series(model, h[:cut], scaler, start), path[: cut - start + 1])


@st.composite
def hostile_returns(draw):
    """Return series shaped like the inputs that break fitters: regime shifts,
    flat stretches, spikes and series at or below the minimum lengths."""
    kind = draw(st.sampled_from(("iid", "regime_shift", "flat_stretch", "spike", "short")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-4, 0.01, 1.0)))
    n = draw(st.integers(0, 120)) if kind == "short" else draw(st.integers(100, 500))
    r = scale * rng.standard_normal(n)
    if kind == "regime_shift":
        at = draw(st.integers(0, n))
        r[at:] *= draw(st.sampled_from((0.01, 0.1, 10.0, 100.0)))
    elif kind == "flat_stretch":
        lo = draw(st.integers(0, n))
        r[lo : draw(st.integers(lo, n))] = 0.0
    elif kind == "spike":
        at = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        r[at] = draw(st.sampled_from((-1.0, 1.0))) * draw(st.sampled_from((20.0, 1e3))) * scale
    return r


@settings(max_examples=30, deadline=None)
@given(returns=hostile_returns(), theta=st.sampled_from(THETAS))
# iid normal draws on which the alpha-share logistic used to overflow
@example(returns=np.random.default_rng(4).standard_normal(500), theta=0.05)
# a start simplex whose omega overflows exp, and a sample variance that overflows
@example(returns=1e150 * np.random.default_rng(0).standard_normal(500), theta=0.05)
@example(returns=1e153 * np.random.default_rng(0).standard_normal(500), theta=0.05)
def test_fitters_raise_only_qvar_errors(returns, theta):
    try:
        params = fit_garch(returns)
        assert all(math.isfinite(v) for v in (params.omega, params.alpha, params.beta))
    except QvarError:
        pass
    try:
        coeffs = fit_linear_qr(returns, theta)
        assert np.all(np.isfinite(coeffs.lag_weights)) and math.isfinite(coeffs.intercept)
    except QvarError:
        pass
    if returns.size >= 2:
        series = ReturnSeries(asset_id="x", returns=returns)
        try:
            make_windows(series, fit_scaler(series), window=32)
        except QvarError:
            pass


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    window=st.integers(1, 20),
    stride=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[3, 5], window=5, stride=1, seed=0)  # no series holds a window
def test_window_layout_is_every_start_in_order(lengths, window, stride, seed):
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(n) for n in lengths]
    series = {f"a{i}": row for i, row in enumerate(rows)}
    windows = WindowSet(series, window, stride)
    # every start on the stride whose targets end inside its series
    origins = [
        (g, s)
        for g, n in enumerate(lengths)
        for s in range(n)
        if s % stride == 0 and s + window < n
    ]
    offsets = np.cumsum([0, *lengths])
    days, group, start = windows.layout()
    assert len(windows) == len(origins)
    assert np.array_equal(days, np.concatenate(rows))
    assert group.dtype == np.intp and start.dtype == np.int64
    assert list(zip(group.tolist(), (start - offsets[group]).tolist())) == origins
    for shift, got in ((0, windows.inputs), (1, windows.targets)):
        expected = [rows[g][s + shift : s + shift + window] for g, s in origins]
        assert got.shape == (len(origins), window)
        assert np.array_equal(got, np.array(expected).reshape(got.shape))
    pooled = pool_windows([WindowSet({a: v}, window, stride) for a, v in series.items()])
    for got, expected in zip(pooled.layout(), (days, group, start)):
        assert np.array_equal(got, expected) and got.dtype == expected.dtype


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    k=st.integers(-300, 300),
    theta=st.sampled_from(THETAS),
)
# 90% of the VaR at 1e160: the DQ Gram matrix overflows and used to score a pass
@example(seed=0, n=300, k=160, theta=0.05)
@example(seed=0, n=300, k=153, theta=0.05)
def test_score_forecast_takes_any_finite_var_scale(seed, n, k, theta):
    """A finite VaR of any size is scored or refused with a QvarError; a
    numpy warning on the way fails the test."""
    rng = np.random.default_rng(seed)
    returns = rng.standard_normal(n)
    var = np.where(rng.random(n) < 0.9, 10.0**k * rng.uniform(0.5, 2.0, n), -5.0)
    try:
        result = score_forecast(returns, var, theta)
    except QvarError:
        return
    assert math.isfinite(result.dq_statistic) and result.dq_statistic >= 0.0
    assert 0.0 <= result.p_value <= 1.0 and math.isfinite(result.mean_var)


def garch_objective(returns):
    """The objective and start point fit_garch hands its Nelder-Mead loop,
    or None when the fit stops before the loop."""
    seen = []
    real = baselines._nelder_mead

    def record(func, x0):
        seen.append((func, x0))
        return real(func, x0)

    with patch.object(baselines, "_nelder_mead", record):
        try:
            fit_garch(returns)
        except QvarError:
            pass
    return seen[0] if seen else None


@settings(max_examples=30, deadline=None)
@given(
    returns=hostile_returns().filter(lambda r: r.size >= MIN_GARCH_OBS),
    maxfev=st.sampled_from((5, 7, 17, 8000)),
    poison=st.sampled_from((None, (1, math.nan), (2, math.nan), (3, math.inf), (5, math.nan))),
)
# an all-NaN objective shrinks on every step, so the cap of 17 stops a
# shrink after moving its first vertex
@example(returns=np.random.default_rng(4).standard_normal(500), maxfev=17, poison=(1, math.nan))
# the start simplex's omega overflows exp, so one vertex's objective is inf
@example(returns=1e150 * np.random.default_rng(0).standard_normal(500), maxfev=8000, poison=None)
def test_nelder_mead_matches_scipy(returns, maxfev, poison):
    # fit_garch's Nelder-Mead loop copies scipy's op for op; this guards
    # against scipy changing its algorithm under that copy. Both runs must
    # evaluate the same points in the same order. A poisoned objective
    # returns NaN or inf at the points whose bytes hash to 0 modulo its period.
    found = garch_objective(returns)
    assume(found is not None)
    objective, x0 = found
    period, value = poison or (None, None)

    def traced(points):
        def func(x):
            points.append(x.tobytes())
            if period is not None and zlib.crc32(x.tobytes()) % period == 0:
                return value
            return objective(x)

        return func

    want_points, points = [], []
    want = scipy.optimize.minimize(
        traced(want_points),
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000, "maxfev": maxfev},
    )
    x, fun, nit, nfev, message = baselines._nelder_mead(traced(points), x0, maxfev=maxfev)
    assert points == want_points
    assert x.tobytes() == want.x.tobytes()
    assert np.float64(fun).tobytes() == np.float64(want.fun).tobytes()
    assert (nit, nfev, message) == (want.nit, want.nfev, want.message)


@st.composite
def dated_closes(draw):
    """Positive closes on distinct dates, with a row order to write them in."""
    n = draw(st.integers(2, 60))
    ordinals = draw(
        st.lists(
            st.integers(dt.date(1900, 1, 1).toordinal(), dt.date(2100, 12, 31).toordinal()),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    closes = draw(
        st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return [dt.date.fromordinal(o) for o in ordinals], closes, draw(st.permutations(range(n)))


@settings(max_examples=30, deadline=None)
@given(case=dated_closes())
def test_price_csv_round_trip(tmp_path_factory, case):
    dates, closes, row_order = case
    directory = tmp_path_factory.mktemp("prices")

    def load_rows(name, order):
        rows = [f"{dates[i].isoformat()},{closes[i]!r}" for i in order]
        (directory / name).write_text("date,close\n" + "\n".join(rows) + "\n")
        return load_prices(directory / name)

    by_date = sorted(range(len(dates)), key=lambda i: dates[i])
    shuffled = load_rows("shuffled.csv", row_order)
    in_order = load_rows("sorted.csv", by_date)
    assert shuffled.dates == tuple(dates[i] for i in by_date)
    assert shuffled.closes.tobytes() == np.array([closes[i] for i in by_date]).tobytes()
    assert shuffled.dates == in_order.dates
    assert shuffled.closes.tobytes() == in_order.closes.tobytes()


BROKEN_KINDS = (
    "not_utf_8", "nul", "byte_order_mark", "missing_column", "bad_close",
    "duplicate_date", "oversized_field",
)


@st.composite
def broken_price_files(draw):
    """The bytes of a price file that would load, with one defect that must stop it."""
    n = 60
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    rows = [[d.isoformat().encode(), repr(100.0 + i % 7).encode()] for i, d in enumerate(dates)]
    header = b"date,close"
    at = draw(st.integers(0, n - 1))
    col = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(BROKEN_KINDS))
    if kind == "not_utf_8":
        rows[at][col] += draw(st.sampled_from((b"\xff", b"\xc3\x28", b"\x80", b"\xe9")))
    elif kind == "nul":
        field = rows[at][col]
        cut = draw(st.integers(0, len(field)))
        rows[at][col] = field[:cut] + b"\x00" + field[cut:]
    elif kind == "byte_order_mark":
        # legal before the header only
        rows[at][col] = b"\xef\xbb\xbf" + rows[at][col]
    elif kind == "missing_column":
        if draw(st.booleans()):
            header = draw(st.sampled_from((b"date,price", b"day,close", b"date")))
        else:
            rows[at] = rows[at][:1]
    elif kind == "bad_close":
        rows[at][1] = draw(st.sampled_from((b"abc", b"", b"0", b"-3.5", b"nan", b"inf", b"1e")))
    elif kind == "duplicate_date":
        rows[at][0] = rows[(at + 1) % n][0]
    else:
        rows[at][col] = b"1" * draw(st.integers(131_073, 140_000))
    return header + b"\n" + b"\n".join(b",".join(r) for r in rows) + b"\n"


# a name longer than any file system takes, so no file can be made for it
TOO_LONG = "x" * 300


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(broken=st.lists(broken_price_files(), min_size=1, max_size=3))
# None: a manifest line naming a file too long for the OS to open
@example(broken=[None])
def test_run_skips_broken_price_files(tmp_path_factory, capfd, broken):
    directory = tmp_path_factory.mktemp("panel")
    names = []
    for i in range(2):
        series, _ = simulate(SimSpec(process=IID_NORMAL, length=100, seed=i), asset_id=f"good{i}")
        write_price_csv(series, directory / f"good{i}.csv")
        names.append(f"good{i}.csv")
    bad_ids = []
    for i, content in enumerate(broken):
        bad_ids.append(f"bad{i}" if content is not None else f"bad{i}{TOO_LONG}")
        if content is not None:
            (directory / f"bad{i}.csv").write_bytes(content)
        names.insert(1, f"{bad_ids[-1]}.csv")
    (directory / "assets.txt").write_text("\n".join(names) + "\n")
    written = {}
    for workers in ("1", "2"):
        out = directory / f"out{workers}"
        code = main(["run", "--manifest", str(directory / "assets.txt"), "--output-dir", str(out),
                     "--methods", "constant", "--theta", "0.05", "--window", "16",
                     "--workers", workers])
        assert code == 0
        assert "Traceback" not in capfd.readouterr().err
        skipped = json.loads((out / "run_manifest.json").read_text())["skipped"]
        assert sorted((s["asset"], s["stage"]) for s in skipped) == [
            (asset, "load") for asset in sorted(bad_ids)
        ]
        rows = (out / "results_constant_theta0.05.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["good0", "good1"]
        written[workers] = skipped, {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"
        }
    assert written["1"] == written["2"]


def _outcomes_per_level(out, manifest, methods, thetas):
    """For every loaded asset, method and level: how many result rows and
    own skips it has, and whether the level's joint model failed as a whole."""
    counts = {}
    for theta in thetas:
        for method in methods:
            stage = f"{method}@{theta}"
            rows = (out / f"results_{method}_theta{theta}.csv").read_text().splitlines()[1:]
            ids = [row.split(",")[0] for row in rows]
            skipped = [s["asset"] for s in manifest["skipped"] if s["stage"] == stage]
            for asset in manifest["assets"]:
                counts[asset, stage] = (ids.count(asset) + skipped.count(asset), "*" in skipped)
    return counts


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
# filter(len): write_price_csv needs at least one return
@given(panel=st.lists(hostile_returns().filter(len), min_size=2, max_size=3))
# the shortest series a 16-day window takes (17 training returns), one
# return shorter, a flat training segment that the joint model trained on
# the other two leaves out, and a 100-day series
@example(panel=[0.01 * np.random.default_rng(s).standard_normal(n) for s, n in ((0, 25), (1, 24))]
         + [np.r_[np.zeros(70), 0.01 * np.random.default_rng(2).standard_normal(30)]]
         + [0.01 * np.random.default_rng(3).standard_normal(100)])
# a flat training segment leaves the joint model one asset: the level's one
# failure covers both assets
@example(panel=[0.01 * np.random.default_rng(4).standard_normal(100),
                np.r_[np.zeros(70), 0.01 * np.random.default_rng(5).standard_normal(30)]])
def test_run_gives_hostile_panels_one_outcome_each(tmp_path_factory, capfd, panel):
    directory = tmp_path_factory.mktemp("hostile")
    names = []
    for i, returns in enumerate(panel):
        path = directory / f"h{i}.csv"
        try:
            write_price_csv(ReturnSeries("h", returns), path)
        except DomainError:
            # an extreme return overflows a close to inf or underflows it to 0;
            # the file is written with that close all the same, and the run
            # records it as a load skip
            with np.errstate(all="ignore"):
                closes = prices_from_returns(returns)
            days = (dt.date(2009, 1, 1) + dt.timedelta(days=d) for d in range(closes.size))
            path.write_text(
                "date,close\n" + "".join(f"{d},{float(c)!r}\n" for d, c in zip(days, closes))
            )
        names.append(path.name)
    (directory / "assets.txt").write_text("\n".join(names) + "\n")
    thetas = ("0.05", "0.01")
    written = {}
    for workers in ("1", "2"):
        out = directory / f"out{workers}"
        code = main(["run", "--manifest", str(directory / "assets.txt"), "--output-dir", str(out),
                     "--theta", ",".join(thetas), "--epochs", "1", "--window", "16",
                     "--write-series", "--workers", workers])
        assert "Traceback" not in capfd.readouterr().err
        manifest = json.loads((out / "run_manifest.json").read_text())
        # every asset is loaded or skipped at load, once
        loads = [s["asset"] for s in manifest["skipped"] if s["stage"] == "load"]
        assert sorted(manifest["assets"] + loads) == [f"h{i}" for i in range(len(panel))]
        assert code == (0 if manifest["assets"] else 2)
        # then exactly one record per (asset, method, level): a row, an own
        # skip, or the skip of a joint model that failed as a whole
        if code == 0:
            counts = _outcomes_per_level(out, manifest, ALL_METHODS, thetas)
            for (asset, stage), (own, joint_failed) in counts.items():
                assert own + joint_failed == 1, (asset, stage, own, joint_failed)
        manifest["config"]["output_dir"] = None
        written[workers] = manifest, {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"
        }
    assert written["1"] == written["2"]


CLI_FILE_KINDS = (
    "not_utf_8", "nul", "byte_order_mark", "short_row", "missing_column", "bad_value",
    "oversized_field", "directory",
)


@st.composite
def broken_cli_files(draw):
    """A flag, the name of the file it reads, that file's bytes with one
    defect (None for a directory) and the exit codes allowed for it.

    `backtest --var` reads a VaR CSV, `report --results-dir` a directory
    holding a results CSV and `run --config` a config file, whose
    `key = value` lines stand in for rows.
    """
    flag = draw(st.sampled_from(("--var", "--results-dir", "--config")))
    command = {"--var": "backtest", "--results-dir": "report", "--config": "run"}[flag]
    name = {"--var": "var.csv", "--results-dir": "results_qcnn_theta0.05.csv", "--config": "run.cfg"}[flag]
    kind = draw(st.sampled_from(CLI_FILE_KINDS))
    if command == "backtest":
        header = [b"day", b"var"]
        rows = [[str(i).encode(), b"0.02"] for i in range(30)]
    elif command == "report":
        header = [b"asset_id", b"exceedance_rate", b"dq_stat", b"p_value", b"mean_var"]
        rows = [[f"a{i}".encode(), b"0.05", b"1.5", b"0.4", b"0.02"] for i in range(3)]
    else:
        header = [b"[experiment]"]
        rows = [[b"manifest", b"assets.txt"], [b"output_dir", b"out"], [b"thetas", b"0.05"],
                [b"seed", b"3"], [b"workers", b"1"]]
    if kind == "directory":
        return flag, name, None, (0, 2, 3)
    at = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, len(rows[at]) - 1))
    field = rows[at][col]
    if kind == "not_utf_8":
        rows[at][col] += draw(st.sampled_from((b"\xff", b"\xc3\x28", b"\x80", b"\xe9")))
    elif kind == "nul":
        cut = draw(st.integers(0, len(field)))
        rows[at][col] = field[:cut] + b"\x00" + field[cut:]
    elif kind == "byte_order_mark":
        rows[at][col] = b"\xef\xbb\xbf" + field
    elif kind == "short_row":
        rows[at] = rows[at][:-1]
    elif kind == "missing_column":
        if command == "run":
            del rows[at]
        else:
            del header[draw(st.integers(0, len(header) - 1))]
    elif kind == "bad_value":
        rows[at][col] = draw(st.sampled_from((b"abc", b"", b"nan", b"inf", b"-inf", b"-1", b"1e")))
    else:
        rows[at][col] = b"1" * draw(st.integers(131_073, 140_000))
    sep = b" = " if command == "run" else b","
    lines = [b",".join(header)] + [sep.join(r) for r in rows]
    return flag, name, b"\n".join(lines) + b"\n", (0, 2, 3)


def _config(manifest=b"assets.txt", output_dir=b"out"):
    return b"[experiment]\nmanifest = " + manifest + b"\noutput_dir = " + output_dir + b"\n"


RESULTS = b"asset_id,exceedance_rate,dq_stat,p_value,mean_var\na0,0.05,1.5,0.4,0.02\n"


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=broken_cli_files())
@example(case=("--config", "run.cfg", _config(manifest=b"1" * 131_073), (2,)))
@example(case=("--config", "run.cfg", _config(output_dir=b"1" * 131_073), (2,)))
@example(case=("--config", "run.cfg", _config(output_dir=b"o\x00ut"), (2,)))
# an indented line would continue output_dir's value
@example(case=("--config", "run.cfg", _config(output_dir=b"out\n = 3"), (2,)))
@example(case=("--config", "run.cfg", _config(output_dir=b"100%"), (0,)))
@example(case=("--results-dir", "results_qcnn_thetaabc.csv", RESULTS, (2,)))
@example(case=("--results-dir", "results_qcnn_thetanan.csv", RESULTS, (2,)))
@example(case=("--config", TOO_LONG, None, (2,)))
@example(case=("--var", TOO_LONG, None, (2,)))
@example(case=("--prices", TOO_LONG, None, (2,)))
@example(case=("--results-dir", f"{TOO_LONG}/results_qcnn_theta0.05.csv", None, (2,)))
def test_broken_cli_files_exit_cleanly(tmp_path_factory, capfd, monkeypatch, case):
    # a broken VaR, price, results or config file or a name the OS rejects
    # is a data error (or harmless), never a usage error or a traceback
    flag, name, content, exits = case
    directory = tmp_path_factory.mktemp("cli")
    for i in range(2):
        series, _ = simulate(SimSpec(process=IID_NORMAL, length=300, seed=i), asset_id=f"good{i}")
        write_price_csv(series, directory / f"good{i}.csv")
    (directory / "assets.txt").write_text("good0.csv\ngood1.csv\n")
    (directory / "good_var.csv").write_text("var\n" + "0.02\n" * 30)
    path = directory / name
    if content is not None:
        path.write_bytes(content)
    elif TOO_LONG not in name:
        path.mkdir()
    named = str(Path(name).parent) if flag == "--results-dir" else name
    argv = {
        "--var": ["backtest", "--prices", "good0.csv", "--var", named, "--theta", "0.05"],
        "--prices": ["backtest", "--prices", named, "--var", "good_var.csv", "--theta", "0.05"],
        "--results-dir": ["report", "--results-dir", named],
        # without the flag a run would train networks: the config names no methods
        "--config": ["run", "--config", named, "--methods", "constant"],
    }[flag]
    # relative paths, so a config whose output_dir a defect changed still writes inside
    monkeypatch.chdir(directory)
    assert main(argv) in exits
    assert "Traceback" not in capfd.readouterr().err


@st.composite
def rate_lists(draw):
    """1-60 values drawn from a pool of at most six, so ties are common: signed
    zeros and the smallest subnormals beside any finite value up to 1e308 in
    magnitude."""
    value = st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)),
        st.floats(-1e308, 1e308, allow_nan=False),
    )
    pool = draw(st.lists(value, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


def read_csv_by_field(path, what, columns):
    """read_csv as it read before it parsed by column: each field parsed by
    its column's one-field rule as its row streams in."""
    with open_input(path, what) as fh:
        reader = csv.reader(fh)
        header = [name.strip().lower() for name in next(reader, ())]
        missing = [name for name in columns if name not in header]
        if missing:
            raise ParseError(f"{path}: header lacks {', '.join(missing)}", 1)
        fields = [(header.index(name), parse, []) for name, parse in columns.items()]
        width = max(i for i, _, _ in fields) + 1
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) < width:
                raise ParseError(f"{path}: expected at least {width} columns", reader.line_num)
            try:
                for i, parse, values in fields:
                    values.append(parse(row[i]))
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", reader.line_num) from None
    return [values for _, _, values in fields]


def finite_field(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def date_field(text):
    return dt.date.fromisoformat(text.strip())


# texts each rule takes, then texts that one rule or both refuse
GOOD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(("1_000", "1e5", " 1.5 ", ".5", "-0")),
)
GOOD_DATES = st.dates().map(dt.date.isoformat)
ODD_NUMBERS = st.one_of(GOOD_NUMBERS, st.sampled_from(("inf", "-inf", "nan", "1e400", "abc", "0x10", "")))
ODD_DATES = st.one_of(GOOD_DATES, st.sampled_from(("2020-02-30", "2020-1-1", "20200101", "x", "")))


def csv_field(draw, text):
    # quoted when it must be, and sometimes when it need not be
    if any(c in text for c in ',"\r\n') or draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_files(draw):
    """The bytes of a CSV with date and close among other columns: quoted
    fields, CR, LF and CRLF line ends, a byte-order mark, blank, all-blank
    and short rows, whitespace around dates, and numeric texts that float()
    takes or refuses."""
    names = draw(st.permutations(["date", "close", *draw(st.lists(st.sampled_from(("volume", "x")), max_size=2))]))
    padded = [draw(st.sampled_from(("", " "))) + draw(st.sampled_from((n, n.upper(), n.title()))) for n in names]
    other = st.text(alphabet=' ,"\r\nab1', max_size=4)
    lines = [",".join(csv_field(draw, name) for name in padded)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("row", "row", "row", "odd", "odd close", "short", "blank", "all-blank")))
        if kind == "blank":
            lines.append("")
        elif kind == "all-blank":
            lines.append(",".join(draw(st.sampled_from(("", " ", "\t"))) for _ in names))
        else:
            fields = []
            for name in names:
                if name == "date":
                    space = st.sampled_from(("", " ", "\t"))
                    text = draw(space) + draw(ODD_DATES if kind == "odd" else GOOD_DATES) + draw(space)
                elif name == "close":
                    text = draw(ODD_NUMBERS if kind.startswith("odd") else GOOD_NUMBERS)
                else:
                    text = draw(other)
                fields.append(csv_field(draw, text))
            if kind == "short":
                fields = fields[: draw(st.integers(0, len(fields) - 1))]
            lines.append(",".join(fields))
    ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return (draw(st.sampled_from(("", "﻿"))) + text).encode()


@settings(max_examples=300, deadline=None)
@given(content=csv_files(), order=st.permutations(["date", "close"]))
# a bad close on line 2 comes before a short row on line 3, and the date
# of a row is checked before its close
@example(content=b"date,close\n2020-01-01,abc\n2020-01-02\n", order=["close", "date"])
@example(content=b"date,close\nx,abc\n", order=["close", "date"])
@example(content=b"date,close\n2020-01-01\n2020-01-02,abc\n", order=["date", "close"])
def test_column_parse_is_the_field_parse(tmp_path_factory, content, order):
    path = tmp_path_factory.mktemp("csv") / "prices.csv"
    path.write_bytes(content)
    rules = {"date": (iso_dates, date_field), "close": (finite_floats, finite_field)}

    def outcome(reader, pick):
        try:
            columns = reader(path, "price file", {name: rules[name][pick] for name in order})
        except ParseError as exc:
            return str(exc), exc.line
        return [
            column if name == "date" else np.array(column, dtype=float).tobytes()
            for name, column in zip(order, columns)
        ]

    assert outcome(read_csv, 0) == outcome(read_csv_by_field, 1)


def fresh_negloglik(eps2, raw, init_var):
    """fit_garch's objective as it was before its buffers: every array freshly allocated."""
    try:
        omega, alpha, beta = baselines._garch_coefficients(raw)
    except OverflowError:
        return math.inf
    sigma2 = baselines._variance_recursion(eps2, omega, alpha, beta, init_var)[:-1]
    return float(0.5 * np.sum(np.log(2.0 * np.pi) + np.log(sigma2) + eps2 / sigma2))


def warned_outcome(func, *args):
    """The value's bits and every warning on the way, then the first warning
    raised under error::RuntimeWarning, or the value again when none is."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        value = func(*args)
    recorded = np.float64(value).tobytes(), [(w.category, str(w.message)) for w in seen]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            raised = np.float64(func(*args)).tobytes()
        except RuntimeWarning as exc:
            raised = repr(exc)
    return recorded, raised


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(MIN_GARCH_OBS, 400),
    # subnormal squared residuals, on which variances can underflow to 0, up
    # to squares near 1e304, on which they can overflow
    scale=st.sampled_from((1e-160, 1e-3, 1.0, 1e152)),
    # log omega beyond 709.8 overflows exp; below -745 omega is 0
    raws=st.lists(st.tuples(st.floats(-800.0, 800.0), st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
                  min_size=1, max_size=4),
)
# after an ordinary evaluation, omega is 0 and the variances underflow to 0:
# log, divide and sum each warn
@example(seed=0, n=200, scale=1e-160, raws=[(-800.0, 30.0, 0.0), (-800.0, -30.0, 0.0)])
# exp overflows, then the variances overflow to inf, then an ordinary evaluation
@example(seed=0, n=200, scale=1e152, raws=[(710.0, 0.0, 0.0), (709.0, 40.0, -40.0), (0.0, 5.0, 1.0)])
def test_buffered_likelihood_is_a_fresh_one(seed, n, scale, raws):
    # fit_garch's objective reuses one set of buffers over every evaluation;
    # each evaluation keeps the bits and the warnings of a fresh one
    returns = scale * np.random.default_rng(seed).standard_normal(n)
    found = garch_objective(returns)
    assume(found is not None)
    objective, _ = found
    eps = returns - float(np.mean(returns))
    eps2, sample_var = eps * eps, float(np.var(eps))
    for raw in raws:
        raw = np.array(raw)
        assert warned_outcome(objective, raw) == warned_outcome(fresh_negloglik, eps2, raw, sample_var)


@settings(max_examples=100, deadline=None)
@given(values=rate_lists(), start=st.integers(0, 10**6))
@example(values=[0.0, -0.0, 0.0, -0.0], start=0)
@example(values=[5e-324, -5e-324, 1e308, -1e308, 5e-324], start=7)
def test_series_file_is_the_repr_loop(tmp_path_factory, values, start):
    directory = tmp_path_factory.mktemp("series")
    forecast = VarForecast("a", "constant", 0.05, start, np.array(values))
    _write_series_csv(directory, forecast)
    lines = ["day_index,var", *(f"{start + i},{float(v)!r}" for i, v in enumerate(forecast.values))]
    (path,) = directory.iterdir()
    assert path.read_text() == "\n".join(lines) + "\n"
