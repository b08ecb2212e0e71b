import math
import pickle

import numpy as np
import pytest

from qvar.data import (
    PriceSeries,
    ReturnSeries,
    Scaler,
    WindowSet,
    apply_scaler,
    fit_scaler,
    invert_scaler,
    load_manifest,
    load_prices,
    log_returns,
    make_windows,
    pool_windows,
    prices_from_returns,
)
from qvar.errors import (
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    ParseError,
)
from qvar.synthlab import IID_NORMAL, SimSpec, simulate, write_price_csv


def write_csv(path, rows, header="date,close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def make_series(returns, split=None, asset_id="t"):
    returns = np.asarray(returns, dtype=float)
    if split is None:
        split = int(math.floor(0.7 * len(returns)))
    return ReturnSeries(asset_id=asset_id, returns=returns, split_index=split)


class TestLoadPrices:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "aa.csv"
        write_csv(p, ["2020-01-01,100", "2020-01-02,110"])
        series = load_prices(p)
        assert len(series) == 2
        assert series.asset_id == "aa"
        assert series.closes.tolist() == [100.0, 110.0]

    def test_zero_price_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, ["2020-01-01,100", "2020-01-02,0"])
        with pytest.raises(DomainError):
            load_prices(p)

    def test_ten_year_daily_file(self, tmp_path):
        # oracle: the number of ingested prices equals the number of data lines
        import datetime as dt

        rows = []
        day = dt.date(2009, 1, 1)
        rng = np.random.default_rng(0)
        for _ in range(2517):
            rows.append(f"{day.isoformat()},{100 * math.exp(rng.normal(0, 0.01)):.6f}")
            day += dt.timedelta(days=1)
        p = tmp_path / "ten.csv"
        write_csv(p, rows)
        n_lines = len(p.read_text().strip().splitlines()) - 1
        series = load_prices(p)
        assert len(series) == n_lines == 2517

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, ["2020-01-01,100", "2020-01-02,not-a-number"])
        with pytest.raises(ParseError, match="line 3"):
            load_prices(p)

    def test_bad_date_reports_line(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, ["2020-01-01,100", "01/02/2020,100"])
        with pytest.raises(ParseError, match="line 3"):
            load_prices(p)

    def test_duplicate_dates_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, ["2020-01-01,100", "2020-01-01,101"])
        with pytest.raises(ParseError, match="duplicate"):
            load_prices(p)

    def test_rows_sorted_by_date(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, ["2020-01-03,103", "2020-01-01,101", "2020-01-02,102"])
        series = load_prices(p)
        assert series.closes.tolist() == [101.0, 102.0, 103.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_prices(tmp_path / "nope.csv")

    def test_byte_order_mark_ignored(self, tmp_path):
        rows = ["2020-01-02,101.5", "2020-01-01,100.25", "2020-01-03,99.75"]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(plain, rows)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, got = load_prices(plain), load_prices(marked)
        assert got.dates == expected.dates
        assert got.closes.tobytes() == expected.closes.tobytes()

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, ["2020-01-01,100"], header="day,price")
        with pytest.raises(ParseError, match="header"):
            load_prices(p)

    @pytest.mark.parametrize(
        "content",
        [
            b"date,close\n2020-01-01,100\n2020-01-02,\xff\n",
            b"date,close\n2020-01-01," + b"1" * 140_000 + b"\n",
        ],
        ids=["not-utf-8", "oversized-field"],
    )
    def test_unreadable_file_is_a_parse_error(self, tmp_path, content):
        p = tmp_path / "a.csv"
        p.write_bytes(content)
        with pytest.raises(ParseError, match="a.csv"):
            load_prices(p)

    def test_directory_is_a_parse_error(self, tmp_path):
        (tmp_path / "d.csv").mkdir()
        with pytest.raises(ParseError, match="d.csv"):
            load_prices(tmp_path / "d.csv")


class TestLogReturns:
    def make_prices(self, closes):
        import datetime as dt

        dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(len(closes)))
        return PriceSeries(asset_id="x", dates=dates, closes=np.asarray(closes, dtype=float))

    def test_ln_e(self):
        series = log_returns(self.make_prices([1.0, math.e]))
        assert series.returns.tolist() == pytest.approx([1.0])

    def test_constant_price(self):
        series = log_returns(self.make_prices([3.0, 3.0, 3.0]))
        assert series.returns.tolist() == [0.0, 0.0]

    def test_ln_1_1_against_bisection(self):
        # oracle: invert exp by bisection to evaluate ln(1.1)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if math.exp(mid) < 1.1:
                lo = mid
            else:
                hi = mid
        series = log_returns(self.make_prices([100.0, 110.0]))
        assert series.returns[0] == pytest.approx((lo + hi) / 2, abs=1e-12)
        assert series.returns[0] == pytest.approx(0.09531017980432486, abs=1e-12)

    def test_split_index(self):
        series = log_returns(self.make_prices(np.linspace(10, 20, 11)))
        assert len(series) == 10
        assert series.split_index == 7
        assert len(series.train) == 7 and len(series.test) == 3

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            PriceSeries(asset_id="x", dates=(), closes=np.array([]))

    def test_pickles_to_its_returns(self, tmp_path):
        # pool workers send each loaded return series back to the run
        simulated, _ = simulate(SimSpec(process=IID_NORMAL, length=2000, seed=3))
        write_price_csv(simulated, tmp_path / "a.csv")
        series = log_returns(load_prices(tmp_path / "a.csv"))
        assert len(series) == 2000
        assert len(pickle.dumps(series)) <= series.returns.nbytes + 1024


class TestScaler:
    def test_two_point_train(self):
        s = fit_scaler(make_series([0.0, 2.0, 5.0], split=2))
        assert s.mean == 1.0 and s.std == 1.0

    def test_zero_variance(self):
        with pytest.raises(DegenerateDataError):
            fit_scaler(make_series([4.0, 4.0, 9.0], split=2))

    def test_standard_normal_sample(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal(1000)
        s = fit_scaler(make_series(draws, split=1000 - 1))
        # fitted on 999 of the draws; law of large numbers bounds
        assert abs(s.mean) < 0.1
        assert abs(s.std - 1.0) < 0.1

    def test_apply_invert_examples(self):
        s = Scaler(mean=1.0, std=2.0)
        assert apply_scaler(1.0, s) == 0.0
        assert invert_scaler(0.0, s) == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        s = Scaler(mean=float(rng.normal()), std=float(rng.uniform(0.5, 2.0)))
        xs = rng.normal(size=10)
        back = invert_scaler(apply_scaler(xs, s), s)
        assert np.max(np.abs(back - xs)) < 1e-12

    def test_no_lookahead(self):
        rng = np.random.default_rng(5)
        returns = rng.normal(size=300)
        base = make_series(returns.copy())
        mutated = returns.copy()
        mutated[base.split_index :] = 99.0
        other = make_series(mutated, split=base.split_index)
        s1, s2 = fit_scaler(base), fit_scaler(other)
        assert s1.mean == s2.mean and s1.std == s2.std

    def test_overflowing_std_is_degenerate(self):
        # np.std of returns near 1e153 overflows to inf; a QCNN would then
        # train on all-zero windows
        returns = 1e153 * np.random.default_rng(0).standard_normal(500)
        with pytest.raises(DegenerateDataError, match="overflows"):
            fit_scaler(make_series(returns, split=350))

    def test_std_must_be_positive(self):
        with pytest.raises(DomainError):
            Scaler(mean=0.0, std=0.0)


class TestWindows:
    def scaled(self, series, scaler):
        return apply_scaler(series.train, scaler)

    def test_boundary_single_window(self):
        rng = np.random.default_rng(0)
        series = make_series(rng.normal(size=185), split=129)
        ws = make_windows(series, fit_scaler(series))
        assert len(ws) == 1
        assert ws.origins == (("t", 0),)

    def test_two_windows_alignment(self):
        rng = np.random.default_rng(1)
        series = make_series(rng.normal(size=186), split=130)
        scaler = fit_scaler(series)
        ws = make_windows(series, scaler)
        assert len(ws) == 2
        scaled = self.scaled(series, scaler)
        # second window's target ends at train index 129
        assert ws.targets[1][-1] == scaled[129]

    def test_count_against_enumeration(self):
        rng = np.random.default_rng(2)
        series = make_series(rng.normal(size=2517), split=1762)
        ws = make_windows(series, fit_scaler(series))
        # oracle: enumerate admissible starts directly
        starts = [s for s in range(1762) if s + 129 <= 1762]
        assert len(starts) == 1762 - 129 + 1 == 1634
        assert len(ws) == len(starts)

    def test_targets_are_shifted_inputs(self):
        rng = np.random.default_rng(3)
        series = make_series(rng.normal(size=220), split=140)
        scaler = fit_scaler(series)
        ws = make_windows(series, scaler, window=16, stride=3)
        scaled = self.scaled(series, scaler)
        for w, (asset, start) in enumerate(ws.origins):
            assert asset == "t"
            for t in range(ws.window):
                assert ws.inputs[w][t] == scaled[start + t]
                assert ws.targets[w][t] == scaled[start + t + 1]
            assert start + ws.window < series.split_index + 1

    def test_too_short(self):
        series = make_series(np.arange(100, dtype=float), split=90)
        with pytest.raises(InsufficientDataError):
            make_windows(series, Scaler(mean=0.0, std=1.0), window=128)

    def test_pool_counts_and_order(self):
        rng = np.random.default_rng(4)
        a = make_series(rng.normal(size=200), split=140, asset_id="a")
        b = make_series(rng.normal(size=200), split=140, asset_id="b")
        wa = make_windows(a, fit_scaler(a), window=32)
        wb = make_windows(b, fit_scaler(b), window=32)
        pooled = pool_windows([wa, wb])
        assert len(pooled) == len(wa) + len(wb)
        assert pooled.origins[: len(wa)] == wa.origins

    def test_pool_rejects_repeated_asset_id(self):
        rng = np.random.default_rng(5)
        a = make_series(rng.normal(size=200), split=140, asset_id="a")
        again = make_series(rng.normal(size=200), split=140, asset_id="a")
        with pytest.raises(DomainError, match="'a'"):
            pool_windows([make_windows(s, fit_scaler(s), window=32) for s in (a, again)])

    @pytest.mark.parametrize(
        "origin", [("t", -1), ("t", 4), ("u", 0)], ids=["before-start", "past-end", "unknown-asset"]
    )
    def test_origin_outside_its_series_rejected(self, origin):
        # 8 days hold windows of 4 starting at 0..3: the last one's targets end on day 7
        assert len(WindowSet(series={"t": np.zeros(8)}, origins=(("t", 3),), window=4)) == 1
        with pytest.raises(DomainError):
            WindowSet(series={"t": np.zeros(8)}, origins=(origin,), window=4)

    def test_non_finite_series_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            WindowSet(series={"t": np.array([0.0, np.inf, 0.0])}, origins=(("t", 0),), window=1)


def test_prices_returns_round_trip():
    rng = np.random.default_rng(9)
    returns = rng.normal(0, 0.02, size=500)
    prices = prices_from_returns(returns, initial_price=73.0)
    back = np.diff(np.log(prices))
    assert np.max(np.abs(back - returns)) < 1e-10


def test_load_manifest(tmp_path):
    (tmp_path / "a.csv").write_text("date,close\n2020-01-01,1\n2020-01-02,2\n")
    man = tmp_path / "assets.txt"
    man.write_text("# comment\na.csv\n\n")
    paths = load_manifest(man)
    assert paths == [tmp_path / "a.csv"]
    with pytest.raises(ParseError, match="not found"):
        load_manifest(tmp_path / "missing.txt")


def test_load_manifest_ignores_byte_order_mark(tmp_path):
    man = tmp_path / "assets.txt"
    man.write_bytes(b"\xef\xbb\xbfa.csv\nb.csv\n")
    assert load_manifest(man) == [tmp_path / "a.csv", tmp_path / "b.csv"]


def test_unreadable_manifest_is_a_parse_error(tmp_path):
    man = tmp_path / "assets.txt"
    man.write_bytes(b"a.csv\n\xff.csv\n")
    with pytest.raises(ParseError, match="assets.txt"):
        load_manifest(man)
    (tmp_path / "dir.txt").mkdir()
    with pytest.raises(ParseError, match="dir.txt"):
        load_manifest(tmp_path / "dir.txt")
