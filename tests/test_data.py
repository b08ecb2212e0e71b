import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import conftest
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
    write_output,
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
        s = fit_scaler(ReturnSeries("t", [0.0, 2.0, 5.0]))
        assert s.mean == 1.0 and s.std == 1.0

    def test_zero_variance(self):
        with pytest.raises(DegenerateDataError):
            fit_scaler(ReturnSeries("t", [4.0, 4.0, 9.0]))

    def test_standard_normal_sample(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal(1428)
        s = fit_scaler(ReturnSeries("t", draws))
        # fitted on the first 999 of the draws; law of large numbers bounds
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
        base = ReturnSeries("t", returns.copy())
        mutated = returns.copy()
        mutated[base.split_index :] = 99.0
        other = ReturnSeries("t", mutated)
        s1, s2 = fit_scaler(base), fit_scaler(other)
        assert s1.mean == s2.mean and s1.std == s2.std

    def test_overflowing_std_is_degenerate(self):
        # np.std of returns near 1e153 overflows to inf; a QCNN would then
        # train on all-zero windows
        returns = 1e153 * np.random.default_rng(0).standard_normal(500)
        with pytest.raises(DegenerateDataError, match="overflows"):
            fit_scaler(ReturnSeries("t", returns))

    def test_std_must_be_positive(self):
        with pytest.raises(DomainError):
            Scaler(mean=0.0, std=0.0)


class TestWindows:
    def scaled(self, series, scaler):
        return apply_scaler(series.train, scaler)

    def test_boundary_single_window(self):
        rng = np.random.default_rng(0)
        series = ReturnSeries("t", rng.normal(size=185))
        ws = make_windows(series, fit_scaler(series))
        assert len(ws) == 1
        _, group, start = ws.layout()
        assert group.tolist() == start.tolist() == [0]

    def test_two_windows_alignment(self):
        rng = np.random.default_rng(1)
        series = ReturnSeries("t", rng.normal(size=186))
        scaler = fit_scaler(series)
        ws = make_windows(series, scaler)
        assert len(ws) == 2
        scaled = self.scaled(series, scaler)
        # second window's target ends at train index 129
        assert ws.targets[1][-1] == scaled[129]

    def test_count_against_enumeration(self):
        rng = np.random.default_rng(2)
        series = ReturnSeries("t", rng.normal(size=2518))
        assert series.split_index == 1762
        ws = make_windows(series, fit_scaler(series))
        # oracle: enumerate admissible starts directly
        starts = [s for s in range(1762) if s + 129 <= 1762]
        assert len(starts) == 1762 - 129 + 1 == 1634
        assert len(ws) == len(starts)

    def test_targets_are_shifted_inputs(self):
        rng = np.random.default_rng(3)
        series = ReturnSeries("t", rng.normal(size=200))
        scaler = fit_scaler(series)
        ws = make_windows(series, scaler, window=16, stride=3)
        scaled = self.scaled(series, scaler)
        _, group, starts = ws.layout()
        assert not group.any()
        for w, start in enumerate(starts.tolist()):
            for t in range(ws.window):
                assert ws.inputs[w][t] == scaled[start + t]
                assert ws.targets[w][t] == scaled[start + t + 1]
            assert start + ws.window < series.split_index + 1

    def test_too_short(self):
        series = ReturnSeries("t", np.arange(129, dtype=float))
        with pytest.raises(InsufficientDataError):
            make_windows(series, Scaler(mean=0.0, std=1.0), window=128)

    def test_pool_counts_and_order(self):
        rng = np.random.default_rng(4)
        a = ReturnSeries("a", rng.normal(size=200))
        b = ReturnSeries("b", rng.normal(size=200))
        wa = make_windows(a, fit_scaler(a), window=32)
        wb = make_windows(b, fit_scaler(b), window=32)
        pooled = pool_windows([wa, wb])
        assert len(pooled) == len(wa) + len(wb)
        days, group, start = pooled.layout()
        assert np.array_equal(days, np.concatenate([wa.layout()[0], wb.layout()[0]]))
        assert group.tolist() == [0] * len(wa) + [1] * len(wb)
        assert start.tolist() == [*wa.layout()[2], *(len(wa.series["a"]) + wb.layout()[2])]

    def test_pool_rejects_repeated_asset_id(self):
        rng = np.random.default_rng(5)
        a = ReturnSeries("a", rng.normal(size=200))
        again = ReturnSeries("a", rng.normal(size=200))
        with pytest.raises(DomainError, match="'a'"):
            pool_windows([make_windows(s, fit_scaler(s), window=32) for s in (a, again)])

    def test_non_finite_series_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            WindowSet(series={"t": np.array([0.0, np.inf, 0.0])}, window=1, stride=1)


def test_prices_returns_round_trip():
    rng = np.random.default_rng(9)
    returns = rng.normal(0, 0.02, size=500)
    prices = prices_from_returns(returns)
    assert prices[0] == 100.0
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


class TestWriteOutput:
    def test_writes_utf8_whatever_the_locale(self, tmp_path):
        out = tmp_path / "out.csv"
        env = {k: v for k, v in conftest.checkout_env().items() if k != "PYTHONUTF8"}
        # the child writes "café"; under C the locale's encoding is ASCII
        script = "import sys, qvar.data; qvar.data.write_output(sys.argv[1], 'text', 'caf\\xe9')"
        subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, str(out)],
                       env={**env, "LC_ALL": "C"}, check=True, timeout=60)
        assert out.read_bytes() == b"caf\xc3\xa9"

    def test_text_utf8_cannot_encode_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"previous")
        with pytest.raises(DomainError, match="out.csv: cannot write text"):
            write_output(out, "text", "lone \ud800 surrogate")
        assert out.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["out.csv"]
