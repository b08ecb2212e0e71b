import hashlib

import numpy as np
import pytest

from qvar.baselines import GarchParams, gaussian_quantile
from qvar.data import ReturnSeries, load_prices, log_returns
from qvar.errors import DomainError
from qvar.synthlab import (
    GARCH11,
    IID_NORMAL,
    SimSpec,
    SplitMix64,
    simulate,
    true_var,
    write_price_csv,
)


class TestSplitMix64:
    def test_counter_based_slicing(self):
        gen = SplitMix64(12345)
        whole = gen.uniforms(10)
        assert np.array_equal(gen.uniforms(5, start=3), whole[3:8])

    def test_open_unit_interval(self):
        u = SplitMix64(0).uniforms(100000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_seed_changes_stream(self):
        assert not np.array_equal(SplitMix64(1).raw(8), SplitMix64(2).raw(8))

    def test_known_finalizer_value(self):
        # mix of seed 0, counter 0 is the SplitMix64 output of the golden gamma
        first = int(SplitMix64(0).raw(1)[0])
        x = 0x9E3779B97F4A7C15
        z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        assert first == (z ^ (z >> 31))

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (7, "a92706181b20d0404afbe6b4999229d1e08b6159a0759041793e2bf2ec9eb8c3"),
            (20261020, "b83ae808a78a3d7fa45c66192cfa98f09fdffbf12b3b0eef0ca1c58cdaef277f"),
        ],
    )
    def test_normal_stream_bits_pinned(self, seed, digest):
        # every seeded synthetic series starts from these bits
        assert hashlib.sha256(SplitMix64(seed).normals(200_000).tobytes()).hexdigest() == digest

    def test_normals_are_inverse_cdf_of_uniforms(self):
        gen = SplitMix64(9)
        u = gen.uniforms(50)
        assert np.array_equal(gen.normals(50), gaussian_quantile(u))


class TestSimulate:
    def test_deterministic(self):
        spec = SimSpec(process=IID_NORMAL, length=1000, seed=42)
        a, sa = simulate(spec)
        b, sb = simulate(spec)
        assert np.array_equal(a.returns, b.returns)
        assert np.array_equal(sa, sb)

    def test_iid_law_of_large_numbers(self):
        series, sigma = simulate(SimSpec(process=IID_NORMAL, length=100000, seed=7))
        assert abs(float(np.mean(series.returns))) < 0.01
        assert abs(float(np.std(series.returns)) - 1.0) < 0.01
        assert np.all(sigma == 1.0)

    def test_iid_with_location_scale(self):
        series, sigma = simulate(
            SimSpec(process=IID_NORMAL, length=50000, seed=8, mu=0.001, sigma=0.02)
        )
        assert abs(float(np.mean(series.returns)) - 0.001) < 0.0005
        assert abs(float(np.std(series.returns)) - 0.02) < 0.001
        assert np.all(sigma == 0.02)

    def test_degenerate_garch_is_iid(self):
        params = GarchParams(omega=0.04, alpha=0.0, beta=0.0, mu=0.0)
        series, sigma = simulate(SimSpec(process=GARCH11, length=50000, seed=3, garch=params))
        assert np.all(sigma == 0.2)
        assert abs(float(np.std(series.returns)) - 0.2) < 0.01

    def test_garch_sigma_starts_unconditional(self):
        params = GarchParams(omega=0.05, alpha=0.1, beta=0.85, mu=0.0)
        _, sigma = simulate(SimSpec(process=GARCH11, length=100, seed=4, garch=params))
        assert sigma[0] ** 2 == pytest.approx(params.unconditional_variance)

    def test_garch_recursion_matches_definition(self):
        params = GarchParams(omega=0.05, alpha=0.1, beta=0.85, mu=0.002)
        series, sigma = simulate(SimSpec(process=GARCH11, length=500, seed=5, garch=params))
        eps = series.returns - params.mu
        for t in range(1, 500):
            expected = params.omega + params.alpha * eps[t - 1] ** 2 + params.beta * sigma[t - 1] ** 2
            assert sigma[t] ** 2 == pytest.approx(expected, rel=1e-12)

    def test_split_index_set(self):
        series, _ = simulate(SimSpec(process=IID_NORMAL, length=1000, seed=1))
        assert series.split_index == 700

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SimSpec(process="brownian", length=10, seed=0)
        with pytest.raises(DomainError):
            SimSpec(process=GARCH11, length=10, seed=0)
        with pytest.raises(DomainError):
            SimSpec(process=IID_NORMAL, length=1, seed=0)


class TestTrueVar:
    def test_unit_sigma(self):
        var = true_var(np.ones(5), 0.0, 0.05)
        assert np.allclose(var, 1.6448536269514722, atol=1e-9)

    def test_median_is_zero(self):
        assert np.allclose(true_var(np.ones(5), 0.0, 0.5), 0.0)

    def test_oracle_exceedance_rate(self):
        series, sigma = simulate(SimSpec(process=IID_NORMAL, length=100000, seed=11))
        var = true_var(sigma, 0.0, 0.05)
        rate = float(np.mean(series.returns < -var))
        assert abs(rate - 0.05) <= 0.003

    @pytest.mark.parametrize("theta", [0.05, 0.01, 0.001])
    def test_binomial_band_across_processes(self, theta):
        n = 100000
        specs = [
            SimSpec(process=IID_NORMAL, length=n, seed=13),
            SimSpec(
                process=GARCH11,
                length=n,
                seed=14,
                garch=GarchParams(omega=0.05, alpha=0.1, beta=0.85, mu=0.0),
            ),
        ]
        for spec in specs:
            series, sigma = simulate(spec)
            var = true_var(sigma, spec.mu if spec.process == IID_NORMAL else spec.garch.mu, theta)
            rate = float(np.mean(series.returns < -var))
            band = 3.0 * np.sqrt(theta * (1 - theta) / n)
            assert abs(rate - theta) <= band, f"{spec.process} theta={theta}: {rate}"


def test_price_csv_round_trip(tmp_path):
    series, _ = simulate(SimSpec(process=IID_NORMAL, length=300, seed=21, mu=0.0003, sigma=0.015))
    path = tmp_path / f"{series.asset_id}.csv"
    write_price_csv(series, path)
    back = log_returns(load_prices(path))
    assert back.asset_id == series.asset_id
    assert len(back) == len(series)
    assert back.split_index == series.split_index
    assert np.max(np.abs(back.returns - series.returns)) < 1e-10


def test_price_csv_rejects_an_overflowing_close(tmp_path, recwarn):
    # cumulative log returns pass log(max double) ~ 709.8 on the fourth close
    series = ReturnSeries("big", np.array([300.0, 300.0, 200.0, -1e3]))
    path = tmp_path / "big.csv"
    with pytest.raises(DomainError, match="big: the close on 2009-01-04 overflows"):
        write_price_csv(series, path)
    assert not path.exists()
    # below about -745 the cumulative log return underflows the close to 0
    series = ReturnSeries("small", np.array([-1000.0, 0.1]))
    path = tmp_path / "small.csv"
    with pytest.raises(DomainError, match=r"small: the close on 2009-01-02 is 0\.0, not a positive"):
        write_price_csv(series, path)
    assert not path.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
