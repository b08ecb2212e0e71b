import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import qvar.harness
from qvar.backtest import BacktestResult
from qvar.baselines import GarchParams
from qvar.data import ReturnSeries, fit_scaler, make_windows, pool_windows
from qvar.errors import DomainError, InsufficientDataError
from qvar.harness import (
    ExperimentConfig,
    aggregate,
    derive_seed,
    run_experiment,
    run_joint_qcnn,
    run_single,
)
from qvar.qcnn import TrainConfig
from qvar.synthlab import GARCH11, IID_NORMAL, SimSpec, simulate, write_price_csv


def fast_cfg(tmp_path, **overrides):
    defaults = dict(
        manifest=tmp_path / "assets.txt",
        output_dir=tmp_path / "out",
        thetas=(0.05,),
        methods=("constant", "garch", "linear_qr"),
        train=TrainConfig(epochs=2, batch_size=64),
        window=32,
        seed=11,
        workers=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


GARCH = GarchParams(omega=0.05, alpha=0.1, beta=0.85, mu=0.0)


def sim_series(seed, n=400, asset_id=None):
    series, _ = simulate(
        SimSpec(process=GARCH11, length=n, seed=seed, garch=GARCH), asset_id=asset_id
    )
    return series


def make_result(exceedance_rate=0.05, p_value=0.5, mean_var=1.0):
    return BacktestResult(
        exceedance_rate=exceedance_rate,
        mean_var=mean_var,
        dq_statistic=1.0,
        dof=4,
        p_value=p_value,
        n_days=100,
        n_exceedances=int(round(exceedance_rate * 100)),
    )


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(7, "qcnn", "asset1", 0.05)
        assert a == derive_seed(7, "qcnn", "asset1", 0.05)
        assert a != derive_seed(7, "qcnn", "asset2", 0.05)
        assert a != derive_seed(8, "qcnn", "asset1", 0.05)

    def test_seed_range_is_the_key_range(self, tmp_path):
        for seed in (0, 2**64 - 1):
            derive_seed(fast_cfg(tmp_path, seed=seed).seed, "asset-sample")
        for seed in (-1, 2**64):
            with pytest.raises(DomainError, match="seed"):
                fast_cfg(tmp_path, seed=seed)


class TestRunSingle:
    def test_constant_has_zero_variance(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        series = sim_series(1)
        forecast, result = run_single(series, 0.05, "constant", cfg)
        assert forecast.values.shape == (len(series) - series.split_index,)
        assert np.all(forecast.values == forecast.values[0])
        assert result.n_days == len(forecast.values)

    @pytest.mark.parametrize("method", ["constant", "garch", "linear_qr", "qcnn"])
    def test_forecast_alignment(self, tmp_path, method):
        cfg = fast_cfg(tmp_path)
        series = sim_series(2)
        forecast, result = run_single(series, 0.05, method, cfg)
        expected_days = len(series) - series.split_index
        assert forecast.values.shape == (expected_days,)
        assert forecast.start_index == series.split_index
        assert result.n_days == expected_days

    def test_joint_requires_model(self, tmp_path):
        from qvar.errors import DomainError

        with pytest.raises(DomainError):
            run_single(sim_series(3), 0.05, "joint_qcnn", fast_cfg(tmp_path))

    def test_no_lookahead_per_method(self, tmp_path):
        # fixed fitted state: forecasts for days <= t survive truncation at t
        from qvar.baselines import (
            fit_garch,
            fit_linear_qr,
            garch_var_path,
            linear_qr_var_path,
        )
        from qvar.data import apply_scaler
        from qvar.qcnn import predict_var_series, train

        cfg = fast_cfg(tmp_path)
        series = sim_series(4)
        split = series.split_index
        cut = split + 60

        garch = fit_garch(series.train)
        init = float(np.var(series.train - garch.mu))
        full = garch_var_path(garch, series.returns, split, 0.05, init)
        trunc = garch_var_path(garch, series.returns[:cut], split, 0.05, init)
        assert np.array_equal(full[: cut - split + 1], trunc)

        qr = fit_linear_qr(series.train, 0.05)
        full = linear_qr_var_path(qr, series.returns, split)
        trunc = linear_qr_var_path(qr, series.returns[:cut], split)
        assert np.array_equal(full[: cut - split + 1], trunc)

        scaler = fit_scaler(series)
        model = train(
            make_windows(series, scaler, window=cfg.window),
            0.05,
            TrainConfig(epochs=1, batch_size=64, seed=5),
        )
        scaled = apply_scaler(series.returns, scaler)
        full = predict_var_series(model, scaled, scaler, split)
        trunc = predict_var_series(model, scaled[:cut], scaler, split)
        assert np.array_equal(full[: cut - split + 1], trunc)


class TestJoint:
    def test_two_identical_assets_double_the_windows(self, tmp_path):
        a = sim_series(5, asset_id="a")
        b = ReturnSeries(asset_id="b", returns=a.returns.copy(), split_index=a.split_index)
        wa = make_windows(a, fit_scaler(a), window=32)
        wb = make_windows(b, fit_scaler(b), window=32)
        pooled = pool_windows([wa, wb])
        assert len(pooled) == 2 * len(wa)

    def test_joint_needs_two_assets(self, tmp_path):
        # the flat asset cannot be scaled; the one failure names it
        flat = ReturnSeries(asset_id="flat", returns=np.zeros(399), split_index=300)
        with pytest.raises(InsufficientDataError, match=r"left out flat \(DegenerateDataError: "):
            run_joint_qcnn([sim_series(6), flat], 0.05, fast_cfg(tmp_path))

    def test_joint_predicts_every_asset(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        panel = [sim_series(seed, asset_id=f"a{seed}") for seed in (7, 8, 9)]
        results, model = run_joint_qcnn(panel, 0.05, cfg)
        assert set(results) == {"a7", "a8", "a9"}
        assert model.theta == 0.05
        for series in panel:
            forecast, scored = results[series.asset_id]
            assert forecast.method == "joint_qcnn"
            assert forecast.values.shape == (len(series) - series.split_index,)

    def test_run_single_with_the_joint_model_is_its_joint_forecast(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        panel = [sim_series(seed, asset_id=f"a{seed}") for seed in (7, 8, 9)]
        results, model = run_joint_qcnn(panel, 0.05, cfg)
        for series in panel:
            forecast, scored = run_single(series, 0.05, "joint_qcnn", cfg, model)
            joint_forecast, joint_scored = results[series.asset_id]
            assert forecast.values.tobytes() == joint_forecast.values.tobytes()
            assert (forecast.asset_id, forecast.method, forecast.start_index) == (
                joint_forecast.asset_id, joint_forecast.method, joint_forecast.start_index
            )
            assert scored == joint_scored

    def test_joint_writes_no_series_file(self, tmp_path):
        cfg = fast_cfg(tmp_path, write_series=True)
        panel = [sim_series(seed, asset_id=f"a{seed}") for seed in (7, 8)]
        run_joint_qcnn(panel, 0.05, cfg)
        assert not cfg.output_dir.exists() or not any(cfg.output_dir.iterdir())


class TestAggregate:
    def test_rejection_rates_single_asset(self):
        summaries = aggregate({"constant": [make_result(p_value=0.03)]})
        s = summaries[0]
        assert s.dq_rejection_rate_01 == 0.0
        assert s.dq_rejection_rate_05 == 1.0

    def test_mean_median(self):
        rows = [make_result(exceedance_rate=r) for r in (0.02, 0.04, 0.06)]
        s = aggregate({"m": rows})[0]
        assert s.exceedance_mean == pytest.approx(0.04)
        assert s.exceedance_median == pytest.approx(0.04)

    def test_sd_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        rates = rng.uniform(0, 0.2, size=11)
        rows = [make_result(exceedance_rate=float(r)) for r in rates]
        s = aggregate({"m": rows})[0]
        mean = sum(rates) / len(rates)
        sd = math.sqrt(sum((r - mean) ** 2 for r in rates) / len(rates))
        assert s.exceedance_sd == pytest.approx(sd, abs=1e-12)

    def test_zero_exceedance_counts_as_rejection(self):
        rows = [make_result(p_value=0.0), make_result(p_value=0.5)]
        s = aggregate({"m": rows})[0]
        assert s.dq_rejection_rate_01 == 0.5
        assert s.dq_rejection_rate_05 == 0.5

    def test_empty_method_dropped(self):
        assert aggregate({"m": []}) == []


def write_panel(tmp_path, n_assets=3, length=400):
    paths = []
    for i in range(n_assets):
        series = sim_series(100 + i, n=length, asset_id=f"asset{i}")
        p = tmp_path / f"asset{i}.csv"
        write_price_csv(series, p)
        paths.append(p.name)
    manifest = tmp_path / "assets.txt"
    manifest.write_text("\n".join(paths) + "\n")
    return manifest


class TestRunExperiment:
    def test_loads_and_skips_short(self, tmp_path):
        manifest = write_panel(tmp_path, n_assets=2)
        short, _ = simulate(SimSpec(process=GARCH11, length=40, seed=999, garch=GARCH))
        write_price_csv(short, tmp_path / "short.csv")
        manifest.write_text(manifest.read_text() + "short.csv\n")
        cfg = fast_cfg(tmp_path, manifest=manifest, methods=("constant",))
        run_experiment(cfg)
        payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
        assert payload["assets"] == ["asset0", "asset1"]
        assert [(s["asset"], s["stage"]) for s in payload["skipped"]] == [("short", "load")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_star_asset_id_is_a_load_skip(self, tmp_path, workers):
        # "*" names a joint model's whole-level skip, so no file may take it
        write_price_csv(sim_series(7, n=90), tmp_path / "*.csv")
        for name, seed in (("a1", 8), ("a2", 9)):
            write_price_csv(sim_series(seed), tmp_path / f"{name}.csv")
        (tmp_path / "assets.txt").write_text("*.csv\na1.csv\na2.csv\n")
        cfg = fast_cfg(tmp_path, methods=("constant", "garch"), window=16, workers=workers)
        run_experiment(cfg)
        payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
        assert payload["assets"] == ["a1", "a2"]
        assert [(s["asset"], s["stage"], s["error"]) for s in payload["skipped"]] == [
            ("*", "load", "DomainError")
        ]
        rows = (cfg.output_dir / "results_garch_theta0.05.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["a1", "a2"]

    def test_sample_size_is_seeded(self, tmp_path):
        manifest = write_panel(tmp_path, n_assets=5)
        chosen = []
        for out in ("o1", "o2"):
            cfg = fast_cfg(
                tmp_path, manifest=manifest, output_dir=tmp_path / out,
                methods=("constant",), sample_size=3,
            )
            run_experiment(cfg)
            chosen.append(json.loads((cfg.output_dir / "run_manifest.json").read_text())["assets"])
        assert chosen[0] == chosen[1]
        assert len(chosen[0]) == 3

    def test_writes_report_files(self, tmp_path):
        manifest = write_panel(tmp_path)
        cfg = fast_cfg(tmp_path, manifest=manifest)
        summaries = run_experiment(cfg)
        out = cfg.output_dir
        for method in cfg.methods:
            path = out / f"results_{method}_theta0.05.csv"
            assert path.exists()
            header = path.read_text().splitlines()[0]
            assert header == "asset_id,exceedance_rate,dq_stat,p_value,mean_var"
        summary = out / "summary_theta0.05.csv"
        assert summary.exists()
        assert len(summary.read_text().splitlines()) == 1 + len(cfg.methods)
        manifest_payload = json.loads((out / "run_manifest.json").read_text())
        assert manifest_payload["config"]["seed"] == 11
        assert manifest_payload["assets"] == ["asset0", "asset1", "asset2"]
        assert summaries[0.05][0].method == "constant"

    def test_all_methods_with_joint(self, tmp_path):
        manifest = write_panel(tmp_path)
        cfg = fast_cfg(
            tmp_path,
            manifest=manifest,
            methods=("constant", "qcnn", "joint_qcnn"),
        )
        summaries = run_experiment(cfg)
        assert [s.method for s in summaries[0.05]] == ["constant", "qcnn", "joint_qcnn"]
        assert (cfg.output_dir / "joint_qcnn_theta0.05.json").exists()
        rows = (cfg.output_dir / "results_joint_qcnn_theta0.05.csv").read_text().splitlines()
        assert len(rows) == 4

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        manifest = write_panel(tmp_path)
        cfg = fast_cfg(tmp_path, manifest=manifest, methods=("constant", "garch", "qcnn"))
        run_experiment(cfg)
        snapshot = {
            p.name: p.read_bytes() for p in sorted(cfg.output_dir.iterdir()) if p.is_file()
        }
        run_experiment(cfg)
        again = {p.name: p.read_bytes() for p in sorted(cfg.output_dir.iterdir()) if p.is_file()}
        assert snapshot == again

    def test_worker_pool_matches_serial(self, tmp_path):
        manifest = write_panel(tmp_path)
        short, _ = simulate(SimSpec(process=GARCH11, length=40, seed=999, garch=GARCH))
        write_price_csv(short, tmp_path / "short.csv")
        # two assets that fail to load, between the good ones
        manifest.write_text("asset0.csv\nmissing.csv\nasset1.csv\nshort.csv\nasset2.csv\n")
        methods = ("constant", "garch", "linear_qr", "qcnn", "joint_qcnn")
        common = dict(manifest=manifest, methods=methods, thetas=(0.05, 0.01), write_series=True)
        serial = fast_cfg(tmp_path, output_dir=tmp_path / "o1", workers=1, **common)
        pooled = fast_cfg(tmp_path, output_dir=tmp_path / "o2", workers=3, **common)
        run_experiment(serial)
        run_experiment(pooled)
        names = sorted(p.name for p in serial.output_dir.iterdir())
        assert names == sorted(p.name for p in pooled.output_dir.iterdir())
        assert sum(name.startswith("series_") for name in names) == 3 * 5 * 2
        assert {"joint_qcnn_theta0.05.json", "joint_qcnn_theta0.01.json"} <= set(names)
        for name in names:
            a = (serial.output_dir / name).read_bytes()
            b = (pooled.output_dir / name).read_bytes()
            if name == "run_manifest.json":
                # the manifests differ only in the output_dir they record
                a, b = json.loads(a), json.loads(b)
                a["config"]["output_dir"] = b["config"]["output_dir"] = ""
                assert [(s["asset"], s["stage"]) for s in a["skipped"]] == [
                    ("missing", "load"),
                    ("short", "load"),
                ]
            assert a == b, name

    def test_each_price_file_read_once_in_workers(self, tmp_path, monkeypatch):
        manifest = write_panel(tmp_path)
        real_load = qvar.harness.load_prices
        log = tmp_path / "reads.txt"

        def recording_load(path, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {Path(path).name}\n")
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(qvar.harness, "load_prices", recording_load)
        for workers in (1, 2):
            log.write_text("")
            cfg = fast_cfg(
                tmp_path, manifest=manifest, output_dir=tmp_path / f"o{workers}",
                methods=("constant", "garch", "joint_qcnn"), thetas=(0.05, 0.01),
                train=TrainConfig(epochs=1, batch_size=64), workers=workers,
            )
            run_experiment(cfg)
            reads = [line.split() for line in log.read_text().splitlines()]
            assert sorted(name for _, name in reads) == ["asset0.csv", "asset1.csv", "asset2.csv"]
            pids = {int(pid) for pid, _ in reads}
            if workers == 1:
                assert pids == {os.getpid()}
            else:
                assert os.getpid() not in pids

    def test_duplicate_asset_id_is_a_load_skip(self, tmp_path):
        manifest = write_panel(tmp_path, n_assets=2)
        (tmp_path / "again").mkdir()
        write_price_csv(sim_series(5, asset_id="asset0"), tmp_path / "again" / "asset0.csv")
        manifest.write_text("asset0.csv\nagain/asset0.csv\nasset1.csv\n")
        for workers in (1, 2):
            cfg = fast_cfg(
                tmp_path, manifest=manifest, output_dir=tmp_path / f"o{workers}",
                methods=("constant",), workers=workers, write_series=True,
            )
            run_experiment(cfg)
            rows = (cfg.output_dir / "results_constant_theta0.05.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in rows[1:]] == ["asset0", "asset1"]
            payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
            assert [(s["asset"], s["stage"], s["error"]) for s in payload["skipped"]] == [
                ("asset0", "load", "DomainError")
            ]
        for name in ("results_constant_theta0.05.csv", "series_constant_theta0.05_asset0.csv"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()
        # a first asset0 that fails to load still takes the id: both lines are
        # load skips of asset0, ordered by reason
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "asset0.csv").write_text("date,close\n2020-01-01,100\n2020-01-02,-5\n")
        manifest.write_text("bad/asset0.csv\nagain/asset0.csv\nasset1.csv\n")
        for workers in (1, 2):
            cfg = fast_cfg(
                tmp_path, manifest=manifest, output_dir=tmp_path / f"bad{workers}",
                methods=("constant",), workers=workers,
            )
            run_experiment(cfg)
            payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
            assert payload["assets"] == ["asset1"]
            assert [(s["asset"], s["stage"], s["reason"]) for s in payload["skipped"]] == [
                ("asset0", "load", f"asset id 'asset0' is taken by {tmp_path / 'bad' / 'asset0.csv'}"),
                ("asset0", "load", "asset0: non-positive close -5.0 on 2020-01-02"),
            ]

    def test_joint_windows_built_once_per_run(self, tmp_path, monkeypatch):
        manifest = write_panel(tmp_path, n_assets=2)
        flat = ReturnSeries(asset_id="flat", returns=np.zeros(399), split_index=300)
        write_price_csv(flat, tmp_path / "flat.csv")
        manifest.write_text("asset0.csv\nflat.csv\nasset1.csv\n")
        real_make = qvar.harness.make_windows
        made = []

        def counting_make(series, *args, **kwargs):
            made.append(series.asset_id)
            return real_make(series, *args, **kwargs)

        monkeypatch.setattr(qvar.harness, "make_windows", counting_make)
        cfg = fast_cfg(
            tmp_path, manifest=manifest, methods=("joint_qcnn",), thetas=(0.05, 0.01),
            train=TrainConfig(epochs=1, batch_size=64),
        )
        run_experiment(cfg)
        assert made == ["asset0", "asset1"]
        for theta in cfg.thetas:
            rows = (cfg.output_dir / f"results_joint_qcnn_theta{theta:g}.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in rows[1:]] == ["asset0", "asset1"]
        # the asset the pool leaves out is still recorded at every level
        payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
        assert [(s["asset"], s["stage"]) for s in payload["skipped"]] == [
            ("flat", "joint_qcnn@0.01"),
            ("flat", "joint_qcnn@0.05"),
        ]

    def test_method_failures_recorded_not_fatal(self, tmp_path):
        # 60 training returns: linear_qr fits, garch (needs 100) is skipped
        for seed in (7, 8):
            series, _ = simulate(SimSpec(process=GARCH11, length=90, seed=seed, garch=GARCH))
            write_price_csv(series, tmp_path / f"tiny{seed}.csv")
        manifest = tmp_path / "assets.txt"
        manifest.write_text("tiny7.csv\ntiny8.csv\n")
        cfg = fast_cfg(
            tmp_path,
            manifest=manifest,
            methods=("constant", "garch"),
            thetas=(0.05, 0.01),
            window=16,
        )
        run_experiment(cfg)
        for theta in cfg.thetas:
            rows = (cfg.output_dir / f"results_garch_theta{theta:g}.csv").read_text().splitlines()
            assert len(rows) == 1  # header only
        payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
        assert [(s["asset"], s["stage"]) for s in payload["skipped"]] == [
            ("tiny7", "garch@0.01"),
            ("tiny7", "garch@0.05"),
            ("tiny8", "garch@0.01"),
            ("tiny8", "garch@0.05"),
        ]

    def test_skip_list_ignores_schedule_and_manifest_order(self, tmp_path):
        # 60 training returns: garch (needs 100) rejects both tiny assets
        for seed in (7, 8):
            series, _ = simulate(SimSpec(process=GARCH11, length=90, seed=seed, garch=GARCH))
            write_price_csv(series, tmp_path / f"tiny{seed}.csv")
        (tmp_path / "bad.csv").write_text("date,close\n2020-01-01,100\n2020-01-02,-5\n")
        lines = ["tiny8.csv", "missing.csv", "tiny7.csv", "bad.csv"]
        manifest = tmp_path / "assets.txt"
        skipped = {}
        for order in ("forward", "reversed"):
            manifest.write_text("\n".join(lines if order == "forward" else lines[::-1]) + "\n")
            for workers in (1, 2):
                cfg = fast_cfg(
                    tmp_path, manifest=manifest, output_dir=tmp_path / f"{order}{workers}",
                    methods=("constant", "garch"), thetas=(0.05, 0.01), window=16,
                    workers=workers,
                )
                run_experiment(cfg)
                payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
                skipped[order, workers] = payload["skipped"]
        assert [(s["asset"], s["stage"]) for s in skipped["forward", 1]] == [
            ("bad", "load"),
            ("missing", "load"),
            ("tiny7", "garch@0.01"),
            ("tiny7", "garch@0.05"),
            ("tiny8", "garch@0.01"),
            ("tiny8", "garch@0.05"),
        ]
        for key, skips in skipped.items():
            assert skips == skipped["forward", 1], key

    def test_any_qvar_error_is_a_recorded_skip(self, tmp_path, monkeypatch):
        manifest = write_panel(tmp_path)
        real_fit = qvar.harness.fit_garch
        calls = []

        def fit_failing_on_second_asset(train_returns):
            calls.append(None)
            if len(calls) == 2:  # workers=1 runs the assets in manifest order
                raise DomainError("persistence rounded to 1")
            return real_fit(train_returns)

        monkeypatch.setattr(qvar.harness, "fit_garch", fit_failing_on_second_asset)
        cfg = fast_cfg(tmp_path, manifest=manifest, workers=1)
        run_experiment(cfg)
        expected_rows = {"garch": ["asset0", "asset2"], "constant": ["asset0", "asset1", "asset2"]}
        for method, assets in expected_rows.items():
            rows = (cfg.output_dir / f"results_{method}_theta0.05.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in rows[1:]] == assets
        payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
        assert payload["skipped"] == [
            {
                "asset": "asset1",
                "stage": "garch@0.05",
                "error": "DomainError",
                "reason": "persistence rounded to 1",
            }
        ]

    def test_diverged_qcnn_is_a_recorded_skip(self, tmp_path, monkeypatch):
        manifest = write_panel(tmp_path, n_assets=2)
        real_train = qvar.harness.train

        def diverging_train(windows, theta, cfg, model=None):
            model = real_train(windows, theta, cfg, model)
            model.head.biases[:] = np.nan
            return model

        monkeypatch.setattr(qvar.harness, "train", diverging_train)
        cfg = fast_cfg(
            tmp_path, manifest=manifest, methods=("constant", "qcnn"), train=TrainConfig(epochs=1)
        )
        run_experiment(cfg)
        rows = (cfg.output_dir / "results_qcnn_theta0.05.csv").read_text().splitlines()
        assert rows[1:] == []
        payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
        assert payload["skipped"] == [
            {"asset": a, "stage": "qcnn@0.05", "error": "DomainError", "reason": "VaR forecasts must be finite"}
            for a in ("asset0", "asset1")
        ]

    def test_garch_fits_once_per_asset(self, tmp_path, monkeypatch):
        manifest = write_panel(tmp_path)
        real_fit = qvar.harness.fit_garch
        fitted = []

        def counting_fit(train_returns):
            fitted.append(train_returns.size)
            return real_fit(train_returns)

        monkeypatch.setattr(qvar.harness, "fit_garch", counting_fit)
        cfg = fast_cfg(
            tmp_path, manifest=manifest, methods=("garch",), thetas=(0.05, 0.01, 0.001)
        )
        run_experiment(cfg)
        assert len(fitted) == 3  # one fit per asset, shared by the three levels
        for theta in cfg.thetas:
            rows = (cfg.output_dir / f"results_garch_theta{theta:g}.csv").read_text().splitlines()
            assert len(rows) == 4

    def test_flat_asset_leaves_joint_model_to_the_rest(self, tmp_path):
        manifest = write_panel(tmp_path, n_assets=2)
        flat = ReturnSeries(asset_id="flat", returns=np.zeros(399), split_index=300)
        write_price_csv(flat, tmp_path / "flat.csv")
        manifest.write_text("asset0.csv\nflat.csv\nasset1.csv\n")
        cfg = fast_cfg(tmp_path, manifest=manifest, methods=("joint_qcnn",))
        run_experiment(cfg)
        rows = (cfg.output_dir / "results_joint_qcnn_theta0.05.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["asset0", "asset1"]
        payload = json.loads((cfg.output_dir / "run_manifest.json").read_text())
        assert [(s["asset"], s["stage"], s["error"]) for s in payload["skipped"]] == [
            ("flat", "joint_qcnn@0.05", "DegenerateDataError")
        ]

    def test_iid_panel_gets_garch_row_per_asset(self, tmp_path):
        # GARCH fits on iid returns drive alpha to 0; that used to overflow
        # the fit's logistic and abort the whole run
        names = []
        for seed in (0, 1):
            series, _ = simulate(
                SimSpec(process=IID_NORMAL, length=700, seed=seed), asset_id=f"iid{seed}"
            )
            write_price_csv(series, tmp_path / f"iid{seed}.csv")
            names.append(f"iid{seed}.csv")
        manifest = tmp_path / "assets.txt"
        manifest.write_text("\n".join(names) + "\n")
        cfg = fast_cfg(tmp_path, manifest=manifest, methods=("constant", "garch"))
        run_experiment(cfg)
        rows = (cfg.output_dir / "results_garch_theta0.05.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["iid0", "iid1"]
        assert json.loads((cfg.output_dir / "run_manifest.json").read_text())["skipped"] == []

    def test_empty_manifest_is_error(self, tmp_path):
        manifest = tmp_path / "assets.txt"
        manifest.write_text("")
        with pytest.raises(InsufficientDataError):
            run_experiment(fast_cfg(tmp_path, manifest=manifest))
