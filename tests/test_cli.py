import argparse
import csv
import functools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import conftest
import qvar.cli
from qvar.baselines import constant_var
from qvar.cli import CONFIG_KEYS, build_parser, experiment_config_from_args, main
from qvar.data import load_prices, log_returns
from qvar.errors import FitError
from qvar.harness import ExperimentConfig
from qvar.qcnn import TrainConfig

write_panel = functools.partial(conftest.write_panel, seed_base=300)


def write_config(tmp_path, manifest, out_dir, seed=5):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"""[experiment]
manifest = {manifest}
output_dir = {out_dir}
thetas = 0.05
methods = constant, linear_qr
seed = {seed}

[train]
window = 32
epochs = 2
batch_size = 64
"""
    )
    return cfg


class TestExitCodes:
    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.cfg")])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing.cfg" in err

    def test_usage_error_is_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-such-flag"])
        assert exc.value.code == 1

    def test_unparsable_theta_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--theta", "abc"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "argument --theta: expected comma-separated numbers, got 'abc'" in err

    def test_no_subcommand_is_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("simulate", "run", "backtest", "report"):
            assert sub in out

    def test_data_error_from_bad_prices(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,close\n2020-01-01,100\n2020-01-02,-5\n")
        var = tmp_path / "var.csv"
        var.write_text("var\n1.0\n")
        code = main(["backtest", "--prices", str(bad), "--var", str(var), "--theta", "0.05"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_fit_error_is_exit_3(self, tmp_path, capsys, monkeypatch):
        # a run records every FitError it meets as a skip, so only a stand-in
        # run reaches main's fit-error exit
        def failing_run(cfg):
            raise FitError("optimizer diverged")

        monkeypatch.setattr(qvar.cli, "run_experiment", failing_run)
        argv = ["run", "--manifest", str(tmp_path / "assets.txt"), "--output-dir", str(tmp_path)]
        assert main(argv) == 3
        assert "qvar: fit error: optimizer diverged" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_output_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--process", "iid_normal", "--n", "1000", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_garch_requires_params(self, tmp_path, capsys):
        code = main(
            ["simulate", "--process", "garch11", "--n", "100", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "omega" in capsys.readouterr().err

    def test_output_is_ingestible(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        main(
            ["simulate", "--process", "garch11", "--n", "250", "--seed", "3",
             "--omega", "0.05", "--alpha", "0.1", "--beta", "0.85", "--out", str(out)]
        )
        series = log_returns(load_prices(out))
        assert len(series) == 250

    def test_directory_in_the_way_exits_2(self, tmp_path, capfd):
        code = main(["simulate", "--process", "iid_normal", "--n", "100", "--out", str(tmp_path)])
        err = capfd.readouterr().err
        assert code == 2
        assert f"{tmp_path}: cannot write price file" in err
        assert "Traceback" not in err
        assert not list(tmp_path.parent.glob(".*.tmp"))

    def test_long_file_name_is_written(self, tmp_path, capfd):
        # a 252-byte name, within the usual 255-byte limit, whose temporary
        # file's name must not grow with it
        out = tmp_path / ("p" * 248 + ".csv")
        code = main(["simulate", "--process", "iid_normal", "--n", "100", "--out", str(out)])
        assert code == 0, capfd.readouterr().err
        assert len(log_returns(load_prices(out))) == 100
        assert os.listdir(tmp_path) == [out.name]

    def test_symlink_in_the_way_exits_2(self, tmp_path, capfd):
        # the link stays a link, and what it points at keeps its bytes
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"kept")
        link.symlink_to(target)
        code = main(["simulate", "--process", "iid_normal", "--n", "100", "--out", str(link)])
        err = capfd.readouterr().err
        assert code == 2
        assert f"{link}: cannot write price file" in err
        assert "Traceback" not in err
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == b"kept"

    def test_file_in_the_way_of_its_directory_exits_2(self, tmp_path, capfd):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x.csv"
        code = main(["simulate", "--process", "iid_normal", "--n", "100", "--out", str(out)])
        err = capfd.readouterr().err
        assert code == 2
        assert f"cannot create output directory {tmp_path / 'afile'}" in err
        assert "Traceback" not in err


class TestRun:
    def test_run_with_config(self, tmp_path, capsys):
        manifest = write_panel(tmp_path)
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, manifest, out_dir)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (out_dir / "summary_theta0.05.csv").exists()
        stdout = capsys.readouterr().out
        assert "theta=0.05" in stdout
        assert "constant" in stdout

    def test_flag_overrides_config(self, tmp_path, capsys):
        manifest = write_panel(tmp_path)
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, manifest, out_dir, seed=5)
        assert main(["run", "--config", str(cfg), "--seed", "9"]) == 0
        payload = json.loads((out_dir / "run_manifest.json").read_text())
        assert payload["config"]["seed"] == 9

    def test_config_value_used_without_flag(self, tmp_path, capsys):
        manifest = write_panel(tmp_path)
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, manifest, out_dir, seed=5)
        assert main(["run", "--config", str(cfg)]) == 0
        payload = json.loads((out_dir / "run_manifest.json").read_text())
        assert payload["config"]["seed"] == 5
        assert payload["config"]["train"]["epochs"] == 2

    def test_flags_alone_suffice(self, tmp_path, capsys):
        manifest = write_panel(tmp_path)
        out_dir = tmp_path / "flagout"
        code = main(
            ["run", "--manifest", str(manifest), "--output-dir", str(out_dir),
             "--theta", "0.05", "--methods", "constant", "--window", "32",
             "--epochs", "2", "--seed", "1"]
        )
        assert code == 0
        assert (out_dir / "results_constant_theta0.05.csv").exists()

    def test_levels_that_print_alike_write_separate_files(self, tmp_path, capsys):
        # 0.05000001 and 0.05 agree to the 6 digits of format(theta, "g")
        manifest = write_panel(tmp_path, n_assets=2)
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--manifest", str(manifest), "--output-dir", str(out_dir),
             "--theta", "0.05,0.05000001", "--methods", "constant", "--window", "32",
             "--write-series"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        for tag in ("0.05", "0.05000001"):
            assert f"theta={tag} " in stdout
            names = [f"results_constant_theta{tag}.csv", f"summary_theta{tag}.csv"]
            names += [f"series_constant_theta{tag}_asset{i}.csv" for i in range(2)]
            for name in names:
                assert (out_dir / name).is_file()
        assert len(list(out_dir.glob("*.csv"))) == 8
        assert (out_dir / "summary_theta0.05.csv").read_bytes() != (
            out_dir / "summary_theta0.05000001.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "blocked, flags",
        [
            ("results_constant_theta0.05.csv", ["--workers", "1"]),
            ("series_constant_theta0.05_asset1.csv", ["--workers", "1", "--write-series"]),
            ("series_constant_theta0.05_asset1.csv", ["--workers", "2", "--write-series"]),
        ],
        ids=["results", "series-1-worker", "series-2-workers"],
    )
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capfd, blocked, flags):
        manifest = write_panel(tmp_path, n_assets=2)
        out_dir = tmp_path / "out"
        (out_dir / blocked).mkdir(parents=True)
        code = main(
            ["run", "--manifest", str(manifest), "--output-dir", str(out_dir),
             "--theta", "0.05", "--methods", "constant", "--window", "32", *flags]
        )
        err = capfd.readouterr().err
        assert code == 2
        assert f"qvar: {out_dir / blocked}: cannot write" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, flags, fragment",
        [
            ("manifest = assets.txt\n", [], "File contains no section headers"),
            ("[bogus]\n", [], "unknown config section [bogus]"),
            (None, ["--output-dir", "out"], "a manifest is required"),
            (None, ["--manifest", "assets.txt"], "an output directory is required"),
        ],
        ids=["no-section-header", "unknown-section", "no-manifest", "no-output-dir"],
    )
    def test_incomplete_settings_exit_2(self, tmp_path, capsys, config, flags, fragment):
        argv = ["run", *flags]
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv += ["--config", str(path)]
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err

    def test_misspelled_boolean_rejected(self, tmp_path, capsys):
        manifest = write_panel(tmp_path, n_assets=1)
        cfg = write_config(tmp_path, manifest, tmp_path / "out")
        cfg.write_text(cfg.read_text().replace("[train]", "write_series = ture\n\n[train]"))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "write_series" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--sample-size", "--window", "--stride"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_rejected(self, tmp_path, capsys, flag, value):
        manifest = write_panel(tmp_path, n_assets=1)
        cfg = write_config(tmp_path, manifest, tmp_path / "out")
        assert main(["run", "--config", str(cfg), flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config_line, named",
        [
            (["--theta", ","], None, "thetas"),
            (["--theta", ""], None, "thetas"),
            (["--methods", ""], None, "methods"),
            ([], "thetas = ,", "thetas"),
            (["--theta", "0.05,0.01,0.05"], None, "thetas"),
            (["--methods", "constant,linear_qr,constant"], None, "methods"),
        ],
        ids=[
            "empty-theta-flag", "blank-theta-flag", "blank-methods-flag",
            "empty-theta-config", "repeated-theta", "repeated-method",
        ],
    )
    def test_empty_or_repeated_list_rejected(self, tmp_path, capsys, flags, config_line, named):
        manifest = write_panel(tmp_path, n_assets=1)
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, manifest, out_dir)
        if config_line:
            cfg.write_text(cfg.read_text().replace("thetas = 0.05", config_line))
        assert main(["run", "--config", str(cfg), *flags]) == 2
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-6"])
    def test_epsilon_not_positive_and_finite_rejected(self, tmp_path, capsys, value):
        manifest = write_panel(tmp_path, n_assets=1)
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, manifest, out_dir)
        text = cfg.read_text().replace("methods = constant, linear_qr", "methods = qcnn")
        cfg.write_text(text + f"epsilon = {value}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unparsable_config_theta_is_exit_2(self, tmp_path, capsys):
        manifest = write_panel(tmp_path, n_assets=1)
        cfg = write_config(tmp_path, manifest, tmp_path / "out")
        cfg.write_text(cfg.read_text().replace("thetas = 0.05", "thetas = abc"))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bad value for thetas: 'abc'" in capsys.readouterr().err

    # derive_seed keys its hash with 8 unsigned bytes; methods that derive no
    # seed must reject such a seed too
    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_seed_out_of_range_rejected(self, tmp_path, capsys, seed, form):
        manifest = write_panel(tmp_path, n_assets=1)
        out_dir = tmp_path / "out"
        if form == "flag":
            argv = ["--manifest", str(manifest), "--output-dir", str(out_dir),
                    "--methods", "constant", "--window", "32", "--seed", str(seed)]
        else:
            argv = ["--config", str(write_config(tmp_path, manifest, out_dir, seed=seed))]
        assert main(["run", *argv]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\nbogus = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_byte_order_mark_ignored(self, tmp_path, capsys):
        manifest = write_panel(tmp_path, n_assets=1)
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, manifest, out_dir, seed=5)
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["run", "--config", str(cfg)]) == 0
        assert json.loads((out_dir / "run_manifest.json").read_text())["config"]["seed"] == 5

    @pytest.mark.parametrize("kind", ["not-utf-8", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        cfg = tmp_path / "bad.cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"[experiment]\nseed = \xff\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bad.cfg" in capsys.readouterr().err

    def test_unreadable_price_files_are_load_skips(self, tmp_path, capsys):
        write_panel(tmp_path, n_assets=2)
        (tmp_path / "latin1.csv").write_bytes(b"date,close\n2020-01-01,100\n2020-01-02,\xe9\n")
        (tmp_path / "wide.csv").write_bytes(b"date,close\n2020-01-01," + b"1" * 140_000 + b"\n")
        manifest = tmp_path / "assets.txt"
        # "." names the manifest's own directory
        manifest.write_bytes(b"\xef\xbb\xbfasset0.csv\nlatin1.csv\nwide.csv\n.\nasset1.csv\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--manifest", str(manifest), "--output-dir", str(out_dir),
                     "--methods", "constant", "--theta", "0.05", "--window", "32"])
        assert code == 0
        payload = json.loads((out_dir / "run_manifest.json").read_text())
        assert payload["assets"] == ["asset0", "asset1"]
        # sorted by asset id; tmp_path's name begins with "test_"
        assert [(s["asset"], s["stage"], s["error"]) for s in payload["skipped"]] == [
            ("latin1", "load", "ParseError"),
            (tmp_path.name, "load", "ParseError"),
            ("wide", "load", "ParseError"),
        ]


# a `qvar run` whose constant fit leaves its process's pid in the directory
# argv[1] names and then sleeps; the rest of argv goes to main()
SLOW_RUN = """
import os, sys, time
import qvar.harness
from qvar.cli import main

fit = qvar.harness.constant_var

def slow_fit(*args):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(30)
    return fit(*args)

qvar.harness.constant_var = slow_fit
sys.exit(main(sys.argv[2:]))
"""


def alive(pid: int) -> bool:
    # a zombie has ended; nothing may reap an orphan's
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="workers die with the run only on Linux")
@pytest.mark.parametrize(
    "signum, prelude",
    [
        (signal.SIGTERM, ""),
        (signal.SIGKILL, ""),
        # as in a foreground shell; a background job starts with SIGINT ignored
        (signal.SIGINT, "import signal; signal.signal(signal.SIGINT, signal.default_int_handler)\n"),
        # the workers drop a SIGTERM handler of the program that calls main
        (signal.SIGKILL, "import signal; signal.signal(signal.SIGTERM, lambda *a: None)\n"),
    ],
    ids=["SIGTERM", "SIGKILL", "SIGINT", "caller-handler"],
)
def test_stopped_run_stops_its_workers(tmp_path, signum, prelude):
    # the pool forks its workers from the main thread, so they die with the run
    manifest = write_panel(tmp_path, n_assets=4)
    out_dir, pid_dir = tmp_path / "out", tmp_path / "pids"
    pid_dir.mkdir()
    argv = [sys.executable, "-c", prelude + SLOW_RUN, str(pid_dir), "run", "--manifest", str(manifest),
            "--output-dir", str(out_dir), "--methods", "constant", "--theta", "0.05",
            "--window", "32", "--workers", "2", "--write-series"]
    run = subprocess.Popen(argv, env=conftest.checkout_env(), stderr=subprocess.DEVNULL)
    workers = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = {int(path.name) for path in pid_dir.iterdir()}
        assert len(workers) == 2 and run.pid not in workers
        run.send_signal(signum)
        # the run dies by its signal
        assert run.wait(timeout=10) == -signum
        written = sorted(out_dir.iterdir())
        deadline = time.monotonic() + 5
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(alive, workers))
        assert sorted(out_dir.iterdir()) == written
        # no third worker started a task
        assert {int(path.name) for path in pid_dir.iterdir()} == workers
    finally:
        run.kill()
        run.wait()
        for pid in filter(alive, workers):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="the pool pins fork only on Linux")
def test_pooled_run_forks_whatever_the_default_start_method(tmp_path, capsys):
    # Python 3.14 makes forkserver Linux's default; its workers are not the
    # run's children, and a worker whose parent is not the run ends itself
    manifest = write_panel(tmp_path, n_assets=3)
    out_dir = tmp_path / "out"
    flags = ["run", "--manifest", str(manifest), "--output-dir", str(out_dir),
             "--methods", "constant", "--theta", "0.05", "--window", "32", "--write-series"]
    script = ("import multiprocessing, sys; multiprocessing.set_start_method('forkserver'); "
              "from qvar.cli import main; sys.exit(main(sys.argv[1:]))")
    pooled = subprocess.run([sys.executable, "-c", script, *flags, "--workers", "2"],
                            env=conftest.checkout_env(), capture_output=True, text=True, timeout=120)
    assert pooled.returncode == 0, pooled.stderr
    written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert main([*flags, "--workers", "1"]) == 0
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == written


def run_subparser():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices["run"]


class TestRunSettings:
    def test_run_flag_surface(self):
        shown = [
            (a.option_strings, None if a.nargs == 0 else a.metavar or a.dest.upper())
            for a in run_subparser()._actions
        ]
        assert shown == [
            (["-h", "--help"], None),
            (["--config"], "CONFIG"),
            (["--manifest"], "MANIFEST"),
            (["--output-dir"], "OUTPUT_DIR"),
            (["--seed"], "SEED"),
            (["--theta"], "THETA"),
            (["--methods"], "METHODS"),
            (["--sample-size"], "SAMPLE_SIZE"),
            (["--workers"], "WORKERS"),
            (["--epochs"], "EPOCHS"),
            (["--batch-size"], "BATCH_SIZE"),
            (["--window"], "WINDOW"),
            (["--stride"], "STRIDE"),
            (["--write-series"], None),
        ]

    def test_keys_are_the_config_fields(self):
        experiment = {f.name for f in fields(ExperimentConfig)}
        train = {f.name for f in fields(TrainConfig)}
        assert set(CONFIG_KEYS) <= experiment | train
        # a task's training seed is derived from the experiment seed
        assert set(CONFIG_KEYS) == (experiment - {"train"}) | (train - {"seed"})

    def test_every_run_flag_sets_a_key(self):
        dests = {a.dest for a in run_subparser()._actions} - {"help", "config"}
        assert dests <= set(CONFIG_KEYS)

    def test_defaults_come_from_the_dataclasses(self):
        args = build_parser().parse_args(["run", "--manifest", "m.txt", "--output-dir", "o"])
        assert experiment_config_from_args(args) == ExperimentConfig(
            manifest=Path("m.txt"), output_dir=Path("o")
        )

    def test_manifest_config_is_pinned(self, tmp_path, capsys):
        manifest = write_panel(tmp_path, n_assets=2)
        out_dir = tmp_path / "out"
        base = ["run", "--manifest", str(manifest), "--output-dir", str(out_dir),
                "--methods", "constant", "--theta", "0.05", "--window", "32"]
        written = []
        for extra in ([], ["--write-series"], ["--workers", "1"], ["--workers", "2"]):
            assert main(base + extra) == 0
            written.append((out_dir / "run_manifest.json").read_bytes())
        assert len(set(written)) == 1
        config = json.loads(written[0])["config"]
        assert set(config) == {
            "manifest", "output_dir", "thetas", "methods", "window", "stride",
            "seed", "sample_size", "train",
        }
        assert set(config["train"]) == {"epochs", "batch_size", "seed", "rho", "epsilon"}
        assert config["manifest"] == str(manifest)
        assert config["output_dir"] == str(out_dir)


class TestBacktest:
    def test_scores_series(self, tmp_path, capsys):
        manifest = write_panel(tmp_path, n_assets=1)
        prices = tmp_path / "asset0.csv"
        series = log_returns(load_prices(prices))
        var_value = constant_var(series.train, 0.05)
        var_path = tmp_path / "var.csv"
        n_test = len(series) - series.split_index
        var_path.write_text("var\n" + "\n".join([repr(var_value)] * n_test) + "\n")
        assert main(
            ["backtest", "--prices", str(prices), "--var", str(var_path), "--theta", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "exceedance_rate:" in out and "p_value:" in out
        assert f"days: {n_test}" in out

    def test_var_longer_than_returns(self, tmp_path, capsys):
        manifest = write_panel(tmp_path, n_assets=1, length=50)
        prices = tmp_path / "asset0.csv"
        var_path = tmp_path / "var.csv"
        var_path.write_text("var\n" + "\n".join(["1.0"] * 500) + "\n")
        assert main(
            ["backtest", "--prices", str(prices), "--var", str(var_path), "--theta", "0.05"]
        ) == 2

    def test_var_overflowing_dq_test_exits_2(self, tmp_path, capsys):
        # at 1e160 the DQ Gram matrix overflows; its pseudo-inverse would be
        # all zeros and score dq_stat 0.0, p_value 1.0, a pass
        write_panel(tmp_path, n_assets=1)
        rng = np.random.default_rng(0)
        values = np.where(rng.random(300) < 0.9, 1e160, -5.0)
        var_path = tmp_path / "var.csv"
        var_path.write_text("var\n" + "\n".join(map(repr, values.tolist())) + "\n")
        prices = tmp_path / "asset0.csv"
        code = main(["backtest", "--prices", str(prices), "--var", str(var_path), "--theta", "0.05"])
        captured = capsys.readouterr()
        assert code == 2
        assert "overflows" in captured.err and "dq_stat" not in captured.out

    def write_var(self, tmp_path, cell):
        write_panel(tmp_path, n_assets=1)
        var_path = tmp_path / "var.csv"
        values = ["0.02"] * 100
        values[40] = cell
        var_path.write_text("var\n" + "\n".join(values) + "\n")
        return ["backtest", "--prices", str(tmp_path / "asset0.csv"), "--var", str(var_path), "--theta", "0.05"]

    def test_header_only_var_exits_2(self, tmp_path, capsys):
        argv = self.write_var(tmp_path, "0.02")
        var = tmp_path / "var.csv"
        var.write_text("var\n")
        assert main(argv) == 2
        assert f"{var}: no VaR rows" in capsys.readouterr().err

    def test_non_finite_var_exits_2(self, tmp_path, capsys):
        assert main(self.write_var(tmp_path, "nan")) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_numeric_var_exits_2(self, tmp_path, capsys):
        assert main(self.write_var(tmp_path, "n/a")) == 2
        assert "line 42" in capsys.readouterr().err

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        args = self.write_var(tmp_path, "0.02")
        assert main(args) == 0
        plain = capsys.readouterr().out
        var_path = tmp_path / "var.csv"
        var_path.write_bytes(b"\xef\xbb\xbf" + var_path.read_bytes())
        assert main(args) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("lags", ["-1", "-5"])
    def test_negative_hit_lags_exits_2(self, tmp_path, capsys, lags):
        assert main(self.write_var(tmp_path, "0.02") + ["--hit-lags", lags]) == 2
        captured = capsys.readouterr()
        assert "hit_lags" in captured.err and "dq_stat" not in captured.out

    @pytest.mark.parametrize("bad", ["--prices", "--var"])
    def test_file_not_utf_8_exits_2(self, tmp_path, capsys, bad):
        args = self.write_var(tmp_path, "0.02")
        path = Path(args[args.index(bad) + 1])
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(args) == 2
        assert path.name in capsys.readouterr().err

    def test_every_asset_failing_to_load_is_recorded(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("date,close\n2020-01-01,100\n2020-01-02,-5\n")
        manifest = tmp_path / "assets.txt"
        manifest.write_text("bad.csv\nmissing.csv\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--manifest", str(manifest), "--output-dir", str(out_dir)])
        assert code == 2
        assert "no usable assets" in capsys.readouterr().err
        payload = json.loads((out_dir / "run_manifest.json").read_text())
        assert payload["assets"] == []
        assert [(s["asset"], s["stage"]) for s in payload["skipped"]] == [
            ("bad", "load"),
            ("missing", "load"),
        ]


class TestReport:
    def test_rebuilds_summaries(self, tmp_path, capsys):
        # the summary's rows follow one method order, whatever --methods gave
        manifest = write_panel(tmp_path)
        cfg = write_config(tmp_path, manifest, tmp_path / "unused")
        for methods in ("constant,linear_qr", "garch,constant"):
            out_dir = tmp_path / methods.replace(",", "_")
            main(["run", "--config", str(cfg), "--methods", methods, "--output-dir", str(out_dir)])
            original = (out_dir / "summary_theta0.05.csv").read_bytes()
            (out_dir / "summary_theta0.05.csv").unlink()
            assert main(["report", "--results-dir", str(out_dir)]) == 0
            assert (out_dir / "summary_theta0.05.csv").read_bytes() == original
        rows = original.decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["constant", "garch"]

    def test_summary_bytes_pinned(self, tmp_path, capsys):
        # an even count whose median is a rounded mean of two rates, and an
        # odd count with tied zeros in the middle
        header = "asset_id,exceedance_rate,dq_stat,p_value,mean_var\n"
        (tmp_path / "results_constant_theta0.05.csv").write_text(
            header + "a,0.1,3.5,0.2,0.021\nb,0.2,9.25,0.004,0.03\n"
            "c,0.05,1.0,0.5,0.019\nd,0.9,40.0,0.0,0.05\n"
        )
        (tmp_path / "results_garch_theta0.05.csv").write_text(
            header + "a,0.0,0.0,0.0,0.5\nb,0.0,2.0,0.7,0.25\nc,0.03,4.0,0.03,0.125\n"
        )
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        assert (tmp_path / "summary_theta0.05.csv").read_text() == (
            "method,exceedance_mean,exceedance_median,exceedance_sd,"
            "dq_rejection_rate_0.01,dq_rejection_rate_0.05,mean_var\n"
            "constant,0.3125,0.15000000000000002,0.34346579160085217,0.5,0.5,0.030000000000000002\n"
            "garch,0.01,0.0,0.014142135623730949,0.3333333333333333,0.6666666666666666,0.2916666666666667\n"
        )

    def test_reads_ids_that_need_quoting(self, tmp_path, capsys):
        # a comma or a double quote in an asset id is quoted in the results files
        ids = ["x,y", '"q']
        manifest = write_panel(tmp_path, n_assets=len(ids))
        for i, asset in enumerate(ids):
            (tmp_path / f"asset{i}.csv").rename(tmp_path / f"{asset}.csv")
        manifest.write_text("".join(f"{asset}.csv\n" for asset in ids))
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, manifest, out_dir)
        assert main(["run", "--config", str(cfg), "--theta", "0.05,0.01"]) == 0
        results = sorted(out_dir.glob("results_*.csv"))
        assert len(results) == 4
        for path in results:
            with open(path, newline="") as fh:
                assert [row[0] for row in csv.reader(fh)] == ["asset_id", *ids]
        summaries = {p: p.read_bytes() for p in out_dir.glob("summary_theta*.csv")}
        assert len(summaries) == 2
        for path in summaries:
            path.unlink()
        assert main(["report", "--results-dir", str(out_dir)]) == 0
        assert {p: p.read_bytes() for p in out_dir.glob("summary_theta*.csv")} == summaries

    @pytest.mark.parametrize(
        "content",
        [
            "asset,exceedance_rate,p_value,mean_var\na,0.05,0.5,0.02\nb,0.04\n",
            "asset,exceedance_rate,mean_var\na,0.05,0.02\n",
            "asset,exceedance_rate,p_value,mean_var\na,0.05,high,0.02\n",
            "asset,exceedance_rate,p_value,mean_var\na,0.05,0.5,0.02\nb,inf,0.5,0.02\n",
            "asset,exceedance_rate,p_value,mean_var\na,0.05,nan,0.02\n",
            "asset,exceedance_rate,p_value,mean_var\na,0.05,0.5,-inf\n",
        ],
        ids=["short-row", "missing-column", "non-numeric", "inf-rate", "nan-p-value", "inf-mean-var"],
    )
    def test_malformed_results_exit_2(self, tmp_path, capsys, content):
        (tmp_path / "results_qcnn_theta0.05.csv").write_text(content)
        assert main(["report", "--results-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "results_qcnn_theta0.05.csv" in err and "line " in err

    @pytest.mark.parametrize("kind", ["not-utf-8", "directory", "oversized-field"])
    def test_unreadable_results_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "results_qcnn_theta0.05.csv"
        header = b"asset_id,exceedance_rate,dq_stat,p_value,mean_var\n"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(header + b"a,0.05,1.0,0.5,0.02\xe9\n")
        else:
            path.write_bytes(header + b"a,0.05,1.0,0.5," + b"1" * 140_000 + b"\n")
        assert main(["report", "--results-dir", str(tmp_path)]) == 2
        assert "results_qcnn_theta0.05.csv" in capsys.readouterr().err

    def test_header_only_results_missing_column_exit_2(self, tmp_path, capsys):
        (tmp_path / "results_qcnn_theta0.05.csv").write_text("asset_id,exceedance_rate,mean_var\n")
        assert main(["report", "--results-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "results_qcnn_theta0.05.csv" in err and "p_value" in err

    def test_header_only_results_accepted(self, tmp_path, capsys):
        (tmp_path / "results_constant_theta0.05.csv").write_text(
            "asset_id,exceedance_rate,dq_stat,p_value,mean_var\na,0.05,1.0,0.5,0.02\n"
        )
        (tmp_path / "results_qcnn_theta0.05.csv").write_text(
            "asset_id,exceedance_rate,dq_stat,p_value,mean_var\n"
        )
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "summary_theta0.05.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["constant"]

    def test_empty_dir_is_error(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 2
