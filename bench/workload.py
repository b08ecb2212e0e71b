"""Workloads, synthetic panels, child-process measurement and the correctness
gate shared by both modes of the qvar benchmark (see run.py)."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

GARCH = {"omega": 0.05, "alpha": 0.10, "beta": 0.85}
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    assets: int
    days: int
    methods: tuple[str, ...]
    thetas: tuple[float, ...]
    epochs: int | None = None  # only the qcnn methods train
    workers: int | None = None  # None leaves qvar's default, os.cpu_count()
    write_series: bool = False

    @property
    def tasks(self) -> int:
        """(asset, method, theta) results one run must produce."""
        return self.assets * len(self.methods) * len(self.thetas)


_QCNN = {
    "days": 2000,
    "methods": ("qcnn", "joint_qcnn"),
    "thetas": (0.05, 0.01),
    "epochs": 4,
}

# bench/README.md says why each workload exists and why two of them are not
# listed in BENCHMARK.json
WORKLOADS = {
    "qcnn_serial": Workload(assets=2, workers=1, **_QCNN),
    "qcnn_pool": Workload(assets=2, **_QCNN),
    "baseline_panel": Workload(
        assets=3, days=2000, methods=("constant", "garch", "linear_qr"),
        thetas=(0.05, 0.01, 0.001),
    ),
    "ingest_panel": Workload(
        assets=20, days=10000, methods=("constant", "garch"),
        thetas=(0.05, 0.01, 0.001), write_series=True,
    ),
}


def tiny(w: Workload) -> Workload:
    """The same workload on a panel small enough for the benchmark's tests."""
    return dataclasses.replace(
        w, assets=min(w.assets, 3), days=400, epochs=1 if w.epochs else None
    )


def theta_tag(theta: float) -> str:
    return format(theta, "g")


# ---------------------------------------------------------------------------
# panel generation: the program only ever sees the price files
# ---------------------------------------------------------------------------


@dataclass
class Panel:
    manifest: Path
    assets: list[str]
    oracle: dict[tuple[str, float], float]  # mean true VaR over the test days
    gen_s: float


def asset_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"qvar-bench/{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def make_panel(w: Workload, seed: int, dest: Path) -> Panel:
    """Simulate the workload's GARCH(1,1) assets and write their price CSVs.

    The panel depends only on the seed, the asset count and the length, so
    workloads of the same size share it.
    """
    from qvar.baselines import GarchParams
    from qvar.synthlab import GARCH11, SimSpec, simulate, true_var, write_price_csv

    dest.mkdir(parents=True, exist_ok=True)
    params = GarchParams(mu=0.0, **GARCH)
    assets, paths = [], []
    t0 = time.perf_counter()
    for i in range(w.assets):
        asset = f"a{i:03d}"
        series, sigma = simulate(
            SimSpec(process=GARCH11, length=w.days, seed=asset_seed(seed, i), garch=params),
            asset_id=asset,
        )
        write_price_csv(series, dest / f"{asset}.csv")
        assets.append(asset)
        paths.append((series.split_index, sigma))
    gen_s = time.perf_counter() - t0
    manifest = dest / "manifest.txt"
    manifest.write_text("".join(f"{a}.csv\n" for a in assets))
    oracle = {
        (asset, theta): float(true_var(sigma[split:], params.mu, theta).mean())
        for asset, (split, sigma) in zip(assets, paths)
        for theta in w.thetas
    }
    return Panel(manifest=manifest, assets=assets, oracle=oracle, gen_s=gen_s)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path.

    No BLAS or OpenMP thread variable is added: the thread contention the
    pool workloads show is part of what they measure.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def qvar_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "qvar.cli", *args]


def run_arguments(w: Workload, manifest: Path, out: Path, seed: int, workers=None) -> list[str]:
    args = [
        "run", "--manifest", str(manifest), "--output-dir", str(out),
        "--methods", ",".join(w.methods),
        "--theta", ",".join(theta_tag(t) for t in w.thetas),
        "--seed", str(seed),
    ]
    if w.epochs is not None:
        args += ["--epochs", str(w.epochs)]
    workers = w.workers if workers is None else workers
    if workers is not None:
        args += ["--workers", str(workers)]
    if w.write_series:
        args.append("--write-series")
    return args


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float  # user + system of the child and every descendant it reaped
    peak_rss_mb: float  # largest resident set of any process in that tree
    returncode: int


def measure(command: list[str], log: Path) -> Sample:
    """Run one child to completion and read its resource usage from wait4."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, env=child_env(), cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
    )


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


@dataclass
class RunCheck:
    rows: list[tuple[str, str, float, float, float]]  # asset, method, theta, rate, mean_var
    skips: int
    problems: list[str]


def check_outputs(out: Path, w: Workload, assets: list[str]) -> RunCheck:
    """Every (asset, method, theta) needs a finite result row or a recorded skip.

    A skip is recorded per asset at load, per asset and stage for a task, or
    for every asset ("*") when a joint model is skipped.
    """
    check = RunCheck(rows=[], skips=0, problems=[])
    try:
        skipped = json.loads((out / "run_manifest.json").read_text())["skipped"]
    except (OSError, ValueError, KeyError) as exc:
        check.problems.append(f"run_manifest.json unreadable: {exc}")
        return check
    skip_keys = {(s["asset"], s["stage"]) for s in skipped}
    for theta in w.thetas:
        for method in w.methods:
            path = out / f"results_{method}_theta{theta_tag(theta)}.csv"
            found: dict[str, tuple[float, float]] = {}
            try:
                with open(path, newline="") as fh:
                    for row in csv.DictReader(fh):
                        try:
                            values = [float(row[k]) for k in ("exceedance_rate", "dq_stat", "p_value", "mean_var")]
                        except (TypeError, ValueError, KeyError):
                            check.problems.append(f"{path.name}: malformed row {row}")
                            continue
                        if not all(math.isfinite(v) for v in values):
                            check.problems.append(f"{path.name}: non-finite row {row}")
                            continue
                        found[row["asset_id"]] = (values[0], values[3])
            except OSError as exc:
                check.problems.append(f"{path.name}: {exc}")
            stage = f"{method}@{theta_tag(theta)}"
            for asset in assets:
                if skip_keys & {(asset, "load"), (asset, stage), ("*", stage)}:
                    check.skips += 1
                elif asset in found:
                    check.rows.append((asset, method, theta, *found[asset]))
                else:
                    check.problems.append(f"{path.name}: no result for {asset}")
    return check


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file the run wrote.

    The output directory's own path, which run_manifest.json records, is
    blanked first, so runs into different directories compare equal.
    """
    marker = json.dumps(str(out)).encode()
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            data = data.replace(marker, b'""')
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests


def digest_mismatch(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def quality(rows, oracle) -> tuple[float, float]:
    """Mean |exceedance rate - theta| and mean relative error of the mean VaR."""
    exceed = statistics.fmean(abs(rate - theta) for _, _, theta, rate, _ in rows)
    var = statistics.fmean(
        abs(mean_var - oracle[asset, theta]) / oracle[asset, theta]
        for asset, _, theta, _, mean_var in rows
    )
    return exceed, var


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError) as exc:
        blas_info = f"unknown ({exc})"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_"))},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }
