"""Tests of the benchmark itself: python3 -m pytest bench/tests

Every workload runs at a tiny size in both modes; the correctness gate must
catch a truncated results file and differing bytes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workload import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    check_outputs,
    digest_mismatch,
    make_panel,
    measure,
    output_digests,
    qvar_command,
    run_arguments,
    tiny,
)

sys.path.insert(0, str(SRC))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc, proc.stdout.strip().splitlines()


def test_spec_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_prints_every_end_to_end_metric(workload):
    proc, lines = run_bench(workload, seed=5, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    assert any(line.startswith("failed_frac") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"cpu_count", "cpu_affinity", "blas", "thread_env", "threadpoolctl"} <= set(env)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_prints_every_per_layer_metric(workload):
    proc, lines = run_bench(workload, seed=5, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    training = WORKLOADS[workload].epochs is not None
    assert (metrics["qcnn.train.calls"] > 0) == training

    spans = [json.loads(line) for line in (WORK / "traces" / f"{workload}-seed5.jsonl").open()]
    (run,) = [s for s in spans if s["name"] == "harness.run"]
    inside = {run["id"]}
    for s in spans:  # parents precede their children
        if s["parent"] in inside:
            inside.add(s["id"])
    assert all(s["self"] >= 0 for s in spans)
    assert sum(s["self"] for s in spans if s["id"] in inside) <= metrics["harness.run.s"] * (1 + 1e-9)
    assert metrics["harness.self_s"] <= metrics["harness.run.s"]


def test_held_out_seed_gives_the_same_metric_names():
    names = []
    for seed in (2, 9):
        proc, lines = run_bench("baseline_panel", seed=seed, trace=0)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        names.append(sorted(json.loads(lines[-1])["metrics"]))
    assert names[0] == names[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("qcnn_serial", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.fixture(scope="module")
def one_run(tmp_path_factory):
    """A tiny baseline_panel run: its workload, panel and output directory."""
    base = tmp_path_factory.mktemp("gate")
    w = tiny(WORKLOADS["baseline_panel"])
    panel = make_panel(w, 4, base / "panel")
    out = base / "out"
    sample = measure(qvar_command(*run_arguments(w, panel.manifest, out, 4)), base / "run.log")
    assert sample.returncode == 0, (base / "run.log").read_text()
    return w, panel, out


def test_gate_accepts_a_complete_run(one_run):
    w, panel, out = one_run
    check = check_outputs(out, w, panel.assets)
    assert check.problems == [] and check.skips == 0
    assert len(check.rows) == w.tasks


def test_gate_rejects_a_truncated_results_csv(one_run, tmp_path):
    w, panel, out = one_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "results_garch_theta0.01.csv"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) * 2 // 3])
    assert check_outputs(copy, w, panel.assets).problems


def test_gate_rejects_differing_bytes(one_run, tmp_path):
    _, _, out = one_run
    copy = tmp_path / "elsewhere"
    shutil.copytree(out, copy)
    # as if written there: the manifest records its own output directory
    manifest = copy / "run_manifest.json"
    manifest.write_text(manifest.read_text().replace(json.dumps(str(out)), json.dumps(str(copy))))
    assert digest_mismatch(output_digests(out), output_digests(copy)) == []
    path = copy / "summary_theta0.05.csv"
    path.write_bytes(path.read_bytes().replace(b"0", b"1", 1))
    assert digest_mismatch(output_digests(out), output_digests(copy)) == ["summary_theta0.05.csv"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "b", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.totals("b") == (2, 4.0)
