"""Which scipy modules a qvar process loads, each case in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qvar
from qvar.baselines import GarchParams
from qvar.harness import ALL_METHODS
from qvar.synthlab import GARCH11, SimSpec, simulate, write_price_csv

SRC = Path(qvar.__file__).resolve().parents[1]
WATCHED = ("scipy.linalg", "scipy.optimize", "scipy.signal")


def run_python(*parts: str):
    """Run the parts as one script in a new interpreter that sees this checkout.

    Returns the JSON value the script prints last.
    """
    code = "\n".join(textwrap.dedent(part) for part in ("import json, sys", *parts))
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def experiment(tmp_path, methods, workers) -> str:
    """A script part that runs the methods over a two-asset panel at one level."""
    garch = GarchParams(omega=0.05, alpha=0.1, beta=0.85, mu=0.0)
    names = []
    for i in range(2):
        series, _ = simulate(
            SimSpec(process=GARCH11, length=300, seed=700 + i, garch=garch), asset_id=f"a{i}"
        )
        write_price_csv(series, tmp_path / f"a{i}.csv")
        names.append(f"a{i}.csv")
    manifest = tmp_path / "assets.txt"
    manifest.write_text("\n".join(names) + "\n")
    return f"""
        from pathlib import Path
        from qvar.harness import ExperimentConfig, run_experiment
        from qvar.qcnn import TrainConfig
        run_experiment(ExperimentConfig(
            manifest=Path({str(manifest)!r}),
            output_dir=Path({str(tmp_path / "out")!r}),
            thetas=(0.05,), methods={methods!r}, window=32, workers={workers},
            train=TrainConfig(epochs=1, batch_size=64),
        ))
        """


def test_cli_import_loads_no_scipy_submodule():
    loaded = run_python(
        """
        import qvar.cli
        names = ("scipy.linalg", "scipy.optimize", "scipy.signal", "scipy.special", "scipy.stats")
        print(json.dumps([m for m in names if m in sys.modules]))
        """
    )
    assert loaded == []


@pytest.mark.parametrize("workers", [1, 2])
def test_constant_and_qcnn_run_loads_no_solver(tmp_path, workers):
    # chi2_sf sums the chi-square tail itself, so scoring loads no scipy.special
    watched = (*WATCHED, "scipy.special")
    loaded = run_python(
        experiment(tmp_path, ("constant", "qcnn", "joint_qcnn"), workers),
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))",
    )
    assert loaded == []


def modules_at_fork(tmp_path, methods):
    """The watched modules the parent holds before a 2-worker run of the
    methods starts, and when it constructs its pool."""
    setup = f"""
        import qvar.harness
        from concurrent.futures import ProcessPoolExecutor
        seen = [[m for m in {WATCHED!r} if m in sys.modules]]

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen.append([m for m in {WATCHED!r} if m in sys.modules])
                super().__init__(*args, **kwargs)

        qvar.harness.ProcessPoolExecutor = Recording
        """
    return run_python(setup, experiment(tmp_path, methods, 2), "print(json.dumps(seen))")


def test_garch_pool_parent_holds_solvers_before_fork(tmp_path):
    # GARCH's Nelder-Mead loop is qvar's own; only its BLAS solve needs scipy
    before, at_fork = modules_at_fork(tmp_path, ("constant", "garch"))
    assert before == []
    assert at_fork == ["scipy.linalg"]


def test_linear_qr_pool_parent_holds_linprog_before_fork(tmp_path):
    before, at_fork = modules_at_fork(tmp_path, ("constant", "linear_qr"))
    assert before == []
    assert "scipy.optimize" in at_fork


def refusing(package: str) -> str:
    """A script part that installs a finder refusing the package, so an import
    of it in the parent or in any worker it forks fails the run."""
    return f"""
        class Refuse:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[:2] == {package.split(".")!r}:
                    raise ImportError(f"{{name}} imported during a run")

        sys.meta_path.insert(0, Refuse())
        """


@pytest.mark.parametrize("workers", [1, 2])
def test_run_of_every_method_never_loads_scipy_signal(tmp_path, workers):
    loaded = run_python(
        refusing("scipy.signal"),
        experiment(tmp_path, ALL_METHODS, workers),
        'print(json.dumps("scipy.signal" in sys.modules))',
    )
    assert loaded is False


@pytest.mark.parametrize("workers", [1, 2])
def test_garch_run_never_loads_scipy_optimize(tmp_path, workers):
    # the run must also succeed: a GARCH fit that needed scipy.optimize would
    # fail, and its asset would be skipped
    out = tmp_path / "out"
    loaded = run_python(
        refusing("scipy.optimize"),
        experiment(tmp_path, ("constant", "garch"), workers),
        'print(json.dumps("scipy.optimize" in sys.modules))',
    )
    assert loaded is False
    assert json.loads((out / "run_manifest.json").read_text())["skipped"] == []
    rows = (out / "results_garch_theta0.05.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["a0", "a1"]
