"""What a qvar process loads and how many BLAS threads it starts, each case
in a fresh interpreter."""

import functools
import json
import os
import subprocess
import sys
import textwrap

import pytest

import conftest
from qvar.cli import main
from qvar.harness import ALL_METHODS

WATCHED = ("scipy.linalg", "scipy.optimize", "scipy.signal")
checkout_env = conftest.checkout_env


def run_python(*parts: str, environ=None):
    """Run the parts as one script in a new interpreter that sees this checkout.

    Returns the JSON value the script prints last.
    """
    code = "\n".join(textwrap.dedent(part) for part in ("import json, sys", *parts))
    env = checkout_env(environ)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# a two-asset panel; returns its manifest
write_panel = functools.partial(
    conftest.write_panel, seed_base=700, n_assets=2, length=300, prefix="a"
)


def experiment(tmp_path, methods, workers) -> str:
    """A script part that runs the methods over a two-asset panel at one level."""
    manifest = write_panel(tmp_path)
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


@pytest.mark.parametrize("statement", ["import qvar", "import qvar.cli"], ids=["qvar", "qvar.cli"])
def test_import_loads_no_numpy(statement):
    assert run_python(statement, 'print(json.dumps("numpy" in sys.modules))') is False


def test_help_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qvar.cli", "--help"],
        env=checkout_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qvar")
    # each "import time:" line ends with the name of one module it loaded
    loaded = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "qvar.config" in loaded
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []


def test_every_public_name_is_its_submodule_object():
    wrong = run_python(
        """
        import qvar
        wrong = []
        for name in qvar.__all__[1:]:
            scope = {}
            exec(f"from qvar import {name}", scope)
            obj = scope[name]
            home = obj.__module__
            if not home.startswith("qvar.") or getattr(sys.modules[home], name) is not obj:
                wrong.append(name)
        print(json.dumps([qvar.__all__[0], wrong]))
        """
    )
    assert wrong == ["__version__", []]


def test_from_qvar_imports_a_submodule():
    assert run_python(
        "from qvar import baselines",
        'print(json.dumps([baselines.__name__, sys.modules["qvar.baselines"] is baselines]))',
    ) == ["qvar.baselines", True]


@pytest.mark.parametrize("workers", [1, 2])
def test_constant_and_qcnn_run_loads_no_solver(tmp_path, workers):
    # chi2_sf sums the chi-square tail itself, so scoring loads no scipy.special,
    # and GARCH loads only scipy's BLAS extension
    watched = (*WATCHED, "scipy.special")
    loaded = run_python(
        experiment(tmp_path, ("constant", "garch", "qcnn", "joint_qcnn"), workers),
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))",
    )
    assert loaded == []


def modules_at_fork(tmp_path, methods):
    """The watched modules the parent holds before a 2-worker run of the
    methods starts, and when it constructs its pool."""
    # run_experiment imports the pool class when it starts one, so the
    # recording subclass is put where that import finds it
    setup = f"""
        import concurrent.futures
        import qvar.harness
        seen = [[m for m in {WATCHED!r} if m in sys.modules]]

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen.append([m for m in {WATCHED!r} if m in sys.modules])
                super().__init__(*args, **kwargs)

        concurrent.futures.ProcessPoolExecutor = Recording
        """
    return run_python(setup, experiment(tmp_path, methods, 2), "print(json.dumps(seen))")


def test_garch_pool_parent_holds_solvers_before_fork(tmp_path):
    # GARCH's Nelder-Mead loop is qvar's own and each worker loads the BLAS
    # extension for its solve, so the parent imports nothing for it
    before, at_fork = modules_at_fork(tmp_path, ("constant", "garch"))
    assert before == []
    assert at_fork == []


def test_linear_qr_pool_parent_holds_linprog_before_fork(tmp_path):
    before, at_fork = modules_at_fork(tmp_path, ("constant", "linear_qr"))
    assert before == []
    assert "scipy.optimize" in at_fork


@pytest.mark.parametrize("workers", [1, 2])
def test_garch_run_loads_no_openssl_or_masked_arrays(tmp_path, workers):
    # derive_seed's blake2b comes from _blake2, not hashlib, so no process
    # loads OpenSSL. Each pool task records what its process (the parent, at
    # one worker) holds as the task ends: no task loads numpy.ma, which only
    # aggregate's np.median loads, in the parent after every task has ended.
    watched, held = ("_hashlib", "numpy.ma"), tmp_path / "held.jsonl"
    parent = run_python(
        f"""
        import qvar.harness
        task = qvar.harness._run_asset

        def recording(*args):
            out = task(*args)
            with open({str(held)!r}, "a") as lines:
                lines.write(json.dumps([m for m in {watched!r} if m in sys.modules]) + "\\n")
            return out

        qvar.harness._run_asset = recording
        """,
        experiment(tmp_path, ("constant", "garch"), workers),
        'print(json.dumps("_hashlib" in sys.modules))',
    )
    assert [json.loads(line) for line in held.read_text().splitlines()] == [[], []]
    assert parent is False


def test_one_worker_run_loads_no_pool(tmp_path):
    manifest, out = write_panel(tmp_path), tmp_path / "out"
    loaded = run_python(
        f"""
        from qvar.cli import main
        code = main(["run", "--manifest", {str(manifest)!r}, "--output-dir", {str(out)!r},
                     "--methods", "constant,garch", "--theta", "0.05", "--workers", "1"])
        assert code == 0
        """,
        'print(json.dumps([m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]))',
    )
    assert loaded == []


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


def run_garch_refusing(tmp_path, package: str, workers: int):
    """Run constant and GARCH over the two-asset panel with the package
    refused. The run must also succeed: a GARCH fit that needed the package
    would fail, and its asset would be skipped."""
    out = tmp_path / "out"
    loaded = run_python(
        refusing(package),
        experiment(tmp_path, ("constant", "garch"), workers),
        f"print(json.dumps({package!r} in sys.modules))",
    )
    assert loaded is False
    assert json.loads((out / "run_manifest.json").read_text())["skipped"] == []
    rows = (out / "results_garch_theta0.05.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["a0", "a1"]


@pytest.mark.parametrize("workers", [1, 2])
def test_garch_run_never_loads_scipy_optimize(tmp_path, workers):
    run_garch_refusing(tmp_path, "scipy.optimize", workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_garch_run_never_loads_scipy_linalg(tmp_path, workers):
    # the variance recursion loads scipy's BLAS extension by file
    run_garch_refusing(tmp_path, "scipy.linalg", workers)


def test_variance_recursion_calls_scipy_linalg_dtbsv():
    # loaded by file before scipy.linalg, the extension is the one that
    # scipy.linalg.blas re-exports when it is imported later
    assert run_python(
        """
        import numpy as np
        from qvar import baselines
        eps2 = np.random.default_rng(5).standard_normal(1000) ** 2
        first = baselines._variance_recursion(eps2, 0.05, 0.1, 0.85, 1.0)
        early = "scipy.linalg" in sys.modules
        import scipy.linalg.blas
        again = baselines._variance_recursion(eps2, 0.05, 0.1, 0.85, 1.0)
        print(json.dumps([early, baselines._fblas().dtbsv is scipy.linalg.blas.dtbsv,
                          first.tobytes() == again.tobytes()]))
        """
    ) == [False, True, True]


def test_missing_blas_extension_is_an_import_error(tmp_path):
    # one code path: no fallback to another BLAS when scipy lacks the extension
    assert run_python(
        f"""
        import numpy as np
        import scipy
        from qvar import baselines
        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            baselines._variance_recursion(np.ones(3), 0.05, 0.1, 0.85, 1.0)
        except ImportError as exc:
            print(json.dumps(str(exc)))
        """
    ) == f"scipy has no BLAS extension scipy.linalg._fblas in {tmp_path / 'linalg'}"


@pytest.mark.parametrize("preset", [None, "2"])
def test_run_pins_openblas_to_one_thread_unless_preset(tmp_path, preset):
    # main() sets the variable in its own process, so it runs in a fresh one
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        environ["OPENBLAS_NUM_THREADS"] = preset
    manifest, out = write_panel(tmp_path), tmp_path / "out"
    value, threads, scipy_blas = run_python(
        f"""
        import os
        from qvar.cli import main
        code = main(["run", "--manifest", {str(manifest)!r}, "--output-dir", {str(out)!r},
                     "--methods", "constant,garch", "--theta", "0.05", "--workers", "1"])
        assert code == 0
        task, maps = "/proc/self/task", "/proc/self/maps"
        threads = len(os.listdir(task)) if os.path.isdir(task) else None
        scipy_blas = None
        if os.path.isfile(maps):
            with open(maps) as lines:
                scipy_blas = any("/libscipy_openblas-" in line for line in lines)
        print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], threads, scipy_blas]))
        """,
        environ=environ,
    )
    assert value == (preset or "1")
    if threads is None or scipy_blas is None:
        pytest.skip("no /proc/self to count threads and mapped libraries in")
    # the GARCH fit mapped scipy's OpenBLAS beside numpy's (libscipy_openblas64_)
    assert scipy_blas
    if preset is None:
        # numpy's and scipy's OpenBLAS each started no helper thread
        assert threads == 1


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    manifest = write_panel(tmp_path, length=400)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "qvar.cli", "run", "--manifest", str(manifest),
             "--output-dir", str(out), "--methods", ",".join(ALL_METHODS),
             "--theta", "0.05,0.01", "--window", "32", "--epochs", "1", "--workers", "2",
             "--write-series"],
            env=checkout_env({**os.environ, "OPENBLAS_NUM_THREADS": threads}),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        files["run_manifest.json"] = files["run_manifest.json"].replace(str(out).encode(), b"OUT")
        outputs.append(files)
    assert len(outputs[0]) > 20
    assert outputs[0] == outputs[1]


# the next two tests run in this order: the first leaves main()'s pin in
# os.environ, and the second must not see it
SESSION_BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")


def test_in_process_main_sets_the_pin(tmp_path):
    os.environ.pop("OPENBLAS_NUM_THREADS", None)
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_the_pin_does_not_outlive_the_test_that_set_it():
    assert os.environ.get("OPENBLAS_NUM_THREADS") == SESSION_BLAS_THREADS
