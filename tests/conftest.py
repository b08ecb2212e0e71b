import os

import pytest

from qvar.baselines import GarchParams
from qvar.synthlab import GARCH11, SimSpec, simulate, write_price_csv

BLAS_THREADS = "OPENBLAS_NUM_THREADS"


@pytest.fixture(autouse=True)
def restore_blas_threads():
    """Put back this session's OPENBLAS_NUM_THREADS after each test.

    qvar.cli.main() sets the variable when it is unset, so without this a
    suite that calls main in process would pin every interpreter a later
    test starts with os.environ.
    """
    saved = os.environ.get(BLAS_THREADS)
    yield
    if saved is None:
        os.environ.pop(BLAS_THREADS, None)
    else:
        os.environ[BLAS_THREADS] = saved


def write_panel(directory, seed_base, n_assets=3, length=400, prefix="asset"):
    """Write a GARCH(1,1) price panel into `directory` and return its manifest.

    Asset i is `{prefix}{i}.csv`: `length` returns simulated from seed
    seed_base + i.
    """
    garch = GarchParams(omega=0.05, alpha=0.1, beta=0.85, mu=0.0)
    names = []
    for i in range(n_assets):
        series, _ = simulate(
            SimSpec(process=GARCH11, length=length, seed=seed_base + i, garch=garch),
            asset_id=f"{prefix}{i}",
        )
        write_price_csv(series, directory / f"{prefix}{i}.csv")
        names.append(f"{prefix}{i}.csv")
    manifest = directory / "assets.txt"
    manifest.write_text("\n".join(names) + "\n")
    return manifest
