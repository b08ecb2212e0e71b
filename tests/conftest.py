import os

import pytest

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
