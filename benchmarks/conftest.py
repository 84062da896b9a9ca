"""Benchmark-suite configuration.

Each benchmark module regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index) on a reduced workload, so the whole suite
stays laptop-scale.  The benchmark *timings* measure the experiment harness;
the benchmark *extra_info* carries the reproduced numbers (H-means, RMSEs,
F1/NMI scores) so `pytest benchmarks/ --benchmark-only` doubles as the
reproduction run.  Scale the configs up (trials, ranks, dataset sizes) to
approach the paper's settings.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


#: Rows of the dense webscale subsample.  The dense Gram is an exact sum over
#: rows, so its wall-clock extrapolates linearly from this many rows and its
#: float32/float64 ratio does not depend on the count.
WEBSCALE_DENSE_ROWS = 5_000


@pytest.fixture(scope="session")
def webscale_sparse():
    """The webscale rating matrix (100k x 2k at 1% density), built once per
    session and only when a benchmark asks for it."""
    from repro.datasets.ratings import make_sparse_rating_matrix

    return make_sparse_rating_matrix(preset="webscale", seed=2024)


@pytest.fixture(scope="session")
def webscale_dense_sample(webscale_sparse):
    """The first :data:`WEBSCALE_DENSE_ROWS` rows of the webscale matrix,
    dense."""
    return webscale_sparse.rows(np.arange(WEBSCALE_DENSE_ROWS)).to_dense()


@pytest.fixture(scope="session")
def webscale_sparse_gram_seconds(webscale_sparse):
    """Wall-clock of one float64 sparse interval gram of the webscale
    matrix.  The sparse and the precision suites both report it (as
    ``sparse_gram_ms`` and ``sparse_f64_gram_ms``), so it is timed once."""
    from repro.interval.linalg import interval_gram

    start = time.perf_counter()
    interval_gram(webscale_sparse)
    return time.perf_counter() - start
