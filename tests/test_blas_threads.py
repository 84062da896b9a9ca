"""Byte stability across BLAS thread settings.

Every other byte lock in the suite compares two runs inside one process,
so one OpenBLAS thread setting.  Here the same grams and fits run in two
fresh interpreters — one with ``OPENBLAS_NUM_THREADS=1``, one at
OpenBLAS's default thread count (one per core) — and their digests must
match.  The cases are the ones that hold on a 400x90 rating matrix: the
endpoint4 gram and rank-8 ISVD4 fit on dense and sparse input, and the
rump ones on sparse input.  The dense rump gram is the known exception and
is not locked here: its radius products ``|Ac|.T @ Br`` and
``Ar.T @ (|Bc| + Br)`` give different bytes under threaded OpenBLAS (see
``docs/ARCHITECTURE.md``, Precision modes).

On a one-core box both interpreters run one BLAS thread, so the check
passes trivially there.
"""

import json

from fresh_interpreter import run

#: Sets the thread count from ``sys.argv[1]`` ("1" or "default") before
#: numpy loads OpenBLAS, then prints one digest per case.
DIGESTS = """
import os, sys
for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.pop(key, None)
if sys.argv[1] == "1":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib, json
import numpy as np
from repro.core.isvd import isvd
from repro.datasets.ratings import make_sparse_rating_matrix
from repro.interval.kernels import get_kernel

sparse = make_sparse_rating_matrix(preset=None, n_users=400, n_items=90,
                                   density=0.05, seed=3)
inputs = {"dense": sparse.to_dense(), "sparse": sparse}
digests = {}
for kernel, storage in (("endpoint4", "dense"), ("endpoint4", "sparse"),
                        ("rump", "sparse")):
    matrix = inputs[storage]
    fit = isvd(matrix, 8, method="isvd4", kernel=kernel)
    arrays = list(get_kernel(kernel).gram(matrix))
    for factor in (fit.u, fit.sigma, fit.v):
        arrays += [getattr(factor, "lower", factor),
                   getattr(factor, "upper", factor)]
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(array.dtype.str.encode() + array.tobytes())
    digests[f"{kernel} {storage}"] = digest.hexdigest()
print(json.dumps(digests))
"""


def _digests(threads: str) -> dict:
    completed = run("-c", DIGESTS, threads)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_grams_and_fits_match_across_blas_thread_settings():
    single, default = _digests("1"), _digests("default")
    assert set(single) == {"endpoint4 dense", "endpoint4 sparse", "rump sparse"}
    assert single == default
