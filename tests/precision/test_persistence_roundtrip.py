"""Persistence of non-default dtypes: NPZ archives, sidecars, shards, pins.

A float32 model must survive the full publish → reload cycle with its dtype
*and its exact bytes*, its sidecar must record the dtype, and every consumer
that pinned a different precision must refuse it loudly instead of serving
silently-upcast numbers.  Float64 data must keep producing the exact
fingerprint digest it always has, so recorded fingerprints stay valid.
"""

import hashlib
import json

import numpy as np
import pytest

from strategies import random_matrix

from repro.core.isvd import isvd
from repro.interval.linalg import interval_matmul
from repro.interval.sparse import SparseIntervalMatrix
from repro.io import interval_fingerprint
from repro.serve.shard import ShardedModelStore
from repro.serve.store import ModelRecord
from repro.serve.worker import WorkerError, WorkerShardedQueryEngine

MATRIX_PARAMS = (20, 14, 0.5, 11)
RANK = 4


def _fit(dtype=None):
    matrix = random_matrix(MATRIX_PARAMS)
    return matrix, isvd(matrix, RANK, method="isvd4", target="b", dtype=dtype)


def _endpoint_bytes(factor):
    lower = getattr(factor, "lower", factor)
    upper = getattr(factor, "upper", factor)
    return (np.ascontiguousarray(lower).tobytes()
            + np.ascontiguousarray(upper).tobytes())


class TestNpzRoundTrip:
    def test_float32_model_survives_publish_and_reload(self, tmp_path):
        matrix, decomposition = _fit("float32")
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m32", decomposition, 1, matrix=matrix)
        assert record.dtype == "float32"
        assert record.to_dict()["dtype"] == "float32"
        loaded, loaded_record = store.load_merged("m32")
        assert loaded_record.dtype == "float32"
        assert loaded.dtype == np.float32
        for original, reloaded in zip(
                (decomposition.u, decomposition.sigma, decomposition.v),
                (loaded.u, loaded.sigma, loaded.v)):
            assert _endpoint_bytes(original) == _endpoint_bytes(reloaded)

    def test_float64_sidecar_records_dtype_key(self, tmp_path):
        matrix, decomposition = _fit()
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m64", decomposition, 1, matrix=matrix)
        sidecar = json.loads(store._meta_path("m64").read_text())
        assert sidecar["dtype"] == "float64"

    def test_invalid_sidecar_dtype_is_rejected(self, tmp_path):
        matrix, decomposition = _fit()
        store = ShardedModelStore(tmp_path / "models")
        payload = store.save_sharded("m64", decomposition, 1, matrix=matrix).to_dict()
        payload["dtype"] = "float16"
        with pytest.raises(ValueError, match="invalid model dtype"):
            ModelRecord.from_dict(payload)


class TestShardedRoundTrip:
    def test_float32_shards_record_dtype_and_reload_bitwise(self, tmp_path):
        matrix, decomposition = _fit("float32")
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m32", decomposition, 3, matrix=matrix)
        assert record.dtype == "float32"
        assert store.manifest("m32").record.dtype == "float32"
        merged, merged_record = store.load_merged("m32")
        assert merged_record.dtype == "float32"
        assert merged.dtype == np.float32
        for original, reloaded in zip(
                (decomposition.u, decomposition.sigma, decomposition.v),
                (merged.u, merged.sigma, merged.v)):
            assert _endpoint_bytes(original) == _endpoint_bytes(reloaded)

    def test_pinned_supervisor_refuses_mismatched_model(self, tmp_path):
        matrix, decomposition = _fit("float32")
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m32", decomposition, 2, matrix=matrix)
        with pytest.raises(WorkerError, match="pinned to dtype"):
            WorkerShardedQueryEngine(store, "m32", dtype="float64")


class TestFingerprintParity:
    def test_float64_fingerprint_matches_legacy_format(self):
        matrix = random_matrix(MATRIX_PARAMS)
        legacy = hashlib.sha256()
        legacy.update(repr(matrix.shape).encode())
        legacy.update(np.ascontiguousarray(matrix.lower).tobytes())
        legacy.update(np.ascontiguousarray(matrix.upper).tobytes())
        assert interval_fingerprint(matrix) == legacy.hexdigest()

    def test_float32_fingerprint_is_dtype_tagged(self):
        matrix = random_matrix(MATRIX_PARAMS)
        narrowed = matrix.astype(np.float32, outward=True)
        assert interval_fingerprint(narrowed) != interval_fingerprint(matrix)
        tagged = hashlib.sha256()
        tagged.update(repr(narrowed.shape).encode())
        tagged.update(b"dtype:float32:")
        tagged.update(np.ascontiguousarray(narrowed.lower).tobytes())
        tagged.update(np.ascontiguousarray(narrowed.upper).tobytes())
        assert interval_fingerprint(narrowed) == tagged.hexdigest()


class TestSparseDtypePreservation:
    """Regression: ``from_dense``/``interval_matmul`` silently upcast float32
    sparse operands to float64 before this tier existed."""

    def test_from_dense_preserves_float32(self):
        matrix = random_matrix(MATRIX_PARAMS, dtype=np.float32)
        sparse = SparseIntervalMatrix.from_dense(matrix)
        assert sparse.dtype == np.float32
        assert sparse.lower.data.dtype == np.float32
        assert sparse.upper.data.dtype == np.float32

    def test_sparse_matmul_preserves_float32(self):
        left = random_matrix((6, 5, 0.5, 3), dtype=np.float32)
        right = random_matrix((5, 4, 0.5, 4), dtype=np.float32)
        product = interval_matmul(SparseIntervalMatrix.from_dense(left),
                                  SparseIntervalMatrix.from_dense(right),
                                  kernel="rump")
        assert product.dtype == np.float32

    def test_mixed_dtype_sparse_operands_upcast_to_float64(self):
        left = random_matrix((6, 5, 0.5, 3), dtype=np.float32)
        right = random_matrix((5, 4, 0.5, 4))
        product = interval_matmul(SparseIntervalMatrix.from_dense(left),
                                  SparseIntervalMatrix.from_dense(right),
                                  kernel="rump")
        assert product.dtype == np.float64
