"""Byte-stability locks: determinism within a dtype, and float64 parity.

Two distinct guarantees, both asserted on raw bytes (``.tobytes()``), never
on tolerances:

* **within a dtype** — micro-batching, in-process sharding, and the worker
  fleet's scatter-gather must reproduce the unbatched/unsharded answer bit
  for bit, at float32 exactly as the suite already locks for float64, and
  any row split of the queries or of the stored rows must too, on
  real-valued data where every product rounds;
* **float64 parity** — the default (``dtype=None``) pipeline must remain
  byte-identical to an explicit ``dtype="float64"`` request for every ISVD
  method, so the precision plumbing is provably a no-op on the historical
  path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (
    common_settings,
    query_rows_params,
    random_matrix,
    real_interval_rows,
    real_model_params,
    real_valued_decomposition,
    row_split,
    row_split_params,
)

from repro.core.isvd import isvd
from repro.core.result import IntervalDecomposition
from repro.serve.query import QueryEngine
from repro.serve.shard import (
    ShardedModelStore,
    ShardedQueryEngine,
    ShardPlanner,
    _slice_factor_rows,
)
from repro.serve.worker import WorkerShardedQueryEngine

DTYPE_NAMES = ("float64", "float32")

MATRIX_PARAMS = (24, 16, 0.6, 7)  # rows, cols, intensity, seed
RANK = 5


def _fit(dtype):
    matrix = random_matrix(MATRIX_PARAMS)
    return matrix, isvd(matrix, RANK, method="isvd4", target="b", dtype=dtype)


def _factor_bytes(decomposition):
    parts = []
    for factor in (decomposition.u, decomposition.sigma, decomposition.v):
        lower = getattr(factor, "lower", factor)
        upper = getattr(factor, "upper", factor)
        parts.append(np.ascontiguousarray(lower).tobytes())
        parts.append(np.ascontiguousarray(upper).tobytes())
    return b"".join(parts)


@pytest.mark.parametrize("dtype", DTYPE_NAMES)
class TestMicroBatching:
    def test_batched_reconstruct_equals_per_row(self, dtype):
        matrix, decomposition = _fit(dtype)
        engine = QueryEngine(decomposition)
        rows = matrix.midpoint()[:8].astype(dtype)
        batched = engine.reconstruct_rows(rows)
        assert batched.dtype.name == dtype
        stacked = np.vstack([engine.reconstruct_rows(rows[i:i + 1])
                             for i in range(rows.shape[0])])
        assert batched.tobytes() == stacked.tobytes()

    def test_batched_top_k_equals_per_row(self, dtype):
        matrix, decomposition = _fit(dtype)
        engine = QueryEngine(decomposition)
        rows = matrix.midpoint()[:8].astype(dtype)
        batched = engine.top_k_items(rows, 4)
        for i in range(rows.shape[0]):
            single = engine.top_k_items(rows[i:i + 1], 4)
            assert single.indices.tobytes() == batched.indices[i:i + 1].tobytes()
            assert single.scores.tobytes() == batched.scores[i:i + 1].tobytes()


@pytest.mark.parametrize("dtype", DTYPE_NAMES)
class TestShardingByteParity:
    def test_in_process_sharded_engine_matches_unsharded(self, dtype):
        matrix, decomposition = _fit(dtype)
        unsharded = QueryEngine(decomposition)
        sharded = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
        try:
            rows = matrix.midpoint()[:6].astype(dtype)
            assert (sharded.reconstruct_rows(rows).tobytes()
                    == unsharded.reconstruct_rows(rows).tobytes())
            assert (sharded.scores_for_users().tobytes()
                    == unsharded.scores_for_users().tobytes())
            sharded_nn = sharded.nearest_neighbors(rows, 4)
            unsharded_nn = unsharded.nearest_neighbors(rows, 4)
            assert sharded_nn.indices.tobytes() == unsharded_nn.indices.tobytes()
            assert sharded_nn.scores.tobytes() == unsharded_nn.scores.tobytes()
        finally:
            sharded.close()


def _split_decomposition(decomposition, ranges):
    """One shard decomposition per ``(start, stop)`` range of stored rows."""
    return [IntervalDecomposition(
        u=_slice_factor_rows(decomposition.u, start, stop),
        sigma=decomposition.sigma, v=decomposition.v,
        target=decomposition.target, method=decomposition.method,
        rank=decomposition.rank)
        for start, stop in ranges]


def _answers(engine, rows, k):
    """Every reference- and item-space answer of ``engine``, as arrays."""
    nearest = engine.nearest_neighbors(rows, k)
    return {
        "fold_in": engine.projector.fold_in(rows),
        "reconstruct_rows": engine.reconstruct_rows(rows),
        "neighbor_squared_distances": engine.neighbor_squared_distances(rows),
        "nearest_neighbors.indices": nearest.indices,
        "nearest_neighbors.scores": nearest.scores,
    }


def _assert_same_bytes(expected, actual):
    for name, array in expected.items():
        assert actual[name].dtype == array.dtype, name
        assert actual[name].shape == array.shape, name
        assert actual[name].tobytes() == array.tobytes(), name


@pytest.mark.parametrize("dtype", DTYPE_NAMES)
class TestSplitInvariance:
    """Any split of the work gives the same bytes, on real-valued data.

    The hypothesis scatter-gather parity suite draws integer-valued models,
    which any summation order computes exactly, so it cannot catch a kernel
    whose rounding depends on the batch shape or on where a shard's rows
    start.  Here every product rounds, and both the query batch and the
    stored rows are cut at random, generally uneven, points.
    """

    @settings(**common_settings(max_examples=40))
    @given(model=real_model_params, queries=query_rows_params,
           query_split=row_split_params, reference_split=row_split_params,
           k=st.integers(1, 6))
    def test_any_row_split_gives_the_same_bytes(
            self, dtype, model, queries, query_split, reference_split, k):
        decomposition = real_valued_decomposition(model, dtype)
        n_rows, n_items = decomposition.shape
        rows = real_interval_rows(queries, n_items, dtype)
        engine = QueryEngine(decomposition)
        whole = _answers(engine, rows, k)
        assert whole["neighbor_squared_distances"].dtype == np.dtype(dtype)

        # Split the query batch: each chunk answers its rows exactly as the
        # whole batch did.
        chunks = [_answers(engine, _slice_factor_rows(rows, start, stop), k)
                  for start, stop in row_split(rows.shape[0], query_split)]
        _assert_same_bytes(whole, {
            name: np.concatenate([chunk[name] for chunk in chunks])
            for name in whole})

        # Split the stored rows: the scatter-gather router over uneven
        # shards answers exactly as the one engine over all of them.
        sharded = ShardedQueryEngine(_split_decomposition(
            decomposition, row_split(n_rows, reference_split)))
        try:
            _assert_same_bytes(whole, _answers(sharded, rows, k))
        finally:
            sharded.close()


class TestWorkerScatterGather:
    def test_float32_worker_fleet_matches_in_process_engine(self, tmp_path):
        matrix, decomposition = _fit("float32")
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m32", decomposition, 2, matrix=matrix)
        reference = QueryEngine(decomposition)
        engine = WorkerShardedQueryEngine(store, "m32")
        try:
            rows = matrix.midpoint()[:5].astype(np.float32)
            gathered = engine.reconstruct_rows(rows)
            expected = reference.reconstruct_rows(rows)
            assert gathered.dtype == np.float32
            assert gathered.tobytes() == expected.tobytes()
            worker_nn = engine.nearest_neighbors(rows, 3)
            local_nn = reference.nearest_neighbors(rows, 3)
            assert worker_nn.indices.tobytes() == local_nn.indices.tobytes()
            assert worker_nn.scores.tobytes() == local_nn.scores.tobytes()
        finally:
            engine.close()


class TestFloat64Parity:
    @pytest.mark.parametrize("method,target", [
        ("isvd0", "c"),
        ("isvd1", "b"),
        ("isvd2", "b"),
        ("isvd3", "b"),
        ("isvd4", "b"),
    ])
    def test_explicit_float64_is_byte_identical_to_default(self, method,
                                                           target):
        matrix = random_matrix(MATRIX_PARAMS)
        default = isvd(matrix, RANK, method=method, target=target)
        explicit = isvd(matrix, RANK, method=method, target=target,
                        dtype="float64")
        assert _factor_bytes(default) == _factor_bytes(explicit)

    def test_float64_serving_is_byte_identical_to_default(self):
        matrix = random_matrix(MATRIX_PARAMS)
        default = QueryEngine(isvd(matrix, RANK, method="isvd4", target="b"))
        explicit = QueryEngine(
            isvd(matrix, RANK, method="isvd4", target="b", dtype="float64"))
        rows = matrix.midpoint()[:6]
        assert (default.reconstruct_rows(rows).tobytes()
                == explicit.reconstruct_rows(rows).tobytes())
        assert (default.scores_for_users().tobytes()
                == explicit.scores_for_users().tobytes())
