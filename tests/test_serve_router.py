"""Edge cases of the one scatter-gather router, against every backend.

:class:`~repro.serve.shard.ShardedQueryEngine` serves a model as one
in-process shard, over several in-process shards, and — through
:class:`~repro.serve.worker.WorkerShardedQueryEngine` — over worker
processes.  On inputs at the edges of the query API (``k`` below 1 or
above the candidate count, empty batches, negative and out-of-range user
indices) every backend must give the unsharded
:class:`~repro.serve.query.QueryEngine`'s answer bit for bit, or raise the
same error type.

That item-space queries never call a shard is the router's own policy,
so it is tested here with fake shard calls that all refuse.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.interval.array import IntervalMatrix
from repro.interval.random import random_interval_matrix
from repro.interval.sparse import SparseIntervalMatrix
from repro.serve.query import QueryEngine
from repro.serve.resilience import ShardUnavailableError
from repro.serve.shard import ShardedModelStore, ShardedQueryEngine, ShardPlanner
from repro.serve.worker import WorkerShardedQueryEngine

N_USERS, N_ITEMS = 12, 9


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    matrix = random_interval_matrix((N_USERS, N_ITEMS), interval_intensity=0.5,
                                    rng=7)
    decomposition = registry.get("isvd4").fit(matrix, 4, target="b")
    store = ShardedModelStore(tmp_path_factory.mktemp("router"))
    store.save_sharded("m", decomposition, 3, matrix=matrix)
    return matrix, decomposition, store


@pytest.fixture(scope="module", params=["one-shard", "in-process", "workers"])
def router(request, model):
    _, decomposition, store = model
    if request.param == "one-shard":
        engine = ShardedQueryEngine([decomposition])
    elif request.param == "in-process":
        engine = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
    else:
        engine = WorkerShardedQueryEngine(store, "m")
    yield engine
    engine.close()


def _arrays(result):
    """The arrays of a query result (a ``TopKResult`` pair, or one array)."""
    return list(result) if isinstance(result, tuple) else [result]


EMPTY = IntervalMatrix(np.empty((0, N_ITEMS)), np.empty((0, N_ITEMS)),
                       check=False)

#: Edge-case calls, each ``(engine, rows) -> result``.
CASES = {
    "top_k_items k=0": lambda e, rows: e.top_k_items(rows, 0),
    "nearest_neighbors k=0": lambda e, rows: e.nearest_neighbors(rows, 0),
    "top_k_items k>m": lambda e, rows: e.top_k_items(rows, N_ITEMS + 5),
    "nearest_neighbors k>n": lambda e, rows: e.nearest_neighbors(rows, N_USERS + 5),
    "top_k_items numpy k": lambda e, rows: e.top_k_items(rows, np.int64(2)),
    "reconstruct_rows empty": lambda e, rows: e.reconstruct_rows(EMPTY),
    "top_k_items empty": lambda e, rows: e.top_k_items(EMPTY, 3),
    "nearest_neighbors empty": lambda e, rows: e.nearest_neighbors(EMPTY, 3),
    "scores_for_users empty": lambda e, rows: e.scores_for_users([]),
    "scores_for_users negative":
        lambda e, rows: e.scores_for_users([-1, 0, -N_USERS]),
    "scores_for_users too large":
        lambda e, rows: e.scores_for_users([0, N_USERS]),
    "scores_for_users too negative":
        lambda e, rows: e.scores_for_users([-N_USERS - 1]),
    "top_k_for_users k>m":
        lambda e, rows: e.top_k_for_users([N_USERS - 1, 2], N_ITEMS + 1),
}


@pytest.mark.parametrize("case", CASES)
def test_router_matches_the_unsharded_engine(model, router, case):
    matrix, decomposition, _ = model
    rows = IntervalMatrix(matrix.lower[:3], matrix.upper[:3], check=False)
    call = CASES[case]
    try:
        expected = call(QueryEngine(decomposition), rows)
    except Exception as error:  # the error type is the answer
        with pytest.raises(type(error)):
            call(router, rows)
        return
    expected, actual = _arrays(expected), _arrays(call(router, rows))
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        np.testing.assert_array_equal(want, got)


class TestItemSpaceNeverCallsAShard:
    """Item-space queries are answered by the router's own projector: with
    every shard refusing every call, ``top_k_items`` and
    ``reconstruct_rows`` still return the unsharded engine's bytes, and no
    shard is ever asked."""

    @pytest.fixture
    def refusing(self, model):
        _, decomposition, _ = model
        router = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
        calls = []

        def shard_call(shard):
            def call(header, arrays, deadline):
                calls.append((shard, header.get("op")))
                raise ShardUnavailableError(shard, f"shard {shard} down")
            return call

        router._route(router.projector, router.row_ranges,
                      [shard_call(shard) for shard in range(3)],
                      scatter_width=3)
        # Chunk the batch three ways whatever this host's CPU count, so the
        # pooled path is exercised too.
        router._item_chunks = 3
        yield router, calls
        router.close()

    def _sparse(self, matrix):
        dense_rows = matrix.midpoint()[:5].copy()
        dense_rows[:, ::3] = 0.0  # unrated items leave the pattern
        return SparseIntervalMatrix.from_dense(
            IntervalMatrix.from_scalar(dense_rows))

    @pytest.mark.parametrize("batch", ["dense", "one row", "sparse", "empty"])
    def test_answers_without_any_shard(self, model, refusing, batch):
        matrix, decomposition, _ = model
        rows = {"dense": matrix, "one row": matrix[:1],
                "sparse": self._sparse(matrix), "empty": EMPTY}[batch]
        router, calls = refusing
        reference = QueryEngine(decomposition)
        for call in (lambda e: e.top_k_items(rows, 4),
                     lambda e: e.reconstruct_rows(rows)):
            expected, actual = _arrays(call(reference)), _arrays(call(router))
            for want, got in zip(expected, actual, strict=True):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                np.testing.assert_array_equal(want, got)
        assert calls == []
        # The fakes do refuse: a shard-backed query reaches them.
        with pytest.raises(ShardUnavailableError):
            router.nearest_neighbors(matrix, 2)
        assert len(calls) == 3
