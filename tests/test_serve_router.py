"""Edge cases of the one scatter-gather router, against every backend.

:class:`~repro.serve.shard.ShardedQueryEngine` serves single-file models as
one in-process shard, sharded models over in-process shards, and — through
:class:`~repro.serve.worker.WorkerShardedQueryEngine` — over worker
processes.  On inputs at the edges of the query API (``k`` below 1 or
above the candidate count, empty batches, negative and out-of-range user
indices) every backend must give the unsharded
:class:`~repro.serve.query.QueryEngine`'s answer bit for bit, or raise the
same error type.

The reroute of an item-space chunk around an unavailable shard is the
router's own policy, so it is tested here with fake shard calls.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.interval.array import IntervalMatrix
from repro.interval.random import random_interval_matrix
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


class TestItemSpaceReroute:
    """An item-space chunk whose shard is unavailable goes to another shard
    whose breaker is closed; shards with an open or half-open breaker are
    never asked (asking one could start its probe respawn)."""

    def _router(self, decomposition, shards, breaker_closed):
        router = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
        local = list(router._shards)
        calls = []

        def shard_call(shard, available):
            def call(header, arrays, deadline):
                calls.append(shard)
                if not available:
                    raise ShardUnavailableError(shard, f"shard {shard} down")
                return local[shard](header, arrays, deadline)
            return call

        router._route(router.projector, router.row_ranges,
                      [shard_call(shard, available)
                       for shard, available in enumerate(shards)],
                      scatter_width=1, breaker_closed=breaker_closed)
        return router, calls

    def test_reroutes_to_a_closed_breaker_only(self, model):
        matrix, decomposition, _ = model
        router, calls = self._router(decomposition, [False, True, True],
                                     breaker_closed=lambda shard: shard != 1)
        expected = QueryEngine(decomposition).top_k_items(matrix, 4)
        result = router.top_k_items(matrix, 4)
        np.testing.assert_array_equal(expected.indices, result.indices)
        np.testing.assert_array_equal(expected.scores, result.scores)
        assert calls == [0, 2]

    def test_raises_the_first_error_when_no_shard_can_take_it(self, model):
        matrix, decomposition, _ = model
        router, calls = self._router(decomposition, [False, True, False],
                                     breaker_closed=lambda shard: shard != 1)
        with pytest.raises(ShardUnavailableError, match="shard 0 down"):
            router.reconstruct_rows(matrix)
        assert calls == [0, 2]
