"""Tests for row-range sharding: planner, store, scatter-gather parity.

The headline property — asserted both with hypothesis over tie-heavy
synthetic models and with fitted decompositions — is that the
:class:`~repro.serve.shard.ShardedQueryEngine` is **byte-identical** to the
single :class:`~repro.serve.query.QueryEngine` over the merged model: same
indices, same score bits, for every query type, shard count, rank, and input.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.core import registry
from repro.core.result import IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.interval.sparse import SparseIntervalMatrix
from repro.serve.query import QueryEngine, top_k, top_k_from_candidates
from repro.serve.shard import (
    ShardedModelStore,
    ShardedQueryEngine,
    ShardPlanner,
    merge_shards,
    plan_row_ranges,
)
from repro.serve.store import ModelStore, ModelStoreError


@pytest.fixture
def fitted(small_interval_matrix):
    decomposition = registry.get("isvd4").fit(small_interval_matrix, 4, target="b")
    return small_interval_matrix, decomposition


def _assert_same_result(expected, actual):
    np.testing.assert_array_equal(expected.indices, actual.indices)
    np.testing.assert_array_equal(expected.scores, actual.scores)


class TestPlanner:
    def test_ranges_are_contiguous_and_balanced(self):
        assert plan_row_ranges(10, 3) == ((0, 4), (4, 7), (7, 10))
        assert plan_row_ranges(8, 4) == ((0, 2), (2, 4), (4, 6), (6, 8))
        assert plan_row_ranges(5, 1) == ((0, 5),)

    def test_rejects_empty_shards(self):
        with pytest.raises(ValueError, match="non-empty"):
            plan_row_ranges(3, 4)
        with pytest.raises(ValueError, match="n_shards"):
            plan_row_ranges(3, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 16))
    def test_any_plan_partitions_the_rows(self, n_rows, n_shards):
        if n_shards > n_rows:
            with pytest.raises(ValueError):
                plan_row_ranges(n_rows, n_shards)
            return
        ranges = plan_row_ranges(n_rows, n_shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
        sizes = [stop - start for start, stop in ranges]
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        assert all(ranges[i][1] == ranges[i + 1][0] for i in range(len(ranges) - 1))

    def test_split_slices_u_and_replicates_item_factors(self, fitted):
        _, decomposition = fitted
        shards = ShardPlanner(3).split(decomposition)
        assert [s.shape[0] for s in shards] == [4, 4, 4]
        for index, shard in enumerate(shards):
            assert shard.rank == decomposition.rank
            assert shard.metadata["shard_index"] == index
            np.testing.assert_array_equal(np.asarray(shard.v),
                                          np.asarray(decomposition.v))
        merged = merge_shards(shards)
        np.testing.assert_array_equal(merged.u_scalar(), decomposition.u_scalar())

    def test_merge_refuses_mixed_models(self, fitted):
        matrix, decomposition = fitted
        other = registry.get("isvd0").fit(matrix, 4, target="c")
        with pytest.raises(ValueError, match="different models"):
            merge_shards([ShardPlanner(2).split(decomposition)[0],
                          ShardPlanner(2).split(other)[1]])


def _tie_heavy_engine_pair(n_users, n_items, rank, n_shards, seed):
    """(unsharded, sharded) engines over a small-integer-valued model.

    Integer factors make exact score and distance ties common — the inputs
    where a selection that is not a total order would diverge between the
    sharded merge and the single engine.
    """
    rng = np.random.default_rng(seed)
    u = rng.integers(-2, 3, size=(n_users, rank)).astype(float)
    sigma_lo = rng.integers(0, 3, size=rank).astype(float)
    sigma = IntervalMatrix(np.diag(sigma_lo),
                           np.diag(sigma_lo + rng.integers(0, 2, size=rank)),
                           check=False)
    v = rng.integers(-2, 3, size=(n_items, rank)).astype(float)
    decomposition = IntervalDecomposition(
        u=u, sigma=sigma, v=v, target="b", method="synthetic", rank=rank)
    shards = ShardPlanner(n_shards).split(decomposition)
    return QueryEngine(decomposition), ShardedQueryEngine(shards)


class TestScatterGatherParity:
    """Sharded results must equal unsharded results bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_users=st.integers(4, 24),
        n_items=st.integers(3, 10),
        rank=st.integers(1, 3),
        n_shards=st.integers(1, 5),
        k=st.integers(1, 12),
        n_queries=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_tie_heavy_topk_and_neighbors_byte_identical(
            self, n_users, n_items, rank, n_shards, k, n_queries, seed):
        n_shards = min(n_shards, n_users)
        unsharded, sharded = _tie_heavy_engine_pair(
            n_users, n_items, rank, n_shards, seed)
        rng = np.random.default_rng(seed + 1)
        lower = rng.integers(-2, 3, size=(n_queries, n_items)).astype(float)
        queries = IntervalMatrix(
            lower, lower + rng.integers(0, 2, size=lower.shape), check=False)

        _assert_same_result(unsharded.top_k_items(queries, k),
                            sharded.top_k_items(queries, k))
        _assert_same_result(unsharded.nearest_neighbors(queries, k),
                            sharded.nearest_neighbors(queries, k))
        np.testing.assert_array_equal(unsharded.neighbor_distances(queries),
                                      sharded.neighbor_distances(queries))
        sharded.close()

    @settings(max_examples=25, deadline=None)
    @given(
        n_users=st.integers(4, 24),
        n_shards=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_stored_user_queries_byte_identical(self, n_users, n_shards, seed):
        n_shards = min(n_shards, n_users)
        unsharded, sharded = _tie_heavy_engine_pair(n_users, 6, 2, n_shards, seed)
        rng = np.random.default_rng(seed + 2)
        indices = rng.integers(-n_users, n_users, size=7)
        np.testing.assert_array_equal(unsharded.scores_for_users(indices),
                                      sharded.scores_for_users(indices))
        np.testing.assert_array_equal(unsharded.scores_for_users(),
                                      sharded.scores_for_users())
        np.testing.assert_array_equal(unsharded.scores_for_users([]),
                                      sharded.scores_for_users([]))
        _assert_same_result(unsharded.top_k_for_users(indices, 4),
                            sharded.top_k_for_users(indices, 4))
        sharded.close()

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_fitted_model_parity_dense_queries(self, fitted, n_shards):
        matrix, decomposition = fitted
        unsharded = QueryEngine(decomposition)
        sharded = ShardedQueryEngine(ShardPlanner(n_shards).split(decomposition))
        _assert_same_result(unsharded.top_k_items(matrix, 5),
                            sharded.top_k_items(matrix, 5))
        _assert_same_result(unsharded.nearest_neighbors(matrix, 4),
                            sharded.nearest_neighbors(matrix, 4))
        # Single rows (the micro-batched case) too.
        _assert_same_result(unsharded.top_k_items(matrix.row(0), 3),
                            sharded.top_k_items(matrix.row(0), 3))

    def test_fitted_model_parity_sparse_queries(self, fitted):
        matrix, decomposition = fitted
        unsharded = QueryEngine(decomposition)
        sharded = ShardedQueryEngine(ShardPlanner(4).split(decomposition))
        dense_rows = IntervalMatrix(matrix.lower[:6].copy(),
                                    matrix.upper[:6].copy(), check=False)
        # Knock out some observations so the masked fold-in path runs.
        mask = np.random.default_rng(0).uniform(size=dense_rows.shape) < 0.5
        dense_rows.lower[mask] = 0.0
        dense_rows.upper[mask] = 0.0
        sparse_rows = SparseIntervalMatrix.from_dense(dense_rows)
        _assert_same_result(unsharded.top_k_items(sparse_rows, 5),
                            sharded.top_k_items(sparse_rows, 5))
        _assert_same_result(unsharded.nearest_neighbors(sparse_rows, 3),
                            sharded.nearest_neighbors(sparse_rows, 3))

    def test_engine_rejects_empty_and_mismatched_shards(self, fitted):
        matrix, decomposition = fitted
        with pytest.raises(ValueError, match="at least one"):
            ShardedQueryEngine([])
        # Shards from two different models (same shapes, different factor
        # values) must be refused, not silently mixed.
        other = registry.get("isvd3").fit(matrix, 4, target="b")
        with pytest.raises(ValueError, match="different models"):
            ShardedQueryEngine([ShardPlanner(2).split(decomposition)[0],
                                ShardPlanner(2).split(other)[1]])
        shards = ShardPlanner(2).split(decomposition)
        with pytest.raises(ValueError, match="row ranges"):
            ShardedQueryEngine(shards, row_ranges=[(0, 3), (3, 12)])
        # Too few or too many ranges must fail loudly, not silently drop or
        # misroute shards.
        with pytest.raises(ValueError, match="row ranges for"):
            ShardedQueryEngine(ShardPlanner(4).split(decomposition),
                               row_ranges=[(0, 3), (3, 6), (6, 9)])
        with pytest.raises(ValueError, match="row ranges for"):
            ShardedQueryEngine(shards, row_ranges=[(0, 6), (6, 12), (12, 12)])

    @settings(max_examples=25, deadline=None)
    @given(
        n_users=st.integers(4, 24),
        n_shards=st.integers(1, 5),
        max_k=st.integers(1, 10),
        k=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    def test_candidate_lists_serve_any_smaller_k(self, n_users, n_shards,
                                                 max_k, k, seed):
        """The mixed-k micro-batch contract: candidates gathered at max_k
        merge to the exact nearest_neighbors answer for every k' <= max_k."""
        k = min(k, max_k)
        n_shards = min(n_shards, n_users)
        unsharded, sharded = _tie_heavy_engine_pair(n_users, 6, 2, n_shards, seed)
        rng = np.random.default_rng(seed + 3)
        lower = rng.integers(-2, 3, size=(3, 6)).astype(float)
        queries = IntervalMatrix(lower, lower + 1.0, check=False)
        candidates = sharded.nearest_neighbor_candidates(queries, max_k)
        merged = top_k_from_candidates(candidates.scores, candidates.indices,
                                       k, largest=False)
        expected = unsharded.nearest_neighbors(queries, k)
        np.testing.assert_array_equal(merged.indices, expected.indices)
        np.testing.assert_array_equal(np.sqrt(merged.scores), expected.scores)
        sharded.close()

    def test_out_of_range_user_indices_raise(self, fitted):
        _, decomposition = fitted
        sharded = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
        with pytest.raises(IndexError):
            sharded.scores_for_users([decomposition.shape[0]])
        with pytest.raises(IndexError):
            sharded.scores_for_users([-decomposition.shape[0] - 1])


class TestDeterministicTopK:
    def test_boundary_ties_admitted_by_ascending_index(self):
        scores = np.array([[1.0, 1.0, 1.0, 1.0, 1.0]])
        result = top_k(scores, k=3)
        np.testing.assert_array_equal(result.indices, [[0, 1, 2]])
        result = top_k(scores, k=3, largest=False)
        np.testing.assert_array_equal(result.indices, [[0, 1, 2]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 12), st.integers(1, 15),
           st.integers(0, 10_000), st.booleans())
    def test_matches_full_stable_argsort(self, q, m, k, seed, largest):
        scores = np.random.default_rng(seed).integers(
            -3, 4, size=(q, m)).astype(float)
        result = top_k(scores, k, largest=largest)
        keys = -scores if largest else scores
        expected = np.argsort(keys, axis=1, kind="stable")[:, :min(k, m)]
        np.testing.assert_array_equal(result.indices, expected)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 10), st.integers(2, 5),
           st.integers(0, 10_000))
    def test_candidate_merge_equals_global_top_k(self, m, k, n_parts, seed):
        """The scatter-gather composition: per-part top-k + labelled merge
        reproduces the global top-k bit for bit, even on heavy ties."""
        scores = np.random.default_rng(seed).integers(
            -2, 3, size=(3, m)).astype(float)
        n_parts = min(n_parts, m)
        candidate_scores, candidate_indices = [], []
        for start, stop in plan_row_ranges(m, n_parts):
            local = top_k(scores[:, start:stop], k, largest=False)
            candidate_indices.append(local.indices + start)
            candidate_scores.append(local.scores)
        merged = top_k_from_candidates(np.hstack(candidate_scores),
                                       np.hstack(candidate_indices),
                                       min(k, m), largest=False)
        _assert_same_result(top_k(scores, k, largest=False), merged)


class TestShardedModelStore:
    def test_round_trip_and_manifest(self, tmp_path, fitted):
        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 3, matrix=matrix)
        assert record.shards == 3
        assert store.exists("m")
        shards, manifest = store.load_shards("m")
        assert manifest.row_ranges == ((0, 4), (4, 8), (8, 12))
        assert len(manifest.fingerprints) == 3
        assert [s.shape[0] for s in shards] == [4, 4, 4]
        merged, merged_record = store.load_merged("m")
        assert merged_record == record
        np.testing.assert_array_equal(merged.u_scalar(),
                                      decomposition.u_scalar())

    def test_sharded_models_visible_to_plain_store(self, tmp_path, fitted):
        matrix, decomposition = fitted
        ShardedModelStore(tmp_path / "models").save_sharded(
            "m", decomposition, 2, matrix=matrix)
        plain = ModelStore(tmp_path / "models")
        assert [r.name for r in plain.list()] == ["m"]
        assert plain.list()[0].shards == 2
        assert plain.exists("m")

    def test_missing_shard_file_hides_and_fails_model(self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 3)
        store._shard_path("m", 1, record.generation).unlink()
        assert not store.exists("m")
        assert store.list() == []
        with pytest.raises(ModelStoreError, match="shard"):
            store.load_shards("m")

    def test_swapped_shard_file_fails_fingerprint_check(self, tmp_path, fitted):
        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 3, matrix=matrix)
        # Swap two shard files behind the manifest's back.
        a = store._shard_path("m", 0, record.generation)
        b = store._shard_path("m", 1, record.generation)
        tmp = tmp_path / "stash.npz"
        a.rename(tmp), b.rename(a), tmp.rename(b)
        with pytest.raises(ModelStoreError, match="fingerprint"):
            store.load_shards("m")

    def test_republish_bumps_generation_and_keeps_previous_until_gc(
            self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        first = store.save_sharded("m", decomposition, 4)
        assert first.generation == 1
        second = store.save_sharded("m", decomposition, 2)
        assert second.generation == 2
        # The superseded generation stays on disk through the swap so a
        # reader holding the old manifest can still open its files...
        files = sorted(p.name for p in store.directory.iterdir())
        assert files == [
            "m.json",
            "m.shard-00-001.npz", "m.shard-00-002.npz",
            "m.shard-01-001.npz", "m.shard-01-002.npz",
            "m.shard-02-001.npz", "m.shard-03-001.npz",
        ]
        # ...a third publish garbage-collects generation 1...
        third = store.save_sharded("m", decomposition, 2)
        assert third.generation == 3
        files = sorted(p.name for p in store.directory.iterdir())
        assert files == [
            "m.json",
            "m.shard-00-002.npz", "m.shard-00-003.npz",
            "m.shard-01-002.npz", "m.shard-01-003.npz",
        ]
        # ...and explicit GC (after drain) leaves only the current one.
        assert store.gc_shard_generations("m") == 2
        files = sorted(p.name for p in store.directory.iterdir())
        assert files == ["m.json", "m.shard-00-003.npz", "m.shard-01-003.npz"]
        assert store.gc_shard_generations("m") == 0

    def test_explicit_generation_must_increase(self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 2, generation=7)
        assert record.generation == 7
        with pytest.raises(ModelStoreError, match="generation"):
            store.save_sharded("m", decomposition, 2, generation=7)
        with pytest.raises(ModelStoreError, match="generation"):
            store.save_sharded("m", decomposition, 2, generation=3)
        assert store.save_sharded("m", decomposition, 2).generation == 8

    def test_delete_removes_manifest_and_all_shards(self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 3)
        store.delete("m")
        assert list(store.directory.iterdir()) == []

    def test_delete_cleans_up_damaged_models(self, tmp_path, fitted):
        # Deletion is the cleanup path: a half-model (missing shard) or a
        # corrupt sidecar must still be removable, not stranded on disk.
        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        half = store.save_sharded("half", decomposition, 3)
        store._shard_path("half", 1, half.generation).unlink()
        store.delete("half")
        assert not list(store.directory.glob("half*"))
        store.save_sharded("corrupt", decomposition, 2)
        store._meta_path("corrupt").write_text("{not json")
        store.delete("corrupt")
        assert not list(store.directory.glob("corrupt*"))

    def test_malformed_row_ranges_raise_store_error(self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 2)
        payload = json.loads(store._meta_path("m").read_text())
        payload["row_ranges"] = [[0, 6], 3]
        store._meta_path("m").write_text(json.dumps(payload))
        with pytest.raises(ModelStoreError, match="row_ranges"):
            store.load_shards("m")

    def test_directory_squatting_on_sidecar_path_is_not_a_model(self, tmp_path, fitted):
        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("real", decomposition, 1, matrix=matrix)
        (store.directory / "squatter.json").mkdir()
        assert not store.exists("squatter")
        assert [r.name for r in store.list()] == ["real"]
        with pytest.raises(ModelStoreError, match="squatter"):
            store.delete("squatter")

    @pytest.mark.parametrize("key", ["row_ranges", "shard_fingerprints",
                                     "shards", "generation"])
    def test_manifest_missing_a_layout_key_raises(self, tmp_path, fitted, key):
        # Every manifest names its layout in full; none is inferred.
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 2)
        payload = json.loads(store._meta_path("m").read_text())
        del payload[key]
        store._meta_path("m").write_text(json.dumps(payload))
        with pytest.raises(ModelStoreError, match=key):
            store.load_shards("m")

    def test_truncated_shard_file_raises_store_error(self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 3)
        store._shard_path("m", 1, record.generation).write_bytes(
            b"not a zip archive")
        with pytest.raises(ModelStoreError, match="not loadable"):
            store.load_shards("m")

    def test_close_is_idempotent_and_engine_stays_usable(self, fitted):
        matrix, decomposition = fitted
        sharded = ShardedQueryEngine(ShardPlanner(3).split(decomposition))
        before = sharded.nearest_neighbors(matrix, 4)
        sharded.close(wait=False)
        sharded.close()
        after = sharded.nearest_neighbors(matrix, 4)  # serial fallback
        _assert_same_result(before, after)

    def test_shard_fingerprints_match_recomputation(self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 2)
        shards, manifest = store.load_shards("m")
        assert tuple(repro_io.decomposition_fingerprint(s) for s in shards) \
            == manifest.fingerprints

    def test_manifest_json_is_stable_and_foreign_key_tolerant(self, tmp_path, fitted):
        _, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 2)
        payload = json.loads(store._meta_path("m").read_text())
        assert payload["shards"] == 2
        assert payload["row_ranges"] == [[0, 6], [6, 12]]
        # Extra keys written by future versions must not break readers.
        payload["future_extension"] = {"x": 1}
        store._meta_path("m").write_text(json.dumps(payload))
        assert store.record("m").shards == 2
        store.load_shards("m")


class TestServingAppSharded:
    def test_engine_is_sharded_and_tracks_republish(self, tmp_path, fitted):
        from repro.serve.http import ServingApp

        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 3, matrix=matrix)
        app = ServingApp(store)
        engine = app.engine("m")
        assert isinstance(engine, ShardedQueryEngine)
        assert engine.n_shards == 3
        payload = {"model": "m", "k": 3,
                   "lower": matrix.lower.tolist(), "upper": matrix.upper.tolist()}
        sharded_reply = app.recommend(dict(payload))

        # Republishing as one shard swaps the router transparently...
        store.save_sharded("m", decomposition, 1, matrix=matrix)
        assert app.engine("m").n_shards == 1
        # ...and the answers do not change by a single bit.
        assert app.recommend(dict(payload)) == sharded_reply
        assert app.neighbors(dict(payload))["neighbors"] \
            == [r.tolist() for r in
                QueryEngine(decomposition).nearest_neighbors(matrix, 3).indices]


class TestServingAppShardedBatching:
    def test_micro_batched_neighbors_match_direct_calls(self, tmp_path, fitted):
        from repro.serve.http import ServingApp

        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 3, matrix=matrix)
        app = ServingApp(store, batch_delay=0.0)
        engine = app.engine("m")
        assert isinstance(engine, ShardedQueryEngine)
        batcher = app._batcher("m", "neighbors")
        for slot, k in [(0, 1), (1, 4), (2, 9), (3, 1_000)]:
            row = matrix.row(slot)
            batched, dropped = batcher.submit((IntervalMatrix(
                row.lower.reshape(1, -1), row.upper.reshape(1, -1),
                check=False), k))
            assert dropped == frozenset()  # healthy engines never degrade
            direct = engine.nearest_neighbors(row, k)
            _assert_same_result(direct, batched)


class TestServingAppSingleFlight:
    def test_concurrent_first_requests_load_once(self, tmp_path, fitted):
        import threading

        from repro.serve.http import ServingApp

        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, 3, matrix=matrix)
        app = ServingApp(store)
        loads = []
        original = ShardedModelStore.load_shards

        def counting(self, name):
            loads.append(name)
            return original(self, name)

        ShardedModelStore.load_shards = counting
        try:
            barrier = threading.Barrier(8)
            engines = [None] * 8

            def request(i):
                barrier.wait()
                engines[i] = app.engine("m")

            threads = [threading.Thread(target=request, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            ShardedModelStore.load_shards = original
        # One load served every concurrent first request; all got the same
        # engine instance.
        assert loads == ["m"]
        assert all(engine is engines[0] for engine in engines)


class TestServingAppDamagedModels:
    def test_truncated_shard_file_is_404_not_500(self, tmp_path, fitted):
        from repro.serve.http import RequestError, ServingApp

        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        record = store.save_sharded("m", decomposition, 3, matrix=matrix)
        store._shard_path("m", 0, record.generation).write_bytes(b"garbage")
        app = ServingApp(store)
        with pytest.raises(RequestError) as excinfo:
            app.recommend({"model": "m", "k": 3,
                           "rows": matrix.midpoint().tolist()})
        assert excinfo.value.status == 404

class TestShardCLI:
    def _publish(self, tmp_path, fitted, n_shards=1):
        matrix, decomposition = fitted
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m", decomposition, n_shards, matrix=matrix)
        return store

    def test_shard_command_splits_a_one_shard_model(self, tmp_path, fitted, capsys):
        from repro.cli import main

        store = self._publish(tmp_path, fitted)
        assert main(["shard", "m", "--shards", "3",
                     "--store", str(store.directory)]) == 0
        out = capsys.readouterr().out
        assert "3 row-range shards" in out
        assert store.record("m").shards == 3
        # Fingerprint carries over from the original publish.
        _, decomposition = fitted
        assert store.record("m").fingerprint is not None

    def test_shard_command_reshards_down_to_one_shard(self, tmp_path, fitted, capsys):
        from repro.cli import main

        _, decomposition = fitted
        store = self._publish(tmp_path, fitted, n_shards=4)
        assert main(["shard", "m", "--shards", "2",
                     "--store", str(store.directory)]) == 0
        assert store.record("m").shards == 2
        # One shard is the same layout at the next generation; --generation
        # applies at every shard count.
        assert main(["shard", "m", "--shards", "1", "--generation", "9",
                     "--store", str(store.directory)]) == 0
        assert "1 row-range shard of U" in capsys.readouterr().out
        record = store.record("m")
        assert (record.shards, record.generation) == (1, 9)
        merged, _ = store.load_merged("m")
        np.testing.assert_array_equal(merged.u_scalar(), decomposition.u_scalar())

    def test_shard_command_as_new_name(self, tmp_path, fitted, capsys):
        from repro.cli import main

        store = self._publish(tmp_path, fitted)
        assert main(["shard", "m", "--shards", "2", "--as", "m-sharded",
                     "--store", str(store.directory)]) == 0
        assert store.record("m").shards == 1
        assert store.record("m-sharded").shards == 2

    def test_shard_command_unknown_model_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="ghost"):
            main(["shard", "ghost", "--shards", "2",
                  "--store", str(tmp_path / "models")])

    def test_shard_command_rejects_bad_target_name_before_loading(
            self, tmp_path, fitted, monkeypatch):
        from repro.cli import main
        from repro.serve import shard as shard_module

        store = self._publish(tmp_path, fitted)
        # The name check must fire before any shard loading/hashing happens.
        monkeypatch.setattr(
            shard_module.ShardedModelStore, "load_merged",
            lambda self, name: pytest.fail("loaded before name validation"))
        with pytest.raises(SystemExit, match="invalid model name"):
            main(["shard", "m", "--shards", "2", "--as", "../bad",
                  "--store", str(store.directory)])

    def test_shard_command_corrupt_archive_exits_cleanly(self, tmp_path, fitted):
        from repro.cli import main

        store = self._publish(tmp_path, fitted)
        store._shard_path("m", 0, 1).write_bytes(b"not a zip archive")
        with pytest.raises(SystemExit):
            main(["shard", "m", "--shards", "2",
                  "--store", str(store.directory)])

    def test_decompose_shards_requires_save_model(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--save-model"):
            main(["decompose", "--npz", "x.npz", "--shards", "2"])

    def test_decompose_too_many_shards_fails_before_the_fit(
            self, tmp_path, fitted, monkeypatch):
        from repro.cli import main
        from repro.core import registry

        matrix, _ = fitted
        npz = tmp_path / "data.npz"
        repro_io.save_interval_npz(matrix, npz)
        info = registry.get("isvd4")
        monkeypatch.setattr(
            type(info), "fit",
            lambda self, *a, **kw: pytest.fail("fitted before shard check"))
        with pytest.raises(SystemExit, match="non-empty shards"):
            main(["decompose", "--npz", str(npz), "--method", "isvd4",
                  "--save-model", "m", "--store", str(tmp_path / "models"),
                  "--shards", str(matrix.shape[0] + 1)])

    @pytest.mark.parametrize("flags", [[], ["--shards", "1"]])
    def test_decompose_publishes_one_shard_by_default(
            self, tmp_path, fitted, capsys, flags):
        from repro.cli import main

        matrix, _ = fitted
        npz = tmp_path / "data.npz"
        repro_io.save_interval_npz(matrix, npz)
        store_dir = tmp_path / "models"
        assert main(["decompose", "--npz", str(npz), "--rank", "3",
                     "--method", "isvd4", "--save-model", "m",
                     "--store", str(store_dir), *flags]) == 0
        assert "in 1 row-range shard (" in capsys.readouterr().out
        store = ShardedModelStore(store_dir)
        record = store.record("m")
        assert (record.shards, record.generation) == (1, 1)
        assert sorted(p.name for p in store_dir.iterdir()) \
            == ["m.json", "m.shard-00-001.npz"]
        store.load_merged("m")

    def test_decompose_publishes_sharded(self, tmp_path, fitted, capsys):
        from repro.cli import main

        matrix, _ = fitted
        npz = tmp_path / "data.npz"
        repro_io.save_interval_npz(matrix, npz)
        store_dir = tmp_path / "models"
        assert main(["decompose", "--npz", str(npz), "--rank", "3",
                     "--method", "isvd4", "--save-model", "m",
                     "--store", str(store_dir), "--shards", "3"]) == 0
        assert "3 row-range shards" in capsys.readouterr().out
        record = ShardedModelStore(store_dir).record("m")
        assert record.shards == 3 and record.rank == 3
