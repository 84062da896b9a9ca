"""Tests for the query engine and the micro-batcher."""

import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import registry
from repro.eval.knn import pairwise_interval_distances
from repro.serve.batching import MicroBatcher
from repro.serve.query import QueryEngine, top_k

from strategies import batcher_max_batch, common_settings, request_groups


@pytest.fixture
def engine(small_interval_matrix):
    decomposition = registry.get("isvd4").fit(small_interval_matrix, 4, target="b")
    return QueryEngine(decomposition)


class TestTopK:
    def test_matches_brute_force_argsort(self, engine, small_interval_matrix):
        result = engine.top_k_items(small_interval_matrix, k=5)
        scores = engine.reconstruct_rows(small_interval_matrix)
        assert result.indices.shape == (small_interval_matrix.shape[0], 5)
        for i in range(scores.shape[0]):
            expected = np.argsort(-scores[i], kind="stable")[:5]
            np.testing.assert_array_equal(result.indices[i], expected)
            np.testing.assert_array_equal(result.scores[i], scores[i][expected])

    def test_scores_are_sorted_descending(self, engine, small_interval_matrix):
        result = engine.top_k_items(small_interval_matrix, k=6)
        assert np.all(np.diff(result.scores, axis=1) <= 0)

    def test_k_clipped_to_item_count(self, engine, small_interval_matrix):
        result = engine.top_k_items(small_interval_matrix, k=10_000)
        assert result.indices.shape[1] == engine.n_items

    def test_k_must_be_positive(self, engine, small_interval_matrix):
        with pytest.raises(ValueError, match="k"):
            engine.top_k_items(small_interval_matrix, k=0)

    def test_ties_break_by_ascending_index(self):
        scores = np.array([[1.0, 3.0, 3.0, 0.5]])
        result = top_k(scores, k=3)
        np.testing.assert_array_equal(result.indices, [[1, 2, 0]])

    def test_batched_equals_row_at_a_time(self, engine, small_interval_matrix):
        batched = engine.top_k_items(small_interval_matrix, k=4)
        for i in range(small_interval_matrix.shape[0]):
            single = engine.top_k_items(small_interval_matrix.row(i), k=4)
            np.testing.assert_array_equal(single.indices[0], batched.indices[i])
            np.testing.assert_array_equal(single.scores[0], batched.scores[i])

    def test_stored_user_queries_use_trained_latent_rows(self, engine):
        result = engine.top_k_for_users([0, 2], k=3)
        expected = top_k(engine.user_latent[[0, 2]] @ engine.item_map, 3)
        np.testing.assert_array_equal(result.indices, expected.indices)


class TestNearestNeighbors:
    def test_matches_pairwise_distances(self, engine, small_interval_matrix):
        result = engine.nearest_neighbors(small_interval_matrix, k=3)
        features = engine.projector.latent_features(small_interval_matrix)
        distances = pairwise_interval_distances(features, engine.reference_features)
        for i in range(distances.shape[0]):
            expected = np.argsort(distances[i], kind="stable")[:3]
            np.testing.assert_array_equal(result.indices[i], expected)

    def test_distances_sorted_ascending(self, engine, small_interval_matrix):
        result = engine.nearest_neighbors(small_interval_matrix, k=4)
        assert np.all(np.diff(result.scores, axis=1) >= 0)

    def test_k_bounded_by_stored_rows(self, engine, small_interval_matrix):
        result = engine.nearest_neighbors(small_interval_matrix.row(0), k=1_000)
        assert result.indices.shape == (1, engine.n_users)


class TestMicroBatcher:
    def test_single_request_runs_alone(self):
        calls = []

        def run(requests):
            calls.append(list(requests))
            return [r * 10 for r in requests]

        batcher = MicroBatcher(run, max_batch=8, max_delay=0.0)
        assert batcher.submit(3) == 30
        assert calls == [[3]]
        assert batcher.batches_run == 1 and batcher.requests_served == 1

    def test_concurrent_requests_share_batches(self):
        barrier = threading.Barrier(8)
        batch_sizes = []
        lock = threading.Lock()

        def run(requests):
            with lock:
                batch_sizes.append(len(requests))
            return [r + 100 for r in requests]

        batcher = MicroBatcher(run, max_batch=8, max_delay=0.2)
        results = [None] * 8

        def worker(i):
            barrier.wait()
            results[i] = batcher.submit(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results == [i + 100 for i in range(8)]
        assert batcher.requests_served == 8
        # At least one batch actually stacked concurrent requests.
        assert max(batch_sizes) > 1
        assert batcher.batches_run == len(batch_sizes) < 8

    def test_full_batch_releases_leader_immediately(self):
        def run(requests):
            return list(requests)

        batcher = MicroBatcher(run, max_batch=1, max_delay=60.0)
        # max_batch=1 closes the batch at submit time: no waiting despite the
        # huge window.
        assert batcher.submit("x") == "x"

    def test_errors_propagate_to_every_waiter(self):
        barrier = threading.Barrier(4)

        def run(requests):
            raise RuntimeError("backend down")

        batcher = MicroBatcher(run, max_batch=4, max_delay=0.2)
        errors = []

        def worker():
            barrier.wait()
            try:
                batcher.submit(1)
            except RuntimeError as error:
                errors.append(str(error))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == ["backend down"] * 4

    def test_wrong_result_count_is_an_error(self):
        batcher = MicroBatcher(lambda requests: [], max_batch=4, max_delay=0.0)
        with pytest.raises(RuntimeError, match="results"):
            batcher.submit(1)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda r: r, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda r: r, max_delay=-1.0)


class BatchFailed(RuntimeError):
    """What the model's ``run_batch`` raises for a batch holding a failing
    request; one distinct instance per batch."""


class MicroBatcherModel(RuleBasedStateMachine):
    """:class:`MicroBatcher` against a model, driven by groups of concurrent
    submitters, some of whose requests make ``run_batch`` raise.

    Every batch closes by count — each group fills whole batches and the
    leader's window is far longer than any test — so no invariant depends
    on how many requests fit into a wall-clock window.  Which requests
    share a batch is up to thread scheduling; ``run_batch`` records the
    composition it was given, and the invariants hold for any composition.
    """

    JOIN_TIMEOUT = 30.0

    @initialize(max_batch=batcher_max_batch)
    def start(self, max_batch):
        self.max_batch = max_batch
        self.batcher = MicroBatcher(self._run_batch, max_batch=max_batch,
                                    max_delay=10 * self.JOIN_TIMEOUT)
        self.lock = threading.Lock()
        self.batches = []       # (requests, BatchFailed or None), run order
        self.outcomes = {}      # request id -> what its submitter got
        self.next_id = 0

    def _run_batch(self, requests):
        error = (BatchFailed(f"batch {len(self.batches)}")
                 if any(fails for _, fails in requests) else None)
        with self.lock:
            self.batches.append((list(requests), error))
        if error is not None:
            raise error
        return [("result", request_id) for request_id, _ in requests]

    @rule(flags=request_groups)
    def submit_group(self, flags):
        # Pad or trim the group to whole batches, so every batch closes by
        # count instead of by the leader's window.
        size = max(1, len(flags) // self.max_batch) * self.max_batch
        flags = (flags + [False] * size)[:size]
        requests = [(self.next_id + i, fails) for i, fails in enumerate(flags)]
        self.next_id += size

        def submitter(request):
            try:
                outcome = self.batcher.submit(request)
            except BatchFailed as error:
                outcome = error
            with self.lock:
                self.outcomes[request[0]] = outcome

        threads = [threading.Thread(target=submitter, args=(request,))
                   for request in requests]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in threads), \
            "a submitter never got an answer"

    @invariant()
    def every_request_ran_in_exactly_one_batch(self):
        ran = sorted(request_id for requests, _ in self.batches
                     for request_id, _ in requests)
        assert ran == list(range(self.next_id))

    @invariant()
    def batches_close_at_max_batch(self):
        assert all(len(requests) == self.max_batch
                   for requests, _ in self.batches)

    @invariant()
    def every_submitter_gets_its_own_result_or_its_batch_error(self):
        for requests, error in self.batches:
            for request_id, _ in requests:
                if error is None:
                    assert self.outcomes[request_id] == ("result", request_id)
                else:
                    # The very instance its batch raised: no other batch's
                    # error, and never a result.
                    assert self.outcomes[request_id] is error

    @invariant()
    def stats_agree_with_the_model(self):
        batches, requests = len(self.batches), self.next_id
        assert self.batcher.stats() == {
            "batches_run": batches,
            "requests_served": requests,
            "mean_batch_size": requests / batches if batches else None,
        }


MicroBatcherModel.TestCase.settings = settings(
    **common_settings(max_examples=50), stateful_step_count=15)
TestMicroBatcherModel = MicroBatcherModel.TestCase
