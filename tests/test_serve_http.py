"""Smoke tests of the HTTP serving layer.

The central assertion: answers served over HTTP — including concurrent
single-row queries that the server stacks through the micro-batcher — are
identical to direct in-process :class:`QueryEngine` calls.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import registry
from repro.interval.array import IntervalMatrix
from repro.interval.random import random_interval_matrix
from repro.serve.async_http import create_server
from repro.serve.http import ServingApp, rows_from_payload
from repro.serve.query import QueryEngine
from repro.serve.shard import ShardedModelStore


@pytest.fixture(scope="module")
def served():
    """A live server over one published model, shared by the module's tests."""
    matrix = random_interval_matrix((20, 12), interval_intensity=0.5, rng=42)
    decomposition = registry.get("isvd4").fit(matrix, 5, target="b")
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        store = ShardedModelStore(directory)
        store.save_sharded("m1", decomposition, 1, matrix=matrix)
        server = create_server(store, port=0, max_batch=8, batch_delay=0.01)
        host, port = server.start_background()
        try:
            yield {
                "url": f"http://{host}:{port}",
                "engine": QueryEngine(decomposition),
                "matrix": matrix,
            }
        finally:
            server.stop()


def _post(url, path, payload):
    request = urllib.request.Request(
        f"{url}{path}", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def _get(url, path):
    with urllib.request.urlopen(f"{url}{path}") as response:
        return json.load(response)


class TestEndpoints:
    def test_healthz(self, served):
        payload = _get(served["url"], "/healthz")
        assert payload["status"] == "ok"
        assert payload["models"] == 1
        assert isinstance(payload["serving"], dict)

    def test_models_lists_published_metadata(self, served):
        payload = _get(served["url"], "/models")
        assert [m["name"] for m in payload["models"]] == ["m1"]
        record = payload["models"][0]
        assert record["method"] == "ISVD4"
        assert record["rank"] == 5
        assert record["shape"] == [20, 12]

    def test_recommend_matches_in_process_engine(self, served):
        matrix, engine = served["matrix"], served["engine"]
        payload = _post(served["url"], "/recommend", {
            "model": "m1", "k": 4,
            "lower": matrix.lower.tolist(), "upper": matrix.upper.tolist(),
        })
        expected = engine.top_k_items(matrix, 4)
        assert payload["items"] == expected.indices.tolist()
        assert payload["scores"] == expected.scores.tolist()

    def test_neighbors_matches_in_process_engine(self, served):
        matrix, engine = served["matrix"], served["engine"]
        payload = _post(served["url"], "/neighbors", {
            "model": "m1", "k": 3,
            "lower": matrix.lower.tolist(), "upper": matrix.upper.tolist(),
        })
        expected = engine.nearest_neighbors(matrix, 3)
        assert payload["neighbors"] == expected.indices.tolist()
        assert payload["distances"] == expected.scores.tolist()

    def test_scalar_rows_accepted(self, served):
        matrix, engine = served["matrix"], served["engine"]
        payload = _post(served["url"], "/recommend", {
            "model": "m1", "k": 2, "rows": matrix.midpoint().tolist(),
        })
        expected = engine.top_k_items(matrix.midpoint(), 2)
        assert payload["items"] == expected.indices.tolist()


class TestConcurrentQueriesMatchDirectCalls:
    def test_threaded_single_row_queries_are_microbatched_and_identical(self, served):
        matrix, engine = served["matrix"], served["engine"]
        n_rows = matrix.shape[0]
        barrier = threading.Barrier(n_rows)
        responses = [None] * n_rows
        errors = []

        def worker(i):
            body = {
                "model": "m1", "k": 5,
                "lower": matrix.lower[i].tolist(),
                "upper": matrix.upper[i].tolist(),
            }
            try:
                barrier.wait()
                responses[i] = _post(served["url"], "/recommend", body)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append((i, error))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_rows)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        expected = engine.top_k_items(matrix, 5)
        for i, response in enumerate(responses):
            assert response["items"] == [expected.indices[i].tolist()]
            assert response["scores"] == [expected.scores[i].tolist()]

    def test_mixed_k_neighbors_queries(self, served):
        matrix, engine = served["matrix"], served["engine"]
        ks = [1, 2, 3, 4] * 3
        barrier = threading.Barrier(len(ks))
        responses = [None] * len(ks)

        def worker(slot):
            body = {
                "model": "m1", "k": ks[slot],
                "lower": matrix.lower[slot].tolist(),
                "upper": matrix.upper[slot].tolist(),
            }
            barrier.wait()
            responses[slot] = _post(served["url"], "/neighbors", body)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(ks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for slot, response in enumerate(responses):
            expected = engine.nearest_neighbors(matrix.row(slot), ks[slot])
            assert response["neighbors"] == expected.indices.tolist()
            assert response["distances"] == expected.scores.tolist()


class TestErrorHandling:
    def _status_of(self, url, path, payload=None, method="POST"):
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(f"{url}{path}", data=data, method=method)
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    def test_unknown_model_is_404(self, served):
        status, body = self._status_of(served["url"], "/recommend",
                                       {"model": "ghost", "row": [0.0] * 12})
        assert status == 404
        assert "ghost" in body["error"]

    def test_unknown_path_is_404(self, served):
        status, _ = self._status_of(served["url"], "/nope", {"model": "m1"})
        assert status == 404
        status, _ = self._status_of(served["url"], "/nope", method="GET")
        assert status == 404

    def test_bad_json_is_400(self, served):
        request = urllib.request.Request(
            f"{served['url']}/recommend", data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_missing_rows_is_400(self, served):
        status, body = self._status_of(served["url"], "/recommend", {"model": "m1"})
        assert status == 400
        assert "rows" in body["error"]

    def test_wrong_row_width_is_400(self, served):
        status, body = self._status_of(served["url"], "/recommend",
                                       {"model": "m1", "row": [1.0, 2.0]})
        assert status == 400
        assert "12" in body["error"]

    def test_bad_k_is_400(self, served):
        status, _ = self._status_of(served["url"], "/recommend",
                                    {"model": "m1", "row": [0.0] * 12, "k": 0})
        assert status == 400

    def test_misordered_interval_is_400(self, served):
        status, body = self._status_of(served["url"], "/recommend", {
            "model": "m1",
            "lower": [[2.0] * 12], "upper": [[1.0] * 12],
        })
        assert status == 400

    def test_non_finite_rows_are_400(self, served):
        status, body = self._status_of(served["url"], "/recommend",
                                       {"model": "m1", "row": [1e400] * 12})
        assert status == 400
        assert "finite" in body["error"]

    def test_keep_alive_survives_error_responses(self, served):
        # An error reply must not leave unread body bytes on the connection:
        # the next request on the same socket would be parsed from them.
        import http.client

        host, port = served["url"].replace("http://", "").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            body = json.dumps({"model": "m1", "row": [0.0] * 12}).encode()
            connection.request("POST", "/typo", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # Same connection, next request: must parse cleanly.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["status"] == "ok" and payload["models"] == 1
        finally:
            connection.close()


class TestServingAppLifecycle:
    @pytest.fixture
    def app(self, tmp_path, small_interval_matrix):
        store = ShardedModelStore(tmp_path / "store")
        decomposition = registry.get("isvd4").fit(small_interval_matrix, 4, target="b")
        store.save_sharded("m", decomposition, 1, matrix=small_interval_matrix)
        return ServingApp(store), small_interval_matrix

    def test_republished_model_served_without_restart(self, app, small_interval_matrix):
        serving, matrix = app
        assert serving.engine("m").engines[0].decomposition.rank == 4
        other = registry.get("isvd0").fit(matrix, 3, target="c")
        serving.store.save_sharded("m", other, 1, matrix=matrix)
        # The engine cache revalidates against the store metadata per access.
        assert serving.engine("m").engines[0].decomposition.rank == 3

    def test_half_deleted_model_is_request_error_not_crash(self, app):
        serving, matrix = app
        serving.engine("m")
        # Simulate a reader racing a delete: metadata survives, factors gone,
        # and the republish-detection forces a reload attempt.
        serving._engines.clear()
        serving.store._shard_path("m", 0, 1).unlink()
        from repro.serve.http import RequestError

        with pytest.raises(RequestError) as excinfo:
            serving.recommend({"model": "m", "row": [0.0] * matrix.shape[1]})
        assert excinfo.value.status == 404

    def test_deleted_model_is_evicted_from_caches(self, app):
        serving, matrix = app
        serving.recommend({"model": "m", "row": [0.0] * matrix.shape[1]})
        assert "m" in serving._engines and serving._batchers
        serving.store.delete("m")
        from repro.serve.http import RequestError

        with pytest.raises(RequestError):
            serving.engine("m")
        # The dropped model no longer pins its factors or batchers in memory.
        assert "m" not in serving._engines
        assert not any(key[0] == "m" for key in serving._batchers)

    def test_mixed_k_batch_with_tied_scores_matches_direct_calls(self, tmp_path):
        # An item map with duplicated columns produces exactly tied scores —
        # the case where slicing a shared top-max(k) list diverges from a
        # direct per-request top-k at the selection boundary.
        import numpy as np
        from repro.core.result import IntervalDecomposition

        v = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
        decomposition = IntervalDecomposition(
            u=np.ones((3, 2)), sigma=np.eye(2), v=v, target="c", method="stub", rank=2,
        )
        store = ShardedModelStore(tmp_path / "tied")
        store.save_sharded("tied", decomposition, 1)
        serving = ServingApp(store)
        engine = serving.engine("tied")

        rows = [IntervalMatrix.from_scalar(np.full((1, 5), 2.0)) for _ in range(3)]
        ks = [2, 3, 4]
        batcher = serving._batcher("tied", "recommend")
        results = batcher._run_batch(list(zip(rows, ks)))
        # Each batched result carries the batch's missing-shard set (empty
        # for a healthy in-process engine) alongside the top-k answer.
        for (row, k), (result, dropped) in zip(zip(rows, ks), results):
            assert dropped == frozenset()
            direct = engine.top_k_items(row, k)
            assert result.indices.tolist() == direct.indices.tolist()
            assert result.scores.tolist() == direct.scores.tolist()


class TestOneStoreReadPerRequest:
    def test_single_row_request_revalidates_the_store_once(
            self, tmp_path, small_interval_matrix):
        # The request resolves (and width-checks against) one engine
        # version; its micro-batch runs on that engine instead of
        # re-reading the store.
        class CountingStore(ShardedModelStore):
            calls = 0

            def record(self, name):
                CountingStore.calls += 1
                return super().record(name)

        matrix = small_interval_matrix
        store = CountingStore(tmp_path / "store")
        store.save_sharded("m", registry.get("isvd4").fit(matrix, 4, target="b"),
                           1, matrix=matrix)
        batched = ServingApp(store, batch_delay=0.0)
        unbatched = ServingApp(store, max_batch=1)
        payloads = [{"model": "m", "k": 3,
                     "lower": matrix.lower[i].tolist(),
                     "upper": matrix.upper[i].tolist()}
                    for i in range(matrix.shape[0])]
        for operation in ("recommend", "neighbors"):
            getattr(batched, operation)(payloads[0])  # first load: cache miss
            for payload in payloads:
                before = CountingStore.calls
                response = getattr(batched, operation)(payload)
                assert CountingStore.calls - before == 1
                expected = getattr(unbatched, operation)(payload)
                assert json.dumps(response) == json.dumps(expected)
        assert batched.healthz()["batching"]["m:recommend"][
            "requests_served"] == matrix.shape[0] + 1


class TestPayloadParsing:
    def test_single_row_flag(self):
        rows, single = rows_from_payload({"row": [1.0, 2.0]})
        assert single and rows.shape == (1, 2)
        rows, single = rows_from_payload({"rows": [[1.0, 2.0]]})
        assert not single and rows.shape == (1, 2)
        rows, single = rows_from_payload({"lower": [1.0], "upper": [2.0]})
        assert single and rows.shape == (1, 1)

    def test_lower_without_upper_rejected(self):
        from repro.serve.http import RequestError

        with pytest.raises(RequestError, match="both"):
            rows_from_payload({"lower": [[1.0]]})

    def test_in_process_app_requires_model_name(self, tmp_path):
        app = ServingApp(ShardedModelStore(tmp_path))
        from repro.serve.http import RequestError

        with pytest.raises(RequestError, match="model"):
            app.recommend({"row": [1.0]})
