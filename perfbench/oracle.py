"""Reference answers for every request body, and the publish check.

The serving contract is byte identity: whatever the front end, backend,
micro-batching or sharding, a response carries exactly the indices and
exactly the float bits an unsharded in-process
:class:`repro.serve.query.QueryEngine` computes for the same rows.  The
expected responses are therefore built here as *bytes*, with the server's
own JSON layout, and a served body passes only when it is equal byte for
byte.

:func:`check_publish` is the matching check for ``repro decompose``: the
published shards must reload with their fingerprints verified and hold the
same factor bits as an in-process fit of the same input.
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

import numpy as np

#: Response keys of each route, as the serving app writes them.
ROUTE_KEYS = {
    "recommend": ("items", "scores"),
    "neighbors": ("neighbors", "distances"),
}


class QueryPool:
    """Request bodies of one route and the exact bytes each must receive.

    Bodies carry an ``id`` field that the serving app ignores; the traced
    run uses it to match a client request to its server-side spans.
    """

    def __init__(self, route: str, bodies: Sequence[bytes],
                 expected: Sequence[bytes], rows_per_body: int):
        self.path = "/" + route
        self._bodies = list(bodies)
        self._expected = list(expected)
        self.rows_per_body = rows_per_body

    def __len__(self) -> int:
        return len(self._bodies)

    def body(self, index: int, request_id: int) -> bytes:
        return b'{"id": %d, ' % request_id + self._bodies[index % len(self)]

    def expected(self, index: int) -> bytes:
        return self._expected[index % len(self)]

    def check(self, index: int, status: int, payload: bytes) -> bool:
        return status == 200 and payload == self.expected(index)


def build_pool(engine, route: str, model: str, k: int, lower: np.ndarray,
               upper: np.ndarray, rows_per_body: int) -> QueryPool:
    """Split the query rows into bodies of ``rows_per_body`` rows and compute
    each body's reference response on ``engine``.

    Single-row bodies are sent as flat endpoint lists, the micro-batched
    form; larger bodies as nested lists.
    """
    from repro.interval.array import IntervalMatrix

    index_key, value_key = ROUTE_KEYS[route]
    bodies: List[bytes] = []
    expected: List[bytes] = []
    for start in range(0, lower.shape[0] - rows_per_body + 1, rows_per_body):
        lo = lower[start:start + rows_per_body]
        up = upper[start:start + rows_per_body]
        rows = IntervalMatrix(lo, up)
        if route == "recommend":
            result = engine.top_k_items(rows, k)
        else:
            result = engine.nearest_neighbors(rows, k)
        if rows_per_body == 1:
            lo, up = lo[0], up[0]
        request = json.dumps({"model": model, "k": k, "lower": lo.tolist(),
                              "upper": up.tolist()})
        bodies.append(request[1:].encode("utf-8"))  # "{" comes with the id
        expected.append(json.dumps({
            "model": model, "k": k,
            index_key: result.indices.tolist(),
            value_key: result.scores.tolist(),
        }).encode("utf-8"))
    return QueryPool(route, bodies, expected, rows_per_body)


def query_rows(preset: str, n_rows: int, n_items: int, seed: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Dense endpoints of ``n_rows`` unseen users: rows of a second ratings
    matrix, drawn from its own seed."""
    from repro.datasets.ratings import make_sparse_rating_matrix

    matrix = make_sparse_rating_matrix(preset=preset, n_users=n_rows,
                                       n_items=n_items, seed=seed).to_dense()
    return np.asarray(matrix.lower), np.asarray(matrix.upper)


def _same_factor(a, b) -> bool:
    if hasattr(a, "lower"):
        return (hasattr(b, "lower") and np.array_equal(a.lower, b.lower)
                and np.array_equal(a.upper, b.upper))
    return not hasattr(b, "lower") and np.array_equal(a, b)


def reference_fit(npz_path: str, method: str, rank: int):
    """The in-process fit ``repro decompose --npz ... --sparse`` must match."""
    from repro import io as repro_io
    from repro.core import registry

    info = registry.get(method)
    return info.fit(repro_io.load_interval_npz(npz_path), rank,
                    target=info.default_target)


def check_publish(store_dir: str, model: str, reference):
    """Reload a sharded publish (fingerprints verified) and compare its
    factors with the reference fit of the same input, bit for bit.

    Returns ``(published decomposition or None, problem or None)``.
    """
    from repro.serve.shard import ShardedModelStore
    from repro.serve.store import ModelStoreError

    try:
        published, _ = ShardedModelStore(store_dir).load_merged(model)
    except (ModelStoreError, OSError, KeyError, ValueError) as error:
        return None, f"published model does not reload: {error}"
    for name in ("u", "sigma", "v"):
        if not _same_factor(getattr(published, name), getattr(reference, name)):
            return None, f"published {name} differs from the in-process fit"
    return published, None
