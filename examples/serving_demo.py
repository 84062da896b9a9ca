"""Serving demo: train on synthetic ratings, publish, serve, query over HTTP.

Run with ``python examples/serving_demo.py``.

The script walks the full online-serving loop:

1. generate a synthetic rating dataset and build the paper's per-rating
   interval matrix (each rating widened by the row/column rating spread);
2. decompose it with ISVD4 and publish the factors to a model store, as
   one row-range shard;
3. start the HTTP service on an ephemeral port (in a background thread here;
   operationally this is ``repro serve --store ...``);
4. fold in brand-new users — rows the model was never fitted on — and fetch
   their top-k recommendations and nearest stored users over HTTP;
5. reshard the live model into 4 row-range shards and show the served
   answers do not change by a single bit.
"""

import json
import tempfile
import urllib.request

import numpy as np

from repro.core import registry
from repro.datasets.ratings import make_ratings_dataset, rating_interval_matrix
from repro.interval.array import IntervalMatrix
from repro.serve import ShardedModelStore, create_server


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def new_user_rows(n_items, n_users=3, seed=7):
    """Interval rating rows for users the model has never seen."""
    rng = np.random.default_rng(seed)
    midpoints = rng.uniform(1.0, 5.0, size=(n_users, n_items))
    radius = rng.uniform(0.0, 0.5, size=midpoints.shape)
    return IntervalMatrix(midpoints - radius, midpoints + radius)


def main() -> None:
    # 1. Train data: the Figure 10 collaborative-filtering workload.
    dataset = make_ratings_dataset(preset="movielens", n_users=120, n_items=200,
                                   n_categories=10, density=0.3, seed=1)
    matrix = rating_interval_matrix(dataset, alpha=0.5)
    print(f"training matrix: {matrix}")

    # 2. Decompose and publish.
    decomposition = registry.get("isvd4").fit(matrix, rank=10, target="b")
    with tempfile.TemporaryDirectory() as directory:
        store = ShardedModelStore(directory)
        record = store.save_sharded("movies", decomposition, 1, matrix=matrix)
        print(f"published: {record.name} ({record.method}, target {record.target}, "
              f"rank {record.rank}, shape {record.shape}, "
              f"generation {record.generation})")

        # 3. Serve (equivalent to: repro serve --store <dir> --port 0).
        server = create_server(store, port=0)
        host, port = server.start_background()
        base = f"http://{host}:{port}"
        print(f"serving on {base}\n")

        health = json.load(urllib.request.urlopen(f"{base}/healthz"))
        print(f"GET /healthz -> {health}")

        # 4. Query: recommendations for unseen users, folded in at query time.
        queries = new_user_rows(dataset.n_items)
        recommendation = post(f"{base}/recommend", {
            "model": "movies", "k": 5,
            "lower": queries.lower.tolist(), "upper": queries.upper.tolist(),
        })
        print("\nPOST /recommend (3 new users, k=5):")
        for user, (items, scores) in enumerate(
                zip(recommendation["items"], recommendation["scores"])):
            pretty = ", ".join(f"item {i} ({s:.2f})" for i, s in zip(items, scores))
            print(f"  new user {user}: {pretty}")

        neighbors = post(f"{base}/neighbors", {
            "model": "movies", "k": 3,
            "lower": queries.lower.tolist(), "upper": queries.upper.tolist(),
        })
        print("\nPOST /neighbors (same users, k=3 most similar stored users):")
        for user, (ids, distances) in enumerate(
                zip(neighbors["neighbors"], neighbors["distances"])):
            pretty = ", ".join(f"user {i} (d={d:.2f})" for i, d in zip(ids, distances))
            print(f"  new user {user}: {pretty}")

        # 5. Shard the model (equivalent to: repro shard movies --shards 4)
        #    and ask again: the server picks up the republished model without
        #    a restart, routes through the scatter-gather engine, and the
        #    responses are byte-identical.
        store.save_sharded("movies", decomposition, 4, matrix=matrix)
        resharded = post(f"{base}/recommend", {
            "model": "movies", "k": 5,
            "lower": queries.lower.tolist(), "upper": queries.upper.tolist(),
        })
        assert resharded == recommendation
        print("\nresharded into 4 row-range shards: served answers unchanged, "
              "bit for bit")

        server.stop()


if __name__ == "__main__":
    main()
