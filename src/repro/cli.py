"""Command-line interface for the library.

Sub-commands:

* ``decompose`` — decompose an interval matrix stored on disk (wide CSV, two
  endpoint CSVs, or NPZ) with any registered factorization method, report the
  reconstruction accuracy, and optionally save the factors to an NPZ archive
  (``--output``) or publish them to a model store (``--save-model``).
* ``experiment`` — run one of the paper's experiments, optionally in parallel
  (``--jobs``) and with an on-disk decomposition cache (``--cache-dir``), and
  print its tables (``--format table``) or emit the structured records as JSON
  or CSV.
* ``generate`` — write a synthetic interval matrix (uniform or anonymized) to
  disk, for trying the tool without any data at hand.
* ``list-methods`` — show every key of the factorizer registry with its
  capability metadata.
* ``models`` — list the models published to a store directory.
* ``shard`` — re-publish a model as a different number of row-range shards
  of ``U`` under the next generation, for scatter-gather serving.
* ``serve`` — run the HTTP JSON service (``/models``, ``/recommend``,
  ``/neighbors``, ``/healthz``) over a model store; every shard count is
  served byte-identically, in-process or from one worker process per shard.
* ``query`` — send one recommendation / nearest-neighbour query to a running
  ``repro serve`` instance and print the JSON response.

Run ``python -m repro --help`` for usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.core import registry
from repro.core.accuracy import harmonic_mean_accuracy
from repro.experiments.engine import ExperimentEngine
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import DEFAULT_KERNEL, available_kernels
from repro import io as repro_io

#: Default model-store directory for ``decompose --save-model`` / ``models`` /
#: ``serve`` (override with ``--store``).
DEFAULT_STORE = "repro-models"

#: ``--dtype`` choices shared by ``decompose``, ``generate`` and ``serve``.
DTYPE_CHOICES = ("float64", "float32")

#: Experiment registry: name -> callable(engine) returning {label: ExperimentResult}.
def _experiment_registry() -> Dict[str, Callable[[ExperimentEngine], Dict[str, object]]]:
    from repro.experiments import (
        alignment,
        fig6_overview,
        fig7_anonymized,
        fig8_faces,
        fig9_social,
        fig10_cf,
        table2_sweeps,
        table3_clustering,
    )

    return {
        "fig3": lambda engine: {"fig3": alignment.run_figure3()},
        "fig5": lambda engine: {"fig5": alignment.run_figure5()},
        "fig6": lambda engine: fig6_overview.run(engine=engine),
        "table2": lambda engine: table2_sweeps.run(engine=engine),
        "fig7": lambda engine: fig7_anonymized.run(engine=engine),
        "fig8": lambda engine: fig8_faces.run(engine=engine),
        "table3": lambda engine: {"table3": table3_clustering.run()},
        "fig9": lambda engine: fig9_social.run(engine=engine),
        "fig10": lambda engine: {"fig10": fig10_cf.run(engine=engine)},
    }


def _load_matrix(args: argparse.Namespace) -> IntervalMatrix:
    if args.npz:
        return repro_io.load_interval_npz(args.npz)
    if args.lower and args.upper:
        return repro_io.load_endpoint_csvs(args.lower, args.upper)
    if args.csv:
        matrix, _ = repro_io.load_interval_csv(args.csv)
        return matrix
    raise SystemExit("provide --csv, --npz, or both --lower and --upper")


#: Sparse inputs above this many logical cells skip the dense accuracy report
#: instead of silently materializing a multi-gigabyte endpoint pair.
_ACCURACY_DENSIFY_LIMIT = 4_000_000


def _shard_count(n: int) -> str:
    return f"{n} row-range shard" + ("s" if n > 1 else "")


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.interval.sparse import SparseIntervalMatrix, is_sparse_interval

    if args.shards is not None and not args.save_model:
        raise SystemExit("--shards requires --save-model")
    if args.shards is not None and args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.save_model:
        # Fail on a bad name *before* spending minutes on the factorization.
        from repro.serve.store import ModelStore, ModelStoreError

        try:
            ModelStore.check_name(args.save_model)
        except ModelStoreError as error:
            raise SystemExit(str(error))
    matrix = _load_matrix(args)
    if args.shards is not None and args.shards > matrix.shape[0]:
        # The row count is known now; don't spend the whole fit first.
        raise SystemExit(
            f"cannot split {matrix.shape[0]} rows into {args.shards} "
            "non-empty shards"
        )
    if args.sparse and not is_sparse_interval(matrix):
        matrix = SparseIntervalMatrix.from_dense(matrix)
    rank = args.rank or min(matrix.shape)
    rank = min(rank, min(matrix.shape))
    info = registry.get(args.method)
    target = args.target or info.default_target
    fit_options = {}
    if args.interval_kernel is not None:
        if not info.kernel_aware:
            raise SystemExit(
                f"method {info.key!r} does not route interval products through "
                "a pluggable kernel; --interval-kernel applies to "
                + ", ".join(i.key for i in registry.infos() if i.kernel_aware)
            )
        fit_options["kernel"] = args.interval_kernel
    if args.dtype is not None:
        if not info.dtype_aware:
            raise SystemExit(
                f"method {info.key!r} does not support --dtype; "
                "--dtype applies to "
                + ", ".join(i.key for i in registry.infos() if i.dtype_aware)
            )
        fit_options["dtype"] = args.dtype
    try:
        decomposition = info.fit(matrix, rank, target=target, seed=args.seed,
                                 **fit_options)
    except ValueError as error:  # RegistryError, non-negativity, rank bounds...
        raise SystemExit(str(error))
    print(decomposition.describe())
    if is_sparse_interval(matrix):
        print(f"input shape: {matrix.shape}, stored cells: {matrix.nnz} "
              f"(density {matrix.density:.4g}), mean interval width: "
              f"{matrix.mean_span():.6g}")
    else:
        print(f"input shape: {matrix.shape}, mean interval width: {matrix.mean_span():.6g}")
    print(f"rank: {rank}")
    if is_sparse_interval(matrix) and matrix.size > _ACCURACY_DENSIFY_LIMIT:
        print("H-mean reconstruction accuracy: skipped "
              f"(sparse input with {matrix.size} cells would densify; "
              "score offline against a held-out sample instead)")
    else:
        scoring = matrix.to_dense() if is_sparse_interval(matrix) else matrix
        accuracy = harmonic_mean_accuracy(scoring, decomposition)
        print(f"H-mean reconstruction accuracy: {accuracy:.4f}")
    if args.output:
        repro_io.save_decomposition_npz(decomposition, args.output)
        print(f"factors written to {args.output}")
    if args.save_model:
        from repro.serve.shard import ShardedModelStore

        record = ShardedModelStore(args.store).save_sharded(
            args.save_model, decomposition, args.shards or 1, matrix=matrix)
        print(f"model {record.name!r} published to {args.store} in "
              f"{_shard_count(record.shards)} ({record.method}, "
              f"target {record.target}, rank {record.rank})")
    return 0


def _experiment_payload(results: Dict[str, object]) -> Dict[str, object]:
    return {label: result.to_payload() for label, result in results.items()}


def _print_results_csv(results: Dict[str, object]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for label, result in results.items():
        writer.writerow(["experiment", label])
        writer.writerow(result.headers)
        for row in result.rows:
            writer.writerow(row)
        writer.writerow([])


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiments = _experiment_registry()
    if args.name not in experiments:
        raise SystemExit(f"unknown experiment {args.name!r}; choose from {sorted(experiments)}")
    engine = ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir,
                              kernel=args.interval_kernel)
    results = experiments[args.name](engine)
    if args.format == "json":
        print(json.dumps(_experiment_payload(results), indent=2, default=str))
    elif args.format == "csv":
        _print_results_csv(results)
    else:
        for result in results.values():
            print(result.to_text())
            print()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(_experiment_payload(results), handle, indent=2, default=str)
        print(f"rows written to {args.json}", file=sys.stderr)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.datasets.anonymized import make_anonymized_matrix
    from repro.datasets.synthetic import SyntheticConfig, make_uniform_interval_matrix

    def _to_dtype(matrix):
        # Outward rounding on a narrowing cast keeps every generated cell a
        # true enclosure of the float64 value it was sampled as.
        if args.dtype is None or matrix.dtype == np.dtype(args.dtype):
            return matrix
        return matrix.astype(np.dtype(args.dtype), outward=True)

    if args.kind == "ratings":
        from repro.datasets.ratings import make_sparse_rating_matrix

        if not args.output.endswith(".npz"):
            raise SystemExit("sparse ratings matrices require an .npz output path")
        try:
            matrix = make_sparse_rating_matrix(
                preset=args.preset,
                n_users=args.rows,
                n_items=args.cols,
                density=args.density,
                seed=args.seed,
            )
        except ValueError as error:
            raise SystemExit(str(error))
        matrix = _to_dtype(matrix)
        repro_io.save_interval_npz(matrix, args.output)
        print(f"sparse ratings interval matrix {matrix.shape} "
              f"({matrix.nnz} cells, density {matrix.density:.4g}) "
              f"written to {args.output}")
        return 0
    rows = args.rows if args.rows is not None else 40
    cols = args.cols if args.cols is not None else 250
    if args.kind == "uniform":
        config = SyntheticConfig(
            shape=(rows, cols),
            interval_density=args.interval_density,
            interval_intensity=args.interval_intensity,
            rank=min(rows, cols),
        )
        matrix = make_uniform_interval_matrix(config, rng=args.seed)
    else:
        matrix = make_anonymized_matrix(shape=(rows, cols),
                                        profile=args.profile, rng=args.seed)
    matrix = _to_dtype(matrix)
    if args.output.endswith(".npz"):
        repro_io.save_interval_npz(matrix, args.output)
    else:
        repro_io.save_interval_csv(matrix, args.output)
    print(f"{args.kind} interval matrix {matrix.shape} written to {args.output}")
    return 0


def _cmd_list_methods(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table

    rows = [
        [
            info.key,
            info.display_name,
            "/".join(info.targets),
            info.default_target,
            info.cost,
            "yes" if info.stochastic else "no",
            "yes" if info.kernel_aware else "no",
            "yes" if info.dtype_aware else "no",
            info.summary,
        ]
        for info in registry.infos()
    ]
    print(format_table(
        ["key", "name", "targets", "default", "cost", "stochastic", "kernels",
         "dtypes", "summary"],
        rows, title="Registered factorization methods",
    ))
    print()
    from repro.interval.kernels import kernel_infos

    kernel_rows = [
        [
            info.key,
            "yes" if info.sound else "NO",
            "yes" if info.tight else "no",
            "yes" if info.paper_faithful else "no",
            "yes" if info.sparse else "no",
            info.cost,
            info.summary,
        ]
        for info in kernel_infos()
    ]
    print(format_table(
        ["kernel", "sound", "tight", "paper", "sparse", "cost", "summary"],
        kernel_rows, title="Interval-product kernels (--interval-kernel)",
    ))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.serve.store import ModelStore

    if args.url is not None:
        return _models_from_server(args.url)
    records = ModelStore(args.store).list()
    if not records:
        print(f"no models published in {args.store}")
        return 0
    rows = [
        [
            record.name,
            record.method,
            record.target,
            record.rank,
            "x".join(str(n) for n in record.shape),
            record.shards,
            record.generation,
            (record.fingerprint or "")[:12],
        ]
        for record in records
    ]
    print(format_table(
        ["name", "method", "target", "rank", "shape", "shards", "gen",
         "fingerprint"],
        rows, title=f"Models in {args.store}",
    ))
    return 0


def _models_from_server(url: str) -> int:
    """Live serving status (worker liveness, restarts, breaker state) from a
    running server's ``/healthz``."""
    import urllib.error
    import urllib.request

    from repro.experiments.report import format_table

    try:
        with urllib.request.urlopen(url.rstrip("/") + "/healthz",
                                    timeout=10.0) as response:
            health = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise SystemExit(f"could not reach {url}: {error}")
    print(f"server status: {health.get('status', 'unknown')} "
          f"({health.get('models', '?')} model(s) in store)")
    serving = health.get("serving") or {}
    if not serving:
        print("no engines loaded yet (the first query loads one)")
        return 0
    rows = []
    for name, entry in sorted(serving.items()):
        workers = entry.get("workers")
        if not workers:
            rows.append([name, entry.get("generation", "-"),
                         entry.get("backend", "-"), "-", "-", "-", "-", "-"])
            continue
        for worker in workers:
            breaker = worker.get("breaker") or {}
            last = worker.get("last_failure") or breaker.get("last_failure")
            rows.append([
                name,
                entry.get("generation", "-"),
                f"shard {worker.get('shard', '?')}",
                "up" if worker.get("alive") else "DOWN",
                worker.get("restarts", 0),
                breaker.get("state", "-"),
                breaker.get("retry_after", "-"),
                (last or "-")[:40],
            ])
    print(format_table(
        ["model", "gen", "backend/shard", "alive", "restarts", "breaker",
         "retry_after", "last_failure"],
        rows, title=f"Serving status of {url}",
    ))
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from zipfile import BadZipFile

    from repro.serve.shard import ShardedModelStore
    from repro.serve.store import ModelStoreError

    store = ShardedModelStore(args.store)
    target_name = args.rename_to or args.name
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    try:
        # Fail on a bad target name *before* loading and hashing the shards.
        store.check_name(target_name)
        decomposition, record = store.load_merged(args.name)
    except (ModelStoreError, OSError, BadZipFile, KeyError, ValueError) as error:
        # Beyond store errors: truncated/corrupt archives (BadZipFile,
        # OSError) and factor-incomplete NPZ files (KeyError) surface as a
        # clean one-line exit, matching the serving layer's handling.
        raise SystemExit(str(error))
    try:
        new_record = store.save_sharded(target_name, decomposition, args.shards,
                                        fingerprint=record.fingerprint,
                                        generation=args.generation)
    except (ModelStoreError, ValueError) as error:
        raise SystemExit(str(error))
    from repro.serve.shard import plan_row_ranges

    ranges = plan_row_ranges(new_record.shape[0], new_record.shards)
    print(f"model {target_name!r} published to {args.store} in "
          f"{_shard_count(new_record.shards)} of U "
          f"({new_record.shape[0]} rows), generation "
          f"{new_record.generation}:")
    for index, (start, stop) in enumerate(ranges):
        print(f"  shard {index:02d}: rows [{start}, {stop})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    if args.workers < 0:
        raise SystemExit("--workers must be >= 0")
    for flag, value in (("--head-timeout", args.head_timeout),
                        ("--body-timeout", args.body_timeout),
                        ("--request-timeout", args.request_timeout)):
        if value is not None and value <= 0:
            raise SystemExit(f"{flag} must be positive")
    if args.inject_faults is not None:
        from repro.serve.faults import FaultPlan, FaultSpecError

        if not args.workers:
            raise SystemExit("--inject-faults requires --workers (faults "
                             "arm inside worker processes)")
        try:  # a typo'd chaos spec must fail at boot, not silently no-op
            FaultPlan.parse(args.inject_faults)
        except FaultSpecError as error:
            raise SystemExit(f"--inject-faults: {error}")
    # The serving stack logs restarts, breaker transitions and degraded
    # gathers through the logging module; give it a handler.
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s: %(message)s")
    worker_options = {}
    if args.inject_faults is not None:
        worker_options["faults"] = args.inject_faults
    from repro.serve.async_http import create_server

    # --workers serves each model from one process per shard.  (The worker
    # count is per model and fixed by its shard count; the flag's value
    # simply switches the backend on, so `--workers 4` over 4-shard models
    # reads naturally.)
    server = create_server(
        args.store, host=args.host, port=args.port,
        max_batch=args.max_batch, batch_delay=args.batch_delay / 1000.0,
        verbose=args.verbose, kernel=args.interval_kernel,
        workers=bool(args.workers),
        head_timeout=args.head_timeout, body_timeout=args.body_timeout,
        request_timeout=args.request_timeout, degraded=args.degraded,
        worker_options=worker_options, dtype=args.dtype,
    )
    models = server.app.store.list()

    def announce(address) -> None:
        backend = " (worker processes per shard)" if args.workers else ""
        print(f"serving {len(models)} model(s) from {args.store} "
              f"on http://{address[0]}:{address[1]}{backend}", flush=True)
        for record in models:
            print(f"  {record.name}: {record.method} target {record.target} "
                  f"rank {record.rank}", flush=True)

    server.run(ready=announce)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    matrix = _load_matrix(args)
    payload = {
        "model": args.model,
        "k": args.k,
        "lower": matrix.lower.tolist(),
        "upper": matrix.upper.tolist(),
    }
    url = args.url.rstrip("/") + "/" + args.op
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            body = json.load(response)
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", errors="replace")
        raise SystemExit(f"server returned {error.code}: {detail}")
    except urllib.error.URLError as error:
        raise SystemExit(f"cannot reach {url}: {error.reason}")
    print(json.dumps(body, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interval-valued matrix factorization (ISVD / ILSA / AI-PMF) toolkit.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decompose = subparsers.add_parser("decompose", help="decompose an interval matrix file")
    decompose.add_argument("--csv", help="wide CSV with <col>_lo / <col>_hi column pairs")
    decompose.add_argument("--npz", help="NPZ archive with 'lower' and 'upper' arrays")
    decompose.add_argument("--lower", help="CSV of lower bounds (with --upper)")
    decompose.add_argument("--upper", help="CSV of upper bounds (with --lower)")
    decompose.add_argument("--rank", type=int, default=None, help="target rank (default: full)")
    decompose.add_argument("--method", default="isvd4", choices=registry.available(),
                           help="factorization method (see `repro list-methods`)")
    decompose.add_argument("--target", default=None, choices=["a", "b", "c"],
                           help="decomposition target (default: the method's)")
    decompose.add_argument("--seed", type=int, default=None,
                           help="seed for stochastic methods")
    decompose.add_argument("--interval-kernel", default=None, choices=available_kernels(),
                           help="interval-product kernel for kernel-aware methods "
                                f"(default: {DEFAULT_KERNEL}, the paper's construction)")
    decompose.add_argument("--dtype", default=None, choices=DTYPE_CHOICES,
                           help="endpoint dtype for dtype-aware methods: "
                                "float64 (default) or float32 (storage and "
                                "accumulation)")
    decompose.add_argument("--sparse", action="store_true",
                           help="run in sparse representation: dense input is "
                                "converted (cells with both endpoints 0 become "
                                "implicit), sparse NPZ input stays sparse; the "
                                "gram-based ISVD methods then execute in sparse "
                                "BLAS without densifying")
    decompose.add_argument("--output", help="write the factors to this NPZ path")
    decompose.add_argument("--save-model", metavar="NAME",
                           help="publish the factors to the model store under this name")
    decompose.add_argument("--store", default=DEFAULT_STORE,
                           help=f"model store directory (default: {DEFAULT_STORE})")
    decompose.add_argument("--shards", type=int, default=None, metavar="N",
                           help="with --save-model: publish as N row-range "
                                "shards of U (item factors replicated; "
                                "default 1); the server scatter-gathers "
                                "across them with byte-identical results")
    decompose.set_defaults(handler=_cmd_decompose)

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument("name", help="fig3, fig5, fig6, table2, fig7, fig8, table3, fig9, fig10")
    experiment.add_argument("--jobs", type=int, default=1,
                            help="parallel worker threads (0 = one per CPU)")
    experiment.add_argument("--cache-dir",
                            help="directory for the on-disk decomposition cache "
                                 "(reused by the decomposition grids; timing and "
                                 "model-training experiments always recompute)")
    experiment.add_argument("--interval-kernel", default=None, choices=available_kernels(),
                            help="interval-product kernel for kernel-aware methods "
                                 f"(default: {DEFAULT_KERNEL}; reproduced numbers "
                                 "match the paper only with the default)")
    experiment.add_argument("--format", choices=["table", "json", "csv"], default="table",
                            help="output format printed to stdout")
    experiment.add_argument("--json", help="also write the rows/records to this JSON path")
    experiment.set_defaults(handler=_cmd_experiment)

    generate = subparsers.add_parser("generate", help="write a synthetic interval matrix")
    generate.add_argument("output", help="destination path (.csv or .npz; "
                                         "ratings kind requires .npz)")
    generate.add_argument("--kind", choices=["uniform", "anonymized", "ratings"],
                          default="uniform",
                          help="'ratings' writes a sparse per-rating interval "
                               "matrix (CSR NPZ) generated without dense "
                               "temporaries")
    generate.add_argument("--rows", type=int, default=None,
                          help="rows / users (default: 40, or the ratings preset)")
    generate.add_argument("--cols", type=int, default=None,
                          help="columns / items (default: 250, or the ratings preset)")
    generate.add_argument("--density", type=float, default=None,
                          help="observed-cell fraction for --kind ratings "
                               "(default: the preset's)")
    generate.add_argument("--preset", default="demo",
                          help="scale preset for --kind ratings (demo, webscale, "
                               "ciao, epinions, movielens; default: demo)")
    generate.add_argument("--interval-density", type=float, default=1.0)
    generate.add_argument("--interval-intensity", type=float, default=1.0)
    generate.add_argument("--profile", choices=["high", "medium", "low"], default="medium")
    generate.add_argument("--dtype", default=None, choices=DTYPE_CHOICES,
                          help="endpoint storage dtype of the written matrix "
                               "(float32 halves the file; endpoints are "
                               "rounded outward so every cell stays a true "
                               "enclosure)")
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(handler=_cmd_generate)

    list_methods = subparsers.add_parser(
        "list-methods", help="list every registered factorization method")
    list_methods.set_defaults(handler=_cmd_list_methods)

    models = subparsers.add_parser("models", help="list the published models of a store")
    models.add_argument("--store", default=DEFAULT_STORE,
                        help=f"model store directory (default: {DEFAULT_STORE})")
    models.add_argument("--url", default=None, metavar="URL",
                        help="query a *running* server's /healthz instead of "
                             "the store directory: shows per-shard worker "
                             "liveness, restart counts and circuit-breaker "
                             "state")
    models.set_defaults(handler=_cmd_models)

    shard = subparsers.add_parser(
        "shard", help="re-publish a model as N row-range shards under the "
                      "next generation")
    shard.add_argument("name", help="published model name")
    shard.add_argument("--shards", type=int, required=True, metavar="N",
                       help="number of row-range shards of U (1 or more)")
    shard.add_argument("--store", default=DEFAULT_STORE,
                       help=f"model store directory (default: {DEFAULT_STORE})")
    shard.add_argument("--as", dest="rename_to", metavar="NEW_NAME",
                       help="publish the resharded model under this name "
                            "instead of replacing the original")
    shard.add_argument("--generation", type=int, default=None, metavar="G",
                       help="publish under this generation number (must "
                            "exceed the current one; default: current + 1)")
    shard.set_defaults(handler=_cmd_shard)

    serve = subparsers.add_parser(
        "serve", help="serve a model store over HTTP (/recommend, /neighbors, ...)")
    serve.add_argument("--store", default=DEFAULT_STORE,
                       help=f"model store directory (default: {DEFAULT_STORE})")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="most single-row queries stacked into one batched product")
    serve.add_argument("--batch-delay", type=float, default=2.0,
                       help="micro-batch window in milliseconds")
    serve.add_argument("--interval-kernel", default=None, choices=available_kernels(),
                       help="interval-product kernel for served fold-in features "
                            f"(default: {DEFAULT_KERNEL})")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stderr")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="N > 0 serves every model from one worker "
                            "process per shard (0, the default, serves them "
                            "in-process)")
    serve.add_argument("--head-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds a client may take to deliver the "
                            "request head (default: 30)")
    serve.add_argument("--body-timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="seconds a client may take to deliver the "
                            "request body (default: 60)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="end-to-end deadline per query; expiry returns "
                            "a 504 (default: unbounded)")
    serve.add_argument("--degraded", choices=["fail", "partial"],
                       default="fail",
                       help="what an unavailable shard does to a neighbour "
                            "query: 'fail' returns 503 with Retry-After "
                            "(default, byte-identical answers only); "
                            "'partial' answers from the live shards and "
                            "flags the response degraded")
    serve.add_argument("--dtype", default=None, choices=DTYPE_CHOICES,
                       help="pin the server to one factor precision: models "
                            "whose sidecar records a different dtype are "
                            "refused with a 409 instead of served (default: "
                            "serve every model at its recorded precision)")
    serve.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="arm a fault-injection spec in every spawned "
                            "worker (chaos testing; see repro.serve.faults), "
                            "e.g. 'before_reply=crash(op=candidates,times=1)'")
    serve.set_defaults(handler=_cmd_serve)

    query = subparsers.add_parser(
        "query", help="query a running `repro serve` instance")
    query.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the server")
    query.add_argument("--model", required=True, help="published model name")
    query.add_argument("--op", choices=["recommend", "neighbors"], default="recommend",
                       help="query type")
    query.add_argument("-k", type=int, default=10, help="results per query row")
    query.add_argument("--csv", help="wide CSV with <col>_lo / <col>_hi column pairs")
    query.add_argument("--npz", help="NPZ archive with 'lower' and 'upper' arrays")
    query.add_argument("--lower", help="CSV of lower bounds (with --upper)")
    query.add_argument("--upper", help="CSV of upper bounds (with --lower)")
    query.set_defaults(handler=_cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
