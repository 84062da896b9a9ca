"""Row-range sharding of published models: planner, store, scatter-gather.

One process bounds both the model size a :class:`~repro.serve.store.ModelStore`
can hold in memory and the throughput one
:class:`~repro.serve.query.QueryEngine` can sustain.  This module splits a
published decomposition along the *row* dimension of ``U`` — the dimension
that grows with users — while replicating the item-side factors (``Sigma``,
``V``, and therefore the item map), which stay small:

* :class:`ShardPlanner` — splits a fitted decomposition into contiguous
  row-range shards of ``U`` (each shard is itself a complete, self-describing
  :class:`~repro.core.result.IntervalDecomposition`);
* :class:`ShardedModelStore` — publishes every model as ``N >= 1``
  generation-versioned per-shard NPZ archives (``<name>.shard-NN-<gen>.npz``),
  each written atomically and the manifest last, with per-shard content
  fingerprints verified on load; a republish writes a fresh generation and
  swaps the manifest atomically, so live republish is hitless;
* :class:`ShardedQueryEngine` — the one scatter-gather router, with the
  same query API as :class:`~repro.serve.query.QueryEngine`: it answers
  item-space queries from its one shared fold-in projector, *scatters*
  reference-space work across its shards (thread fan-out over a shared
  pool) and *gathers* with a byte-stable merge.  It calls every shard
  through one small interface (:data:`ShardCall`, speaking the op set of
  :func:`_run_op`), so the same router serves in-process shards — one
  engine per shard, built here — and the worker processes of
  :class:`~repro.serve.worker.WorkerShardedQueryEngine`.

**Why the gather is byte-stable.**  Every scoring path in the serving layer
is row-local (einsum fold-in, per-row least squares, element-local
distances), so a shard's scores are bit-identical to the matching slice of
the unsharded computation; and every selection ranks under
:func:`~repro.serve.query.top_k`'s total order (score, then ascending
index), so merging per-shard top-k lists with
:func:`~repro.serve.query.top_k_from_candidates` provably reproduces the
unsharded selection.  The parity suite asserts byte-identical results across
shard counts, ranks and tie-heavy inputs (``tests/test_serve_shard.py``).
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import operator
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from zipfile import BadZipFile

import numpy as np

from repro import io as repro_io
from repro.core.result import FactorMatrix, IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.interval.kernels import KernelLike
from repro.interval.sparse import is_sparse_interval
from repro.serve.foldin import FoldInProjector, Rows
from repro.serve.query import (
    QueryEngine,
    TopKResult,
    top_k,
    top_k_from_candidates,
)
from repro.serve.resilience import (
    Deadline,
    ShardUnavailableError,
    WorkerError,
    current_deadline,
    note_missing_shards,
)
from repro.serve.store import ModelRecord, ModelStore, ModelStoreError

logger = logging.getLogger(__name__)

RowRanges = Tuple[Tuple[int, int], ...]


def usable_cpu_count() -> int:
    """CPUs actually usable by this process.

    ``os.sched_getaffinity`` reflects container CPU quotas and ``taskset``
    pinning, which ``os.cpu_count`` ignores — on a 64-core host limited to 2
    CPUs, fanning scatter work out 64 ways would only add scheduling
    overhead to every request.  Falls back to ``os.cpu_count`` on platforms
    without affinity support (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return max(1, os.cpu_count() or 1)


def plan_row_ranges(n_rows: int, n_shards: int) -> RowRanges:
    """Contiguous, near-equal ``(start, stop)`` row ranges covering ``n_rows``.

    The first ``n_rows % n_shards`` ranges hold one extra row
    (``numpy.array_split`` semantics), so shard sizes differ by at most one.
    Every shard must own at least one row: ``n_shards`` may not exceed
    ``n_rows``.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_rows < n_shards:
        raise ValueError(
            f"cannot split {n_rows} rows into {n_shards} non-empty shards"
        )
    base, extra = divmod(n_rows, n_shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return tuple(ranges)


def _slice_factor_rows(factor: FactorMatrix, start: int, stop: int) -> FactorMatrix:
    if isinstance(factor, IntervalMatrix):
        return IntervalMatrix(factor.lower[start:stop], factor.upper[start:stop],
                              check=False)
    return np.asarray(factor)[start:stop]


def _factors_equal(a: FactorMatrix, b: FactorMatrix) -> bool:
    a_interval = isinstance(a, IntervalMatrix)
    if a_interval != isinstance(b, IntervalMatrix):
        return False
    if a_interval:
        return (np.array_equal(a.lower, b.lower)
                and np.array_equal(a.upper, b.upper))
    return np.array_equal(np.asarray(a), np.asarray(b))


class ShardPlanner:
    """Splits a fitted decomposition into row-range shards of ``U``.

    Each shard is a complete :class:`IntervalDecomposition` over its row
    range: its ``U`` is a contiguous row slice of the original, while
    ``Sigma`` and ``V`` (and therefore the item map the fold-in projector
    inverts) are replicated — they are ``r x r`` and ``m x r``, small next to
    the ``n x r`` user factor that sharding is for.  Shard metadata records
    the shard index and row range.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def plan(self, n_rows: int) -> RowRanges:
        """The ``(start, stop)`` row ranges this planner assigns."""
        return plan_row_ranges(n_rows, self.n_shards)

    def split(self, decomposition: IntervalDecomposition) -> List[IntervalDecomposition]:
        """Shard ``decomposition`` into one decomposition per row range."""
        ranges = self.plan(int(decomposition.shape[0]))
        shards = []
        for index, (start, stop) in enumerate(ranges):
            shards.append(IntervalDecomposition(
                u=_slice_factor_rows(decomposition.u, start, stop),
                sigma=decomposition.sigma,
                v=decomposition.v,
                target=decomposition.target,
                method=decomposition.method,
                rank=decomposition.rank,
                metadata={"shard_index": index, "shard_of": self.n_shards,
                          "row_range": (start, stop)},
            ))
        return shards


def _check_same_model(shards: Sequence[IntervalDecomposition], action: str) -> None:
    """Enforce the replication invariant: every shard carries bitwise-equal
    item factors (``Sigma``/``V``) and matching rank/target/method.  Anything
    else means the shards come from different models, and ``action``-ing
    them would silently mix two models' rows."""
    first = shards[0]
    for shard in shards[1:]:
        if (shard.rank != first.rank or shard.target is not first.target
                or shard.method != first.method
                or not _factors_equal(shard.sigma, first.sigma)
                or not _factors_equal(shard.v, first.v)):
            raise ValueError(
                "shards disagree on their replicated item factors or "
                f"metadata; refusing to {action} shards of different models"
            )


def merge_shards(shards: Sequence[IntervalDecomposition]) -> IntervalDecomposition:
    """Reassemble row-range shards into one decomposition (inverse of
    :meth:`ShardPlanner.split`).

    The shards' ``U`` rows are concatenated in order; the replicated item
    factors must be bitwise identical across shards (anything else means the
    shards come from different models, and merging would silently mix them).
    """
    if not shards:
        raise ValueError("merge_shards needs at least one shard")
    first = shards[0]
    _check_same_model(shards, "merge")
    interval_u = isinstance(first.u, IntervalMatrix)
    if any(isinstance(s.u, IntervalMatrix) != interval_u for s in shards):
        raise ValueError("shards mix interval and scalar U factors")
    if interval_u:
        u: FactorMatrix = IntervalMatrix(
            np.vstack([s.u.lower for s in shards]),
            np.vstack([s.u.upper for s in shards]),
            check=False,
        )
    else:
        u = np.vstack([np.asarray(s.u) for s in shards])
    return IntervalDecomposition(
        u=u, sigma=first.sigma, v=first.v, target=first.target,
        method=first.method, rank=first.rank,
    )


@dataclass(frozen=True)
class ShardManifest:
    """Shard-level metadata of one published model, from its JSON manifest."""

    record: ModelRecord
    """The base model record (``record.shards`` is the shard count)."""

    row_ranges: RowRanges
    """``(start, stop)`` row range of each shard, in shard order."""

    fingerprints: Tuple[str, ...]
    """Per-shard :func:`repro.io.decomposition_fingerprint` values recorded
    at publish time."""

    def to_payload(self) -> Dict[str, object]:
        """The manifest as the JSON payload its file holds.

        Round-trips through :meth:`ShardedModelStore.manifest_from_payload`,
        which is how a supervisor ships the exact manifest it planned
        against to its worker processes — a worker must load the *pinned*
        generation even after the on-disk manifest has moved on."""
        payload = self.record.to_dict()
        payload["row_ranges"] = [list(row_range) for row_range in self.row_ranges]
        payload["shard_fingerprints"] = list(self.fingerprints)
        return payload


class ShardedModelStore(ModelStore):
    """A :class:`ModelStore` that publishes and loads models.

    Shares the directory (and every read path) with the base store; adds
    the publish path: ``<name>.shard-NN-<gen>.npz`` row-range archives plus
    a ``<name>.json`` manifest carrying the shard count, the publish
    *generation*, the row ranges, and a content fingerprint per shard.
    Shard files are written first (each individually atomic), the manifest
    last.  A one-shard model is the smallest case of the same layout.

    **Republish semantics — hitless by generation versioning.**  A fresh
    publish under a new name is invisible until its manifest lands.
    Republishing an *existing* name writes a complete new set of archives
    under the *next generation number* — it never touches the files the
    current manifest references — and then swaps the manifest atomically.
    A reader therefore always loads a self-consistent generation: whichever
    manifest it read names exactly the files that publish wrote, and those
    files are still on disk (the previous generation is deliberately kept
    through the swap, covering readers that fetched the old manifest
    moments before it was replaced).  The superseded generation is
    garbage-collected *after drain*: by the next publish, or explicitly via
    :meth:`gc_shard_generations` once no reader can still hold its
    manifest.  Publishes into one store directory are serialized (an
    exclusive ``flock`` on the directory), so concurrent publishers of one
    name cannot both claim a generation or collect each other's files.
    Per-shard fingerprints are re-verified on every load, so even a
    hand-damaged store fails loudly rather than serving mixed rows.
    """

    def save_sharded(
        self,
        name: str,
        decomposition: IntervalDecomposition,
        n_shards: int,
        matrix=None,
        fingerprint: Optional[str] = None,
        generation: Optional[int] = None,
    ) -> ModelRecord:
        """Split ``decomposition`` into ``n_shards`` row-range shards and
        publish them under ``name`` (hitlessly replacing any existing model).

        ``matrix`` (or a precomputed ``fingerprint``) records which data the
        model was fitted on, so consumers can detect stale models.
        ``generation`` overrides the published generation number — it must
        be greater than the current one; by default the current generation
        + 1 (or 1 for a fresh name).  Returns the published record.
        """
        self.check_name(name)
        planner = ShardPlanner(n_shards)
        shards = planner.split(decomposition)
        row_ranges = planner.plan(int(decomposition.shape[0]))
        if fingerprint is None and matrix is not None:
            fingerprint = repro_io.interval_fingerprint(matrix)
        self.directory.mkdir(parents=True, exist_ok=True)
        with self._publish_lock():
            try:
                previous = self.record(name).generation
            except (ModelStoreError, OSError):
                previous = 0  # a fresh name (or a damaged manifest)
            if generation is not None and generation <= previous:
                raise ModelStoreError(
                    f"cannot publish {name!r} at generation {generation}: "
                    f"generations must exceed {previous}, the one the store "
                    "serves, because readers cache engines keyed on "
                    "monotonically increasing generations"
                )
            generation = generation or previous + 1
            shard_fingerprints = []
            for index, shard in enumerate(shards):
                with repro_io.atomic_write(
                        self._shard_path(name, index, generation)) as tmp:
                    repro_io.save_decomposition_npz(shard, tmp)
                shard_fingerprints.append(repro_io.decomposition_fingerprint(shard))
            record = ModelRecord(
                name=name,
                method=decomposition.method,
                target=decomposition.target.value,
                rank=decomposition.rank,
                shape=tuple(int(n) for n in decomposition.shape),
                fingerprint=fingerprint,
                created_at=time.time(),
                shards=n_shards,
                generation=generation,
                dtype=decomposition.dtype.name,
            )
            manifest = ShardManifest(record, row_ranges, tuple(shard_fingerprints))
            with repro_io.atomic_write(self._meta_path(name)) as tmp:
                tmp.write_text(json.dumps(manifest.to_payload(), indent=2,
                                          sort_keys=True) + "\n")
            # GC everything except the generation just published and the one
            # it replaced — the previous generation stays on disk through the
            # swap so a reader holding the just-replaced manifest can still
            # open the files it names (POSIX keeps already-open files alive
            # regardless).  The next publish, or gc_shard_generations(),
            # collects it.
            self._remove_stale_shards(
                name, keep={generation: n_shards, previous: None})
        logger.info("published %r generation %d (%d shards, %d rows)",
                    name, generation, n_shards, record.shape[0])
        return record

    @contextlib.contextmanager
    def _publish_lock(self):
        """Hold an exclusive ``flock`` on the store directory (threads and
        processes alike)."""
        descriptor = os.open(self.directory, os.O_RDONLY)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            yield
        finally:
            os.close(descriptor)  # closing the descriptor releases the lock

    def gc_shard_generations(self, name: str) -> int:
        """Garbage-collect shard archives of superseded generations.

        Removes every shard file of ``name`` that the current manifest does
        not reference (older generations kept through a republish swap, or
        leftovers of interrupted publishes); returns the number of files
        removed.  Call after drain — once no reader can still hold a
        manifest from before the latest publish.  Readers that already
        opened the old files are unaffected (POSIX unlink semantics).
        """
        record = self.record(name)
        removed = self._remove_stale_shards(
            name, keep={record.generation: record.shards})
        if removed:
            logger.info("collected %d stale shard file(s) of %r "
                        "(serving generation %d)",
                        removed, name, record.generation)
        return removed

    def manifest(self, name: str) -> ShardManifest:
        """Shard-level metadata of one published model.

        Record and shard layout are parsed from a *single* manifest read,
        so a concurrent republish can never mix one publish's record with
        another's row ranges or fingerprints.
        """
        return self.manifest_from_payload(name, self._read_meta(name))

    def manifest_from_payload(self, name: str,
                              payload: Dict[str, object]) -> ShardManifest:
        """Parse a manifest from its JSON payload (see
        :meth:`ShardManifest.to_payload`).

        Used by shard workers, which receive the supervisor's pinned
        manifest instead of re-reading the file: the file may already
        describe a *newer* generation whose layout the supervisor never
        planned against."""
        record = self._record_from_payload(name, payload)
        try:
            row_ranges = tuple((int(a), int(b)) for a, b in payload["row_ranges"])
            fingerprints = tuple(str(f) for f in payload["shard_fingerprints"])
        except (KeyError, TypeError, ValueError) as error:
            raise ModelStoreError(
                f"manifest of {name!r} has malformed row_ranges or "
                f"shard_fingerprints: {error!r}"
            ) from error
        if not len(row_ranges) == len(fingerprints) == record.shards:
            raise ModelStoreError(
                f"manifest of {name!r} is inconsistent: {record.shards} shards "
                f"but {len(row_ranges)} row ranges and {len(fingerprints)} "
                "shard fingerprints"
            )
        return ShardManifest(record=record, row_ranges=row_ranges,
                             fingerprints=fingerprints)

    def load_shards(
        self, name: str,
    ) -> Tuple[List[IntervalDecomposition], ShardManifest]:
        """Load every row-range shard of a model, in shard order.

        Each shard's content hash is checked against the fingerprint
        recorded at publish time, so a shard file that was swapped between
        models, truncated, or otherwise corrupted raises
        :class:`ModelStoreError` instead of silently serving the wrong rows.
        """
        manifest = self.manifest(name)
        shards = [self._load_one_shard(name, manifest, index)
                  for index in range(manifest.record.shards)]
        return shards, manifest

    def load_shard(
        self, name: str, index: int,
        manifest: Optional[ShardManifest] = None,
    ) -> Tuple[IntervalDecomposition, ShardManifest]:
        """Load a single row-range shard of a model.

        What a shard *worker process* loads at startup: one shard's factors,
        never the whole model.  ``manifest`` pins the generation to load —
        pass the manifest the supervisor planned against so a reshard racing
        the worker start yields a loud generation mismatch (the supervisor
        respawns against the fresh manifest) instead of a silently mixed
        model.  Verification matches :meth:`load_shards`.
        """
        if manifest is None:
            manifest = self.manifest(name)
        if not 0 <= index < manifest.record.shards:
            raise ModelStoreError(
                f"model {name!r} has {manifest.record.shards} shards; "
                f"shard {index} does not exist"
            )
        return self._load_one_shard(name, manifest, index), manifest

    def _load_one_shard(self, name: str, manifest: ShardManifest,
                        index: int) -> IntervalDecomposition:
        start, stop = manifest.row_ranges[index]
        path = self._shard_path(name, index, manifest.record.generation)
        try:
            shard = repro_io.load_decomposition_npz(path)
        except FileNotFoundError:
            raise ModelStoreError(
                f"model {name!r} is missing shard file {path.name}"
            ) from None
        except (OSError, BadZipFile, KeyError, ValueError) as error:
            # ValueError covers IntervalError (not-a-decomposition
            # archives) and numpy's unpickling complaints; BadZipFile is
            # what a truncated publish actually raises.
            raise ModelStoreError(
                f"shard file {path.name} of model {name!r} is not "
                f"loadable: {error}"
            ) from error
        if int(shard.shape[0]) != stop - start:
            raise ModelStoreError(
                f"shard {index} of {name!r} holds {shard.shape[0]} rows "
                f"but the manifest assigns it rows [{start}, {stop})"
            )
        if shard.dtype.name != manifest.record.dtype:
            raise ModelStoreError(
                f"shard {index} of {name!r} holds {shard.dtype.name} factors "
                f"but the manifest records dtype {manifest.record.dtype!r}; "
                "refusing to mix precisions within one model"
            )
        if repro_io.decomposition_fingerprint(shard) != manifest.fingerprints[index]:
            raise ModelStoreError(
                f"shard {index} of {name!r} does not match its "
                "published fingerprint (swapped or corrupted shard file?)"
            )
        return shard

    def load_merged(self, name: str) -> Tuple[IntervalDecomposition, ModelRecord]:
        """Load a model as one decomposition, its shards reassembled with
        :func:`merge_shards`.  The tool path for resharding (``repro
        shard``) and offline analysis."""
        shards, manifest = self.load_shards(name)
        return merge_shards(shards), manifest.record


# --------------------------------------------------------------------- #
# Shard ops: what one shard computes, defined once for both backends
# --------------------------------------------------------------------- #
#: One shard as the router calls it: ``(header, arrays, deadline) -> arrays``
#: for a request in :func:`_run_op`'s op set.  An in-process shard runs the
#: op on its :class:`QueryEngine`; a worker shard sends the same frame to its
#: process through :meth:`~repro.serve.worker.ShardWorkerSupervisor.call`.
ShardCall = Callable[[Dict[str, object], Sequence[np.ndarray], Optional[Deadline]],
                     List[np.ndarray]]


def _run_op(engine: QueryEngine, row_start: int, op: Optional[object],
            header: Dict[str, object],
            arrays: Sequence[np.ndarray]) -> Tuple[Dict[str, object], List[np.ndarray]]:
    """Execute one shard request against the shard's engine.

    Query rows and folded features arrive as endpoint array pairs; results
    leave as arrays, so a worker's npy framing round-trips both directions
    bit-exactly.
    """
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}, []
    if op == "squared_distances":
        features = _interval_pair(arrays, "squared_distances")
        return {"ok": True}, [engine.squared_distances_to_references(features)]
    if op == "candidates":
        features = _interval_pair(arrays, "candidates")
        squared = engine.squared_distances_to_references(features)
        local = top_k(squared, _k_of(header), largest=False)
        # Shift to global stored-row indices here, so the gather side never
        # needs to know which shard a candidate came from.
        return {"ok": True}, [local.indices + row_start, local.scores]
    if op == "scores_for_users":
        if header.get("all"):
            return {"ok": True}, [engine.scores_for_users()]
        if len(arrays) != 1:
            raise WorkerError("scores_for_users expects one index array")
        return {"ok": True}, [engine.scores_for_users(
            np.asarray(arrays[0], dtype=int))]
    raise WorkerError(f"unknown worker op {op!r}")


def _interval_pair(arrays: Sequence[np.ndarray], op: str) -> IntervalMatrix:
    if len(arrays) != 2:
        raise WorkerError(
            f"{op} expects a lower/upper endpoint array pair, got "
            f"{len(arrays)} arrays"
        )
    # npy framing preserves dtype on the wire; keep float32 frames float32
    # so a low-precision fleet computes in its model's storage dtype.
    lower, upper = np.asarray(arrays[0]), np.asarray(arrays[1])
    if lower.dtype != np.float32 or upper.dtype != np.float32:
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
    return IntervalMatrix(lower, upper, check=False)


def _k_of(header: Dict[str, object]) -> int:
    k = header.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise WorkerError(f"'k' must be a positive integer, got {k!r}")
    return k


def _checked_k(k: int) -> int:
    """``k`` as the plain int a shard header carries, refused below 1 on
    the caller's thread before any shard is asked."""
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    return k


def _local_shard(engine: QueryEngine, row_start: int) -> ShardCall:
    """An in-process shard: each op runs on ``engine`` in this process, so
    there is no socket for a deadline to bound."""

    def call(header, arrays, deadline):
        return _run_op(engine, row_start, header["op"], header, arrays)[1]

    return call


def _joined(blocks: List[np.ndarray], stack: Callable) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else stack(blocks)


class ShardedQueryEngine:
    """Scatter-gather router over row-range shards.

    Mirrors the :class:`QueryEngine` query API (``top_k_items``,
    ``nearest_neighbors``, ``reconstruct_rows``, ``scores_for_users``,
    ``top_k_for_users``, ``neighbor_distances``) and returns **byte-identical
    results**: the same indices and the same score bits the unsharded engine
    would produce over the merged model.  What changes is the execution
    shape:

    * *item-space queries* (``top_k_items``, ``reconstruct_rows``) never
      call a shard: they need only the replicated item factors, which the
      router's one shared projector holds, so a dense batch is split into
      contiguous chunks scored on this process's pool (the scoring paths
      are row-local, so any partition concatenates to the same bytes);
    * *reference-space queries* (``nearest_neighbors``) fold the queries in
      once, scatter the distance computation so each shard scores only its
      own row range of stored users, reduce per shard with
      :func:`~repro.serve.query.top_k`, and gather with
      :func:`~repro.serve.query.top_k_from_candidates` under the same total
      order — selecting on squared distances and deferring ``sqrt`` to the
      ``min(k, n)`` selected entries instead of the full ``q x n`` matrix;
    * *stored-user queries* (``scores_for_users``) route each index to the
      shard that owns its row range and reassemble rows in query order.

    The router calls each shard through one :data:`ShardCall`.  This class
    builds in-process shards — one :class:`QueryEngine` per shard, sharing
    one fold-in projector — and
    :class:`~repro.serve.worker.WorkerShardedQueryEngine` builds the same
    router over one worker process per shard.  Scatter runs on a lazily
    created thread pool.  Item-space chunks number at most the usable CPUs
    (the projector computes in this process; numpy releases the GIL in the
    hot paths); the reference-space fan-out follows where shard compute
    runs: at most the usable CPUs for in-process shards, one thread per
    shard for workers.  The pool is an execution detail: results never
    depend on thread scheduling.

    **Fault tolerance** (only a worker shard ever fails, and only
    shard-backed queries can see it).  Every query method captures the
    ambient request deadline
    (:func:`~repro.serve.resilience.current_deadline`) on the request
    thread and passes it into each shard call — pool threads do not inherit
    thread-locals.  Item-space answers cannot fail, time out or degrade
    because of a shard.  Reference-space
    candidates own their rows: under ``degraded="partial"`` an unavailable
    shard's candidates are dropped and reported via
    :func:`~repro.serve.resilience.collect_missing_shards`; the default
    ``degraded="fail"`` raises
    :class:`~repro.serve.resilience.ShardUnavailableError`.

    Parameters
    ----------
    shards:
        Per-shard decompositions in row order, e.g. from
        :meth:`ShardPlanner.split` or a store's ``load_shards``.
    row_ranges:
        The ``(start, stop)`` global row range of each shard.  Defaults to
        contiguous ranges derived from the shard row counts; pass the
        manifest's ranges when loading from a store.
    kernel:
        Interval-product kernel for every shard engine (see
        :class:`QueryEngine`).
    """

    def __init__(self, shards: Sequence[IntervalDecomposition],
                 row_ranges: Optional[Sequence[Tuple[int, int]]] = None,
                 kernel: KernelLike = None):
        if not shards:
            raise ValueError("ShardedQueryEngine needs at least one shard")
        # The design invariant: item factors are bitwise replicas.  A shard
        # from a different model would otherwise silently fold queries
        # through one model's projector and score against the other's
        # references.
        _check_same_model(shards, "route across")
        # The item-side factors are replicated across shards, so the fold-in
        # projector (and its pseudo-inverse SVDs) is computed once and shared
        # by every shard engine.
        projector = FoldInProjector(shards[0], kernel=kernel)
        self.engines = [QueryEngine(shard, projector=projector)
                        for shard in shards]
        counts = [engine.n_users for engine in self.engines]
        if row_ranges is None:
            stops = np.cumsum(counts)
            row_ranges = tuple(
                (int(stop - count), int(stop))
                for count, stop in zip(counts, stops)
            )
        else:
            row_ranges = tuple((int(a), int(b)) for a, b in row_ranges)
            if len(row_ranges) != len(self.engines):
                raise ValueError(
                    f"{len(row_ranges)} row ranges for {len(self.engines)} "
                    "shards"
                )
            expected_start = 0
            for (start, stop), count in zip(row_ranges, counts):
                if start != expected_start or stop - start != count:
                    raise ValueError(
                        f"row ranges {row_ranges} do not contiguously cover "
                        f"the shard row counts {counts}"
                    )
                expected_start = stop
        self._route(projector, row_ranges,
                    [_local_shard(engine, start)
                     for engine, (start, _) in zip(self.engines, row_ranges)])

    def _route(self, projector: FoldInProjector, row_ranges: RowRanges,
               shards: Sequence[ShardCall],
               scatter_width: Optional[int] = None,
               degraded: str = "fail") -> None:
        """Set up the router over ``shards`` (one :data:`ShardCall` each).

        ``scatter_width`` bounds the reference-space fan-out; by default it
        is the item-space chunk count, right for shards computing in this
        process.
        """
        if degraded not in ("fail", "partial"):
            raise ValueError(
                f"degraded policy must be 'fail' or 'partial', got {degraded!r}")
        self.degraded = degraded
        self.row_ranges: RowRanges = tuple(row_ranges)
        self._starts = np.array([start for start, _ in self.row_ranges])
        #: Total stored rows across every shard.
        self.n_users = int(self.row_ranges[-1][1])
        #: The replicated item-space state, shared by every shard.
        self.projector = projector
        self.item_map = projector.item_map
        self.n_items = projector.n_items
        self._shards = list(shards)
        #: How many chunks item-space queries split into.  Unlike the
        #: reference-space scatter (structurally one task per shard), batch
        #: chunking is a free choice — row-local scoring makes any chunking
        #: byte-identical.  The projector computes on this process's cores,
        #: whatever the backend, and fanning one CPU out over four threads
        #: would only add scheduling overhead to every request, so this is
        #: the CPUs this process may actually run on (container quotas,
        #: affinity masks), not the host's core count.
        self._item_chunks = min(self.n_shards, usable_cpu_count())
        self._scatter_width = (self._item_chunks if scatter_width is None
                               else max(1, scatter_width))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Scatter plumbing
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        """Number of row-range shards behind this router."""
        return len(self._shards)

    def _run(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        """Run thunks, fanning out across the shard pool when there are
        several (and a width to fan out over); order of results always
        matches order of tasks, and results never depend on which path
        executed them."""
        if len(tasks) <= 1 or self._scatter_width == 1:
            return [task() for task in tasks]
        with self._pool_lock:
            # Submission happens under the lock so close() can never land
            # between the closed-check and the submits; the lock guards only
            # queue puts, never task execution, so concurrent callers do not
            # serialize behind each other's computations.
            if self._closed:
                futures = None
            else:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.n_shards,
                        thread_name_prefix="repro-shard",
                    )
                futures = [self._pool.submit(task) for task in tasks]
        if futures is None:  # closed: keep answering, just serially
            return [task() for task in tasks]
        return [future.result() for future in futures]

    def close(self, wait: bool = True) -> None:
        """Shut down the scatter pool (idempotent; in-process shards keep
        answering, serially, afterwards).

        ``wait=False`` returns without joining the pool threads — what the
        HTTP layer uses when it replaces or evicts a cached engine, so
        request threads never block on a displaced engine's pool; in-flight
        scatter tasks still run to completion.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def _scatter(self, header: Dict[str, object],
                 arrays: Sequence[np.ndarray] = (),
                 partial: bool = False) -> List[List[np.ndarray]]:
        """Send one request to every shard; the replies in shard order.

        With ``partial`` (and ``degraded="partial"``) unavailable shards are
        dropped from the replies and reported into the request's
        :func:`collect_missing_shards` scope — on the request thread, after
        the gather, because pool threads do not share the caller's
        thread-locals.  All shards missing still raises: an empty answer is
        not a degraded answer.
        """
        deadline = current_deadline()
        partial = partial and self.degraded == "partial"

        def attempt(shard: int):
            try:
                return self._shards[shard](header, arrays, deadline)
            except ShardUnavailableError as error:
                if not partial:
                    raise
                return error

        outcomes = self._run([(lambda shard=shard: attempt(shard))
                              for shard in range(self.n_shards)])
        missing = [shard for shard, outcome in enumerate(outcomes)
                   if isinstance(outcome, ShardUnavailableError)]
        if missing:
            if len(missing) == len(outcomes):
                raise outcomes[0]
            logger.warning("degraded %s gather: dropped shards %s",
                           header.get("op"), missing)
            note_missing_shards(missing)
        return [outcome for outcome in outcomes
                if not isinstance(outcome, ShardUnavailableError)]

    # ------------------------------------------------------------------ #
    # Item-space queries (answered by the shared projector; no shard call)
    # ------------------------------------------------------------------ #
    def _split_rows(self, rows: IntervalMatrix) -> List[IntervalMatrix]:
        """Contiguous chunks of a dense query batch, one per item-space
        slot at most; row-local scoring makes the cut points irrelevant to
        the answers."""
        n_chunks = min(self._item_chunks, rows.shape[0])
        if n_chunks <= 1:
            return [rows]
        return [rows[start:stop]
                for start, stop in plan_row_ranges(rows.shape[0], n_chunks)]

    def _item_space(self, user_rows: Rows,
                    score: Callable[[Rows], object]) -> List[object]:
        """``score`` applied to the chunks of a query batch, in batch order.

        Item-space answers need only the replicated item factors, which
        the router's own projector holds, so no shard is ever called: dense
        batches fan out over this process's pool, and sparse rows (whose
        masked per-row least squares does not benefit from fan-out) score
        in one call.
        """
        rows = self.projector._coerce_rows(user_rows)
        if is_sparse_interval(rows):
            return [score(rows)]
        return self._run([(lambda chunk=chunk: score(chunk))
                          for chunk in self._split_rows(rows)])

    def reconstruct_rows(self, user_rows: Rows) -> np.ndarray:
        """Predicted scores (``q x m``) for unseen rows; bit-equal to the
        unsharded :meth:`QueryEngine.reconstruct_rows`."""
        return _joined(self._item_space(user_rows,
                                        self.projector.reconstruct_rows),
                       np.vstack)

    def top_k_items(self, user_rows: Rows, k: int) -> TopKResult:
        """Best-``k`` items per query row; bit-equal to the unsharded
        :meth:`QueryEngine.top_k_items` (selection is row-local, so chunks
        gather by simple concatenation in batch order)."""
        k = _checked_k(k)
        results = self._item_space(
            user_rows,
            lambda rows: top_k(self.projector.reconstruct_rows(rows), k,
                               largest=True))
        return TopKResult(_joined([result.indices for result in results],
                                  np.vstack),
                          _joined([result.scores for result in results],
                                  np.vstack))

    # ------------------------------------------------------------------ #
    # Reference-space queries (scatter the stored rows; gather by merge)
    # ------------------------------------------------------------------ #
    def _features(self, query_rows: Rows) -> List[np.ndarray]:
        """The queries folded in once, as the endpoint arrays every shard
        receives."""
        features = self.projector.latent_features(
            self.projector._coerce_rows(query_rows))
        return [features.lower, features.upper]

    def neighbor_squared_distances(self, query_rows: Rows) -> np.ndarray:
        """Squared distances (``q x n``) to every stored row across all
        shards, gathered in global row order; bit-equal to the unsharded
        matrix (each entry is element-local)."""
        replies = self._scatter({"op": "squared_distances"},
                                self._features(query_rows))
        return _joined([reply[0] for reply in replies], np.hstack)

    def neighbor_distances(self, query_rows: Rows) -> np.ndarray:
        """Interval distances (``q x n``) to every stored row."""
        return np.sqrt(self.neighbor_squared_distances(query_rows))

    def nearest_neighbor_candidates(self, query_rows: Rows, k: int) -> TopKResult:
        """Cross-shard candidate lists for top-``k`` neighbour selection.

        Returns per-row global stored-row indices and **squared** distances
        of each shard's local top-``k`` (``<= n_shards * k`` candidates per
        row, in shard order, not globally merged).  Because :func:`top_k`
        lists are prefixes of each other under the total order, merging
        these candidates with :func:`top_k_from_candidates` reproduces
        :meth:`nearest_neighbors` bit for bit for *any* ``k' <= k`` — which
        is how the HTTP micro-batcher serves mixed-``k`` request batches
        from one scatter whose working set is ``q x (n_shards * k)`` instead
        of the full ``q x n`` distance matrix.

        The one query that can *degrade*: under ``degraded="partial"``,
        unavailable shards are dropped from the gather — the merged
        neighbours are then exact over the remaining shards' rows.
        """
        k = _checked_k(k)
        replies = self._scatter({"op": "candidates", "k": k},
                                self._features(query_rows), partial=True)
        return TopKResult(_joined([reply[0] for reply in replies], np.hstack),
                          _joined([reply[1] for reply in replies], np.hstack))

    def nearest_neighbors(self, query_rows: Rows, k: int) -> TopKResult:
        """``k`` nearest stored rows per query row, merged across shards.

        Each shard reduces its own row range to a local top-``k`` on squared
        distances; the gather step selects among the ``<= n_shards * k``
        labelled candidates under the same (score, index) total order, which
        provably reproduces the unsharded selection bit for bit.  ``sqrt``
        runs only on the returned entries.
        """
        candidates = self.nearest_neighbor_candidates(query_rows, k)
        merged = top_k_from_candidates(candidates.scores, candidates.indices,
                                       min(k, self.n_users), largest=False)
        return TopKResult(merged.indices, np.sqrt(merged.scores))

    # ------------------------------------------------------------------ #
    # Stored-user queries (route indices to their owning shards)
    # ------------------------------------------------------------------ #
    def scores_for_users(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Predicted scores of stored users (all of them by default), rows in
        query order; bit-equal to the unsharded
        :meth:`QueryEngine.scores_for_users`."""
        if indices is None:
            replies = self._scatter({"op": "scores_for_users", "all": True})
            return _joined([reply[0] for reply in replies], np.vstack)
        indices = np.asarray(indices, dtype=int)
        flat = np.where(indices < 0, indices + self.n_users, indices)
        if flat.size and (flat.min() < 0 or flat.max() >= self.n_users):
            raise IndexError(
                f"user index out of range for {self.n_users} stored rows"
            )
        deadline = current_deadline()
        owner = np.searchsorted(self._starts, flat, side="right") - 1
        tasks = []
        masks = []
        for shard, (start, _) in enumerate(self.row_ranges):
            mask = owner == shard
            if not mask.any():
                continue
            local = flat[mask] - start
            tasks.append(lambda shard=shard, local=local: self._shards[shard](
                {"op": "scores_for_users"}, [local], deadline)[0])
            masks.append(mask)
        out = np.empty((flat.size, self.n_items), dtype=self.item_map.dtype)
        for mask, block in zip(masks, self._run(tasks)):
            out[mask] = block
        return out

    def top_k_for_users(self, indices: Sequence[int], k: int) -> TopKResult:
        """Best-``k`` items for stored users, from their trained latent rows."""
        return top_k(self.scores_for_users(indices), k, largest=True)
