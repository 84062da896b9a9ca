"""Persistent store of fitted decompositions ("models") for online serving.

A :class:`ModelStore` is a directory holding one published model per name,
in one of two on-disk formats (see ``docs/OPERATIONS.md`` for the full
layout):

* **single-file** — ``<name>.npz``: the factors, via the :mod:`repro.io`
  decomposition round-trip (so anything the registry can fit can be served);
* **sharded** — ``<name>.shard-NN-<gen>.npz`` row-range shards of ``U``
  with the item factors replicated per shard, published by
  :class:`~repro.serve.shard.ShardedModelStore`.  ``<gen>`` is the publish
  generation: every reshard writes a fresh set of archives under the next
  generation number and swaps the manifest atomically, keeping the previous
  generation on disk for in-flight readers (legacy models without the
  generation suffix stay loadable).

Either way ``<name>.json`` carries the metadata: method key, decomposition
target, rank, the shape of the training matrix, its
:func:`repro.io.interval_fingerprint`, the creation time, and (sharded
models only) the shard count.  All files are written through
:func:`repro.io.atomic_write` (temp file + ``os.replace``), and the metadata
file is written *last*, so a concurrent reader — the HTTP service lists and
loads models while publishers write — either sees a complete model or does
not see it at all.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import io as repro_io
from repro.core.result import IntervalDecomposition
from repro.interval.array import IntervalMatrix

PathLike = Union[str, Path]

#: Model names are path-safe slugs: no separators, no leading dot.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Names ending like a shard archive stem are reserved: a model literally
#: named ``x.shard-01`` (or ``x.shard-01-002``, the generation-versioned
#: form) would share its ``.npz`` path with shard 1 of a sharded model
#: ``x``, so publishing either would corrupt the other.
_RESERVED_SUFFIX = re.compile(r"\.shard-\d+(-\d+)?$")


class ModelStoreError(ValueError):
    """Raised for invalid model names and missing models."""


@dataclass(frozen=True)
class ModelRecord:
    """Metadata of one published model, as stored in its JSON sidecar.

    ``shards`` is ``None`` for the single-file format and the shard count for
    models published by
    :class:`~repro.serve.shard.ShardedModelStore` — whose factors live in
    ``<name>.shard-NN-<gen>.npz`` row-range archives instead of
    ``<name>.npz`` (``<name>.shard-NN.npz`` in the legacy unversioned
    layout).
    ``generation`` is the publish generation of a sharded model: publishes
    since the hitless-reshard release write their archives to
    generation-versioned paths (``<name>.shard-NN-<gen>.npz``) and bump the
    number on every reshard, so a republish never overwrites the files a
    concurrent reader is loading.  ``None`` means the legacy unversioned
    layout (and always accompanies ``shards=None``).  ``dtype`` names the
    endpoint dtype of the factors (``"float64"`` unless the model was fitted
    at float32) and is verified against the actual factor
    arrays on load, so a float32 model can never be served as float64 (or
    vice versa) by editing the sidecar.  Sidecars of float64 single-file
    models stay byte-compatible with earlier releases (the optional keys are
    simply absent).
    """

    name: str
    method: str
    target: str
    rank: int
    shape: tuple
    fingerprint: Optional[str]
    created_at: float
    shards: Optional[int] = None
    generation: Optional[int] = None
    dtype: str = "float64"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by the sidecar and the HTTP API)."""
        payload = asdict(self)
        payload["shape"] = list(self.shape)
        if self.shards is None:
            del payload["shards"]
        if self.generation is None:
            del payload["generation"]
        if self.dtype == "float64":
            del payload["dtype"]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ModelRecord":
        """Inverse of :meth:`to_dict` (tolerates sidecars without ``shards``,
        ``generation`` or ``dtype``)."""
        shards = payload.get("shards")
        if shards is not None and int(shards) < 1:
            raise ValueError(f"invalid shard count {shards!r}")
        generation = payload.get("generation")
        if generation is not None and int(generation) < 1:
            raise ValueError(f"invalid shard generation {generation!r}")
        dtype = str(payload.get("dtype", "float64"))
        if dtype not in ("float32", "float64"):
            raise ValueError(f"invalid model dtype {dtype!r}")
        return cls(
            name=str(payload["name"]),
            method=str(payload["method"]),
            target=str(payload["target"]),
            rank=int(payload["rank"]),
            shape=tuple(int(n) for n in payload["shape"]),
            fingerprint=(None if payload.get("fingerprint") is None
                         else str(payload["fingerprint"])),
            created_at=float(payload["created_at"]),
            shards=None if shards is None else int(shards),
            generation=None if generation is None else int(generation),
            dtype=dtype,
        )


class ModelStore:
    """Directory-backed store that publishes, lists and loads named models.

    The directory is created on the first :meth:`save` — read paths (list,
    load, the HTTP service) never create it, so a mistyped ``--store`` path
    shows up as an empty store rather than silently materializing on disk.
    """

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_PATTERN.match(name or ""):
            raise ModelStoreError(
                f"invalid model name {name!r}: use letters, digits, '.', '_' "
                "or '-', starting with a letter or digit"
            )
        return name

    @classmethod
    def check_publish_name(cls, name: str) -> str:
        """Validate a name for *publishing* (returns it, raises otherwise).

        Beyond the path-safety every store operation enforces, publishing
        rejects names ending in ``.shard-NN``: such a model would share its
        archive path with a shard of sharded model ``<name-without-suffix>``,
        and publishing either would corrupt the other.  Read and delete
        paths stay tolerant so models published under earlier releases with
        such names remain loadable and removable.  Public so the CLI can
        fail fast on a bad name before spending minutes fitting or hashing.
        """
        cls._check_name(name)
        if _RESERVED_SUFFIX.search(name):
            raise ModelStoreError(
                f"invalid model name {name!r}: the '.shard-NN' suffix is "
                "reserved for shard archives of sharded models"
            )
        return name

    def _npz_path(self, name: str) -> Path:
        return self.directory / f"{name}.npz"

    def _meta_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def _shard_path(self, name: str, index: int,
                    generation: Optional[int] = None) -> Path:
        """Path of one shard archive: generation-versioned when a generation
        is given (``<name>.shard-NN-<gen>.npz``), the legacy unversioned path
        otherwise."""
        if generation is None:
            return self.directory / f"{name}.shard-{index:02d}.npz"
        return self.directory / f"{name}.shard-{index:02d}-{generation:03d}.npz"

    def _factor_paths(self, name: str, record: "ModelRecord") -> List[Path]:
        """Every factor archive a complete model named ``name`` requires.

        Driven by the metadata's shard count and generation, not by
        ``record.name``, so a sidecar copied under a different file name
        cannot point completeness checks at another model's factors.
        """
        if record.shards is not None:
            return [self._shard_path(name, i, record.generation)
                    for i in range(record.shards)]
        return [self._npz_path(name)]

    # ------------------------------------------------------------------ #
    # Publish / load
    # ------------------------------------------------------------------ #
    def save(
        self,
        name: str,
        decomposition: IntervalDecomposition,
        matrix: Optional[IntervalMatrix] = None,
        fingerprint: Optional[str] = None,
    ) -> ModelRecord:
        """Publish a fitted decomposition under ``name`` (replacing any old one).

        ``matrix`` (or a precomputed ``fingerprint``) records which data the
        model was fitted on, so consumers can detect stale models.  Factors are
        written before metadata; each write is atomic.
        """
        self.check_publish_name(name)
        self.directory.mkdir(parents=True, exist_ok=True)
        if fingerprint is None and matrix is not None:
            fingerprint = repro_io.interval_fingerprint(matrix)
        record = ModelRecord(
            name=name,
            method=decomposition.method,
            target=decomposition.target.value,
            rank=decomposition.rank,
            shape=tuple(int(n) for n in decomposition.shape),
            fingerprint=fingerprint,
            created_at=time.time(),
            dtype=decomposition.dtype.name,
        )
        with repro_io.atomic_write(self._npz_path(name)) as tmp:
            repro_io.save_decomposition_npz(decomposition, tmp)
        with repro_io.atomic_write(self._meta_path(name)) as tmp:
            tmp.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")
        self._remove_stale_shards(name)
        return record

    def _owned_shard_paths(self, name: str) -> List[Tuple[int, Optional[int], Path]]:
        """``(index, generation, path)`` of every existing shard archive owned
        by ``name`` (``generation`` is ``None`` for legacy unversioned files).

        Files whose stem is itself a *published* model (a legacy model
        literally named ``<name>.shard-07``) are excluded — they belong to
        that model, whatever their name suggests.
        """
        pattern = re.compile(re.escape(name) + r"\.shard-(\d+)(?:-(\d+))?\.npz$")
        if not self.directory.is_dir():
            return []
        owned = []
        for path in sorted(self.directory.glob(f"{name}.shard-*.npz")):
            match = pattern.match(path.name)
            if match is None:
                continue
            if self._meta_path(path.name[: -len(".npz")]).exists():
                continue  # a real model owns this file name
            generation = match.group(2)
            owned.append((int(match.group(1)),
                          None if generation is None else int(generation),
                          path))
        return owned

    def _remove_stale_shards(
        self, name: str,
        keep: Optional[Dict[Optional[int], Optional[int]]] = None,
    ) -> None:
        """Unlink owned shard archives the keep map does not protect.

        ``keep`` maps generation (``None`` for legacy unversioned files) to
        the number of shard indices to keep of that generation (``None``
        keeps the whole generation).  Files of unlisted generations are
        removed.  ``keep=None`` (or ``{}``) removes every owned shard file —
        what a single-file republish does.

        The sharded publish path keeps the *previous* generation alongside
        the new one: a reader that loaded the previous manifest moments
        before the swap can still open the files it names.  The previous
        generation is garbage-collected by the next publish (or an explicit
        :meth:`~repro.serve.shard.ShardedModelStore.gc_shard_generations`),
        once no reader can still hold a manifest that references it.
        """
        keep = keep or {}
        for index, generation, path in self._owned_shard_paths(name):
            if generation in keep:
                limit = keep[generation]
                if limit is None or index < limit:
                    continue
            with contextlib.suppress(FileNotFoundError):
                path.unlink()

    def exists(self, name: str) -> bool:
        """True when a complete model (metadata + every factor archive) is
        published — ``<name>.npz`` for single-file models, all
        ``<name>.shard-NN-<gen>.npz`` row-range archives of the recorded
        generation for sharded ones (``<name>.shard-NN.npz`` in the legacy
        unversioned layout)."""
        self._check_name(name)
        if not self._meta_path(name).exists():
            return False
        try:
            record = self.record(name)
        except (ModelStoreError, OSError):
            # OSError covers foreign filesystem entries squatting on the
            # sidecar path (a *directory* named <name>.json, unreadable
            # files...) — not-a-model, like list() treats them.
            return False
        return all(path.exists() for path in self._factor_paths(name, record))

    def _read_meta(self, name: str) -> Dict[str, object]:
        """One consistent read of a model's JSON sidecar (its raw payload).

        Both :meth:`record` and the sharded store's ``manifest`` parse the
        same single read, so a concurrent republish can never pair one
        publish's record with another's shard layout.
        """
        self._check_name(name)
        try:
            payload = json.loads(self._meta_path(name).read_text())
        except FileNotFoundError:
            raise ModelStoreError(
                f"no model named {name!r} in {self.directory}; "
                f"available: {', '.join(r.name for r in self.list()) or '(none)'}"
            ) from None
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ModelStoreError(
                f"{self._meta_path(name)} is not a model metadata file: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ModelStoreError(
                f"{self._meta_path(name)} is not a model metadata file"
            )
        return payload

    def _record_from_payload(self, name: str,
                             payload: Dict[str, object]) -> ModelRecord:
        """Parse a sidecar payload, wrapping malformed ones in store errors."""
        try:
            return ModelRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError) as error:
            raise ModelStoreError(
                f"{self._meta_path(name)} is not a model metadata file: {error}"
            ) from error

    def record(self, name: str) -> ModelRecord:
        """Metadata of one published model."""
        return self._record_from_payload(name, self._read_meta(name))

    def load(self, name: str) -> Tuple[IntervalDecomposition, ModelRecord]:
        """Load a single-file model's ``(decomposition, record)`` pair.

        Sharded models have no monolithic factor archive; load them through
        :meth:`repro.serve.shard.ShardedModelStore.load_shards` (per-shard)
        or :meth:`~repro.serve.shard.ShardedModelStore.load_merged`
        (reassembled).
        """
        record = self.record(name)
        if record.shards is not None:
            raise ModelStoreError(
                f"model {name!r} is sharded into {record.shards} row-range "
                "shards; load it with ShardedModelStore.load_shards() or "
                "ShardedModelStore.load_merged()"
            )
        decomposition = repro_io.load_decomposition_npz(self._npz_path(name))
        loaded_dtype = decomposition.dtype.name
        if loaded_dtype != record.dtype:
            raise ModelStoreError(
                f"model {name!r} factors are {loaded_dtype} but its sidecar "
                f"records dtype {record.dtype!r}; the archive and metadata "
                "disagree — republish the model"
            )
        return decomposition, record

    def list(self) -> List[ModelRecord]:
        """Records of every complete published model, sorted by name.

        Tolerant by design: a missing store directory is an empty store, and
        files that are not model sidecars (foreign JSON, in-flight temps,
        metadata without factors) are skipped rather than failing the whole
        listing.
        """
        if not self.directory.is_dir():
            return []
        records = []
        for meta_path in sorted(self.directory.glob("*.json")):
            if meta_path.name.startswith("."):
                continue  # in-flight temp file
            name = meta_path.stem
            try:
                record = self._record_from_payload(name, self._read_meta(name))
            except (ModelStoreError, OSError):
                continue  # foreign .json living in the store directory
            if all(path.exists() for path in self._factor_paths(name, record)):
                records.append(record)
        return records

    def delete(self, name: str) -> None:
        """Unpublish a model (metadata first, so readers never see a half-model).

        Removes the sidecar and every factor archive — the single NPZ or, for
        sharded models, all row-range shard files.  Damaged models (corrupt
        sidecar, missing shard files) are still removable: deletion is the
        cleanup path, so it never demands the model be loadable first.
        """
        self._check_name(name)
        if not self._meta_path(name).is_file():
            raise ModelStoreError(f"no model named {name!r} in {self.directory}")
        try:
            record = self.record(name)
            # Beyond the current generation's archives, sweep any previous
            # generation a recent reshard kept around for in-flight readers.
            paths = self._factor_paths(name, record) + [
                path for _, _, path in self._owned_shard_paths(name)
            ]
        except (ModelStoreError, OSError):
            # The sidecar exists but cannot be parsed, so the factor layout
            # is unknown.  Deletion is the cleanup path for exactly such
            # damage: best-effort remove every archive this name can own
            # (the single file plus any shard files not owned by another
            # published model).
            paths = [self._npz_path(name)] + [
                path for _, _, path in self._owned_shard_paths(name)
            ]
        self._meta_path(name).unlink()
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                path.unlink()

    def __len__(self) -> int:
        return len(self.list())
