"""Persistent store of fitted decompositions ("models") for online serving.

A :class:`ModelStore` is a directory holding one published model per name,
in one on-disk layout (see ``docs/OPERATIONS.md`` for the full tree):

* ``<name>.json`` — the manifest: method key, decomposition target, rank,
  the shape of the training matrix, its
  :func:`repro.io.interval_fingerprint`, the creation time, the factor
  dtype, the shard count, the publish generation, and each shard's row
  range and content fingerprint;
* ``<name>.shard-NN-<gen>.npz`` — ``N >= 1`` row-range archives of ``U``
  with the item factors replicated in each, published by
  :class:`~repro.serve.shard.ShardedModelStore`.  ``<gen>`` is the publish
  generation: every republish writes a fresh set of archives under the next
  generation number and swaps the manifest atomically, keeping the previous
  generation on disk for in-flight readers.

This class owns the layout's read and delete paths (records, listing,
completeness, deletion); publishing and loading factors live in
:class:`~repro.serve.shard.ShardedModelStore`.  All files are written
through :func:`repro.io.atomic_write` (temp file + ``os.replace``), and the
manifest is written *last*, so a concurrent reader — the HTTP service lists
and loads models while publishers write — either sees a complete model or
does not see it at all.
"""

from __future__ import annotations

import contextlib
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, Path]

#: Model names are path-safe slugs: no separators, no leading dot.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class ModelStoreError(ValueError):
    """Raised for invalid model names and missing models."""


@dataclass(frozen=True)
class ModelRecord:
    """Metadata of one published model, as stored in its JSON manifest.

    ``shards`` is the number of row-range archives
    (``<name>.shard-NN-<gen>.npz``) the factors live in, at least 1.
    ``generation`` is the publish generation those archives carry: every
    republish bumps it, so a republish never overwrites the files a
    concurrent reader is loading.  ``dtype`` names the endpoint dtype of the
    factors (``"float32"`` or ``"float64"``) and is verified against every
    loaded shard, so a float32 model can never be served as float64 (or
    vice versa) by editing the manifest.
    """

    name: str
    method: str
    target: str
    rank: int
    shape: tuple
    fingerprint: Optional[str]
    created_at: float
    shards: int
    generation: int
    dtype: str = "float64"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by the manifest and the HTTP API)."""
        payload = asdict(self)
        payload["shape"] = list(self.shape)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ModelRecord":
        """Inverse of :meth:`to_dict`."""
        shards = int(payload["shards"])
        if shards < 1:
            raise ValueError(f"invalid shard count {shards!r}")
        generation = int(payload["generation"])
        if generation < 1:
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
            shards=shards,
            generation=generation,
            dtype=dtype,
        )


class ModelStore:
    """Directory-backed store that lists, inspects and deletes named models.

    The directory is created by the first publish — read paths (list,
    record, the HTTP service) never create it, so a mistyped ``--store``
    path shows up as an empty store rather than silently materializing on
    disk.
    """

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def check_name(name: str) -> str:
        """Validate a model name (returns it, raises otherwise).

        Public so the CLI can fail fast on a bad name before spending
        minutes fitting or hashing.
        """
        if not _NAME_PATTERN.match(name or ""):
            raise ModelStoreError(
                f"invalid model name {name!r}: use letters, digits, '.', '_' "
                "or '-', starting with a letter or digit"
            )
        return name

    def _meta_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def _shard_path(self, name: str, index: int, generation: int) -> Path:
        """Path of one shard archive: ``<name>.shard-NN-<gen>.npz``."""
        return self.directory / f"{name}.shard-{index:02d}-{generation:03d}.npz"

    def _factor_paths(self, name: str, record: ModelRecord) -> List[Path]:
        """Every shard archive a complete model named ``name`` requires.

        Driven by the metadata's shard count and generation, not by
        ``record.name``, so a manifest copied under a different file name
        cannot point completeness checks at another model's factors.
        """
        return [self._shard_path(name, i, record.generation)
                for i in range(record.shards)]

    def _owned_shard_paths(self, name: str) -> List[Tuple[int, int, Path]]:
        """``(index, generation, path)`` of every existing shard archive of
        ``name``, of any generation.

        The pattern is anchored at both ends, so no two names share a file:
        ``x`` owns ``x.shard-00-001.npz`` and ``x.shard-01-002`` owns
        ``x.shard-01-002.shard-00-001.npz``, never each other's.
        """
        if not self.directory.is_dir():
            return []
        pattern = re.compile(re.escape(name) + r"\.shard-(\d+)-(\d+)\.npz$")
        owned = []
        for path in sorted(self.directory.glob(f"{name}.shard-*.npz")):
            match = pattern.match(path.name)
            if match is not None:
                owned.append((int(match.group(1)), int(match.group(2)), path))
        return owned

    def _remove_stale_shards(self, name: str,
                             keep: Dict[int, Optional[int]]) -> int:
        """Unlink the shard archives of ``name`` the keep map does not
        protect; returns how many files that was.

        ``keep`` maps a generation to the number of shard indices to keep of
        it (``None`` keeps the whole generation).  Files of unlisted
        generations are removed.

        The publish path keeps the *previous* generation alongside the new
        one: a reader that loaded the previous manifest moments before the
        swap can still open the files it names.  The previous generation is
        garbage-collected by the next publish (or an explicit
        :meth:`~repro.serve.shard.ShardedModelStore.gc_shard_generations`),
        once no reader can still hold a manifest that references it.
        """
        removed = 0
        for index, generation, path in self._owned_shard_paths(name):
            limit = keep.get(generation, 0)
            if limit is None or index < limit:
                continue
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
                removed += 1
        return removed

    def exists(self, name: str) -> bool:
        """True when a complete model (manifest + every shard archive of the
        recorded generation) is published."""
        self.check_name(name)
        if not self._meta_path(name).exists():
            return False
        try:
            record = self.record(name)
        except (ModelStoreError, OSError):
            # OSError covers foreign filesystem entries squatting on the
            # manifest path (a *directory* named <name>.json, unreadable
            # files...) — not-a-model, like list() treats them.
            return False
        return all(path.exists() for path in self._factor_paths(name, record))

    def _read_meta(self, name: str) -> Dict[str, object]:
        """One consistent read of a model's JSON manifest (its raw payload).

        Both :meth:`record` and the sharded store's ``manifest`` parse the
        same single read, so a concurrent republish can never pair one
        publish's record with another's shard layout.
        """
        self.check_name(name)
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
        """Parse a manifest payload, wrapping malformed ones in store errors."""
        try:
            return ModelRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError) as error:
            raise ModelStoreError(
                f"{self._meta_path(name)} is not a model metadata file: {error}"
            ) from error

    def record(self, name: str) -> ModelRecord:
        """Metadata of one published model."""
        return self._record_from_payload(name, self._read_meta(name))

    def list(self) -> List[ModelRecord]:
        """Records of every complete published model, sorted by name.

        Tolerant by design: a missing store directory is an empty store, and
        files that are not model manifests (foreign JSON, in-flight temps,
        manifests without their shard archives) are skipped rather than
        failing the whole listing.
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
        """Unpublish a model (manifest first, so readers never see a
        half-model), then remove every shard archive of the name, of every
        generation.

        Damaged models (corrupt manifest, missing shard files) are still
        removable: deletion is the cleanup path, so it never demands the
        model be loadable first.
        """
        self.check_name(name)
        if not self._meta_path(name).is_file():
            raise ModelStoreError(f"no model named {name!r} in {self.directory}")
        self._meta_path(name).unlink()
        self._remove_stale_shards(name, keep={})

    def __len__(self) -> int:
        return len(self.list())
