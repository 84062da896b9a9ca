"""Loading and saving interval-valued matrices and decompositions.

Interval data arrives in two common shapes:

* **endpoint pair** — two scalar matrices holding the lower and upper bounds
  (two CSV files, or one NPZ archive with ``lower``/``upper`` arrays);
* **wide CSV** — a single CSV in which every logical column ``x`` is stored as
  two physical columns ``x_lo`` and ``x_hi``.

This module reads and writes both, plus NPZ round-tripping of
:class:`~repro.core.result.IntervalDecomposition` objects so decompositions can
be computed once and reused by downstream tooling (the CLI uses these helpers).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.result import DecompositionTarget, IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.interval.scalar import IntervalError
from repro.interval.sparse import SparseIntervalMatrix, is_sparse_interval

PathLike = Union[str, Path]

_LO_SUFFIX = "_lo"
_HI_SUFFIX = "_hi"


# --------------------------------------------------------------------------- #
# CSV
# --------------------------------------------------------------------------- #
def save_interval_csv(matrix: IntervalMatrix, path: PathLike,
                      column_names: Optional[Sequence[str]] = None) -> None:
    """Write an interval matrix as a wide CSV (``col_lo``/``col_hi`` pairs)."""
    matrix = IntervalMatrix.coerce(matrix)
    if matrix.ndim != 2:
        raise IntervalError("save_interval_csv expects a 2-D interval matrix")
    n_rows, n_cols = matrix.shape
    if column_names is None:
        column_names = [f"c{j}" for j in range(n_cols)]
    if len(column_names) != n_cols:
        raise IntervalError(
            f"expected {n_cols} column names, got {len(column_names)}"
        )
    header: List[str] = []
    for name in column_names:
        header.extend([f"{name}{_LO_SUFFIX}", f"{name}{_HI_SUFFIX}"])

    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(n_rows):
            row: List[float] = []
            for j in range(n_cols):
                row.extend([matrix.lower[i, j], matrix.upper[i, j]])
            writer.writerow(row)


def load_interval_csv(path: PathLike) -> Tuple[IntervalMatrix, List[str]]:
    """Read a wide CSV written by :func:`save_interval_csv`.

    Returns the interval matrix and the logical column names.  Scalar CSVs
    (no ``_lo``/``_hi`` suffixes) are accepted and loaded as degenerate
    intervals.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise IntervalError(f"{path} is empty") from exc
        rows = [list(map(float, row)) for row in reader if row]

    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))

    paired = (
        len(header) % 2 == 0
        and all(header[i].endswith(_LO_SUFFIX) and header[i + 1].endswith(_HI_SUFFIX)
                for i in range(0, len(header), 2))
    )
    if paired:
        names = [header[i][: -len(_LO_SUFFIX)] for i in range(0, len(header), 2)]
        lower = data[:, 0::2]
        upper = data[:, 1::2]
        return IntervalMatrix(lower, upper), names
    return IntervalMatrix.from_scalar(data), list(header)


def load_endpoint_csvs(lower_path: PathLike, upper_path: PathLike) -> IntervalMatrix:
    """Read an interval matrix from two scalar CSVs (no headers required)."""
    lower = _load_scalar_csv(lower_path)
    upper = _load_scalar_csv(upper_path)
    if lower.shape != upper.shape:
        raise IntervalError(
            f"endpoint CSVs have different shapes: {lower.shape} vs {upper.shape}"
        )
    return IntervalMatrix(lower, upper)


def _load_scalar_csv(path: PathLike) -> np.ndarray:
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                # Tolerate a single header row of non-numeric labels.
                if rows:
                    raise
    if not rows:
        raise IntervalError(f"{path} contains no numeric rows")
    return np.asarray(rows, dtype=float)


# --------------------------------------------------------------------------- #
# Atomic writes
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def atomic_write(path: PathLike) -> Iterator[Path]:
    """Yield a temp path that is atomically renamed onto ``path`` on success.

    The temp file lives in the destination directory (same filesystem, so
    ``os.replace`` is atomic) and keeps the destination's suffix (so writers
    like ``numpy.savez`` that key on the extension behave identically).  A
    concurrent reader therefore only ever sees the old file or the complete
    new one, never a truncated write; on error the temp file is removed and
    the destination is left untouched.  Used by the decomposition cache and
    the model store, whose readers may race their writers.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp{path.suffix}"
    )
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()


# --------------------------------------------------------------------------- #
# npy byte strings (the shard-worker wire format)
# --------------------------------------------------------------------------- #
def array_to_npy_bytes(array: np.ndarray) -> bytes:
    """Serialize one ndarray to npy-format bytes, refusing object dtypes.

    The serving layer's worker protocol (:mod:`repro.serve.protocol`) frames
    these byte strings over sockets, so the encoding must never embed pickled
    Python objects — a malicious or corrupted peer could otherwise execute
    code on decode.  ``allow_pickle=False`` enforces that at both ends.
    """
    array = np.asarray(array)
    if not array.flags.c_contiguous:
        # ascontiguousarray only where needed: it would promote 0-d arrays
        # to 1-d, silently changing the shape the peer decodes.
        array = np.ascontiguousarray(array)
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def array_from_npy_bytes(data: bytes) -> np.ndarray:
    """Inverse of :func:`array_to_npy_bytes` (rejects pickled payloads).

    Raises ``ValueError`` on malformed npy bytes or object-dtype archives —
    never unpickles.
    """
    return np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)


# --------------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------------- #
def interval_fingerprint(matrix: Union[IntervalMatrix, SparseIntervalMatrix]) -> str:
    """Stable content hash of an interval matrix (shape + endpoint bytes).

    Used as the data component of on-disk cache keys: two matrices share a
    fingerprint exactly when their shapes and endpoint values are bitwise
    identical.  Sparse matrices hash their canonical CSR representation
    (sorted pattern + endpoint data) without densifying — note a sparse
    matrix and its dense equivalent deliberately do *not* share a
    fingerprint, because the two representations take different execution
    paths and may differ in the last ulp.

    Non-default endpoint dtypes contribute a ``dtype:`` tag to the digest, so
    a float32 matrix never collides with the float64 matrix holding the same
    values; float64 fingerprints are byte-identical to what this function has
    always produced.
    """
    if is_sparse_interval(matrix):
        dtype = matrix.dtype
        digest = hashlib.sha256()
        digest.update(b"csr:")
        digest.update(repr(matrix.shape).encode())
        if dtype != np.float64:
            digest.update(f"dtype:{dtype.name}:".encode())
        digest.update(np.ascontiguousarray(matrix.lower.indptr).tobytes())
        digest.update(np.ascontiguousarray(matrix.lower.indices).tobytes())
        digest.update(np.ascontiguousarray(matrix.lower.data, dtype=dtype).tobytes())
        digest.update(np.ascontiguousarray(matrix.upper.data, dtype=dtype).tobytes())
        return digest.hexdigest()
    matrix = IntervalMatrix.coerce(matrix)
    dtype = matrix.lower.dtype
    digest = hashlib.sha256()
    digest.update(repr(matrix.shape).encode())
    if dtype != np.float64:
        digest.update(f"dtype:{dtype.name}:".encode())
    digest.update(np.ascontiguousarray(matrix.lower, dtype=dtype).tobytes())
    digest.update(np.ascontiguousarray(matrix.upper, dtype=dtype).tobytes())
    return digest.hexdigest()


def decomposition_fingerprint(decomposition: IntervalDecomposition) -> str:
    """Stable content hash of a decomposition (metadata + factor endpoints).

    Two decompositions share a fingerprint exactly when their method, target,
    rank, factor shapes and factor endpoint values are bitwise identical.
    The sharded model store records one per row-range shard at publish time
    and re-verifies on load, so a shard file that was swapped, truncated or
    mixed up between models is caught before it silently serves wrong rows.

    As with :func:`interval_fingerprint`, non-default factor dtypes add a
    ``dtype:`` tag to the digest; float64 decompositions fingerprint exactly
    as they always have.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{decomposition.method}:{decomposition.target.value}:"
        f"{decomposition.rank}:".encode()
    )
    for prefix, factor in (("u", decomposition.u), ("s", decomposition.sigma),
                           ("v", decomposition.v)):
        if isinstance(factor, IntervalMatrix):
            lower, upper = factor.lower, factor.upper
        else:
            scalar = np.asarray(factor)
            if scalar.dtype != np.float32:
                scalar = np.asarray(scalar, dtype=float)
            lower = upper = scalar
        digest.update(f"{prefix}{lower.shape!r}:".encode())
        if lower.dtype != np.float64:
            digest.update(f"dtype:{lower.dtype.name}:".encode())
        digest.update(np.ascontiguousarray(lower, dtype=lower.dtype).tobytes())
        digest.update(np.ascontiguousarray(upper, dtype=lower.dtype).tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# NPZ
# --------------------------------------------------------------------------- #
def save_interval_npz(matrix: Union[IntervalMatrix, SparseIntervalMatrix],
                      path: PathLike) -> None:
    """Write an interval matrix to a compressed NPZ archive.

    Sparse matrices are stored in CSR form (``format="csr"`` marker plus
    ``indptr`` / ``indices`` / ``lower_data`` / ``upper_data`` / ``shape``
    arrays) — the archive stays proportional to the number of observed cells,
    and :func:`load_interval_npz` restores the same representation.
    """
    if is_sparse_interval(matrix):
        np.savez_compressed(
            Path(path),
            format=np.array("csr"),
            shape=np.asarray(matrix.shape, dtype=np.int64),
            indptr=matrix.lower.indptr,
            indices=matrix.lower.indices,
            lower_data=matrix.lower.data,
            upper_data=matrix.upper.data,
        )
        return
    matrix = IntervalMatrix.coerce(matrix)
    np.savez_compressed(Path(path), lower=matrix.lower, upper=matrix.upper)


def load_interval_npz(path: PathLike) -> Union[IntervalMatrix, SparseIntervalMatrix]:
    """Read an interval matrix from an NPZ archive.

    Dense archives carry ``lower``/``upper`` arrays; sparse archives carry
    the CSR fields written by :func:`save_interval_npz` and load back as a
    :class:`~repro.interval.sparse.SparseIntervalMatrix`.
    """
    with np.load(Path(path)) as archive:
        if "format" in archive and str(archive["format"]) == "csr":
            import scipy.sparse as sp

            required = {"shape", "indptr", "indices", "lower_data", "upper_data"}
            if not required.issubset(set(archive.files)):
                raise IntervalError(f"{path} is not a sparse interval archive")
            shape = tuple(int(n) for n in archive["shape"])
            lower = sp.csr_array(
                (archive["lower_data"], archive["indices"], archive["indptr"]),
                shape=shape)
            upper = sp.csr_array(
                (archive["upper_data"], archive["indices"], archive["indptr"]),
                shape=shape)
            return SparseIntervalMatrix(lower, upper)
        if "lower" not in archive or "upper" not in archive:
            raise IntervalError(
                f"{path} does not contain 'lower' and 'upper' arrays"
            )
        return IntervalMatrix(archive["lower"], archive["upper"])


# --------------------------------------------------------------------------- #
# Decompositions
# --------------------------------------------------------------------------- #
def _pack_factor(prefix: str, factor, payload: Dict[str, np.ndarray]) -> None:
    if isinstance(factor, IntervalMatrix):
        payload[f"{prefix}_lower"] = factor.lower
        payload[f"{prefix}_upper"] = factor.upper
    else:
        scalar = np.asarray(factor)
        if scalar.dtype != np.float32:
            scalar = np.asarray(scalar, dtype=float)
        payload[prefix] = scalar


def _unpack_factor(prefix: str, archive) -> Union[np.ndarray, IntervalMatrix]:
    if f"{prefix}_lower" in archive:
        return IntervalMatrix(archive[f"{prefix}_lower"], archive[f"{prefix}_upper"],
                              check=False)
    return archive[prefix]


def save_decomposition_npz(decomposition: IntervalDecomposition, path: PathLike) -> None:
    """Write a decomposition (factors, target, method, rank) to an NPZ archive."""
    payload: Dict[str, np.ndarray] = {}
    _pack_factor("u", decomposition.u, payload)
    _pack_factor("sigma", decomposition.sigma, payload)
    _pack_factor("v", decomposition.v, payload)
    payload["meta_target"] = np.array(decomposition.target.value)
    payload["meta_method"] = np.array(decomposition.method)
    payload["meta_rank"] = np.array(decomposition.rank)
    np.savez_compressed(Path(path), **payload)


def load_decomposition_npz(path: PathLike) -> IntervalDecomposition:
    """Read a decomposition written by :func:`save_decomposition_npz`."""
    with np.load(Path(path)) as archive:
        required = {"meta_target", "meta_method", "meta_rank"}
        if not required.issubset(set(archive.files)):
            raise IntervalError(f"{path} is not a decomposition archive")
        return IntervalDecomposition(
            u=_unpack_factor("u", archive),
            sigma=_unpack_factor("sigma", archive),
            v=_unpack_factor("v", archive),
            target=DecompositionTarget.coerce(str(archive["meta_target"])),
            method=str(archive["meta_method"]),
            rank=int(archive["meta_rank"]),
        )
