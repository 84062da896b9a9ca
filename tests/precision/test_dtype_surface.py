"""The dtype surface: a precision is one of two endpoint dtypes.

``repro decompose --dtype`` and :func:`~repro.core.isvd.isvd`'s ``dtype=``
accept exactly float64 and float32 (in any numpy spelling of them); anything
else is refused before a fit starts, and a float32 fit published through the
CLI reloads as float32.
"""

import json

import numpy as np
import pytest

from strategies import random_matrix

from repro.cli import main
from repro.core.isvd import isvd
from repro.serve.shard import ShardedModelStore

MATRIX_PARAMS = (20, 14, 0.5, 11)
RANK = 4


def _factor_bytes(decomposition):
    chunks = []
    for factor in (decomposition.u, decomposition.sigma, decomposition.v):
        for endpoint in (getattr(factor, "lower", factor),
                         getattr(factor, "upper", factor)):
            endpoint = np.ascontiguousarray(endpoint)
            chunks.append(endpoint.dtype.str.encode() + endpoint.tobytes())
    return b"".join(chunks)


@pytest.fixture
def matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    assert main(["generate", str(path), "--rows", "10", "--cols", "8",
                 "--seed", "3"]) == 0
    return path


class TestDecomposeDtype:
    def test_float32_save_model_publishes_a_float32_model(
            self, matrix_csv, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["decompose", "--csv", str(matrix_csv), "--rank", "3",
                     "--method", "isvd4", "--dtype", "float32",
                     "--save-model", "m32", "--store", str(store)]) == 0
        capsys.readouterr()
        sidecar = json.loads((store / "m32.json").read_text())
        assert sidecar["dtype"] == "float32"
        decomposition, record = ShardedModelStore(store).load_merged("m32")
        assert record.dtype == "float32"
        assert decomposition.dtype == np.float32

    def test_mixed_is_not_a_choice(self, matrix_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", "--csv", str(matrix_csv), "--rank", "3",
                  "--dtype", "mixed"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestIsvdDtype:
    @pytest.mark.parametrize("dtype", ["mixed", "float16", "int32", "nonsense"])
    def test_unsupported_dtype_raises_naming_both(self, dtype):
        matrix = random_matrix(MATRIX_PARAMS)
        with pytest.raises(ValueError, match="float64 or float32"):
            isvd(matrix, RANK, dtype=dtype)

    @pytest.mark.parametrize("method,target", [
        ("isvd0", "c"), ("isvd1", "b"), ("isvd4", "b")])
    def test_float32_spellings_give_identical_bytes(self, method, target):
        matrix = random_matrix(MATRIX_PARAMS)
        fits = [isvd(matrix, RANK, method=method, target=target, dtype=dtype)
                for dtype in (np.float32, "float32", "f4", "single",
                              np.dtype(np.float32))]
        assert fits[0].dtype == np.float32
        reference = _factor_bytes(fits[0])
        for fit in fits[1:]:
            assert _factor_bytes(fit) == reference
