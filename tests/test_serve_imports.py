"""A serving process imports only what it runs.

Each check runs in a fresh interpreter, so the module set it sees is the
one a spawned worker or a new front end starts with, not whatever this
test session already imported.  The checks compare module sets, never
wall clocks.
"""

import pytest

from fresh_interpreter import run, run_json

#: Modules a worker never runs: ILSA's assignment solver (only a fit
#: aligns) and the HTTP front end with its event loop.
NOT_IN_A_WORKER = ("scipy.optimize", "asyncio", "repro.serve.async_http",
                   "repro.serve.http")

#: Prints the loaded modules named ``scipy`` or ``scipy.*``.
PRINT_SCIPY_MODULES = (
    "print(json.dumps(sorted(name for name in sys.modules\n"
    "                        if name.split('.')[0] == 'scipy')))\n")


def test_a_worker_loads_no_front_end_and_no_assignment_solver():
    loaded = run_json(
        "import json, sys\n"
        "import repro.serve.worker\n"
        f"print(json.dumps([name for name in {NOT_IN_A_WORKER!r} "
        "if name in sys.modules]))\n")
    assert loaded == []


def test_ilsa_loads_the_assignment_solver_on_demand():
    before, after, mapping = run_json(
        "import json, sys\n"
        "import numpy as np\n"
        "import repro.serve.worker\n"
        "from repro.core import ilsa\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "basis = np.eye(3)\n"
        "result = ilsa(basis, basis[:, [2, 0, 1]], method='hungarian')\n"
        "print(json.dumps([before, 'scipy.optimize' in sys.modules,\n"
        "                  np.asarray(result.mapping).tolist()]))\n")
    assert (before, after) == (False, True)
    assert mapping == [2, 0, 1]


def test_every_export_of_repro_serve_resolves():
    missing_attribute, missing_from_dir = run_json(
        "import json\n"
        "import repro.serve as serve\n"
        "names = list(serve.__all__)\n"
        "print(json.dumps([\n"
        "    [name for name in names if getattr(serve, name, None) is None],\n"
        "    [name for name in names if name not in dir(serve)]]))\n")
    assert missing_attribute == []
    assert missing_from_dir == []


def test_the_worker_runs_as_a_module_without_warnings():
    completed = run("-W", "error::RuntimeWarning", "-m", "repro.serve.worker",
                     "--help")
    assert completed.returncode == 0, completed.stderr
    assert "python -m repro.serve.worker" in completed.stdout


def test_a_worker_loads_no_scipy_module():
    loaded = run_json("import json, sys\n"
                     "import repro.serve.worker\n" + PRINT_SCIPY_MODULES)
    assert loaded == []


def test_the_front_end_loads_no_scipy_module():
    loaded = run_json("import json, sys\n"
                     "import repro.cli, repro.serve.async_http, repro.serve.shard\n"
                     + PRINT_SCIPY_MODULES)
    assert loaded == []


def test_a_dense_query_loads_no_scipy_module(tmp_path):
    # The model is fitted here (the fit aligns with scipy.optimize) and the
    # fresh interpreter only loads and serves it, as a worker does.
    import numpy as np

    from repro.core.isvd import isvd
    from repro.interval.random import random_interval_matrix
    from repro.io import save_decomposition_npz

    matrix = random_interval_matrix(shape=(12, 9), matrix_density=0.6,
                                    rng=np.random.default_rng(5))
    save_decomposition_npz(isvd(matrix, 3, method="isvd4"),
                           tmp_path / "model.npz")
    loaded, top, neighbors = run_json(
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.io import load_decomposition_npz\n"
        "from repro.serve.query import QueryEngine\n"
        f"engine = QueryEngine(load_decomposition_npz({str(tmp_path / 'model.npz')!r}))\n"
        "rows = np.random.default_rng(6).uniform(0.0, 5.0, size=(1, 9))\n"
        "top = engine.top_k_items(rows, 3).indices.tolist()\n"
        "neighbors = engine.nearest_neighbors(rows, 2).indices.tolist()\n"
        "print(json.dumps([sorted(name for name in sys.modules\n"
        "                         if name.split('.')[0] == 'scipy'),\n"
        "                  top, neighbors]))\n")
    assert loaded == []
    assert np.asarray(top).shape == (1, 3)
    assert np.asarray(neighbors).shape == (1, 2)


@pytest.mark.parametrize("build", [
    "matrix = SparseIntervalMatrix.from_dense(np.eye(3))",
    "matrix = load_interval_npz(path)",
], ids=["from_dense", "load_interval_npz"])
def test_sparse_data_loads_scipy_sparse_on_demand(tmp_path, build):
    import numpy as np

    from repro.interval.sparse import SparseIntervalMatrix
    from repro.io import save_interval_npz

    path = tmp_path / "sparse.npz"
    save_interval_npz(SparseIntervalMatrix.from_dense(np.eye(3)), path)
    before, after, nnz = run_json(
        "import json, sys\n"
        "import numpy as np\n"
        "import repro.serve.worker\n"
        "from repro.interval.sparse import SparseIntervalMatrix\n"
        "from repro.io import load_interval_npz\n"
        f"path = {str(path)!r}\n"
        "before = 'scipy.sparse' in sys.modules\n"
        f"{build}\n"
        "print(json.dumps([before, 'scipy.sparse' in sys.modules, matrix.nnz]))\n")
    assert (before, after, nnz) == (False, True, 3)


def test_a_dense_archive_loads_no_scipy_module(tmp_path):
    import numpy as np

    from repro.io import save_interval_npz

    save_interval_npz(np.eye(3), tmp_path / "dense.npz")
    loaded = run_json("import json, sys\n"
                     "from repro.io import load_interval_npz\n"
                     f"load_interval_npz({str(tmp_path / 'dense.npz')!r})\n"
                     + PRINT_SCIPY_MODULES)
    assert loaded == []
