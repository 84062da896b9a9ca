"""A shard worker imports only what it runs.

Each check runs in a fresh interpreter, so the module set it sees is the
one a spawned worker starts with, not whatever this test session already
imported.  The checks compare module sets, never wall clocks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a worker never runs: ILSA's assignment solver (only a fit
#: aligns) and the HTTP front end with its event loop.
NOT_IN_A_WORKER = ("scipy.optimize", "asyncio", "repro.serve.async_http",
                   "repro.serve.http")


def _run(*arguments):
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = SOURCE_ROOT + (
        os.pathsep + existing if existing else "")
    return subprocess.run([sys.executable, *arguments], env=environment,
                          capture_output=True, text=True, timeout=120)


def _python(code):
    completed = _run("-c", code)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_a_worker_loads_no_front_end_and_no_assignment_solver():
    loaded = _python(
        "import json, sys\n"
        "import repro.serve.worker\n"
        f"print(json.dumps([name for name in {NOT_IN_A_WORKER!r} "
        "if name in sys.modules]))\n")
    assert loaded == []


def test_ilsa_loads_the_assignment_solver_on_demand():
    before, after, mapping = _python(
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
    missing_attribute, missing_from_dir = _python(
        "import json\n"
        "import repro.serve as serve\n"
        "names = list(serve.__all__)\n"
        "print(json.dumps([\n"
        "    [name for name in names if getattr(serve, name, None) is None],\n"
        "    [name for name in names if name not in dir(serve)]]))\n")
    assert missing_attribute == []
    assert missing_from_dir == []


def test_the_worker_runs_as_a_module_without_warnings():
    completed = _run("-W", "error::RuntimeWarning", "-m", "repro.serve.worker",
                     "--help")
    assert completed.returncode == 0, completed.stderr
    assert "python -m repro.serve.worker" in completed.stdout
