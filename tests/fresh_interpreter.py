"""Run code in a fresh interpreter with this source tree on the path.

The module set a check sees there is the one a new process starts with,
not whatever the test session has already imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def run(*arguments):
    """``python *arguments`` with ``SOURCE_ROOT`` first on ``PYTHONPATH``."""
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = SOURCE_ROOT + (
        os.pathsep + existing if existing else "")
    return subprocess.run([sys.executable, *arguments], env=environment,
                          capture_output=True, text=True, timeout=120)


def run_json(code):
    """Run ``code`` with ``python -c`` and decode the JSON it prints."""
    completed = run("-c", code)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)
