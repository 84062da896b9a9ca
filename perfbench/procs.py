"""Processes of the program under test: spawn, time, stop, and inspect.

Everything the benchmark runs is a real ``python3 -m repro`` process (or
the traced launcher around the same CLI), started with the checkout's
``src`` on ``PYTHONPATH`` and no thread or BLAS variable of the benchmark's
own.  Their output goes to per-phase log files, so a failure names its
cause.  Hygiene checks find leftover processes by the run's unique store
path, which appears on the command line of the server and of every worker.
"""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment variables that set BLAS / OpenMP thread pools (recorded, never
#: set: the benchmark runs what users run).
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

_TICKS = os.sysconf("SC_CLK_TCK")


def program_env(root: Path) -> Dict[str, str]:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(root / "src")
    return environment


def spawn(command: Sequence[str], log_path: Path, root: Path) -> subprocess.Popen:
    """Start a program with stdout and stderr appended to ``log_path``."""
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "ab") as log:
        log.write(f"$ {' '.join(command)}\n".encode())
        log.flush()
        return subprocess.Popen(list(command), cwd=root, env=program_env(root),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)


def run_timed(command: Sequence[str], log_path: Path, root: Path,
              timeout: float = 170.0) -> Tuple[int, float, float]:
    """Run a program to completion: ``(exit code, wall seconds, peak RSS MB)``.

    Wall time runs from the spawn to the reaped exit; peak RSS is the
    child's own ``ru_maxrss`` from ``wait4``.
    """
    start = time.perf_counter()
    process = spawn(command, log_path, root)
    deadline = start + timeout
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            wall = time.perf_counter() - start
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, wall, usage.ru_maxrss / 1024.0
        if time.perf_counter() > deadline:
            process.kill()
            process.wait()
            return -9, time.perf_counter() - start, 0.0
        time.sleep(0.005)


def stop(process: subprocess.Popen, timeout: float = 15.0) -> Tuple[bool, int]:
    """Interrupt a server as Ctrl-C would and wait for it.

    Returns ``(clean, interrupts)``.  Python drops a ``KeyboardInterrupt``
    that lands inside a finalizer (``Exception ignored in ... __del__``), so
    a server still up after ``timeout`` gets a second SIGINT, as a user
    would press Ctrl-C again.  ``clean`` is ``False`` when it then still had
    to be killed (an unclean stop counts as a failure).
    """
    if process.poll() is not None:
        return process.returncode == 0, 0
    for interrupts in (1, 2):
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=timeout)
            return True, interrupts
        except subprocess.TimeoutExpired:
            continue
    process.kill()
    process.wait()
    return False, 2


def processes_with(marker: str) -> List[int]:
    """Pids of live processes whose command line contains ``marker``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if marker.encode() in command and state != "Z":
            found.append(int(entry.name))
    return found


def reap_leftovers(marker: str, grace: float = 5.0) -> List[int]:
    """Wait up to ``grace`` seconds for processes naming ``marker`` to exit;
    kill and return those that did not."""
    deadline = time.perf_counter() + grace
    leftovers = processes_with(marker)
    while leftovers and time.perf_counter() < deadline:
        time.sleep(0.05)
        leftovers = processes_with(marker)
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return leftovers


def stray_temporaries(store: Path) -> List[str]:
    if not store.is_dir():
        return []
    return sorted(path.name for path in store.iterdir() if ".tmp" in path.name)


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` over live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pids: Sequence[int]) -> float:
    """User plus system CPU seconds used so far by live processes."""
    total = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICKS


def cpu_ticks() -> List[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat``, in clock ticks."""
    return [int(value)
            for value in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor stole between two :func:`cpu_ticks`
    readings: time this machine's CPUs were runnable but not running.  A
    high share means the run's numbers measured the host's load too."""
    delta = [later - earlier for later, earlier in zip(after, before)]
    return delta[7] / max(1, sum(delta))


def import_ms(module: str, root: Path, repeats: int = 3) -> float:
    """Median wall milliseconds of a cold ``python3 -c "import <module>"``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], cwd=root,
                       env=program_env(root), check=True,
                       stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) * 1000.0)
    return sorted(times)[len(times) // 2]


def source_digest(root: Path) -> str:
    """Short digest of every Python file under ``root/src``, names included."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record(root: Path) -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy
    import scipy

    from repro.serve.shard import usable_cpu_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build record varies by version
        blas_name = "unknown"
    commit: Optional[str] = None
    if (root / ".git").exists():  # benchmark checkouts are often not clones
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpu_count": usable_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_thread_env": {name: os.environ.get(name, "unset")
                            for name in THREAD_VARIABLES},
        "git_commit": commit,
        "source_sha256": source_digest(root),
    }
