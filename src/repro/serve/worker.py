"""Per-shard worker processes behind the sharded serving front end.

One Python process bounds every thread-based scatter at the GIL (numpy
releases it in BLAS, but selection, fold-in bookkeeping and framing do not
parallelize), and a single address space means one bad allocation takes the
whole service down.  This module moves each row-range shard into its own
**worker process**:

* :func:`worker_main` — the ``python -m repro.serve.worker`` entry point: it
  loads exactly one shard (the store's ``load_shard``), connects
  back to the supervisor over localhost TCP, and answers request frames
  until end-of-stream.  The wire format is the length-prefixed npy framing
  of :mod:`repro.serve.protocol` — no pickle in either direction;
* :class:`ShardWorkerSupervisor` — spawns one worker per shard, checks
  their health, restarts the dead, and tears everything down without
  leaving orphans (workers exit on socket EOF, so even a killed supervisor
  releases them);
* :class:`WorkerShardedQueryEngine` — the scatter-gather router of
  :class:`~repro.serve.shard.ShardedQueryEngine` over worker shards: it
  only builds one shard call per worker (through the supervisor) and adds
  :meth:`~WorkerShardedQueryEngine.liveness`; every query method, and so
  every answer, is the router's.  Only reference-space work (neighbour
  distances and candidates, stored-user scores) crosses to a worker;
  item-space queries are answered by the router's own fold-in projector.

**Why results stay byte-identical.**  Every scoring path is row-local and
deterministic (einsum fold-in, element-local distances), the router folds
queries in once and ships the features, and npy framing round-trips array
bytes exactly.  The gather then merges under
:func:`~repro.serve.query.top_k`'s total order, which provably reproduces
the unsharded selection.  A worker executes the same
:func:`~repro.serve.shard._run_op` an in-process shard does.  The parity
suite asserts byte equality against both
:class:`~repro.serve.query.QueryEngine` and the in-process router
(``tests/test_serve_worker.py``).

**Generation pinning.**  The supervisor plans against one
:class:`~repro.serve.shard.ShardManifest` and ships that exact manifest
(JSON in the environment) to every worker it spawns.  The shipped manifest
is the worker's only pin: it fixes the generation, the row ranges, the
fingerprints and the factor dtype, so workers load the *pinned* generation
even after a reshard has moved the on-disk sidecar on — the superseded
generation's files are kept until drain precisely for this.  A worker
started without a manifest exits 2, like one without its auth token.  A
worker whose pinned shard is not loadable — its files gone (two reshards,
or an explicit GC), corrupt, or of another dtype than the manifest records
— exits with :data:`EXIT_SHARD_UNLOADABLE` instead of serving mixed rows,
and a supervisor refuses to *start* a fresh fleet against a superseded
manifest.  The front end's engine cache keys on the generation,
so the next request simply builds a fresh engine against the new manifest.
"""

from __future__ import annotations

import argparse
import hmac
import json
import logging
import os
import secrets
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as wait_futures
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro
from repro.interval.kernels import KernelLike, get_kernel
from repro.serve.faults import (
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    install_protocol_hook,
)
from repro.serve.foldin import FoldInProjector
from repro.serve.protocol import (
    ProtocolError,
    read_frame,
    write_frame,
)
# The errors and the degradation scope live in resilience (imported back
# here so ``from repro.serve.worker import WorkerError`` keeps working).
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    RetryPolicy,
    ShardUnavailableError,
    WorkerError,
    WorkerRequestError,
    collect_missing_shards,
    current_deadline,
)
from repro.serve.query import QueryEngine
# The shard ops are defined once, next to the router; a worker runs the
# same _run_op an in-process shard does.
from repro.serve.shard import (
    ShardedModelStore,
    ShardedQueryEngine,
    ShardManifest,
    _run_op,
)
from repro.serve.store import ModelStoreError

#: Worker exit status when the pinned shard cannot be loaded: its files are
#: missing (superseded more than one reshard ago), corrupt, or hold another
#: dtype than the manifest records (serving would silently mix precisions,
#: and therefore bytes, across shards).
EXIT_SHARD_UNLOADABLE = 3

#: Name of the environment variable carrying the connect-back auth token
#: (environment, not argv: argv is world-readable in ``ps``).
TOKEN_ENV = "REPRO_WORKER_TOKEN"

#: Environment variable carrying the supervisor's pinned manifest as JSON
#: (see :meth:`ShardManifest.to_payload`).  The worker loads *this* layout,
#: not the on-disk sidecar: after a reshard the sidecar describes a newer
#: generation, but the superseded generation's files are deliberately kept
#: on disk until drain, so a pinned worker keeps restarting hitlessly.
MANIFEST_ENV = "REPRO_WORKER_MANIFEST"

#: Seconds the supervisor waits for a spawned worker to connect back and
#: authenticate before declaring the spawn failed.
SPAWN_TIMEOUT = 60.0

#: Default per-exchange socket timeout: the longest one request/response
#: round-trip with a worker may take before the worker counts as stalled.
CALL_TIMEOUT = 30.0

# Named, not __name__: a spawned worker runs this module as __main__.
logger = logging.getLogger("repro.serve.worker")


# --------------------------------------------------------------------- #
# Worker side (runs in the spawned process)
# --------------------------------------------------------------------- #
def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="One row-range shard worker (spawned by the serving "
                    "supervisor; not intended for interactive use)",
    )
    parser.add_argument("--store", required=True, help="model store directory")
    parser.add_argument("--model", required=True, help="model name")
    parser.add_argument("--shard", required=True, type=int, help="shard index")
    parser.add_argument("--connect-port", required=True, type=int,
                        help="supervisor's localhost connect-back port")
    parser.add_argument("--kernel", default=None,
                        help="interval-product kernel key")
    return parser


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of one shard worker process.

    Loads its shard of the manifest pinned in :data:`MANIFEST_ENV`
    (fingerprint- and dtype-verified), connects back to the
    supervisor, authenticates with the token from :data:`TOKEN_ENV`, then
    answers request frames until the supervisor closes the connection —
    end-of-stream is the shutdown signal, so a worker can never outlive its
    socket, even when the supervisor dies without cleanup.
    """
    args = _build_arg_parser().parse_args(argv)
    # Workers are spawned headless; without a handler their restart/fault
    # warnings would vanish.  basicConfig is a no-op when the embedding
    # environment already configured logging.
    logging.basicConfig(
        level=logging.WARNING,
        format="%(asctime)s %(name)s [pid %(process)d]: %(message)s")
    token = os.environ.get(TOKEN_ENV, "")
    if not token:
        logger.error("worker: no auth token in the environment")
        return 2
    pinned_payload = os.environ.get(MANIFEST_ENV)
    if not pinned_payload:
        logger.error("worker: no pinned manifest in the environment")
        return 2
    faults = FaultPlan.from_env()
    if faults is not None:
        faults.bind(args.shard)
        install_protocol_hook(faults)
        logger.warning("worker shard %d armed fault plan %r",
                       args.shard, faults.spec)
        faults.fire("load")
    store = ShardedModelStore(args.store)
    try:
        manifest = store.manifest_from_payload(args.model,
                                               json.loads(pinned_payload))
        shard, manifest = store.load_shard(args.model, args.shard,
                                           manifest=manifest)
    except ModelStoreError as error:
        # Missing files (more than one reshard, or an explicit GC, since the
        # supervisor planned), a corrupt archive, or a shard of another
        # dtype than the manifest records.  Exit with a status of its own
        # so the supervisor reports the cause instead of a bare failure.
        logger.error("worker: shard %d of %r is not loadable: %s",
                     args.shard, args.model, error)
        return EXIT_SHARD_UNLOADABLE
    engine = QueryEngine(shard, kernel=args.kernel)
    row_start = manifest.row_ranges[args.shard][0]

    if faults is not None:
        faults.fire("connect")  # a stall here simulates a slow accept
    connection = socket.create_connection(("127.0.0.1", args.connect_port))
    try:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = connection.makefile("rwb")
        write_frame(stream, {
            "op": "hello",
            "token": token,
            "shard": args.shard,
            "generation": manifest.record.generation,
            "n_users": engine.n_users,
            "n_items": engine.n_items,
            "pid": os.getpid(),
        })
        _serve_requests(stream, engine, row_start, faults=faults)
    except KeyboardInterrupt:
        # Terminal Ctrl-C reaches the whole foreground process group;
        # interactive shutdown is normal, not a crash worth a traceback.
        pass
    finally:
        connection.close()
    return 0


def _serve_requests(stream, engine: QueryEngine, row_start: int,
                    faults: Optional[FaultPlan] = None) -> None:
    """Answer request frames until end-of-stream (the shutdown signal)."""
    while True:
        frame = read_frame(stream)
        if frame is None:  # supervisor closed the socket: exit cleanly
            return
        header, arrays = frame
        op = header.get("op")
        if op == "shutdown":
            write_frame(stream, {"ok": True})
            return
        try:
            reply, out_arrays = _run_op(engine, row_start, op, header, arrays)
        except Exception as error:  # report, keep serving: one bad request
            write_frame(stream, {"ok": False,  # must not kill the shard
                                 "error": f"{type(error).__name__}: {error}"})
            continue
        if faults is not None:
            try:
                # The window between executing a request and acknowledging
                # it — the one a retry must treat as "unknown outcome".
                faults.fire("before_reply",
                            op=op if isinstance(op, str) else None,
                            stream=stream)
            except FaultInjected:
                continue  # garbage went out instead of the reply
        write_frame(stream, reply, out_arrays)


# --------------------------------------------------------------------- #
# Supervisor side (runs in the serving process)
# --------------------------------------------------------------------- #
class WorkerHandle:
    """One spawned worker: its process, its connection, its request lock."""

    def __init__(self, shard: int, process: subprocess.Popen,
                 connection: socket.socket, stream,
                 generation: int):
        self.shard = shard
        self.process = process
        self.connection = connection
        self.stream = stream
        self.generation = generation
        #: Serializes request/response exchanges on this worker's socket
        #: (scatter fans out across workers, never within one).
        self.lock = threading.Lock()
        self.dead = False
        #: Set by the first restarter that charged this handle's death to
        #: the shard's circuit breaker, so racing callers observing the
        #: same corpse cannot inflate the failure window.
        self.failure_recorded = False

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return not self.dead and self.process.poll() is None

    def mark_dead(self) -> None:
        self.dead = True
        # shutdown() sends the FIN even while the makefile stream still
        # holds a reference to the descriptor — connection.close() alone
        # would only drop a refcount and the worker would never see EOF.
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:  # already reset or never connected
            pass
        try:
            self.stream.close()
        except (OSError, ValueError):  # flush on a shut-down socket
            pass
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - close of a reset socket
            pass

    def reap(self, timeout: float = 5.0) -> None:
        """Close the socket (the worker's shutdown signal) and wait; escalate
        to terminate/kill only if the worker ignores end-of-stream."""
        self.mark_dead()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait()


class ShardWorkerSupervisor:
    """Spawns, health-checks, restarts and reaps one worker per shard.

    Each spawn listens on its own localhost port; its worker connects back
    and authenticates with a per-supervisor random token, so another local
    process cannot slip a rogue worker into the accept window.  A
    background monitor respawns workers that exit unexpectedly;
    :meth:`call` retries a failed request under ``retry`` (bounded
    exponential backoff with jitter), restarting the worker between
    attempts, inside the caller's deadline.

    Every observed worker death is charged to that shard's
    :class:`~repro.serve.resilience.CircuitBreaker`; a crash-looping shard
    opens its breaker (stopping the respawn storm) and fails requests fast
    with :class:`ShardUnavailableError` until a half-open probe — a fresh
    spawn that must also answer a ``ping`` — proves it healthy again.

    ``call_timeout`` bounds every socket exchange, so a *stalled* (not just
    crashed) worker surfaces as a timeout instead of wedging its shard's
    request lock; an end-to-end :class:`~repro.serve.resilience.Deadline`
    (explicit, or ambient via ``deadline_scope``) tightens that bound
    per request.  ``faults`` is a :mod:`repro.serve.faults` spec string
    injected into every spawned worker's environment.
    """

    def __init__(self, directory: Union[str, Path], name: str,
                 manifest: ShardManifest, kernel: KernelLike = None,
                 monitor_interval: float = 0.5,
                 call_timeout: float = CALL_TIMEOUT,
                 retry: Optional[RetryPolicy] = None,
                 breaker_threshold: int = 5, breaker_window: float = 30.0,
                 breaker_cooldown: float = 5.0,
                 faults: Optional[str] = None,
                 dtype: Optional[str] = None):
        self.directory = Path(directory)
        self.name = name
        self.manifest = manifest
        #: ``dtype`` pins the fleet's factor precision: a supervisor pinned
        #: to float64 refuses to serve a float32 model (and vice versa)
        #: instead of silently serving different bytes than the caller
        #: deployed against.  ``None`` serves whatever the manifest records.
        if dtype is not None and dtype != manifest.record.dtype:
            raise WorkerError(
                f"cannot serve {name!r}: supervisor pinned to dtype "
                f"{dtype!r} but the manifest records "
                f"{manifest.record.dtype!r}")
        self.kernel_key = get_kernel(kernel).key
        self.monitor_interval = monitor_interval
        if call_timeout <= 0:
            raise ValueError(f"call_timeout must be positive, got {call_timeout}")
        self.call_timeout = float(call_timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self._token = secrets.token_hex(16)
        n_shards = manifest.record.shards
        self._handles: List[Optional[WorkerHandle]] = [None] * n_shards
        self._restarts = [0] * n_shards
        #: Each shard's in-flight respawn, shared by every caller that
        #: finds its worker dead; guarded by ``_respawn_lock``, which also
        #: orders a new respawn against close().
        self._respawns: List[Optional[Future]] = [None] * n_shards
        self._respawn_lock = threading.Lock()
        self._breakers = [
            CircuitBreaker(threshold=breaker_threshold,
                           window=breaker_window, cooldown=breaker_cooldown)
            for _ in range(n_shards)
        ]
        #: Wall-clock timestamps of recent restarts (for /healthz).
        self._restarted_at: List[List[float]] = [[] for _ in range(n_shards)]
        self._last_failure: List[Optional[str]] = [None] * n_shards
        self._closed = False
        self._monitor: Optional[threading.Thread] = None

    @property
    def n_shards(self) -> int:
        return self.manifest.record.shards

    def start(self) -> None:
        """Spawn every worker, concurrently, and start the health monitor.

        The fleet starts in the time of its slowest worker, not the sum of
        all of them.  If any spawn fails, every worker already spawned is
        reaped and the error of the lowest failed shard is raised.

        Refuses to *start* against a superseded manifest (a reshard landed
        between planning and start): a fresh fleet must serve the current
        generation.  Once started, though, the fleet stays pinned — worker
        *restarts* keep loading the pinned generation from its kept files,
        which is what makes a reshard hitless for in-flight engines.
        """
        current = ShardedModelStore(self.directory) \
            .manifest(self.name).record.generation
        if current != self.manifest.record.generation:
            raise WorkerError(
                f"cannot start workers for {self.name!r}: stale manifest "
                f"generation {self.manifest.record.generation} (the store "
                f"now serves generation {current})"
            )
        with ThreadPoolExecutor(max_workers=self.n_shards,
                                thread_name_prefix="repro-worker-spawn") as pool:
            spawns = [pool.submit(self._spawn, shard)
                      for shard in range(self.n_shards)]
        errors = [spawn.exception() for spawn in spawns
                  if spawn.exception() is not None]
        if errors:
            for spawn in spawns:
                if spawn.exception() is None:
                    spawn.result().reap()
            raise errors[0]
        self._handles = [spawn.result() for spawn in spawns]
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="repro-worker-monitor",
                                         daemon=True)
        self._monitor.start()

    def _spawn(self, shard: int) -> WorkerHandle:
        """Start one shard's worker and accept its connect-back.

        Each spawn listens on its own localhost port, so spawns of
        different shards never wait on each other or adopt each other's
        workers.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            process = self._launch(shard, listener.getsockname()[1])
            try:
                handle = self._accept(shard, process, listener)
            except Exception:
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait()
                raise
        finally:
            listener.close()
        logger.info("spawned worker for shard %d of %r (pid %d, generation %s)",
                    shard, self.name, handle.pid,
                    self.manifest.record.generation)
        return handle

    def _launch(self, shard: int, port: int) -> subprocess.Popen:
        """Start the worker process that connects back to ``port``."""
        command = [
            sys.executable, "-m", "repro.serve.worker",
            "--store", str(self.directory),
            "--model", self.name,
            "--shard", str(shard),
            "--connect-port", str(port),
            "--kernel", self.kernel_key,
        ]
        environment = dict(os.environ)
        environment[TOKEN_ENV] = self._token
        environment[MANIFEST_ENV] = json.dumps(self.manifest.to_payload())
        if self.faults is not None:  # chaos runs; inherits the env otherwise
            environment[FAULTS_ENV] = self.faults
        # The worker must import the same `repro` this process runs,
        # whether it came from PYTHONPATH, an install, or a bare checkout.
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = environment.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            environment["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else ""))
        return subprocess.Popen(command, env=environment,
                                stdin=subprocess.DEVNULL)

    def _accept(self, shard: int, process: subprocess.Popen,
                listener: socket.socket) -> WorkerHandle:
        """Accept the spawned worker's connect-back and validate its hello."""
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError(
                    f"worker for shard {shard} of {self.name!r} did not "
                    f"connect back within {SPAWN_TIMEOUT:.0f}s"
                )
            if process.poll() is not None:
                cause = ""
                if process.returncode == EXIT_SHARD_UNLOADABLE:
                    cause = (" (pinned shard files missing, corrupt or of "
                             "another dtype)")
                raise WorkerError(
                    f"worker for shard {shard} of {self.name!r} exited with "
                    f"status {process.returncode} before connecting" + cause
                )
            listener.settimeout(min(remaining, 0.2))
            try:
                connection, _ = listener.accept()
            except socket.timeout:
                continue
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Bound the hello read too: a peer that connects and then goes
            # silent (slow-accept fault, connect-scan) must not hold the
            # spawn past the spawn deadline.
            connection.settimeout(max(deadline - time.monotonic(), 0.1))
            stream = connection.makefile("rwb")
            try:
                frame = read_frame(stream)
            except socket.timeout:
                connection.close()
                continue  # silent peer; the outer loop re-checks the deadline
            except ProtocolError as error:
                connection.close()
                raise WorkerError(
                    f"worker connect-back sent a malformed hello: {error}"
                ) from error
            if frame is None:
                connection.close()
                continue  # a connect-scan closed without a hello; keep waiting
            hello, _ = frame
            if not hmac.compare_digest(str(hello.get("token", "")),
                                       self._token):
                connection.close()
                raise WorkerError("worker connect-back failed authentication")
            if hello.get("op") != "hello" or hello.get("shard") != shard:
                connection.close()
                raise WorkerError(
                    f"worker connect-back announced shard "
                    f"{hello.get('shard')!r}, expected {shard}"
                )
            connection.settimeout(None)  # _exchange sets per-call timeouts
            return WorkerHandle(shard, process, connection, stream,
                                self.manifest.record.generation)

    def _monitor_loop(self) -> None:
        """Respawn workers that exited unexpectedly (crash, OOM kill).

        The monitor is also what walks an *idle* shard through its breaker
        lifecycle: it keeps observing the corpse, its restart attempts are
        refused while the breaker is open, and after the cooldown one of
        its attempts becomes the half-open probe — so a crash-looped shard
        recovers even when no request ever touches it again.
        """
        while not self._closed:
            time.sleep(self.monitor_interval)
            for shard in range(self.n_shards):
                handle = self._handles[shard]
                if self._closed or handle is None or handle.alive():
                    continue
                try:
                    self._restart(shard, handle)
                except ShardUnavailableError:
                    pass  # breaker open: the cooldown is doing its job
                except Exception as error:  # keep monitoring; calls will
                    if not self._closed:    # surface the failure loudly
                        logger.error("respawn of shard %d of %r failed: %s",
                                     shard, self.name, error)

    def _restart(self, shard: int, failed: WorkerHandle,
                 reason: str = "worker process died",
                 deadline: Optional[Deadline] = None) -> WorkerHandle:
        """Replace one dead worker (no-op if another thread already did).

        Every racing caller (request threads, the monitor) joins the
        shard's one in-flight respawn, which runs on its own thread, so
        exactly one of them spawns the replacement and the rest adopt it.
        A caller with a ``deadline`` waits only its remaining budget — a
        spawn lasts as long as the worker's imports — and the respawn it
        joined still completes for the callers after it.
        """
        with self._respawn_lock:
            if self._closed:
                raise WorkerError("supervisor is closed")
            respawn = self._respawns[shard]
            if respawn is None or respawn.done():
                respawn = self._respawns[shard] = Future()
                threading.Thread(
                    target=self._run_respawn,
                    args=(respawn, shard, failed, reason),
                    name=f"repro-worker-respawn-{shard}", daemon=True,
                ).start()
        timeout = None if deadline is None else max(deadline.remaining(), 0.0)
        try:
            return respawn.result(timeout=timeout)
        except FutureTimeoutError:
            raise DeadlineExceededError(
                f"deadline expired waiting to restart shard {shard} "
                f"of {self.name!r}") from None

    def _run_respawn(self, respawn: Future, shard: int,
                     failed: WorkerHandle, reason: str) -> None:
        try:
            respawn.set_result(self._replace(shard, failed, reason))
        except BaseException as error:
            respawn.set_exception(error)

    def _replace(self, shard: int, failed: WorkerHandle,
                 reason: str) -> WorkerHandle:
        """The body of one respawn (never two at once per shard).

        The death is charged to the shard's breaker once, and an open
        breaker refuses the respawn with :class:`ShardUnavailableError` —
        after the cooldown, the respawn that finds the breaker half-open
        runs the probe (spawn + ping) that decides between closing and
        re-opening.
        """
        current = self._handles[shard]
        if current is not failed:
            if current is None:
                raise WorkerError(f"shard {shard} has no worker")
            return current
        # Short grace: a worker being *replaced* has already failed its
        # caller.  The full courtesy wait belongs to clean shutdown —
        # here it would make recovery from a stalled worker take as
        # long as the stall itself.
        failed.reap(timeout=0.2)
        if self._closed:
            raise WorkerError("supervisor is closed")
        breaker = self._breakers[shard]
        if not failed.failure_recorded:
            failed.failure_recorded = True
            self._last_failure[shard] = reason
            breaker.record_failure(reason)
            if breaker.state != BREAKER_CLOSED:
                logger.warning(
                    "circuit breaker for shard %d of %r opened: %s",
                    shard, self.name, reason)
        if not breaker.allow():
            raise ShardUnavailableError(
                shard,
                f"shard {shard} of {self.name!r} is crash-looping; "
                f"circuit breaker open ({reason})",
                retry_after=breaker.retry_after(),
            )
        probing = breaker.state == BREAKER_HALF_OPEN
        try:
            handle = self._spawn(shard)
            try:
                # Trust no respawn until it answers: a worker that
                # connects and then wedges (or dies) would otherwise
                # close a half-open breaker it never earned.
                self._probe(handle)
            except Exception:
                handle.reap()
                raise
        except Exception as error:
            breaker.record_failure(f"respawn failed: {error}")
            if isinstance(error, WorkerError):
                raise
            raise WorkerError(
                f"respawn of shard {shard} of {self.name!r} failed: "
                f"{error}") from error
        if probing:
            logger.warning(
                "circuit breaker for shard %d of %r closed after "
                "half-open probe", shard, self.name)
            breaker.record_success()
        self._handles[shard] = handle
        self._restarts[shard] += 1
        timestamps = self._restarted_at[shard]
        timestamps.append(time.time())
        del timestamps[:-10]  # keep the last 10 for /healthz
        logger.info("restarted worker for shard %d of %r "
                    "(restart #%d: %s)",
                    shard, self.name, self._restarts[shard], reason)
        return handle

    def _probe(self, handle: WorkerHandle) -> None:
        """One ping round-trip a fresh spawn must pass before being trusted."""
        reply, _ = self._exchange(handle, {"op": "ping"}, ())
        if reply.get("pid") != handle.pid:  # paranoia: wrong process answered
            raise WorkerError(
                f"probe of shard {handle.shard} answered from pid "
                f"{reply.get('pid')!r}, expected {handle.pid}")

    def call(self, shard: int, header: Dict[str, object],
             arrays: Sequence[np.ndarray] = (),
             deadline: Optional[Deadline] = None) -> Tuple[Dict[str, object], List[np.ndarray]]:
        """One request/response exchange with a shard worker.

        Transport failures (dead process, stalled socket, bad frame) are
        retried under the supervisor's :class:`RetryPolicy` — restart the
        worker, back off with jitter, try again — within the caller's
        ``deadline`` (explicit argument, else the ambient
        :func:`~repro.serve.resilience.current_deadline`).  Retries
        exhausted, or a breaker already open, raise
        :class:`ShardUnavailableError`; a deadline expiry raises
        :class:`DeadlineExceededError`.  An error the worker itself
        reports (``ok: false``) raises :class:`WorkerRequestError` without
        any restart: the worker is healthy, the request was bad.
        """
        if deadline is None:
            deadline = current_deadline()
        last_error: Optional[BaseException] = None
        reason = "worker process died"
        for attempt in range(self.retry.attempts):
            if attempt:
                delay = self.retry.delay(attempt - 1)
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise DeadlineExceededError(
                            f"deadline expired retrying shard {shard} of "
                            f"{self.name!r}: {last_error}") from last_error
                    delay = min(delay, remaining)
                if delay > 0:
                    time.sleep(delay)
            handle = self._handles[shard]
            if handle is None:
                raise WorkerError(f"shard {shard} has no worker")
            if handle.dead or not handle.alive():
                try:
                    handle = self._restart(shard, handle, reason=reason,
                                           deadline=deadline)
                except (ShardUnavailableError, DeadlineExceededError):
                    raise
                except WorkerError as error:
                    # A failed respawn is retryable: the next attempt
                    # restarts again (and the breaker counts each failure).
                    if self._closed:
                        raise
                    last_error = error
                    reason = f"respawn failed: {error}"
                    continue
            try:
                return self._exchange(handle, header, arrays,
                                      deadline=deadline)
            except (WorkerRequestError, DeadlineExceededError):
                raise
            except (ProtocolError, OSError, ValueError) as error:
                handle.mark_dead()
                last_error = error
                reason = f"{type(error).__name__}: {error}"
                if self._closed:
                    raise WorkerError(
                        f"shard {shard} worker failed during shutdown: "
                        f"{error}") from error
        breaker = self._breakers[shard]
        raise ShardUnavailableError(
            shard,
            f"shard {shard} of {self.name!r} failed "
            f"{self.retry.attempts} attempts; last error: {last_error}",
            retry_after=max(breaker.retry_after(), self.retry.delay(0)),
        ) from last_error

    def _exchange(self, handle: WorkerHandle, header: Dict[str, object],
                  arrays: Sequence[np.ndarray],
                  deadline: Optional[Deadline] = None) -> Tuple[Dict[str, object], List[np.ndarray]]:
        """One locked write/read on a worker's socket, bounded in time.

        The socket timeout is ``call_timeout`` tightened by the deadline's
        remaining budget; waiting for the handle's lock (another request
        mid-exchange on the same worker) spends the same budget.  A timed
        out exchange marks the handle dead — after a partial write or read
        the frame boundary is unknowable, so the connection is unusable.
        """
        if deadline is None:
            acquired = handle.lock.acquire()
        else:
            remaining = deadline.remaining()
            acquired = remaining > 0 and handle.lock.acquire(timeout=remaining)
            if not acquired:
                raise DeadlineExceededError(
                    f"deadline expired waiting for shard {handle.shard}'s "
                    "request lock")
        try:
            if handle.dead:
                raise OSError("worker connection already closed")
            timeout = self.call_timeout
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"deadline expired before calling shard {handle.shard}")
                timeout = min(timeout, remaining)
            handle.connection.settimeout(timeout)
            try:
                write_frame(handle.stream, header, arrays)
                frame = read_frame(handle.stream)
            except socket.timeout as error:
                handle.mark_dead()
                if deadline is not None and deadline.expired():
                    raise DeadlineExceededError(
                        f"deadline expired mid-exchange with shard "
                        f"{handle.shard}") from error
                raise OSError(
                    f"shard {handle.shard} worker stalled beyond the "
                    f"{timeout:.3g}s call timeout") from error
        finally:
            handle.lock.release()
        if frame is None:
            raise OSError("worker closed the connection mid-request")
        reply, out_arrays = frame
        if not reply.get("ok"):
            raise WorkerRequestError(
                f"shard {handle.shard} worker error: "
                f"{reply.get('error', 'unspecified')}"
            )
        return reply, out_arrays

    def breaker_state(self, shard: int) -> str:
        """The circuit-breaker state of one shard (closed/open/half-open)."""
        return self._breakers[shard].state

    def liveness(self) -> List[Dict[str, object]]:
        """Per-shard worker + resilience status for health endpoints (no
        round-trips): process liveness, restart count and recent restart
        timestamps, the last failure reason, and the breaker snapshot."""
        report = []
        for shard in range(self.n_shards):
            handle = self._handles[shard]
            report.append({
                "shard": shard,
                "alive": bool(handle is not None and handle.alive()),
                "pid": None if handle is None else handle.pid,
                "restarts": self._restarts[shard],
                "restarted_at": list(self._restarted_at[shard]),
                "last_failure": self._last_failure[shard],
                "breaker": self._breakers[shard].snapshot(),
            })
        return report

    def close(self) -> None:
        """Shut every worker down and reap it (idempotent, orphan-free).

        Closing a worker's socket is its shutdown signal; workers that
        ignore it are terminated, then killed.  After this returns, no
        worker process of this supervisor is running.
        """
        with self._respawn_lock:
            self._closed = True
            respawns = [respawn for respawn in self._respawns if respawn]
        # An in-flight respawn adopts its worker into the fleet before its
        # Future completes, so waiting first leaves that worker to the
        # reaping below instead of orphaning it.
        wait_futures(respawns)
        handles, self._handles = list(self._handles), [None] * self.n_shards
        for handle in handles:
            if handle is not None:
                handle.reap()
        if (self._monitor is not None
                and self._monitor is not threading.current_thread()):
            self._monitor.join(timeout=2.0)

    def __del__(self):  # last-resort cleanup; close() is the real API
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


# --------------------------------------------------------------------- #
# Worker-backed router (runs in the serving process)
# --------------------------------------------------------------------- #
class WorkerShardedQueryEngine(ShardedQueryEngine):
    """The scatter-gather router over one worker *process* per shard.

    Every query method, and so every answer, is
    :class:`~repro.serve.shard.ShardedQueryEngine`'s; this class only builds
    the shards, each a call through :meth:`ShardWorkerSupervisor.call`.
    Shard work (neighbour and stored-user queries; item-space queries never
    leave the router) then truly parallelizes across cores instead of
    time-slicing one GIL, and a crashed shard restarts without taking the
    front end down.  ``degraded`` selects what an unavailable shard does
    to a neighbour query (see the router); the other keywords tune the
    :class:`ShardWorkerSupervisor`.

    Construction spawns the workers pinned to the manifest's current
    generation; :meth:`close` reaps them.
    """

    def __init__(self, store: Union[ShardedModelStore, str, Path], name: str,
                 kernel: KernelLike = None,
                 monitor_interval: float = 0.5,
                 call_timeout: float = CALL_TIMEOUT,
                 retry: Optional[RetryPolicy] = None,
                 breaker_threshold: int = 5, breaker_window: float = 30.0,
                 breaker_cooldown: float = 5.0,
                 degraded: str = "fail",
                 faults: Optional[str] = None,
                 dtype: Optional[str] = None):
        if not isinstance(store, ShardedModelStore):
            store = ShardedModelStore(store)
        manifest = store.manifest(name)
        # Shard 0 provides the replicated item factors for the shared
        # projector; its U slice is the price of not duplicating the
        # pseudo-inverse SVDs per query.
        shard0, manifest = store.load_shard(name, 0, manifest=manifest)
        n_shards = manifest.record.shards

        def worker_shard(shard: int):
            return lambda header, arrays, deadline: self.supervisor.call(
                shard, header, arrays, deadline=deadline)[1]

        # Front-end threads only wait on sockets for shard calls — the
        # compute runs in the worker processes — so the reference-space
        # fan-out is one thread per worker, not capped by this process's
        # CPU count.
        self._route(FoldInProjector(shard0, kernel=kernel), manifest.row_ranges,
                    [worker_shard(shard) for shard in range(n_shards)],
                    scatter_width=n_shards, degraded=degraded)
        self.generation = manifest.record.generation
        self.dtype = manifest.record.dtype
        self.supervisor = ShardWorkerSupervisor(
            store.directory, name, manifest, kernel=kernel,
            monitor_interval=monitor_interval, call_timeout=call_timeout,
            retry=retry, breaker_threshold=breaker_threshold,
            breaker_window=breaker_window,
            breaker_cooldown=breaker_cooldown, faults=faults,
            dtype=dtype)
        try:
            self.supervisor.start()
        except Exception:
            self.supervisor.close()
            raise

    def liveness(self) -> List[Dict[str, object]]:
        """Per-shard worker status (see
        :meth:`ShardWorkerSupervisor.liveness`)."""
        return self.supervisor.liveness()

    def close(self, wait: bool = True) -> None:
        """Reap every worker process and the scatter pool (idempotent).

        Item-space queries keep answering afterwards, serially, as on a
        closed in-process router — the projector lives in this process.
        Shard-backed queries (neighbours, stored users) raise
        :class:`WorkerError`: their compute lived in the reaped processes.
        """
        self.supervisor.close()
        super().close(wait=wait)


if __name__ == "__main__":
    sys.exit(worker_main())
