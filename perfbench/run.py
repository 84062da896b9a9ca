"""The repository benchmark: publish a model, then serve it over HTTP.

Run from the repository root::

    python3 perfbench/run.py --workload serve-rows --seed 1 --seconds 25 --trace 0

Each run builds its own inputs from ``--seed``: ``repro generate`` writes a
webscale ratings matrix, ``repro decompose`` publishes it as a 4-shard
ISVD4 model (timed: ``decompose_s``), and the publish is checked against an
in-process fit.  Query rows come from a second ratings matrix of the same
seed, and every response is checked byte for byte against an unsharded
in-process ``QueryEngine``.  Then ``repro serve`` is started through the CLI
(``setup_s``: spawn to the first 200, median of several starts) and driven
over keep-alive sockets in rounds: each round is an open loop at a fixed rate
per route, then a closed loop per route on ``nproc`` connections.

With ``--trace 1`` the run instead reports per-layer numbers: the CLI runs
inside ``perfbench/tracer.py`` and its spans are folded into the metrics of
``perfbench/layers.py``.  The last line of standard output is the result
object; ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import socket
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import httpload  # noqa: E402
import procs  # noqa: E402

HOST = "127.0.0.1"
ROUTES = ("recommend", "neighbors")
#: Seconds a server may take from spawn to its first 200.
READY_TIMEOUT = 120.0
#: Open-loop requests per route in a measurement.  The traced run reports
#: p95s, and the nearest-rank p95 of 200 samples has 10 beyond it; an
#: untraced server is only asked for p50s, which leaves more of
#: ``--seconds`` to the closed loops.  The closed loops get the rest of
#: ``--seconds``, but at least ``MIN_CLOSED_SECONDS`` per route and round.
OPEN_LOOP_SAMPLES = 200
UNTRACED_OPEN_LOOP_SAMPLES = 100
MIN_CLOSED_SECONDS = 0.5
#: The measurement runs in rounds, and the closed-loop rates are medians
#: over them.  The host's speed drifts over seconds, so many short rounds
#: spread over the run give steadier medians than a few long ones.
ROUNDS = 10
SETUP_REPEATS = 3
WARMUP_REQUESTS = 8


class BenchmarkError(RuntimeError):
    """A failure that leaves nothing to measure (no result is printed)."""


def query_seed(seed: int) -> int:
    """Seed of the second ratings matrix the query rows come from."""
    return (seed * 7919 + 104729) % (2 ** 31)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


class Run:
    """One benchmark invocation: its directories, processes and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 config: dict, preset: Optional[str] = None):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.model = dict(config["model"])
        if preset is not None:
            self.model["preset"] = preset
        self.spec = config["workloads"][workload]
        stamp = f"{workload}-s{seed}-t{int(traced)}-{os.getpid()}"
        self.directory = ROOT / ".perfbench" / stamp
        self.data = self.directory / "data"
        self.logs = self.directory / "logs"
        self.data.mkdir(parents=True, exist_ok=True)
        self.store = self.data / "store"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.request_ids = itertools.count(1)
        self.pools: Dict[str, object] = {}
        self.details: Dict[str, object] = {"phase_s": {}}
        self._phase_start = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def attempt(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def mark(self, phase: str) -> None:
        """Record the wall time spent since the previous mark."""
        now = time.perf_counter()
        self.details["phase_s"][phase] = round(now - self._phase_start, 3)
        self._phase_start = now

    def tally(self, samples: Sequence[httpload.Sample], what: str) -> None:
        for sample in samples:
            self.attempt(sample.ok, f"{what}: request {sample.request_id} failed")

    def cli(self, spans: Optional[str] = None) -> List[str]:
        if spans is None:
            return [sys.executable, "-m", "repro"]
        return [sys.executable, str(HERE / "tracer.py"), str(self.data / spans)]

    def log_tail(self, log: str) -> str:
        try:
            return (self.logs / log).read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    # ------------------------------------------------------------------ #
    # Publish: generate -> decompose -> verify
    # ------------------------------------------------------------------ #
    def generate(self, npz: Path, spans: Optional[str] = None) -> None:
        code, _, _ = procs.run_timed(
            self.cli(spans) + ["generate", str(npz), "--kind", "ratings",
                               "--preset", self.model["preset"],
                               "--seed", str(self.model["seed"])],
            self.logs / "generate.log", ROOT)
        if not self.attempt(code == 0, f"repro generate exited {code}"):
            raise BenchmarkError("repro generate failed:\n"
                                 + self.log_tail("generate.log"))

    def model_input(self):
        """The model's input matrix and the in-process reference fit of it.

        Both depend only on the configured model and on the source tree, so
        they are made once per model and source digest (``repro generate``
        plus one in-process fit) and reused by every run of that code; each
        run still publishes its own store from them.
        """
        import oracle
        from repro import io as repro_io

        cache = ROOT / ".perfbench" / "cache" / (
            f"{self.model['preset']}-seed{self.model['seed']}-"
            f"{self.model['method']}-rank{self.model['rank']}-"
            f"src{procs.source_digest(ROOT)}")
        if not cache.is_dir():
            partial = cache.with_name(f"{cache.name}.partial-{os.getpid()}")
            partial.mkdir(parents=True)
            self.generate(partial / "ratings.npz")
            repro_io.save_decomposition_npz(
                oracle.reference_fit(str(partial / "ratings.npz"),
                                     self.model["method"], self.model["rank"]),
                partial / "reference-fit.npz")
            try:
                partial.rename(cache)
            except OSError:  # another run finished the same cache first
                shutil.rmtree(partial, ignore_errors=True)
        return (cache / "ratings.npz",
                repro_io.load_decomposition_npz(cache / "reference-fit.npz"))

    def publish(self) -> float:
        """Publish this run's store from the model input; returns
        ``decompose_s`` after checking the publish against the reference."""
        import oracle

        npz, reference = self.model_input()
        self.mark("model input")
        if self.traced:  # generation is timed only inside the traced CLI
            self.generate(self.data / "ratings.npz", "generate.spans.json")
            (self.data / "ratings.npz").unlink()
        code, decompose_s, decompose_rss = procs.run_timed(
            self.cli("decompose.spans.json" if self.traced else None)
            + ["decompose", "--npz", str(npz), "--sparse",
               "--method", self.model["method"], "--rank", str(self.model["rank"]),
               "--save-model", self.model["name"],
               "--shards", str(self.model["shards"]), "--store", str(self.store)],
            self.logs / "decompose.log", ROOT)
        if not self.attempt(code == 0, f"repro decompose exited {code}"):
            raise BenchmarkError("repro decompose failed:\n"
                                 + self.log_tail("decompose.log"))
        self.details["decompose_peak_rss_mb"] = decompose_rss
        stray = procs.stray_temporaries(self.store)
        self.attempt(not stray, f"decompose left temporaries {stray}")
        published, problem = oracle.check_publish(
            str(self.store), self.model["name"], reference)
        if not self.attempt(problem is None, f"publish check: {problem}"):
            raise BenchmarkError(f"publish check: {problem}")
        self.mark("publish")
        self.build_pools(published)
        self.mark("oracle")
        return decompose_s

    def build_pools(self, published) -> None:
        """Query bodies per route and their reference responses, from an
        unsharded in-process engine over the published model."""
        import oracle
        from repro.serve.query import QueryEngine

        engine = QueryEngine(published)
        per_body = self.spec["rows_per_body"]
        count = self.spec["bodies_per_route"] * per_body
        lower, upper = oracle.query_rows(self.model["preset"], 2 * count,
                                         engine.n_items, query_seed(self.seed))
        for slot, route in enumerate(ROUTES):
            rows = slice(slot * count, (slot + 1) * count)
            self.pools[route] = oracle.build_pool(
                engine, route, self.model["name"], self.model["k"],
                lower[rows], upper[rows], per_body)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def client(self, route: str, port: int, base: int) -> httpload.Client:
        """A client of one route whose ``i``-th request carries id ``base + i``."""
        pool = self.pools[route]

        def send(connection: httpload.Connection, index: int, request_id: int):
            status, payload, done = connection.request(
                "POST", pool.path, pool.body(index, request_id))
            ok = pool.check(index, status, payload)
            if not ok and len(self.failures) < 20:
                self.failures.append(
                    f"{route} body {index % len(pool)}: HTTP {status} "
                    f"{payload[:120]!r}")
            return ok, done, pool.rows_per_body if ok else 0

        return httpload.Client(HOST, port, send, base)

    def start_server(self, label: str, spans: Optional[str] = None):
        """Spawn ``repro serve``; returns ``(process, port, seconds to the
        first 200 on the model)``."""
        port = free_port()
        command = self.cli(spans) + [
            "serve", "--store", str(self.store), "--port", str(port),
            *self.spec["serve_args"]]
        start = time.perf_counter()
        process = procs.spawn(command, self.logs / f"{label}.log", ROOT)
        pool = self.pools["recommend"]
        while True:
            if process.poll() is not None:
                raise BenchmarkError(f"server exited with {process.returncode}:\n"
                                     + self.log_tail(f"{label}.log"))
            if time.perf_counter() - start > READY_TIMEOUT:
                procs.stop(process)
                raise BenchmarkError("server did not answer in time:\n"
                                     + self.log_tail(f"{label}.log"))
            try:
                connection = httpload.Connection(HOST, port)
            except OSError:
                time.sleep(0.01)
                continue
            try:
                status, payload, done = connection.request(
                    "POST", pool.path, pool.body(0, 0))
            except OSError:
                time.sleep(0.01)
                continue
            finally:
                connection.close()
            if status == 200:
                self.attempt(pool.check(0, status, payload),
                             f"first response of {label} differs from the oracle")
                return process, port, done - start
            time.sleep(0.01)

    def stop_server(self, process, label: str) -> None:
        # Let the server finish closing the client's connections first, so
        # the interrupt rarely lands in a connection's finalizer.
        time.sleep(0.3)
        clean, interrupts = procs.stop(process)
        if interrupts > 1:
            self.details.setdefault("repeated_interrupts", []).append(label)
        self.attempt(clean, f"{label} did not stop on SIGINT")
        leftovers = procs.reap_leftovers(str(self.store))
        self.attempt(not leftovers, f"{label} left processes {leftovers}")
        stray = procs.stray_temporaries(self.store)
        self.attempt(not stray, f"{label} left temporaries {stray}")

    def next_base(self) -> int:
        return next(self.request_ids) * 1_000_000

    def open_clients(self, port: int) -> Dict[str, httpload.Client]:
        """One open-loop connection per route, warmed up.

        Each connection first sends back-to-back requests, as a client's
        connection is by its earlier traffic; this also settles the
        client's TCP acknowledgement mode before timing starts (see
        README.md).  Open-loop requests follow the warm-up's indices.
        """
        clients = {route: self.client(route, port, self.next_base())
                   for route in ROUTES}
        for route, client in clients.items():
            for index in range(WARMUP_REQUESTS):
                ok, _, _ = client.call(index)
                self.attempt(ok, f"warm-up {route} request {index} failed")
        return clients

    def open_loop(self, clients: Dict[str, httpload.Client], count: int,
                  first: int) -> Dict[str, List[httpload.Sample]]:
        """``count`` requests per route, all routes at once, at the fixed
        rate, using request indices from ``first`` on.

        The routes' schedules are staggered by an equal share of the
        period, so their requests do not fall due at the same instants.
        """
        rate = self.spec["open_loop_rate_per_s"]
        start = time.perf_counter() + 0.05
        results = httpload.run_threads([
            (lambda client=client, slot=slot: httpload.open_loop(
                client, count, rate, start + slot / (rate * len(ROUTES)), first))
            for slot, client in enumerate(clients.values())])
        samples = dict(zip(clients, results))
        for route, route_samples in samples.items():
            self.tally(route_samples, f"open-loop {route}")
        return samples

    def closed_loop(self, port: int, route: str, seconds: float
                    ) -> Tuple[List[httpload.Sample], float]:
        """``nproc`` connections sending back to back for ``seconds``.

        Returns the samples and the rows per second of correct answers.
        Each connection's rate is its rows over the time to its last
        answer, so the request in flight when the window closes is neither
        lost nor counted twice; the connections' rates add up.
        """
        clients = [self.client(route, port, self.next_base())
                   for _ in range(os.cpu_count() or 1)]
        for client in clients:
            client.connect()
        start = time.perf_counter()
        stop = start + seconds
        results = httpload.run_threads([
            (lambda client=client: httpload.closed_loop(client, stop))
            for client in clients])
        for client in clients:
            client.close()
        samples = [sample for result in results for sample in result]
        self.tally(samples, f"closed-loop {route}")
        rate = sum(sum(sample.rows for sample in result) / (result[-1].done - start)
                   for result in results if result)
        return samples, rate

    def health(self, port: int) -> dict:
        connection = httpload.Connection(HOST, port)
        try:
            status, payload, _ = connection.request("GET", "/healthz")
        finally:
            connection.close()
        self.attempt(status == 200, f"/healthz returned {status}")
        return json.loads(payload) if status == 200 else {}

    @staticmethod
    def worker_pids(health: dict) -> List[int]:
        return [worker["pid"]
                for entry in (health.get("serving") or {}).values()
                for worker in entry.get("workers") or []
                if worker.get("pid")]

    @staticmethod
    def round_figures(steal: float, opened: dict, closed: dict) -> Dict[str, float]:
        """One round's steal share, p50s and rates."""
        figures = {"steal_share": steal}
        for route in ROUTES:
            figures[f"{route}_p50_ms"] = httpload.percentile(
                [sample.latency * 1000.0 for sample in opened[route]], 0.5)
            figures[f"{route}_rows_per_s"] = closed[route][1]
        return figures

    def measure(self, port: int, samples: int) -> Dict[str, object]:
        """The open and closed loops, in rounds; the serving numbers.

        Each of the ``ROUNDS`` rounds is an open-loop slice of
        ``samples / ROUNDS`` requests per route, then a closed loop per
        route; the closed loops share the rest of ``--seconds``.
        The host's speed drifts over seconds, and on a shared VM the
        hypervisor steals CPU time in bursts, which slow every process of
        the run.  So each rate is the median of the rounds' rates, which a
        burst spanning fewer than half the rounds cannot move far; the
        p50s and p95s pool the open-loop samples of every round.
        """
        rate = self.spec["open_loop_rate_per_s"]
        per_round = math.ceil(samples / ROUNDS)
        closed_seconds = max(MIN_CLOSED_SECONDS, (
            self.seconds - ROUNDS * per_round / rate) / (ROUNDS * len(ROUTES)))
        clients = self.open_clients(port)
        rounds = []
        window_start = time.perf_counter()
        try:
            for number in range(ROUNDS):
                ticks = procs.cpu_ticks()
                opened = self.open_loop(clients, per_round,
                                        WARMUP_REQUESTS + number * per_round)
                closed = {route: self.closed_loop(port, route, closed_seconds)
                          for route in ROUTES}
                rounds.append((procs.steal_share(ticks, procs.cpu_ticks()),
                               opened, closed))
        finally:
            for client in clients.values():
                client.close()
        window_end = time.perf_counter()
        figures = [self.round_figures(*entry) for entry in rounds]
        result: Dict[str, object] = {
            "open": {route: [sample for _, opened, _ in rounds
                             for sample in opened[route]] for route in ROUTES},
            "closed": {route: [sample for _, _, closed in rounds
                               for sample in closed[route][0]] for route in ROUTES},
            "window": (window_start, window_end),
            "rounds": [{name: round(value, 4) for name, value in entry.items()}
                       for entry in figures],
        }
        for route in ROUTES:
            every = [sample.latency * 1000.0 for sample in result["open"][route]]
            result[f"{route}_p50_ms"] = httpload.percentile(every, 0.50)
            result[f"{route}_p95_ms"] = httpload.percentile(every, 0.95)
            result[f"{route}_samples"] = len(every)
            result[f"{route}_rows_per_s"] = median(
                [entry[f"{route}_rows_per_s"] for entry in figures])
        return result

    # ------------------------------------------------------------------ #
    # The two kinds of run
    # ------------------------------------------------------------------ #
    def end_to_end(self) -> Dict[str, float]:
        decompose_s = self.publish()
        setups = []
        for attempt in range(SETUP_REPEATS):
            process, port, ready = self.start_server(f"serve-{attempt}")
            setups.append(ready)
            if attempt < SETUP_REPEATS - 1:
                self.stop_server(process, f"serve-{attempt}")
        self.mark("setup")
        try:
            measured = self.measure(port, UNTRACED_OPEN_LOOP_SAMPLES)
            health = self.health(port)
            rss =procs.peak_rss_mb([process.pid] + self.worker_pids(health))
            self.mark("measure")
        finally:
            self.stop_server(process, f"serve-{SETUP_REPEATS - 1}")
        self.mark("teardown")
        self.details.update({f"{route}_samples": measured[f"{route}_samples"]
                             for route in ROUTES})
        self.details["rounds"] = measured["rounds"]
        self.details["setup_s_samples"] = setups
        metrics = {name: measured[name] for name in (
            "recommend_p50_ms", "neighbors_p50_ms",
            "recommend_rows_per_s", "neighbors_rows_per_s")}
        metrics.update(setup_s=median(setups), peak_rss_mb=rss,
                       decompose_s=decompose_s)
        return metrics

    def per_layer(self) -> Dict[str, float]:
        import layers

        self.publish()
        limit_ms = self.spec["latency_limit_ms"]

        # Untraced reference segment: overhead baseline, SLO, CPU, lateness.
        process, port, _ = self.start_server("serve-untraced")
        try:
            health = self.health(port)
            pids = [process.pid] + self.worker_pids(health)
            cpu_before = procs.cpu_seconds(pids)
            clients = self.open_clients(port)
            try:
                opened = self.open_loop(clients, UNTRACED_OPEN_LOOP_SAMPLES,
                                        WARMUP_REQUESTS)
            finally:
                for client in clients.values():
                    client.close()
            cpu_used = procs.cpu_seconds(pids) - cpu_before
        finally:
            self.stop_server(process, "serve-untraced")
        self.mark("untraced")
        samples = [sample for route in ROUTES for sample in opened[route]]
        untraced = {
            "recommend_p50_ms": httpload.percentile(
                [s.latency * 1000.0 for s in opened["recommend"]], 0.5),
            "slo_miss_frac": sum(s.latency * 1000.0 > limit_ms for s in samples)
            / len(samples),
            "late_p95_ms": httpload.percentile(
                [(s.sent - s.due) * 1000.0 for s in samples], 0.95),
            "cpu_ms_per_request": cpu_used * 1000.0
            / (len(samples) + len(ROUTES) * WARMUP_REQUESTS),
        }

        # Traced segment: the same phases as an end-to-end run.
        process, port, _ = self.start_server("serve-traced", "serve.spans.json")
        try:
            measured = self.measure(port, OPEN_LOOP_SAMPLES)
            health = self.health(port)
        finally:
            self.stop_server(process, "serve-traced")
        self.mark("traced")
        imports = {
            "cli.import_ms": procs.import_ms("repro.cli", ROOT),
            "worker.import_ms": procs.import_ms("repro.serve.worker", ROOT),
        }
        traces = {name: layers.load_trace(self.data / f"{name}.spans.json")
                  for name in ("serve", "decompose", "generate")}
        self.details["rounds"] = measured["rounds"]
        return layers.per_layer_metrics(
            **traces, measured=measured, health=health, untraced=untraced,
            imports=imports, failed_frac=self.failed / max(1, self.attempted))


def load_config() -> dict:
    with open(HERE / "workloads.json") as handle:
        return json.load(handle)


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", default=None,
                        help="ratings preset of the model (default: the "
                             "configured one; 'demo' for the harness self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), config,
              preset=args.preset)
    ticks = procs.cpu_ticks()
    try:
        metrics = run.per_layer() if run.traced else run.end_to_end()
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.data, ignore_errors=True)
    run.details["cpu_steal_share"] = procs.steal_share(ticks, procs.cpu_ticks())
    units = load_units(section="per_layer" if run.traced else "end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": procs.environment_record(ROOT),
        "details": run.details,
        "failures": run.failures,
    }
    (run.directory / "result.json").write_text(json.dumps(
        dict(record, metrics=metrics), indent=2, default=str))
    for failure in run.failures:
        print(f"perfbench: failure: {failure}", file=sys.stderr)
    print("# " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def load_units(section: str) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists in ``section``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


if __name__ == "__main__":
    sys.exit(main())
