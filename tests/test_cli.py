"""Tests for the command-line interface."""

import json
import threading

import numpy as np
import pytest

from repro import io as repro_io
from repro.cli import build_parser, main
from repro.interval.random import random_interval_matrix


@pytest.fixture
def matrix_csv(tmp_path):
    matrix = random_interval_matrix((10, 6), interval_intensity=0.5, rng=1)
    path = tmp_path / "matrix.csv"
    repro_io.save_interval_csv(matrix, path)
    return path, matrix


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_decompose_defaults(self):
        # Target defaults to None so each method's preferred target applies
        # (isvd4 -> "b") without breaking methods that only support "a" or "c".
        args = build_parser().parse_args(["decompose", "--csv", "x.csv"])
        assert args.method == "isvd4" and args.target is None

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose", "--csv", "x.csv", "--method", "isvd9"])


class TestDecomposeCommand:
    def test_from_csv(self, matrix_csv, capsys):
        path, _ = matrix_csv
        exit_code = main(["decompose", "--csv", str(path), "--rank", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "H-mean reconstruction accuracy" in captured
        assert "ISVD4" in captured

    def test_from_npz_with_output(self, tmp_path, capsys):
        matrix = random_interval_matrix((8, 5), interval_intensity=0.4, rng=2)
        npz_path = tmp_path / "matrix.npz"
        repro_io.save_interval_npz(matrix, npz_path)
        out_path = tmp_path / "factors.npz"
        exit_code = main(["decompose", "--npz", str(npz_path), "--rank", "2",
                          "--method", "isvd1", "--target", "a",
                          "--output", str(out_path)])
        assert exit_code == 0
        loaded = repro_io.load_decomposition_npz(out_path)
        assert loaded.method == "ISVD1" and loaded.rank == 2

    def test_from_endpoint_csvs(self, tmp_path, capsys):
        matrix = random_interval_matrix((6, 4), interval_intensity=0.4, rng=3)
        lower = tmp_path / "lower.csv"
        upper = tmp_path / "upper.csv"
        np.savetxt(lower, matrix.lower, delimiter=",")
        np.savetxt(upper, matrix.upper, delimiter=",")
        exit_code = main(["decompose", "--lower", str(lower), "--upper", str(upper)])
        assert exit_code == 0

    def test_missing_input_raises(self):
        with pytest.raises(SystemExit):
            main(["decompose"])

    def test_rank_clipped_to_matrix(self, matrix_csv, capsys):
        path, _ = matrix_csv
        exit_code = main(["decompose", "--csv", str(path), "--rank", "100"])
        assert exit_code == 0
        assert "rank: 6" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_uniform_csv(self, tmp_path, capsys):
        out = tmp_path / "generated.csv"
        exit_code = main(["generate", str(out), "--rows", "6", "--cols", "9", "--seed", "1"])
        assert exit_code == 0
        matrix, _ = repro_io.load_interval_csv(out)
        assert matrix.shape == (6, 9)

    def test_generate_anonymized_npz(self, tmp_path):
        out = tmp_path / "generated.npz"
        exit_code = main(["generate", str(out), "--kind", "anonymized",
                          "--rows", "5", "--cols", "7", "--seed", "2"])
        assert exit_code == 0
        assert repro_io.load_interval_npz(out).shape == (5, 7)

    def test_generate_then_decompose(self, tmp_path, capsys):
        out = tmp_path / "generated.csv"
        main(["generate", str(out), "--rows", "8", "--cols", "10", "--seed", "3"])
        exit_code = main(["decompose", "--csv", str(out), "--rank", "4"])
        assert exit_code == 0


class TestExperimentCommand:
    def test_unknown_experiment_raises(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_fig3_runs_and_exports_json(self, tmp_path, capsys, monkeypatch):
        # Shrink the default config so the CLI experiment stays fast in CI.
        from repro.datasets.synthetic import SyntheticConfig
        from repro.experiments import alignment

        small = alignment.AlignmentConfig(
            synthetic=SyntheticConfig(shape=(15, 30), rank=6), trials=1, seed=0
        )
        monkeypatch.setattr(alignment, "AlignmentConfig", lambda: small)
        json_path = tmp_path / "fig3.json"
        exit_code = main(["experiment", "fig3", "--json", str(json_path)])
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert "fig3" in payload and payload["fig3"]["rows"]


class TestListMethodsCommand:
    def test_lists_every_registered_key(self, capsys):
        from repro.core import registry

        exit_code = main(["list-methods"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for key in registry.available():
            assert key in captured
        assert "targets" in captured and "cost" in captured

    def test_lists_every_interval_kernel(self, capsys):
        from repro.interval.kernels import available_kernels

        main(["list-methods"])
        captured = capsys.readouterr().out
        for key in available_kernels():
            assert key in captured
        assert "sound" in captured


class TestIntervalKernelOption:
    def test_decompose_accepts_each_kernel(self, matrix_csv, capsys):
        path, _ = matrix_csv
        from repro.interval.kernels import available_kernels

        for kernel in available_kernels():
            exit_code = main(["decompose", "--csv", str(path), "--rank", "3",
                              "--interval-kernel", kernel])
            assert exit_code == 0
            assert "ISVD4" in capsys.readouterr().out

    def test_unknown_kernel_rejected_by_parser(self, matrix_csv):
        path, _ = matrix_csv
        with pytest.raises(SystemExit):
            main(["decompose", "--csv", str(path), "--interval-kernel", "typo"])

    def test_kernel_with_unaware_method_exits_cleanly(self, matrix_csv):
        path, _ = matrix_csv
        with pytest.raises(SystemExit, match="interval-kernel"):
            main(["decompose", "--csv", str(path), "--rank", "2",
                  "--method", "isvd1", "--interval-kernel", "rump"])

    def test_experiment_threads_kernel_into_engine(self, tmp_path, monkeypatch):
        from repro import cli as cli_module

        captured = {}

        class RecordingEngine:
            def __init__(self, jobs, cache_dir, kernel=None):
                captured["kernel"] = kernel

        monkeypatch.setattr(cli_module, "ExperimentEngine", RecordingEngine)
        registry = {"noop": lambda engine: {}}
        monkeypatch.setattr(cli_module, "_experiment_registry", lambda: registry)
        exit_code = main(["experiment", "noop", "--interval-kernel", "exact"])
        assert exit_code == 0
        assert captured["kernel"] == "exact"

    def test_serve_threads_kernel_into_app(self, matrix_csv, tmp_path, capsys, monkeypatch):
        from repro.serve.async_http import AsyncServingServer

        path, _ = matrix_csv
        store = tmp_path / "store"
        main(["decompose", "--csv", str(path), "--rank", "2",
              "--save-model", "m", "--store", str(store)])
        capsys.readouterr()
        holder = {}
        monkeypatch.setattr(AsyncServingServer, "run",
                            lambda self, ready=None: holder.update(server=self))
        assert main(["serve", "--store", str(store), "--port", "0",
                     "--interval-kernel", "rump"]) == 0
        holder["server"].stop()
        assert holder["server"].app.kernel.key == "rump"


class TestDecomposeRegistryMethods:
    def test_decompose_with_interval_pca(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        main(["generate", str(out), "--rows", "8", "--cols", "10", "--seed", "5"])
        exit_code = main(["decompose", "--csv", str(out), "--rank", "3",
                          "--method", "interval-pca"])
        assert exit_code == 0
        assert "IntervalPCA" in capsys.readouterr().out

    def test_decompose_with_nmf(self, tmp_path, capsys):
        # Uniform synthetic values are non-negative, so NMF applies directly.
        out = tmp_path / "m.csv"
        main(["generate", str(out), "--rows", "8", "--cols", "10", "--seed", "6"])
        exit_code = main(["decompose", "--csv", str(out), "--rank", "3",
                          "--method", "nmf", "--seed", "1"])
        assert exit_code == 0
        assert "NMF" in capsys.readouterr().out

    def test_unsupported_target_exits_cleanly(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        main(["generate", str(out), "--rows", "6", "--cols", "8", "--seed", "7"])
        with pytest.raises(SystemExit, match="targets"):
            main(["decompose", "--csv", str(out), "--rank", "2",
                  "--method", "isvd0", "--target", "b"])


class TestServingCommands:
    @pytest.fixture
    def published(self, matrix_csv, tmp_path):
        """A store with one model published through the CLI."""
        path, matrix = matrix_csv
        store = tmp_path / "store"
        exit_code = main(["decompose", "--csv", str(path), "--rank", "3",
                          "--method", "isvd4", "--save-model", "m1",
                          "--store", str(store)])
        assert exit_code == 0
        return store, matrix

    def test_save_model_publishes_to_store(self, published, capsys):
        from repro.serve.store import ModelStore

        store, matrix = published
        records = ModelStore(store).list()
        assert [r.name for r in records] == ["m1"]
        assert records[0].method == "ISVD4" and records[0].rank == 3
        assert records[0].fingerprint == repro_io.interval_fingerprint(matrix)
        # Without --shards the model is published as one row-range shard.
        assert (records[0].shards, records[0].generation) == (1, 1)

    def test_save_model_invalid_name_exits(self, matrix_csv, tmp_path):
        path, _ = matrix_csv
        with pytest.raises(SystemExit, match="invalid model name"):
            main(["decompose", "--csv", str(path), "--rank", "2",
                  "--save-model", "../escape", "--store", str(tmp_path / "s")])

    def test_models_lists_store(self, published, capsys):
        store, _ = published
        assert main(["models", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "ISVD4" in out
        row = next(line for line in out.splitlines() if "m1" in line)
        assert row.split()[5:7] == ["1", "1"]  # shards, gen

    def test_models_empty_store(self, tmp_path, capsys):
        assert main(["models", "--store", str(tmp_path / "empty")]) == 0
        assert "no models" in capsys.readouterr().out

    def test_serve_starts_and_announces_models(self, published, capsys, monkeypatch):
        # With --port 0 the announced address is the bound one, printed once
        # the listener accepts connections.
        import re
        import time
        import urllib.request

        from repro.serve.async_http import AsyncServingServer

        store, _ = published
        servers = []
        original_run = AsyncServingServer.run

        def recording_run(self, ready=None):
            servers.append(self)
            original_run(self, ready)

        monkeypatch.setattr(AsyncServingServer, "run", recording_run)
        exit_codes = []
        thread = threading.Thread(target=lambda: exit_codes.append(
            main(["serve", "--store", str(store), "--port", "0"])))
        thread.start()
        out = ""
        try:
            deadline = time.monotonic() + 30.0
            while "m1" not in out and time.monotonic() < deadline:
                time.sleep(0.01)
                out += capsys.readouterr().out
            assert "serving 1 model(s)" in out and "m1" in out
            match = re.search(r"on http://127\.0\.0\.1:(\d+)", out)
            assert match is not None
            port = int(match.group(1))
            assert port != 0
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=10) as response:
                assert response.status == 200
        finally:
            while not servers and thread.is_alive():
                time.sleep(0.01)
            if servers:
                servers[0].stop()
            thread.join(timeout=10)
        assert exit_codes == [0]

    def test_query_round_trip_against_live_server(self, published, matrix_csv, capsys):
        from repro.serve import QueryEngine, create_server
        from repro.serve.shard import ShardedModelStore

        store, matrix = published
        path, _ = matrix_csv
        server = create_server(str(store), port=0)
        host, port = server.start_background()
        try:
            exit_code = main(["query", "--url", f"http://{host}:{port}",
                              "--model", "m1", "--op", "recommend", "-k", "3",
                              "--csv", str(path)])
        finally:
            server.stop()
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        decomposition, _ = ShardedModelStore(store).load_merged("m1")
        expected = QueryEngine(decomposition).top_k_items(matrix, 3)
        assert payload["items"] == expected.indices.tolist()
        assert payload["scores"] == expected.scores.tolist()

    def test_query_unreachable_server_exits(self, matrix_csv):
        path, _ = matrix_csv
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["query", "--url", "http://127.0.0.1:9", "--model", "m1",
                  "--csv", str(path)])

    def test_query_unknown_model_reports_server_error(self, published, matrix_csv):
        from repro.serve import create_server

        store, _ = published
        path, _ = matrix_csv
        server = create_server(str(store), port=0)
        host, port = server.start_background()
        try:
            with pytest.raises(SystemExit, match="404"):
                main(["query", "--url", f"http://{host}:{port}",
                      "--model", "ghost", "--csv", str(path)])
        finally:
            server.stop()


@pytest.fixture
def small_fig6(monkeypatch):
    """Shrink the Figure 6 config so engine-backed CLI runs stay fast."""
    from repro.datasets.synthetic import SyntheticConfig
    from repro.experiments import fig6_overview

    small = fig6_overview.Figure6Config(
        synthetic=SyntheticConfig(shape=(12, 20), rank=5), trials=2,
        include_lp=False, targets=("b", "c"),
    )
    monkeypatch.setattr(fig6_overview, "Figure6Config", lambda: small)
    return small


class TestExperimentEngineOptions:
    def test_jobs_produce_byte_identical_json(self, tmp_path, capsys, monkeypatch):
        # fig7 is a pure-accuracy experiment: its whole payload (rows, orders,
        # records) is deterministic, so the exported files must match to the byte.
        from repro.experiments import fig7_anonymized

        small = fig7_anonymized.Figure7Config(
            shape=(12, 20), trials=2, rank_fractions=(1.0, 0.5),
            profiles=("medium",),
        )
        monkeypatch.setattr(fig7_anonymized, "Figure7Config", lambda: small)
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["experiment", "fig7", "--jobs", "1", "--json", str(serial_path)]) == 0
        assert main(["experiment", "fig7", "--jobs", "3", "--json", str(parallel_path)]) == 0
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_fig6_records_identical_across_jobs(self, tmp_path, small_fig6, capsys):
        # fig6 also reports wall-clock timing rows (measurements, inherently
        # run-dependent), so byte-identity is asserted on the canonical records.
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["experiment", "fig6", "--jobs", "1", "--json", str(serial_path)]) == 0
        assert main(["experiment", "fig6", "--jobs", "3", "--json", str(parallel_path)]) == 0
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert serial["accuracy"] == parallel["accuracy"]
        assert serial["timings"]["records"] == parallel["timings"]["records"]

    def test_format_json_emits_records(self, small_fig6, capsys):
        assert main(["experiment", "fig6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"accuracy", "timings"}
        records = payload["accuracy"]["records"]
        assert records and {"method", "trial", "value"} <= set(records[0])

    def test_format_csv_emits_rows(self, small_fig6, capsys):
        assert main(["experiment", "fig6", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment,accuracy")
        assert "ISVD4-b" in out

    def test_cache_dir_populates_and_reuses(self, tmp_path, small_fig6, capsys):
        cache_dir = tmp_path / "cache"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["experiment", "fig6", "--cache-dir", str(cache_dir),
                     "--json", str(first)]) == 0
        cached_files = list(cache_dir.glob("*.npz"))
        assert cached_files
        assert main(["experiment", "fig6", "--cache-dir", str(cache_dir),
                     "--json", str(second)]) == 0
        first_payload = json.loads(first.read_text())
        second_payload = json.loads(second.read_text())
        # Accuracy results are cache-independent; timing rows are wall-clock
        # measurements (the timings grid intentionally bypasses the cache).
        assert first_payload["accuracy"] == second_payload["accuracy"]
        assert sum(row[-1] for row in second_payload["timings"]["rows"]) > 0.0
