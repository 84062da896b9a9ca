"""Tests for the model store (persistence layer of the serving subsystem).

Scenario tests first, then a model-based test: random sequences of
publishes (1-4 shards, with and without an explicit generation),
republishes, deletes and listings over names that share a prefix with
each other's shard archives, run against a reference model of what the
directory must hold.
"""

import json
import os
import shutil
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import io as repro_io
from repro.core import registry
from repro.core.result import IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.serve.shard import ShardedModelStore
from repro.serve.store import ModelRecord, ModelStore, ModelStoreError

from strategies import common_settings


@pytest.fixture
def store(tmp_path):
    return ShardedModelStore(tmp_path / "models")


@pytest.fixture
def fitted(small_interval_matrix):
    decomposition = registry.get("isvd4").fit(small_interval_matrix, 4, target="b")
    return small_interval_matrix, decomposition


class TestSaveLoad:
    def test_round_trip_preserves_factors_and_metadata(self, store, fitted):
        matrix, decomposition = fitted
        record = store.save_sharded("movies", decomposition, 1, matrix=matrix)
        loaded, loaded_record = store.load_merged("movies")

        assert loaded_record == record
        assert record.method == "ISVD4"
        assert record.target == "b"
        assert record.rank == 4
        assert record.shape == matrix.shape
        assert record.fingerprint == repro_io.interval_fingerprint(matrix)
        assert record.created_at > 0
        np.testing.assert_allclose(loaded.u_scalar(), decomposition.u_scalar())
        np.testing.assert_allclose(loaded.v_scalar(), decomposition.v_scalar())
        np.testing.assert_allclose(loaded.sigma_scalar(), decomposition.sigma_scalar())

    def test_save_without_matrix_has_no_fingerprint(self, store, fitted):
        _, decomposition = fitted
        record = store.save_sharded("anon", decomposition, 1)
        assert record.fingerprint is None
        assert store.record("anon").fingerprint is None

    def test_explicit_fingerprint_wins(self, store, fitted):
        _, decomposition = fitted
        record = store.save_sharded("pinned", decomposition, 1, fingerprint="abc123")
        assert record.fingerprint == "abc123"

    def test_save_replaces_existing_model(self, store, fitted):
        matrix, decomposition = fitted
        store.save_sharded("m", decomposition, 1, matrix=matrix)
        other = registry.get("isvd0").fit(matrix, 3, target="c")
        store.save_sharded("m", other, 1, matrix=matrix)
        loaded, record = store.load_merged("m")
        assert record.method == "ISVD0" and record.rank == 3
        assert loaded.rank == 3

    def test_load_unknown_model_raises_with_available_names(self, store, fitted):
        matrix, decomposition = fitted
        store.save_sharded("present", decomposition, 1)
        with pytest.raises(ModelStoreError, match="present"):
            store.load_merged("absent")

    def test_record_round_trips_through_dict(self, store, fitted):
        _, decomposition = fitted
        record = store.save_sharded("m", decomposition, 1)
        assert ModelRecord.from_dict(record.to_dict()) == record
        # The dict form is JSON-serializable as-is (the HTTP API emits it).
        assert json.loads(json.dumps(record.to_dict())) == record.to_dict()


class TestListingAndDeletion:
    def test_list_is_sorted_and_complete(self, store, fitted):
        matrix, decomposition = fitted
        for name in ("zeta", "alpha", "mid"):
            store.save_sharded(name, decomposition, 1, matrix=matrix)
        assert [r.name for r in store.list()] == ["alpha", "mid", "zeta"]
        assert len(store) == 3

    def test_list_skips_incomplete_models(self, store, fitted):
        matrix, decomposition = fitted
        store.save_sharded("whole", decomposition, 1)
        # A metadata file without factors (e.g. a crashed publisher) is ignored.
        (store.directory / "broken.json").write_text(
            json.dumps(store.record("whole").to_dict()))
        assert [r.name for r in store.list()] == ["whole"]
        assert store.exists("whole") and not store.exists("broken")

    def test_delete_removes_both_files(self, store, fitted):
        _, decomposition = fitted
        store.save_sharded("m", decomposition, 1)
        store.delete("m")
        assert not store.exists("m")
        assert list(store.directory.iterdir()) == []

    def test_delete_unknown_raises(self, store):
        with pytest.raises(ModelStoreError):
            store.delete("ghost")

    def test_read_paths_do_not_create_the_directory(self, tmp_path):
        # A mistyped --store path must surface as an empty store, not
        # silently materialize a directory on every read-only command.
        store = ModelStore(tmp_path / "typo")
        assert store.list() == []
        assert len(store) == 0
        assert not store.exists("m")
        assert not (tmp_path / "typo").exists()

    def test_list_skips_foreign_json(self, store, fitted):
        _, decomposition = fitted
        store.save_sharded("real", decomposition, 1)
        (store.directory / "package.json").write_text('{"name": "not-a-model"}')
        (store.directory / "broken2.json").write_text("{not json")
        (store.directory / "package.npz").write_bytes(b"junk")
        (store.directory / "broken2.npz").write_bytes(b"junk")
        assert [r.name for r in store.list()] == ["real"]

    def test_record_of_foreign_json_raises_store_error(self, store, fitted):
        _, decomposition = fitted
        store.save_sharded("real", decomposition, 1)
        (store.directory / "foreign.json").write_text('{"name": "x"}')
        with pytest.raises(ModelStoreError, match="metadata"):
            store.record("foreign")


class TestNamesAndAtomicity:
    @pytest.mark.parametrize("bad", ["", "../escape", "a/b", ".hidden", "sp ace"])
    def test_invalid_names_rejected(self, store, fitted, bad):
        _, decomposition = fitted
        with pytest.raises(ModelStoreError, match="invalid model name"):
            store.save_sharded(bad, decomposition, 1)

    def test_no_temp_files_survive_a_save(self, store, fitted):
        matrix, decomposition = fitted
        store.save_sharded("m", decomposition, 1, matrix=matrix)
        leftovers = [p.name for p in store.directory.iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []

    def test_atomic_write_cleans_up_on_error(self, tmp_path):
        target = tmp_path / "out.npz"
        with pytest.raises(RuntimeError):
            with repro_io.atomic_write(target) as tmp:
                tmp.write_bytes(b"partial")
                raise RuntimeError("writer crashed")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_keeps_npz_suffix(self, tmp_path):
        # numpy.savez appends ".npz" to paths without the suffix; the temp
        # path must keep it so the final replace targets the written file.
        with repro_io.atomic_write(tmp_path / "cell.npz") as tmp:
            assert tmp.suffix == ".npz"
            np.savez(tmp, x=np.arange(3))
        assert (tmp_path / "cell.npz").exists()

    def test_concurrent_publishers_leave_a_complete_model(self, store, fitted):
        matrix, decomposition = fitted
        other = registry.get("isvd0").fit(matrix, 3, target="c")
        errors = []

        def publish(dec):
            try:
                for _ in range(10):
                    store.save_sharded("contested", dec, 1, matrix=matrix)
            except Exception as error:  # pragma: no cover - failure diagnostics
                errors.append(error)

        threads = [threading.Thread(target=publish, args=(dec,))
                   for dec in (decomposition, other)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        loaded, record = store.load_merged("contested")
        # Atomic replacement: both files parse completely — a reader can race
        # the writers and still never observe a truncated NPZ or JSON file.
        assert record.method in ("ISVD4", "ISVD0")
        assert loaded.rank in (3, 4)


def _stub_decomposition(seed: int) -> IntervalDecomposition:
    """A small random rank-2 model with 6 stored rows (enough for 4 shards)."""
    rng = np.random.default_rng(seed)
    lower = rng.normal(size=(6, 2))
    return IntervalDecomposition(
        u=IntervalMatrix(lower, lower + rng.uniform(size=(6, 2))),
        sigma=np.diag(rng.uniform(1.0, 2.0, size=2)),
        v=rng.normal(size=(5, 2)), target="a", method="stub", rank=2,
    )


def _factor_bytes(decomposition: IntervalDecomposition) -> list:
    """Dtype and raw bytes of every factor endpoint."""
    arrays = []
    for factor in (decomposition.u, decomposition.sigma, decomposition.v):
        for array in ((factor.lower, factor.upper)
                      if isinstance(factor, IntervalMatrix) else (factor,)):
            array = np.ascontiguousarray(array)
            arrays.append((array.dtype.str, array.shape, array.tobytes()))
    return arrays


#: Names whose manifests and archives share the prefix ``x``: model ``x``'s
#: shard 0 of generation 1 is ``x.shard-00-001.npz``, next to the manifest
#: ``x.shard-00-001.json`` of the model of that name.
STATEFUL_NAMES = ("x", "x.shard-00-001", "x.shard-01-002")
STUBS = [_stub_decomposition(seed) for seed in range(3)]


class StoreModel(RuleBasedStateMachine):
    """Publish/republish/delete/list against a reference of each name's last
    publish and the generation it replaced."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="store-model-")
        self.store = ShardedModelStore(self.directory)
        #: name -> (stub index, generation, shards) of its last publish.
        self.current = {}
        #: name -> (generation, shards) of the publish that one replaced.
        self.previous = {}

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def _files_of(self, name):
        files = {f"{name}.json"}
        for generation, shards in (self.current[name][1:],
                                   self.previous.get(name, (0, 0))):
            files.update(f"{name}.shard-{index:02d}-{generation:03d}.npz"
                         for index in range(shards))
        return files

    def _others(self, name):
        """``os.stat`` identity of every file of every *other* name."""
        return {
            file: (stat.st_ino, stat.st_mtime_ns, stat.st_size)
            for other in self.current if other != name
            for file in self._files_of(other)
            for stat in [os.stat(os.path.join(self.directory, file))]
        }

    def _publish(self, name, stub, shards, generation):
        others = self._others(name)
        record = self.store.save_sharded(name, STUBS[stub], shards,
                                         generation=generation)
        assert self._others(name) == others
        assert record.shards == shards
        if name in self.current:
            last = self.current[name][1]
            assert record.generation == (generation or last + 1)
            self.previous[name] = self.current[name][1:]
        else:
            assert record.generation == (generation or 1)
        self.current[name] = (stub, record.generation, shards)

    @rule(name=st.sampled_from(STATEFUL_NAMES), stub=st.integers(0, 2),
          shards=st.integers(1, 4), skip=st.none() | st.integers(1, 3))
    def publish(self, name, stub, shards, skip):
        """Publish (or republish) at the next generation, or ``skip`` past it."""
        last = self.current[name][1] if name in self.current else 0
        self._publish(name, stub, shards,
                      None if skip is None else last + skip)

    @precondition(lambda self: self.current)
    @rule(data=st.data(), stub=st.integers(0, 2), shards=st.integers(1, 4))
    def republish(self, data, stub, shards):
        name = data.draw(st.sampled_from(sorted(self.current)))
        self._publish(name, stub, shards, None)

    @precondition(lambda self: self.current)
    @rule(data=st.data(), back=st.integers(0, 2))
    def publish_at_a_used_generation(self, data, back):
        """A generation that does not exceed the current one is refused and
        changes nothing."""
        name = data.draw(st.sampled_from(sorted(self.current)))
        before = self._others(None)
        with pytest.raises(ModelStoreError, match="generation"):
            self.store.save_sharded(name, STUBS[0], 1,
                                    generation=max(self.current[name][1] - back, 1))
        assert self._others(None) == before

    @rule(name=st.sampled_from(STATEFUL_NAMES))
    def delete(self, name):
        others = self._others(name)
        if name not in self.current:
            with pytest.raises(ModelStoreError):
                self.store.delete(name)
        else:
            self.store.delete(name)
            del self.current[name]
            self.previous.pop(name, None)
        assert self._others(name) == others
        assert not self.store.exists(name)

    @rule()
    def listing(self):
        assert [record.name for record in self.store.list()] \
            == sorted(self.current)

    @invariant()
    def every_listed_model_loads_its_last_publish(self):
        for name, (stub, generation, shards) in self.current.items():
            merged, record = self.store.load_merged(name)
            assert (record.generation, record.shards) == (generation, shards)
            assert _factor_bytes(merged) == _factor_bytes(STUBS[stub])

    @invariant()
    def only_current_and_previous_generations_are_on_disk(self):
        expected = set()
        for name in self.current:
            expected |= self._files_of(name)
        assert set(os.listdir(self.directory)) == expected


StoreModel.TestCase.settings = settings(
    **common_settings(max_examples=40), stateful_step_count=15)
TestStoreModel = StoreModel.TestCase
