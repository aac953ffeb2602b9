"""Batch storage path: one transaction per batch, cached variables,
indexed duplicate guard — and byte-level result identity with the
serial per-run path (PR-3 tentpole)."""

import datetime
import threading
import time

import pytest

from repro.core import Parameter, Result, RunData, VariableSet
from repro.core.errors import DatabaseError
from repro.db import BatchContext, ExperimentStore, SQLiteDatabase

pytestmark = pytest.mark.batch


def varset():
    return VariableSet([
        Parameter("t", datatype="integer"),
        Parameter("mode", datatype="string"),
        Parameter("size", datatype="integer", occurrence="multiple"),
        Result("bw", datatype="float", occurrence="multiple"),
    ])


def make_store():
    store = ExperimentStore(SQLiteDatabase())
    store.initialise("demo")
    store.save_variables(varset())
    return store


def sample_runs(n=10):
    """Deterministic runs with fixed created stamps (so two storage
    paths can be compared byte-for-byte)."""
    base = datetime.datetime(2005, 9, 27, 12, 0, 0)
    runs = []
    for i in range(n):
        once = {"t": i}
        if i % 2:  # alternating column signatures
            once["mode"] = "odd"
        runs.append(RunData(
            once=once,
            datasets=[{"size": 2 ** j, "bw": i * 10.0 + j}
                      for j in range(4)],
            source_files=[f"out_{i}.txt"],
            created=base + datetime.timedelta(minutes=i)))
        runs[-1].file_checksums[f"out_{i}.txt"] = f"sum{i:04d}"
    return runs


def dump(store):
    return "\n".join(store.db._conn.iterdump())


class TestResultIdentity:
    def test_batch_dump_identical_to_serial(self):
        serial, batched = make_store(), make_store()
        for run in sample_runs():
            serial.store_run(run, varset())
        with batched.batch():
            for run in sample_runs():
                batched.store_run(run, varset())
        assert dump(batched) == dump(serial)

    def test_indices_and_records_identical(self):
        serial, batched = make_store(), make_store()
        s_idx = [serial.store_run(r, varset()) for r in sample_runs()]
        with batched.batch() as batch:
            b_idx = [batched.store_run(r) for r in sample_runs()]
        assert b_idx == s_idx == list(range(1, 11))
        assert batch.indices == b_idx
        assert batched.run_records() == serial.run_records()
        for i in s_idx:
            assert batched.load_once(i) == serial.load_once(i)
            assert batched.load_datasets(i) == serial.load_datasets(i)

    def test_run_records_matches_per_run_records(self):
        store = make_store()
        with store.batch():
            for run in sample_runs(5):
                store.store_run(run)
        assert store.run_records() == [
            store.run_record(i) for i in store.run_indices()]

    def test_store_run_joins_active_batch(self):
        # the serial entry point transparently joins an open batch of
        # the same thread — no commit happens until the batch exits
        store = make_store()
        with store.batch():
            store.store_run(sample_runs(1)[0], varset())
            assert store.db._conn.in_transaction
        assert not store.db._conn.in_transaction
        assert store.n_runs() == 1

    def test_nested_batch_joins_outer(self):
        store = make_store()
        runs = sample_runs(2)
        with store.batch() as outer:
            with store.batch() as inner:
                assert inner is outer
                store.store_run(runs[0])
            # inner exit must not flush/commit/release the lock
            assert store._batch is outer
            store.store_run(runs[1])
        assert store.run_indices() == [1, 2]


class TestAtomicity:
    def test_exception_rolls_back_whole_batch(self):
        store = make_store()
        with pytest.raises(RuntimeError):
            with store.batch():
                store.store_run(sample_runs(1)[0])
                assert store.db.table_exists("rundata_1")
                raise RuntimeError("boom")
        assert store.n_runs() == 0
        assert not store.db.table_exists("rundata_1")
        assert store.find_import("sum0000") is None
        # the store stays fully usable afterwards
        idx = store.store_run(sample_runs(1)[0], varset())
        assert idx == 1
        assert store.run_record(1).n_datasets == 4

    def test_batch_usable_only_from_owner_thread(self):
        store = make_store()
        errors = []

        def foreign(batch):
            try:
                batch.store_run(sample_runs(1)[0])
            except DatabaseError as exc:
                errors.append(exc)

        with store.batch() as batch:
            thread = threading.Thread(target=foreign, args=(batch,))
            thread.start()
            thread.join()
        assert len(errors) == 1


class TestDuplicateGuard:
    def test_pending_checksum_visible_in_batch(self):
        store = make_store()
        runs = sample_runs(2)
        with store.batch() as batch:
            idx = store.store_run(runs[0])
            # the pb_run_files row is still buffered, yet the guard
            # already sees it
            assert batch.pending_checksum("sum0000") == idx
            assert store.find_import("sum0000") == idx
        assert store.find_import("sum0000") == idx

    def test_checksum_index_created_at_init(self):
        store = make_store()
        row = store.db.fetchone(
            "SELECT 1 FROM sqlite_master WHERE type='index' "
            "AND name='pb_run_files_checksum'")
        assert row is not None

    def test_checksum_index_backfilled_lazily(self):
        # databases initialised before the index existed get it on the
        # first duplicate lookup of a fresh store
        store = make_store()
        store.db.execute("DROP INDEX pb_run_files_checksum")
        reopened = ExperimentStore(store.db)
        assert reopened.find_import("nope") is None
        row = store.db.fetchone(
            "SELECT 1 FROM sqlite_master WHERE type='index' "
            "AND name='pb_run_files_checksum'")
        assert row is not None


class TestVariablesCache:
    def test_load_variables_cached(self):
        store = make_store()
        assert store.load_variables() is store.load_variables()

    def test_add_variable_invalidates(self):
        store = make_store()
        before = store.load_variables()
        store.add_variable(Parameter("np", datatype="integer"))
        after = store.load_variables()
        assert after is not before
        assert "np" in after

    def test_modify_variable_invalidates(self):
        store = make_store()
        store.load_variables()
        store.modify_variable(Parameter("t", datatype="integer",
                                        synopsis="changed"))
        assert store.load_variables()["t"].synopsis == "changed"

    def test_remove_variable_invalidates(self):
        store = make_store()
        store.load_variables()
        store.remove_variable("mode")
        assert "mode" not in store.load_variables()

    def test_save_variables_invalidates(self):
        store = make_store()
        store.load_variables()
        store.save_variables(VariableSet([Parameter("only")]))
        assert [v.name for v in store.load_variables()] == ["only"]

    def test_explicit_invalidation(self):
        store = make_store()
        cached = store.load_variables()
        store.invalidate_variables_cache()
        assert store.load_variables() is not cached


class TestBatchContextApi:
    def test_store_batch_returns_context(self):
        store = make_store()
        assert isinstance(store.batch(), BatchContext)

    def test_manual_flush_mid_batch(self):
        store = make_store()
        runs = sample_runs(4)
        with store.batch() as batch:
            for run in runs[:2]:
                store.store_run(run)
            batch.flush()  # bound the buffers of a long batch
            for run in runs[2:]:
                store.store_run(run)
        assert store.run_indices() == [1, 2, 3, 4]
        serial = make_store()
        for run in sample_runs(4):
            serial.store_run(run, varset())
        assert dump(store) == dump(serial)


class TestConcurrentWriters:
    def test_batches_on_two_connections_both_commit(self, tmp_path):
        """A batch opened while another connection's batch holds the
        write lock waits for it instead of failing on the lock
        upgrade: a deferred transaction would read (run index,
        variables) and then fail its first write with "database is
        locked", without waiting out the busy timeout."""
        path = str(tmp_path / "demo.db")
        first, second = (ExperimentStore(SQLiteDatabase(path))
                         for _ in range(2))
        first.initialise("demo")
        first.save_variables(varset())
        runs = sample_runs(4)
        for store, run in zip((first, second), runs[:2]):
            with store.batch():
                store.store_run(run)
        first_wrote, second_started = threading.Event(), threading.Event()
        errors = []

        def first_writer():
            try:
                with first.batch():
                    first.store_run(runs[2])
                    first_wrote.set()
                    second_started.wait(5)
                    time.sleep(0.3)  # the second batch opens meanwhile
            except DatabaseError as exc:
                errors.append(exc)

        def second_writer():
            first_wrote.wait(5)
            second_started.set()
            try:
                with second.batch():
                    second.store_run(runs[3])
            except DatabaseError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=first_writer),
                   threading.Thread(target=second_writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert errors == []
        reader = ExperimentStore(SQLiteDatabase(path))
        assert reader.run_indices() == [1, 2, 3, 4]
        assert sorted(reader.find_import(f"sum{i:04d}")
                      for i in range(4)) == [1, 2, 3, 4]
