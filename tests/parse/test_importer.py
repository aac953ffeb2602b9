"""Unit tests for the import engine: the four Fig. 1 mappings, missing-
content policies and the duplicate-import guard (Section 3.2)."""

import pytest

from repro.core import DuplicateImportError, InputError, RunData
from repro.core.errors import PerfbaseError
from repro.parse import (Importer, InputDescription, MissingPolicy,
                         NamedLocation, RunSeparator, TabularColumn,
                         TabularLocation)


def simple_description(separator=None):
    return InputDescription([
        NamedLocation("technique", "technique="),
        NamedLocation("fs", "fs="),
        TabularLocation([TabularColumn("S_chunk", 1),
                         TabularColumn("access", 2),
                         TabularColumn("bw", 3)],
                        start="DATA"),
    ], separator=separator)


def one_run_text(technique="old", bw=1.5):
    return (f"technique={technique}\nfs=ufs\nDATA\n"
            f" 32 write {bw}\n 64 read {bw * 2}\n")


class TestCaseA_SingleFileSingleRun:
    def test_import(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description())
        report = imp.import_text(one_run_text(), "a.txt")
        assert report.run_indices == [1]
        run = simple_experiment.load_run(1)
        assert run.once["technique"] == "old"
        assert len(run.datasets) == 2

    def test_from_disk(self, simple_experiment, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text(one_run_text())
        imp = Importer(simple_experiment, simple_description())
        report = imp.import_file(path)
        assert report.n_imported == 1
        record = simple_experiment.run_record(1)
        assert record.source_files == (str(path),)


class TestCaseB_SeparatedRuns:
    def test_multiple_runs_per_file(self, simple_experiment):
        text = one_run_text("old") + one_run_text("new")
        desc = simple_description(
            separator=RunSeparator("technique="))
        imp = Importer(simple_experiment, desc)
        report = imp.import_text(text, "multi.txt")
        assert report.n_imported == 2
        assert simple_experiment.load_run(1).once["technique"] == "old"
        assert simple_experiment.load_run(2).once["technique"] == "new"


class TestCaseC_ManyFiles:
    def test_one_run_each(self, simple_experiment, tmp_path):
        paths = []
        for i, technique in enumerate(("old", "new", "old")):
            p = tmp_path / f"r{i}.txt"
            p.write_text(one_run_text(technique, bw=float(i + 1)))
            paths.append(p)
        imp = Importer(simple_experiment, simple_description())
        report = imp.import_files(paths)
        assert report.n_imported == 3
        assert simple_experiment.n_runs() == 3


class TestCaseD_MergedFiles:
    def test_merge_into_single_run(self, simple_experiment, tmp_path):
        main = tmp_path / "bench.txt"
        main.write_text("DATA\n 32 write 1.0\n")
        env = tmp_path / "env.txt"
        env.write_text("technique=new\nfs=nfs\n")
        desc_main = InputDescription([
            TabularLocation([TabularColumn("S_chunk", 1),
                             TabularColumn("access", 2),
                             TabularColumn("bw", 3)], start="DATA")])
        desc_env = InputDescription([
            NamedLocation("technique", "technique="),
            NamedLocation("fs", "fs=")])
        imp = Importer(simple_experiment)
        report = imp.import_merged([(main, desc_main),
                                    (env, desc_env)])
        assert report.n_imported == 1
        run = simple_experiment.load_run(1)
        assert run.once == {"technique": "new", "fs": "nfs"}
        assert run.datasets == [
            {"S_chunk": 32, "access": "write", "bw": 1.0}]
        assert len(run.source_files) == 2

    def test_separator_rejected_in_merge(self, simple_experiment,
                                         tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("x")
        desc = simple_description(separator=RunSeparator("x"))
        imp = Importer(simple_experiment)
        with pytest.raises(InputError, match="separator"):
            imp.import_merged([(p, desc)])

    def test_empty_merge_rejected(self, simple_experiment):
        with pytest.raises(InputError):
            Importer(simple_experiment).import_merged([])


class TestDuplicateGuard:
    def test_same_content_flagged(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description())
        imp.import_text(one_run_text(), "a.txt")
        report = imp.import_text(one_run_text(), "renamed_copy.txt")
        assert report.duplicates == ["renamed_copy.txt"]
        assert report.n_imported == 0
        assert simple_experiment.n_runs() == 1

    def test_force_reimports(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description(),
                       force=True)
        imp.import_text(one_run_text(), "a.txt")
        report = imp.import_text(one_run_text(), "a.txt")
        assert report.n_imported == 1
        assert simple_experiment.n_runs() == 2

    def test_different_content_accepted(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description())
        imp.import_text(one_run_text(bw=1.0), "a.txt")
        report = imp.import_text(one_run_text(bw=2.0), "a.txt")
        assert report.n_imported == 1

    def test_batch_continues_over_duplicates(self, simple_experiment,
                                             tmp_path):
        a = tmp_path / "a.txt"
        a.write_text(one_run_text(bw=1.0))
        b = tmp_path / "b.txt"
        b.write_text(one_run_text(bw=1.0))  # same content as a
        c = tmp_path / "c.txt"
        c.write_text(one_run_text(bw=3.0))
        imp = Importer(simple_experiment, simple_description())
        report = imp.import_files([a, b, c])
        assert report.n_imported == 2
        assert len(report.duplicates) == 1


class TestMissingPolicies:
    INCOMPLETE = "technique=old\nno data table here\n"

    def test_default_policy_applies_defaults(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description())
        report = imp.import_text(self.INCOMPLETE, "x.txt")
        assert report.n_imported == 1
        run = simple_experiment.load_run(1)
        assert run.once["fs"] == "unknown"  # declared default
        missing = report.missing[1]
        assert "S_chunk" in missing and "bw" in missing

    def test_empty_policy_skips_defaults(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description(),
                       missing=MissingPolicy.EMPTY)
        report = imp.import_text(self.INCOMPLETE, "x.txt")
        run = simple_experiment.load_run(report.run_indices[0])
        assert "fs" not in run.once

    def test_discard_policy_drops_incomplete(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description(),
                       missing=MissingPolicy.DISCARD)
        report = imp.import_text(self.INCOMPLETE, "x.txt")
        assert report.n_imported == 0
        assert report.discarded == 1
        assert simple_experiment.n_runs() == 0

    def test_reject_policy_raises(self, simple_experiment):
        imp = Importer(simple_experiment, simple_description(),
                       missing=MissingPolicy.REJECT)
        with pytest.raises(InputError):
            imp.import_text(self.INCOMPLETE, "x.txt")

    def test_discard_keeps_complete_runs_in_batch(
            self, simple_experiment, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text(one_run_text())
        bad = tmp_path / "bad.txt"
        bad.write_text(self.INCOMPLETE)
        imp = Importer(simple_experiment, simple_description(),
                       missing=MissingPolicy.DISCARD)
        report = imp.import_files([good, bad])
        assert report.n_imported == 1
        assert report.discarded == 1


class TestValidateOnce:
    def test_one_call_per_imported_run(self, simple_experiment,
                                       tmp_path, monkeypatch):
        """Each imported run is validated exactly once, on the
        ``Experiment.store_run`` choke point."""
        calls = []
        original = RunData.validate

        def counting(run, *args, **kwargs):
            calls.append(run)
            return original(run, *args, **kwargs)

        monkeypatch.setattr(RunData, "validate", counting)
        paths = []
        for i, technique in enumerate(("old", "new", "old")):
            path = tmp_path / f"r{i}.txt"
            path.write_text(one_run_text(technique, bw=1.0 + i))
            paths.append(path)
        imp = Importer(simple_experiment, simple_description())
        report = imp.import_files(paths)
        report.merge(imp.import_text(one_run_text("new", 9.0), "t.txt"))
        assert report.n_imported == 4
        assert len(calls) == 4


class TestFixedValueOverride:
    def test_set_fixed_value(self, simple_experiment):
        desc = simple_description()
        desc.set_fixed_value("fs", "nfs")
        imp = Importer(simple_experiment, desc)
        imp.import_text("technique=old\nDATA\n 1 w 1.0\n", "x.txt")
        # the fixed value runs after the named location and wins
        assert simple_experiment.load_run(1).once["fs"] == "nfs"

    def test_replace_existing_override(self, simple_experiment):
        desc = simple_description()
        desc.set_fixed_value("fs", "nfs")
        desc.set_fixed_value("fs", "ufs")
        imp = Importer(simple_experiment, desc)
        imp.import_text("technique=old\nDATA\n 1 w 1.0\n", "x.txt")
        assert simple_experiment.load_run(1).once["fs"] == "ufs"

    def test_no_description_rejected(self, simple_experiment):
        with pytest.raises(InputError, match="no input description"):
            Importer(simple_experiment).import_text("x", "x.txt")
