"""End-to-end tests of the perfbase CLI (Section 4)."""

import json
import os
import pathlib

import pytest

from repro.cli import main
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml,
                                           fig8_query_xml, input_xml,
                                           stddev_query_xml)


@pytest.fixture
def workspace(tmp_path):
    """A tmp dir with XML control files, campaign outputs and a dbdir."""
    (tmp_path / "experiment.xml").write_text(experiment_xml())
    (tmp_path / "input.xml").write_text(input_xml())
    (tmp_path / "fig8.xml").write_text(fig8_query_xml())
    (tmp_path / "stddev.xml").write_text(stddev_query_xml())
    results = tmp_path / "results"
    results.mkdir()
    for fname, content in generate_campaign(repetitions=2):
        (results / fname).write_text(content)
    return tmp_path


def run(workspace, *argv):
    return main([*argv, "--dbdir", str(workspace / "db")])


def setup_and_import(workspace):
    assert run(workspace, "setup", "-d",
               str(workspace / "experiment.xml")) == 0
    files = sorted(str(p) for p in
                   (workspace / "results").iterdir())
    assert run(workspace, "input", "-e", "b_eff_io", "-d",
               str(workspace / "input.xml"), *files) == 0


class TestSetupAndInput:
    def test_setup_creates_database(self, workspace, capsys):
        assert run(workspace, "setup", "-d",
                   str(workspace / "experiment.xml")) == 0
        assert (workspace / "db" / "b_eff_io.db").exists()
        assert "created experiment" in capsys.readouterr().out

    def test_setup_twice_fails_cleanly(self, workspace, capsys):
        run(workspace, "setup", "-d", str(workspace / "experiment.xml"))
        assert run(workspace, "setup", "-d",
                   str(workspace / "experiment.xml")) == 1
        assert "error" in capsys.readouterr().err

    def test_input_glob(self, workspace, capsys):
        run(workspace, "setup", "-d", str(workspace / "experiment.xml"))
        assert run(workspace, "input", "-e", "b_eff_io", "-d",
                   str(workspace / "input.xml"),
                   str(workspace / "results" / "*.sum")) == 0
        assert "imported 4 run(s)" in capsys.readouterr().out

    def test_duplicate_skipped_on_reimport(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        files = sorted(str(p) for p in
                       (workspace / "results").iterdir())
        run(workspace, "input", "-e", "b_eff_io", "-d",
            str(workspace / "input.xml"), *files)
        out = capsys.readouterr().out
        assert "imported 0 run(s)" in out
        assert "skipped 4 duplicate" in out

    def test_fixed_override(self, workspace, capsys):
        run(workspace, "setup", "-d", str(workspace / "experiment.xml"))
        files = sorted(str(p) for p in
                       (workspace / "results").iterdir())[:1]
        run(workspace, "input", "-e", "b_eff_io", "-d",
            str(workspace / "input.xml"), "--fixed", "fs=pvfs", *files)
        capsys.readouterr()
        run(workspace, "values", "-e", "b_eff_io", "-n", "fs",
            "--distinct")
        assert "pvfs" in capsys.readouterr().out


class TestStatusCommands:
    def test_ls(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        run(workspace, "ls")
        out = capsys.readouterr().out
        assert "b_eff_io" in out and "4 runs" in out

    def test_info(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        run(workspace, "info", "-e", "b_eff_io")
        out = capsys.readouterr().out
        assert "Joachim Worringen" in out
        assert "B_scatter" in out

    def test_runs_with_where(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        run(workspace, "runs", "-e", "b_eff_io", "--where",
            "technique=listless")
        out = capsys.readouterr().out
        assert out.count("run ") == 2

    def test_show(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        run(workspace, "show", "-e", "b_eff_io", "-r", "1")
        out = capsys.readouterr().out
        assert "once content" in out and "technique" in out

    def test_values_distinct(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        run(workspace, "values", "-e", "b_eff_io", "-n", "access",
            "--distinct")
        out = capsys.readouterr().out.split()
        assert sorted(out) == ["read", "rewrite", "write"]

    def test_sweep(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        run(workspace, "sweep", "-e", "b_eff_io",
            "technique=listbased,listless", "fs=ufs,nfs")
        out = capsys.readouterr().out
        assert "missing" in out and "nfs" in out


class TestQueryCommand:
    def test_fig8_query_writes_artifacts(self, workspace, capsys,
                                         tmp_path):
        setup_and_import(workspace)
        outdir = tmp_path / "out"
        assert run(workspace, "query", "-e", "b_eff_io", "-q",
                   str(workspace / "fig8.xml"), "-o",
                   str(outdir)) == 0
        names = {p.name for p in outdir.iterdir()}
        assert {"chart.gp", "chart.dat", "table.txt",
                "bars.chart.txt"} <= names

    def test_profile_flag(self, workspace, capsys, tmp_path):
        setup_and_import(workspace)
        capsys.readouterr()
        run(workspace, "query", "-e", "b_eff_io", "-q",
            str(workspace / "stddev.xml"), "-o", str(tmp_path),
            "--profile")
        assert "source fraction" in capsys.readouterr().out

    def test_parallel_flag(self, workspace, capsys, tmp_path):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "query", "-e", "b_eff_io", "-q",
                   str(workspace / "fig8.xml"), "-o", str(tmp_path),
                   "--parallel", "2") == 0
        assert "parallel execution on 2 nodes" in \
            capsys.readouterr().out

    def test_cached_and_uncached_write_identical_artifacts(
            self, workspace, tmp_path):
        setup_and_import(workspace)
        outdirs = {kind: tmp_path / kind
                   for kind in ("cold", "warm", "uncached")}
        for kind, outdir in outdirs.items():
            extra = ["--no-cache"] if kind == "uncached" else []
            assert run(workspace, "query", "-e", "b_eff_io", "-q",
                       str(workspace / "fig8.xml"), *extra,
                       "-o", str(outdir)) == 0
        names = {p.name for p in outdirs["uncached"].iterdir()}
        assert names
        for kind in ("cold", "warm"):
            assert {p.name for p in outdirs[kind].iterdir()} == names
            for name in names:
                assert (outdirs[kind] / name).read_bytes() == \
                    (outdirs["uncached"] / name).read_bytes(), \
                    f"{kind} {name}"


class TestAdminCommands:
    def test_delete_run(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "delete", "-e", "b_eff_io", "-r",
                   "1") == 0
        run(workspace, "ls")
        assert "3 runs" in capsys.readouterr().out

    def test_delete_experiment_needs_yes(self, workspace, capsys):
        setup_and_import(workspace)
        assert run(workspace, "delete", "-e", "b_eff_io") == 1
        assert run(workspace, "delete", "-e", "b_eff_io", "--yes") == 0
        capsys.readouterr()
        run(workspace, "ls")
        assert "no experiments" in capsys.readouterr().out

    def test_update_remove_variable(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "update", "-e", "b_eff_io", "--remove",
                   "pos") == 0
        run(workspace, "info", "-e", "b_eff_io")
        assert "pos" not in capsys.readouterr().out.split()

    def test_access_grant_revoke(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "access", "-e", "b_eff_io", "--grant",
                   "alice:query") == 0
        assert "granted" in capsys.readouterr().out

    def test_check_command(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "check", "-e", "b_eff_io", "-n",
                   "B_scatter", "--group", "access") == 0
        # either finds something or reports a clean state
        out = capsys.readouterr().out
        assert out.strip()

    def test_dump(self, workspace, capsys, tmp_path):
        setup_and_import(workspace)
        out_file = tmp_path / "dump.json"
        assert run(workspace, "dump", "-e", "b_eff_io", "-o",
                   str(out_file)) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["runs"]) == 4
        assert "<experiment>" in payload["definition"]


class TestErrorHandling:
    def test_unknown_experiment(self, workspace, capsys):
        assert run(workspace, "info", "-e", "ghost") == 1
        assert "error" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "perfbase" in capsys.readouterr().out

    def test_bad_where_syntax(self, workspace, capsys):
        setup_and_import(workspace)
        assert run(workspace, "runs", "-e", "b_eff_io", "--where",
                   "nonsense") == 1
