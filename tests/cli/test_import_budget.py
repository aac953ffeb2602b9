"""Import budget of a ``perfbase`` process: each command loads only what
it uses.

Every CLI call pays its imports before doing any work, so the optional
subsystems (the in-memory backend, the regression sentinel and the
experiment service) load on first use, and scipy and networkx are not
loaded at all.  Each case runs in a fresh interpreter, because the test
process itself has long since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml)

OPTIONAL = ("scipy", "networkx", "repro.db.memory_backend",
            "repro.sentinel", "repro.service")

#: runs each argv (one JSON list per command-line argument) through
#: ``main`` in this process, then reports exit codes and which of the
#: optional modules got imported
PROBE = """\
import json, sys
from repro.cli.main import main
codes = [main(argv) for argv in map(json.loads, sys.argv[2:])]
optional = json.loads(sys.argv[1])
print(json.dumps({"codes": codes, "loaded": sorted(
    p for p in optional
    if any(m == p or m.startswith(p + ".") for m in sys.modules))}))
"""


def perfbase(*argvs: list[str]) -> dict:
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PERFBASE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(OPTIONAL),
         *map(json.dumps, argvs)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_work_ls_imports_no_optional_module(tmp_path):
    out = perfbase(["ls", "--dbdir", str(tmp_path)])
    assert out == {"codes": [0], "loaded": []}


def test_paper_workflow_imports_no_optional_module(tmp_path):
    (tmp_path / "experiment.xml").write_text(experiment_xml())
    (tmp_path / "input.xml").write_text(input_xml())
    (tmp_path / "fig8.xml").write_text(fig8_query_xml())
    results = tmp_path / "results"
    results.mkdir()
    for fname, content in generate_campaign(repetitions=1):
        (results / fname).write_text(content)
    db = ["--dbdir", str(tmp_path / "db")]
    out = perfbase(
        ["setup", "-d", str(tmp_path / "experiment.xml"), *db],
        ["input", "-e", "b_eff_io", "-d", str(tmp_path / "input.xml"),
         *db, *sorted(str(p) for p in results.iterdir())],
        ["query", "-e", "b_eff_io", "-q", str(tmp_path / "fig8.xml"),
         "-o", str(tmp_path / "out"), *db])
    assert out == {"codes": [0, 0, 0], "loaded": []}
    assert any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("argv, needed", [
    (["ls", "--backend", "memory"], "repro.db.memory_backend"),
    (["baseline", "list"], "repro.sentinel"),
    (["service", "stat"], "repro.service"),
])
def test_optional_subsystem_loads_on_first_use(tmp_path, argv, needed):
    out = perfbase([*argv, "--dbdir", str(tmp_path)])
    assert out["codes"] == [0]
    assert needed in out["loaded"]
    assert not {"scipy", "networkx"} & set(out["loaded"])
