"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one table/figure/claim of the paper (see
DESIGN.md's experiment index).  Next to the pytest-benchmark timings,
each bench writes the rows/series it reproduces into
``benchmarks/_artifacts/`` and attaches headline numbers to
``benchmark.extra_info`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import pytest

from repro import Experiment, MemoryServer
from repro.parse import Importer
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import experiment_xml, input_xml
from repro.xmlio import parse_experiment_xml, parse_input_xml



@pytest.fixture(scope="session")
def campaign():
    """The Section-5 measurement campaign: 2 techniques x 2 file
    systems x 5 repetitions (20 output files)."""
    return generate_campaign(repetitions=5,
                             filesystems=("ufs", "nfs"))


@pytest.fixture(scope="session")
def beffio_experiment(campaign):
    """The b_eff_io experiment with the campaign imported through the
    XML control files (Figs. 5/6)."""
    definition = parse_experiment_xml(experiment_xml())
    server = MemoryServer()
    exp = Experiment.create(server, definition.name,
                            list(definition.variables), definition.info)
    importer = Importer(exp, parse_input_xml(input_xml()))
    for fname, content in campaign:
        importer.import_text(content, fname)
    return exp


@pytest.fixture(scope="session")
def large_experiment():
    """A programmatically-filled experiment large enough that query
    element times dominate scheduling overhead (for E3/E7/E8)."""
    return build_large_experiment("beffio_large")


def build_large_experiment(name):
    """120 simulator-filled runs (used session-wide and by benches
    that mutate their experiment and so need a private copy)."""
    from repro.core import RunData
    from repro.workloads.beffio import (BeffIOConfig, BeffIOSimulator,
                                        CHUNK_SIZES, PATTERNS)
    definition = parse_experiment_xml(experiment_xml())
    server = MemoryServer()
    exp = Experiment.create(server, name,
                            list(definition.variables), definition.info)
    counter = 0
    for technique in ("listbased", "listless"):
        for fs in ("ufs", "nfs"):
            for rep in range(30):
                cfg = BeffIOConfig(technique=technique, filesystem=fs,
                                   run_number=rep + 1, seed=counter)
                sim = BeffIOSimulator(cfg)
                rows = sim.table()
                datasets = []
                for pattern in PATTERNS:
                    for pos, chunk in enumerate(CHUNK_SIZES, start=1):
                        values = rows[(pattern, chunk)]
                        datasets.append({
                            "pos": pos, "S_chunk": chunk,
                            "access": pattern, "N_proc": cfg.n_procs,
                            "B_scatter": values[0],
                            "B_shared": values[1],
                            "B_separate": values[2],
                            "B_segmented": values[3],
                            "B_segcoll": values[4],
                        })
                exp.store_run(RunData(
                    once={"T": 10, "fs": fs, "technique": technique,
                          "n_procs": cfg.n_procs, "mem_per_proc": 256,
                          "hostname": cfg.hostname},
                    datasets=datasets))
                counter += 1
    return exp


@pytest.fixture(scope="session")
def parallel_experiment():
    """A heavyweight experiment for the Fig. 3 scaling benchmark:
    few runs, each with tens of thousands of data sets, so query
    elements move enough rows that per-element SQL work dominates
    scheduling overhead (the regime where the paper's queries took
    "several seconds")."""
    from repro import Experiment, MemoryServer
    from repro.core import Parameter, Result, RunData

    server = MemoryServer()
    exp = Experiment.create(server, "beffio_parallel", [
        Parameter("technique"),
        Parameter("fs"),
        Parameter("g", datatype="integer", occurrence="multiple",
                  synopsis="measurement group"),
        Result("v1", datatype="float", occurrence="multiple"),
        Result("v2", datatype="float", occurrence="multiple"),
        Result("v3", datatype="float", occurrence="multiple"),
    ])
    n_rows = 25_000
    for technique in ("listbased", "listless"):
        for fs in ("ufs", "nfs"):
            for rep in range(2):
                base = hash((technique, fs, rep)) % 97
                datasets = [{
                    "g": i % 1000,
                    "v1": float((i * 7 + base) % 1009) / 10,
                    "v2": float((i * 13 + base) % 2003) / 10,
                    "v3": float((i * 29 + base) % 503) / 10,
                } for i in range(n_rows)]
                exp.store_run(RunData(
                    once={"technique": technique, "fs": fs},
                    datasets=datasets))
    return exp
