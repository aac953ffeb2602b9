"""The benchmark's four workloads: the paper's workflow driven as a
closed loop by one client in one process, on the default SQLite backend.

Each workload has a ``setup`` (timed as ``setup_s``, repeated) and a
``run`` that repeats the workload's cycle until a deadline or for a
fixed number of cycles, checks every output, and returns an
:class:`Outcome`.  The program only ever sees the generated b_eff_io
files and XML documents, written below the run's work directory.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import os
import pathlib
import random
import re
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.core.experiment import Experiment
from repro.db import server_for_backend
from repro.parse.importer import Importer
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                         parse_query_xml)

TECHNIQUES = ("listbased", "listless")
FILESYSTEMS = ("ufs", "nfs", "pvfs", "sfs")
PROC_COUNTS = (4, 8)
#: the two file systems the analysis queries look at
QUERY_FILESYSTEMS = ("ufs", "pvfs")
#: files per ``import_files`` call: the size of one ``perfbase input``
BATCH = 20
#: new files per append_requery / cli cycle, one per technique x file
#: system, so every query source sees new runs in every cycle
CYCLE_FILES = len(TECHNIQUES) * len(FILESYSTEMS)
#: chunk sizes of the paper's "large read accesses"
LARGE_CHUNKS = (1048576, 1048584, 2097152)
EXPERIMENT = "b_eff_io"
#: what the ``perfbase`` console script runs
CLI_MAIN = "import sys; from repro.cli.main import main; sys.exit(main())"

pc = time.perf_counter

#: the reference loop's time on the reference host (seconds)
REF_S = 0.004
#: the reference process's time on the reference host (seconds)
REF_PROCESS_S = 0.2


def reference_loop() -> None:
    """Fixed work in the program's mix of interpreter and SQLite time:
    2,000 rows into an in-memory table, a grouped aggregate, and the
    result through JSON and a regular expression.  Independent of the
    program under test."""
    con = sqlite3.connect(":memory:")
    try:
        con.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
        con.executemany("INSERT INTO t VALUES (?, ?, ?)",
                        [(i, i * 0.5, f"r{i % 97}") for i in range(2000)])
        rows = con.execute("SELECT c, COUNT(*), AVG(b) FROM t GROUP BY c"
                           " ORDER BY c").fetchall()
    finally:
        con.close()
    text = json.dumps([{"k": k, "n": n, "v": v} for k, n, v in rows])
    sum(len(re.findall(r"\d+", row["k"])) for row in json.loads(text))


def reference_process() -> None:
    """Fixed work in the mix of a ``perfbase`` process: start an
    isolated interpreter that imports numpy (dynamic libraries and
    compiled modules) and exits.  Independent of the program."""
    subprocess.run([sys.executable, "-I", "-c", "import numpy"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)


class Clock:
    """Samples the host's speed between timed operations.

    On a shared virtual machine the processor's speed drifts, by up to
    a third over seconds to minutes on a 2-vCPU guest, which swamps
    most program changes.  Each vCPU also flips between a fast and a
    slow state (loop times near 3.5 ms and 6 ms) several times a
    second.  The clock times :attr:`reference` at most every
    ``interval`` seconds, between operations and never inside one;
    :meth:`scale` converts the phase's wall times to seconds on the
    reference host, where the reference takes :attr:`ref_s`.
    """

    reference = staticmethod(reference_loop)
    ref_s = REF_S

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        #: (when, seconds) of each timed reference
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        if not force and pc() - self._last < self.interval:
            return
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the loop
        try:
            start = pc()
            self.reference()
            self.samples.append((start, pc() - start))
        finally:
            if enabled:
                gc.enable()
        self._last = pc()

    def scale(self, when: float, seconds: float, near: int = 5) -> float:
        """``seconds`` measured at ``when``, in reference-host seconds:
        scaled by the median of the ``near`` loop times sampled closest
        to ``when``.  An operation much shorter than a flip runs in one
        state, which the loops timed closest to it share."""
        times = [t for t, _ in self.samples]
        i = bisect.bisect(times, when)
        lo = max(0, min(i - near // 2, len(times) - near))
        local = [d for _, d in self.samples[lo:lo + near]]
        return seconds * self.ref_s / statistics.median(local)


class ProcessClock(Clock):
    """The clock of a workload whose operations are processes lasting
    seconds.  A process runs through a mix of the fast and slow states
    that no loop timed next to it shows, and starting one (dynamic
    libraries, compiled modules, page faults) slows less than the loop
    when the host is slow.  So the reference is a process too, and
    every operation of the phase is scaled by the mean of its times."""

    reference = staticmethod(reference_process)
    ref_s = REF_PROCESS_S

    def scale(self, when: float, seconds: float) -> float:
        return seconds * self.ref_s / statistics.mean(
            d for _, d in self.samples)


@dataclass
class Outcome:
    """What one measured phase did."""

    #: (start, seconds) of each timed operation (the ``op_s`` samples)
    ops: list[tuple[float, float]] = field(default_factory=list)
    #: the same by program operation (``input``, ``cold``, ``miss``...)
    lat: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict)
    #: program operations attempted / failed (raised or exited != 0)
    attempted: int = 0
    failed: int = 0
    #: output checks that did not hold
    errors: list[str] = field(default_factory=list)
    #: what the failed operations reported
    failures: list[str] = field(default_factory=list)
    #: files imported by the timed operations
    files: int = 0
    #: bytes of the input files behind the last database measured
    input_bytes: int = 0
    db_bytes: int = 0
    #: peak resident set of child processes (cli), MiB
    child_rss_mb: float = 0.0
    #: span files written by the traced ``perfbase`` processes
    span_files: list[str] = field(default_factory=list)
    #: host speed, sampled between the timed operations
    clock: Clock = field(default_factory=Clock)

    def op(self, seconds: float) -> None:
        """Record a timed operation that just ended."""
        self.ops.append((pc() - seconds, seconds))

    def sample(self, kind: str, seconds: float) -> None:
        """Record a program operation of ``kind`` that just ended."""
        self.lat.setdefault(kind, []).append((pc() - seconds, seconds))

    def wall(self) -> float:
        return sum(seconds for _, seconds in self.ops)

    def fail(self, what: str, exc: BaseException | str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what} failed: {exc}")

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


class Workspace:
    """The run's work directory and its generated inputs."""

    def __init__(self, root: pathlib.Path, src: pathlib.Path):
        self.root = root
        self.src = src
        root.mkdir(parents=True)

    def dir(self, name: str) -> pathlib.Path:
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def campaign(self, seed: int, n_files: int) -> list[str]:
        """Write at least ``n_files`` generated b_eff_io files; returns
        their paths in import order.  Every 8 consecutive files hold one
        run of each technique x file system; the order within each of
        those groups is shuffled by ``seed``."""
        per_group = -(-n_files // CYCLE_FILES)
        repetitions = -(-per_group // len(PROC_COUNTS))
        files = generate_campaign(
            techniques=TECHNIQUES, filesystems=FILESYSTEMS,
            proc_counts=PROC_COUNTS, repetitions=repetitions, seed=seed)
        size = len(PROC_COUNTS) * repetitions
        rng = random.Random(seed)
        groups = [files[i:i + size] for i in range(0, len(files), size)]
        for group in groups:
            rng.shuffle(group)
        results = self.dir("results")
        paths = []
        for k in range(size):
            for group in groups:
                name, content = group[k]
                path = results / name
                path.write_text(content, encoding="utf-8")
                paths.append(str(path))
        return paths

    def xml(self, name: str, text: str) -> str:
        path = self.dir("xml") / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def new_experiment(dbdir: pathlib.Path) -> tuple[Experiment, Importer]:
    """``perfbase setup`` in process: a fresh experiment plus the
    importer a ``perfbase input`` would build."""
    definition = parse_experiment_xml(experiment_xml())
    server = server_for_backend("sqlite", str(dbdir))
    exp = Experiment.create(server, definition.name,
                            list(definition.variables), definition.info)
    for user, klass in definition.grants:
        exp.grant(user, klass)
    return exp, Importer(exp, parse_input_xml(input_xml()))


def import_all(importer: Importer, paths: list[str]) -> None:
    for i in range(0, len(paths), BATCH):
        report = importer.import_files(paths[i:i + BATCH])
        if report.n_imported != len(paths[i:i + BATCH]):
            raise RuntimeError(f"set-up import stored {report.n_imported}"
                               f" of {len(paths[i:i + BATCH])} files")


def db_size(dbdir: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in dbdir.iterdir() if p.is_file())


def file_bytes(paths: list[str]) -> int:
    return sum(os.path.getsize(p) for p in paths)


def artifacts(result) -> list[tuple[str, str]]:
    return [(a.name, a.content) for a in result.artifacts]


def operation(recorder, op: int, name: str):
    return (recorder.operation(op, name) if recorder is not None
            else contextlib.nullcontext())


def import_op(out: Outcome, importer: Importer, batch: list[str],
              recorder, op: int) -> float | None:
    """One timed ``import_files`` call; returns its latency, or None
    when it failed.  Checks that every file became exactly one run."""
    out.attempted += 1
    start = pc()
    try:
        with operation(recorder, op, "input"):
            report = importer.import_files(batch)
    except Exception as exc:  # counted, and the run goes on
        out.fail("import_files", exc)
        return None
    elapsed = pc() - start
    out.sample("input", elapsed)
    out.files += len(batch)
    out.check(report.n_imported == len(batch) and not report.duplicates
              and not report.discarded and not report.failed,
              f"import of {len(batch)} files stored {report.n_imported}"
              f" runs ({len(report.duplicates)} duplicates, "
              f"{report.discarded} discarded)")
    return elapsed


def query_op(out: Outcome, kind: str, query, exp: Experiment,
             outdir: pathlib.Path, recorder, op: int, cache=None):
    """One timed query plus writing its artifacts; returns the result
    and its latency, or (None, None) when it failed."""
    out.attempted += 1
    start = pc()
    try:
        with operation(recorder, op, "query"):
            result = query.execute(exp, cache=cache)
            result.write_all(str(outdir))
    except Exception as exc:  # counted, and the run goes on
        out.fail(f"query {query.name}", exc)
        return None, None
    elapsed = pc() - start
    out.sample(kind, elapsed)
    return result, elapsed


def _more(cycle: int, deadline: float | None, cycles: int | None) -> bool:
    if cycles is not None:
        return cycle < cycles
    return cycle == 0 or pc() < deadline


# -- ingest ------------------------------------------------------------------


class Ingest:
    """2,000 generated files imported, 20 per ``import_files`` call,
    into a fresh experiment that grows from 0 to 2,000 runs.  One pass
    is one cycle; a timed operation is one ``import_files`` call."""

    name = "ingest"
    setup_reps = 7
    #: makes the ``Clock`` that samples the host's speed
    clock = Clock
    #: cycles of the fixed phase a traced run measures
    trace_cycles = 1
    #: whether ``run`` leaves the set-up untouched, so that one
    #: set-up serves every phase of a traced run
    keeps_state = False
    n_files = 2000

    def prepare(self, ws: Workspace, seed: int) -> None:
        self.ws = ws
        self.paths = ws.campaign(seed, self.n_files)[:self.n_files]

    def setup(self, tag: str):
        dbdir = self.ws.dir(f"db-{tag}")
        exp, importer = new_experiment(dbdir)
        return dbdir, exp, importer

    def run(self, state, deadline=None, cycles=None,
            recorder=None) -> Outcome:
        out = Outcome()
        dbdir, exp, importer = state
        done = 0
        while _more(done, deadline, cycles):
            if done:  # every pass starts from an empty experiment
                exp.close()
                shutil.rmtree(dbdir)
                dbdir, exp, importer = self.setup(f"{dbdir.name}-{done}")
            files = out.files
            for i in range(0, len(self.paths), BATCH):
                out.clock.tick()
                elapsed = import_op(out, importer,
                                    self.paths[i:i + BATCH], recorder,
                                    len(out.ops))
                if elapsed is not None:
                    out.op(elapsed)
            out.check(exp.n_runs() == out.files - files,
                      f"pass {done}: {exp.n_runs()} runs after importing"
                      f" {out.files - files} files")
            done += 1
        out.clock.tick(force=True)
        exp.close()
        out.input_bytes = file_bytes(self.paths)
        out.db_bytes = db_size(dbdir)
        return out


# -- analyze -----------------------------------------------------------------


def analysis_queries():
    """Fig 8 (read/write x two file systems) and the Section-5 stddev
    check (technique x two file systems), in pairs: each timed
    operation is the Fig 8 chart plus the stddev check of one file
    system, as a user reviews one configuration."""
    queries = []
    for fs in QUERY_FILESYSTEMS:
        for access, technique in (("read", "listless"),
                                  ("write", "listbased")):
            queries.append(parse_query_xml(
                fig8_query_xml(access=access, filesystem=fs)))
            queries.append(parse_query_xml(
                stddev_query_xml(technique=technique, filesystem=fs)))
    return queries


class Analyze:
    """Cold read-only queries through ``Query.execute(exp)`` (no cache,
    no pushdown) on a 2,000-run experiment the set-up imports; each
    query source covers 250 runs."""

    name = "analyze"
    setup_reps = 3
    clock = Clock
    trace_cycles = 2
    keeps_state = True
    n_files = 2000

    def prepare(self, ws: Workspace, seed: int) -> None:
        self.ws = ws
        self.paths = ws.campaign(seed, self.n_files)[:self.n_files]
        self.queries = analysis_queries()
        self.reference: dict[int, list[tuple[str, str]]] = {}

    def setup(self, tag: str):
        dbdir = self.ws.dir(f"db-{tag}")
        exp, importer = new_experiment(dbdir)
        import_all(importer, self.paths)
        return dbdir, exp

    def run(self, state, deadline=None, cycles=None,
            recorder=None) -> Outcome:
        out = Outcome()
        dbdir, exp = state
        outdir = self.ws.dir("out")
        done = 0
        while _more(done, deadline, cycles):
            for pair in range(0, len(self.queries), 2):
                out.clock.tick()
                total = 0.0
                for qi in (pair, pair + 1):
                    result, elapsed = query_op(
                        out, "cold", self.queries[qi], exp, outdir,
                        recorder, out.attempted)
                    if result is None:
                        total = None
                        break
                    total += elapsed
                    got = artifacts(result)
                    want = self.reference.setdefault(qi, got)
                    out.check(got == want, f"query {qi} "
                              f"({self.queries[qi].name}) artifacts "
                              "differ between repetitions")
                if total is not None:
                    out.op(total)
            done += 1
        out.clock.tick(force=True)
        self._check_fig8(out, dbdir)
        out.input_bytes = file_bytes(self.paths)
        out.db_bytes = db_size(dbdir)
        return out

    def _check_fig8(self, out: Outcome, dbdir: pathlib.Path) -> None:
        """The paper's finding still shows: list-less is slower than
        list-based for large reads (negative relative difference).
        Runs on its own connection, so the kept temp tables vanish
        with it and later queries see the database unchanged."""
        exp = Experiment.open(server_for_backend("sqlite", str(dbdir)),
                              EXPERIMENT)
        try:
            for fs in QUERY_FILESYSTEMS:
                query = parse_query_xml(fig8_query_xml("read", fs))
                result = query.execute(exp, keep_temp_tables=True)
                rows = result.vectors["reldiff"].dicts()
                large = [r for r in rows if r["S_chunk"] in LARGE_CHUNKS]
                out.check(len(large) == len(LARGE_CHUNKS) and all(
                    r[col] < 0 for r in large
                    for col in ("B_scatter", "B_shared", "B_segcoll")),
                    f"Fig 8 ({fs}): list-less not slower than list-based"
                    f" for large reads: {large}")
        finally:
            exp.close()


# -- append_requery ----------------------------------------------------------


class AppendRequery:
    """Imports interleaved with cached re-queries: each cycle imports 8
    new files, runs Fig 8 and stddev through ``exp.query_cache()``
    (misses: the import bumped ``data_version``), then runs them again
    (hits).  A timed operation is one whole cycle.  A pass is 25
    cycles on a copy of the set-up's 1,000-run experiment, so every
    pass covers the same experiment sizes (1,000 to 1,200 runs)."""

    name = "append_requery"
    setup_reps = 3
    clock = Clock
    trace_cycles = 1
    keeps_state = True
    n_base = 1000
    pass_cycles = 25

    def prepare(self, ws: Workspace, seed: int) -> None:
        self.ws = ws
        self.paths = ws.campaign(
            seed, self.n_base + self.pass_cycles * CYCLE_FILES)
        self.description = parse_input_xml(input_xml())
        self.queries = [parse_query_xml(fig8_query_xml()),
                        parse_query_xml(stddev_query_xml())]

    def setup(self, tag: str):
        dbdir = self.ws.dir(f"db-{tag}")
        exp, importer = new_experiment(dbdir)
        import_all(importer, self.paths[:self.n_base])
        exp.close()
        return (dbdir,)

    def run(self, state, deadline=None, cycles=None,
            recorder=None) -> Outcome:
        out = Outcome()
        base, = state
        outdir = self.ws.dir("out")
        done = 0
        while _more(done, deadline, cycles):
            dbdir = self.ws.root / f"{base.name}-pass{done}"
            shutil.copytree(base, dbdir)
            exp = Experiment.open(server_for_backend("sqlite", str(dbdir)),
                                  EXPERIMENT)
            importer = Importer(exp, self.description)
            for cycle in range(self.pass_cycles):
                batch = self.paths[self.n_base + cycle * CYCLE_FILES:
                                   self.n_base + (cycle + 1) * CYCLE_FILES]
                self._cycle(out, exp, importer, batch, outdir, recorder)
            exp.close()
            out.input_bytes = file_bytes(self.paths)
            out.db_bytes = db_size(dbdir)
            shutil.rmtree(dbdir)
            done += 1
        out.clock.tick(force=True)
        return out

    def _cycle(self, out: Outcome, exp: Experiment, importer: Importer,
               batch: list[str], outdir: pathlib.Path, recorder) -> None:
        runs_before = exp.n_runs()
        out.clock.tick()
        start = pc()
        ok = import_op(out, importer, batch, recorder,
                       out.attempted) is not None
        missed = []
        for query in self.queries:
            cache = exp.query_cache()
            result, _ = query_op(out, "miss", query, exp, outdir,
                                 recorder, out.attempted, cache)
            ok = ok and result is not None
            missed.append(artifacts(result) if result else None)
            out.check(result is None or cache.session["misses"] > 0,
                      f"{query.name} after an import did not miss: "
                      f"{cache.session}")
        for query, miss in zip(self.queries, missed):
            cache = exp.query_cache()
            result, _ = query_op(out, "hit", query, exp, outdir,
                                 recorder, out.attempted, cache)
            ok = ok and result is not None
            if result is None:
                continue
            out.check(cache.session["misses"] == 0
                      and cache.session["hits"] > 0,
                      f"{query.name} re-run did not hit: {cache.session}")
            out.check(artifacts(result) == miss,
                      f"{query.name} hit artifacts differ from the miss "
                      "just before")
        if ok:
            out.op(pc() - start)
        out.check(exp.n_runs() == runs_before + CYCLE_FILES,
                  f"run count went from {runs_before} to {exp.n_runs()} "
                  f"after importing {CYCLE_FILES} files")


# -- cli ---------------------------------------------------------------------


class Cli:
    """The paper's workflow as real ``perfbase`` processes, one after
    another with default flags, on a 200-run on-disk experiment.  Each
    cycle runs ``perfbase input`` for 8 files and then ``perfbase query
    -q fig8.xml -o DIR``; a timed operation is one process."""

    name = "cli"
    setup_reps = 3
    clock = ProcessClock
    trace_cycles = 3
    keeps_state = False
    n_base = 200
    max_cycles = 60

    def prepare(self, ws: Workspace, seed: int) -> None:
        self.ws = ws
        self.paths = ws.campaign(
            seed, self.n_base + self.max_cycles * CYCLE_FILES)
        self.experiment_xml = ws.xml("experiment.xml", experiment_xml())
        self.input_xml = ws.xml("input.xml", input_xml())
        self.query_xml = ws.xml("fig8.xml", fig8_query_xml())
        self.env = dict(os.environ)
        for name in ("PERFBASE_FAULTS", "PERFBASE_BACKEND",
                     "PERFBASE_DB_DIR"):
            self.env.pop(name, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ws.src)] + [p for p in [os.environ.get("PYTHONPATH")]
                             if p])

    def perfbase(self, argv: list[str], *, spans: str | None = None,
                 kind: str = ""):
        """Run one ``perfbase`` process to completion; returns (exit
        code, wall seconds, peak RSS in MiB, stderr).  With ``spans``
        the process starts through the tracing bootstrap, which writes
        its spans there."""
        if spans is None:
            cmd = [sys.executable, "-c", CLI_MAIN]
            env = self.env
        else:
            cmd = [sys.executable,
                   str(pathlib.Path(__file__).with_name("cli_boot.py"))]
            env = dict(self.env, PERFBENCH_SPANS=spans,
                       PERFBENCH_OP=kind)
        errfile = self.ws.dir("logs") / "stderr.txt"
        with open(errfile, "w+", encoding="utf-8") as err:
            start = pc()
            proc = subprocess.Popen(cmd + argv, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = pc() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        return proc.returncode, elapsed, usage.ru_maxrss / 1024, stderr

    def _input_args(self, dbdir, paths):
        return ["input", "-e", EXPERIMENT, "-d", self.input_xml,
                "--dbdir", str(dbdir), *paths]

    def setup(self, tag: str):
        dbdir = self.ws.dir(f"db-{tag}")
        for argv in (["setup", "-d", self.experiment_xml,
                      "--dbdir", str(dbdir)],
                     self._input_args(dbdir, self.paths[:self.n_base])):
            code, _, _, stderr = self.perfbase(argv)
            if code != 0:
                raise RuntimeError(f"perfbase {argv[0]} exited {code}: "
                                   f"{stderr.strip()}")
        return (dbdir,)

    def run(self, state, deadline=None, cycles=None,
            recorder=None) -> Outcome:
        """As the other workloads' ``run``; with a ``recorder`` the
        processes start through ``cli_boot.py`` and record their own
        spans, listed in ``Outcome.span_files``."""
        out = Outcome(clock=self.clock())
        dbdir, = state
        outdir = self.ws.dir(f"out-{dbdir.name}")
        traced = recorder is not None
        done = 0
        next_file = self.n_base
        while (_more(done, deadline, cycles)
               and next_file + CYCLE_FILES <= len(self.paths)):
            batch = self.paths[next_file:next_file + CYCLE_FILES]
            next_file += CYCLE_FILES
            for kind, argv in (
                    ("input", self._input_args(dbdir, batch)),
                    ("query", ["query", "-e", EXPERIMENT, "-q",
                               self.query_xml, "-o", str(outdir),
                               "--dbdir", str(dbdir)])):
                spans = (str(self.ws.dir(f"spans-{dbdir.name}")
                             / f"{out.attempted}.json")
                         if traced else None)
                out.clock.tick()
                out.attempted += 1
                code, elapsed, rss, stderr = self.perfbase(
                    argv, spans=spans, kind=kind)
                out.clock.tick(force=True)
                if code != 0:
                    out.fail(f"perfbase {kind}",
                             f"exit {code}: {stderr.strip()[-300:]}")
                    continue
                out.op(elapsed)
                out.sample("cli_" + kind, elapsed)
                out.child_rss_mb = max(out.child_rss_mb, rss)
                if kind == "input":
                    out.files += len(batch)
                if traced:
                    out.span_files.append(spans)
            done += 1
        out.clock.tick(force=True)
        self._check_artifacts(out, dbdir, outdir)
        out.input_bytes = file_bytes(self.paths[:next_file])
        out.db_bytes = db_size(dbdir)
        return out

    def _check_artifacts(self, out: Outcome, dbdir, outdir) -> None:
        """The CLI's artifacts equal an in-process ``Query.execute`` on
        the same database, and the run count matches the imports."""
        server = server_for_backend("sqlite", str(dbdir))
        exp = Experiment.open(server, EXPERIMENT)
        try:
            out.check(exp.n_runs() == self.n_base + out.files,
                      f"{exp.n_runs()} runs after importing "
                      f"{self.n_base + out.files} files")
            query = parse_query_xml(fig8_query_xml())
            for name, content in artifacts(query.execute(exp)):
                path = outdir / name
                written = (path.read_text(encoding="utf-8")
                           if path.is_file() else None)
                out.check(written == content, f"CLI artifact {name} "
                          "differs from in-process Query.execute")
        finally:
            exp.close()

    def startup_s(self, reps: int = 3) -> float:
        """Median wall time of a no-work ``perfbase ls``."""
        dbdir = self.ws.dir("db-empty")
        return statistics.median(
            self.perfbase(["ls", "--dbdir", str(dbdir)])[1]
            for _ in range(reps))

    def import_times(self) -> dict[str, float]:
        """``python -X importtime`` of a no-work ``perfbase ls``:
        seconds of import work beyond what a bare interpreter imports,
        in total and in the named packages (summed over their
        modules)."""
        bare = _importtime(self._importtime_run([]))
        cli = _importtime(self._importtime_run(
            ["ls", "--dbdir", str(self.ws.dir("db-empty"))]))
        times = {"cli.import_s": sum(
            t for mod, t in cli.items() if mod not in bare)}
        for pkg in ("scipy", "numpy", "networkx"):
            times[f"cli.import_s.{pkg}"] = sum(
                t for mod, t in cli.items()
                if mod == pkg or mod.startswith(pkg + "."))
        return times

    def _importtime_run(self, argv: list[str]) -> str:
        code = (CLI_MAIN if argv else "pass")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code, *argv],
            env=self.env, capture_output=True, text=True, check=True)
        return proc.stderr


def _importtime(stderr: str) -> dict[str, float]:
    """Self seconds per module from ``-X importtime`` output."""
    times: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        times[name.strip()] = times.get(name.strip(), 0.0) \
            + int(self_us) / 1e6
    return times


WORKLOADS = {w.name: w for w in (Ingest, Analyze, AppendRequery, Cli)}
