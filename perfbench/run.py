"""perfbase benchmark: the paper's workflow as four closed-loop
workloads, with per-layer timing taken from outside the program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 17 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
fixed amount of the workload untraced and then traced, and reports the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: end-to-end metrics (``--trace 0``), name -> unit
END_TO_END = {"setup_s": "s", "op_s.p50": "s", "op_s.p90": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MiB"}

#: per-layer metrics (``--trace 1``), name -> unit
PER_LAYER = {
    "cli.startup_s": "s", "cli.import_s": "s",
    "cli.import_s.scipy": "s", "cli.import_s.numpy": "s",
    "cli.import_s.networkx": "s", "cli.dispatch_s": "s",
    "xmlio.parse_s": "s", "xmlio.calls": "count",
    "parse.extract_s": "s", "parse.files": "count",
    "parse.datasets": "count",
    "core.validate_s": "s", "core.validate_calls_per_run": "count/run",
    "db.store_s": "s", "db.commit_s": "s", "db.statement_s": "s",
    "db.statements": "count", "db.statements_per_file": "count/file",
    "db.statements_per_query": "count/query", "db.errors": "count",
    "db.bytes_per_input_byte": "B/B",
    "query.source_s": "s", "query.operator_s": "s",
    "query.combiner_s": "s", "query.output_s": "s",
    "query.source_frac": "ratio", "query.rows_out": "count",
    "qcache.hit_ratio": "ratio", "qcache.lookup_s": "s",
    "qcache.load_s": "s", "qcache.put_s": "s", "qcache.prune_s": "s",
    "qcache.stores": "count", "qcache.evictions": "count",
    "output.write_s": "s", "output.bytes": "B",
    **{f"self_s.{layer}": "s" for layer in (
        "cli", "xmlio", "parse", "core", "db", "query", "qcache",
        "output")},
    "trace.wall_s": "s", "trace.ops": "count",
    "trace.overhead_frac": "ratio", "trace.unattributed_s": "s",
    "trace.unattributed_frac": "ratio",
}


def pct(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def discard(state: tuple) -> None:
    """Close and delete a set-up state that will not be measured:
    ``(dbdir, experiment, ...)``, or ``(dbdir,)`` when nothing is
    left open."""
    dbdir, *rest = state
    if rest:
        rest[0].close()
    shutil.rmtree(dbdir)


def timed_setups(workload, clock):
    """Set the workload up ``setup_reps`` times, sampling the host's
    speed between them; returns (start, seconds) of each set-up and
    the last state."""
    times, state = [], None
    for i in range(workload.setup_reps):
        if state is not None:
            discard(state)
        clock.tick(force=True)
        start = time.perf_counter()
        state = workload.setup(f"s{i}")
        times.append((start, time.perf_counter() - start))
    clock.tick(force=True)
    return times, state


def end_to_end(workload, seconds: float):
    """The gated metrics, with every time in reference-host seconds."""
    setup_clock = workload.clock()
    setups, state = timed_setups(workload, setup_clock)
    setups = [setup_clock.scale(start, t) for start, t in setups]
    out = workload.run(state, deadline=time.perf_counter() + seconds)
    ops = [out.clock.scale(start, t) for start, t in out.ops]
    rss = (out.child_rss_mb if workload.name == "cli" else
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "op_s.p50": (statistics.median(ops), len(ops)),
        "op_s.p90": (pct(ops, 90), len(ops)),
        "ops_per_s": (len(ops) / sum(ops), len(ops)),
        "peak_rss_mb": (rss, 1),
    }
    extra = operation_figures(workload.name, out)
    wall = [t for _, t in out.ops]
    extra["op_wall_s.p50"] = (statistics.median(wall), len(wall), "s")
    extra["op_wall_s.p90"] = (pct(wall, 90), len(wall), "s")
    extra["reference_s"] = (statistics.median(
        t for _, t in out.clock.samples), len(out.clock.samples), "s")
    return out, metrics, extra


def operation_figures(name: str, out) -> dict[str, tuple[float, int, str]]:
    """The workload's end-to-end figures by program operation, in
    reference-host seconds, printed for reading but not gated: unlike
    ``END_TO_END`` they do not exist on every workload."""
    rows: dict[str, tuple[float, int, str]] = {}
    for kind, label in (("input", "input_batch_s"),
                        ("cold", "query_cold_s"),
                        ("miss", "query_miss_s"),
                        ("hit", "query_hit_s"),
                        ("cli_input", "cli_input_s"),
                        ("cli_query", "cli_query_s")):
        values = [out.clock.scale(start, t)
                  for start, t in out.lat.get(kind, [])]
        if not values:
            continue
        rows[f"{label}.p50"] = (statistics.median(values), len(values),
                                "s")
        if kind in ("input", "cold", "miss"):
            rows[f"{label}.p90"] = (pct(values, 90), len(values), "s")
    if name == "ingest":
        busy = [out.clock.scale(start, t)
                for start, t in out.lat.get("input", [])]
        rows["input_files_per_s"] = (out.files / sum(busy), len(busy),
                                     "1/s")
    rows["failed_frac"] = (out.failed / max(out.attempted, 1),
                           out.attempted, "ratio")
    return rows


#: counts that must repeat exactly between two traced phases
EXACT_COUNTS = ("db.statements_per_file", "db.statements_per_query",
                "core.validate_calls_per_run", "qcache.stores",
                "qcache.evictions", "db.bytes_per_input_byte")


def scaled_wall(out) -> float:
    """Total time of the timed operations, in reference-host seconds."""
    return sum(out.clock.scale(start, t) for start, t in out.ops)


def traced_phase(workload, state, cycles: int):
    """One traced run of the fixed phase; returns its outcome and the
    per-layer metrics."""
    import spans as spans_mod
    recorder = spans_mod.SpanRecorder()
    if workload.name == "cli":
        # each process records its own spans through the bootstrap
        out = workload.run(state, cycles=cycles, recorder=recorder)
        parts, sessions = [], []
        for path in out.span_files:
            spans, data = spans_mod.load_spans(path)
            parts.append(spans)
            sessions.extend(data["sessions"])
        spans = spans_mod.merge(parts)
        processes = max(len(out.span_files), 1)
    else:
        uninstall = recorder.install()
        try:
            out = workload.run(state, cycles=cycles, recorder=recorder)
        finally:
            uninstall()
        spans, sessions = recorder.spans, recorder.sessions()
        processes = 1
    wall = out.wall()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(spans_mod.layer_metrics(spans, sessions))
    metrics["cli.dispatch_s"] /= processes
    unattributed = wall - sum(metrics[f"self_s.{layer}"]
                              for layer in spans_mod.LAYERS)
    del metrics["self_s.harness"]
    metrics.update({
        "db.bytes_per_input_byte": (out.db_bytes / out.input_bytes
                                    if out.input_bytes else 0.0),
        "trace.wall_s": wall,
        "trace.ops": out.attempted,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": unattributed / wall if wall else 0.0,
    })
    return out, metrics


def traced(workload):
    """Per-layer metrics: the fixed phase once untraced, then twice
    traced on identical set-ups; the exact counts of the two traced
    phases must agree."""
    cycles = workload.trace_cycles
    state = workload.setup("a")
    plain = workload.run(state, cycles=cycles)
    phases = []
    for tag in ("b", "c"):
        if not workload.keeps_state:
            state = workload.setup(tag)
        phases.append(traced_phase(workload, state, cycles))
    (out, metrics), (again, metrics_again) = phases
    for name in EXACT_COUNTS:
        out.check(metrics[name] == metrics_again[name],
                  f"{name} did not repeat: {metrics[name]} then "
                  f"{metrics_again[name]}")
    metrics["trace.overhead_frac"] = (scaled_wall(out)
                                      / scaled_wall(plain) - 1)
    if workload.name == "cli":
        metrics["cli.startup_s"] = workload.startup_s()
        metrics.update(workload.import_times())
    for phase in (plain, again):
        out.errors.extend(phase.errors)
        out.failures.extend(phase.failures)
        out.attempted += phase.attempted
        out.failed += phase.failed
    return out, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro; "
                         "run from the root of a perfbase checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Workspace

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]()
    ws = Workspace(WORK / f"{args.workload}-{args.seed}-{os.getpid()}",
                   SRC)
    try:
        workload.prepare(ws, args.seed)
        if args.trace:
            out, metrics = traced(workload)
            report = {name: (metrics[name], 1, PER_LAYER[name])
                      for name in PER_LAYER}
        else:
            out, metrics, extra = end_to_end(workload, args.seconds)
            report = {name: (v, n, END_TO_END[name])
                      for name, (v, n) in metrics.items()}
            report.update(extra)
    finally:
        shutil.rmtree(ws.root, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, n, unit) in report.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} n={n}")
    for failure in out.failures:
        print(f"  OPERATION FAILED: {failure}")
    for error in out.errors:
        print(f"  CHECK FAILED: {error}")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": report[name][0], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
