"""Span recording from outside the program, and the per-layer rollup.

The benchmark does not use the program's own tracer (``repro.obs``):
its overhead varies too much to attribute time by layer.  Instead
:meth:`SpanRecorder.install` wraps the public entry point of each layer
with a closure that records one span per call, and
:func:`layer_metrics` rolls the spans up into self time per layer.

A span is ``(name, layer, start, end, parent, op, error, n)``:
``parent`` is the index of the enclosing span (-1 at the top),
``op`` the id of the timed operation the harness was running, ``error``
whether the call raised, and ``n`` a size the wrapper read from the
call (rows out, bytes written, runs or datasets extracted).
Spans stay in memory until :meth:`SpanRecorder.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Any, Callable, NamedTuple

#: layer names, after the ``repro`` modules they wrap
LAYERS = ("cli", "xmlio", "parse", "core", "db", "query", "qcache",
          "output")

#: the ``Database`` methods; each outermost call counts as a statement
DB_METHODS = ("execute", "executemany", "fetchall", "fetchone",
              "table_exists", "table_columns", "drop_table",
              "list_tables", "commit", "begin", "rollback")


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int
    op: int
    error: bool
    n: int


class SpanRecorder:
    """Collects spans of one process; not thread-safe (one client)."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1
        self._paused = False
        #: every ``QueryCache`` created while installed (for sessions)
        self.caches: list[Any] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record the enclosed block as one span; yields its index."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        error = False
        start = time.perf_counter()
        try:
            yield index
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, layer, start, end, parent,
                                     self.op, error, 0)

    @contextlib.contextmanager
    def operation(self, op: int, name: str):
        """One timed operation of the harness: a ``harness`` span whose
        id tags every span recorded inside it."""
        previous, self.op = self.op, op
        try:
            with self.span(name, "harness"):
                yield
        finally:
            self.op = previous

    def wrap(self, fn: Callable, name: str, layer: str,
             size: Callable[[tuple, Any], int] | None = None,
             named: Callable[[tuple], str] | None = None) -> Callable:
        """``fn`` wrapped to record a span per call.  ``size(args,
        result)`` gives the span's ``n``; ``named(args)`` its name."""
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(named(args) if named else name,
                           layer) as index:
                result = fn(*args, **kwargs)
            if size is not None:
                # sizes may query the database (a vector's row count),
                # so they are read after the span, unrecorded
                self._paused = True
                try:
                    n = size(args, result)
                finally:
                    self._paused = False
                self.spans[index] = self.spans[index]._replace(n=n)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [list(s) for s in self.spans if s],
                       "sessions": self.sessions()}, fh)

    def sessions(self) -> list[dict]:
        return [dict(cache.session) for cache in self.caches]

    # -- installation ------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Wrap every layer entry point; returns the undo function."""
        from repro.core.experiment import Experiment
        from repro.core.run import RunData
        from repro.db.schema import BatchContext
        from repro.db.sqlite_backend import SQLiteDatabase
        from repro.parse.description import InputDescription
        from repro.parse.importer import Importer
        from repro.query.cache import QueryCache
        from repro.query.elements import QueryElement
        from repro.query.engine import QueryResult
        from repro.xmlio import experiment_xml, input_xml, query_xml

        undo: list[Callable[[], None]] = []

        def patch_attr(owner, attr, wrapped):
            original = owner.__dict__[attr] if attr in vars(owner) \
                else None
            setattr(owner, attr, wrapped)
            if original is None:
                undo.append(lambda: delattr(owner, attr))
            else:
                undo.append(lambda: setattr(owner, attr, original))

        def patch_method(cls, attr, name, layer, size=None, named=None):
            patch_attr(cls, attr, self.wrap(getattr(cls, attr), name,
                                            layer, size, named))

        def patch_function(module, attr, name, layer):
            # functions imported by name elsewhere are rebound in every
            # loaded ``repro`` module that holds the original
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, layer)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original):
                    patch_attr(mod, attr, wrapped)

        for module, attr in ((experiment_xml, "parse_experiment_xml"),
                             (input_xml, "parse_input_xml"),
                             (query_xml, "parse_query_xml")):
            patch_function(module, attr, "xmlio." + attr, "xmlio")

        cli_commands = sys.modules.get("repro.cli.commands")
        if cli_commands is not None:
            for attr in [a for a in vars(cli_commands)
                         if a.startswith("cmd_")]:
                patch_attr(cli_commands, attr, self.wrap(
                    getattr(cli_commands, attr), "cli." + attr, "cli"))

        patch_method(Importer, "import_files", "parse.import_files",
                     "parse", size=lambda a, r: len(a[1]))
        patch_method(InputDescription, "extract", "parse.extract",
                     "parse", size=lambda a, r: sum(
                         len(run.datasets) for run in r))
        patch_method(RunData, "validate", "core.validate", "core")
        patch_method(Experiment, "store_run", "db.store_run", "db")
        patch_method(BatchContext, "__exit__", "db.batch_exit", "db")
        for attr in DB_METHODS:
            patch_method(SQLiteDatabase, attr, "db." + attr, "db")
        patch_method(QueryElement, "execute", "query.element", "query",
                     size=lambda a, r: r.n_rows if r is not None else 0,
                     named=lambda a: "query." + a[0].kind)
        for attr in ("lookup", "lookup_structural", "lookup_entry"):
            patch_method(QueryCache, attr, "qcache.lookup", "qcache")
        patch_method(QueryCache, "load", "qcache.load", "qcache")
        patch_method(QueryCache, "put", "qcache.put", "qcache")
        patch_method(QueryCache, "prune_stale", "qcache.prune", "qcache")
        patch_method(QueryResult, "write_all", "output.write_all",
                     "output", size=lambda a, r: sum(
                         len(x.content.encode("utf-8"))
                         for x in a[0].artifacts))

        init = QueryCache.__init__

        def register(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            self.caches.append(cache)
        patch_attr(QueryCache, "__init__", register)

        def uninstall() -> None:
            while undo:
                undo.pop()()
        return uninstall


# -- rollup ----------------------------------------------------------------

STATEMENTS = frozenset("db." + m for m in DB_METHODS)


def load_spans(path: str) -> tuple[list[Span], dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [Span(*s) for s in data.pop("spans")], data


def merge(parts: list[list[Span]]) -> list[Span]:
    """One span list from several processes' lists; part ``i`` becomes
    operation ``i``."""
    merged: list[Span] = []
    for op, part in enumerate(parts):
        base = len(merged)
        merged.extend(s._replace(parent=s.parent + base if s.parent >= 0
                                 else -1, op=op) for s in part)
    return merged


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover
    (calls are synchronous, so children never overlap)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def statements(spans: list[Span]) -> list[Span]:
    """Outermost calls of ``Database`` methods (a ``table_exists`` that
    calls ``fetchone`` is one statement)."""
    return [s for s in spans if s.name in STATEMENTS
            and (s.parent < 0 or spans[s.parent].name not in STATEMENTS)]


def layer_metrics(spans: list[Span], sessions: list[dict]
                  ) -> dict[str, float]:
    """Per-layer metrics over the spans recorded inside timed
    operations (``op >= 0``); work the harness did between operations
    (checks, set-up) is left out."""
    own = self_times(spans)
    inside = [(s, t) for s, t in zip(spans, own) if s.op >= 0]
    timed = [s for s, _ in inside]

    def seconds(*names: str) -> float:
        return sum(s.end - s.start for s in timed if s.name in names)

    def cache_seconds(name: str) -> float:
        # ``put`` reads its new entry back: that lookup counts as put
        return sum(s.end - s.start for s in timed if s.name == name
                   and (s.parent < 0 or spans[s.parent].layer != "qcache"))

    def calls(*names: str) -> int:
        return sum(1 for s in timed if s.name in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    op_kind = {s.op: s.name for s in timed if s.layer == "harness"}
    stmts = [s for s in statements(spans) if s.op >= 0]
    input_stmts = sum(1 for s in stmts if op_kind[s.op] == "input")
    query_stmts = sum(1 for s in stmts if op_kind[s.op] == "query")
    files = sum(s.n for s in timed if s.name == "parse.import_files")
    queries = sum(1 for kind in op_kind.values() if kind == "query")
    stores = calls("db.store_run")
    store_children = sum(
        s.end - s.start for s in timed
        if s.parent >= 0 and spans[s.parent].name == "db.store_run")
    kinds = {k: seconds("query." + k)
             for k in ("source", "operator", "combiner", "output")}
    hits = sum(x["hits"] for x in sessions)
    misses = sum(x["misses"] for x in sessions)

    metrics = {
        "cli.dispatch_s": sum(s.end - s.start for s in timed
                              if s.name.startswith("cli.cmd_")),
        "xmlio.parse_s": sum(s.end - s.start for s in timed
                             if s.layer == "xmlio"),
        "xmlio.calls": sum(1 for s in timed if s.layer == "xmlio"),
        "parse.extract_s": seconds("parse.extract"),
        "parse.files": files,
        "parse.datasets": sum(s.n for s in timed
                              if s.name == "parse.extract"),
        "core.validate_s": seconds("core.validate"),
        "core.validate_calls_per_run": ratio(calls("core.validate"),
                                             stores),
        "db.store_s": seconds("db.store_run") - store_children,
        "db.commit_s": seconds("db.batch_exit"),
        "db.statements": len(stmts),
        "db.statements_per_file": ratio(input_stmts, files),
        "db.statements_per_query": ratio(query_stmts, queries),
        "db.statement_s": sum(s.end - s.start for s in stmts),
        "db.errors": sum(1 for s in stmts if s.error),
        **{f"query.{k}_s": v for k, v in kinds.items()},
        "query.source_frac": ratio(kinds["source"], sum(kinds.values())),
        "query.rows_out": sum(s.n for s in timed
                              if s.name.startswith("query.")),
        "qcache.hit_ratio": ratio(hits, hits + misses),
        "qcache.lookup_s": cache_seconds("qcache.lookup"),
        "qcache.load_s": cache_seconds("qcache.load"),
        "qcache.put_s": cache_seconds("qcache.put"),
        "qcache.prune_s": cache_seconds("qcache.prune"),
        "qcache.stores": sum(x["stores"] for x in sessions),
        "qcache.evictions": sum(x["evictions"] for x in sessions),
        "output.write_s": seconds("output.write_all"),
        "output.bytes": sum(s.n for s in timed
                            if s.name == "output.write_all"),
    }
    for layer in LAYERS + ("harness",):
        metrics[f"self_s.{layer}"] = sum(
            t for s, t in inside if s.layer == layer)
    return metrics
