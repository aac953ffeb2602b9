"""EXPLAIN / ANALYZE for query specifications.

The paper analyses its experiment data "through declarative queries"
(Sections 3-4) and justifies the parallel executor by profiling real
query runs (Section 4.3).  This module gives both activities a
human-readable face, the way an SQL EXPLAIN does for a database plan:

* :func:`explain` renders the element DAG of a query as a
  deterministic ASCII plan — one tree per output element, inputs
  indented below their consumers, each node tagged with its element
  kind, operator type / output format / source shape, and its
  scheduling level (the longest path from a source, which is what the
  Section 4.3 level scheduler packs onto cluster nodes);
* given a recorded trace (:func:`~repro.obs.sinks.read_trace`), the
  same plan is *annotated* with measured numbers per element — calls,
  wall and CPU time, rows and transferred bytes, and the cluster-node
  placement taken from the parallel executor's ``node`` spans — the
  EXPLAIN ANALYZE view.

Everything here works on duck-typed query objects (``name``, ``kind``,
``inputs`` and the kind-specific attributes), so this module adds no
import edge from :mod:`repro.obs` to the query layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .profile import QueryProfile
from .spans import ELEMENT_KINDS, Span

__all__ = ["explain", "ElementStats", "collect_element_stats"]


@dataclass
class ElementStats:
    """Measured execution numbers of one plan element in a trace."""

    name: str
    kind: str = ""
    calls: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    rows: int = 0
    bytes: int = 0
    #: cluster nodes this element ran on (empty for serial runs)
    nodes: set[int] = field(default_factory=set)
    #: query-cache outcomes (zero when the run was uncached)
    cache_hits: int = 0
    cache_misses: int = 0

    def annotation(self) -> str:
        parts = [f"calls={self.calls}",
                 f"wall={self.wall_seconds * 1e3:.3f}ms",
                 f"cpu={self.cpu_seconds * 1e3:.3f}ms",
                 f"rows={self.rows}"]
        if self.bytes:
            parts.append(f"bytes={self.bytes}")
        if self.nodes:
            parts.append("node=" + ",".join(
                str(n) for n in sorted(self.nodes)))
        if self.cache_hits or self.cache_misses:
            if self.cache_misses == 0:
                parts.append("cache=HIT")
            elif self.cache_hits == 0:
                parts.append("cache=MISS")
            else:
                parts.append(f"cache={self.cache_hits}xHIT/"
                             f"{self.cache_misses}xMISS")
        return "(" + " ".join(parts) + ")"


def collect_element_stats(spans: Iterable[Span]
                          ) -> dict[str, ElementStats]:
    """Aggregate the element spans of a trace by element name.

    Wall/CPU/rows sum over all calls of the element.  Bytes sum the
    ``bytes`` attributes found in the element span's subtree plus the
    inbound ``transfer`` spans of the ``node`` spans the parallel
    executor wrapped around this element's executions.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    def subtree_bytes(span: Span) -> int:
        total = span.bytes
        stack = list(children.get(span.span_id, ()))
        while stack:
            s = stack.pop()
            total += s.bytes
            stack.extend(children.get(s.span_id, ()))
        return total

    stats: dict[str, ElementStats] = {}
    for span in spans:
        if span.kind in ELEMENT_KINDS:
            st = stats.setdefault(span.name,
                                  ElementStats(span.name, span.kind))
            st.calls += 1
            st.wall_seconds += span.wall_seconds
            st.cpu_seconds += span.cpu_seconds
            st.rows += span.rows
            st.bytes += subtree_bytes(span)
            cache = span.attributes.get("cache")
            if cache == "hit":
                st.cache_hits += 1
            elif cache == "miss":
                st.cache_misses += 1
        elif span.kind == "node":
            element = span.attributes.get("element")
            if not element:
                continue
            st = stats.setdefault(str(element),
                                  ElementStats(str(element)))
            node = span.name
            if node.startswith("node"):
                try:
                    st.nodes.add(int(node[4:]))
                except ValueError:
                    pass
            # vectors shipped to this node for this element
            st.bytes += sum(c.bytes for c in
                            children.get(span.span_id, ())
                            if c.kind == "transfer")
    return stats


# -- plan rendering ----------------------------------------------------------


def _describe(element) -> str:
    """One-line description of a plan node (kind + specifics)."""
    kind = element.kind
    if kind == "operator":
        op = getattr(element, "op", None)
        return f"[operator {op}]" if op else "[operator]"
    if kind == "output":
        fmt = getattr(element, "format_name", None)
        return f"[output {fmt}]" if fmt else "[output]"
    if kind == "source":
        details = []
        parameters = getattr(element, "parameters", ())
        filters = [p.name for p in parameters
                   if getattr(p, "is_filter", False)]
        dims = [p.name for p in parameters
                if not getattr(p, "is_filter", False)]
        if filters:
            details.append("filter=" + ",".join(filters))
        if dims:
            details.append("dims=" + ",".join(dims))
        results = list(getattr(element, "results", ()))
        if results:
            details.append("results=" + ",".join(results))
        if getattr(element, "runs", None) is not None:
            details.append("runs=filtered")
        return "[source" + ("".join(" " + d for d in details)) + "]"
    return f"[{kind}]"


def explain(query, trace=None) -> str:
    """Render ``query``'s element DAG as an ASCII plan.

    ``trace`` — a :class:`~repro.obs.sinks.TraceData` or a plain span
    iterable — switches to the ANALYZE form: every plan node gains the
    measured numbers of :func:`collect_element_stats`, the header gains
    trace totals (including the Section 4.3 source fraction), and
    element spans that match no plan node are listed at the end.

    The plain form depends only on the query specification, so its
    output is byte-for-byte deterministic (golden-file testable).
    """
    graph = query.graph
    levels = graph.levels()
    counts: dict[str, int] = {}
    for element in graph.elements.values():
        counts[element.kind] = counts.get(element.kind, 0) + 1
    n_levels = max(levels.values()) + 1 if levels else 0

    stats: dict[str, ElementStats] | None = None
    if trace is not None:
        spans = getattr(trace, "spans", trace)
        stats = collect_element_stats(spans)

    lines = [f"QUERY PLAN: {query.name}"]
    lines.append("elements: {} ({}); levels: {}; width: {}".format(
        len(graph.elements),
        ", ".join(f"{counts.get(k, 0)} {k}" for k in
                  ("source", "operator", "combiner", "output")),
        n_levels, graph.width()))
    if stats is not None:
        profile = QueryProfile.from_spans(
            getattr(trace, "spans", trace), query.name)
        lines.append(
            "trace: {} element call(s); element time {:.3f}ms; "
            "source fraction {:.1f}%".format(
                sum(s.calls for s in stats.values()),
                profile.total_seconds * 1e3,
                100 * profile.source_fraction()))

    expanded: set[str] = set()

    def describe_line(name: str) -> str:
        element = graph.elements[name]
        text = f"{name} {_describe(element)} (level {levels[name]})"
        if stats is not None:
            st = stats.get(name)
            text += ("  " + st.annotation() if st is not None
                     else "  (not executed)")
        return text

    def walk(name: str, prefix: str, connector: str,
             child_prefix: str) -> None:
        line = prefix + connector + describe_line(name)
        element = graph.elements[name]
        if element.inputs and name in expanded:
            lines.append(line + "  (shown above)")
            return
        lines.append(line)
        expanded.add(name)
        for i, input_name in enumerate(element.inputs):
            last = i == len(element.inputs) - 1
            walk(input_name, child_prefix,
                 "`- " if last else "+- ",
                 child_prefix + ("   " if last else "|  "))

    # one tree per output, in declaration order; then any elements no
    # output consumes (legal for non-output leaves of a partial query)
    roots = [e.name for e in graph.outputs]
    consumed: set[str] = set()

    def mark(name: str) -> None:
        if name in consumed:
            return
        consumed.add(name)
        for input_name in graph.elements[name].inputs:
            mark(input_name)

    for name in roots:
        mark(name)
    for name, element in graph.elements.items():
        if name not in consumed and not graph.consumers(name):
            roots.append(name)
    for name in roots:
        walk(name, "", "", "")

    if stats is not None:
        extra = sorted(set(stats) - set(graph.elements))
        for name in extra:
            st = stats[name]
            lines.append(f"not in plan: {name} [{st.kind}]  "
                         + st.annotation())
    return "\n".join(lines) + "\n"
