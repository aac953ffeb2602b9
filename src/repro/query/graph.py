"""Query graph: wiring elements into an executable DAG.

Fig. 2 of the paper shows the possible relations: sources feed operators
and combiners, which feed further operators/combiners, which feed
outputs — "Within certain limits, these elements can be arbitrarily
cascaded."  This module validates those limits:

* the graph must be acyclic and every referenced input must exist;
* sources have no inputs, outputs produce no vector (nothing may
  consume an output);
* every output must (transitively) reach a source.

The structure is two adjacency maps (producers and consumers of each
element), small enough that the standard library covers the rest:
``graphlib`` finds cycles, a heap-based Kahn sort gives the
name-stable execution order, and one pass over that order gives the
*levels* (longest path from a source) that the parallel scheduler of
Section 4.3 uses.
"""

from __future__ import annotations

import heapq
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from ..core.errors import QueryError
from .elements import QueryElement
from .outputs import Output
from .source import Source

__all__ = ["QueryGraph"]


class QueryGraph:
    """Validated DAG over a set of named query elements."""

    def __init__(self, elements: Iterable[QueryElement]):
        self.elements: dict[str, QueryElement] = {}
        for element in elements:
            if element.name in self.elements:
                raise QueryError(
                    f"duplicate element name {element.name!r}")
            self.elements[element.name] = element
        #: producers / consumers of each element (edges deduplicated)
        self.preds: dict[str, set[str]] = {n: set() for n in self.elements}
        self.succs: dict[str, set[str]] = {n: set() for n in self.elements}
        for element in self.elements.values():
            for input_name in element.inputs:
                if input_name not in self.elements:
                    raise QueryError(
                        f"element {element.name!r} references unknown "
                        f"input {input_name!r}")
                producer = self.elements[input_name]
                if isinstance(producer, Output):
                    raise QueryError(
                        f"output element {input_name!r} cannot feed "
                        f"{element.name!r}")
                self.preds[element.name].add(input_name)
                self.succs[input_name].add(element.name)
        self._validate()

    def _validate(self) -> None:
        if not self.elements:
            raise QueryError("query has no elements")
        try:
            TopologicalSorter(self.preds).prepare()
        except CycleError as exc:
            # the cycle comes back closed (first node repeated last)
            path = " -> ".join(exc.args[1][:-1])
            raise QueryError(f"query graph has a cycle: {path}") from None
        sources = {n for n, e in self.elements.items()
                   if isinstance(e, Source)}
        if not sources:
            raise QueryError("query has no source element")
        for name, element in self.elements.items():
            if not isinstance(element, Source) and not element.inputs:
                raise QueryError(
                    f"{element.kind} element {name!r} has no inputs")
            if isinstance(element, Output):
                reachable = self._ancestors(name)
                if not reachable & sources:
                    raise QueryError(
                        f"output element {name!r} is not connected to "
                        "any source")

    def _ancestors(self, name: str) -> set[str]:
        """Every element ``name`` transitively consumes."""
        seen: set[str] = set()
        stack = list(self.preds[name])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self.preds[node])
        return seen

    # -- structure queries ------------------------------------------------

    @property
    def sources(self) -> list[Source]:
        return [e for e in self.elements.values()
                if isinstance(e, Source)]

    @property
    def outputs(self) -> list[Output]:
        return [e for e in self.elements.values()
                if isinstance(e, Output)]

    def topological_order(self) -> list[QueryElement]:
        """Execution order: inputs before consumers, stable by name."""
        indegree = {name: len(p) for name, p in self.preds.items()}
        ready = [name for name, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(self.elements[name])
            for consumer in self.succs[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    heapq.heappush(ready, consumer)
        return order

    def levels(self) -> dict[str, int]:
        """Longest-path level of each element (sources are level 0).

        Elements on the same level are independent *within a level
        schedule* — the parallelism the paper's Section 4.3 exploits.
        """
        level: dict[str, int] = {}
        for element in self.topological_order():
            preds = self.preds[element.name]
            level[element.name] = (max(level[p] for p in preds) + 1
                                   if preds else 0)
        return level

    def width(self) -> int:
        """Maximum number of elements on one level — the effective
        degree of parallelism of the query ("the number of cluster nodes
        that can be used efficiently is limited to the effective degree
        of parallelism in the query processing")."""
        counts: dict[int, int] = {}
        for lvl in self.levels().values():
            counts[lvl] = counts.get(lvl, 0) + 1
        return max(counts.values())

    def consumers(self, name: str) -> list[str]:
        return sorted(self.succs[name])

    def fingerprints(self, source_extra: dict | None = None
                     ) -> dict[str, str]:
        """Structural fingerprint of every element (Merkle-style).

        Each fingerprint hashes the element's own spec with the
        fingerprints of its producers, so one hash addresses a whole
        subgraph.  ``source_extra`` is folded into the fingerprints of
        input-free elements (the incremental engine passes the
        experiment identity and data version there, which propagates to
        every downstream fingerprint).
        """
        fps: dict[str, str] = {}
        for element in self.topological_order():
            extra = source_extra if not element.inputs else None
            fps[element.name] = element.fingerprint(
                [fps[i] for i in element.inputs], extra)
        return fps

    def __len__(self) -> int:
        return len(self.elements)
