"""Oracle battery for the query graph: over generated DAGs, the
stdlib implementation of :class:`QueryGraph` must order, level and
connect elements exactly as networkx does, and reject every cyclic
graph with a cycle that really exists.

networkx is a test-only oracle here; the module is skipped where it is
not installed.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QueryError
from repro.query import (Operator, Output, ParameterSpec, QueryGraph,
                         Source)

nx = pytest.importorskip("networkx")

#: short names over a small alphabet, so lexicographic order differs
#: from generation order and ties in the sort are frequent
NAMES = st.lists(st.text(alphabet="abcde", min_size=1, max_size=3),
                 min_size=1, max_size=12, unique=True)


@st.composite
def dags(draw):
    """``{name: inputs}`` of a random DAG: each element may only
    consume elements generated before it (duplicates allowed), and
    the first element is always input-free."""
    names = draw(NAMES)
    wiring: dict[str, list[str]] = {names[0]: []}
    for i, name in enumerate(names[1:], start=1):
        wiring[name] = draw(st.lists(st.sampled_from(names[:i]),
                                     max_size=4))
    return wiring


def build(wiring: dict[str, list[str]]) -> list:
    """Query elements for a wiring: input-free elements become
    sources, the rest operators, and every element nothing consumes
    also feeds an output of its own (``_`` keeps names apart)."""
    consumed = {i for inputs in wiring.values() for i in inputs}
    elements = []
    for name, inputs in wiring.items():
        if inputs:
            elements.append(Operator(name, "max", inputs))
        else:
            elements.append(Source(name, parameters=[ParameterSpec("x")],
                                   results=["bw"]))
        if name not in consumed:
            elements.append(Output(f"{name}_out", [name]))
    return elements


def oracle(elements) -> "nx.DiGraph":
    g = nx.DiGraph()
    for element in elements:
        g.add_node(element.name)
        for input_name in element.inputs:
            g.add_edge(input_name, element.name)
    return g


def oracle_levels(g) -> dict[str, int]:
    level: dict[str, int] = {}
    for name in nx.topological_sort(g):
        preds = list(g.predecessors(name))
        level[name] = max(level[p] for p in preds) + 1 if preds else 0
    return level


@settings(max_examples=300, deadline=None)
@given(dags())
def test_structure_matches_networkx(wiring):
    elements = build(wiring)
    graph = QueryGraph(elements)
    g = oracle(elements)
    assert ([e.name for e in graph.topological_order()]
            == list(nx.lexicographical_topological_sort(g)))
    assert graph.levels() == oracle_levels(g)
    for name in graph.elements:
        assert graph.consumers(name) == sorted(g.successors(name))
        assert graph._ancestors(name) == nx.ancestors(g, name)


@settings(max_examples=300, deadline=None)
@given(dags(), st.data())
def test_cycles_are_rejected_naming_a_real_cycle(wiring, data):
    # an edge back from one of its descendants (or itself) closes a
    # cycle through ``head``
    head = data.draw(st.sampled_from(list(wiring)))
    dag = oracle(build(wiring))
    tail = data.draw(st.sampled_from(
        sorted(nx.descendants(dag, head) - {f"{n}_out" for n in wiring}
               | {head})))
    wiring[head] = wiring[head] + [tail]
    elements = build(wiring)
    g = oracle(elements)
    with pytest.raises(QueryError, match="cycle") as info:
        QueryGraph(elements)
    path = re.search(r"cycle: (.*)$", str(info.value)).group(1)
    cycle = path.split(" -> ")
    assert cycle and len(set(cycle)) == len(cycle)
    for producer, consumer in zip(cycle, cycle[1:] + cycle[:1]):
        assert g.has_edge(producer, consumer), (path, wiring)
