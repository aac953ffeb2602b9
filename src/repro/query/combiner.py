"""The combiner element.

Section 3.3.3: "A combiner element is used to merge two input vectors
into one output vector.  All result values of the two input vectors are
passed to the new output vector.  Duplicate input parameters (parameters
that exist in both input vectors) are removed by default.  Combiners are
sometimes required to match output vectors to the requirements of an
operator's input vector."

The merge joins on the shared parameter columns (positionally when there
are none).  Result columns occurring in both inputs are disambiguated by
suffixing the producing element's name — which is what lets two query
branches (e.g. old vs. new I/O technique) be compared side by side.
"""

from __future__ import annotations

from typing import Sequence

from ..core.datatypes import sql_type
from ..db.backend import quote_identifier
from .elements import QueryContext, QueryElement
from .vectors import ColumnInfo, DataVector

__all__ = ["Combiner"]


class Combiner(QueryElement):
    """Merges exactly two input vectors into one."""

    kind = "combiner"

    def __init__(self, name: str, inputs: Sequence[str] = (), *,
                 keep_duplicate_parameters: bool = False):
        super().__init__(name, list(inputs))
        self.keep_duplicate_parameters = keep_duplicate_parameters

    def spec(self) -> dict:
        spec = super().spec()
        spec["keep_duplicate_parameters"] = self.keep_duplicate_parameters
        # the disambiguation suffix of duplicate result columns uses the
        # producing elements' names, so they are part of the output shape
        spec["producer_names"] = list(self.inputs)
        return spec

    def run(self, ctx: QueryContext) -> DataVector:
        self._require_inputs(2, 2)
        left, right = self.input_vectors(ctx)

        shared = [p.name for p in left.parameters
                  if right.has_column(p.name)
                  and not right.column(p.name).is_result]

        out_cols: list[ColumnInfo] = list(left.parameters)
        sel: list[str] = [f"a.{quote_identifier(p.name)}"
                          for p in left.parameters]
        taken = {c.name for c in out_cols}
        for p in right.parameters:
            column = f"b.{quote_identifier(p.name)}"
            if p.name not in taken:
                taken.add(p.name)
            elif self.keep_duplicate_parameters:
                p = p.renamed(self._unique(
                    p.name, right.producer or "b", taken))
            else:
                continue
            out_cols.append(p)
            sel.append(column)

        for alias, vector in (("a", left), ("b", right)):
            for c in vector.results:
                original = c.name
                if c.name in taken:
                    c = c.renamed(self._unique(
                        c.name, vector.producer or alias, taken))
                else:
                    taken.add(c.name)
                out_cols.append(c)
                sel.append(f"{alias}.{quote_identifier(original)}")

        table = ctx.temptables.new_table(
            self.name, [(c.name, sql_type(c.datatype)) for c in out_cols])
        lt = quote_identifier(left.table)
        rt = quote_identifier(right.table)
        if shared:
            cond = " AND ".join(
                f"a.{quote_identifier(c)} = b.{quote_identifier(c)}"
                for c in shared)
        else:
            cond = "a.rowid = b.rowid"
        # ORDER BY pins duplicate-key join output, which is otherwise
        # backend-planner-dependent.
        ctx.db.execute(
            f"INSERT INTO {quote_identifier(table)} "
            f"SELECT {', '.join(sel)} FROM {lt} a JOIN {rt} b ON {cond} "
            f"ORDER BY a.rowid, b.rowid")
        return DataVector(ctx.db, table, out_cols, producer=self.name)

    @staticmethod
    def _unique(name: str, producer: str, taken: set[str]) -> str:
        safe = "".join(ch if ch.isalnum() else "_" for ch in producer)
        candidate = f"{name}_{safe}"
        n = 2
        while candidate in taken:
            candidate = f"{name}_{safe}{n}"
            n += 1
        taken.add(candidate)
        return candidate
