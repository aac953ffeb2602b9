"""The source element: retrieving data from the experiment database.

Section 3.3.1: "They retrieve data from the database based on limiting
properties of zero or more input parameters or the time stamp or index
of a run, all given by *parameter* and *run* elements of the query
specification.  The output of a source element is a vector of data
tuples which match the specified criteria.  Each data tuple consists of
the input parameters by which the database access was filtered and the
result values that were specified in the source definition."

A :class:`ParameterSpec` with a value filters; one without a value only
adds the parameter as an output dimension (needed for parameter sweeps).
Filters on once-occurrence parameters restrict which *runs* contribute;
filters on multiple-occurrence parameters restrict *data sets* within
each run.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, Sequence

from ..core.datatypes import DataType
from ..core.errors import QueryError
from ..core.units import DIMENSIONLESS
from ..core.variables import Occurrence
from ..db.backend import quote_identifier
from ..db.schema import _encode_value  # shared cell encoding
from .elements import QueryContext, QueryElement
from .vectors import ColumnInfo, DataVector

__all__ = ["ParameterSpec", "RunFilter", "Source"]

_OPS = {"==": "=", "=": "=", "!=": "<>", "<>": "<>",
        "<": "<", "<=": "<=", ">": ">", ">=": ">=", "like": "LIKE"}


def _spec_value(value: Any) -> Any:
    """Canonical JSON-able form of a filter value for fingerprinting."""
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, (set, frozenset)):
        return sorted((_spec_value(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_spec_value(v) for v in value]
    return value


@dataclass
class ParameterSpec:
    """One ``<parameter>`` element of a source definition.

    ``value=None`` makes this a pure output dimension.  ``op`` may be
    any comparison of :data:`_OPS` or ``"in"`` with a sequence value.
    ``show`` controls whether a filtered parameter appears in the output
    tuple (default true, per the paper's wording).
    """

    name: str
    value: Any = None
    op: str = "=="
    show: bool = True

    @property
    def is_filter(self) -> bool:
        return self.value is not None


@dataclass
class RunFilter:
    """The ``<run>`` element: restrict by run index or time stamp."""

    indices: Sequence[int] | None = None
    min_index: int | None = None
    max_index: int | None = None
    since: datetime | None = None
    until: datetime | None = None

    def sql(self) -> tuple[str, list[Any]]:
        clauses: list[str] = []
        params: list[Any] = []
        if self.indices is not None:
            marks = ", ".join(["?"] * len(list(self.indices)))
            clauses.append(f"r.run_index IN ({marks})")
            params.extend(int(i) for i in self.indices)
        if self.min_index is not None:
            clauses.append("r.run_index >= ?")
            params.append(int(self.min_index))
        if self.max_index is not None:
            clauses.append("r.run_index <= ?")
            params.append(int(self.max_index))
        if self.since is not None:
            clauses.append("r.created >= ?")
            params.append(self.since.strftime("%Y-%m-%d %H:%M:%S.%f"))
        if self.until is not None:
            clauses.append("r.created <= ?")
            params.append(self.until.strftime("%Y-%m-%d %H:%M:%S.%f"))
        return " AND ".join(clauses), params


class Source(QueryElement):
    """Retrieves a data vector from the experiment's stored runs."""

    kind = "source"

    def __init__(self, name: str, *,
                 parameters: Sequence[ParameterSpec] = (),
                 results: Sequence[str] = (),
                 runs: RunFilter | None = None,
                 include_run_index: bool = False):
        super().__init__(name, inputs=[])
        self.parameters = list(parameters)
        self.results = list(results)
        self.runs = runs
        self.include_run_index = include_run_index
        if not self.results:
            raise QueryError(
                f"source {name!r} needs at least one result value")

    # -- fingerprinting ----------------------------------------------------

    def spec(self) -> dict[str, Any]:
        spec = super().spec()
        spec.update({
            "parameters": [[s.name, s.op, _spec_value(s.value),
                            bool(s.show)] for s in self.parameters],
            "results": list(self.results),
            "runs": None if self.runs is None else {
                "indices": (None if self.runs.indices is None
                            else [int(i) for i in self.runs.indices]),
                "min_index": self.runs.min_index,
                "max_index": self.runs.max_index,
                "since": _spec_value(self.runs.since),
                "until": _spec_value(self.runs.until),
            },
            "include_run_index": self.include_run_index,
        })
        return spec

    # -- helpers ---------------------------------------------------------

    def _filter_sql(self, spec: ParameterSpec, column: str,
                    datatype) -> tuple[str, list[Any]]:
        if spec.op == "in":
            values = [
                _encode_value(v, datatype) for v in spec.value]
            marks = ", ".join(["?"] * len(values))
            return f"{column} IN ({marks})", values
        try:
            sql_op = _OPS[spec.op]
        except KeyError:
            raise QueryError(
                f"source {self.name!r}: unknown filter operator "
                f"{spec.op!r}") from None
        return (f"{column} {sql_op} ?",
                [_encode_value(spec.value, datatype)])

    # -- execution ---------------------------------------------------------

    def run(self, ctx: QueryContext) -> DataVector:
        variables = ctx.experiment.variables
        store = ctx.experiment.store

        once_specs: list[ParameterSpec] = []
        multi_specs: list[ParameterSpec] = []
        for spec in self.parameters:
            var = variables[spec.name]
            if var.is_result:
                raise QueryError(
                    f"source {self.name!r}: {spec.name!r} is a result, "
                    "use results= for it")
            if var.occurrence is Occurrence.ONCE:
                once_specs.append(spec)
            else:
                multi_specs.append(spec)

        once_results = [variables[r] for r in self.results
                        if variables[r].occurrence is Occurrence.ONCE]
        multi_results = [variables[r] for r in self.results
                         if variables[r].occurrence is Occurrence.MULTIPLE]

        # --- select matching runs from the once-table -------------------
        shown_once = [s for s in once_specs if s.show or not s.is_filter]
        once_cols = ["o.run_index"] + [
            f"o.{quote_identifier(s.name)}" for s in shown_once] + [
            f"o.{quote_identifier(v.name)}" for v in once_results]
        where: list[str] = ["r.active = 1"]
        params: list[Any] = []
        for spec in once_specs:
            if spec.is_filter:
                clause, p = self._filter_sql(
                    spec, f"o.{quote_identifier(spec.name)}",
                    variables[spec.name].datatype)
                where.append(clause)
                params.extend(p)
        if self.runs is not None:
            clause, p = self.runs.sql()
            if clause:
                where.append(clause)
                params.extend(p)
        run_rows = store.db.fetchall(
            f"SELECT {', '.join(once_cols)} FROM pb_once o "
            "JOIN pb_runs r ON r.run_index = o.run_index "
            f"WHERE {' AND '.join(where)} ORDER BY o.run_index",
            params)

        # --- output vector layout ----------------------------------------
        columns: list[ColumnInfo] = []
        if self.include_run_index:
            columns.append(ColumnInfo("run_index", DataType.INTEGER,
                                      DIMENSIONLESS, "run index"))
        for s in shown_once:
            columns.append(ColumnInfo.from_variable(variables[s.name]))
        shown_multi = [s for s in multi_specs if s.show or not s.is_filter]
        for s in shown_multi:
            columns.append(ColumnInfo.from_variable(variables[s.name]))
        for v in once_results + multi_results:
            columns.append(ColumnInfo.from_variable(v))

        # --- per-run data-set filter (identical for every run) -----------
        dwhere: list[str] = []
        dparams: list[Any] = []
        for spec in multi_specs:
            if spec.is_filter:
                clause, p = self._filter_sql(
                    spec, quote_identifier(spec.name),
                    variables[spec.name].datatype)
                dwhere.append(clause)
                dparams.extend(p)
        if multi_results:
            # runs predating an added result variable carry NULL in
            # every requested column — skip those rows
            dwhere.append("NOT (" + " AND ".join(
                f"{quote_identifier(v.name)} IS NULL"
                for v in multi_results) + ")")
        where_sql = " WHERE " + " AND ".join(dwhere) if dwhere else ""
        needed = ([s.name for s in shown_multi]
                  + [v.name for v in multi_results])

        from ..core.datatypes import sql_type
        table = ctx.temptables.new_table(
            self.name, [(c.name, sql_type(c.datatype)) for c in columns])

        # --- per matching run: pull data sets ------------------------------
        # Fast path: "source elements do only perform simple read
        # access on the shared database tables, and write data into
        # independent temporary tables" (Section 4.3) — one
        # INSERT..SELECT per run, entirely inside the SQL engine.  When
        # the element runs on another node's database, the experiment
        # database is attached (the stand-in for socket access to the
        # frontend server); if that is impossible, rows are fetched
        # through Python instead.
        if ctx.db is store.db:
            exp_prefix = ""
        else:
            alias = ctx.db.attach(store.db)
            exp_prefix = f"{alias}." if alias else None

        out_rows: list[list[Any]] = []
        col_names = [c.name for c in columns]
        for run_row in run_rows:
            run_index = int(run_row[0])
            once_shown_vals = list(run_row[1:1 + len(shown_once)])
            once_result_vals = list(run_row[1 + len(shown_once):])
            prefix: list[Any] = []
            if self.include_run_index:
                prefix.append(run_index)
            prefix.extend(once_shown_vals)

            if multi_results or shown_multi:
                data_table = store.run_table(run_index)
                if not store.db.table_exists(data_table):
                    continue
                available = set(store.db.table_columns(data_table))
                if any(n not in available for n in needed):
                    continue  # run predates these variables
                n_shown = len(shown_multi)
                sel_cols = [quote_identifier(n) for n in needed]
                if exp_prefix is not None:
                    # SQL-side: constants for the run-level values,
                    # table columns for the data-set values
                    shown_sel = sel_cols[:n_shown]
                    result_sel = sel_cols[n_shown:]
                    consts_prefix = ["?"] * len(prefix)
                    consts_once = ["?"] * len(once_result_vals)
                    select = ", ".join(consts_prefix + shown_sel
                                       + consts_once + result_sel)
                    ctx.db.execute(
                        f"INSERT INTO {quote_identifier(table)} "
                        f"SELECT {select} FROM "
                        f"{exp_prefix}{quote_identifier(data_table)}"
                        f"{where_sql} ORDER BY dataset_index",
                        prefix + once_result_vals + dparams)
                else:
                    sql = (f"SELECT {', '.join(sel_cols)} FROM "
                           f"{quote_identifier(data_table)}{where_sql}"
                           " ORDER BY dataset_index")
                    for drow in store.db.fetchall(sql, dparams):
                        out_rows.append(
                            prefix + list(drow[:n_shown])
                            + once_result_vals + list(drow[n_shown:]))
            else:
                out_rows.append(prefix + once_result_vals)

        if out_rows:
            ctx.db.insert_rows(table, col_names, out_rows)
        return DataVector(ctx.db, table, columns, from_source=True,
                          producer=self.name)
