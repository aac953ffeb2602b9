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
from .pushdown import ORD_PREFIX, FusionError, SelectFragment
from .vectors import ColumnInfo, DataVector

#: SQLite's default ``SQLITE_MAX_COMPOUND_SELECT``: a compound SELECT
#: with more operands fails to prepare, so a fused source over more
#: runs falls back to the per-run INSERT..SELECT path
MAX_COMPOUND_OPERANDS = 500

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

    def _split_specs(self, variables):
        """Partition parameter specs and results by occurrence."""
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
        return once_specs, multi_specs, once_results, multi_results

    def _run_where(self, variables,
                   once_specs) -> tuple[list[str], list[Any]]:
        """WHERE clauses + params selecting the matching runs (over
        aliases ``o`` = pb_once and ``r`` = pb_runs)."""
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
        return where, params

    def _matching_runs(self, store, variables, once_specs, shown_once,
                       once_results):
        """Fetch (run_index, shown-once values, once-result values)
        for every matching run, in run_index order."""
        once_cols = ["o.run_index"] + [
            f"o.{quote_identifier(s.name)}" for s in shown_once] + [
            f"o.{quote_identifier(v.name)}" for v in once_results]
        where, params = self._run_where(variables, once_specs)
        return store.db.fetchall(
            f"SELECT {', '.join(once_cols)} FROM pb_once o "
            "JOIN pb_runs r ON r.run_index = o.run_index "
            f"WHERE {' AND '.join(where)} ORDER BY o.run_index",
            params)

    def _dataset_where(self, variables, multi_specs,
                       multi_results) -> tuple[str, list[Any]]:
        """The per-run data-table WHERE clause (identical for every
        run): data-set filters plus the guard skipping rows that
        predate an added result variable (all-NULL in every requested
        column)."""
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
            dwhere.append("NOT (" + " AND ".join(
                f"{quote_identifier(v.name)} IS NULL"
                for v in multi_results) + ")")
        return ((" WHERE " + " AND ".join(dwhere)) if dwhere else "",
                dparams)

    def _vector_columns(self, variables, shown_once, shown_multi,
                        once_results, multi_results):
        """The output vector layout (also the insertion column order)."""
        columns: list[ColumnInfo] = []
        if self.include_run_index:
            columns.append(ColumnInfo("run_index", DataType.INTEGER,
                                      DIMENSIONLESS, "run index"))
        for s in shown_once:
            columns.append(ColumnInfo.from_variable(variables[s.name]))
        for s in shown_multi:
            columns.append(ColumnInfo.from_variable(variables[s.name]))
        for v in once_results + multi_results:
            columns.append(ColumnInfo.from_variable(v))
        return columns

    # -- execution ---------------------------------------------------------

    def run(self, ctx: QueryContext) -> DataVector:
        variables = ctx.experiment.variables
        store = ctx.experiment.store

        (once_specs, multi_specs, once_results,
         multi_results) = self._split_specs(variables)

        # --- select matching runs from the once-table -------------------
        shown_once = [s for s in once_specs if s.show or not s.is_filter]
        run_rows = self._matching_runs(store, variables, once_specs,
                                       shown_once, once_results)

        # --- output vector layout ----------------------------------------
        shown_multi = [s for s in multi_specs if s.show or not s.is_filter]
        columns = self._vector_columns(variables, shown_once, shown_multi,
                                       once_results, multi_results)

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
        where_sql, dparams = self._dataset_where(variables, multi_specs,
                                                 multi_results)
        needed = ([s.name for s in shown_multi]
                  + [v.name for v in multi_results])
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

    # -- SQL pushdown ------------------------------------------------------

    def can_fuse(self) -> bool:
        return True

    def fuse(self, ctx: QueryContext,
             inputs: Sequence[Any]) -> SelectFragment:
        """Express the retrieval itself as a composable SELECT.

        The unfused :meth:`run` issues one INSERT..SELECT per matching
        run — by far the largest statement count of any element, and
        pure per-statement overhead on warm data.  Fused, a source with
        per-data-set values becomes one UNION ALL of per-run operands
        over the shared data tables (run-level values ride along as
        bound constants), and a run-level-only source a single select
        over the once table.  Hidden ordinals pin the (run, data set)
        order, so a chain tail materialises rows in exactly the rowid
        order the source temp table would have had.
        """
        variables = ctx.experiment.variables
        store = ctx.experiment.store
        (once_specs, multi_specs, once_results,
         multi_results) = self._split_specs(variables)
        shown_once = [s for s in once_specs if s.show or not s.is_filter]
        shown_multi = [s for s in multi_specs if s.show or not s.is_filter]
        columns = self._vector_columns(variables, shown_once, shown_multi,
                                       once_results, multi_results)
        for c in columns:
            if c.name.startswith(ORD_PREFIX):
                raise FusionError(
                    f"column {c.name!r} collides with the "
                    f"{ORD_PREFIX}* ordinal namespace")
        if ctx.db is store.db:
            exp_prefix = ""
        else:
            alias = ctx.db.attach(store.db)
            if not alias:
                raise FusionError(
                    f"source {self.name!r}: experiment database is not "
                    "attachable from this node")
            exp_prefix = f"{alias}."

        if not (multi_results or shown_multi):
            # run-level values only: one row per matching run, straight
            # off the once table (run() assembles these rows in Python)
            where, params = self._run_where(variables, once_specs)
            sel = []
            if self.include_run_index:
                sel.append(f"o.run_index AS "
                           f"{quote_identifier('run_index')}")
            for name in ([s.name for s in shown_once]
                         + [v.name for v in once_results]):
                sel.append(f"o.{quote_identifier(name)} "
                           f"AS {quote_identifier(name)}")
            ordinal = f"{ORD_PREFIX}0"
            sel.append(f"o.run_index AS {quote_identifier(ordinal)}")
            sql = (f"SELECT {', '.join(sel)} FROM {exp_prefix}pb_once o "
                   f"JOIN {exp_prefix}pb_runs r "
                   "ON r.run_index = o.run_index "
                   f"WHERE {' AND '.join(where)}")
            return SelectFragment(
                sql, tuple(params), tuple(columns), (ordinal,),
                (ordinal,), from_source=True, scan_ordered=True,
                ord_rowid=False, producer=self.name)

        run_rows = self._matching_runs(store, variables, once_specs,
                                       shown_once, once_results)
        where_sql, dparams = self._dataset_where(variables, multi_specs,
                                                 multi_results)
        needed = ([s.name for s in shown_multi]
                  + [v.name for v in multi_results])
        ord0, ord1 = f"{ORD_PREFIX}0", f"{ORD_PREFIX}1"
        operands: list[str] = []
        params: list[Any] = []
        for position, run_row in enumerate(run_rows):
            run_index = int(run_row[0])
            once_shown_vals = list(run_row[1:1 + len(shown_once)])
            once_result_vals = list(run_row[1 + len(shown_once):])
            data_table = store.run_table(run_index)
            if not store.db.table_exists(data_table):
                continue
            available = set(store.db.table_columns(data_table))
            if any(n not in available for n in needed):
                continue  # run predates these variables
            sel = []
            op_params: list[Any] = []
            if self.include_run_index:
                sel.append(f"? AS {quote_identifier('run_index')}")
                op_params.append(run_index)
            for s, value in zip(shown_once, once_shown_vals):
                sel.append(f"? AS {quote_identifier(s.name)}")
                op_params.append(value)
            sel += [f"{quote_identifier(s.name)} "
                    f"AS {quote_identifier(s.name)}" for s in shown_multi]
            for v, value in zip(once_results, once_result_vals):
                sel.append(f"? AS {quote_identifier(v.name)}")
                op_params.append(value)
            sel += [f"{quote_identifier(v.name)} "
                    f"AS {quote_identifier(v.name)}"
                    for v in multi_results]
            sel.append(f"? AS {quote_identifier(ord0)}")
            op_params.append(position)
            sel.append(f"{quote_identifier('dataset_index')} "
                       f"AS {quote_identifier(ord1)}")
            operands.append(
                f"SELECT {', '.join(sel)} FROM "
                f"{exp_prefix}{quote_identifier(data_table)}{where_sql}")
            params.extend(op_params)
            params.extend(dparams)
        if not operands:
            raise FusionError(
                f"source {self.name!r}: no matching runs — the "
                "temp-table path produces the empty vector")
        if len(operands) > MAX_COMPOUND_OPERANDS:
            raise FusionError(
                f"source {self.name!r}: {len(operands)} runs exceed "
                f"the {MAX_COMPOUND_OPERANDS}-operand compound SELECT "
                "limit")
        # each operand scans its run table in rowid (== dataset_index)
        # order and both engines emit UNION ALL operands left to right,
        # so the natural emission order is the unfused insertion order
        return SelectFragment(
            " UNION ALL ".join(operands), tuple(params), tuple(columns),
            (ord0, ord1), (ord0, ord1), from_source=True,
            scan_ordered=True, ord_rowid=False, rescan_cheap=False,
            producer=self.name)
