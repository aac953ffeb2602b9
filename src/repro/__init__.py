"""repro — reproduction of perfbase (Worringen, CLUSTER 2005).

An experiment management and analysis system: ASCII output files of
benchmark runs are parsed per XML input descriptions into a per-experiment
SQL database; XML query specifications wire source/operator/combiner/
output elements into analysis pipelines producing plots and tables.

Public entry points::

    from repro import Experiment, MemoryServer, SQLiteServer
    from repro.parse import Importer, InputDescription
    from repro.query import Query
    from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                             parse_query_xml)
"""

from .core import (DataType, Experiment, ExperimentInfo, Occurrence,
                   Parameter, PerfbaseError, Person, Result, RunData, Unit,
                   UserClass, Variable, VariableSet)
from .db import MemoryServer, SQLiteServer

__version__ = "1.0.0"


def __getattr__(name: str):
    # the in-memory columnar backend loads on first use (see repro.db)
    if name == "MemoryDatabaseServer":
        from . import db
        return db.MemoryDatabaseServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DataType", "Experiment", "ExperimentInfo", "Occurrence", "Parameter",
    "PerfbaseError", "Person", "Result", "RunData", "Unit", "UserClass",
    "Variable", "VariableSet", "MemoryServer", "SQLiteServer",
    "MemoryDatabaseServer",
    "__version__",
]
