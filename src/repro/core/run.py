"""Runs and data sets.

"Each execution of the software is a *run* within the experiment, and is
stored as a set of input parameters and result values. [...] Such vectors
of parameters and results are typically related element-wise when they
represent the columns of a table.  Each tuple of vector elements is then
called a *data set*." (Section 3)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Iterable, Iterator, Mapping

from .errors import DefinitionError, InputError
from .variables import Occurrence, VariableSet

__all__ = ["DataSet", "RunData", "RunRecord"]


@dataclass(frozen=True)
class DataSet:
    """One tuple of element-wise related multi-occurrence content.

    A data set maps variable names to the values of one table row of the
    input file (e.g. one line of the ``b_eff_io`` result table).
    """

    values: tuple[tuple[str, Any], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "DataSet":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Any]:
        return dict(self.values)

    def __getitem__(self, name: str) -> Any:
        for key, value in self.values:
            if key == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.values)

    def names(self) -> list[str]:
        return [key for key, _ in self.values]


class RunData:
    """The content of one run before it is stored: once-values plus a
    list of data sets.

    This is what the import engine produces from input files and what the
    storage layer persists.  Validation against the experiment's variable
    set happens in :meth:`validate`.
    """

    def __init__(self,
                 once: Mapping[str, Any] | None = None,
                 datasets: Iterable[Mapping[str, Any]] | None = None,
                 source_files: Iterable[str] = (),
                 created: datetime | None = None):
        #: values of once-occurrence variables
        self.once: dict[str, Any] = dict(once or {})
        #: list of data sets (dicts of multiple-occurrence variable values)
        self.datasets: list[dict[str, Any]] = [
            dict(ds) for ds in (datasets or [])]
        #: names of the input files the run was imported from
        self.source_files: list[str] = list(source_files)
        #: content checksums per source file (duplicate-import guard);
        #: filled by the importer, may be missing for programmatic runs
        self.file_checksums: dict[str, str | None] = {}
        self.created = created

    def merge(self, other: "RunData") -> None:
        """Merge another partial run into this one (Fig. 1 case d: data
        from multiple input files forms a single run).

        Once-values must not conflict; data sets are concatenated.
        """
        for name, value in other.once.items():
            if name in self.once and self.once[name] != value:
                raise InputError(
                    f"conflicting content for once-variable {name!r} when "
                    f"merging inputs: {self.once[name]!r} vs {value!r}")
            self.once[name] = value
        self.datasets.extend(other.datasets)
        self.source_files.extend(other.source_files)
        self.file_checksums.update(other.file_checksums)

    def validate(self, variables: VariableSet, *,
                 require_all: bool = False,
                 use_defaults: bool = True) -> list[str]:
        """Validate & normalise this run against the experiment variables.

        Values are coerced to their declared datatype and checked against
        whitelists.  Behaviour for variables without content follows
        Section 3.2: with ``use_defaults`` missing once-variables take
        their declared default; variables may also stay without content
        — unless ``require_all`` is set, in which case the list of
        missing names makes the run rejectable by the caller.

        Returns the names of variables that ended up without content.
        """
        missing = self.missing_content(variables,
                                       use_defaults=use_defaults)
        for var in variables:
            if var.occurrence is Occurrence.ONCE:
                if var.name in self.once:
                    self.once[var.name] = var.coerce(self.once[var.name])
                elif use_defaults and var.default is not None:
                    self.once[var.name] = var.default
            elif (use_defaults and var.default is not None
                  and not any(var.name in ds for ds in self.datasets)):
                for ds in self.datasets:
                    ds[var.name] = var.default
        for ds in self.datasets:
            for name in list(ds):
                var = variables[name]
                if var.occurrence is not Occurrence.MULTIPLE:
                    raise InputError(
                        f"once-variable {name!r} appears in a data set")
                ds[name] = var.coerce(ds[name])
        for name in self.once:
            if name not in variables:
                raise DefinitionError(
                    f"run contains unknown variable {name!r}")
            if variables[name].occurrence is not Occurrence.ONCE:
                raise InputError(
                    f"multiple-occurrence variable {name!r} has "
                    "once-content")
        if require_all and missing:
            raise InputError(
                "input provides no content for variables: "
                + ", ".join(sorted(missing)))
        return missing

    def missing_content(self, variables: VariableSet, *,
                        use_defaults: bool = True) -> list[str]:
        """Names of the variables this run provides no content for and
        that no default fills — what :meth:`validate` reports.  The
        answer is the same before and after validation."""
        return [var.name for var in variables
                if not (use_defaults and var.default is not None)
                and not (var.name in self.once
                         if var.occurrence is Occurrence.ONCE
                         else any(var.name in ds
                                  for ds in self.datasets))]

    def __len__(self) -> int:
        return len(self.datasets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunData(once={len(self.once)} vars, "
                f"{len(self.datasets)} datasets)")


@dataclass(frozen=True)
class RunRecord:
    """A stored run as listed by status retrieval: index, creation time,
    source files and the synopsis of its once-content."""

    index: int
    created: datetime
    source_files: tuple[str, ...]
    n_datasets: int
    once: Mapping[str, Any] = field(default_factory=dict)

    def __iter__(self) -> Iterator:
        return iter((self.index, self.created, self.source_files,
                     self.n_datasets))
