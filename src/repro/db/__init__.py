"""Storage backends: abstract SQL interface, SQLite and in-memory
columnar implementations, experiment schema, temp-table management,
retry policy and crash recovery.

The in-memory columnar backend is imported on first use: its names
resolve through the module ``__getattr__`` (PEP 562) and its
``BACKENDS`` entry imports it when called, so processes that only
touch SQLite never load it.
"""

from .backend import Database, DatabaseServer, quote_identifier
from .checksums import content_checksum, file_checksum
from .recovery import Finding, FsckReport, fsck
from .retry import (DEFAULT_POLICY, RetryPolicy, is_transient_lock,
                    retry_locked)
from .schema import (BatchContext, ExperimentStore, SCHEMA_VERSION,
                     variable_from_json, variable_to_json)
from .sqlite_backend import MemoryServer, SQLiteDatabase, SQLiteServer
from .temptables import TempTableManager

#: public names of :mod:`.memory_backend`, resolved on first access
_MEMORY_NAMES = frozenset({
    "MemoryDatabase", "MemoryDatabaseServer", "memory_server_for",
    "evict_memory_server", "clear_memory_servers"})


def __getattr__(name: str):
    if name in _MEMORY_NAMES:
        from . import memory_backend
        return getattr(memory_backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _memory_server_for(directory: str) -> DatabaseServer:
    from .memory_backend import memory_server_for
    return memory_server_for(directory)


#: selectable storage backends: name -> directory-based server factory.
#: Every entry takes the database directory (the "cluster directory")
#: and returns a :class:`DatabaseServer`; new backends register here
#: and become available to the CLI's ``--backend`` flag.
BACKENDS = {
    "sqlite": SQLiteServer,
    "memory": _memory_server_for,
}


def server_for_backend(backend: str, directory: str) -> DatabaseServer:
    """A :class:`DatabaseServer` of the named backend for a directory.

    ``sqlite`` opens the file-backed server; ``memory`` resolves the
    process-wide in-memory server registered for that directory (no
    cross-process persistence).
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(
            f"unknown backend {backend!r} (known: {known})") from None
    return factory(directory)


__all__ = [
    "BatchContext", "Database", "DatabaseServer", "quote_identifier",
    "content_checksum", "file_checksum", "ExperimentStore",
    "SCHEMA_VERSION", "variable_from_json", "variable_to_json",
    "MemoryServer", "SQLiteDatabase", "SQLiteServer",
    "MemoryDatabase", "MemoryDatabaseServer", "memory_server_for",
    "evict_memory_server", "clear_memory_servers",
    "BACKENDS", "server_for_backend",
    "TempTableManager", "Finding", "FsckReport", "fsck",
    "DEFAULT_POLICY", "RetryPolicy", "is_transient_lock",
    "retry_locked",
]
