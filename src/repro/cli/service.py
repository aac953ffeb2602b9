"""CLI face of the multi-tenant experiment service.

``perfbase service stat`` shows the shared front door a deployment
would run — resolved configuration, the experiments it routes to and a
live counter/gauge snapshot after an optional probe session.
``perfbase service stress`` drives the concurrent-client stress
harness (:mod:`repro.service.stress`) against a scratch directory:
hundreds of clients over several shards, optionally under an injected
fault plan, verifying zero lost/phantom/corrupted runs and
result-identity with the direct path.  :mod:`repro.service` is
imported on first use, inside the commands.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from typing import TYPE_CHECKING

from .common import (CommandError, add_dbdir_argument, add_obs_arguments,
                     echo, obs_session, open_server)

if TYPE_CHECKING:
    from ..service import ServiceConfig

__all__ = ["cmd_service", "register_service"]


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    from ..service import ServiceConfig
    kw = {}
    if getattr(args, "max_sessions", None):
        kw["max_sessions"] = args.max_sessions
    if getattr(args, "admission_timeout", None) is not None:
        kw["admission_timeout"] = args.admission_timeout
    if getattr(args, "pool", None):
        kw["connections_per_shard"] = args.pool
    return ServiceConfig(**kw)


def _cmd_stat(args: argparse.Namespace) -> int:
    from ..service import ExperimentService
    server = open_server(args)
    with ExperimentService(args.dbdir, server=server,
                           config=_service_config(args)) as service:
        experiments = sorted(service.experiments())
        if args.probe and experiments:
            # one round-trip per experiment proves the session path
            # end to end and populates the shard/counter snapshot
            with service.session(args.user) as session:
                for name in experiments:
                    session.n_runs(name)
        stats = service.stats()
        if args.json:
            echo(json.dumps({"experiments": experiments, **stats},
                            indent=2, sort_keys=True))
            return 0
        echo(f"service over {stats['backend']}:{stats['directory']}")
        cfg = stats["config"]
        echo(f"  max sessions        {cfg['max_sessions']}")
        echo(f"  admission timeout   {cfg['admission_timeout']}s")
        echo(f"  connections/shard   {cfg['connections_per_shard']}")
        echo(f"  experiments (shards) [{len(experiments)}]:")
        for name in experiments:
            shard = stats["shards"].get(name)
            if shard is None:
                echo(f"    {name}  (not yet routed)")
            else:
                echo(f"    {name}  width={shard['width']} "
                     f"opened={shard['opened']} idle={shard['idle']}")
        if stats["counters"]:
            echo("  counters:")
            for key in sorted(stats["counters"]):
                echo(f"    {key} = {stats['counters'][key]:g}")
    return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    from ..service import StressOptions, run_stress
    directory = args.dbdir
    if args.scratch:
        directory = tempfile.mkdtemp(prefix="perfbase_stress_")
        echo(f"stress scratch directory: {directory}")
    options = StressOptions(clients=args.clients, shards=args.shards,
                            ops_per_client=args.ops,
                            faults=args.faults, seed=args.seed,
                            config=_service_config(args))
    with obs_session(args):
        report = run_stress(directory, backend=args.backend,
                            options=options)
    d = report.as_dict()
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(d, fh, indent=2, sort_keys=True)
        echo(f"wrote report to {args.json_out}")
    echo(f"{report.clients} clients x {options.ops_per_client} ops over "
         f"{report.shards} shards in {report.wall_s:.2f}s")
    echo(f"  completed {report.ops_completed}/{report.ops_attempted} ops, "
         f"stored {report.stored_runs} runs "
         f"(verified {report.verified_runs})")
    echo(f"  denied {report.denied_ops}, failed {report.failed_ops}, "
         f"rejected {report.rejections}")
    for problem in report.problems[:10]:
        echo(f"  PROBLEM: {problem}")
    echo("stress: OK" if report.ok else "stress: FAILED")
    return 0 if report.ok else 1


def cmd_service(args: argparse.Namespace) -> int:
    if args.action == "stat":
        return _cmd_stat(args)
    if args.action == "stress":
        return _cmd_stress(args)
    raise CommandError(f"unknown service action {args.action!r}")


def register_service(sub) -> None:
    """Register the ``service`` subcommand."""
    p = sub.add_parser(
        "service",
        help="multi-tenant experiment service: stat / stress")
    p.add_argument("action", choices=("stat", "stress"))
    p.add_argument("--user", default=None,
                   help="identity for the probe session (stat; "
                        "default: the invoking user)")
    p.add_argument("--probe", action="store_true",
                   help="open one session and touch every experiment "
                        "before printing stats")
    p.add_argument("--json", action="store_true",
                   help="emit the stat snapshot as JSON")
    p.add_argument("--clients", type=int, default=200, metavar="N",
                   help="stress: concurrent clients (default 200)")
    p.add_argument("--shards", type=int, default=4, metavar="N",
                   help="stress: experiment shards (default 4)")
    p.add_argument("--ops", type=int, default=3, metavar="N",
                   help="stress: operations per client (default 3)")
    p.add_argument("--faults", metavar="PLAN",
                   help="stress: fault plan, e.g. "
                        "'seed=7;lock@db.run:p=0.02'")
    p.add_argument("--seed", type=int, default=0,
                   help="stress: client-mix seed (default 0)")
    p.add_argument("--scratch", action="store_true",
                   help="stress: use a throwaway directory instead of "
                        "--dbdir")
    p.add_argument("--json-out", metavar="FILE",
                   help="stress: write the report as JSON to FILE")
    p.add_argument("--max-sessions", type=int, metavar="N",
                   help="service config: bounded session slots")
    p.add_argument("--admission-timeout", type=float, metavar="S",
                   help="service config: admission queue timeout")
    p.add_argument("--pool", type=int, metavar="N",
                   help="service config: pooled connections per shard")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_service)
