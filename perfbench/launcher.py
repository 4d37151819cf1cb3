"""Traced daemon launcher: time public layer functions, then serve.

Usage (from the root of a source checkout, ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py --trace-dir DIR -- serve --store S ...

Wraps the functions in :data:`TRACED` with wall-clock timers, then
calls ``repro.cli.main`` with the arguments after ``--``.  Shard
workers are forked from this process and inherit the wrappers; each
worker zeroes the totals it inherited when it starts serving.

On ``SIGUSR1`` every process of the daemon tree writes its totals to
``DIR/<pid>.json`` (atomically, with a snapshot sequence number), so
the benchmark can take a snapshot before and after its measured phase
and keep the difference.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

#: (module, attribute path, trace name).  A dotted attribute path
#: names a method, patched on its class; a plain one names a function,
#: patched in every loaded ``repro`` module that bound it by name.
TRACED = (
    ("repro.core.alignment", "FlatPool.__init__", "flatpool"),
    ("repro.kernels.profile", "pool_profile_arrays", "pool_profile"),
    ("repro.core.hypothesis", "rejection_pvalue_batch", "pb_tail"),
    ("repro.core.hypothesis", "acceptance_pvalue_batch", "pb_tail"),
    ("repro.service.shard", "merge_partials", "merge"),
    ("repro.store.store", "TrajectoryStore.load", "store_load"),
    ("repro.store.store", "TrajectoryStore.append", "store_append"),
    ("repro.store.stindex", "SpatioTemporalIndex.affected_ids", "stindex_probe"),
    ("repro.stream.deltas", "DeltaLog.append_block", "delta_block"),
    ("repro.stream.standing", "StandingQueryRegistry.apply_update", "rescore"),
    ("repro.core.streaming", "StreamingLinker.decisions", "decide"),
    ("repro.assign.graph", "graph_from_link_results", "assign_graph"),
)


class Totals:
    """Per-process call counts and seconds per trace name."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.snapshots = 0

    def add(self, name: str, seconds: float) -> None:
        with self.lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def reset(self) -> None:
        with self.lock:
            self.calls.clear()
            self.seconds.clear()
            self.snapshots = 0

    def dump(self, trace_dir: Path) -> None:
        with self.lock:
            self.snapshots += 1
            payload = {
                "pid": os.getpid(),
                "snapshot": self.snapshots,
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
            }
        path = trace_dir / f"{os.getpid()}.json"
        tmp = trace_dir / f".{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


def _timed(fn, name: str, totals: Totals):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals.add(name, time.perf_counter() - started)

    return wrapper


def _timed_link_requests(fn, totals: Totals):
    """``ShardSupervisor.link_requests``: wall time and slowest worker.

    ``rpc`` accumulates the call's wall time minus its slowest shard's
    reported ``elapsed_ms``: scatter, pickling, socket transfer and
    merging, i.e. everything the coordinator adds to the critical path.
    """

    @functools.wraps(fn)
    def wrapper(self, requests):
        started = time.perf_counter()
        out = fn(self, requests)
        wall = time.perf_counter() - started
        slowest = max(
            (info.elapsed_ms for _, infos in out for info in infos),
            default=0.0,
        ) / 1e3
        totals.add("rpc", wall - slowest)
        return out

    return wrapper


def install(totals: Totals, trace_dir: Path) -> None:
    """Patch every traced function and the worker entry point."""
    import importlib

    import repro.cli  # noqa: F401 - loads the modules that bind names
    import repro.assign
    import repro.service.server  # noqa: F401
    import repro.service.supervisor as supervisor
    import repro.stream  # noqa: F401

    for module_name, attr, name in TRACED:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _timed(getattr(cls, meth), name, totals))
            continue
        original = getattr(module, attr)
        wrapped = _timed(original, name, totals)
        for loaded in list(sys.modules.values()):
            if (
                getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, attr, None) is original
            ):
                setattr(loaded, attr, wrapped)
    cls = supervisor.ShardSupervisor
    cls.link_requests = _timed_link_requests(cls.link_requests, totals)
    run_worker = supervisor.run_worker

    def traced_run_worker(*args, **kwargs):
        totals.reset()  # a forked worker starts from the parent's totals
        return run_worker(*args, **kwargs)

    supervisor.run_worker = traced_run_worker
    signal.signal(signal.SIGUSR1, lambda signum, frame: totals.dump(trace_dir))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True, type=Path)
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_argv = args.serve_argv
    if serve_argv[:1] == ["--"]:
        serve_argv = serve_argv[1:]
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    install(Totals(), args.trace_dir)
    from repro.cli import main as cli_main

    return cli_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main())
