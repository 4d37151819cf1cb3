"""Inputs and daemons for the benchmark: scenario, store, model, process.

Everything here runs from the root of a source checkout with ``src/`` on
``sys.path`` (``run.py`` arranges that).  The synthetic scenario is the
expensive, untimed part and is cached per seed under ``.bench_cache/``;
stores and daemon logs live under ``.bench_work/``.  Both directories
sit inside the checkout and are ignored by git.
"""

from __future__ import annotations

import os
import pickle
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import wire

#: The bench_service_load recipe at 10x the agents: 2000 taxi agents
#: over 5 days, P at 0.8 records/h, Q at 0.4 records/h, 50 m GPS noise.
N_AGENTS = 2000
N_DAYS = 5
RATE_P = 0.8
RATE_Q = 0.4
NOISE_M = 50.0
#: Bump when the recipe changes so stale caches are not reused.
CACHE_VERSION = 1

#: Serving options every workload's daemon is started with; the
#: in-process oracles use the same ones.
TOP_K = 10

ROOT = Path.cwd()
CACHE_DIR = ROOT / ".bench_cache"
WORK_DIR = ROOT / ".bench_work"


def generate_scenario(seed: int):
    """The paired (P, Q) scenario for ``seed``, generated or cached."""
    from repro.geo.units import days_to_seconds
    from repro.synth.city import CityModel
    from repro.synth.noise import GaussianNoise
    from repro.synth.observation import ObservationService
    from repro.synth.population import generate_population
    from repro.synth.scenario import make_paired_databases

    path = CACHE_DIR / f"scenario-v{CACHE_VERSION}-seed{seed}.pkl"
    if path.is_file():
        with path.open("rb") as fh:
            return pickle.load(fh)
    rng = np.random.default_rng(seed)
    city = CityModel.generate(rng)
    agents = generate_population(
        city, N_AGENTS, days_to_seconds(N_DAYS), rng, mobility="taxi"
    )
    pair = make_paired_databases(
        agents,
        ObservationService("P", rate_per_hour=RATE_P, noise=GaussianNoise(NOISE_M)),
        ObservationService("Q", rate_per_hour=RATE_Q, noise=GaussianNoise(NOISE_M)),
        rng,
    )
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with tmp.open("wb") as fh:
        pickle.dump(pair, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return pair


def build_store(path: Path, pool, fit_dbs, seed: int):
    """Store + ST index + activated model artifact; returns the store."""
    from repro.config import FTLConfig
    from repro.core.database import TrajectoryDatabase
    from repro.store import TrajectoryStore, fit_model_artifact

    db = pool if isinstance(pool, TrajectoryDatabase) else TrajectoryDatabase(
        pool, name="Q"
    )
    store = TrajectoryStore.create(path, db=db, name="Q")
    store.build_index()
    artifact = fit_model_artifact(
        fit_dbs, FTLConfig(), np.random.default_rng(seed)
    )
    store.save_model(artifact, created_at=0.0, activate=True)
    return store


def src_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Same string hashing in every daemon: one less run-to-run variable.
    env["PYTHONHASHSEED"] = "0"
    return env


class Daemon:
    """One ``repro.cli serve`` process tree, started and stopped cleanly.

    ``trace_dir`` starts it through the benchmark's traced launcher
    instead of ``python -m repro.cli``; the serve arguments are the same.
    """

    def __init__(
        self,
        store_dir: Path,
        workers: int,
        log_path: Path,
        extra_args: tuple[str, ...] = (),
        trace_dir: Path | None = None,
    ) -> None:
        serve = [
            "serve", "--store", str(store_dir), "--port", "0",
            "--workers", str(workers), "--top-k", str(TOP_K), *extra_args,
        ]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = Path(__file__).resolve().parent / "launcher.py"
            argv = [
                sys.executable, str(launcher), "--trace-dir", str(trace_dir),
                "--", *serve,
            ]
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            env=src_env(),
            cwd=ROOT,
        )
        self.log_path = log_path
        self.port: int | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Read the port from the banner, then poll ``/v1/healthz``."""
        deadline = time.monotonic() + timeout_s
        buf = b""
        fd = self.proc.stdout.fileno()
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"daemon did not start: {self.log_tail()}")
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.05))
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                continue
            buf += chunk
            for line in buf.decode("utf-8", "replace").splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    hostport = line.split(" on http://", 1)[1].split()[0]
                    self.port = int(hostport.rsplit(":", 1)[1])
                    break
        while True:
            conn = wire.Conn(self.port)
            try:
                conn.get("/v1/healthz")
                return
            except wire.RequestFailed:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"daemon never became healthy: {self.log_tail()}")
            time.sleep(0.002)

    def tree_pids(self) -> list[int]:
        """The coordinator and every live child process (shard workers)."""
        pids = [self.pid]
        task_dir = Path(f"/proc/{self.pid}/task")
        try:
            for task in task_dir.iterdir():
                children = (task / "children").read_text().split()
                pids.extend(int(c) for c in children)
        except OSError:
            pass
        return sorted(set(pids))

    def peak_rss_mib(self) -> float:
        """Sum of each tree process's peak resident set (VmHWM), in MiB."""
        total_kib = 0
        for pid in self.tree_pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def log_tail(self, n: int = 2000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-n:]
        except OSError:
            return ""

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM (graceful drain), SIGKILL past ``timeout_s``; reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


#: prctl option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A shard worker whose coordinator died is then re-parented here, so
    :func:`reap_children` can stop it and wait for it.
    """
    import ctypes

    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        pids.extend(int(c) for c in (task / "children").read_text().split())
    return pids


def reap_children() -> None:
    """SIGKILL every child still running (adopted orphans too) and wait
    until each has ended."""
    while True:
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
