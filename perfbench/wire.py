"""HTTP side of the benchmark: a keep-alive client, the closed-loop
load generator and a Prometheus text parser.  Standard library only."""

from __future__ import annotations

import http.client
import itertools
import json
import re
import threading
import time
from dataclasses import dataclass, field

REQUEST_TIMEOUT_S = 60.0


class RequestFailed(Exception):
    """A non-2xx reply, a transport error or a timeout."""


class Conn:
    """One keep-alive connection to the daemon."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def raw(self, method: str, path: str, body: bytes | None = None) -> bytes:
        """The reply body; raises :class:`RequestFailed` unless 2xx."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            raise RequestFailed(f"{method} {path}: {exc!r}") from None
        if resp.status >= 300:
            raise RequestFailed(f"{method} {path}: HTTP {resp.status} {raw[:300]!r}")
        return raw

    def post(self, path: str, body: bytes) -> dict:
        return json.loads(self.raw("POST", path, body))

    def get(self, path: str) -> dict:
        return json.loads(self.raw("GET", path))

    def get_text(self, path: str) -> str:
        return self.raw("GET", path).decode("utf-8")

    def close(self) -> None:
        self._conn.close()


def encode(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


@dataclass
class OpResult:
    """One op's client-observed latency and what it returned."""

    latency_s: float = 0.0
    reply: object = None
    error: str | None = None


@dataclass
class LoopResult:
    results: list = field(default_factory=list)
    wall_s: float = 0.0


def closed_loop(port: int, connections: int, ops) -> LoopResult:
    """Run ``ops`` (callables taking a :class:`Conn`) from ``connections``
    threads, each sending its next op only after the previous reply.

    Ops are handed out in list order; results come back in the same
    order.  Wall time runs from the shared start to the last reply.
    """
    results = [OpResult() for _ in ops]
    counter = itertools.count()
    barrier = threading.Barrier(connections + 1)

    def client() -> None:
        conn = Conn(port)
        try:
            barrier.wait()
            while True:
                i = next(counter)
                if i >= len(ops):
                    return
                out = results[i]
                started = time.perf_counter()
                try:
                    out.reply = ops[i](conn)
                except RequestFailed as exc:
                    out.error = str(exc)
                    conn.close()
                    conn = Conn(port)
                out.latency_s = time.perf_counter() - started
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    return LoopResult(results=results, wall_s=time.perf_counter() - started)


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$")


@dataclass
class Scrape:
    """One ``/v1/metrics`` scrape.

    ``plain`` holds unlabelled series (histogram aggregates, gauges,
    coordinator counters); ``summed`` adds every labelled series of the
    same name, which is how a sharded daemon's per-worker counters add
    up to the fleet total.
    """

    plain: dict
    summed: dict

    def counter(self, name: str) -> float:
        return self.summed.get(f"ftl_{name}", 0.0)

    def hist(self, name: str) -> tuple[float, float]:
        """``(sum in seconds, count)`` of a latency histogram."""
        base = f"ftl_{name}_seconds"
        return self.plain.get(base + "_sum", 0.0), self.plain.get(base + "_count", 0.0)

    def gauge(self, name: str) -> float:
        return self.plain.get(f"ftl_{name}", 0.0)


def parse_prometheus(text: str) -> Scrape:
    plain: dict = {}
    summed: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"unparseable metrics line: {line!r}")
        name, labels, value = m.group(1), m.group(2), float(m.group(3))
        if labels is None:
            plain[name] = value
        if not (labels and "le=" in labels):
            summed[name] = summed.get(name, 0.0) + value
    return Scrape(plain=plain, summed=summed)


def scrape_delta(before: Scrape, after: Scrape) -> Scrape:
    """Counters and histogram sums accumulated between two scrapes;
    gauges keep their ``after`` value."""
    def diff(a: dict, b: dict) -> dict:
        return {k: v - a.get(k, 0.0) for k, v in b.items()}

    plain = diff(before.plain, after.plain)
    for name, value in after.plain.items():
        if not (name.endswith("_total") or name.endswith("_sum") or name.endswith("_count")):
            plain[name] = value
    return Scrape(plain=plain, summed=diff(before.summed, after.summed))
