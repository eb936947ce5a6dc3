"""The serve workload: ``serve-simulate``.

One ``python -m repro serve --workers 1`` process on a fresh cache dir, and
one client that keeps one keep-alive connection and runs a closed loop --
each caller waits for its reply before sending the next request.  Every
tenth request is a ``GET /v1/health`` probe.  A simulate request names one
of four specs, a seeded 2-D input below 12 per coordinate, engine
``"auto"``, trials 4, and a seed of its own, so it denotes exactly one cell.

Misses and hits alternate.  A miss is a fresh request: it expands, misses
the memo, crosses the pool, runs the engine and publishes to the cache.  The
hit after it repeats a request answered earlier, picked in seeded random
order, so it is served from the cache.  200 untimed misses warm the cache
and fork the pool worker before anything is measured.

Checks: status 200, the ``X-Repro-Cache`` header says hit or miss as
expected, every miss row is correct (output mode == f(x)), and every hit body
is byte-identical to the miss body that populated it.  The timed loop runs
in ``SEGMENTS`` segments, each followed by a round that re-asks the next 50
of the 200 warm-up cells, all of which must be byte-identical hits;
``resume_s`` is the time those rounds take per 200 cells.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import sys
import time
from typing import Dict, List, Optional, Tuple

import layers
from common import Child, fresh_dir, launcher, median, percentile
from harness import Outcome

SPECS = ("minimum", "add", "maximum", "weighted_floor")
AXIS = 12
TRIALS = 4
HEALTH_EVERY = 10
WARM = 200
#: warm-up cells re-asked after each segment of the timed loop
RESUME_CHUNK = 50
#: a multiple of WARM // RESUME_CHUNK, so every warm-up cell is re-asked
#: equally often
SEGMENTS = 48
#: extra server starts, spread over the timed loop (a divisor of SEGMENTS)
SETUP_PROBES = 8
#: simulate requests in each traced-run pass, half misses and half hits (a
#: count, so counts repeat exactly)
TRACED_REQUESTS = 2400

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Request:
    """One simulate request: the encoded body and what it must compute."""

    __slots__ = ("body", "spec", "x")

    def __init__(self, rng: random.Random) -> None:
        self.spec = SPECS[rng.randrange(len(SPECS))]
        self.x = (rng.randrange(AXIS), rng.randrange(AXIS))
        payload = {
            "spec": self.spec,
            "input": list(self.x),
            "config": {"engine": "auto", "trials": TRIALS, "seed": rng.getrandbits(62)},
        }
        self.body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def fresh_requests(seed: int, stream: str):
    rng = random.Random(f"{seed}/{stream}")
    while True:
        yield Request(rng)


def mixed_requests(seed: int, stream: str, fresh, answered: List[Request]):
    """``(request, expected cache header)`` pairs: a fresh miss, then a hit.

    Each hit repeats a request from ``answered`` (which every miss joins once
    it has been sent), picked with a generator seeded by ``stream``.
    """
    rng = random.Random(f"{seed}/{stream}")
    while True:
        request = next(fresh)
        yield request, "miss"
        answered.append(request)
        yield answered[rng.randrange(len(answered))], "hit"


class Server:
    """A server subprocess plus one keep-alive client connection to it."""

    def __init__(self, cache_dir: str, spans: Optional[str] = None) -> None:
        command = ["serve", "--port", "0", "--workers", "1", "--cache-dir", cache_dir]
        argv = launcher("--spans", spans, "--", *command) if spans else [
            sys.executable, "-m", "repro", *command]
        start = time.perf_counter()
        self.child = Child(argv, capture_stdout=True)
        try:
            port = self._await_port(timeout=60.0)
        except BaseException:
            self.child.stop()
            raise
        self.startup_s = time.perf_counter() - start
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def _await_port(self, timeout: float) -> int:
        stdout = self.child.proc.stdout
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise RuntimeError("server did not announce its port in time")
            line = stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.child.proc.wait()}")
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def call(self, method: str, path: str, body: Optional[bytes] = None
             ) -> Tuple[float, int, Optional[str], bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return time.perf_counter() - start, response.status, response.getheader("X-Repro-Cache"), data

    def peak_rss_mb(self) -> float:
        """Largest peak resident set (``VmHWM``) of the server and its pool workers.

        Read from ``/proc`` rather than ``ru_maxrss``: a child spawned late in
        the run starts its ``ru_maxrss`` at the benchmark's own resident set.
        """
        pid = self.child.proc.pid
        with open(f"/proc/{pid}/task/{pid}/children", "r", encoding="utf-8") as handle:
            pids = [pid] + [int(child) for child in handle.read().split()]
        peaks = []
        for process in pids:
            with open(f"/proc/{process}/status", "r", encoding="utf-8") as handle:
                peaks.extend(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
        return max(peaks) / 1024.0

    def stop(self, outcome: Outcome) -> None:
        self.conn.close()
        code = self.child.stop()
        outcome.attempted += 1
        if code != 0:
            outcome.fail(f"server exited with {code} after SIGTERM")


class Loop:
    """Closed-loop traffic with health probes; checks run after timing."""

    def __init__(self, server: Server, outcome: Outcome, known: Dict[bytes, bytes]) -> None:
        self.server = server
        self.outcome = outcome
        self.known = known  # request body -> the miss body that answered it
        self.latencies: Dict[str, List[float]] = {"hit": [], "miss": []}
        self.health: List[float] = []

    def run(self, requests, seconds: float = 0.0, count: int = 0) -> float:
        """Send ``(request, expected cache header)`` pairs; checks follow timing."""
        replies = []
        deadline = time.monotonic() + seconds
        sent = 0
        start = time.perf_counter()
        while (sent < count) if count else (not sent or time.monotonic() < deadline):
            if (sent + len(self.health) + 1) % HEALTH_EVERY == 0:
                elapsed, status, _, _ = self.server.call("GET", "/v1/health")
                self.health.append(elapsed)
                self.outcome.attempted += 1
                if status != 200:
                    self.outcome.fail(f"GET /v1/health answered {status}")
                continue
            request, expect = next(requests)
            elapsed, status, cache, data = self.server.call("POST", "/v1/simulate", request.body)
            self.latencies[expect].append(elapsed)
            replies.append((expect, request, status, cache, data))
            sent += 1
        wall = time.perf_counter() - start
        for reply in replies:
            self.check(*reply)
        return wall

    def requests(self) -> int:
        return sum(len(latencies) for latencies in self.latencies.values())

    def check(self, expect: str, request: Request, status: int, cache, data: bytes) -> None:
        from repro.lab.campaign import resolve_spec

        outcome = self.outcome
        outcome.attempted += 1
        if status != 200 or cache != expect:
            outcome.fail(f"{request.spec}{request.x}: status {status}, cache {cache}, "
                         f"expected {expect}: {data[:200]!r}")
            return
        if expect == "hit":
            if data != self.known.get(request.body):
                outcome.fail(f"{request.spec}{request.x}: hit body differs from its miss body")
            return
        row = json.loads(data)
        f_x = resolve_spec(request.spec)(request.x)
        if not (row.get("correct") and row.get("output_mode") == f_x and row.get("expected") == f_x):
            outcome.fail(f"{request.spec}{request.x}: mode {row.get('output_mode')} != f(x) {f_x}")
        self.known[request.body] = data


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    # The closed loop is sequential -- client, server and pool worker each
    # wait for the one before -- so one CPU serves it without loss, and every
    # hand-off stays on that CPU instead of waking an idle one: on a VM such a
    # wake-up goes through the host's scheduler, and its cost swings with the
    # host's load.  The server and its pool worker inherit the affinity.
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        outcome = _run(seed, seconds, trace)
    finally:
        os.sched_setaffinity(0, allowed)
    outcome.details["pinned_cpu"] = cpu
    return outcome


def _run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(specs=SPECS)
    cache_dir = os.path.join(fresh_dir("serve"), "cache")
    known: Dict[bytes, bytes] = {}
    server = Server(cache_dir)
    startups = [server.startup_s]
    try:
        loop = Loop(server, outcome, known)
        fresh = fresh_requests(seed, "fresh")
        # Untimed warm-up: fills the cache the hits and resume rounds draw on
        # and forks the server's pool worker before anything is measured.
        warm = [next(fresh) for _ in range(WARM)]
        loop.run(((request, "miss") for request in warm), count=len(warm))
        answered = list(warm)

        if trace:
            # One untraced and one traced server, each fresh on the same cache
            # dir and each serving the same count of requests: the traced
            # server's spans are exactly one pass, and the pair gives the
            # tracing overhead.
            server.stop(outcome)
            walls = {}
            for traced in (False, True):
                spans = os.path.join(fresh_dir("serve-spans"), "server.json") if traced else None
                server = Server(cache_dir, spans=spans)
                side = Loop(server, outcome, known)
                stream = mixed_requests(seed, f"pass-{int(traced)}", fresh, answered)
                walls[traced] = side.run(stream, count=TRACED_REQUESTS)
                if not traced:
                    health_ms = median(side.health) * 1000
                    stats = json.loads(server.call("GET", "/v1/stats")[3])
                server.stop(outcome)
            with open(spans, "r", encoding="utf-8") as handle:
                dumped = json.load(handle)
            snapshot = {"stats": dumped["stats"], "values": dumped["values"]}
            outcome.layers = {
                "first": snapshot,
                "total": snapshot,
                "passes": 1,
                "records": dumped["records"],
                "extras": {
                    "http.health_p50_ms": health_ms,
                    "serve.server_p50_ms":
                        stats["requests"]["POST /v1/simulate"]["latency"]["p50_ms"],
                    "obs.trace_overhead_ratio": walls[True] / walls[False],
                },
            }
            return outcome

        layers.assert_unwrapped()
        loop = Loop(server, outcome, known)
        # The timed loop runs in SEGMENTS segments, each followed by a resume
        # round over the next RESUME_CHUNK warm-up cells, and every few by the
        # start of a second server on a fresh cache dir, so all three are
        # sampled across the whole run rather than in one phase of the host.
        requests = mixed_requests(seed, "timed", fresh, answered)
        chunks = [warm[start:start + RESUME_CHUNK] for start in range(0, WARM, RESUME_CHUNK)]
        probe_every = SEGMENTS // SETUP_PROBES
        walls, rounds = [], []
        for index in range(SEGMENTS):
            walls.append(loop.run(requests, seconds=seconds / SEGMENTS))
            chunk = chunks[index % len(chunks)]
            rounds.append(Loop(server, outcome, known).run(
                ((request, "hit") for request in chunk), count=len(chunk)))
            if index % probe_every == probe_every - 1:
                probe = Server(os.path.join(fresh_dir("serve-setup"), "cache"))
                startups.append(probe.startup_s)
                probe.stop(outcome)
        peak_rss_mb = server.peak_rss_mb()
        server.stop(outcome)
    except BaseException:
        server.child.stop()
        raise
    outcome.metrics = {
        "setup_s": median(startups),
        "peak_rss_mb": peak_rss_mb,
        "cells_per_s": loop.requests() / sum(walls),
        # seconds to re-ask all WARM warm-up cells, averaged over the run
        "resume_s": sum(rounds) * len(chunks) / SEGMENTS,
    }
    outcome.details = {"requests": loop.requests()}
    for kind, latencies in sorted(loop.latencies.items()):
        outcome.details[f"{kind}_p50_ms"] = percentile(latencies, 0.50) * 1000
        outcome.details[f"{kind}_p99_ms"] = percentile(latencies, 0.99) * 1000
    outcome.details["health_probes"] = len(loop.health)
    outcome.details["health_p50_ms"] = median(loop.health) * 1000
    return outcome
