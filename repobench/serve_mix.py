"""serve-mix: a live ``repro-experiment serve`` daemon under a closed loop.

The daemon runs in a subprocess with default flags; its unix socket,
result cache and registry live in a fresh directory of the run.  Two
client connections send their seeded request lists (``lib.serve_stream``)
in lockstep rounds: each waits for its final response, then both meet at
a barrier before the next round.  In a coalesced round both connections
send the same fresh key together.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import host
import lib
from engine_widths import table_build_ms

#: The daemon's default per-query walk budget (``serve --max-walks``).
MAX_WALKS = 200_000
SPAWN_TIMEOUT_S = 90.0
REQUEST_TIMEOUT_S = 60.0


class _Connection:
    """One NDJSON client connection to the daemon."""

    def __init__(self, path: str, timeout: float = REQUEST_TIMEOUT_S) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def send(self, payload: Dict) -> None:
        self.sock.sendall((json.dumps(payload) + "\n").encode())

    def read(self) -> Dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _spawn(root: Path, workdir: Path) -> Tuple[subprocess.Popen, str, float]:
    """Start a daemon in ``workdir``; returns it, its socket, spawn-to-ping s."""
    workdir.mkdir(parents=True)
    sock = os.path.relpath(workdir / "serve.sock", root)
    log = open(workdir / "daemon.log", "wb")
    started = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", "serve.sock",
             "--cache-dir", "cache", "--registry-dir", "registry"],
            cwd=workdir, env=host.child_env(root, workdir),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
    finally:
        log.close()
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with code {proc.returncode} before answering")
        try:
            conn = _Connection(sock, timeout=5.0)
            try:
                conn.send({"op": "ping"})
                if conn.read().get("ok"):
                    return proc, sock, time.perf_counter() - started
            finally:
                conn.close()
        except (OSError, ValueError, ConnectionError):
            pass
        if time.perf_counter() - started > SPAWN_TIMEOUT_S:
            host.stop_process(proc)
            raise RuntimeError("daemon did not answer a ping in time")
        time.sleep(0.01)


def _shutdown(proc: subprocess.Popen, sock: str) -> None:
    try:
        conn = _Connection(sock, timeout=10.0)
        try:
            conn.send({"op": "shutdown"})
            conn.read()
        finally:
            conn.close()
        proc.wait(timeout=20)
    except (OSError, ValueError, ConnectionError, subprocess.TimeoutExpired):
        pass
    host.stop_process(proc)
    if os.path.exists(sock):
        os.unlink(sock)


def _stats(sock: str) -> Dict:
    conn = _Connection(sock)
    try:
        conn.send({"op": "stats"})
        return conn.read().get("counters") or {}
    finally:
        conn.close()


def _lane(sock: str, entries: List[Dict], barrier: threading.Barrier, out: Dict) -> None:
    """Send a lane's requests in a closed loop, recording every response."""
    records, waited = [], 0.0
    out["records"], out["error"] = records, None
    started = time.perf_counter()
    try:
        conn = _Connection(sock)
        try:
            for entry in entries:
                t_wait = time.perf_counter()
                barrier.wait(timeout=REQUEST_TIMEOUT_S)
                waited += time.perf_counter() - t_wait
                sent = time.perf_counter()
                conn.send({"op": "estimate", "stream": True, **entry["request"]})
                first: Optional[float] = None
                while True:
                    response = conn.read()
                    now = time.perf_counter()
                    if first is None:
                        first = now
                    if not response.get("ok") or response.get("final"):
                        break
                records.append({
                    "entry": entry,
                    "first_ms": 1000.0 * (first - sent),
                    "final_ms": 1000.0 * (now - sent),
                    "final": response,
                })
        finally:
            conn.close()
    except Exception as exc:  # a dead daemon or socket fails the rest of the lane
        out["error"] = repr(exc)
        barrier.abort()
    out["wall"] = time.perf_counter() - started
    out["barrier_s"] = waited


def _run_pass(sock: str, lanes: List[List[Dict]]) -> Dict:
    barrier = threading.Barrier(len(lanes))
    outs = [{} for _ in lanes]
    threads = [
        threading.Thread(target=_lane, args=(sock, lane, barrier, out), daemon=True)
        for lane, out in zip(lanes, outs)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(2 * REQUEST_TIMEOUT_S)
    wall = time.perf_counter() - started
    alive = any(thread.is_alive() for thread in threads)
    return {"wall": wall, "lanes": outs, "hung": alive}


_ESTIMATE = ("p", "low", "high")


def _check(tally: lib.Tally, lanes: List[List[Dict]], result: Dict) -> Dict:
    """Correctness checks of one pass; returns the pass's work counts."""
    records = [r for out in result["lanes"] for r in out.get("records", [])]
    expected = sum(len(lane) for lane in lanes)
    for _ in range(expected - len(records)):
        tally.op(False, "every request ends in a final response", "request never answered")
    for out in result["lanes"]:
        if out.get("error"):
            tally.failures.append(f"lane error: {out['error']}")
    first_final: Dict[str, Dict] = {}
    pairs: Dict[int, List[Dict]] = {}
    trials: Dict[str, int] = {}
    for record in records:
        final, entry = record["final"], record["entry"]
        kind, request = entry["kind"], entry["request"]
        key = final.get("key", "")
        ok = bool(final.get("ok")) and bool(final.get("final"))
        if not tally.op(ok, "every request ends in a final response", str(final)[:200]):
            continue
        if kind == "refine":
            converged = final["half_width"] <= request["max_ci"] or final["trials"] == MAX_WALKS
            tally.op(final.get("tier") == "simulation" and converged,
                     "refined final meets max_ci or spends max_walks", key)
            first_final.setdefault(key, final)
            trials[key] = int(final["trials"])
            if "pair" in entry:
                pairs.setdefault(entry["pair"], []).append(final)
        elif kind == "theory":
            tally.op(final.get("tier") == "theory", "a fresh key without max_ci gets theory", key)
    for record in records:
        final, entry = record["final"], record["entry"]
        if entry["kind"] == "repeat" and final.get("ok"):
            first = first_final.get(final.get("key"))
            same = first is not None and all(final.get(f) == first.get(f) for f in _ESTIMATE)
            tally.op(final.get("tier") == "cache" and same,
                     "a repeat returns the first answer's estimate from cache", final.get("key"))
    for pair, finals in sorted(pairs.items()):
        same = len(finals) == 2 and all(
            finals[0].get(f) == finals[1].get(f) for f in (*_ESTIMATE, "trials", "successes")
        )
        tally.op(same, "both sides of a coalesced pair get identical finals", str(pair))
    return {
        "requests": lib.stream_counts(lanes),
        "refined_trials": [trials[key] for key in sorted(trials)],
    }


def _delta(before: Dict, after: Dict, name: str) -> float:
    return float(after.get(name) or 0) - float(before.get(name) or 0)


def _query_seconds(before: Dict, after: Dict) -> Tuple[float, float]:
    """(count, total seconds) of daemon-side queries between two stats."""
    def total(stats):
        hist = stats.get("serve.query_seconds") or {}
        count = float(hist.get("total") or 0)
        return count, count * float(hist.get("mean") or 0.0)

    (c0, s0), (c1, s1) = total(before), total(after)
    return c1 - c0, s1 - s0


def run(root, tmp, seed: int, seconds: float, trace: bool, tally: lib.Tally) -> Dict:
    tmp = Path(tmp)
    setup, proc, sock = [], None, None
    try:
        for i in range(lib.SETUP_REPEATS):
            if proc is not None:
                _shutdown(proc, sock)
            proc, sock, spawn_s = _spawn(root, tmp / f"daemon-{i}")
            setup.append(spawn_s)
        passes = max(1, round(seconds / lib.SERVE_PASS_S))
        if trace:
            passes = max(2, passes)
        cpu0 = host.cpu_times()
        probes, results = [], []
        for p in range(passes):
            lanes = lib.serve_stream(seed, p)
            probes.append(host.probe_ms())
            before = _stats(sock) if trace and p % 2 == 1 else None
            result = _run_pass(sock, lanes)
            if result["hung"]:
                raise RuntimeError("a client connection did not finish in time")
            result["stats"] = (before, _stats(sock)) if before is not None else None
            result["counts"] = _check(tally, lanes, result)
            results.append(result)
        probes.append(host.probe_ms())
        cpu1 = host.cpu_times()
    finally:
        if proc is not None:
            _shutdown(proc, sock)

    timed = results[0::2] if trace else results
    records = [r for res in timed for out in res["lanes"] for r in out.get("records", [])]
    refined = [r["final_ms"] for r in records if r["entry"]["kind"] == "refine"]
    answered = sum(len(out.get("records", [])) for res in timed for out in res["lanes"])
    wall_s = lib.median(res["wall"] for res in timed)
    tail = lib.tail_percentile(refined)
    trials = [t for res in timed for t in res["counts"]["refined_trials"]]
    out = {
        "setup": setup,
        "pass_walls": [res["wall"] for res in results],
        "counts": [res["counts"] for res in results],
        "probes": probes,
        "steal": host.steal_share(cpu0, cpu1),
        "report": {
            "queries_per_s": answered / sum(res["wall"] for res in timed),
            "query_p50_ms": lib.median(refined),
            "query_tail_ms": tail[1] if tail else 0.0,
            "first_answer_p50_ms": lib.median(r["first_ms"] for r in records),
            "setup_s": lib.median(setup),
        },
        "notes": {
            "queries_per_s": f"{answered} finals over {len(timed)} pass(es), 2 connections",
            "query_tail_ms": (
                f"p{tail[0]:.1f} of {tail[2]} refined requests" if tail
                else "fewer than 11 refined requests"
            ),
            "query_p50_ms": f"refined trials per key: min {min(trials, default=0)}, "
            f"max {max(trials, default=0)}, total {sum(trials)}",
        },
        "values": {
            "wall_s": wall_s,
            "latency_p50_ms": lib.median(refined),
            "setup_s": lib.median(setup),
        },
        "latency_note": lib.latency_note("refined-query latency", refined),
    }
    if not trace:
        return out
    traced = results[1::2]
    last = traced[-1]
    before, after = last["stats"]
    lrecords = [r for lane in last["lanes"] for r in lane.get("records", [])]
    by_kind = defaultdict(list)
    for record in lrecords:
        by_kind[record["entry"]["kind"]].append(record)
    fresh_keys = {r["final"].get("key") for r in by_kind["refine"]}
    n_server, s_server = _query_seconds(before, after)
    client_s = sum(r["final_ms"] for r in lrecords) / 1000.0
    values = out["values"]
    values.update({
        "serve.first_ms.cache": lib.median(r["first_ms"] for r in by_kind["repeat"]),
        "serve.first_ms.theory": lib.median(r["first_ms"] for r in by_kind["theory"]),
        "serve.refine_walks": lib.median(r["final"].get("trials", 0) for r in by_kind["refine"]),
        "serve.server_query_ms": 1000.0 * s_server / n_server if n_server else 0.0,
        "serve.coalesce_ratio": _delta(before, after, "serve.engine_calls") / max(1, len(fresh_keys)),
        "serve.cache_hits": _delta(before, after, "serve.cache_hits"),
        "serve.theory_answers": _delta(before, after, "serve.theory_answers"),
        "serve.errors": _delta(before, after, "serve.errors"),
        "trace.overhead_share": lib.median(r["wall"] for r in traced) / wall_s - 1.0,
        "decomp.residual_share": (client_s - s_server) / client_s if client_s else 0.0,
        "distributions.table_build_ms": table_build_ms(lib.SERVE_REFINE_ALPHAS),
    })
    lane_s = sum(lane["wall"] for lane in last["lanes"])
    barrier_s = sum(lane["barrier_s"] for lane in last["lanes"])
    out["decomp"] = [
        ("pass wall (traced)", last["wall"]),
        ("connection-seconds (2 lanes)", lane_s),
        ("  client request latency", client_s),
        ("    daemon query time (stats serve.query_seconds)", s_server),
        ("    residual: transport and event-loop queueing", client_s - s_server),
        ("  waiting at round barriers", barrier_s),
        ("  client loop outside requests", lane_s - client_s - barrier_s),
    ]
    return out
