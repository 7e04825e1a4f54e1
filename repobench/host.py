"""Host diagnostics and process plumbing; no ``repro`` code here.

The probe is a fixed numpy-only kernel.  Workloads run it only between
operations, while the program has no work in flight, so a change to the
program cannot slow the probe: a slower probe means a slower host.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

_PROBE_DATA = np.random.default_rng(12345).random(60_000)


def probe_ms() -> float:
    """Milliseconds for one fixed sort-and-reduce over 60k doubles."""
    started = time.perf_counter()
    float(np.sort(_PROBE_DATA).cumsum()[-1])
    return 1000.0 * (time.perf_counter() - started)


def cpu_times() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:]] if fields and fields[0] == "cpu" else None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def git_rev(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    return {
        "cpus": os.cpu_count() or 0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_rev": git_rev(root),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_env(root: Path, tmp: Path) -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` and temp dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


def timed_python(code: str, root: Path, tmp: Path, timeout: float = 120.0) -> float:
    """Wall seconds for a fresh interpreter to run ``code`` (must exit 0)."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp, env=child_env(root, tmp), capture_output=True, text=True,
        timeout=timeout,
    )
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"setup child failed: {done.stderr.strip()[-400:]}")
    return seconds


def stop_process(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Terminate ``proc`` (TERM, then KILL) and reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()



def stop_descendants(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``multiprocessing`` children (pool workers) are joined, and killed past
    ``grace``; then the resource tracker that shared memory starts, which
    would otherwise outlive this process, is stopped and reaped.
    """
    for proc in multiprocessing.active_children():
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # end of input stops the tracker
        tracker._fd = None
        if tracker._pid is not None:
            try:
                os.waitpid(tracker._pid, 0)
            except ChildProcessError:
                pass
            tracker._pid = None
