"""Clocks, summaries, memory readings and the environment stamp.

Nothing here knows about `repro`'s layers; it is the arithmetic the
workloads and the report share, so a median is the same median
everywhere it is printed.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

clock = time.perf_counter


def ms_since(start: float) -> float:
    return (clock() - start) * 1000.0


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for a layer the workload never executed."""
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] the way the acceptance check computes them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return [only, only, only]
    return statistics.quantiles(values, n=4)


def typical(values: Sequence[float]) -> float:
    """The lower quartile: what a pass or a query costs when nothing
    else holds it up.  On a shared machine interference only ever adds
    time, and with two clients a light request waits behind the other
    about every second time, so its *median* flips between the two
    cases; over ten runs the lower quartile spreads half as wide."""
    return quartiles(values)[0]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    """What the report prints beside a median."""
    q1, mid, q3 = quartiles(values)
    return {"median": mid, "q1": q1, "q3": q3, "n": len(values)}


# -- memory ----------------------------------------------------------------


def peak_rss_mb() -> float:
    """`ru_maxrss` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_status_mb(pid, field: str) -> Optional[float]:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    return None


def current_rss_mb() -> float:
    """Resident set right now (for deltas across one call); falls back
    to the high-water mark where /proc is missing."""
    value = _proc_status_mb("self", "VmRSS")
    return peak_rss_mb() if value is None else value


def child_peak_rss_mb(pid: int) -> float:
    """High-water RSS of a *running* child.  RUSAGE_CHILDREN would mix
    in the snapshot-building child, so /proc is the only exact source;
    without it the children's maximum is the closest reading."""
    value = _proc_status_mb(pid, "VmHWM")
    if value is not None:
        return value
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- child processes -------------------------------------------------------


def reap_children() -> int:
    """Kill and wait for every child this process still has; returns how
    many there were.  The workloads stop what they start; this is the
    net under them, so that no path out of a run leaves a process."""
    me = str(os.getpid())
    leftover = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:  # "pid (comm) state ppid ...", comm may hold spaces
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me and fields[0] != "Z":
            leftover.append(int(stat.parent.name))
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:  # zombies included
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return len(leftover)


# -- calibration -----------------------------------------------------------


def calib_numpy_ms(repeats: int = 7) -> float:
    """`np.bitwise_or.reduce` over a fixed 4096x512 uint64 block — the
    solver's inner operation.  Reported, never used to rescale."""
    block = np.random.default_rng(12345).integers(
        0, 2**63, size=(4096, 512), dtype=np.uint64
    )
    times = []
    for _ in range(repeats):
        start = clock()
        np.bitwise_or.reduce(block, axis=0)
        times.append(ms_since(start))
    return median(times)


def calib_python_ms(repeats: int = 7) -> float:
    """A fixed dict-probe/append loop — the join engine's inner shape."""
    index: Dict[int, List[int]] = {}
    for key in range(20000):
        index.setdefault(key % 4999, []).append(key)
    times = []
    for _ in range(repeats):
        start = clock()
        out = []
        for key in range(60000):
            bucket = index.get(key % 7001)
            if bucket is not None:
                out.append(bucket[key % len(bucket)])
        times.append(ms_since(start))
    return median(times)


# -- environment -----------------------------------------------------------


def commit_id(root: Path) -> str:
    """The checkout's commit, or 'unknown' (the acceptance checkout is
    not a git repository, and git is not sent looking above it)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> Dict[str, object]:
    return {
        "commit": commit_id(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count() or 1,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }
