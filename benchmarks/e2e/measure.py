"""Arithmetic the benchmark reports with: percentiles with their
sample-count rule, spreads, the reference kernel that says how fast the
box is running right now, and /proc readings of the server child."""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reportable when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10
#: A window's slices are grouped into this many parts for the printed spread.
PARTS = 6


def _rank(count: int, q: float) -> int:
    """Nearest rank (1-based) of percentile *q* among *count* samples."""
    # The epsilon keeps 99.9 % of 10 000 at rank 9 990, not 9 991.
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples rank strictly above percentile *q*."""
    return count - _rank(count, q) if count else 0


def highest_supported_percentile(
    count: int, candidates: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 75.0)
) -> Optional[float]:
    """The highest candidate with at least SAMPLES_BEYOND samples beyond
    it, or None when even the lowest has too few (report the median only)."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(count, q) >= SAMPLES_BEYOND:
            return q
    return None


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None when it
    cannot be formed: fewer than two values, or a zero median)."""
    values = [value for value in values if value is not None]
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def parts(items: Sequence, count: int = PARTS) -> List[List]:
    """*items* cut, in order, into *count* runs of (nearly) equal length."""
    return [
        list(items[len(items) * part // count : len(items) * (part + 1) // count])
        for part in range(count)
    ]


def worse_by(metric_better: str, first: float, second: float) -> float:
    """By what share of *first* the *second* value is worse (<= 0: not worse)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if metric_better == "lower" else -change


# -- how fast the box is running -------------------------------------------------------
#
# The sandbox is a small virtual machine on a shared host.  For tens of
# seconds to tens of minutes at a time it runs the same Python code 1.3
# to 1.6 times more slowly (no steal time is reported; a neighbour on the
# sibling hardware thread is the likely cause), which no run length
# averages out.  So the benchmark times a fixed kernel of its own --
# JSON, dictionaries, sorting: the kind of work the server does -- beside
# every slice of a window, and divides what it measured in the slice by
# how much more slowly than REFERENCE_KERNEL_MS the kernel ran.

#: One pass of the reference kernel on this sandbox when it is quiet.
REFERENCE_KERNEL_MS = 0.55
#: Passes per calibration (~20 ms); the median pass is the reading.
KERNEL_PASSES = 35

_KERNEL_DOCUMENT = {
    "rows": [{"k": number, "s": "x%d" % number, "v": [number, number * 2, None]}
             for number in range(40)]
}  # fmt: skip


def kernel_pass_ms() -> float:
    """Run the reference kernel once; how long it took."""
    started = time.perf_counter()
    for _ in range(8):
        document = json.loads(json.dumps(_KERNEL_DOCUMENT, sort_keys=True))
        total = 0
        for row in document["rows"]:
            total += len(row["s"]) + row["k"]
        sorted(document["rows"], key=lambda row: -row["k"])
    return (time.perf_counter() - started) * 1e3


def slowdown(passes: int = KERNEL_PASSES) -> float:
    """How many times more slowly than on the quiet sandbox the box runs
    the reference kernel right now (1.0: as fast as the quiet sandbox)."""
    return statistics.median(kernel_pass_ms() for _ in range(passes)) / REFERENCE_KERNEL_MS


def slowdown_on(cpus: Iterable[int]) -> Dict[int, float]:
    """``slowdown()`` read on each of *cpus* in turn: a noisy neighbour
    often slows one virtual CPU and not the other."""
    allowed = os.sched_getaffinity(0)
    try:
        readings = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            readings[cpu] = slowdown()
        return readings
    finally:
        os.sched_setaffinity(0, allowed)


def pin(pid: int, cpu: int) -> None:
    """Confine every thread of *pid* (and those they start later) to *cpu*."""
    for thread in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(thread), {cpu})


# -- /proc readings of the server child ----------------------------------------------

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def cpu_ms(pid: int) -> float:
    """utime + stime of *pid*, in milliseconds."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name may hold spaces; fields are counted after it.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1000.0 / _TICKS_PER_SECOND


def memory_mb(pid: int) -> Dict[str, float]:
    """Current (VmRSS) and peak (VmHWM) resident set of *pid*, in MB."""
    found: Dict[str, float] = {}
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                found[key] = int(rest.split()[0]) / 1024.0
    return found


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# -- the window summary --------------------------------------------------------------


def summarize_latencies(
    per_part: Sequence[Sequence[float]], q: float
) -> Tuple[Optional[float], Optional[float], int]:
    """(percentile *q* of the pooled window, spread of the per-part
    percentiles, samples) of latencies given part by part."""
    pooled = [value for values in per_part for value in values]
    if not pooled:
        return None, None, 0
    per = [percentile(values, q) for values in per_part if values]
    return percentile(pooled, q), spread(per), len(pooled)
