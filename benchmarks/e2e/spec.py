"""The metrics and workloads the benchmark reports.

``BENCHMARK.json`` at the repository root is the one place that names
the workloads (with the reason each exists), the gated end-to-end
metrics (unit, direction, regression bound) and the per-layer metrics;
this module reads it.  Only the end-to-end metrics that are *not*
defined on every workload live here: the driver behind
``BENCHMARK.json`` wants every metric from every run, so these are
printed by ``run.py`` (``null`` where the operation type is absent) and
compared by ``--check-agreement``, but not listed there.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

CONTRACT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json"
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen
    #: before a change counts as a regression (None: absolute zero;
    #: per-layer metrics carry no bound either).
    bound: Optional[float] = None


#: Defined only where the operation type occurs.
EXTRAS: Tuple[Metric, ...] = (
    Metric("write_p50_ms", "ms", "lower", 0.25),
    Metric("write_p95_ms", "ms", "lower", 0.25),
    Metric("ingest_rows_per_s", "1/s", "higher", 0.25),
    Metric("result_rows_per_s", "1/s", "higher", 0.25),
    Metric("disk_bytes_per_row", "B", "lower", 0.01),
    Metric("error_rate", "ratio", "lower", None),
)


@functools.lru_cache(maxsize=None)
def contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def workloads() -> Dict[str, str]:
    """name -> why, in the order a full set runs them."""
    return {entry["name"]: entry["why"] for entry in contract()["workloads"]}


def gated() -> Tuple[Metric, ...]:
    """The end-to-end metrics every workload reports."""
    return tuple(Metric(**entry) for entry in contract()["end_to_end"])


def end_to_end() -> Tuple[Metric, ...]:
    return gated() + EXTRAS


def per_layer() -> Tuple[Metric, ...]:
    return tuple(Metric(**entry) for entry in contract()["per_layer"])
