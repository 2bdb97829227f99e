"""Output checks: recorded stats digests, invariants and small-n stats.

Every executed cell is checked against the digest of its stats recorded
at the commit that defined the benchmark (``expected.json``, one table
per workload and seed) and against invariants that hold for any seed.
A cell that fails any check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: top-down buckets whose sum must equal ``slots_total``
TOPDOWN_BUCKETS = ("slots_retiring", "slots_bad_speculation",
                   "slots_frontend_bound", "slots_backend_bound")


def stats_digest(counters: Mapping[str, float]) -> str:
    """SHA-1 of the canonical JSON of a cell's scalar counters."""
    blob = json.dumps(dict(counters), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()


def invariant_errors(counters: Mapping[str, float],
                     instructions: int) -> List[str]:
    """Conservation checks that hold for any cell and any seed."""
    errors = []
    buckets = sum(int(counters.get(name, 0)) for name in TOPDOWN_BUCKETS)
    if int(counters.get("slots_total", -1)) != buckets:
        errors.append("slots_total %s != sum of top-down buckets %d"
                      % (counters.get("slots_total"), buckets))
    if int(counters.get("instructions", 0)) < instructions:
        errors.append("instructions %s < budget %d"
                      % (counters.get("instructions"), instructions))
    if int(counters.get("cycles", 0)) <= 0:
        errors.append("no cycles simulated")
    return errors


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{workload: {seed: {cell id: digest}}}``; empty when absent."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_cell(cell_id: str, counters: Mapping[str, float], instructions: int,
               expected: Optional[Mapping[str, str]]) -> List[str]:
    """Every reason ``counters`` is wrong for ``cell_id`` (empty = ok)."""
    errors = invariant_errors(counters, instructions)
    if expected is not None:
        want = expected.get(cell_id)
        got = stats_digest(counters)
        if want is None:
            errors.append("no recorded digest for %s" % cell_id)
        elif want != got:
            errors.append("stats digest %s != recorded %s"
                          % (got[:12], want[:12]))
    return errors


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle two when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def maximum(values: Sequence[float]) -> float:
    """Largest value of a non-empty sample."""
    if not values:
        raise ValueError("max of an empty sample")
    return float(max(values))
