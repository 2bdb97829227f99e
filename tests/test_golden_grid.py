"""Recorded full-stats goldens over a grid of cells.

``tests/data/golden_grid.json`` pins the complete
:class:`SimulationStats` dict of every cell below:

- 5 structurally distinct synthetic benchmarks x 9 policies (one per
  prefetcher family plus the replacement-policy, ideal and both PDIP
  trigger variants), at seed 7 and 3000+600 instructions;
- the 3 bundled traces x {``baseline``, ``pdip_44``} at 20000+4000.

Every field is compared, so a missed counter in one prefetcher path or
an RNG draw out of order shows up as a named failing cell. The CI
``ingest-smoke`` job checks the ``trace-phase``/``pdip_44`` entry again
through ``repro run --stats-out``.

If a *deliberate* modelling change invalidates the file, regenerate it
with::

    PYTHONPATH=src python -c "
    import tests.test_golden_grid as g; g.record()"
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.simulator.runner import run_benchmark

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_grid.json"

SEED = 7

_POLICIES = [
    "baseline",
    "next_line",
    "rdip",
    "eip_46",
    "eip_analytical",
    "pdip_44",
    "pdip_44_path",
    "emissary",
    "fec_ideal",
]

#: small but structurally distinct workloads (different branch mixes,
#: footprint sizes, and indirect-target behavior)
_BENCHMARKS = ["tatp", "kafka", "dotty", "voter", "xalan"]

_TRACES = ["trace-coldburst", "trace-fanout", "trace-phase"]

#: (benchmark, policy, instructions, warmup), all at :data:`SEED`
GRID = ([(b, p, 3000, 600) for b in _BENCHMARKS for p in _POLICIES]
        + [(t, p, 20000, 4000) for t in _TRACES
           for p in ("baseline", "pdip_44")])


def _simulate(benchmark, policy, instructions, warmup):
    return run_benchmark(benchmark, policy, instructions=instructions,
                         warmup=warmup, seed=SEED,
                         use_cache=False).to_dict()


def record() -> None:
    """Simulate every :data:`GRID` cell and write the golden file."""
    cells = [{"benchmark": b, "policy": p, "seed": SEED,
              "instructions": n, "warmup": w,
              "stats": _simulate(b, p, n, w)}
             for b, p, n, w in GRID]
    GOLDEN_PATH.write_text(json.dumps({"cells": cells}, indent=1,
                                      sort_keys=True) + "\n")


def _recorded():
    return {(c["benchmark"], c["policy"], c["instructions"], c["warmup"]):
            c for c in json.loads(GOLDEN_PATH.read_text())["cells"]}


@pytest.mark.parametrize("cell", GRID, ids=["%s-%s" % c[:2] for c in GRID])
def test_golden_grid(cell):
    want = _recorded()[cell]["stats"]
    got = _simulate(*cell)
    assert got == want, {
        k: (want.get(k), got.get(k))
        for k in set(want) | set(got) if want.get(k) != got.get(k)
    }
