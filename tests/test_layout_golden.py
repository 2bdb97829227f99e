"""Golden layout digests: every synthetic profile's generated binary.

The stats goldens (``test_golden_stats.py``, ``test_golden_grid.py``)
catch a generator change only through the simulation it perturbs, and
only for the cells they pin. These digests pin the layout itself —
every block's address, size, terminator, targets, weights and pattern —
for each synthetic profile at seed 1, plus cassandra at the two extra
layout seeds the repository benchmark uses. A generator change that
moves any block fails here, by profile name, before any stats golden.

If a *deliberate* generator change invalidates them, regenerate with::

    PYTHONPATH=src python -c "
    from tests.test_layout_golden import CELLS, layout_digest
    from repro.workloads.generator import generate_layout
    from repro.workloads.profiles import get_profile
    for name, seed in CELLS:
        print((name, seed),
              layout_digest(generate_layout(get_profile(name), seed)))"
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.utils import freeze
from repro.workloads.generator import generate_layout
from repro.workloads.layout import CodeLayout
from repro.workloads.profiles import BENCHMARK_NAMES, get_profile

GOLDEN = {
    ("cassandra", 1): "a9970ae1f3a67b6f8ea47c018b34d68d1a2ca9b4",
    ("tomcat", 1): "551ad99cf5c2a4891a179a94811b11f27183b1e8",
    ("kafka", 1): "d98ab9ed976ba02a54c887053444cf9df0c95beb",
    ("xalan", 1): "ee88d1b820cf08ae32decd0a56637cf23007b50a",
    ("finagle-http", 1): "8cfa9839e55d5b2c988865aad1fb3a1bc5c6a480",
    ("dotty", 1): "59560b9c64508b06411f1c3e19c759af2035819d",
    ("tpcc", 1): "09fadd5884de8e7c86a593c3cf7b2b0e49111713",
    ("ycsb", 1): "a824eac61861c75b73cee52ecc4a0fcd90d61ed1",
    ("twitter", 1): "e58dac7525409caaa0f77e911b10731bd0644a25",
    ("voter", 1): "d6bb76bf2f3d861a3e93cc0901b1f7faecd09183",
    ("smallbank", 1): "2757b3a9ff5c536d716aea5d6dd08d705da54972",
    ("tatp", 1): "629294dc3f141e0e28a3ccb7305c547bba9ce6f9",
    ("sibench", 1): "0ad46951cd77f8d1dd5efb3d5acd293fa5a18066",
    ("noop", 1): "c3199fc27fa5b8ffaa3ec8e3b5477b80f5d7b914",
    ("verilator", 1): "b7eaa3dc751e08e3d420daa6cb00e6d9e39ad8fd",
    ("speedometer2.0", 1): "59e2aee5edf26ec38f16261053d6c2785abe3400",
    ("cassandra", 1001): "f0e9b3d8fbcda4efae2590ed7cf6741111418257",
    ("cassandra", 2001): "cebbc3182ccb5d401ab5e04d4b4431ff776e49ed",
}

CELLS = [(name, 1) for name in BENCHMARK_NAMES] + [("cassandra", 1001),
                                                   ("cassandra", 2001)]


def layout_digest(layout: CodeLayout) -> str:
    """SHA-1 over the layout's frozen fields, minus each block's
    ``_lines`` memo (filled lazily, so it depends on who looked)."""
    frozen = freeze(layout)
    for block in frozen["blocks"]:
        del block["_lines"]
    blob = json.dumps(frozen, sort_keys=True,
                      default=lambda kind: kind.value)  # BranchKind
    return hashlib.sha1(blob.encode()).hexdigest()


def test_golden_covers_every_synthetic_profile():
    assert sorted(GOLDEN) == sorted(CELLS)


@pytest.mark.parametrize("name,seed", CELLS,
                         ids=["%s-s%d" % cell for cell in CELLS])
def test_layout_digest(name, seed):
    layout = generate_layout(get_profile(name), seed=seed)
    assert layout_digest(layout) == GOLDEN[(name, seed)], (
        "generate_layout(%r, seed=%d) moved: regenerate only for a "
        "deliberate generator change" % (name, seed))


def test_digest_ignores_lines_memo():
    layout = generate_layout(get_profile("noop"), seed=1)
    before = layout_digest(layout)
    for block in layout.blocks:
        block.lines()
    assert layout_digest(layout) == before
