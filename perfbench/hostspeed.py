"""Host-speed reference: a fixed pure-Python kernel timed next to the work.

On a shared virtual machine the CPU itself runs slower for stretches of
seconds to minutes (a neighbour on the same physical core), and CPU
time does not hide that: the same cell took 0.50 s in one 40 s run and
0.66 s in the next. A timed run therefore samples a fixed reference
kernel between its cells, and scales each cell's CPU time by how fast
the kernel ran just before and just after it. The kernel is a small
set-associative LRU cache simulation over objects and dicts, the kind
of interpreter work the simulator does, so the two slow down together.

A scaled time is in *normalized seconds*: the CPU seconds the work
would take while the kernel runs in ``NOMINAL_S``, its median CPU time
on the reference host (``README.md``). The kernel is part of the
benchmark, not of the program, so a change to the program moves every
scaled time by exactly as much as it moves the raw one.
"""

from __future__ import annotations

import gc
import time
from typing import Sequence

#: median CPU seconds of one ``kernel()`` call on the reference host
NOMINAL_S = 0.0105

_SETS = 64
_WAYS = 8
_ACCESSES = 6000


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


class _Cache:
    def __init__(self) -> None:
        self.sets = [{} for _ in range(_SETS)]
        self.hits = 0

    def access(self, addr: int, now: int) -> bool:
        ways = self.sets[addr % _SETS]
        line = ways.get(addr)
        if line is not None:
            line.stamp = now
            self.hits += 1
            return True
        if len(ways) >= _WAYS:
            victim = min(ways.values(), key=lambda l: l.stamp)
            del ways[victim.tag]
        ways[addr] = _Line(addr, now)
        return False


def kernel() -> int:
    """A fixed amount of object- and dict-heavy work; returns the hits."""
    cache = _Cache()
    x = 12345
    recent = []
    for now in range(_ACCESSES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 8) & 0x7FF
        if not cache.access(addr, now):
            recent.append(addr)
            if len(recent) > 32:
                recent.pop(0)
    return cache.hits


def sample() -> float:
    """CPU seconds of one kernel call, with the cyclic collector off.

    A collection would scan the program's heap, so with it on the
    kernel's time would depend on how much the program had allocated.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        kernel()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples: Sequence[float]) -> float:
    """Factor from CPU seconds measured among ``samples`` to normalized."""
    return NOMINAL_S / (sum(samples) / len(samples))
