"""In-memory span recording around the public calls of each layer.

The traced run installs wrappers on module attributes of the program
(``install_layer_wraps``), runs the same public entry points as the
timed run, and restores every attribute afterwards. Spans are kept in
a list and written out only at the end. All times are host CPU seconds
(``time.process_time``), the clock every perfbench metric uses.

Self time of a span is its duration minus the time its direct children
cover. Calls are single-threaded and strictly nested, so the children
of one span never overlap and their union is their sum.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

CLOCK = time.process_time

#: packages of ``src/repro`` reported by the profiler split; anything
#: else (top-level modules, telemetry, stdlib) is ``other``
SPLIT_PACKAGES = ("simulator", "frontend", "branch", "memory", "prefetchers",
                  "core", "backend", "workloads", "traces", "service",
                  "sweeps")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, Any] = {}

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


class Tracer:
    """Nested span recorder plus attribute patching with restore."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, CLOCK(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = CLOCK()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching -------------------------------------------------------
    def wrap(self, owner: Any, attr: str,
             name: "str | Callable[..., str]",
             after: Optional[Callable[[Span, tuple, dict, Any], None]] = None
             ) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a function of the call's arguments. ``after``
        sees the span, the arguments and the result. Returns False when
        the attribute does not exist, so a layer a later change removes
        simply produces no spans.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return False
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(*args, **kwargs) if callable(name)
                               else name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> List[list]:
        return [s.to_list() for s in self.spans]


def install_layer_wraps(tracer: Tracer) -> None:
    """Wrap the public calls of each layer of the imported program.

    Names are looked up where the caller finds them (``run_benchmark``
    calls ``get_layout`` and ``build_machine`` through the runner's
    module globals, and ``run_key``/``load``/``store`` through the
    ``cache`` module), so the real call path runs unchanged.
    """
    runner = importlib.import_module("repro.simulator.runner")
    cache = importlib.import_module("repro.simulator.cache")
    store_mod = importlib.import_module("repro.service.store")
    profiles = importlib.import_module("repro.workloads.profiles")

    def layout_name(benchmark, *_a, **_k) -> str:
        if profiles.external_benchmark(benchmark) is not None:
            return "traces.layout_builder"
        return "workloads.generate_layout"

    patched_machines: set = set()

    def after_run(span: Span, args: tuple, kwargs: dict, stats) -> None:
        machine = args[0]
        warmup = kwargs.get("warmup", args[2] if len(args) > 2 else 0)
        span.attrs.update(
            cycles=int(machine.cycle),
            ff=int(getattr(machine, "fast_forwarded_cycles", 0)),
            instructions=int(stats.instructions) + int(warmup))

    def after_build(_span: Span, _args: tuple, _kwargs: dict,
                    machine) -> None:
        cls = type(machine)
        if cls not in patched_machines:
            patched_machines.add(cls)
            tracer.wrap(cls, "run", "simulator.run", after=after_run)

    tracer.wrap(cache, "run_key", "simulator.run_key")
    tracer.wrap(cache, "load", "simulator.cache_io")
    tracer.wrap(cache, "store", "simulator.cache_io")
    tracer.wrap(runner, "get_layout", layout_name)
    tracer.wrap(runner, "build_machine", "simulator.build_machine",
                after=after_build)
    tracer.wrap(store_mod.ResultStore, "__init__", "service.store_open")
    tracer.wrap(store_mod.ResultStore, "get", "service.store_get")
    tracer.wrap(store_mod.ResultStore, "put", "service.store_put",
                after=tag_put)


def tag_put(span: Span, args: tuple, kwargs: dict, _digest) -> None:
    """Name the cell a ``ResultStore.put`` stored, from its metadata."""
    meta = kwargs.get("meta", args[3] if len(args) > 3 else None) or {}
    span.attrs["cell"] = [meta.get("benchmark"), meta.get("policy")]


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Self time of every span (duration minus direct children)."""
    child_sum = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    return [(end - start) - child_sum[i]
            for i, (name, start, end, parent, _) in enumerate(spans)]


def self_by_name(spans: List[list]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for (name, *_rest), own in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + own
    return out


def coverage(spans: List[list], cell_name: str = "cell") -> List[float]:
    """Share of each ``cell`` span that its direct children cover."""
    covered: Dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == cell_name:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    out = []
    for i, (name, start, end, _parent, _) in enumerate(spans):
        if name == cell_name and end > start:
            out.append(covered.get(i, 0.0) / (end - start))
    return out


def _package(filename: str) -> Optional[str]:
    """``simulator`` for ``.../src/repro/simulator/x.py``; None if C code."""
    if filename == "~" or filename.startswith("<"):
        return None
    parts = Path(filename).parts
    if "repro" in parts:
        last = len(parts) - 1 - parts[::-1].index("repro")
        rest = parts[last + 1:]
        if len(rest) >= 2 and rest[0] in SPLIT_PACKAGES:
            return rest[0]
    return "other"


def profile_split(stats) -> Dict[str, float]:
    """Fractions of profiled self time per package of ``src/repro``.

    Self time of C functions (builtins, methods of ``dict``/``list``)
    goes to the packages of their callers, in proportion to the time
    each caller spent in them, so a dict lookup made by the L1-I model
    counts as ``memory`` rather than ``other``.
    """
    totals = {name: 0.0 for name in SPLIT_PACKAGES + ("other",)}
    raw = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, _fn), (_cc, _nc, tt, _ct, callers) in raw.items():
        pkg = _package(filename)
        if pkg is not None:
            totals[pkg] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0:
            totals["other"] += tt
            continue
        for caller, edge in callers.items():
            owner = _package(caller[0]) or "other"
            totals[owner] += tt * edge[2] / edge_total
    grand = sum(totals.values()) or 1.0
    return {name: value / grand for name, value in totals.items()}


def profile_call(fn: Callable[[], Any]) -> tuple:
    """Run ``fn`` under cProfile; returns its result and ``pstats.Stats``."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, pstats.Stats(prof)
