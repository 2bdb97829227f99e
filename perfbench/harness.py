"""Workloads, rounds and metrics of the repository benchmark.

A run of one workload is: set-up probes, then *rounds* until the time
budget is spent. A round is one cold pass over the workload's cells
into a fresh result cache and store, followed by one warm pass that
resolves the same cells again, to check them. Every round starts from empty
directories and an empty layout memo, so every round's cold pass is
really cold. All times are host CPU seconds (user plus system) of this
process and its children: on a shared virtual machine the hypervisor
steals CPU in bursts that can double wall time, and CPU time does not
see them. In a timed run each cell's CPU time is then scaled to a
nominal host speed by the reference samples taken around it
(``hostspeed``, :class:`Scaler`).

This module imports nothing from the program at import time; the
program is loaded from ``<checkout>/src`` by :class:`Program`.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import hostspeed
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("synth-long", "trace-cold", "grid-short")

#: synth-long: miss-heavy to light synthetic benchmarks, in one
#: process; most of a cell is Machine.run. Each benchmark runs on three
#: layouts, seeds ``--seed``, ``--seed`` + 1000 and ``--seed`` + 2000:
#: the same budget can take twice the cycles on one layout as on
#: another, and three per benchmark keep that from moving the run's
#: median cell.
SYNTH_BENCHMARKS = ("cassandra", "verilator", "tatp", "noop")
SYNTH_POLICIES = ("baseline", "pdip_44", "eip_46")
SYNTH_SEED_OFFSETS = (0, 1000, 2000)
SYNTH_BUDGET = (20_000, 4_000)

#: trace-cold: each bundled trace in a fresh `python -m repro run`
#: process, at a short budget, so import and trace load show
TRACE_BENCHMARKS = ("trace-phase", "trace-coldburst", "trace-fanout")
TRACE_POLICIES = ("baseline", "pdip_44")
TRACE_BUDGET = (20_000, 4_000)

GRID_SPEC = HERE / "grid_short.toml"

#: host-speed samples on each side of a piece of work that set its
#: factor: a single 10 ms sample is itself noisy, and the host's speed
#: changes over seconds, not over one cell
SAMPLES_PER_SIDE = 2
#: timed set-up probes per run (one more runs first, untimed, so that
#: byte-compiling the sources in a fresh checkout is not measured)
SETUP_PROBES = 5
#: longest a child process may take before it counts as failed
CHILD_TIMEOUT_S = 120

#: cells profiled in the synth-long profiler pass: one per core path
#: (cassandra fast-forwards most cycles, noop steps most of them)
SYNTH_PROFILE_CELLS = (("cassandra", "pdip_44"), ("noop", "baseline"))
TRACE_PROFILE_CELL = ("trace-phase", "pdip_44")


# ----------------------------------------------------------------------
# clocks and environment
# ----------------------------------------------------------------------
def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def host_cpu() -> float:
    """CPU seconds of this process plus its waited-for children."""
    return time.process_time() + children_cpu()


class Scaler:
    """Host-speed samples at the boundaries of consecutive pieces of work.

    Piece ``i`` runs between samples ``i`` and ``i + 1``. Its CPU time
    is scaled by the mean of up to ``SAMPLES_PER_SIDE`` samples on each
    side (``hostspeed.scale``), so scale pieces only once every
    boundary is sampled. Without normalization (traced runs) every
    sample reads the nominal time, so every factor is exactly 1 and no
    kernel runs.
    """

    def __init__(self, normalize: bool) -> None:
        self.normalize = normalize
        self.samples: List[float] = []
        self.sample_s = 0.0  # CPU time spent in the samples themselves
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def boundary(self) -> None:
        if not self.normalize:
            self.samples.append(hostspeed.NOMINAL_S)
            return
        t0 = host_cpu()
        self.samples.append(hostspeed.sample())
        self.sample_s += host_cpu() - t0

    def factor(self, index: int) -> float:
        lo = max(0, index + 1 - SAMPLES_PER_SIDE)
        return hostspeed.scale(self.samples[lo:index + 1 + SAMPLES_PER_SIDE])

    def scaled(self, index: int, raw_s: float) -> float:
        """Piece ``index``'s ``raw_s`` CPU seconds, normalized."""
        factor = self.factor(index)
        self.raw_s += raw_s
        self.scaled_s += raw_s * factor
        return raw_s * factor

    def wall(self, elapsed_s: float) -> float:
        """``elapsed_s`` less the sampling, at the pieces' mean factor."""
        factor = self.scaled_s / self.raw_s if self.raw_s else 1.0
        return (elapsed_s - self.sample_s) * factor


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def isolate_environment(scratch: Path) -> Dict[str, str]:
    """Strip every ``REPRO_*`` knob from this process; return child env.

    That removes REPRO_BACKEND, REPRO_TELEMETRY*, REPRO_STORE,
    REPRO_JOBS and REPRO_NO_CACHE among others. The trace registry is
    pointed at a file that does not exist, so a user registry in the
    home directory cannot add or change trace benchmarks.
    """
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_TRACE_REGISTRY"] = str(scratch / "no-registry.json")
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "unused-cache")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


class Program:
    """The program's modules this benchmark calls into."""

    def __init__(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("repro.cli")
        loaded = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            raise ImportError("repro imported from %s, not %s" % (loaded, SRC))
        self.runner = importlib.import_module("repro.simulator.runner")
        self.store_mod = importlib.import_module("repro.service.store")
        self.sweeps = importlib.import_module("repro.sweeps")


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Cell:
    id: str
    benchmark: str
    policy: str
    seed: int
    key: str
    instructions: int
    warmup: int


def compile_plan(program: Program, workload: str, seed: int):
    """The workload's cells as a compiled sweep plan (keys included)."""
    sweeps = program.sweeps
    if workload == "grid-short":
        spec = dataclasses.replace(sweeps.load_spec(GRID_SPEC), seeds=(seed,))
        return sweeps.compile_spec(spec)
    if workload == "synth-long":
        benchmarks, policies, budget = (SYNTH_BENCHMARKS, SYNTH_POLICIES,
                                        SYNTH_BUDGET)
        seeds = [seed + offset for offset in SYNTH_SEED_OFFSETS]
    elif workload == "trace-cold":
        benchmarks, policies, budget = (TRACE_BENCHMARKS, TRACE_POLICIES,
                                        TRACE_BUDGET)
        seeds = [seed]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    spec = sweeps.parse_spec({
        "name": "perfbench-" + workload,
        "axes": {"benchmark": list(benchmarks), "policy": list(policies),
                 "seed": seeds},
        "defaults": {"instructions": budget[0], "warmup": budget[1]},
    })
    return sweeps.compile_spec(spec)


def plan_cells(plan) -> List[Cell]:
    """The plan's cells; ids name the seed only when a plan has several."""
    several = len({c.seed for c in plan.cells}) > 1
    return [Cell("%s/%s" % (c.benchmark, c.policy)
                 + ("/s%d" % c.seed if several else ""),
                 c.benchmark, c.policy, c.seed, c.key, c.instructions,
                 c.warmup) for c in plan.cells]


def setup_workload(program: Program, workload: str, seed: int,
                   store_dir: Path,
                   phases: Optional[Dict[str, float]] = None):
    """Open the scratch store and compile the plan; returns both.

    This is everything a run does between import and its first cell;
    the set-up probes time it in fresh processes and record the CPU
    time of each step in ``phases``.
    """
    t0 = time.process_time()
    store = program.store_mod.ResultStore(store_dir)
    t1 = time.process_time()
    plan = compile_plan(program, workload, seed)
    t2 = time.process_time()
    if phases is not None:
        phases["store_open_s"] = t1 - t0
        phases["compile_spec_s"] = t2 - t1
    return store, plan


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Round:
    cells: List[Cell]
    cell_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    counters: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)
    errors: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    wall_s: float = 0.0
    warm_s: float = 0.0  # raw CPU seconds of the warm pass
    warm_store_hits: int = 0
    total_s: float = 0.0
    spans: List[list] = dataclasses.field(default_factory=list)

    def fail(self, cell_id: str, message: str) -> None:
        self.errors.setdefault(cell_id, []).append(message)

    def fail_all(self, message: str) -> None:
        for cell in self.cells:
            self.fail(cell.id, message)

    def simulated_instructions(self, cell: Cell) -> int:
        return int(self.counters[cell.id]["instructions"]) + cell.warmup


class Context:
    """Per-run state shared by the rounds of one workload."""

    def __init__(self, program: Program, workload: str, seed: int,
                 scratch: Path, child_env: Dict[str, str]) -> None:
        self.program = program
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.child_env = child_env
        self.expected = checks.load_expected().get(workload, {}).get(str(seed))
        self.normalize = False  # scale times by host-speed samples
        self.reference: Dict[str, str] = {}  # digests of the first round
        self._n = 0

    def fresh_dir(self, label: str) -> Path:
        """A new, empty directory under the run's scratch directory."""
        while True:
            self._n += 1
            path = self.scratch / ("%s-%d" % (label, self._n))
            if not path.exists():
                path.mkdir(parents=True)
                return path


def _check_cold(ctx: Context, rnd: Round, counters: Dict[str, float],
                cell: Cell) -> None:
    rnd.counters[cell.id] = counters
    for msg in checks.check_cell(cell.id, counters, cell.instructions,
                                 ctx.expected):
        rnd.fail(cell.id, msg)
    digest = checks.stats_digest(counters)
    first = ctx.reference.setdefault(cell.id, digest)
    if first != digest:
        rnd.fail(cell.id, "stats differ from this run's first round")


def _check_warm(rnd: Round, cell: Cell, counters: Dict[str, float]) -> None:
    if cell.id in rnd.counters and counters != rnd.counters[cell.id]:
        rnd.fail(cell.id, "warm stats differ from cold stats")


def _check_store_after_cold(rnd: Round, store, cells: List[Cell]) -> None:
    """The cold pass executed and stored every cell, resolving none."""
    info = store.info()
    if info["hits"] != 0:
        rnd.fail_all("cold pass read %d results from the store"
                     % info["hits"])
    for cell in cells:
        if cell.key not in store:
            rnd.fail(cell.id, "result not in the store after the cold pass")


def _empty_dir(path: Path) -> Path:
    if path.exists() and any(path.iterdir()):
        raise RuntimeError("cache directory %s is not empty" % path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _point_cache(ctx: Context, label: str) -> Path:
    """A fresh, empty result cache for this process and its children."""
    cache_dir = _empty_dir(ctx.fresh_dir(label) / "cache")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    return cache_dir


def run_round(ctx: Context,
              tracer: Optional[spanlib.Tracer] = None) -> Round:
    fn = {"synth-long": _round_synth, "trace-cold": _round_trace,
          "grid-short": _round_grid}[ctx.workload]
    t0 = host_cpu()
    rnd = fn(ctx, tracer)
    rnd.total_s = host_cpu() - t0
    return rnd


# -- synth-long ---------------------------------------------------------
def _round_synth(ctx: Context, tracer: Optional[spanlib.Tracer]) -> Round:
    program = ctx.program
    runner = program.runner
    _point_cache(ctx, "synth")
    runner.clear_layout_cache()
    store, plan = setup_workload(program, ctx.workload, ctx.seed,
                                 ctx.fresh_dir("store"))
    cells = plan_cells(plan)
    rnd = Round(cells)
    span = tracer.span if tracer is not None else (lambda _n: nullcontext())

    def resolve(cell: Cell):
        return runner.run_benchmark(cell.benchmark, cell.policy,
                                    instructions=cell.instructions,
                                    warmup=cell.warmup, seed=cell.seed,
                                    store=store)

    scaler = Scaler(ctx.normalize)
    raw: Dict[str, float] = {}
    start = host_cpu()
    scaler.boundary()
    for cell in cells:
        c0 = host_cpu()
        try:
            with span("cell"):
                stats = resolve(cell)
        except Exception as exc:  # noqa: BLE001 - a failed cell is data
            stats = None
            rnd.fail(cell.id, "raised %r" % (exc,))
        raw[cell.id] = host_cpu() - c0
        scaler.boundary()
        if stats is not None:
            _check_cold(ctx, rnd, dict(stats.counters()), cell)
    elapsed = host_cpu() - start
    for i, cell in enumerate(cells):
        if cell.id in rnd.counters:
            rnd.cell_s[cell.id] = scaler.scaled(i, raw[cell.id])
    rnd.wall_s = scaler.wall(elapsed)
    _check_store_after_cold(rnd, store, cells)

    hits0 = store.info()["hits"]
    w0 = host_cpu()
    warm = []
    with span("warm_pass"):
        for cell in cells:
            try:
                warm.append((cell, resolve(cell)))
            except Exception as exc:  # noqa: BLE001
                rnd.fail(cell.id, "warm resolve raised %r" % (exc,))
    rnd.warm_s = host_cpu() - w0
    for cell, stats in warm:
        _check_warm(rnd, cell, dict(stats.counters()))
    rnd.warm_store_hits = store.info()["hits"] - hits0
    store.close()
    return rnd


# -- trace-cold ---------------------------------------------------------
def _run_child(argv: List[str], env: Dict[str, str]) -> Tuple[int, str]:
    """Run one child to completion; (exit code, stderr tail).

    The child is killed and waited for on any way out, a signal to this
    process included.
    """
    proc = subprocess.Popen(argv, env=env, cwd=str(ROOT),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -9, "timed out after %ds" % CHILD_TIMEOUT_S
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, (err or "").strip()[-300:]


def _cli_argv(ctx: Context, cell: Cell, store_dir: Path,
              out: Path) -> List[str]:
    return ["run", cell.benchmark, cell.policy,
            "--instructions", str(cell.instructions),
            "--warmup", str(cell.warmup), "--seed", str(cell.seed),
            "--store", str(store_dir), "--stats-out", str(out)]


def _child_argv(cli_argv: List[str], spans_out: Optional[Path],
                profile_out: Optional[Path] = None) -> List[str]:
    if spans_out is None and profile_out is None:
        return [sys.executable, "-m", "repro"] + cli_argv
    extra: List[str] = []
    if spans_out is not None:
        extra += ["--spans", str(spans_out)]
    if profile_out is not None:
        extra += ["--profile", str(profile_out)]
    return ([sys.executable, str(HERE / "cell_child.py")] + extra + ["--"]
            + cli_argv)


def _stem(cell: Cell) -> str:
    return cell.id.replace("/", "-")


def _load_dump(path: Path) -> Dict[str, float]:
    with open(path) as fh:
        return dict(json.load(fh)["stats"])


def _child_spans(path: Path, total: float) -> List[list]:
    """A child's spans under one ``cell`` span of its whole CPU time.

    The child's clock starts at process start, so the time before its
    first span is interpreter start-up (and the child script's own
    imports), and its teardown is the child's total CPU time after the
    script finished.
    """
    with open(path) as fh:
        doc = json.load(fh)
    first = min((s[1] for s in doc["spans"]), default=doc["finished"])
    out: List[list] = [["cell", 0.0, total, -1, {}]]
    out.append(["host.interpreter", 0.0, first, 0, {}])
    for name, start, end, parent, attrs in doc["spans"]:
        out.append([name, start, end, parent + 2 if parent >= 0 else 0, attrs])
    out.append(["host.interpreter", doc["finished"], max(total, doc["finished"]),
                0, {}])
    return out


def _round_trace(ctx: Context, tracer: Optional[spanlib.Tracer]) -> Round:
    cache_dir = _point_cache(ctx, "trace")
    env = dict(ctx.child_env, REPRO_CACHE_DIR=str(cache_dir))
    store, plan = setup_workload(ctx.program, ctx.workload, ctx.seed,
                                 ctx.fresh_dir("store"))
    store_dir = store.root
    cells = plan_cells(plan)
    rnd = Round(cells)
    dumps = ctx.fresh_dir("dumps")
    traced = tracer is not None

    def one_pass(tag: str, scaler: Scaler) -> Dict[str, float]:
        """Every cell's child in turn; raw CPU seconds per cell."""
        times = {}
        scaler.boundary()
        for cell in cells:
            stem = _stem(cell) + "." + tag
            out = dumps / (stem + ".json")
            spans_out = dumps / (stem + ".spans.json") if traced else None
            c0 = host_cpu()
            code, err = _run_child(
                _child_argv(_cli_argv(ctx, cell, store_dir, out), spans_out),
                env)
            times[cell.id] = host_cpu() - c0
            scaler.boundary()
            if code != 0:
                rnd.fail(cell.id, "%s child exited %d: %s" % (tag, code, err))
                continue
            if spans_out is not None:
                base = len(rnd.spans)
                for name, start, end, parent, attrs in _child_spans(
                        spans_out, times[cell.id]):
                    rnd.spans.append([name, start, end,
                                      parent + base if parent >= 0 else -1,
                                      attrs])
        return times

    def scaled_pass(tag: str) -> Tuple[Dict[str, float], float]:
        """Normalized time per cell and of the whole pass."""
        scaler = Scaler(ctx.normalize)
        start = host_cpu()
        raw = one_pass(tag, scaler)
        elapsed = host_cpu() - start
        times = {cell.id: scaler.scaled(i, raw[cell.id])
                 for i, cell in enumerate(cells)}
        return times, scaler.wall(elapsed)

    cold, rnd.wall_s = scaled_pass("cold")
    for cell in cells:
        if cell.id in rnd.errors:
            continue
        rnd.cell_s[cell.id] = cold[cell.id]
        _check_cold(ctx, rnd, _load_dump(dumps / (_stem(cell) + ".cold.json")),
                    cell)
    _check_store_after_cold(rnd, store, cells)

    hits0 = store.info()["hits"]
    w0 = host_cpu()
    one_pass("warm", Scaler(normalize=False))
    rnd.warm_s = host_cpu() - w0
    for cell in cells:
        path = dumps / (_stem(cell) + ".warm.json")
        if path.exists():
            _check_warm(rnd, cell, _load_dump(path))
    rnd.warm_store_hits = store.info()["hits"] - hits0
    store.close()
    return rnd


# -- grid-short ---------------------------------------------------------
def _round_grid(ctx: Context, tracer: Optional[spanlib.Tracer]) -> Round:
    program = ctx.program
    _point_cache(ctx, "grid")
    program.runner.clear_layout_cache()
    store, plan = setup_workload(program, ctx.workload, ctx.seed,
                                 ctx.fresh_dir("store"))
    cells = plan_cells(plan)
    by_name = {(c.benchmark, c.policy): c for c in cells}
    rnd = Round(cells)
    # the executor runs cells inside run_sweep; time each one from
    # outside by wrapping the runner's run_benchmark and the store's put
    clock = tracer if tracer is not None else spanlib.Tracer()
    clock.wrap(program.runner, "run_benchmark", "cell", after=_tag_run)
    if tracer is None:
        clock.wrap(program.store_mod.ResultStore, "put", "service.store_put",
                   after=spanlib.tag_put)
    # a host-speed sample before each cell, outside its span, and one
    # after the sweep: cell i runs between samples i and i + 1
    scaler = Scaler(ctx.normalize)
    timed_run = program.runner.run_benchmark

    def sampled_run(*args, **kwargs):
        scaler.boundary()
        return timed_run(*args, **kwargs)

    first_span = len(clock.spans)
    run_sweep = program.sweeps.run_sweep
    program.runner.run_benchmark = sampled_run
    try:
        start = host_cpu()
        with clock.span("sweeps.run_sweep"):
            report = run_sweep(plan, store=store, jobs=1, state_path="")
        scaler.boundary()
        elapsed = host_cpu() - start
    finally:
        program.runner.run_benchmark = timed_run
        if tracer is None:
            clock.restore()
    counts = report.counts
    if counts.get("executed") != len(cells):
        rnd.fail_all("cold pass executed %s of %d cells"
                     % (counts.get("executed"), len(cells)))
    _attribute_grid_cells(clock.spans[first_span:], by_name, rnd, scaler)
    rnd.wall_s = scaler.wall(elapsed)
    for pcell, source, stats, error, _wall in report.outcomes.values():
        cell = by_name[(pcell.benchmark, pcell.policy)]
        if stats is None:
            rnd.fail(cell.id, "sweep %s: %s" % (source, error))
            continue
        _check_cold(ctx, rnd, dict(stats.counters()), cell)
    _check_store_after_cold(rnd, store, cells)

    hits0 = store.info()["hits"]
    w0 = host_cpu()
    ctx_span = (tracer.span("sweeps.resolve") if tracer is not None
                else nullcontext())
    with ctx_span:
        warm = run_sweep(plan, store=store, jobs=1, state_path="")
    rnd.warm_s = host_cpu() - w0
    hits = store.info()["hits"] - hits0
    if warm.counts.get("executed") != 0 or hits != len(cells):
        rnd.fail_all("warm pass executed %s cells, store hits rose by %d"
                     % (warm.counts.get("executed"), hits))
    rnd.warm_store_hits = hits
    for pcell, source, stats, error, _wall in warm.outcomes.values():
        cell = by_name[(pcell.benchmark, pcell.policy)]
        if stats is None:
            rnd.fail(cell.id, "warm sweep %s: %s" % (source, error))
        else:
            _check_warm(rnd, cell, dict(stats.counters()))
    store.close()
    return rnd


def _tag_run(span: spanlib.Span, args: tuple, _kwargs: dict, _stats) -> None:
    policy = args[1]
    span.attrs["cell"] = [args[0], getattr(policy, "name", policy)]


def _attribute_grid_cells(spans: List[spanlib.Span],
                          by_name: Dict[Tuple[str, str], Cell],
                          rnd: Round, scaler: Scaler) -> None:
    """Cell time on grid-short: its run_benchmark call plus its store put.

    Both spans name their cell: the run by its arguments, the put by the
    metadata the executor stores with the result. The n-th run span is
    the n-th piece of ``scaler``.
    """
    raw: Dict[str, float] = {}
    piece: Dict[str, int] = {}
    for span in spans:
        if span.name not in ("cell", "service.store_put"):
            continue
        bench, policy = span.attrs.get("cell", (None, None))
        cell = by_name.get((bench, policy))
        if cell is None:
            rnd.fail_all("unattributed %s span for %s/%s"
                         % (span.name, bench, policy))
            continue
        if span.name == "cell":
            piece[cell.id] = len(piece)
        raw[cell.id] = raw.get(cell.id, 0.0) + span.end - span.start
    for cell_id, raw_s in raw.items():
        if cell_id in piece:
            rnd.cell_s[cell_id] = scaler.scaled(piece[cell_id], raw_s)
