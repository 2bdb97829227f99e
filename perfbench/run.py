"""The repository benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload synth-long --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the separate traced run and prints the per-layer
metrics. Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print each metric with its unit. The exit code is 0 when every cell
passed its output check, 1 when one failed, and 2 when the program's
source (``src/repro``) is not in the checkout.

``--spans-out PATH`` (with ``--trace 1``) also writes the traced round's
spans, ``[name, start, end, parent index, attributes]`` in CPU seconds.
``--record-expected`` re-records ``expected.json`` (stats digests per
workload, seed and cell) for the seeds given with ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import harness
import spans as spanlib
from checks import maximum, median

SCRATCH_ROOT = harness.ROOT / ".perfbench_scratch"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "sim_kips": "kinst/s",
    "cell_s.p50": "s", "cell_s.max": "s", "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def run_probes(ctx: harness.Context, count: int) -> List[Dict[str, float]]:
    """Set up ``count + 1`` times in fresh processes; drop the first.

    A probe's ``total_s`` is scaled by the host-speed samples around it
    when the run normalizes; its phases are the child's own CPU times.
    """
    out = []
    scaler = harness.Scaler(ctx.normalize)
    scaler.boundary()
    for i in range(count + 1):
        store_dir = ctx.fresh_dir("probe")
        argv = [sys.executable, str(harness.HERE / "setup_probe.py"),
                ctx.workload, str(ctx.seed), str(store_dir / "store")]
        c0 = harness.children_cpu()
        proc = subprocess.run(argv, env=ctx.child_env, cwd=str(harness.ROOT),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=harness.CHILD_TIMEOUT_S)
        total = harness.children_cpu() - c0
        scaler.boundary()
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr[-500:])
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        phases["total_s"] = scaler.scaled(i, total)
        if i:
            out.append(phases)
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ok_cells(rounds: List[harness.Round]):
    for rnd in rounds:
        for cell in rnd.cells:
            if cell.id in rnd.cell_s and cell.id in rnd.counters:
                yield rnd, cell


def end_to_end(rounds: List[harness.Round],
               probes: List[Dict[str, float]]) -> Dict[str, float]:
    """End-to-end metrics of a timed run.

    Times are normalized seconds (``hostspeed``): the host-speed samples
    already took out most of the shared host's slow stretches, so each
    timed quantity is the median of its repetitions in the run: a
    cell's time over the rounds, the cold pass over the rounds.
    """
    ok = list(_ok_cells(rounds))
    if not ok:
        return {name: 0.0 for name in END_TO_END_UNITS}
    n_cells = len(rounds[0].cells)
    times: Dict[str, List[float]] = {}
    instructions: Dict[str, int] = {}
    for rnd, cell in ok:
        times.setdefault(cell.id, []).append(rnd.cell_s[cell.id])
        instructions[cell.id] = rnd.simulated_instructions(cell)
    cell_s = [median(t) for t in times.values()]
    wall = median([rnd.wall_s for rnd in rounds])
    return {
        "setup_s": median([p["total_s"] for p in probes]),
        "wall_s": wall,
        "sim_kips": sum(instructions.values()) / sum(cell_s) / 1000.0,
        "cell_s.p50": median(cell_s),
        "cell_s.max": maximum(cell_s),
        "cells_per_s": n_cells / wall,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def simulated_counts(rnd: harness.Round) -> Dict[str, float]:
    """Exact simulated statistics of one round's cold pass, pooled."""
    total: Dict[str, float] = {}
    for counters in rnd.counters.values():
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    ins = total.get("instructions", 0)
    issued = total.get("prefetches_issued", 0)
    dropped = total.get("prefetches_dropped", 0)
    return {
        "simulator.ipc": _ratio(ins, total.get("cycles", 0)),
        "branch.resteers_pki": _ratio(total.get("resteers", 0), ins, 1000),
        "memory.l1i_mpki": _ratio(total.get("l1i_misses", 0), ins, 1000),
        "memory.l2_inst_mpki": _ratio(total.get("l2_inst_misses", 0), ins,
                                      1000),
        "frontend.prefetches_issued_pki": _ratio(issued, ins, 1000),
        "frontend.prefetches_dropped_frac": _ratio(dropped, issued + dropped),
        "prefetchers.useful_frac": _ratio(total.get("prefetch_useful", 0),
                                          issued),
        "prefetchers.late_frac": _ratio(total.get("prefetch_late", 0), issued),
        "core.pdip_inserts": float(total.get("pdip_inserts", 0)),
        "core.fec_starvation_pki": _ratio(total.get("fec_starvation_cycles", 0),
                                          ins, 1000),
        "backend.frontend_bound_frac": _ratio(
            total.get("slots_frontend_bound", 0), total.get("slots_total", 0)),
    }


PER_LAYER_UNITS = {
    "simulator.run_kips": "kinst/s",
    "simulator.run_kcycles_per_s": "kcycles/s",
    "simulator.us_per_stepped_cycle": "us",
    "core.pdip_inserts": "count",
    "service.store_hits": "count",
    "service.warm_cells_per_s": "1/s",
}

#: per-layer span self times reported, by span name
LAYER_SPANS = {
    "cli.parse_s": "cli.parse",
    "workloads.generate_layout_s": "workloads.generate_layout",
    "traces.layout_builder_s": "traces.layout_builder",
    "simulator.run_key_s": "simulator.run_key",
    "simulator.build_machine_s": "simulator.build_machine",
    "simulator.run_s": "simulator.run",
    "simulator.cache_io_s": "simulator.cache_io",
    "service.store_open_s": "service.store_open",
    "service.store_put_s": "service.store_put",
    "service.store_get_s": "service.store_get",
    "sweeps.run_sweep_s": "sweeps.run_sweep",
    "sweeps.resolve_s": "sweeps.resolve",
    "host.interpreter_s": "host.interpreter",
}


def per_layer(untraced: harness.Round, traced: harness.Round,
              probes: List[Dict[str, float]],
              split: Dict[str, float]) -> Dict[str, float]:
    spans = traced.spans
    own = spanlib.self_by_name(spans)
    runs = [s for s in spans if s[0] == "simulator.run"]
    run_s = sum(end - start for _n, start, end, _p, _a in runs)
    cycles = sum(a.get("cycles", 0) for *_x, a in runs)
    ff = sum(a.get("ff", 0) for *_x, a in runs)
    ins = sum(a.get("instructions", 0) for *_x, a in runs)
    cover = spanlib.coverage(spans)
    cells = [(end - start, own_s) for (name, start, end, _p, _a), own_s
             in zip(spans, spanlib.self_times(spans)) if name == "cell"]
    metrics = {
        "cli.import_s": median([p["import_s"] for p in probes]),
        "sweeps.compile_spec_s": median([p["compile_spec_s"] for p in probes]),
    }
    metrics.update({metric: own.get(name, 0.0)
                    for metric, name in LAYER_SPANS.items()})
    metrics.update({
        "simulator.run_kips": _ratio(ins, run_s, 1e-3),
        "simulator.run_kcycles_per_s": _ratio(cycles, run_s, 1e-3),
        "simulator.us_per_stepped_cycle": _ratio(run_s, cycles - ff, 1e6),
        "simulator.ff_frac": _ratio(ff, cycles),
        "service.store_hits": float(traced.warm_store_hits),
        # the untraced round's warm pass: cells resolved per CPU second
        # against a warm store, store reads, commits and cache writes
        "service.warm_cells_per_s": _ratio(len(untraced.cells),
                                           untraced.warm_s),
        "trace.span_coverage_min": min(cover) if cover else 0.0,
        "trace.other_frac": _ratio(sum(o for _d, o in cells),
                                   sum(d for d, _o in cells)),
        "trace.overhead": _ratio(traced.total_s, untraced.total_s),
    })
    metrics.update({"host.self_frac." + pkg: frac
                    for pkg, frac in split.items()})
    metrics.update(simulated_counts(traced))
    return metrics


# ----------------------------------------------------------------------
# profiler pass
# ----------------------------------------------------------------------
def profile_pass(ctx: harness.Context) -> Dict[str, float]:
    """Self-time split by package, from one cProfile'd slice of the workload."""
    program = ctx.program
    if ctx.workload == "trace-cold":
        bench, policy = harness.TRACE_PROFILE_CELL
        cell = next(c for c in harness.plan_cells(
            harness.compile_plan(program, ctx.workload, ctx.seed))
            if (c.benchmark, c.policy) == (bench, policy))
        work = ctx.fresh_dir("profile")
        env = dict(ctx.child_env, REPRO_CACHE_DIR=str(work / "cache"))
        out = work / "cell.pstats"
        argv = harness._child_argv(
            harness._cli_argv(ctx, cell, work / "store", work / "dump.json"),
            None, profile_out=out)
        code, err = harness._run_child(argv, env)
        if code != 0:
            raise RuntimeError("profiled child exited %d: %s" % (code, err))
        import pstats
        return spanlib.profile_split(pstats.Stats(str(out)))

    harness._point_cache(ctx, "profile")
    program.runner.clear_layout_cache()
    store, plan = harness.setup_workload(program, ctx.workload, ctx.seed,
                                         ctx.fresh_dir("store"))
    try:
        if ctx.workload == "grid-short":
            def work_fn():
                return program.sweeps.run_sweep(plan, store=store, jobs=1,
                                                state_path="")
        else:
            def work_fn():
                for bench, policy in harness.SYNTH_PROFILE_CELLS:
                    program.runner.run_benchmark(
                        bench, policy, instructions=harness.SYNTH_BUDGET[0],
                        warmup=harness.SYNTH_BUDGET[1], seed=ctx.seed,
                        store=store)
        _result, stats = spanlib.profile_call(work_fn)
    finally:
        store.close()
    return spanlib.profile_split(stats)


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def timed_run(ctx: harness.Context, seconds: float,
              started: float) -> Tuple[List[harness.Round], Dict[str, float]]:
    ctx.normalize = True
    probes = run_probes(ctx, harness.SETUP_PROBES)
    rounds: List[harness.Round] = []
    while True:
        r0 = time.perf_counter()
        rounds.append(harness.run_round(ctx))
        took = time.perf_counter() - r0
        if time.perf_counter() - started + took > seconds:
            break
    return rounds, end_to_end(rounds, probes)


def traced_run(ctx: harness.Context
               ) -> Tuple[List[harness.Round], Dict[str, float]]:
    probes = run_probes(ctx, harness.SETUP_PROBES)
    untraced = harness.run_round(ctx)
    tracer = spanlib.Tracer()
    if ctx.workload != "trace-cold":
        spanlib.install_layer_wraps(tracer)
    try:
        traced = harness.run_round(ctx, tracer)
    finally:
        tracer.restore()
    if ctx.workload != "trace-cold":
        traced.spans = tracer.dump()
    split = profile_pass(ctx)
    return [untraced, traced], per_layer(untraced, traced, probes, split)


def record_expected(program: harness.Program, seeds: List[int],
                    scratch: Path, env: Dict[str, str]) -> int:
    table = checks.load_expected()
    for workload in harness.WORKLOADS:
        for seed in seeds:
            ctx = harness.Context(program, workload, seed, scratch, env)
            ctx.expected = None
            rnd = harness.run_round(ctx)
            if rnd.errors:
                print("not recording %s seed %d: %s"
                      % (workload, seed, rnd.errors), file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = {
                cell.id: checks.stats_digest(rnd.counters[cell.id])
                for cell in rnd.cells}
            print("recorded %s seed %d (%d cells)"
                  % (workload, seed, len(rnd.cells)))
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _units(metrics: Dict[str, float]) -> Dict[str, str]:
    units = {}
    for name in metrics:
        if name in END_TO_END_UNITS:
            units[name] = END_TO_END_UNITS[name]
        elif name in PER_LAYER_UNITS:
            units[name] = PER_LAYER_UNITS[name]
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("pki"):
            units[name] = "1/kinst"
        else:
            units[name] = "ratio"
    return units


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return value


def _exit_on_sigterm(signum, _frame) -> None:
    # unwinds through the finally blocks that kill children and delete
    # the scratch directory
    sys.exit(128 + signum)


def _pin_to_one_cpu() -> None:
    """Run this process, and so every child it starts, on one CPU.

    The host-speed samples then run on the same core as the work they
    scale, and no child migrates between cores mid-cell.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    _pin_to_one_cpu()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=_seed, action="append", default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, metavar="PATH",
                        help="with --trace 1, also write the traced round's "
                             "spans as JSON")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    seeds = args.seed or [1]
    if not args.record_expected and (args.workload is None or len(seeds) != 1):
        parser.error("--workload and exactly one --seed are required")

    if not harness.program_present():
        print("perfbench: no program source at %s" % (harness.SRC / "repro"),
              file=sys.stderr)
        return 2
    scratch = SCRATCH_ROOT / ("run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        env = harness.isolate_environment(scratch)
        program = harness.Program()
        if args.record_expected:
            return record_expected(program, seeds, scratch, env)
        ctx = harness.Context(program, args.workload, seeds[0], scratch, env)
        if args.trace:
            rounds, metrics = traced_run(ctx)
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump({"workload": args.workload, "seed": seeds[0],
                               "clock": "process CPU seconds",
                               "spans": rounds[-1].spans}, fh)
        else:
            rounds, metrics = timed_run(ctx, args.seconds, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass

    attempted = sum(len(rnd.cells) for rnd in rounds)
    failed = sum(len(rnd.errors) for rnd in rounds)
    for i, rnd in enumerate(rounds):
        for cell_id, errors in sorted(rnd.errors.items()):
            print("FAILED round %d %s: %s" % (i, cell_id, "; ".join(errors)))
    coverage = metrics.get("trace.span_coverage_min", 1.0)
    if coverage < 0.95:
        print("WARNING: spans cover only %.1f%% of the least covered cell"
              % (100 * coverage))
    units = _units(metrics)
    print("%s seed=%d rounds=%d cells/round=%d expected=%s"
          % (args.workload, seeds[0], len(rounds), len(rounds[0].cells),
             "recorded" if ctx.expected is not None else "none"))
    for name in sorted(metrics):
        print("  %-36s %14.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
