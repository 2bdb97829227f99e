"""Tests of the benchmark itself: names, checks, isolation, statistics."""

import json
import re
from pathlib import Path

import pytest

import checks
import harness
import hostspeed
import run
import spans as spanlib

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _counters(**overrides):
    base = {"cycles": 1000, "instructions": 2000, "slots_total": 4000,
            "slots_retiring": 2000, "slots_bad_speculation": 500,
            "slots_frontend_bound": 1000, "slots_backend_bound": 500,
            "l1i_misses": 40, "prefetches_issued": 10}
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
class TestMetricNames:
    def test_names_match_the_allowed_pattern_and_are_unique(self):
        doc = _benchmark()
        names = ([w["name"] for w in doc["workloads"]]
                 + [m["name"] for m in doc["end_to_end"]]
                 + [m["name"] for m in doc["per_layer"]])
        for name in names:
            assert NAME_RE.match(name), name
        assert len(names) == len(set(names))

    def test_workloads_are_the_harness_workloads(self):
        assert [w["name"] for w in _benchmark()["workloads"]] == \
            list(harness.WORKLOADS)

    def test_end_to_end_metrics_are_the_reported_ones(self):
        declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
        assert declared == run.END_TO_END_UNITS

    def test_per_layer_metrics_are_the_reported_ones(self):
        cell = harness.Cell("noop/baseline", "noop", "baseline", 1, "k", 10, 5)
        rnd = harness.Round([cell], counters={cell.id: _counters()})
        rnd.spans = [["cell", 0.0, 2.0, -1, {}],
                     ["simulator.run", 0.5, 1.9, 0,
                      {"cycles": 100, "ff": 40, "instructions": 15}]]
        rnd.total_s = 2.0
        split = {pkg: 0.0 for pkg in spanlib.SPLIT_PACKAGES + ("other",)}
        probes = [{"import_s": 0.1, "compile_spec_s": 0.01, "total_s": 0.3}]
        metrics = run.per_layer(rnd, rnd, probes, split)
        declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        assert set(metrics) == set(declared)
        units = run._units(metrics)
        assert {name: units[name] for name in metrics} == declared


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class TestDigestCheck:
    def test_matching_digest_passes(self):
        counters = _counters()
        expected = {"c": checks.stats_digest(counters)}
        assert checks.check_cell("c", counters, 2000, expected) == []

    def test_perturbed_counter_fails(self):
        expected = {"c": checks.stats_digest(_counters())}
        errors = checks.check_cell("c", _counters(l1i_misses=41), 2000,
                                   expected)
        assert any("digest" in e for e in errors)

    def test_unrecorded_cell_fails_when_the_seed_is_recorded(self):
        errors = checks.check_cell("other", _counters(), 2000, {"c": "x"})
        assert any("no recorded digest" in e for e in errors)

    def test_topdown_buckets_must_sum_to_slots_total(self):
        errors = checks.check_cell("c", _counters(slots_total=4001), 2000, None)
        assert any("slots_total" in e for e in errors)

    def test_instructions_must_reach_the_budget(self):
        errors = checks.check_cell("c", _counters(instructions=1999), 2000,
                                   None)
        assert any("budget" in e for e in errors)

    def test_recorded_digest_matches_a_fresh_simulation(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        program = harness.Program()
        plan = harness.compile_plan(program, "grid-short", 1)
        cell = harness.plan_cells(plan)[0]
        stats = program.runner.run_benchmark(
            cell.benchmark, cell.policy, instructions=cell.instructions,
            warmup=cell.warmup, seed=1, use_cache=False)
        expected = checks.load_expected()["grid-short"]["1"]
        counters = dict(stats.counters())
        assert checks.check_cell(cell.id, counters, cell.instructions,
                                 expected) == []
        counters["cycles"] += 1
        assert checks.check_cell(cell.id, counters, cell.instructions,
                                 expected)


# ----------------------------------------------------------------------
# run isolation
# ----------------------------------------------------------------------
TINY_SPEC = """
name = "tiny"
[axes]
benchmark = ["noop"]
policy = ["baseline", "pdip_44"]
[defaults]
instructions = 600
warmup = 100
"""


@pytest.fixture
def tiny_grid(tmp_path, monkeypatch):
    spec = tmp_path / "tiny.toml"
    spec.write_text(TINY_SPEC)
    monkeypatch.setattr(harness, "GRID_SPEC", spec)
    _guard_environment(monkeypatch)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    env = harness.isolate_environment(scratch)
    ctx = harness.Context(harness.Program(), "grid-short", 1, scratch,
                          env)
    ctx.expected = None
    return ctx


def _guard_environment(monkeypatch):
    """Let monkeypatch undo what isolate_environment sets."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "unset")
    monkeypatch.setenv("REPRO_TRACE_REGISTRY", "unset")


class TestIsolation:
    def test_fresh_dir_never_reuses_a_directory(self, tmp_path):
        ctx = harness.Context(None, "grid-short", 1, tmp_path, {})
        stale = tmp_path / "grid-1"
        stale.mkdir()
        (stale / "leftover.json").write_text("{}")
        fresh = ctx.fresh_dir("grid")
        assert fresh != stale and list(fresh.iterdir()) == []

    def test_non_empty_cache_dir_is_refused(self, tmp_path):
        (tmp_path / "x.json").write_text("{}")
        with pytest.raises(RuntimeError):
            harness._empty_dir(tmp_path)

    def test_environment_knobs_are_removed(self, tmp_path, monkeypatch):
        for name in ("REPRO_BACKEND", "REPRO_TELEMETRY", "REPRO_STORE",
                     "REPRO_JOBS", "REPRO_NO_CACHE"):
            monkeypatch.setenv(name, "1")
        _guard_environment(monkeypatch)
        env = harness.isolate_environment(tmp_path)
        assert not [k for k in env if k.startswith("REPRO_")
                    and k not in ("REPRO_TRACE_REGISTRY", "REPRO_CACHE_DIR")]

    def test_clean_round_passes(self, tiny_grid):
        rnd = harness.run_round(tiny_grid)
        assert rnd.errors == {}
        assert set(rnd.cell_s) == {"noop/baseline", "noop/pdip_44"}

    def test_prepopulated_cache_fails_the_cold_pass(self, tiny_grid,
                                                    monkeypatch):
        # fill a cache with every cell's result, then let a round use it
        warm = harness.run_round(tiny_grid)
        assert warm.errors == {}
        leaked = sorted(tiny_grid.scratch.glob("grid-*/cache"))[0]
        monkeypatch.setattr(harness, "_empty_dir", lambda path: leaked)
        rnd = harness.run_round(tiny_grid)
        assert set(rnd.errors) == {"noop/baseline", "noop/pdip_44"}
        assert any("executed 0 of 2" in e
                   for e in rnd.errors["noop/baseline"])


# ----------------------------------------------------------------------
# statistics and spans
# ----------------------------------------------------------------------
class TestSmallSampleHelpers:
    def test_median(self):
        assert checks.median([3.0]) == 3.0
        assert checks.median([3.0, 1.0, 2.0]) == 2.0
        assert checks.median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_maximum(self):
        assert checks.maximum([1.0, 5.0, 2.0]) == 5.0

    def test_empty_samples_are_refused(self):
        with pytest.raises(ValueError):
            checks.median([])
        with pytest.raises(ValueError):
            checks.maximum([])


class TestHostSpeed:
    def test_scale_is_nominal_over_the_mean_sample(self):
        nominal = hostspeed.NOMINAL_S
        assert hostspeed.scale([nominal, nominal]) == 1.0
        assert hostspeed.scale([nominal, 3 * nominal]) == 0.5

    def test_kernel_is_deterministic_and_sampled_with_gc_restored(self):
        assert hostspeed.kernel() == hostspeed.kernel()
        import gc
        assert gc.isenabled()
        assert hostspeed.sample() > 0
        assert gc.isenabled()

    def test_scaler_without_normalization_changes_nothing(self):
        scaler = harness.Scaler(normalize=False)
        for _ in range(3):
            scaler.boundary()
        assert scaler.scaled(0, 0.25) == 0.25
        assert scaler.scaled(1, 0.5) == 0.5
        assert scaler.wall(1.0) == 1.0

    def test_scaler_pieces_use_the_samples_around_them(self, monkeypatch):
        monkeypatch.setattr(harness, "SAMPLES_PER_SIDE", 1)
        scaler = harness.Scaler(normalize=False)
        nominal = hostspeed.NOMINAL_S
        scaler.samples = [nominal, nominal, 3 * nominal]
        assert scaler.scaled(0, 1.0) == 1.0
        assert scaler.scaled(1, 1.0) == 0.5
        # wall: elapsed less sampling time, at the time-weighted factor
        scaler.sample_s = 0.5
        assert scaler.wall(2.5) == pytest.approx(2.0 * 0.75)

    def test_scaler_window_is_cut_at_the_ends(self, monkeypatch):
        monkeypatch.setattr(harness, "SAMPLES_PER_SIDE", 2)
        scaler = harness.Scaler(normalize=False)
        nominal = hostspeed.NOMINAL_S
        scaler.samples = [nominal, nominal, nominal, nominal, 5 * nominal]
        # piece 0 sees samples 0..2, piece 2 sees samples 1..4
        assert scaler.factor(0) == 1.0
        assert scaler.factor(2) == pytest.approx(0.5)

    def test_normalized_samples_are_timed_and_excluded_from_wall(self):
        scaler = harness.Scaler(normalize=True)
        scaler.boundary()
        scaler.boundary()
        assert all(s > 0 for s in scaler.samples)
        assert scaler.sample_s > 0
        assert scaler.wall(scaler.sample_s) == 0.0


class TestSpans:
    SPANS = [["cell", 0.0, 10.0, -1, {}],
             ["a", 0.0, 4.0, 0, {}],
             ["b", 4.0, 9.5, 0, {}],
             ["c", 5.0, 6.0, 2, {}]]

    def test_self_time_subtracts_direct_children(self):
        assert spanlib.self_times(self.SPANS) == [0.5, 4.0, 4.5, 1.0]

    def test_coverage_counts_direct_children(self):
        assert spanlib.coverage(self.SPANS) == [0.95]

    def test_wrap_records_and_restores(self):
        class Box:
            def f(self, x):
                return x + 1

        tracer = spanlib.Tracer()
        assert tracer.wrap(Box, "f", "box.f")
        assert Box().f(1) == 2
        tracer.restore()
        assert "wrapper" not in Box.f.__code__.co_name
        assert [s[0] for s in tracer.dump()] == ["box.f"]
        assert not tracer.wrap(Box, "missing", "x")
