"""Tests for the optional instruction TLB."""

import pytest

from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.tlb import LINES_PER_PAGE, InstructionTLB


class TestTLB:
    def test_first_access_misses(self):
        tlb = InstructionTLB(entries=8, assoc=2, miss_latency=25)
        assert tlb.translate(0) == 25
        assert tlb.misses == 1

    def test_same_page_hits(self):
        tlb = InstructionTLB(entries=8, assoc=2, miss_latency=25)
        tlb.translate(0)
        assert tlb.translate(1) == 0          # same page
        assert tlb.translate(LINES_PER_PAGE - 1) == 0
        assert tlb.misses == 1

    def test_new_page_misses(self):
        tlb = InstructionTLB(entries=8, assoc=2, miss_latency=25)
        tlb.translate(0)
        assert tlb.translate(LINES_PER_PAGE) == 25

    def test_capacity_eviction(self):
        tlb = InstructionTLB(entries=2, assoc=1, miss_latency=10)
        # pages 0 and num_sets map to set 0
        tlb.translate(0)
        tlb.translate(tlb.num_sets * LINES_PER_PAGE)
        assert tlb.translate(0) == 10  # evicted

    def test_lru_within_set(self):
        tlb = InstructionTLB(entries=4, assoc=2, miss_latency=10)
        sets = tlb.num_sets
        pages = [0, sets, 2 * sets]  # all map to set 0
        tlb.translate(pages[0] * LINES_PER_PAGE)
        tlb.translate(pages[1] * LINES_PER_PAGE)
        tlb.translate(pages[0] * LINES_PER_PAGE)  # refresh
        tlb.translate(pages[2] * LINES_PER_PAGE)  # evicts pages[1]
        assert tlb.translate(pages[0] * LINES_PER_PAGE) == 0
        assert tlb.translate(pages[1] * LINES_PER_PAGE) == 10

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            InstructionTLB(entries=10, assoc=4)

    def test_miss_rate(self):
        tlb = InstructionTLB(entries=8, assoc=2)
        tlb.translate(0)
        tlb.translate(0)
        assert tlb.miss_rate() == pytest.approx(0.5)


class TestHierarchyIntegration:
    def test_disabled_by_default(self):
        h = MemoryHierarchy(config=HierarchyConfig())
        assert h.itlb is None

    def test_walk_adds_latency(self):
        base = MemoryHierarchy(config=HierarchyConfig())
        with_tlb = MemoryHierarchy(
            config=HierarchyConfig(itlb_enabled=True, itlb_miss_latency=25))
        r0 = base.fetch_instruction(100, cycle=0)
        r1 = with_tlb.fetch_instruction(100, cycle=0)
        assert r1.ready_cycle == r0.ready_cycle + 25

    def test_hit_after_walk_fast(self):
        h = MemoryHierarchy(
            config=HierarchyConfig(itlb_enabled=True, itlb_miss_latency=25))
        first = h.fetch_instruction(100, cycle=0)
        r = h.fetch_instruction(100, cycle=first.ready_cycle + 1)
        assert r.l1_hit
        assert (r.ready_cycle
                == first.ready_cycle + 1 + h.config.l1_hit_latency)

    def test_machine_runs_with_itlb(self):
        from repro.simulator.config import MachineConfig
        from repro.simulator.policies import build_machine, get_policy
        from repro.workloads.generator import generate_layout
        from repro.workloads.profiles import get_profile

        profile = get_profile("noop")
        layout = generate_layout(profile, seed=1)
        cfg = MachineConfig(hierarchy=HierarchyConfig(itlb_enabled=True))
        machine = build_machine(layout, profile, get_policy("baseline"),
                                config=cfg, seed=1)
        stats = machine.run(4000, warmup=800)
        assert machine.hierarchy.itlb.accesses > 0
        assert stats.instructions >= 4000


#: full stats of one iTLB cell (tatp/eip_46, 16-entry iTLB, seed 2,
#: 15000 + 3000 instructions). No other golden enables the iTLB, whose
#: walks send every FDIP line through ``fetch_instruction`` instead of
#: the batched ready-hit path.
ITLB_GOLDEN = {
    'cycles': 20052, 'decode_starvation_cycles': 8129, 'extra': {},
    'fec_covered_events': 1, 'fec_distinct_lines': 58, 'fec_events': 52,
    'fec_high_cost_backend_events': 38, 'fec_high_cost_events': 64,
    'fec_starvation_cycles': 6289, 'instructions': 15003,
    'l1i_accesses': 12993, 'l1i_misses': 300, 'l2_data_misses': 1262,
    'l2_inst_misses': 174, 'l3_misses': 1433, 'pdip_inserts': 0,
    'pdip_triggers_last_taken': 0, 'pdip_triggers_mispredict': 0,
    'prefetch_late': 10, 'prefetch_useful': 26, 'prefetch_useless': 4,
    'prefetches_dropped': 0, 'prefetches_issued': 45, 'resteers': 283,
    'resteers_btb_miss': 146, 'resteers_cond': 122, 'resteers_indirect': 15,
    'resteers_return': 0, 'retired_distinct_lines': 213,
    'slots_backend_bound': 116196, 'slots_bad_speculation': 11251,
    'slots_frontend_bound': 98118, 'slots_retiring': 15059,
    'slots_total': 240624, 'wrong_path_blocks': 7952,
}


def test_itlb_cell_golden_stats():
    from repro.simulator.config import MachineConfig
    from repro.simulator.runner import run_benchmark

    cfg = MachineConfig(hierarchy=HierarchyConfig(itlb_enabled=True,
                                                  itlb_entries=16))
    stats = run_benchmark("tatp", "eip_46", instructions=15000, warmup=3000,
                          seed=2, config=cfg, use_cache=False)
    assert stats.to_dict() == ITLB_GOLDEN
