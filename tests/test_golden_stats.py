"""Golden-stats regression anchors.

Three (benchmark, policy, seed) cells with their **full**
:class:`SimulationStats` dict pinned, captured from the pre-optimization
per-cycle reference implementation. Any change to simulation semantics —
including a bug in the event-horizon fast path, which is ON by default
in these runs — trips these comparisons field-by-field.

If a *deliberate* modelling change invalidates them, regenerate with::

    PYTHONPATH=src python -c "
    from repro.simulator.runner import run_benchmark
    s = run_benchmark('tatp', 'pdip_44', instructions=30000, warmup=6000,
                      seed=1, use_cache=False)
    print(s.to_dict())"
"""

from __future__ import annotations

import pytest

from repro.simulator.runner import run_benchmark

GOLDEN = [
    ("tatp", "pdip_44", 1, 30000, 6000, {
        'cycles': 30346,
        'decode_starvation_cycles': 7147,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 51,
        'fec_events': 41,
        'fec_high_cost_backend_events': 26,
        'fec_high_cost_events': 53,
        'fec_starvation_cycles': 4966,
        'instructions': 30000,
        'l1i_accesses': 22470,
        'l1i_misses': 210,
        'l2_data_misses': 1973,
        'l2_inst_misses': 135,
        'l3_misses': 1985,
        'pdip_inserts': 27,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 8144,
        'prefetch_late': 2,
        'prefetch_useful': 4,
        'prefetch_useless': 1,
        'prefetches_dropped': 0,
        'prefetches_issued': 7,
        'resteers': 418,
        'resteers_btb_miss': 132,
        'resteers_cond': 150,
        'resteers_indirect': 136,
        'resteers_return': 0,
        'retired_distinct_lines': 163,
        'slots_backend_bound': 222694,
        'slots_bad_speculation': 24908,
        'slots_frontend_bound': 86257,
        'slots_retiring': 30293,
        'slots_total': 364152,
        'wrong_path_blocks': 13373,
    }),
    ("dotty", "baseline", 2, 30000, 6000, {
        'cycles': 35453,
        'decode_starvation_cycles': 10567,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 94,
        'fec_events': 84,
        'fec_high_cost_backend_events': 63,
        'fec_high_cost_events': 114,
        'fec_starvation_cycles': 8244,
        'instructions': 30009,
        'l1i_accesses': 21934,
        'l1i_misses': 729,
        'l2_data_misses': 2463,
        'l2_inst_misses': 431,
        'l3_misses': 2424,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 0,
        'prefetch_useful': 0,
        'prefetch_useless': 0,
        'prefetches_dropped': 0,
        'prefetches_issued': 0,
        'resteers': 453,
        'resteers_btb_miss': 203,
        'resteers_cond': 185,
        'resteers_indirect': 65,
        'resteers_return': 0,
        'retired_distinct_lines': 325,
        'slots_backend_bound': 245832,
        'slots_bad_speculation': 21883,
        'slots_frontend_bound': 127826,
        'slots_retiring': 29895,
        'slots_total': 425436,
        'wrong_path_blocks': 12974,
    }),
    ("kafka", "eip_46", 3, 30000, 6000, {
        'cycles': 21372,
        'decode_starvation_cycles': 11365,
        'extra': {},
        'fec_covered_events': 3,
        'fec_distinct_lines': 95,
        'fec_events': 85,
        'fec_high_cost_backend_events': 77,
        'fec_high_cost_events': 89,
        'fec_starvation_cycles': 8800,
        'instructions': 30011,
        'l1i_accesses': 24290,
        'l1i_misses': 466,
        'l2_data_misses': 789,
        'l2_inst_misses': 256,
        'l3_misses': 1045,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 3,
        'prefetch_useful': 17,
        'prefetch_useless': 44,
        'prefetches_dropped': 8,
        'prefetches_issued': 78,
        'resteers': 436,
        'resteers_btb_miss': 247,
        'resteers_cond': 82,
        'resteers_indirect': 107,
        'resteers_return': 0,
        'retired_distinct_lines': 311,
        'slots_backend_bound': 58665,
        'slots_bad_speculation': 29728,
        'slots_frontend_bound': 137787,
        'slots_retiring': 30284,
        'slots_total': 256464,
        'wrong_path_blocks': 14769,
    }),
]


@pytest.mark.parametrize(
    "bench,policy,seed,instructions,warmup,want", GOLDEN,
    ids=["%s-%s-s%d" % (b, p, s) for b, p, s, _, _, _ in GOLDEN])
def test_golden_stats(bench, policy, seed, instructions, warmup, want):
    stats = run_benchmark(bench, policy, instructions=instructions,
                          warmup=warmup, seed=seed, use_cache=False)
    got = stats.to_dict()
    assert got == want, {
        k: (want.get(k), got.get(k))
        for k in set(want) | set(got) if want.get(k) != got.get(k)
    }
