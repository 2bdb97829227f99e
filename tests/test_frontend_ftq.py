"""Tests for the fetch target queue."""

import pytest

from repro.frontend.ftq import FTQ, FTQEntry
from repro.simulator.machine import Machine
from repro.workloads.generator import generate_layout
from repro.workloads.layout import BasicBlock, BranchKind
from repro.workloads.profiles import WorkloadProfile


def entry(bid=0, cycle=0, lines=None):
    block = BasicBlock(bid=bid, addr=0x1000 + bid * 64, num_instructions=4)
    return FTQEntry(block=block, lines=lines or block.lines(),
                    enqueue_cycle=cycle)


class TestFTQ:
    def test_starts_empty(self):
        ftq = FTQ(depth=4)
        assert ftq.empty
        assert not ftq.full
        assert len(ftq) == 0
        assert ftq.head() is None

    def test_fifo_order(self):
        ftq = FTQ(depth=4)
        for i in range(3):
            ftq.push(entry(bid=i))
        assert ftq.pop().block.bid == 0
        assert ftq.pop().block.bid == 1
        assert ftq.pop().block.bid == 2

    def test_full_rejects_push(self):
        ftq = FTQ(depth=2)
        ftq.push(entry(0))
        ftq.push(entry(1))
        assert ftq.full
        with pytest.raises(RuntimeError):
            ftq.push(entry(2))

    def test_flush_empties(self):
        ftq = FTQ(depth=4)
        for i in range(3):
            ftq.push(entry(i))
        assert ftq.flush() == 3
        assert ftq.empty
        assert ftq.flushes == 1
        assert ftq.flushed_entries == 3

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            FTQ(depth=0)

    def test_iteration(self):
        ftq = FTQ(depth=4)
        for i in range(3):
            ftq.push(entry(i))
        assert [e.block.bid for e in ftq] == [0, 1, 2]


class TestFTQEntry:
    def test_ready_at_starts_at_enqueue_cycle(self):
        e = entry(cycle=7)
        assert e.ready_at == 7

    def test_ready_at_is_latest_line_fill(self):
        """The machine's FTQ fill leaves ``ready_at`` at the latest fill
        among the entry's fetched lines: the cycle decode waits for."""
        profile = WorkloadProfile(name="ftq-ready-test", num_functions=40,
                                  num_handlers=6, num_leaves=8, call_depth=3)
        machine = Machine(generate_layout(profile, seed=1), profile, seed=1)
        for _ in range(8):
            machine._iag_fill(0)  # cold L1-I: every first touch misses
        l1i = machine.hierarchy.l1i
        entries = list(machine.ftq)
        assert len(entries) > 1
        assert any(e.missed_lines for e in entries)
        for e in entries:
            fetched = [ln for ln in e.lines if ln not in e.deferred_lines]
            fills = [l1i.get_state(ln).ready_cycle for ln in fetched]
            assert e.ready_at == max([e.enqueue_cycle] + fills)

    def test_incurred_miss(self):
        e = entry()
        assert not e.incurred_miss
        e.missed_lines.append(10)
        assert e.incurred_miss

    def test_pending_counts_as_miss(self):
        e = entry()
        e.pending_lines.append(10)
        assert e.incurred_miss
