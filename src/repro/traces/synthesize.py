"""Layout synthesis: observed block events -> ``CodeLayout`` + replay stream.

The simulator wants a static binary (:class:`CodeLayout`) plus a dynamic
walker; an external trace gives us only the dynamic side.  This module
reconstructs the static side from the evidence:

* **Block identity** is ``(entry address, terminator pc)`` — the same
  straight-line run entered at the same point is the same static block.
* **Geometry**: instruction counts come from the observed byte span
  (clamped, see :data:`~repro.traces.downsample.MAX_BLOCK_INSTRUCTIONS`);
  synthetic addresses are assigned in external-address order with the
  original adjacency preserved, so cache-line and BTB behaviour track
  the real footprint, with external gaps compressed out.
* **Branch kinds** are inferred from the *observed successor structure*,
  with record ``kind`` hints consulted only where the edges are
  ambiguous.  A block with both taken and not-taken outcomes and one
  fall-through successor is COND (bias = observed taken fraction); a
  taken-only block with one target is DIRECT (or CALL when hinted and a
  return-point block exists); multiple targets make it INDIRECT
  (weights = observed frequencies).  Anything contradictory — e.g. two
  distinct "fall-through" successors, which downsampling window stitches
  can produce — is *promoted to INDIRECT*, the one kind that can
  absorb any successor set.  Promotion is the safety valve that makes
  synthesis total: every event stream yields a layout the replayer's
  verifier accepts.
* **Functions** are grouped from call-target entries and address gaps
  so the layout has a plausible function table (PDIP's priority table
  and the figure tooling key on it).

The output replay stream is closed into a loop (last event's successor
is the first event's block), so ``TraceReplayer(..., loop=True)`` can
drive arbitrarily long simulations from a finite sample.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.traces.downsample import estimate_instructions
from repro.traces.schema import BlockEvent, TraceIngestError
from repro.utils import INSTRUCTION_SIZE, LINE_SIZE
from repro.workloads.layout import BasicBlock, BranchKind, CodeLayout, Function
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import TraceHeader, TraceReplayer

#: A gap of this many external bytes between consecutive blocks starts a
#: new synthetic function (in addition to observed call targets).
FUNCTION_GAP_BYTES = 512

_BASE_ADDR = 0x1_0000

#: Hint priority when a block's records disagree (calls/returns are the
#: structurally consequential ones, so they win).
_HINT_PRIORITY = ("return", "indirect_call", "call", "indirect", "cond",
                  "direct", "unknown")


@dataclass(frozen=True)
class TraceProfile(WorkloadProfile):
    """Profile for a trace-backed benchmark.

    Subclassing :class:`WorkloadProfile` keeps every consumer working
    (the machine reads ``backend_stall_prob`` & friends; the cache
    freezes the profile field-by-field).  The extra fields tie the
    benchmark to its blob: ``trace_digest`` enters the canonical run
    digest via :func:`repro.utils.freeze`, so two different traces can
    never share a run key even under the same benchmark name.
    """

    trace_digest: str = ""
    trace_events: int = 0
    trace_instructions: int = 0


@dataclass
class TraceWorkload:
    """A fully synthesised, simulable trace workload."""

    name: str
    profile: TraceProfile
    layout: CodeLayout
    #: the loop-closed replay stream: ``(bid, taken, next_bid)`` records
    #: under a ``REPRO-TRACE`` header, verified once at synthesis time
    header: TraceHeader
    records: List[Tuple[int, bool, int]]
    digest: str
    events: int
    instructions: int

    @property
    def replay_text(self) -> str:
        """The replay stream in ``REPRO-TRACE`` text form."""
        return "\n".join(
            [self.header.line()] + ["%d %d %d" % (bid, 1 if taken else 0, nxt)
                                    for bid, taken, nxt in self.records]
        ) + "\n"

    def walker(self, loop: bool = True) -> TraceReplayer:
        """A fresh replayer over the synthesised stream.

        The stream was verified once at synthesis time, so per-machine
        construction skips re-verification.
        """
        return TraceReplayer.from_records(self.layout, self.header,
                                          self.records, loop=loop,
                                          verify=False)


@dataclass
class _Site:
    """Accumulated evidence about one static block."""

    first: BlockEvent
    count: int = 0
    taken_succ: "Counter[Tuple[int, int]]" = field(default_factory=Counter)
    fall_succ: "Counter[Tuple[int, int]]" = field(default_factory=Counter)
    hints: "Counter[str]" = field(default_factory=Counter)


def _dominant_hint(hints: "Counter[str]") -> str:
    best = "unknown"
    best_rank = len(_HINT_PRIORITY)
    best_count = 0
    for hint, count in hints.items():
        if hint == "unknown":
            continue
        rank = _HINT_PRIORITY.index(hint)
        if count > best_count or (count == best_count and rank < best_rank):
            best, best_rank, best_count = hint, rank, count
    return best


def _indirect_table(
    succs: "Counter[Tuple[int, int]]", bid_of: Dict[Tuple[int, int], int]
) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Targets (by descending frequency) with cumulative weights."""
    ordered = sorted(succs.items(), key=lambda kv: (-kv[1], bid_of[kv[0]]))
    total = sum(c for _, c in ordered)
    targets: List[int] = []
    weights: List[float] = []
    acc = 0
    for key, count in ordered:
        targets.append(bid_of[key])
        acc += count
        weights.append(acc / total)
    weights[-1] = 1.0
    return tuple(targets), tuple(weights)


def synthesize(
    name: str,
    events: List[BlockEvent],
    isize: int,
    digest: str = "",
    profile_overrides: Optional[Dict[str, object]] = None,
    description: str = "",
) -> TraceWorkload:
    """Build a :class:`TraceWorkload` from a (downsampled) event stream."""
    if not events:
        raise TraceIngestError("cannot synthesize a layout from zero events",
                               category="empty-trace")

    # -- gather per-site evidence (successor = next event, loop-closed) --
    event_keys = [ev.key() for ev in events]
    succ_keys = event_keys[1:] + event_keys[:1]
    sites: "OrderedDict[Tuple[int, int], _Site]" = OrderedDict()
    for ev, key, succ in zip(events, event_keys, succ_keys):
        site = sites.get(key)
        if site is None:
            sites[key] = site = _Site(first=ev)
        site.count += 1
        site.hints[ev.kind] += 1
        if ev.taken:
            site.taken_succ[succ] += 1
        else:
            site.fall_succ[succ] += 1

    # -- assign block ids in external-address order ----------------------
    keys = sorted(sites)
    bid_of = {key: bid for bid, key in enumerate(keys)}

    call_entry_starts = set()
    for key in keys:
        site = sites[key]
        if _dominant_hint(site.hints) in ("call", "indirect_call"):
            for succ in site.taken_succ:
                call_entry_starts.add(succ[0])

    # return point of a call at (start, end): the block entered at the
    # address right after the call instruction
    start_index: Dict[int, Tuple[int, int]] = {}
    for key in keys:  # sorted, so the smallest end wins per start
        if key[0] not in start_index:
            start_index[key[0]] = key

    # -- infer kind + successors per block -------------------------------
    kind_of: Dict[Tuple[int, int], BranchKind] = {}
    spec_of: Dict[Tuple[int, int], Dict[str, object]] = {}
    for key in keys:
        site = sites[key]
        taken_set = set(site.taken_succ)
        fall_set = set(site.fall_succ)
        hint = _dominant_hint(site.hints)
        spec: Dict[str, object] = {}
        if len(fall_set) > 1 or (fall_set and taken_set and len(taken_set) > 1):
            # contradictory fall-through evidence (window stitches) or a
            # polymorphic mixed site: INDIRECT absorbs any successor set
            kind = BranchKind.INDIRECT
            spec["indirect"] = site.taken_succ + site.fall_succ
        elif not taken_set:
            kind = BranchKind.FALLTHROUGH
            spec["fallthrough"] = next(iter(fall_set))
        elif fall_set:
            # exactly one fall successor, exactly one taken target: COND
            kind = BranchKind.COND
            spec["fallthrough"] = next(iter(fall_set))
            spec["taken_target"] = next(iter(taken_set))
            spec["bias"] = (sum(site.taken_succ.values()) / site.count)
        else:
            # taken-only
            ret_key = start_index.get(key[1] + site.first.size)
            if hint == "return":
                kind = BranchKind.RETURN
            elif hint in ("call", "indirect_call") and ret_key is not None:
                if len(taken_set) == 1 and hint == "call":
                    kind = BranchKind.CALL
                    spec["taken_target"] = next(iter(taken_set))
                else:
                    kind = BranchKind.INDIRECT_CALL
                    spec["indirect"] = site.taken_succ
                spec["fallthrough"] = ret_key
            elif len(taken_set) == 1:
                kind = BranchKind.DIRECT
                spec["taken_target"] = next(iter(taken_set))
            else:
                kind = BranchKind.INDIRECT
                spec["indirect"] = site.taken_succ
        kind_of[key] = kind
        spec_of[key] = spec

    # -- group into functions, assign synthetic addresses ----------------
    groups: List[List[Tuple[int, int]]] = []
    prev_end = None
    for key in keys:
        new_group = (
            not groups
            or key[0] in call_entry_starts
            or (prev_end is not None and key[0] - prev_end > FUNCTION_GAP_BYTES)
        )
        if new_group:
            groups.append([])
        groups[-1].append(key)
        prev_end = key[1]

    blocks: List[Optional[BasicBlock]] = [None] * len(keys)
    functions: List[Function] = []
    addr = _BASE_ADDR
    for fid, group in enumerate(groups):
        addr = (addr + LINE_SIZE - 1) // LINE_SIZE * LINE_SIZE
        functions.append(Function(fid=fid, name="trace_f%d" % fid,
                                  entry=bid_of[group[0]],
                                  blocks=[bid_of[k] for k in group]))
        for key in group:
            site = sites[key]
            num = estimate_instructions(site.first, isize)
            spec = spec_of[key]
            bid = bid_of[key]
            block = BasicBlock(bid=bid, addr=addr, num_instructions=num,
                               kind=kind_of[key], fid=fid)
            if "taken_target" in spec:
                block.taken_target = bid_of[spec["taken_target"]]  # type: ignore[index]
            if "fallthrough" in spec:
                block.fallthrough = bid_of[spec["fallthrough"]]  # type: ignore[index]
            if "bias" in spec:
                block.taken_bias = float(spec["bias"])  # type: ignore[arg-type]
            if "indirect" in spec:
                targets, weights = _indirect_table(spec["indirect"], bid_of)  # type: ignore[arg-type]
                block.indirect_targets = targets
                block.indirect_weights = weights
            blocks[bid] = block
            addr += num * INSTRUCTION_SIZE

    layout = CodeLayout(blocks=[b for b in blocks if b is not None],
                        functions=functions,
                        entry_function=blocks[bid_of[events[0].key()]].fid)  # type: ignore[union-attr]
    layout.validate()

    # -- emit the loop-closed replay stream ------------------------------
    header = TraceHeader(workload=name, seed=0, num_blocks=len(keys))
    records: List[Tuple[int, bool, int]] = []
    instructions = 0
    for ev, key, succ in zip(events, event_keys, succ_keys):
        kind = kind_of[key]
        if kind is BranchKind.FALLTHROUGH:
            taken = False
        elif kind is BranchKind.COND:
            taken = ev.taken
        else:
            taken = True  # TAKEN_KINDS (incl. promotions) always transfer
        bid = bid_of[key]
        records.append((bid, taken, bid_of[succ]))
        instructions += layout.blocks[bid].num_instructions

    # one full verification pass: synthesis must only ever emit streams
    # the replayer's strict mode accepts
    TraceReplayer.from_records(layout, header, records, loop=True,
                               verify=True)

    overrides = dict(profile_overrides or {})
    profile = TraceProfile(
        name=name,
        description=description or ("ingested trace workload (%d blocks, "
                                    "%d events)" % (len(keys), len(events))),
        trace_digest=digest,
        trace_events=len(events),
        trace_instructions=instructions,
        **overrides)  # type: ignore[arg-type]
    return TraceWorkload(name=name, profile=profile, layout=layout,
                         header=header, records=records, digest=digest,
                         events=len(events), instructions=instructions)
