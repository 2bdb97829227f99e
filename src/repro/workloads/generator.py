"""Synthetic program generator.

Builds a :class:`~repro.workloads.layout.CodeLayout` from a
:class:`~repro.workloads.profiles.WorkloadProfile`:

* Function 0 is a *dispatcher* that loops forever, indirect-calling one of
  the handler functions with Zipf-skewed weights — the synthetic analogue
  of a server's request loop.
* The call graph is a **tiered DAG**: handlers are tier 0, mid-tier
  functions occupy tiers 1..``call_depth``, and a pool of shared leaf
  functions (hot library code) is reachable from every tier. A call site
  in tier *d* targets a function in tier *d+1* (or a leaf). Tier sizes
  grow geometrically so deep tiers are wide and a request rarely revisits
  the same mid-tier function — that is what makes the instruction stream
  miss-heavy, like the paper's server workloads.
* Each non-leaf function gets ``call_sites_mean`` call sites on average
  (capped at 3), some of which are indirect calls with several candidate
  callees. Effective branching × depth controls the per-request footprint.
* Interior non-call blocks end in conditional branches (forward skips and
  loop back-edges with geometric trip counts), direct jumps, or indirect
  jumps (jump tables). Loop bodies never contain calls or indirect jumps:
  a call inside a stochastic loop multiplies the callee subtree by the
  trip count and cascades exponentially.
* Functions are placed at shuffled addresses with small gaps, so hot code
  is spread across the address space like a real binary.

Weighted draws (callee picks and indirect-site target patterns) take one
``rng.random()`` and ``bisect_left`` it into the cumulative weight tuple:
the first index whose cumulative weight reaches the draw, exactly what a
linear scan returns, in O(log n) instead of O(n) — cassandra's leaf and
tier tables hold hundreds of entries.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.utils import INSTRUCTION_SIZE, LINE_SIZE, derive_rng
from repro.workloads.layout import BasicBlock, BranchKind, CodeLayout, Function
from repro.workloads.profiles import WorkloadProfile

#: Base address for the synthetic text segment.
TEXT_BASE = 0x0010_0000

#: Hard cap on call sites per function (keeps worst-case fan-out bounded).
MAX_CALL_SITES = 3


def _zipf_weights(n: int, alpha: float, rng: random.Random) -> List[float]:
    """Zipf(alpha) weights over n items, with ranks randomly assigned."""
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    return [1.0 / (r ** alpha) for r in ranks]


def _cumulative(weights: Sequence[float]) -> Tuple[float, ...]:
    total = float(sum(weights))
    acc = 0.0
    out = []
    for w in weights:
        acc += w / total
        out.append(acc)
    out[-1] = 1.0
    return tuple(out)


def _pick(rng: random.Random, items: Sequence[int], cum: Sequence[float]) -> int:
    """The first item whose cumulative weight is >= one uniform draw.

    ``cum`` ends at exactly 1.0 (see :func:`_cumulative`) and the draw is
    below 1.0, so the bisect never runs off the end.
    """
    return items[bisect_left(cum, rng.random())]


def _draw_bias(profile: WorkloadProfile, rng: random.Random) -> float:
    """Sample a taken-probability for a forward conditional branch site."""
    hi, med, _ = profile.bias_mix
    u = rng.random()
    if u < hi:
        bias = rng.uniform(0.005, 0.04)      # highly biased
    elif u < hi + med:
        bias = rng.uniform(0.06, 0.18)       # moderately biased
    else:
        bias = rng.uniform(0.40, 0.60)       # hard to predict
    if rng.random() < 0.5:
        bias = 1.0 - bias
    return bias


def _make_pattern(n_targets: int, weights: Sequence[float],
                  rng: random.Random, mono_frac: float) -> Tuple[int, ...]:
    """Cyclic target-index sequence for an indirect site.

    With probability ``mono_frac`` the site is *monomorphic* (a single
    dominant target, like the vast majority of real indirect call sites —
    trivially predictable via the BTB's last-target). Otherwise the site
    follows a short cycle (2-6 long) over its targets: short cycles are
    what history-based predictors like ITTAGE actually capture.
    """
    def draw() -> int:
        """Weighted target-index draw (``weights`` is cumulative)."""
        return bisect_left(weights, rng.random())

    if n_targets == 1 or rng.random() < mono_frac:
        return (draw(),)
    # Polymorphic site: a dominant run with occasional excursions
    # (a,a,a,a,a,b[,c]). A last-target predictor rides the run and only
    # misses at the switch points, like real mostly-stable virtual calls,
    # while the excursions keep the excursion subtrees warm-ish and the
    # per-request paths diverse.
    run = rng.randint(3, 7)
    dominant = draw()
    pattern = [dominant] * run
    excursion = draw()
    if excursion == dominant:
        excursion = (dominant + 1) % n_targets
    pattern.append(excursion)
    if n_targets > 2 and rng.random() < 0.4:
        second = draw()
        if second not in (dominant, excursion):
            pattern.append(second)
    return tuple(pattern)


class _CalleeDirectory:
    """Tier assignment and per-site callee sampling."""

    def __init__(self, profile: WorkloadProfile, rng: random.Random):
        self.profile = profile
        self.rng = rng
        nfuncs = profile.num_functions
        self.nhandlers = min(profile.num_handlers, max(1, nfuncs // 4))
        self.nleaves = min(profile.num_leaves, max(1, nfuncs // 4))
        self.first_leaf = nfuncs - self.nleaves
        depth = max(1, profile.call_depth)
        # mid-tier fids: geometric tier sizes, tiers 1..depth
        mids = list(range(1 + self.nhandlers, self.first_leaf))
        raw = [profile.tier_growth ** d for d in range(1, depth + 1)]
        total = sum(raw)
        self.tiers: List[List[int]] = [list(range(1, 1 + self.nhandlers))]
        start = 0
        for d, r in enumerate(raw):
            if d == depth - 1:
                chunk = mids[start:]
            else:
                size = max(1, int(round(len(mids) * r / total)))
                chunk = mids[start:start + size]
            start += len(chunk)
            self.tiers.append(chunk)
        # drop empty tiers at the end (tiny configs)
        while len(self.tiers) > 1 and not self.tiers[-1]:
            self.tiers.pop()
        self.leaf_fids = list(range(self.first_leaf, nfuncs))
        self.tier_of = {}
        for d, fids in enumerate(self.tiers):
            for fid in fids:
                self.tier_of[fid] = d
        for fid in self.leaf_fids:
            self.tier_of[fid] = len(self.tiers)  # leaves sit below the last tier
        # per-tier zipf popularity (hot/cold functions within a tier)
        self._tier_cum = []
        for fids in self.tiers:
            w = _zipf_weights(len(fids), profile.callee_zipf_alpha, rng)
            self._tier_cum.append(_cumulative(w))
        lw = _zipf_weights(len(self.leaf_fids), profile.callee_zipf_alpha, rng) \
            if self.leaf_fids else []
        self._leaf_cum = _cumulative(lw) if lw else ()

    def is_leaf(self, fid: int) -> bool:
        """True for shared leaf/library functions."""
        return fid >= self.first_leaf

    def sample_callee(self, caller_fid: int) -> Optional[int]:
        """Pick a callee for a call site in ``caller_fid`` (None if nothing
        deeper exists)."""
        tier = self.tier_of[caller_fid]
        use_leaf = (self.rng.random() < self.profile.leaf_call_frac
                    or tier + 1 >= len(self.tiers)
                    or not self.tiers[tier + 1])
        if use_leaf:
            if not self.leaf_fids:
                return None
            return _pick(self.rng, self.leaf_fids, self._leaf_cum)
        return _pick(self.rng, self.tiers[tier + 1], self._tier_cum[tier + 1])

    def num_call_sites(self, fid: int, num_blocks: int) -> int:
        """Sampled call-site count for a function."""
        if self.is_leaf(fid):
            return 0
        mean = self.profile.call_sites_mean
        n = int(mean)
        if self.rng.random() < mean - n:
            n += 1
        return max(0, min(n, MAX_CALL_SITES, max(num_blocks - 2, 0)))


class _FunctionBuilder:
    """Generates one function's blocks and intra-function control flow."""

    #: terminators that may not appear inside a stochastic loop body
    _LOOP_UNSAFE = (BranchKind.CALL, BranchKind.INDIRECT_CALL,
                    BranchKind.INDIRECT)

    def __init__(self, layout: CodeLayout, profile: WorkloadProfile,
                 rng: random.Random, directory: _CalleeDirectory):
        self.layout = layout
        self.profile = profile
        self.rng = rng
        self.directory = directory

    def build(self, fid: int, name: str, num_blocks: int) -> Function:
        """Generate one function's blocks and control flow."""
        blocks = self.layout.blocks
        profile = self.profile
        rng = self.rng
        rng_random = rng.random
        first_bid = len(blocks)
        bids = list(range(first_bid, first_bid + num_blocks))
        # block lengths: geometric-ish around the profile mean
        expovariate = rng.expovariate
        rate = 1.0 / max(profile.mean_instructions_per_block - 1, 1)
        cap = profile.max_instructions_per_block
        for bid in bids:
            n = 1 + int(expovariate(rate))
            blocks.append(BasicBlock(bid=bid, addr=0,
                                     num_instructions=n if n < cap else cap,
                                     fid=fid))
        # Choose which interior blocks are call sites. The first site is
        # pinned to block 0 so every invocation of a non-leaf function
        # performs at least one call: without this, the branching process
        # of the call tree goes extinct early on most requests and the
        # walk concentrates in the shallow (hot) tiers.
        n_sites = self.directory.num_call_sites(fid, num_blocks)
        call_idxs = set()
        if n_sites:
            call_idxs.add(0)
            rest = list(range(1, num_blocks - 1))
            extra = min(n_sites - 1, len(rest))
            if extra > 0:
                call_idxs.update(rng.sample(rest, extra))

        # cumulative terminator thresholds, summed in the draw's order
        p_cond = profile.p_cond
        p_indirect = p_cond + profile.p_indirect
        p_direct = p_indirect + profile.p_direct
        last = num_blocks - 1
        make_call = self._make_call
        make_cond = self._make_cond
        for i, bid in enumerate(bids):
            block = blocks[bid]
            if i == last:
                block.kind = BranchKind.RETURN
                block.fallthrough = None
                continue
            block.fallthrough = bids[i + 1]
            if i in call_idxs:
                make_call(block)
                continue
            u = rng_random()
            if u < p_cond:
                make_cond(block, bids, i)
                continue
            interior = i + 2 < num_blocks
            if u < p_indirect and interior:
                self._make_indirect(block, bids, i)
                continue
            if u < p_direct and interior:
                block.kind = BranchKind.DIRECT
                block.taken_target = bids[rng.randint(i + 1,
                                                      min(i + 3, last))]
                continue
            block.kind = BranchKind.FALLTHROUGH
        return Function(fid=fid, name=name, entry=bids[0], blocks=bids)

    def _make_call(self, block: BasicBlock) -> None:
        """CALL or INDIRECT_CALL; callees recorded as fids, fixed up later."""
        rng = self.rng
        profile = self.profile
        callee = self.directory.sample_callee(block.fid)
        if callee is None:
            block.kind = BranchKind.FALLTHROUGH
            return
        if rng.random() < profile.indirect_call_frac:
            fanout = max(2, profile.indirect_call_fanout)
            fids = {callee}
            for _ in range(fanout * 2):
                if len(fids) >= fanout:
                    break
                extra = self.directory.sample_callee(block.fid)
                if extra is not None:
                    fids.add(extra)
            targets = sorted(fids)
            weights = _zipf_weights(len(targets), 0.9, rng)
            block.kind = BranchKind.INDIRECT_CALL
            block.indirect_targets = tuple(targets)
            block.indirect_weights = _cumulative(weights)
            block.indirect_pattern = _make_pattern(
                len(targets), block.indirect_weights, rng,
                profile.indirect_mono_frac)
        else:
            block.kind = BranchKind.CALL
            block.taken_target = callee

    def _make_cond(self, block: BasicBlock, bids: List[int], i: int) -> None:
        rng = self.rng
        profile = self.profile
        block.kind = BranchKind.COND
        backward_ok = i >= 1
        if backward_ok and rng.random() < profile.loop_back_prob:
            back = rng.randint(max(0, i - 3), i - 1)
            for b in (self.layout.blocks[x] for x in bids[back:i]):
                if b.kind in self._LOOP_UNSAFE:
                    backward_ok = False
                    break
                if (b.kind is BranchKind.COND and b.taken_target is not None
                        and b.taken_target < b.bid):
                    backward_ok = False
                    break
        else:
            backward_ok = False
        if backward_ok:
            # loop back-edge: taken -> earlier block, geometric trip count
            block.taken_target = bids[back]
            jitter = rng.uniform(-0.06, 0.06)
            block.taken_bias = min(0.97, max(0.5, profile.loop_taken_bias + jitter))
        else:
            # forward skip (if/else): taken -> skips 1..4 blocks ahead
            last = len(bids) - 1
            target = min(i + 1 + rng.randint(1, 4), last)
            block.taken_target = bids[target]
            block.taken_bias = _draw_bias(profile, rng)

    def _make_indirect(self, block: BasicBlock, bids: List[int], i: int) -> None:
        rng = self.rng
        profile = self.profile
        last = len(bids) - 1
        fanout = min(profile.indirect_fanout, last - i)
        candidates = list(range(i + 1, last + 1))
        rng.shuffle(candidates)
        targets = tuple(bids[j] for j in sorted(candidates[:fanout]))
        weights = _zipf_weights(len(targets), 1.0, rng)
        block.kind = BranchKind.INDIRECT
        block.taken_target = None
        block.indirect_targets = targets
        block.indirect_weights = _cumulative(weights)
        block.indirect_pattern = _make_pattern(
            len(targets), block.indirect_weights, rng,
            profile.indirect_mono_frac)


def generate_layout(profile: WorkloadProfile, seed: int = 0) -> CodeLayout:
    """Generate the synthetic binary for ``profile``.

    Deterministic in (profile, seed): the same arguments always produce an
    identical layout.
    """
    rng = derive_rng(seed, "layout:" + profile.name)
    layout = CodeLayout()
    directory = _CalleeDirectory(profile, rng)
    builder = _FunctionBuilder(layout, profile, rng, directory)

    # --- dispatcher (fid 0): entry -> indirect call to a handler -> loop ----
    handler_fids = directory.tiers[0]
    hw = _zipf_weights(len(handler_fids), profile.handler_zipf_alpha, rng)
    layout.blocks.extend([
        BasicBlock(bid=0, addr=0, num_instructions=4, fid=0,
                   kind=BranchKind.FALLTHROUGH, fallthrough=1),
        BasicBlock(bid=1, addr=0, num_instructions=3, fid=0,
                   kind=BranchKind.INDIRECT_CALL, fallthrough=2,
                   indirect_targets=tuple(handler_fids),
                   indirect_weights=_cumulative(hw),
                   indirect_pattern=_make_pattern(
                       len(handler_fids), _cumulative(hw), rng,
                       mono_frac=0.0)),
        BasicBlock(bid=2, addr=0, num_instructions=3, fid=0,
                   kind=BranchKind.DIRECT, taken_target=0, fallthrough=None),
    ])
    layout.functions.append(
        Function(fid=0, name="dispatcher", entry=0, blocks=[0, 1, 2])
    )

    # --- bodies ---------------------------------------------------------------
    for fid in range(1, profile.num_functions):
        nblocks = max(2, 1 + int(rng.expovariate(
            1.0 / max(profile.mean_blocks_per_function - 1, 1))))
        nblocks = min(nblocks, 4 * profile.mean_blocks_per_function)
        if directory.is_leaf(fid):
            name = "leaf_%d" % fid
        elif fid in directory.tier_of and directory.tier_of[fid] == 0:
            name = "handler_%d" % fid
        else:
            name = "func_%d" % fid
        layout.functions.append(builder.build(fid, name, nblocks))

    # Fix-up pass: CALL/INDIRECT_CALL targets were recorded as function ids
    # while the callee functions were still being built; convert them to the
    # callee entry block ids now that every function exists.
    entries = [func.entry for func in layout.functions]
    call, indirect_call = BranchKind.CALL, BranchKind.INDIRECT_CALL
    for block in layout.blocks:
        kind = block.kind
        if kind is call:
            block.taken_target = entries[block.taken_target]
        elif kind is indirect_call:
            block.indirect_targets = tuple(
                entries[f] for f in block.indirect_targets)

    _place(layout, rng)
    layout.validate()
    return layout


def _place(layout: CodeLayout, rng: random.Random) -> None:
    """Assign byte addresses: shuffled function order, small line gaps."""
    order = list(range(len(layout.functions)))
    rng.shuffle(order)
    addr = TEXT_BASE
    blocks = layout.blocks
    for fid in order:
        for bid in layout.functions[fid].blocks:
            block = blocks[bid]
            block.addr = addr
            addr += block.num_instructions * INSTRUCTION_SIZE  # size_bytes
        # pad to a line boundary plus a random small gap
        addr = ((addr + LINE_SIZE - 1) // LINE_SIZE) * LINE_SIZE
        addr += LINE_SIZE * rng.randint(0, 2)
