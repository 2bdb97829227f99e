"""Tests for repro.utils: address arithmetic, RNG, canonical hashing."""

import dataclasses
import json
import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.config import MachineConfig
from repro.traces.synthesize import TraceProfile

from repro.utils import (
    INSTRUCTION_SIZE,
    LINE_SIZE,
    canonical_digest,
    derive_rng,
    freeze,
    geomean,
    line_base,
    line_of,
    lines_spanned,
)


class TestLineArithmetic:
    def test_line_of_zero(self):
        assert line_of(0) == 0

    def test_line_of_within_first_line(self):
        assert line_of(LINE_SIZE - 1) == 0

    def test_line_of_boundary(self):
        assert line_of(LINE_SIZE) == 1

    def test_line_of_large_address(self):
        assert line_of(10 * LINE_SIZE + 5) == 10

    def test_line_base_rounds_down(self):
        assert line_base(LINE_SIZE + 7) == LINE_SIZE

    def test_line_base_idempotent(self):
        addr = 12345
        assert line_base(line_base(addr)) == line_base(addr)

    def test_lines_spanned_single(self):
        assert lines_spanned(0, 4) == [0]

    def test_lines_spanned_exact_line(self):
        assert lines_spanned(0, LINE_SIZE) == [0]

    def test_lines_spanned_crossing(self):
        assert lines_spanned(LINE_SIZE - 4, 8) == [0, 1]

    def test_lines_spanned_multiple(self):
        assert lines_spanned(0, 3 * LINE_SIZE) == [0, 1, 2]

    def test_lines_spanned_zero_bytes(self):
        assert lines_spanned(100, 0) == []

    def test_lines_spanned_offset(self):
        lines = lines_spanned(5 * LINE_SIZE + 60, 8)
        assert lines == [5, 6]


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(42, "walker")
        b = derive_rng(42, "walker")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_decorrelated(self):
        a = derive_rng(42, "walker")
        b = derive_rng(42, "emissary")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_seeds_decorrelated(self):
        a = derive_rng(1, "walker")
        b = derive_rng(2, "walker")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestGeomean:
    def test_single_value(self):
        assert geomean([4.0]) == pytest.approx(4.0)

    def test_pair(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_matches_log_mean(self):
        vals = [1.1, 0.9, 1.3, 2.0]
        expected = math.exp(sum(math.log(v) for v in vals) / len(vals))
        assert geomean(vals) == pytest.approx(expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


@dataclasses.dataclass
class _Point:
    y: int = 2
    x: int = 1


class TestCanonicalDigest:
    """One canonical identity: cache file = manifest key = store key."""

    def test_pinned_digest(self):
        # golden value; a change here silently invalidates every result
        # cache, manifest cross-reference, and store row in existence
        assert canonical_digest({"b": [1, 2], "a": "x"}) == \
            "2aca66d40849c00b15a828c75a2d92ac958cda44"

    def test_key_order_irrelevant(self):
        assert canonical_digest({"a": 1, "b": 2}) == \
            canonical_digest({"b": 2, "a": 1})

    def test_tuples_and_lists_equal(self):
        assert canonical_digest({"v": (1, 2)}) == \
            canonical_digest({"v": [1, 2]})

    def test_dataclass_equals_its_dict(self):
        assert canonical_digest(_Point()) == \
            canonical_digest({"x": 1, "y": 2})

    def test_value_changes_digest(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})

    def test_freeze_nested(self):
        frozen = freeze({"p": _Point(), "seq": (1, (2, 3))})
        assert frozen == {"p": {"y": 2, "x": 1}, "seq": [1, [2, 3]]}

    def test_freeze_sorts_dict_keys(self):
        assert list(freeze({"b": 1, "a": 2})) == ["a", "b"]


def freeze_reference(obj):
    """``freeze`` before exact-type dispatch, kept verbatim."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: freeze_reference(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): freeze_reference(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [freeze_reference(v) for v in obj]
    return obj


class _Pair(NamedTuple):
    left: object
    right: object


class _IntTag(int):
    """An int subclass: must take the general path, same output."""


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=True), st.builds(_IntTag, st.integers(-9, 9)))
# one key type per dict: str keys do not sort against numbers
_dict_keys = st.one_of(
    st.lists(st.text(max_size=4), max_size=4),
    st.lists(st.one_of(st.integers(-5, 5), st.floats(-5, 5), st.booleans()),
             max_size=4))


@st.composite
def _dicts(draw, values):
    keys = draw(_dict_keys)
    return {k: draw(values) for k in keys}


_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        _dicts(inner),
        st.builds(_Pair, inner, inner),
        st.builds(_Point, inner, inner),
        st.builds(lambda digest, stall: TraceProfile(
            name="t", trace_digest=digest, backend_stall_prob=stall),
            st.text(max_size=8), st.floats(0, 1)),
        st.builds(lambda depth: MachineConfig(ftq_depth=depth),
                  st.integers(1, 64)),
    ),
    max_leaves=12)


class TestFreezeEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_matches_reference(self, value):
        def text(freezer):
            try:
                return json.dumps(freezer(value), sort_keys=True)
            except TypeError as exc:  # unsortable keys: same failure
                return "TypeError: %s" % exc

        assert text(freeze) == text(freeze_reference)

    def test_bundled_trace_profile_and_config(self):
        for value in (TraceProfile(name="t", trace_digest="a" * 40),
                      MachineConfig(), {"cfg": MachineConfig(),
                                        "pair": (_Pair(1, 2.5), None)}):
            assert freeze(value) == freeze_reference(value)
