"""Unit + property tests for the word-array block bitmap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.os.bitmap import BlockBitmap


class TestBasics:
    def test_empty(self):
        bm = BlockBitmap(100)
        assert bm.count_set() == 0
        assert not bm.test(0)
        assert not bm.any_set(0, 100)
        assert bm.all_set(0, 0)  # empty range vacuously true

    def test_set_and_test(self):
        bm = BlockBitmap(100)
        bm.set_range(10, 5)
        assert all(bm.test(b) for b in range(10, 15))
        assert not bm.test(9)
        assert not bm.test(15)
        assert bm.count_set() == 5

    def test_clear_range(self):
        bm = BlockBitmap(100)
        bm.set_range(0, 100)
        bm.clear_range(20, 30)
        assert bm.count_set() == 70
        assert bm.test(19)
        assert not bm.test(20)
        assert not bm.test(49)
        assert bm.test(50)

    def test_cross_word_boundaries(self):
        bm = BlockBitmap(300)
        bm.set_range(60, 10)  # spans the 64-bit boundary
        assert bm.count_set(60, 10) == 10
        assert bm.count_set() == 10
        bm.clear_range(63, 2)
        assert bm.count_set() == 8

    def test_clear_all(self):
        bm = BlockBitmap(100)
        bm.set_range(0, 100)
        bm.clear_all()
        assert bm.count_set() == 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            BlockBitmap(-1)
        with pytest.raises(ValueError):
            BlockBitmap(10, shift=-1)
        bm = BlockBitmap(10)
        with pytest.raises(ValueError):
            bm.test(-1)
        with pytest.raises(ValueError):
            bm.set_range(-1, 5)

    def test_count_requires_count_with_start(self):
        bm = BlockBitmap(10)
        with pytest.raises(ValueError):
            bm.count_set(0)

    def test_resize_shrink_clears_truncated(self):
        bm = BlockBitmap(128)
        bm.set_range(0, 128)
        bm.resize(64)
        assert bm.count_set() == 64
        bm.resize(128)
        assert bm.count_set() == 64

    def test_repr(self):
        bm = BlockBitmap(10)
        bm.set_range(0, 3)
        assert "set=3" in repr(bm)


class TestRuns:
    def test_missing_runs_simple(self):
        bm = BlockBitmap(20)
        bm.set_range(5, 5)
        assert list(bm.missing_runs(0, 20)) == [(0, 5), (10, 10)]

    def test_set_runs_simple(self):
        bm = BlockBitmap(20)
        bm.set_range(2, 3)
        bm.set_range(10, 2)
        assert list(bm.set_runs(0, 20)) == [(2, 3), (10, 2)]

    def test_runs_clamped_to_query_range(self):
        bm = BlockBitmap(100)
        bm.set_range(0, 100)
        assert list(bm.set_runs(40, 10)) == [(40, 10)]
        assert list(bm.missing_runs(40, 10)) == []

    def test_runs_empty_range(self):
        bm = BlockBitmap(10)
        assert list(bm.set_runs(0, 0)) == []
        assert list(bm.missing_runs(5, 0)) == []

    def test_adjacent_set_ranges_merge(self):
        bm = BlockBitmap(64)
        bm.set_range(0, 10)
        bm.set_range(10, 10)
        assert list(bm.set_runs(0, 64)) == [(0, 20)]

    def test_long_run_across_many_words(self):
        bm = BlockBitmap(1000)
        bm.set_range(1, 998)
        assert list(bm.set_runs(0, 1000)) == [(1, 998)]
        assert list(bm.missing_runs(0, 1000)) == [(0, 1), (999, 1)]


class TestWindows:
    def test_window_roundtrip(self):
        bm = BlockBitmap(200)
        bm.set_range(3, 7)
        bm.set_range(64, 4)
        window = bm.window(0, 128)
        other = BlockBitmap(200)
        other.load_window(0, 128, window)
        assert other.window(0, 128) == window
        assert other.count_set() == bm.count_set(0, 128)

    def test_load_window_overwrites(self):
        bm = BlockBitmap(64)
        bm.set_range(0, 64)
        bm.load_window(0, 64, 0)
        assert bm.count_set() == 0

    def test_export_nbytes(self):
        bm = BlockBitmap(1024)
        assert bm.export_nbytes(0, 8) == 1
        assert bm.export_nbytes(0, 9) == 2
        assert bm.export_nbytes(0, 1024) == 128
        assert bm.export_nbytes(0, 0) == 0


class TestShift:
    def test_shift_coarsens_granularity(self):
        bm = BlockBitmap(64, shift=3)  # one bit per 8 blocks
        bm.set_range(0, 1)  # touches bit 0 -> covers blocks 0..7
        assert bm.test(7)
        assert not bm.test(8)
        assert bm.nbits == 8

    def test_shift_resident_blocks_exact(self):
        bm = BlockBitmap(64, shift=3)
        bm.set_range(4, 8)  # bits 0 and 1 -> blocks 0..15
        assert bm.resident_blocks(0, 64) == 16
        assert bm.count_set() == 2

    def test_shift_runs_clamped_to_blocks(self):
        bm = BlockBitmap(20, shift=2)
        bm.set_range(0, 20)
        assert list(bm.set_runs(0, 20)) == [(0, 20)]


# -- property-based tests -----------------------------------------------------

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["set", "clear"]),
              st.integers(0, 499), st.integers(0, 200)),
    min_size=0, max_size=40)


def _reference_apply(nblocks, shift, ops):
    bits = set()
    for op, start, count in ops:
        count = min(count, nblocks - start)
        if count <= 0:
            continue
        first = start >> shift
        last = (start + count - 1) >> shift
        touched = set(range(first, last + 1))
        if op == "set":
            bits |= touched
        else:
            bits -= touched
    return bits


@settings(max_examples=150, deadline=None)
@given(nblocks=st.integers(1, 500), shift=st.integers(0, 3),
       ops=ops_strategy)
def test_property_matches_reference_set(nblocks, shift, ops):
    bm = BlockBitmap(nblocks, shift=shift)
    ops = [(op, min(s, nblocks - 1), c) for op, s, c in ops]
    for op, start, count in ops:
        count = min(count, nblocks - start)
        if count <= 0:
            continue
        if op == "set":
            bm.set_range(start, count)
        else:
            bm.clear_range(start, count)
    ref = _reference_apply(nblocks, shift, ops)
    assert bm.count_set() == len(ref)
    for bit in range(bm.nbits):
        block = bit << shift
        if block < nblocks:
            assert bm.test(block) == (bit in ref)


@settings(max_examples=100, deadline=None)
@given(nblocks=st.integers(1, 400), ops=ops_strategy)
def test_property_runs_partition_the_range(nblocks, ops):
    """set_runs and missing_runs together tile any query exactly."""
    bm = BlockBitmap(nblocks)
    for op, start, count in ops:
        start = min(start, nblocks - 1)
        count = min(count, nblocks - start)
        if count <= 0:
            continue
        if op == "set":
            bm.set_range(start, count)
        else:
            bm.clear_range(start, count)
    runs = ([(s, c, True) for s, c in bm.set_runs(0, nblocks)]
            + [(s, c, False) for s, c in bm.missing_runs(0, nblocks)])
    runs.sort()
    pos = 0
    for start, count, _is_set in runs:
        assert start == pos
        assert count > 0
        pos += count
    assert pos == nblocks


@settings(max_examples=100, deadline=None)
@given(nblocks=st.integers(1, 300),
       start=st.integers(0, 299), count=st.integers(1, 300),
       ops=ops_strategy)
def test_property_window_roundtrip(nblocks, start, count, ops):
    bm = BlockBitmap(nblocks)
    for op, s, c in ops:
        s = min(s, nblocks - 1)
        c = min(c, nblocks - s)
        if c <= 0:
            continue
        (bm.set_range if op == "set" else bm.clear_range)(s, c)
    start = min(start, nblocks - 1)
    count = min(count, nblocks - start)
    if count <= 0:
        return
    window = bm.window(start, count)
    dup = BlockBitmap(nblocks)
    dup.load_window(start, count, window)
    assert dup.window(start, count) == window
    assert dup.count_set(start, count) == bm.count_set(start, count)


@settings(max_examples=80, deadline=None)
@given(nblocks=st.integers(1, 300), ops=ops_strategy)
def test_property_copy_is_independent(nblocks, ops):
    bm = BlockBitmap(nblocks)
    for op, s, c in ops:
        s = min(s, nblocks - 1)
        c = min(c, nblocks - s)
        if c > 0:
            (bm.set_range if op == "set" else bm.clear_range)(s, c)
    dup = bm.copy()
    assert dup.count_set() == bm.count_set()
    dup.set_range(0, nblocks)
    dup.clear_range(0, nblocks)
    assert dup.count_set() == 0
    # original unchanged
    ref = _reference_apply(nblocks, 0, [
        (op, min(s, nblocks - 1), min(c, nblocks - min(s, nblocks - 1)))
        for op, s, c in ops])
    assert bm.count_set() == len(ref)


class TestChangedCounts:
    """set_range/clear_range report how many bits they flipped."""

    def test_single_word(self):
        bm = BlockBitmap(64)
        assert bm.set_range(3, 5) == 5
        assert bm.set_range(5, 5) == 2      # 5..7 already set
        assert bm.clear_range(0, 4) == 1    # only block 3 was set
        assert bm.clear_range(4, 6) == 6
        assert bm.count_set() == 0

    def test_multi_word(self):
        bm = BlockBitmap(300)
        assert bm.set_range(60, 10) == 10
        assert bm.set_range(0, 200) == 190
        assert bm.clear_range(50, 100) == 100
        assert bm.count_set() == 100

    def test_already_set_and_already_clear(self):
        bm = BlockBitmap(200)
        bm.set_range(10, 150)
        assert bm.set_range(20, 3) == 0
        assert bm.set_range(10, 150) == 0
        bm.clear_range(10, 150)
        assert bm.clear_range(20, 3) == 0
        assert bm.clear_range(10, 150) == 0

    def test_shift_counts_bits_not_blocks(self):
        bm = BlockBitmap(1024, shift=2)
        assert bm.set_range(0, 5) == 2      # bits 0 and 1
        assert bm.set_range(4, 8) == 1      # bits 1 and 2; bit 2 is new
        assert bm.set_range(200, 400) == 100
        assert bm.clear_range(1, 1) == 1
        assert bm.count_set() == 102

    def test_past_the_end_of_words(self):
        bm = BlockBitmap(1000)
        bm.set_range(0, 10)
        assert bm.clear_range(500, 10) == 0     # single word, unallocated
        assert bm.clear_range(300, 300) == 0    # multi word, unallocated
        assert bm.set_range(900, 70) == 70      # grows the word list
        assert bm.set_range(990, 5) == 5
        assert bm.count_set() == 85


@settings(max_examples=150, deadline=None)
@given(nblocks=st.integers(1, 500), shift=st.integers(0, 3),
       ops=ops_strategy)
def test_property_changed_count_is_popcount_delta(nblocks, shift, ops):
    bm = BlockBitmap(nblocks, shift=shift)
    for op, start, count in ops:
        start = min(start, nblocks - 1)
        before = bm.count_set()
        if op == "set":
            assert bm.set_range(start, count) == bm.count_set() - before
        else:
            assert bm.clear_range(start, count) == before - bm.count_set()
