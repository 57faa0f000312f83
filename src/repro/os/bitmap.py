"""Block bitmaps backed by arrays of 64-bit words.

The per-inode cache-state bitmap is the central Cross-OS data structure
(§4.4 of the paper): one bit per file block, set when the block is
resident in the page cache.  Like the kernel's unsigned-long arrays, the
backing store is a list of 64-bit words, so a range operation touches
O(words in range) — not O(file size) — and the total popcount is
maintained incrementally, making ``count_set()`` O(1).

A 1 TB file at 4 KB blocks is ~268 M bits = 32 MB of words, matching the
paper's memory-cost estimate; experiments here run far smaller.

Hot-path layout: almost every query an experiment issues covers a tiny
window (a 4-block read, a 32-block readahead plan), so the range
operations special-case windows that land in a single 64-bit word, and
:meth:`missing_runs` / :meth:`set_runs` extract runs from one assembled
window integer with bit tricks — cost O(runs), no per-word generator
chain.  Windows wider than ``_WINDOW_LIMIT`` bits fall back to a
streaming per-word scan so whole-file iteration stays O(words).
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = ["BlockBitmap"]

_WORD = 64
_FULL = (1 << _WORD) - 1

# Run extraction assembles windows up to this many bits into one int;
# beyond it (whole-file scans) the per-word streaming path is used to
# avoid quadratic big-int shifting.
_WINDOW_LIMIT = 4096


def _mask(nbits: int) -> int:
    return (1 << nbits) - 1


class BlockBitmap:
    """A growable bitmap over file blocks.

    ``shift`` coarsens granularity: one bit covers ``2**shift`` blocks
    (the artifact's ``CROSS_BITMAP_SHIFT`` knob).  All public offsets are
    expressed in *blocks*; the class translates to bit positions
    internally.
    """

    __slots__ = ("_words", "_count", "nblocks", "shift")

    def __init__(self, nblocks: int = 0, shift: int = 0):
        if nblocks < 0:
            raise ValueError(f"negative bitmap size: {nblocks}")
        if shift < 0:
            raise ValueError(f"negative bitmap shift: {shift}")
        self._words: list[int] = []
        self._count = 0
        self.nblocks = nblocks
        self.shift = shift

    # -- geometry ---------------------------------------------------------

    def _bit_range(self, start: int, count: int) -> tuple[int, int]:
        """Map a block range to a bit range (first_bit, nbits)."""
        if start < 0 or count < 0:
            raise ValueError(f"bad block range: start={start} count={count}")
        if count == 0:
            return 0, 0
        first = start >> self.shift
        last = (start + count - 1) >> self.shift
        return first, last - first + 1

    @property
    def nbits(self) -> int:
        if self.nblocks == 0:
            return 0
        return ((self.nblocks - 1) >> self.shift) + 1

    def _ensure(self, word_index: int) -> None:
        if word_index >= len(self._words):
            self._words.extend([0] * (word_index + 1 - len(self._words)))

    def resize(self, nblocks: int) -> None:
        """Grow or shrink with the file; shrinking clears truncated bits."""
        if nblocks < 0:
            raise ValueError(f"negative bitmap size: {nblocks}")
        old_bits = self.nbits
        self.nblocks = nblocks
        new_bits = self.nbits
        if new_bits < old_bits:
            self._apply(new_bits, old_bits - new_bits, set_bits=False)

    # -- word-level helpers -------------------------------------------------

    def _apply(self, first: int, nbits: int, set_bits: bool) -> int:
        """Set or clear bits [first, first+nbits); returns bits flipped."""
        if nbits <= 0:
            return 0
        before_count = self._count
        words = self._words
        last = first + nbits - 1
        fw = first >> 6
        lw = last >> 6
        fb = first & 63
        lb = last & 63
        if set_bits:
            self._ensure(lw)
        elif fw >= len(words):
            return 0
        for wi in range(fw, lw + 1):
            if not set_bits and wi >= len(words):
                break
            lo = fb if wi == fw else 0
            hi = lb if wi == lw else _WORD - 1
            mask = (_mask(hi - lo + 1)) << lo
            before = words[wi]
            after = (before | mask) if set_bits else (before & ~mask)
            if after != before:
                self._count += after.bit_count() - before.bit_count()
                words[wi] = after
        return abs(self._count - before_count)

    # -- mutation ---------------------------------------------------------

    def set_range(self, start: int, count: int) -> int:
        """Set the bits covering a block range; returns how many bits
        were newly set (with ``shift == 0``, the newly set blocks)."""
        if count <= 0:
            return 0
        if start < 0:
            raise ValueError(f"bad block range: start={start} count={count}")
        shift = self.shift
        first = start >> shift
        last = (start + count - 1) >> shift
        fw = first >> 6
        if fw == (last >> 6):
            words = self._words
            if fw >= len(words):
                self._ensure(fw)
            mask = ((1 << (last - first + 1)) - 1) << (first & 63)
            before = words[fw]
            after = before | mask
            changed = after.bit_count() - before.bit_count()
            self._count += changed
            words[fw] = after
            return changed
        return self._apply(first, last - first + 1, set_bits=True)

    def clear_range(self, start: int, count: int) -> int:
        """Clear the bits covering a block range; returns how many set
        bits were cleared."""
        if count <= 0:
            return 0
        if start < 0:
            raise ValueError(f"bad block range: start={start} count={count}")
        shift = self.shift
        first = start >> shift
        last = (start + count - 1) >> shift
        fw = first >> 6
        if fw == (last >> 6):
            words = self._words
            if fw >= len(words):
                return 0
            mask = ((1 << (last - first + 1)) - 1) << (first & 63)
            before = words[fw]
            after = before & ~mask
            changed = before.bit_count() - after.bit_count()
            self._count -= changed
            words[fw] = after
            return changed
        return self._apply(first, last - first + 1, set_bits=False)

    def clear_all(self) -> None:
        self._words = []
        self._count = 0

    # -- queries ----------------------------------------------------------

    def test(self, block: int) -> bool:
        if block < 0:
            raise ValueError(f"negative block: {block}")
        bit = block >> self.shift
        wi = bit >> 6
        if wi >= len(self._words):
            return False
        return bool((self._words[wi] >> (bit & 63)) & 1)

    def _window_bits(self, first: int, nbits: int) -> int:
        """Assemble bits [first, first+nbits) into a small int."""
        if nbits <= 0:
            return 0
        words = self._words
        nwords = len(words)
        fw = first >> 6
        off = first & 63
        last = first + nbits - 1
        if fw == (last >> 6):
            word = words[fw] if fw < nwords else 0
            return (word >> off) & ((1 << nbits) - 1)
        out = 0
        filled = 0
        pos = first
        end = first + nbits
        while pos < end:
            wi = pos >> 6
            off = pos & 63
            take = _WORD - off
            remaining = end - pos
            if take > remaining:
                take = remaining
            word = words[wi] if wi < nwords else 0
            seg = (word >> off) & _mask(take)
            out |= seg << filled
            filled += take
            pos += take
        return out

    def all_set(self, start: int, count: int) -> bool:
        if count <= 0:
            return True
        if start < 0:
            raise ValueError(f"bad block range: start={start} count={count}")
        shift = self.shift
        first = start >> shift
        last = (start + count - 1) >> shift
        nbits = last - first + 1
        mask = (1 << nbits) - 1
        fw = first >> 6
        if fw == (last >> 6):
            words = self._words
            word = words[fw] if fw < len(words) else 0
            return ((word >> (first & 63)) & mask) == mask
        return self._window_bits(first, nbits) == mask

    def any_set(self, start: int, count: int) -> bool:
        if count <= 0:
            return False
        first, nbits = self._bit_range(start, count)
        return self._window_bits(first, nbits) != 0

    def count_set(self, start: Optional[int] = None,
                  count: Optional[int] = None) -> int:
        """Popcount over a bit window (whole bitmap by default, O(1))."""
        if start is None:
            return self._count
        if count is None:
            raise ValueError("count required when start is given")
        if count <= 0:
            return 0
        first, nbits = self._bit_range(start, count)
        return self._window_bits(first, nbits).bit_count()

    def resident_blocks(self, start: int, count: int) -> int:
        """Blocks in [start, start+count) whose covering bit is set.

        With shift == 0 this equals :meth:`count_set`; with a coarser
        shift the result is exact at block granularity.
        """
        if count <= 0:
            return 0
        if self.shift == 0:
            return self.count_set(start, count)
        return sum(run_len for _s, run_len in self.set_runs(start, count))

    # -- run iteration ------------------------------------------------------

    def missing_runs(self, start: int, count: int) -> list[tuple[int, int]]:
        """Return (block_start, block_count) runs NOT covered by set bits.

        This is the gap-finding primitive ``readahead_info`` uses to turn
        a prefetch request into the minimal set of device reads.  The
        body specialises :meth:`_block_runs` for the complement case —
        this is the single hottest bitmap entry point (every read's
        residency check lands here), so it skips the extra call layer.
        """
        if count <= 0:
            return []
        if start < 0:
            raise ValueError(f"bad block range: start={start} count={count}")
        shift = self.shift
        first = start >> shift
        last = (start + count - 1) >> shift
        nbits = last - first + 1
        if nbits > _WINDOW_LIMIT:
            return self._block_runs_streamed(start, count, first, nbits,
                                             want_set=False)
        full = (1 << nbits) - 1
        fw = first >> 6
        if fw == (last >> 6):
            words = self._words
            word = words[fw] if fw < len(words) else 0
            window = ~(word >> (first & 63)) & full
        else:
            window = ~self._window_bits(first, nbits) & full
        if window == 0:
            return []
        if window == full:
            return [(start, count)]
        end_block = start + count
        out = []
        pos = 0
        while window:
            zeros = (window & -window).bit_length() - 1
            pos += zeros
            window >>= zeros
            ones = (~window & (window + 1)).bit_length() - 1
            bit_lo = first + pos
            blk_lo = bit_lo << shift
            if blk_lo < start:
                blk_lo = start
            blk_hi = (bit_lo + ones) << shift
            if blk_hi > end_block:
                blk_hi = end_block
            out.append((blk_lo, blk_hi - blk_lo))
            pos += ones
            window >>= ones
        return out

    def set_runs(self, start: int, count: int) -> list[tuple[int, int]]:
        """Return (block_start, block_count) runs covered by set bits."""
        return self._block_runs(start, count, want_set=True)

    def _block_runs(self, start: int, count: int,
                    want_set: bool) -> list[tuple[int, int]]:
        if count <= 0:
            return []
        if start < 0:
            raise ValueError(f"bad block range: start={start} count={count}")
        shift = self.shift
        first = start >> shift
        last = (start + count - 1) >> shift
        nbits = last - first + 1
        if nbits > _WINDOW_LIMIT:
            return self._block_runs_streamed(start, count, first, nbits,
                                             want_set)
        full = (1 << nbits) - 1
        fw = first >> 6
        if fw == (last >> 6):
            words = self._words
            word = words[fw] if fw < len(words) else 0
            window = (word >> (first & 63)) & full
        else:
            window = self._window_bits(first, nbits)
        if not want_set:
            window = ~window & full
        if window == 0:
            return []
        if window == full:
            return [(start, count)]
        end_block = start + count
        out = []
        pos = 0
        while window:
            zeros = (window & -window).bit_length() - 1
            pos += zeros
            window >>= zeros
            ones = (~window & (window + 1)).bit_length() - 1
            bit_lo = first + pos
            blk_lo = bit_lo << shift
            if blk_lo < start:
                blk_lo = start
            blk_hi = (bit_lo + ones) << shift
            if blk_hi > end_block:
                blk_hi = end_block
            out.append((blk_lo, blk_hi - blk_lo))
            pos += ones
            window >>= ones
        return out

    def _block_runs_streamed(self, start: int, count: int, first: int,
                             nbits: int, want_set: bool
                             ) -> list[tuple[int, int]]:
        """Wide-window fallback: stream runs word by word, O(words)."""
        shift = self.shift
        end_block = start + count
        out = []
        for bit_lo, bit_len in self._bit_runs(first, nbits, want_set):
            blk_lo = bit_lo << shift
            if blk_lo < start:
                blk_lo = start
            blk_hi = (bit_lo + bit_len) << shift
            if blk_hi > end_block:
                blk_hi = end_block
            if blk_hi > blk_lo:
                out.append((blk_lo, blk_hi - blk_lo))
        return out

    def _bit_runs(self, first: int, nbits: int,
                  want_set: bool) -> Iterator[tuple[int, int]]:
        words = self._words
        end = first + nbits
        pos = first
        open_start: Optional[int] = None
        while pos < end:
            wi, off = divmod(pos, _WORD)
            word = words[wi] if wi < len(words) else 0
            if not want_set:
                word = ~word & _FULL
            take = min(_WORD - off, end - pos)
            seg = (word >> off) & _mask(take)
            cursor = 0
            while cursor < take:
                if seg == 0:
                    if open_start is not None:
                        yield open_start, (pos + cursor) - open_start
                        open_start = None
                    cursor = take
                    break
                if seg & 1:
                    ones = (~seg & (seg + 1)).bit_length() - 1
                    ones = min(ones, take - cursor)
                    if open_start is None:
                        open_start = pos + cursor
                    seg >>= ones
                    cursor += ones
                    if cursor < take:
                        yield open_start, (pos + cursor) - open_start
                        open_start = None
                else:
                    zeros = (seg & -seg).bit_length() - 1
                    zeros = min(zeros, take - cursor)
                    if open_start is not None:
                        yield open_start, (pos + cursor) - open_start
                        open_start = None
                    seg >>= zeros
                    cursor += zeros
            pos += take
        if open_start is not None:
            yield open_start, end - open_start

    # -- import/export ------------------------------------------------------

    def window(self, start: int, count: int) -> int:
        """Raw bit window for a block range (what the OS copies to user)."""
        if count <= 0:
            return 0
        first, nbits = self._bit_range(start, count)
        return self._window_bits(first, nbits)

    def load_window(self, start: int, count: int, bits: int) -> None:
        """Overwrite a block range from an exported window."""
        if count <= 0:
            return
        first, nbits = self._bit_range(start, count)
        bits &= _mask(nbits)
        pos = first
        end = first + nbits
        consumed = 0
        self._ensure((end - 1) // _WORD)
        while pos < end:
            wi, off = divmod(pos, _WORD)
            take = min(_WORD - off, end - pos)
            seg = (bits >> consumed) & _mask(take)
            mask = _mask(take) << off
            before = self._words[wi]
            after = (before & ~mask) | (seg << off)
            if after != before:
                self._count += after.bit_count() - before.bit_count()
                self._words[wi] = after
            consumed += take
            pos += take

    def copy(self) -> "BlockBitmap":
        dup = BlockBitmap(self.nblocks, self.shift)
        dup._words = list(self._words)
        dup._count = self._count
        return dup

    def export_nbytes(self, start: int, count: int) -> int:
        """Bytes a user-space copy of this window costs (for the cost model)."""
        if count <= 0:
            return 0
        _first, nbits = self._bit_range(start, count)
        return (nbits + 7) // 8

    def __repr__(self) -> str:
        return (f"BlockBitmap(nblocks={self.nblocks}, shift={self.shift}, "
                f"set={self._count})")
