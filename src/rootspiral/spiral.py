"""Square Root Spiral construction.

The spiral is built from unit-leg right triangles: the n-th ray has length
sqrt(n) and the cumulative angle of that ray is

    theta(n) = sum_{k=1}^{n-1} arctan(1 / sqrt(k)),   theta(1) = 0.

Angles are kept unwrapped; reduction mod 2*pi happens only at presentation.
The terms are summed in blocks of 4096. Inside a block the prefix is a plain
cumsum; each whole block's sum is computed exactly and rounded once, and the
block sums are carried with Kahan compensation, so the absolute angle error
stays below 1e-8 even for tables of 10^7 entries. Blocks are worked on in
pairs: a pair's terms are interleaved as the real and imaginary parts of one
complex128 array, and as a complex addition is two float64 additions, its
one cumsum is the two blocks' cumsums, bit for bit, with two dependency
chains in flight; a table's terms run on to a whole number of pairs.

A table is built in three phases. The terms, their block sums and the
in-block prefixes are split among one thread per CPU the process may run on
(its CPU affinity); the Kahan carry runs over the block sums in order, in the
calling thread; and the blocks' offsets are added, split as before. Every
value is computed by the same operations in the same order however the work
is split, so theta's bits do not depend on the number of CPUs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import IO

import numpy as np

from .csvformat import csv_text
from .errors import RangeExhausted

TWO_PI = 2.0 * math.pi

_BLOCK = 4096

#: Terms in a pair of blocks, interleaved in a table build's term buffer.
_PAIR = 2 * _BLOCK

#: Terms per step of a one-worker table build, and the length of the term
#: and split buffers that a build's workers share out, each step whole pairs.
_GROW_TERMS = 1 << 16

#: Rows formatted per write by SpiralTable.write_csv. Bounds its temporaries:
#: a chunk's byte matrix is ~110 bytes a row, ~0.45 MB at 2**12 rows, and
#: each array over its four float columns takes 128 KB.
_CSV_ROWS = 1 << 12


@dataclass(frozen=True)
class SpiralPoint:
    """One vertex of the spiral: the natural number n with its polar data."""

    n: int
    radius: float
    theta: float
    winding: int
    vertex: tuple[float, float]


def _angle_terms(k: np.ndarray) -> np.ndarray:
    """arctan(1/sqrt(k)) of each float64 k, computed in place: returns k overwritten."""
    np.sqrt(k, out=k)
    np.divide(1.0, k, out=k)
    return np.arctan(k, out=k)


def _pair_sums(pairs: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Correctly rounded sums of blocks laid out as pairs, bit-equal to math.fsum of each block.

    `pairs` is a complex128 array of shape (P, 4096) whose row p holds the
    blocks 2p and 2p + 1 interleaved: term i of block 2p + l is lane l
    (real part l = 0, imaginary part l = 1) of element i. Returns the 2P
    block sums in block order, as float64.

    Each term t of a block is split exactly as t = h + l, with
    h = (t + c) - c and c = 1.5 * 2**(E + 11), E the binary exponent of the
    block's first term plus one; each complex addition is the two IEEE
    float64 additions of the two lanes. The split is exact when the terms
    are positive and finite (below 2**1011, so neither c nor a block sum
    overflows), each block holds 4096 = 2**12 terms, each below 2**E (twice
    the power of two above the first term), and no term's binary exponent
    is more than 28 below the first term's, so none is below E - 29. Then h
    lies on the grid 2**(E - 41), at most 2**41 of its steps, and
    |l| <= 2**(E - 42) is at most 2**40 steps of the grid 2**(E - 82) of the
    block's smallest ulp. Every partial sum of either part over 2**12 terms
    fits in 53 bits, so h.sum() and l.sum() are exact in any order, and one
    IEEE addition rounds their total to nearest, ties to even, as math.fsum
    does. The split reads one term a block, takes no maximum and does not
    rest on the block's computed terms decreasing. Blocks of
    arctan(1/sqrt(k)), past the table's end too, meet it with room to
    spare: the smallest term of block 1 (k = 1..4096) is 6 binades below
    its first, that of a later block at most 1.

    The parts are held in `scratch`, an array of the shape of `pairs`.
    """
    _, e = np.frexp(pairs.view(np.float64)[:, :2])  # each lane's first term
    c = np.ldexp(6144.0, e).view(np.complex128)  # 1.5 * 2**(e + 12)
    part = np.add(pairs, c, out=scratch)
    part -= c  # the high parts h
    high = part.sum(axis=1)
    np.subtract(pairs, part, out=part)  # the low parts l = t - h
    return (high + part.sum(axis=1)).view(np.float64)


def _kahan_offsets(sums: np.ndarray) -> np.ndarray:
    """Each block's offset from the block sums, then the offset past the last block.

    A Kahan-compensated (sum, correction) pair carries the running total
    over the blocks in order; each block is offset by the pair's sum
    before it.
    """
    offsets = []
    total, comp = 0.0, 0.0
    for block_sum in sums.tolist():
        offsets.append(total + comp)
        # compensated update of the running block total
        x = block_sum + comp
        t = total + x
        comp = x - (t - total)
        total = t
    offsets.append(total + comp)
    return np.array(offsets)


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_split(work, runs: list[tuple]) -> None:
    """Call work(*run) for each run: the first in this thread, each other in a thread of its own.

    Returns once every thread has ended, and then re-raises the exception
    of the first run, in run order, that raised one.
    """
    errors: list[BaseException | None] = [None] * len(runs)

    def call(i: int) -> None:
        try:
            work(*runs[i])
        except BaseException as exc:  # re-raised in the calling thread below
            errors[i] = exc

    started = []
    try:
        for i in range(1, len(runs)):
            thread = threading.Thread(target=call, args=(i,))
            thread.start()
            started.append(thread)
        call(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


class SpiralTable:
    """Prefix-sum table of spiral angles, built in one pass and then read-only.

    theta[n] (1-based) is the unwrapped angle of ray sqrt(n) for n up to
    n_max; index 0 is unused. All accessors are O(1) after construction.
    """

    def __init__(self, n_max: int):
        if n_max < 2:
            raise ValueError("n_max must be at least 2")
        self._build(n_max)

    def _build(self, n_max: int) -> None:
        """Build theta(1) .. theta(n_max) in three phases; the table changes only if all succeed.

        Term i >= 0 is arctan(1 / sqrt(i + 1)) and theta[i + 2] sums terms
        0 .. i. The terms run on to whole pairs of 4096-term blocks, split
        into contiguous runs of pairs, one per worker: one worker per CPU
        this process may run on, but no more than the build has steps of
        _GROW_TERMS terms, so a one-step table starts no thread. Phases 1
        and 3 are split; numpy's ufuncs release the GIL, so runs overlap.

        1. Each worker steps through its run, whole pairs a step. It
           computes the terms, each pair's blocks interleaved as `steps`
           orders them; their exact block sums (_pair_sums); and each pair's
           cumsum, one complex accumulate into the split buffer, copied out
           to theta in block order.
        2. The calling thread carries the whole blocks' sums, in order, to
           each block's offset and the offset past them, which the table's
           partial block takes (_kahan_offsets).
        3. Each worker adds its blocks' offsets.

        Each value is computed by the same operations in the same order
        whatever the split, so theta keeps every bit on any number of
        workers; the terms past theta(n_max) are computed and dropped. The
        steps share out one term buffer and one split buffer of _GROW_TERMS
        floats, so no step allocates an array of its length; past 8 workers
        a step is one pair, and the buffers take 128 KB a worker.
        """
        n_terms = n_max - 1
        n_pairs = -(-n_terms // _PAIR)
        theta = np.empty(2 + n_pairs * _PAIR, dtype=np.float64)
        theta[0] = np.nan
        theta[1] = 0.0
        prefix = theta[2:]
        workers = min(_workers(), -(-n_terms // _GROW_TERMS))
        size = max(_PAIR, _GROW_TERMS // workers // _PAIR * _PAIR)
        runs = [(w * n_pairs // workers * _PAIR, (w + 1) * n_pairs // workers * _PAIR) for w in range(workers)]
        # A step's term offsets, its pairs of blocks interleaved: pair p,
        # term i, lane l holds the offset (2p + l) * _BLOCK + i.
        length = min(size, len(prefix))
        steps = (np.arange(0.0, length, _BLOCK).reshape(-1, 1, 2) + np.arange(0.0, _BLOCK)[:, None]).ravel()
        # One allocation holds every worker's term and split buffers. Freeing
        # one 1 MB block keeps glibc's mmap threshold above the temporaries
        # of a later CSV export's chunks; one block per worker took a 300 000
        # row `spiral` command from ~22 000 to ~26 600 page faults.
        buffers = np.empty((workers, 2, length))
        sums = np.empty(2 * n_pairs)

        def block_prefixes(lo: int, hi: int, buffer: np.ndarray) -> None:
            # k = a + 1 + offset
            terms, scratch = buffer
            for a in range(lo, hi, size):
                m = min(size, hi - a)
                t = _angle_terms(np.add(steps[:m], a + 1, out=terms[:m]))
                pairs = t.view(np.complex128).reshape(-1, _BLOCK)
                split = scratch[:m].view(np.complex128).reshape(-1, _BLOCK)
                sums[a // _BLOCK:(a + m) // _BLOCK] = _pair_sums(pairs, split)
                # One 1-D cumsum per pair, each complex add two float64 adds
                # (a 2-D one holds the GIL), copied out to theta in cache.
                for pair, out in zip(pairs, split):
                    np.add.accumulate(pair, out=out)
                prefix[a:a + m].reshape(-1, 2, _BLOCK)[...] = scratch[:m].reshape(-1, _BLOCK, 2).transpose(0, 2, 1)

        _run_split(block_prefixes, [(lo, hi, buffer) for (lo, hi), buffer in zip(runs, buffers)])
        offsets = _kahan_offsets(sums[:n_terms // _BLOCK])

        def add_offsets(lo: int, hi: int) -> None:
            rows = prefix[lo:hi].reshape(-1, _BLOCK)[:len(offsets) - lo // _BLOCK]  # a block of padding alone has none
            rows += offsets[lo // _BLOCK:hi // _BLOCK, None]

        _run_split(add_offsets, runs)
        self._theta = theta[:n_max + 1]
        self._n_max = n_max

    @property
    def n_max(self) -> int:
        return self._n_max

    @property
    def theta_array(self) -> np.ndarray:
        """The raw unwrapped-angle array (index n holds theta(n)); read-only."""
        view = self._theta.view()
        view.flags.writeable = False
        return view

    def ensure(self, n_max: int) -> "SpiralTable":
        """Rebuild the table in place, in one pass, if it does not cover n_max."""
        if n_max > self._n_max:
            self._build(n_max)
        return self

    def _check(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"spiral index must be >= 1, got {n}")
        if n > self._n_max:
            raise RangeExhausted(f"n={n} exceeds built table (n_max={self._n_max})")

    def angle(self, n: int) -> float:
        """Unwrapped cumulative angle of ray sqrt(n)."""
        self._check(n)
        return float(self._theta[n])

    def vertex(self, n: int) -> tuple[float, float]:
        """Cartesian position of ray sqrt(n), counterclockwise winding."""
        self._check(n)
        r = math.sqrt(n)
        t = self._theta[n]
        return (r * math.cos(t), r * math.sin(t))

    def vertices(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Radius, x and y of rays lo .. hi-1, each bit-equal to vertex(n).

        x and y use libm's cos and sin, as vertex does, not numpy's, whose
        SIMD results may differ in the last bit.
        """
        self._check(lo)
        self._check(hi - 1)
        radius = np.sqrt(np.arange(lo, hi, dtype=np.float64))
        angles = self._theta[lo:hi].tolist()
        x = radius * np.fromiter(map(math.cos, angles), np.float64, len(angles))
        y = radius * np.fromiter(map(math.sin, angles), np.float64, len(angles))
        return radius, x, y

    def winding_of(self, n: int) -> int:
        """Index of the full turn containing ray n: floor(theta / 2*pi)."""
        self._check(n)
        return int(self._theta[n] // TWO_PI)

    def reduced_angle(self, n: int) -> float:
        """theta(n) mod 2*pi, in [0, 2*pi)."""
        self._check(n)
        return float(self._theta[n] % TWO_PI)

    def point(self, n: int) -> SpiralPoint:
        self._check(n)
        t = float(self._theta[n])
        r = math.sqrt(n)
        return SpiralPoint(
            n=n,
            radius=r,
            theta=t,
            winding=int(t // TWO_PI),
            vertex=(r * math.cos(t), r * math.sin(t)),
        )

    def next_turn_index(self, n: int) -> int:
        """Smallest m with theta(m) >= theta(n) + 2*pi."""
        self._check(n)
        target = self._theta[n] + TWO_PI
        m = int(self._theta[1:].searchsorted(target, side="left")) + 1
        if m > self._n_max:
            raise RangeExhausted(
                f"no ray with angle >= theta({n}) + 2*pi inside the table (n_max={self._n_max})"
            )
        return m

    def winding_gap(self, n: int) -> float:
        """Radial gap sqrt(m) - sqrt(n) to the next turn; tends to pi."""
        m = self.next_turn_index(n)
        return math.sqrt(m) - math.sqrt(n)

    def theodorus_constant(self, n_terms: int) -> float:
        """Partial estimate theta(N) - 2*sqrt(N) of the Theodorus-type limit."""
        if n_terms < 2:
            raise ValueError("n_terms must be >= 2")
        self._check(n_terms)
        return float(self._theta[n_terms]) - 2.0 * math.sqrt(n_terms)

    def write_csv(self, stream: IO[bytes], n_max: int) -> None:
        """Bulk export: n, radius, theta_rad, winding, x, y at 18 significant digits.

        `stream` is a binary stream: it is handed only bytes, ASCII text. Rows
        1 .. n_max go out in chunks of _CSV_ROWS, one write per chunk, after
        one write of the header. Each value is the one point(n) gives; x and
        y come from vertices. The text is that of "%.17e" byte for byte:
        csvformat.csv_text formats it in numpy with exact rounding, and hands
        the rare value it cannot print exactly (zero, non-finite, out of
        range, or within 2**-30 of a rounding tie) to the "%.17e" row
        formatter, one row at a time.
        """
        self._check(n_max)
        stream.write(b"n,radius,theta_rad,winding,x,y\n")
        for lo in range(1, n_max + 1, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, n_max + 1)
            theta = self._theta[lo:hi]
            radius, x, y = self.vertices(lo, hi)
            winding = np.floor_divide(theta, TWO_PI).astype(np.int64)
            stream.write(csv_text(np.arange(lo, hi), radius, theta, winding, x, y))


_shared: SpiralTable | None = None


def shared_table(n_max: int) -> SpiralTable:
    """Process-wide table, shared read-only; rebuilt when asked to cover more."""
    global _shared
    if _shared is None:
        _shared = SpiralTable(n_max)
    else:
        _shared.ensure(n_max)
    return _shared
