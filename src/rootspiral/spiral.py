"""Square Root Spiral construction.

The spiral is built from unit-leg right triangles: the n-th ray has length
sqrt(n) and the cumulative angle of that ray is

    theta(n) = sum_{k=1}^{n-1} arctan(1 / sqrt(k)),   theta(1) = 0.

Angles are kept unwrapped; reduction mod 2*pi happens only at presentation.
The terms are summed in blocks of 4096. Inside a block the prefix is a plain
cumsum; each whole block's sum is computed exactly and rounded once, and the
block sums are carried with Kahan compensation, so the absolute angle error
stays below 1e-8 even for tables of 10^7 entries.

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

#: Terms computed per step of a one-worker table build, and the length of
#: the term and split buffers that a build's workers share out. A multiple of
#: _BLOCK, so every step but the last ends on a block boundary.
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


def _block_sums(rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row, bit-equal to math.fsum(row).

    Each term t of a row is split exactly as t = h + l, with h = (t + c) - c
    and c = 1.5 * 2**(E + 11), where every term of the row is < 2**E. That
    rounds h to the grid 2**(E - 41), so h is at most 2**41 grid steps, and
    leaves |l| <= 2**(E - 42) on the grid of the row's smallest ulp. Over
    2**12 terms every partial sum of either part then fits in 53 bits, so
    h.sum() and l.sum() are exact in any order. One IEEE addition rounds
    their total to nearest, ties to even, as math.fsum does.

    The split is exact when the terms are positive and finite (below
    2**1012, so neither c nor a row sum overflows), each row holds exactly
    4096 = 2**12 terms, and the binary exponents of a row's largest and
    smallest terms differ by at most 29. Blocks of arctan(1/sqrt(k)) meet
    this with room to spare: the widest spread is block 1 (k = 1..4096),
    whose terms span a ratio of about 50 (6 bits).

    The parts are held in `scratch`, an array of the shape of `rows`.
    """
    _, e = np.frexp(rows.max(axis=1))
    c = np.ldexp(1.5, e + 11)[:, None]
    part = np.add(rows, c, out=scratch)
    part -= c  # the high parts h
    high = part.sum(axis=1)
    np.subtract(rows, part, out=part)  # the low parts l = t - h
    return high + part.sum(axis=1)


def _kahan_offsets(sums: np.ndarray) -> tuple[np.ndarray, float]:
    """Each block's offset, and the offset past the last block, from the block sums.

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
    return np.array(offsets), total + comp


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
        0 .. i. The terms' 4096-term blocks are split into contiguous runs,
        one per worker: one worker per CPU this process may run on, but no
        more than the build has steps of _GROW_TERMS terms, so a one-step
        table starts no thread. Only phases 1 and 3 are split; numpy's ufuncs
        release the GIL, so the workers' runs overlap.

        1. Each worker steps through its run. For each step it computes the
           terms, their exact block sums, and each block's plain cumsum,
           written into theta.
        2. The calling thread carries the block sums, in block order, to each
           block's offset (_kahan_offsets).
        3. Each worker adds its blocks' offsets; the trailing partial block,
           if any, gets the offset past the last whole block.

        Each value is computed by the same operations in the same order
        whatever the split, so theta keeps every bit on any number of
        workers. The workers share out one term buffer and one split buffer
        of _GROW_TERMS floats, each worker's step a multiple of _BLOCK, so
        no step allocates an array of its length.
        """
        n_terms = n_max - 1
        theta = np.empty(n_max + 1, dtype=np.float64)
        theta[0] = np.nan
        theta[1] = 0.0
        prefix = theta[2:]
        workers = min(_workers(), -(-n_terms // _GROW_TERMS))
        size = max(_BLOCK, _GROW_TERMS // workers // _BLOCK * _BLOCK)
        blocks = -(-n_terms // _BLOCK)
        runs = [
            (w * blocks // workers * _BLOCK, min((w + 1) * blocks // workers * _BLOCK, n_terms))
            for w in range(workers)
        ]
        steps = np.arange(min(size, n_terms), dtype=np.float64)
        # One allocation holds every worker's term and split buffers. Freeing
        # one 1 MB block keeps glibc's mmap threshold above the temporaries
        # of a later CSV export's chunks; one block per worker took a 300 000
        # row `spiral` command from ~22 000 to ~26 600 page faults.
        buffers = np.empty((workers, 2, len(steps)))
        sums = np.empty(n_terms // _BLOCK)

        def block_prefixes(lo: int, hi: int, buffer: np.ndarray) -> None:
            # k = a + 1 + steps. The worker's term buffer and split buffer
            # serve every step of its run.
            terms, scratch = buffer
            for a in range(lo, hi, size):
                m = min(size, hi - a)
                t = _angle_terms(np.add(steps[:m], a + 1, out=terms[:m]))
                whole = m - m % _BLOCK  # only the table's last step may end in a partial block
                rows = t[:whole].reshape(-1, _BLOCK)
                sums[a // _BLOCK:(a + whole) // _BLOCK] = _block_sums(rows, scratch[:whole].reshape(-1, _BLOCK))
                # One 1-D cumsum per block: a 2-D one holds the GIL.
                for row, out in zip(rows, prefix[a:a + whole].reshape(-1, _BLOCK)):
                    np.add.accumulate(row, out=out)
                np.add.accumulate(t[whole:], out=prefix[a + whole:a + m])

        _run_split(block_prefixes, [(lo, hi, buffer) for (lo, hi), buffer in zip(runs, buffers)])
        offsets, past_last = _kahan_offsets(sums)

        def add_offsets(lo: int, hi: int) -> None:
            whole = min(hi, len(offsets) * _BLOCK)
            rows = prefix[lo:whole].reshape(-1, _BLOCK)
            rows += offsets[lo // _BLOCK:whole // _BLOCK, None]
            prefix[whole:hi] += past_last

        _run_split(add_offsets, runs)
        self._theta = theta
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
        m = int(np.searchsorted(self._theta[1:], target, side="left")) + 1
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
