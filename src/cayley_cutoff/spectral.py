"""Exact spectral analysis of Abelian Cayley walks via the character basis.

Every Cayley walk on G = Z_{m_1} + ... + Z_{m_d} is diagonalized by the
characters chi_x(y) = exp(2 pi i sum_j x_j y_j / m_j).  The eigenvalue
lambda_x = (1/k) sum_i chi_x(z_i) is the inverse DFT of the generator
histogram (how often each element occurs among the generators), so the whole
spectrum costs one transform.  Heat-kernel rows are real, so one more
transform carries two of them, one in its real and one in its imaginary part.

Both transforms run through `_dft`, on numpy's pocketfft (`numpy.fft`: scipy's
bits on every shape tested, and no scipy import).  An axis shorter than
CHIRP_AXIS = 2^15, or of 11-smooth length, runs one axis at a time from the
last, the order numpy's `fftn` uses, which keeps the spectrum bit-identical to
numpy's `fftn`.  A 1-D group of longer, non-smooth order n runs as Bluestein's
chirp-z (`_chirp_z`): the length-n DFT becomes a cyclic convolution of smooth
length N = n1 n2 >= 2n - 1, and each length-N transform runs as Bailey's
four-step FFT, batches of n1- and n2-point transforms that stay in cache.  The
plan, cached for one n, holds half of the chirp and half of the kernel's
spectrum, the other halves read as reversed views (both are mirror-symmetric),
about 24 MB at n = 10^6 + 3; pocketfft keeps no prime-length plan of its own.
Each thread that transforms keeps its own (n1, n2) convolution buffer with the
plan (`_ChirpPlan.buffer`), where pocketfft's Bluestein allocates its padded
buffers per call: on the replicate threads those pages were faulted in afresh
every replicate, 73,112 minor faults per warm run of `cutoff-profile --group
100003 --k 400 --alpha=-1.5,0,1.5 --replicates 20 --seed 1` against 5.  The
histogram and a row's weights go into the buffer's head and a row is returned
as a view of the buffer, so no row-sized array sits beside it; a buffer is
handed out only when nothing else references it, so a kept row is never
overwritten.  These transforms are not bit-identical to numpy's: against
pocketfft they move `tv-curve --group 1000003 --k 14 --model directed --seed 7
--t-grid 0.9:45:24` by at most 7.8e-16 in TV (24 of 24 rows), 1.4e-14 in
`l2_bound` and 2.2e-16 in gamma, and that `cutoff-profile` run by at most
3.3e-16 in TV (34 of 60).

The long passes run through `_in_leaves`, cut by one rule (`_leaves`): the
leaves of numpy's pairwise-summation tree (`_tree_sum`), each within ROW_BLOCK
elements or 16 items, so the leaves depend on the sizes alone and a pass of at
most ROW_BLOCK elements is one leaf.  Those passes are the transforms along
each axis of `_dft` and the four-step's axis 0 (`_along`, leaves of whole 1-D
transforms), the chirp products and zero fill, the four-step's row steps
(leaves of rows), the weights' exponentials with their Hermitian fill (leaves
of slab planes), a row's scaling by 1/n, guards, clamp, sums and
renormalization, the residue terms, the spectrum's near-1 candidates,
`gap_summary`, `tv_exact` and `l2_bound`.  `_in_leaves` runs the leaves on
`_fft_workers()` threads: one in a `--jobs` worker and on the replicate threads
of `experiments._map_replicates`, where a pass runs leaf by leaf in cache.  A
sum over leaves is numpy's pairwise summation cut at its own tree's nodes, so
it keeps `np.sum`'s bits; `tv_exact` adds exactly, in any order.  Each element
takes the same operations in the same order on any thread count, so no output
depends on it.

No heat-kernel row is bit-identical to numpy's transform of the full-spectrum
weights: the exponentials run on half the group and the other half is filled by
Hermitian symmetry, and a row computed in a pair takes in the other row's
rounding.  On one transform route this moves total variation in the last
digits: by at most 2.2e-16 (19 of 24 values) on the `tv-curve` run above and
2.2e-16 (26 of 60) on the `cutoff-profile` run.

Connectivity is decided exactly: a character is invariant (lambda_x = 1) iff
x . z = 0 in Q/Z for every distinct generator z, the histogram's nonzero bins,
which is checked in integer arithmetic for the few characters whose float
eigenvalue lies near 1.  Invariant characters carry the eigenvalue 1.0 exactly
and no other character does, so `lambda == 1` is the connectivity test.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import entropic
from .groups import GeneratorMultiset, GroupSpec, element_of, index_of

#: |lambda_x - 1| up to this makes x a candidate invariant character.  The
#: transform's rounding error is ~1e-15, so no invariant character is missed;
#: non-invariant candidates are rejected by the exact integer test.
INVARIANT_CANDIDATE_TOL = 1e-6

#: Most Python-int products (candidates times distinct generators) one block
#: of the exact invariance test forms; bounds its object arrays.
INVARIANT_BLOCK = 2 ** 16

#: tolerance for the imaginary residue and negative-probability clamp of a row.
ROW_TOL = 1e-9

#: -np.frexp(5e-324)[1], which makes every frexp exponent a bincount index.
_EXP_OFFSET = 1073

#: Shortest axis `_dft` runs as a four-step Bluestein (`_chirp_z`), when its
#: length is not 11-smooth; shorter axes stay on pocketfft, bit-identical to
#: numpy.  Four-step time over pocketfft's per transform (warm plan and buffer,
#: interleaved, median of 31, 2-core Xeon): thread CPU on one replicate thread
#: (`_fft_workers() == 1`), on each of two running at once, and wall on the
#: main thread (two workers):
#:
#:     n        16411 24593 32771 49157 65537 100003 131101 200003 262139
#:     1 thread  0.95  1.11  0.98  0.95  0.73  0.93   0.98   0.98   0.81
#:     2 at once 1.07  1.09  1.00  0.97  0.95  0.98   0.93   0.92   0.93
#:     main      1.59  1.42  0.79  0.73  0.95  0.72   0.73   0.70   0.65
#:
#: On replicate threads it also faults in no fresh pages (the module docstring).
CHIRP_AXIS = 2 ** 15

#: Most elements in one leaf of `_leaves`, or 16 items if more; a pass of at
#: most this many is one leaf.  A leaf of the four-step's rows and its kernel
#: rows, 2 MB, stays in one core's L2 cache (2 MB on the 2-core Xeon measured)
#: through the five row steps.  From 2^13 to 2^18 one `_chirp_z` at 10^6 + 3
#: took 72-85 ms there.
ROW_BLOCK = 2 ** 16

#: largest group the exhaustive Cheeger scan accepts: it visits all 2^n subsets.
CHEEGER_MAX_N = 24


class ImaginaryResidueError(RuntimeError):
    """Raised when a heat-kernel row has imaginary residue above tolerance."""


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues lambda_x of the transition operator, indexed by element index."""

    group: GroupSpec
    eigenvalues: np.ndarray  # complex, shape (n,)

    @functools.cached_property
    def _residue_terms(self) -> tuple[float, float]:
        """(mean_x |D_x|, g), D_x = lambda_x - conj lambda_{-x}, once per spectrum.

        g is the least 1 - Re lambda_x over the x with D_x != 0 (0.0 when there
        is none; the mean is 0 then).  They bound the imaginary residue of the
        heat-kernel row at each time s by 0.5 s mean|D| e^{-s g}: the residue is
        at most (1/2n) sum_x |w_x - conj w_{-x}|, w_x = e^{-s(1 - lambda_x)}, and
        |e^{-sa} - e^{-sb}| <= s |a - b| e^{-s min(Re a, Re b)}.  Since D_{-x} =
        -conj D_x, a term with D_x != 0 has D_{-x} != 0 too, so both of its
        exponents have real part 1 - Re lambda >= g.
        """
        lam, moduli = self.eigenvalues, self.group.moduli
        # On the four-step route the mirror lives in the plan's idle buffer, so
        # it adds no row-sized array to the peak.
        mirror = (_plan(lam.size).buffer().reshape(-1)[:lam.size] if _on_chirp(moduli)
                  else np.empty(moduli, dtype=complex))
        _negate(mirror, lam.reshape(moduli), range(len(moduli)),
                np.empty_like(mirror) if len(moduli) > 1 else None)
        mirror = mirror.reshape(-1)
        leaves = _leaves(lam.size)

        def terms(lo, hi, scratch):
            """The leaf's sum of |D_x| and its least 1 - Re lambda_x with D_x != 0."""
            d, x = mirror[lo:hi], scratch[0, :hi - lo]
            np.subtract(lam[lo:hi], np.conjugate(d, out=d), out=d)
            asymmetric = d != 0
            total = np.abs(d, out=x).sum()
            np.subtract(1.0, lam.real[lo:hi], out=x)
            return total, x[asymmetric].min() if asymmetric.any() else None

        totals, gaps = zip(*_in_leaves(terms, leaves, 1))
        gaps = [g for g in gaps if g is not None]
        return float(_leaf_total(totals, leaves) / lam.size), float(np.min(gaps)) if gaps else 0.0

    @functools.cached_property
    def _slab(self) -> tuple[int, np.ndarray, bool]:
        """(a, lambda on the slab x_a in [0, m_a // 2], whether that is real), a
        the axis of the largest modulus: the half group on which `_packed_weights`
        takes its exponentials.  The realness is a pass over the slab, made once
        per spectrum."""
        moduli = self.group.moduli
        a = int(np.argmax(moduli))
        half = self.eigenvalues.reshape(moduli)[(slice(None),) * a + (slice(moduli[a] // 2 + 1),)]
        return a, half, not half.imag.any()


@dataclass(frozen=True)
class HeatKernelRow:
    """Rows P_t(0, .) of the heat kernel, clamped and renormalized: shape (n,)
    for one time, (len(t), n) for a sequence of times."""

    probs: np.ndarray


@dataclass(frozen=True)
class GapSummary:
    gamma: float
    t_rel: float
    gamma_star: float
    connected: bool


def _invariant_characters(group: GroupSpec, generators: np.ndarray,
                          candidates: np.ndarray) -> np.ndarray:
    """The candidate indices x with x . z = 0 in Q/Z for every row z of `generators`.

    Scaled by L = lcm(m) to sum_j x_j z_j (L / m_j) = 0 (mod L), on Python
    ints (object arrays): the products reach m_j * L and would wrap in int64.
    All generators are tested in one product per block of candidates, each
    block holding at most INVARIANT_BLOCK products.
    """
    lcm = math.lcm(*group.moduli)
    coords = element_of(group, candidates).astype(object) * [lcm // m for m in group.moduli]
    gens = generators.T.astype(object)
    rows = max(1, INVARIANT_BLOCK // gens.shape[1])
    ok = np.ones(len(candidates), dtype=bool)
    for lo in range(0, len(candidates), rows):
        ok[lo:lo + rows] = (coords[lo:lo + rows] @ gens % lcm == 0).all(axis=1)
    return candidates[ok]


def _negate(dst: np.ndarray, src: np.ndarray, axes, spare: np.ndarray | None):
    """dst = src_{-x} along each of `axes`, by two slice copies per axis (x -> 0
    for x = 0, m - x for x > 0); with no axes, src must be dst.

    The copies alternate between dst and `spare` (shaped like dst, unused for
    fewer than two axes) and end in dst: no copy is allocated, and a d = 20
    group pays 40 slice copies rather than numpy's 2^d for a tuple of axes.
    """
    for i, axis in enumerate(axes):
        to = dst if (len(axes) - i) % 2 else spare
        head = (slice(None),) * axis
        to[head + (0,)] = src[head + (0,)]
        to[head + (slice(1, None),)] = src[head + (slice(None, 0, -1),)]
        src = to


def _dft(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """numpy's `fftn(a)`, or `ifftn(a, norm="forward")`.

    Bit for bit, on `_fft_workers()` threads (`_along` splits an axis's batch
    of 1-D transforms, each computed whole), except on a 1-D `a` whose length is
    at least CHIRP_AXIS and not 11-smooth (`_on_chirp`): that one runs as a
    four-step Bluestein (`_chirp_z`) in this thread's convolution buffer, within
    57 eps log2(N) of the exact transform in relative 2-norm (N its padded
    length; the constant is derived in
    tests/test_spectral.py::test_chirp_z_matches_numpy).  A complex `a` is the
    transform's work buffer and may be overwritten (the four-step copies it
    into the convolution buffer and returns `a` itself); any other `a` is first
    copied to complex.  Below CHIRP_AXIS the spectrum's transform is therefore
    numpy's; a heat-kernel row's is not, as its Hermitian-filled weights differ
    from the full-spectrum ones in the last bits.
    """
    out = a.astype(complex, copy=False)
    if _on_chirp(out.shape):
        buf = _plan(out.size).buffer()
        buf.reshape(-1)[:out.size] = out
        return _chirp_z(buf, out, inverse)
    for axis in range(out.ndim - 1, -1, -1):
        _along(out, axis, inverse)
    return out


def _along(v: np.ndarray, axis: int, inverse: bool):
    """numpy's `fft(v, axis)`, or `ifft(v, axis, norm="forward")`, in place, as
    leaves (`_in_leaves`) of whole 1-D transforms: no bit depends on the threads."""
    transform, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    v, axis = (v[None], 1) if v.ndim == 1 else (v, axis)
    b = v.ndim - 1 if axis == 0 else 0

    def part(lo, hi, _):
        w = v[(slice(None),) * b + (slice(lo, hi),)]
        transform(w, axis=axis, norm=norm, out=w)

    _in_leaves(part, _leaves(v.shape[b], v.size // v.shape[b]))


def _on_chirp(shape: tuple[int, ...]) -> bool:
    """Whether `_dft` transforms an array of this shape as a four-step Bluestein."""
    return len(shape) == 1 and shape[0] >= CHIRP_AXIS and _next_fast_len(shape[0]) != shape[0]


@functools.cache  # `_on_chirp` asks it for the group order at every transform
def _next_fast_len(t: int) -> int:
    """The least 11-smooth integer >= t, scipy's `fft.next_fast_len` of complex
    input: the least f 2^s >= t over the odd 11-smooth f below 2t."""
    odd = [1]
    for p in (3, 5, 7, 11):
        for f in odd[:]:
            while (f := f * p) < 2 * t:
                odd.append(f)
    return min(f << max(0, (-(-t // f) - 1).bit_length()) for f in odd)


def _fft_workers() -> int:
    """Threads for one pass (a `_dft` axis, a four-step's axis-0 transforms, the
    runs of `_in_leaves`): on the main thread, every CPU this process may run
    on; one inside a `--jobs` worker (no pool is built after a fork) or on any
    other thread, such as a replicate thread of `experiments._map_replicates`,
    whose siblings already spread over the CPUs.  So threads never nest, and
    none submits work to the pool it runs on.  No output depends on it, as the
    leaves of `_leaves` depend on sizes alone."""
    if (multiprocessing.parent_process() is not None
            or threading.current_thread() is not threading.main_thread()):
        return 1
    return len(os.sched_getaffinity(0))


#: The threads of `_in_leaves`: `_pool(w)` is built on first use, one per count w.
_pool = functools.cache(ThreadPoolExecutor)


def _in_leaves(fn, leaves: list, rows: int = 0, unit: int = 1, dtype=float) -> list:
    """[fn(lo, hi, s) for lo, hi in leaves], in order, on up to `_fft_workers()`
    threads, each taking one contiguous run of the leaves; a lone run, as of a
    one-leaf pass, goes on the caller's thread.  `s`, of shape (rows, unit * the
    widest leaf's hi - lo), is the run's own scratch, which this (the caller's)
    thread allocates: `fn` writes its temporaries there or into existing
    buffers, as a pool thread's allocations stay in its malloc arena and raise
    peak RSS.  numpy's ufuncs and pocketfft release the GIL.
    """
    workers = _fft_workers()
    runs = min(len(leaves), workers)
    step = -(-len(leaves) // runs)
    space = np.empty((runs, rows, unit * max(hi - lo for lo, hi in leaves)), dtype=dtype)

    def run(j):
        return [fn(lo, hi, space[j]) for lo, hi in leaves[j * step:(j + 1) * step]]

    parts = [run(0)] if runs == 1 else _pool(workers).map(run, range(runs))
    return [result for part in parts for result in part]


def _leaves(m: int, unit: int = 1) -> list[tuple[int, int]]:
    """The leaves (lo, hi) of a pass over m items of `unit` elements each, in
    order: those of `_tree_sum`, each within ROW_BLOCK elements or 16 items, so
    a pass of at most ROW_BLOCK elements is one leaf.  The floor of 16 makes the
    split end, as `_tree_sum` cuts fewer than 16 items into none and all.  Every
    bound but the last is a multiple of 8 items, so SIMD ufuncs keep each
    element's offset modulo 8, and its bits."""
    return _tree_sum(lambda lo, hi: [(lo, hi)], m, max(16, ROW_BLOCK // unit))


def _leaf_total(values, leaves: list):
    """`values`, one per leaf of `_leaves(m)`, added in the order of its tree
    (`_tree_sum`): the nodes it splits are those wider than the widest leaf."""
    values = iter(values)
    return _tree_sum(lambda lo, hi: next(values), leaves[-1][1], max(hi - lo for lo, hi in leaves))


def _tree_sum(leaf_sum, m: int, leaf: int, lo: int = 0):
    """leaf_sum(lo, hi) of each leaf of numpy's pairwise summation of the m
    values from lo, split until a leaf holds at most `leaf`, added in the
    tree's order.

    numpy's `np.add.reduce` of a 1-D float array splits m > 128 values at
    m // 2 rounded down to a multiple of 8 and adds the halves' sums, so with
    each leaf's own `np.add.reduce` and `leaf` at least 128 (below which numpy
    splits no further) this gives its bits.  Every bound but the last is a
    multiple of 8.
    """
    if m <= leaf:
        return leaf_sum(lo, lo + m)
    half = m // 2 // 8 * 8
    return _tree_sum(leaf_sum, half, leaf, lo) + _tree_sum(leaf_sum, m - half, leaf, lo + half)


@dataclass(frozen=True)
class _ChirpPlan:
    """Bluestein's chirp-z for one length m on a smooth N = n1 n2 >= 2m - 1.

    Every phase is reduced exactly in integers before its one float division:
    the chirp's (`_chirp_plan`), and the four-step's twiddle w^{k j},
    w = e^{-2 pi i / N}, at row k < n1 and column j < n2, the product of
    `twiddle_hi[k, j // r]` (phase k r (j // r)) and `twiddle_lo[k, j % r]`
    (phase k (j % r)).
    `kernel` is the DFT of conj chirp_j on -m < j < m, divided by N, in the
    four-step's (n1, n2) output order.  Each table holds half of itself, and
    the rest is read as a reversed view (`_mirror`): `chirp` holds c_j for
    j <= m // 2, as c_{m-j} = c_j, and `kernel` rows 0 .. n1 // 2, as the DFT
    of an even sequence is even: K[k1, k2] = K[n1 - k1, n2 - 1 - k2] for
    k1 >= 1.  At m = 10^6 + 3 the plan holds about 24 MB: 8 in `chirp` and 16
    in `kernel`, and each thread that has transformed with it 32 more in its
    buffer (`scratch`), freed with the plan.
    """

    n1: int
    n2: int
    chirp: np.ndarray        # (m // 2 + 1,)
    twiddle_hi: np.ndarray   # (n1, n2 // r)
    twiddle_lo: np.ndarray   # (n1, r)
    kernel: np.ndarray       # (n1 // 2 + 1, n2)
    scratch: threading.local = field(default_factory=threading.local)

    def buffer(self) -> np.ndarray:
        """This thread's (n1, n2) convolution buffer, kept until the plan leaves
        the cache, so no replicate faults in fresh pages.  A row is a view of
        it (a view's `base` is the buffer), so it is handed out only when
        nothing else references it; otherwise a fresh one is kept in its place.
        A transform passes its buffer along, as a second call allocates."""
        buf = getattr(self.scratch, "buf", None)
        if buf is None or sys.getrefcount(buf) > 3:  # the kept one, `buf` and the argument
            buf = self.scratch.buf = np.empty((self.n1, self.n2), dtype=complex)
        return buf


def _unit_roots(phase: np.ndarray, period: int) -> np.ndarray:
    """e^{-2 pi i phase / period} for integer phases, reduced to (-period/2, period/2]."""
    phase = phase % period
    phase[2 * phase > period] -= period
    return np.exp(-2j * np.pi * (phase / period))


def _mirror(table: np.ndarray, lo: int, hi: int, size: int):
    """Entries lo..hi of a length-`size` table f with f[j] = f[size - j] whose
    head is `table`: the split s, len(table) clipped to [lo, hi], then f[lo:s]
    as a slice of `table` and f[s:hi] as a reversed one."""
    s = min(max(lo, len(table)), hi)
    return s, table[lo:s], table[size - s:size - hi:-1]


@functools.lru_cache(maxsize=1)
def _chirp_plan(m: int) -> _ChirpPlan:
    """The plan for length m; one is kept, for the group in use.

    N = n1 n2 is the smallest product of two 11-smooth lengths with n1 within
    a factor 2 of sqrt(2m - 1), the most nearly square on a tie; r is the
    largest divisor of n2 up to sqrt(n2), so both twiddle tables stay small.

    The chirp is c_j = e^{-2 pi i p_j / 2m}, p_j = j (j + m) mod 2m, so
    c_j c_k conj c_{k-j} = w^{jk}, w = e^{-2 pi i / m}, as p_j + p_k - p_{k-j}
    = 2jk mod 2m.  As p_{m-j} = p_j, the reversed view of the stored half is
    the upper half bit for bit.  The kernel's input is written
    from that half into this thread's convolution buffer, transformed there,
    and its rows 0 .. n1 // 2 are kept: the build allocates no full-length
    table.
    """
    need = 2 * m - 1
    root = math.isqrt(need)
    splits = []
    n1 = _next_fast_len(root // 2)
    while n1 <= 2 * root:
        n2 = _next_fast_len(-(-need // n1))
        splits.append((n1 * n2, abs(n1 - n2), n1, n2))
        n1 = _next_fast_len(n1 + 1)
    _, _, n1, n2 = min(splits)
    r = max(d for d in range(1, math.isqrt(n2) + 1) if n2 % d == 0)
    j = np.arange(m // 2 + 1, dtype=np.int64)
    chirp = _unit_roots(j * (j + m), 2 * m)
    del j  # freed before the kernel's transform
    k1 = np.arange(n1, dtype=np.int64)[:, None]
    plan = _ChirpPlan(n1=n1, n2=n2, chirp=chirp,
                      twiddle_hi=_unit_roots(k1 * r * np.arange(n2 // r), n1 * n2),
                      twiddle_lo=_unit_roots(k1 * np.arange(r), n1 * n2),
                      kernel=np.empty((n1 // 2 + 1, n2), dtype=complex))
    buf = plan.buffer()
    flat = buf.reshape(-1)
    s, low, high = _mirror(chirp, 0, m, m)
    np.conjugate(low, out=flat[:s])
    np.conjugate(high, out=flat[s:m])
    flat[m:1 - m] = 0
    flat[:-m:-1] = flat[1:m]
    _four_step(plan, buf)
    np.divide(buf[:len(plan.kernel)], n1 * n2, out=plan.kernel)
    return plan


_plan_lock = threading.Lock()


def _plan(m: int) -> _ChirpPlan:
    """`_chirp_plan(m)` under one lock: a thread waits for another's build."""
    with _plan_lock:
        return _chirp_plan(m)


def _four_step(plan: _ChirpPlan, v: np.ndarray, kernel: np.ndarray | None = None):
    """Bailey's four-step DFT of length N = n1 n2, in place on the (n1, n2) view
    `v` of a length-N vector: transform axis 0, twiddle, transform axis 1, which
    leaves X[k1 + n1 k2] at v[k1, k2]; no transpose is made.  With a `kernel` in
    that order, v is then multiplied by it and the three steps are undone
    (inverse, unscaled): a cyclic convolution, times N.  The axis-0 transforms
    run as leaves of columns (`_along`), the row steps as leaves of rows."""
    _along(v, 0, False)
    _in_leaves(functools.partial(_rows, plan, v, kernel), _leaves(plan.n1, plan.n2))
    if kernel is not None:
        _along(v, 0, True)


def _rows(plan: _ChirpPlan, v: np.ndarray, kernel: np.ndarray | None, lo: int, hi: int, _):
    """The row steps on the leaf of rows lo..hi of `v`: twiddle, transform axis
    1; with a `kernel` (a plan's half), multiply, inverse-transform axis 1,
    twiddle back.  A leaf that straddles the kernel's last stored row takes two
    products, the second by the mirrored rows' reversed view.  Each element
    meets the whole-buffer passes' operations in their order, so the bits do
    not change."""
    part = v[lo:hi]
    twiddled = part.reshape(-1, plan.twiddle_hi.shape[1], plan.twiddle_lo.shape[1])
    th, tl = plan.twiddle_hi[lo:hi, :, None], plan.twiddle_lo[lo:hi, None, :]
    twiddled *= th
    twiddled *= tl
    np.fft.fft(part, axis=1, out=part)
    if kernel is not None:
        s, low, high = _mirror(kernel, lo, hi, plan.n1)
        part[:s - lo] *= low
        part[s - lo:] *= high[:, ::-1]
        np.fft.ifft(part, axis=1, norm="forward", out=part)
        twiddled *= th.conj()
        twiddled *= tl.conj()


def _chirp_z(buf: np.ndarray, out: np.ndarray, inverse: bool) -> np.ndarray:
    """The unscaled DFT (e^{+} phases when `inverse`) of the head of `buf`, this
    thread's `_plan(m).buffer()`, into the 1-D `out` of m values, which may be that head.

    X_k = c_k sum_j (x_j c_j) conj c_{k-j}, c the plan's chirp
    (`_chirp_plan`): a convolution, run as one four-step convolution of length
    N with the cached kernel.  The inverse is conj DFT(conj x).  The chirp
    products and the zero fill run in place in `buf`, as leaves of
    `_in_leaves`, the rest in `_four_step`; a product takes the stored half of
    the chirp, then its reversed view (`_mirror`).
    """
    m = out.size
    plan = _plan(m)
    flat = buf.reshape(-1)

    def chirp_in(lo, hi, _):
        mid = min(max(lo, m), hi)
        head = flat[lo:mid]
        if inverse:
            np.conjugate(head, out=head)
        s, low, high = _mirror(plan.chirp, lo, mid, m)
        np.multiply(head[:s - lo], low, out=head[:s - lo])
        np.multiply(head[s - lo:], high, out=head[s - lo:])
        flat[mid:hi] = 0

    def chirp_out(lo, hi, _):
        s, low, high = _mirror(plan.chirp, lo, hi, m)
        np.multiply(flat[lo:s], low, out=out[lo:s])
        np.multiply(flat[s:hi], high, out=out[s:hi])
        if inverse:
            np.conjugate(out[lo:hi], out=out[lo:hi])

    _in_leaves(chirp_in, _leaves(flat.size))
    _four_step(plan, buf, plan.kernel)
    _in_leaves(chirp_out, _leaves(m))
    return out


def eigenvalues(group: GroupSpec, Z: GeneratorMultiset, model: str) -> SpectralData:
    """lambda_x = (1/k) sum_i cos(2 pi x_bar.Z_i), or the character value when directed.

    Computed as the inverse DFT of the generator histogram; the four-step
    route writes it into the convolution buffer, freed before the spectrum is
    made.  Invariant characters (x = 0 among them) are set to exactly 1.0;
    every other character keeps Re lambda < 1, so its gap 1 - Re lambda stays
    positive.  A candidate lies within INVARIANT_CANDIDATE_TOL of 1, screened
    on |Re lambda - 1| in a float row per leaf before numpy's slow hypot.
    """
    entropic._check_model(model)
    n = group.n
    hist = np.bincount(index_of(group, Z.generators), minlength=n)
    distinct = element_of(group, np.flatnonzero(hist))  # np.unique's rows, in its order
    if _on_chirp(group.moduli):
        buf = _plan(n).buffer()
        buf.reshape(-1)[:n] = hist
        del hist
        lam = _chirp_z(buf, np.empty(n, dtype=complex), True)
    else:
        lam = _dft(hist.reshape(group.moduli), inverse=True).reshape(-1)
        del hist  # freed as its transform returns
    lam /= Z.k
    if model == "undirected":
        lam.imag = 0.0

    def candidates(lo, hi, scratch):
        shifted = np.subtract(lam.real[lo:hi], 1.0, out=scratch[0, :hi - lo])
        near = np.flatnonzero(np.abs(shifted, out=shifted) <= INVARIANT_CANDIDATE_TOL)
        distance = np.hypot(shifted[near], lam.imag[lo:hi][near])
        return near[distance <= INVARIANT_CANDIDATE_TOL] + lo

    near = np.concatenate(_in_leaves(candidates, _leaves(n), 1))
    # Rounding must not close a gap below float resolution: only the exactly
    # invariant characters reach 1.
    lam[near] = np.minimum(lam[near].real, np.nextafter(1.0, 0.0)) + 1j * lam[near].imag
    lam[_invariant_characters(group, distinct, near)] = 1.0
    return SpectralData(group=group, eigenvalues=lam)


def _packed_weights(spec: SpectralData, times: list[float], out: np.ndarray) -> np.ndarray:
    """w(t_1) + i w(t_2), w_x = e^{-t(1-lambda_x)}, on half the group, into `out` (shape moduli).

    The exponentials run on the slab x_a in [0, m_a // 2] of the axis a with the
    largest modulus (`SpectralData._slab`), with a real exp when the slab's
    spectrum is real; the other planes are filled as w_x = conj w_{-x}, so both
    rows are exactly Hermitian.  One pass does both, per leaf of slab planes
    (`_leaves`): a leaf's exponentials, in its run's scratch, then its packed
    planes, and the mirrored planes x_a -> m_a - x_a it owns, packed in scratch
    and negated along the other axes (`_negate`) when there are any.  numpy's
    exp gives each element the same bits at any offset or stride, so the leaves
    do not change them.
    A zero time, or a missing second time, has zero weights.
    """
    moduli = spec.group.moduli
    a, half, real = spec._slab
    m, h = moduli[a], moduli[a] // 2
    lead = (slice(None),) * a
    others = tuple(b for b in range(len(moduli)) if b != a)
    pair = len(times) == 2 and times[1] > 0
    own = 1 if real else 2  # scratch rows of a leaf's two weights; then `_negate`'s

    def fill(lo, hi, scratch):
        part = lead + (slice(lo, hi),)
        shape = half[part].shape
        size = math.prod(shape)
        rows = scratch[:own].reshape(-1).view(float if real else complex)
        rate, w2 = rows[:size].reshape(shape), rows[size:2 * size].reshape(shape)
        np.subtract(1.0, half[part].real if real else half[part], out=rate)
        if pair:
            np.exp(np.multiply(-times[1], rate, out=w2), out=w2)
        if times[0]:
            np.exp(np.multiply(-times[0], rate, out=rate), out=rate)

        def pack(o, planes, mirror):
            """o = w1 + i w2 on the leaf's `planes`; conj w1 + i conj w2 if `mirror`."""
            w1_ = rate[lead + (planes,)] if times[0] else 0.0
            w2_ = w2[lead + (planes,)] if pair else 0.0
            if real:
                o.real, o.imag = w1_, w2_
            elif mirror:
                np.add(np.real(w1_), np.imag(w2_), out=o.real)
                np.subtract(np.real(w2_), np.imag(w1_), out=o.imag)
            else:
                np.subtract(np.real(w1_), np.imag(w2_), out=o.real)
                np.add(np.imag(w1_), np.real(w2_), out=o.imag)

        pack(out[part], slice(None), False)
        first, stop = max(lo, 1), min(hi, m - h)  # planes whose mirror m - x_a > h
        if first < stop:
            mirrored = out[lead + (slice(m - first, m - stop, -1),)]
            t, spare = mirrored, None
            if others:
                t, spare = (row[:t.size].reshape(t.shape) for row in scratch[own:])
            pack(t, slice(first - lo, stop - lo), True)
            _negate(mirrored, t, others, spare)

    unit = half.size // (h + 1)
    # A plane counts once per weight it holds in scratch (two on a complex
    # slab), so a leaf's exponentials stay within ROW_BLOCK elements: at the
    # peak of a long row they sit beside the kept chirp buffer.
    _in_leaves(fill, _leaves(h + 1, own * unit), own + 2 * bool(others), unit, complex)
    return out


def heat_kernel_row(spec: SpectralData, t) -> HeatKernelRow:
    """P_t(0, y) = (1/n) sum_x e^{-t(1-lambda_x)} conj(chi_x(y)) via per-axis DFT.

    `t` is a time, or a sequence of one or two times whose rows come back stacked
    in `probs` (shape (len(t), n)).  A row is real because its weights are
    Hermitian (w_{-x} = conj w_x), so one complex transform of w(t_1) + i w(t_2)
    carries row t_1 in its real part and row t_2 in its imaginary part, and
    `probs` is a view of that transform's output: on the four-step route, this
    thread's convolution buffer, which every pass from the weights on runs in,
    so a kept row holds about 2n complex values.  The weights are computed on
    half the group and filled as conj w_{-x} (`_packed_weights`), so no row is
    bit-identical to numpy's `fftn` of the full-spectrum weights.  A row at
    t = 0 is the indicator of 0 and packs zero weights; a call whose times are
    all 0 takes no transform.  One pass over the leaves of `_leaves` scales by
    1/n and takes each row's min, sum, clamp and clamped sum; the guards read
    them in order (row 0's min and mass, then row 1's), and a second divides
    each row by its clamped sum: the bits of whole-row passes.
    """
    if np.ndim(t) > 1 or not 1 <= np.size(t) <= 2:
        raise ValueError("t must be a time or a pair of times")
    times = _times(t)
    group = spec.group
    n = group.n
    t_max = max(times)
    if t_max > 0:
        # Packing mixes each row's imaginary residue into the other row, so the
        # residue is bounded from the spectrum instead, at each time, by a bound
        # that decays with the gap (`_residue_terms`).  The sum it bounds also
        # bounds what the Hermitian fill of `_packed_weights` changes in each row.
        asymmetry, gap = spec._residue_terms
        for s in times:
            drift = 0.5 * s * asymmetry
            if drift > 0 and math.log(drift) - s * gap > math.log(ROW_TOL):
                raise ImaginaryResidueError(
                    f"imaginary residue bound {drift:g} * e^{-s * gap:g} > {ROW_TOL:g}")
        if _on_chirp(group.moduli):
            buf = _plan(n).buffer()
            row = _chirp_z(buf, _packed_weights(spec, times, buf.reshape(-1)[:n]), False)
        else:
            row = _dft(_packed_weights(spec, times, np.empty(group.moduli, complex))).reshape(-1)
    else:
        row = np.zeros(n, dtype=complex)
    flat = row.view(float)
    rows = flat.reshape(n, 2).T[:len(times)]
    live = [j for j, s in enumerate(times) if s > 0]

    def sums(lo, hi, _):
        """Scale the leaf by 1/n; per live row, its min, sum, clamp and clamped sum.

        The scaling multiplies the floats by fl(1/n).  numpy divides a complex
        by n as (re + im 0) fl(1/n): the same bits but for the sign of a zero
        and beside an infinite or NaN part, where the guards still reject the
        row (tests/test_spectral.py::test_overflowing_row_still_raises)."""
        np.multiply(flat[2 * lo:2 * hi], 1.0 / n, out=flat[2 * lo:2 * hi])
        stats = []
        for j in live:
            probs = rows[j, lo:hi]
            low, mass = probs.min(), probs.sum()
            np.clip(probs, 0.0, None, out=probs)
            stats.append((low, mass, probs.sum()))
        return stats

    if live:
        leaves = _leaves(n)
        totals = []
        for per_leaf in zip(*_in_leaves(sums, leaves)):
            lows, masses, clamped = zip(*per_leaf)
            worst_negative = float(np.min(lows))
            if not worst_negative >= -ROW_TOL:
                raise ValueError(f"negative probability {worst_negative:g} beyond clamp tolerance")
            total = float(_leaf_total(masses, leaves))
            if not abs(total - 1.0) <= ROW_TOL:
                raise ValueError(f"row mass {total} deviates from 1 beyond tolerance")
            totals.append(_leaf_total(clamped, leaves))

        def scale(lo, hi, _):
            for j, total in zip(live, totals):
                np.divide(rows[j, lo:hi], total, out=rows[j, lo:hi])

        _in_leaves(scale, leaves)
    for probs, s in zip(rows, times):
        if s == 0:
            probs[:] = 0.0
            probs[0] = 1.0
    return HeatKernelRow(probs=rows[0] if np.ndim(t) == 0 else rows)


def tv_exact(row: HeatKernelRow) -> float | list[float]:
    """Total variation distance from uniform: half the L1 discrepancy.

    Accumulated as the positive-part sum (equal to half the L1 distance for
    probability vectors), added exactly and rounded once (equal to
    `math.fsum`), which keeps boundary identities like tv(0) = 1 - 1/n exact
    to the last bit.  Each leaf of `_leaves`, at most ROW_BLOCK values, writes
    max(r - u, 0) into its run's scratch and sorts it there, so the masked
    r[r > u] - u lies in (0, inf], between the zeros and any NaN, with one run
    per exponent for `_exact_int`; the values tied at 0 make the sort cheaper
    than that of r - u.  A row of stacked times gives one float per time.
    """
    p = row.probs
    n = p.shape[-1]
    u = 1.0 / n

    def excess(lo, hi, scratch):
        x = scratch[0, :hi - lo]
        parts = []
        for r in np.atleast_2d(p):
            np.subtract(r[lo:hi], u, out=x)
            np.maximum(x, 0.0, out=x)
            x.sort()
            above = slice(*np.searchsorted(x, [0.0, np.inf], "right"))
            parts.append(_exact_int(x[above], scratch[1]))
        return parts

    parts = _in_leaves(excess, _leaves(n), 2)
    tvs = [sum(ints) / (1 << _EXP_OFFSET + 53) for ints in zip(*parts)]
    return tvs if p.ndim == 2 else tvs[0]


def _exact_int(x: np.ndarray, spare: np.ndarray) -> int:
    """sum(x) 2^(_EXP_OFFSET + 53), exact, as a Python int, for a 1-D array of
    finite floats, which it overwrites.

    Each value is M 2^(e-53) with an integer |M| < 2^53 (`np.frexp`), split as
    M = 2^26 high + low with integers |high| <= 2^27 and 0 <= low < 2^26.  Each
    run of consecutive values with one exponent adds its highs and its lows in
    float64 (`np.add.reduceat`), exactly for x of at most 2^26 values (as
    `tv_exact`'s leaves are): their sums stay within 2^53, where float64 holds
    every integer.  A sorted x has one run per exponent.  The run sums are
    combined as Python ints.  `spare`, a float row of at least x.size values,
    holds the exponents and run starts, then the highs: nothing but the runs'
    values is allocated.
    """
    if not x.size:
        return 0
    high = spare[:x.size]
    exp = high.view(np.int32)[:x.size]
    heads = high.view(bool)[4 * x.size:5 * x.size]  # past exp's bytes
    np.frexp(x, out=(x, exp))
    heads[0] = True
    np.not_equal(exp[1:], exp[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    exps = (exp[starts] + _EXP_OFFSET).tolist()
    x *= 2.0 ** 27
    np.floor(x, out=high)
    x -= high  # low / 2^26
    highs = np.add.reduceat(high, starts).tolist()
    lows = (np.add.reduceat(x, starts) * 2.0 ** 26).tolist()
    return sum(((int(h) << 26) + int(low)) << e for h, low, e in zip(highs, lows, exps))


def _times(t) -> list[float]:
    """A time, or a 1-D sequence of times, as floats, each >= 0 and finite."""
    times = [float(s) for s in np.ravel(t)]
    if np.ndim(t) > 1 or not all(0 <= s < math.inf for s in times):
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    return times


def l2_bound(spec: SpectralData, t) -> float | list[float]:
    """L2 upper bound on TV: half the root of sum_{x!=0} e^{-2t(1-Re lambda_x)}.

    `t` is a time, or a sequence of times with one bound each.  Each leaf of
    `_leaves` forms 1 - Re lambda once in its run's scratch and, per time, sums
    the exponentials in a second row there; the leaf sums are added in the
    tree's order: the bits of the whole array's `np.sum`, at each time.
    """
    times = _times(t)
    lam = spec.eigenvalues
    leaves = _leaves(lam.size - 1)

    def terms(lo, hi, scratch):
        rate, decay = scratch[0, :hi - lo], scratch[1, :hi - lo]
        np.subtract(1.0, lam.real[lo + 1:hi + 1], out=rate)
        return [np.exp(np.multiply(-2.0 * s, rate, out=decay), out=decay).sum() for s in times]

    bounds = [0.5 * math.sqrt(float(_leaf_total(sums, leaves)))
              for sums in zip(*_in_leaves(terms, leaves, 2))]
    return bounds if np.ndim(t) else bounds[0]


def gap_summary(spec: SpectralData) -> GapSummary:
    """Spectral gap, relaxation time and absolute gap from the eigenvalue array.

    The walk is connected iff no nonzero character has lambda == 1 exactly
    (see `eigenvalues`); a disconnected walk has gamma = 0 and t_rel = inf.
    Each leaf of `_leaves` tests lambda == 1 and takes its least 1 - Re lambda
    and 1 - |lambda| in its run's scratch, so no row-sized temporary is made;
    a min is exact, so the leaves do not change it.
    """
    lam = spec.eigenvalues[1:]

    def extremes(lo, hi, scratch):
        x = scratch[0, :hi - lo]
        invariant = np.equal(lam[lo:hi], 1.0, out=scratch[1].view(bool)[:hi - lo]).any()
        gap = np.subtract(1.0, lam.real[lo:hi], out=x).min()
        np.abs(lam[lo:hi], out=x)
        return invariant, gap, np.subtract(1.0, x, out=x).min()

    invariant, gaps, absolute_gaps = zip(*_in_leaves(extremes, _leaves(lam.size), 2))
    connected = not any(invariant)
    gamma = float(np.min(gaps)) if connected else 0.0
    t_rel = 1.0 / gamma if gamma > 0.0 else math.inf
    gamma_star = float(np.min(absolute_gaps))
    return GapSummary(gamma=gamma, t_rel=t_rel, gamma_star=gamma_star, connected=connected)


def cheeger_bounds(g: GapSummary) -> tuple[float, float]:
    """Two-sided bracket (gamma/2, sqrt(2 gamma)) for the Cheeger constant."""
    if not g.connected:
        raise ValueError("Cheeger bounds require a connected instance")
    return g.gamma / 2.0, math.sqrt(2.0 * g.gamma)


def cheeger_exact(group: GroupSpec, Z: GeneratorMultiset) -> float:
    """Exhaustive Cheeger constant of the Cayley multigraph (n <= 24).

    Each generator z contributes the n edges {g, g+z} (doubled when z = -z),
    so the graph is 2k-regular.  Scans every subset A with 1 <= |A| <= n/2.
    """
    n = group.n
    if n > CHEEGER_MAX_N:
        raise ValueError(f"exhaustive Cheeger scan capped at n <= {CHEEGER_MAX_N}")
    # shifts[i, g] is the index of g + z_i
    shifts = index_of(group, (element_of(group, np.arange(n)) + Z.generators[:, None])
                      % group.moduli)

    best = math.inf
    chunk = 1 << 18
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int8)
        sizes = bits.sum(axis=1)
        keep = sizes <= n // 2
        if not keep.any():
            continue
        bits = bits[keep]
        sizes = sizes[keep]
        # Each undirected edge {g, g+z} is indexed once by its base vertex g, so
        # the boundary count is #{g : A[g] != A[g+z]} summed over generators.
        crossing = np.zeros(bits.shape[0], dtype=np.int64)
        for perm in shifts:
            crossing += (bits != bits[:, perm]).sum(axis=1)
        best = min(best, float((crossing / (2.0 * Z.k * sizes)).min()))
    return best
