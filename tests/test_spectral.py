import functools
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_cutoff import entropic, experiments, spectral
from cayley_cutoff.groups import (GeneratorMultiset, element_of, index_of,
                                  make_group, replicate_rng, sample_generators)
from cayley_cutoff.spectral import (ROW_TOL, HeatKernelRow,
                                    ImaginaryResidueError, SpectralData, _dft,
                                    _invariant_characters, cheeger_bounds,
                                    cheeger_exact, eigenvalues,
                                    gap_summary, heat_kernel_row, l2_bound,
                                    tv_exact)

from conftest import (add, chirp_phases, chirp_z_unfused, dense_transition, exact_sum,
                      full_spectrum_row, heat_kernel_row_unfused, invariant_characters_oracle, neg,
                      staged, tv_from_uniform, unfused_chirp_plan, uniformized_row, zero)

EPS = np.finfo(float).eps


def _instance(moduli, gens):
    g = make_group(moduli)
    Z = GeneratorMultiset(np.array(gens))
    return g, Z


def test_eigenvalues_z4_hand_values():
    g, Z = _instance([4], [(1,)])
    lam = eigenvalues(g, Z, "undirected").eigenvalues
    assert np.allclose(lam, [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError, match="unknown model 'bogus'"):
        eigenvalues(g, Z, "bogus")


def test_eigenvalues_subgroup_generator_disconnected():
    g, Z = _instance([6], [(2,)])
    spec = eigenvalues(g, Z, "undirected")
    assert abs(spec.eigenvalues[3] - 1.0) < 1e-15  # character x=3 fixed by {0,2,4}
    assert not gap_summary(spec).connected


def _character_sum_oracle(group, Z, model):
    """(1/k) sum_i of chi_x(z_i), one generator at a time, with each phase
    x.z_i in Q/Z reduced exactly in integers to r/L, L = lcm(m), before the
    single float division."""
    lcm = math.lcm(*group.moduli)
    coords = np.indices(group.moduli).reshape(group.d, -1)
    acc = np.zeros(group.n, dtype=complex)
    for z in Z.generators:
        r = np.zeros(group.n, dtype=np.int64)
        for xj, zj, m in zip(coords, z, group.moduli):
            r = (r + (xj * zj % m) * (lcm // m)) % lcm
        theta = 2.0 * np.pi * (r / lcm)
        acc += np.exp(1j * theta) if model == "directed" else np.cos(theta)
    return acc / Z.k


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("moduli", [[997], [6], [12, 18], [4, 6, 10], [3, 3, 5]])
def test_eigenvalues_match_character_sum_oracle(model, moduli):
    g = make_group(moduli)
    drawn = sample_generators(g, 6, replicate_rng(16, len(moduli))).generators
    # a repeated generator and the zero generator
    Z = GeneratorMultiset(np.array([*drawn, drawn[0], (0,) * g.d]))
    lam = eigenvalues(g, Z, model).eigenvalues
    assert lam.dtype == complex and lam.shape == (g.n,) and lam[0] == 1.0
    assert np.abs(lam - _character_sum_oracle(g, Z, model)).max() <= 1e-12


def test_invariant_characters_exact_beyond_int64():
    m = 3 ** 29  # x * z below reaches ~5e26, past the int64 range
    g = make_group([m])
    x = np.array([3 ** 28, 3 ** 28 + 1])
    z = 3 * (3 ** 27 + 1)
    for gen, expected in (((z,), [3 ** 28]), ((z + 1,), [])):
        assert _invariant_characters(g, np.array((gen,)), x).tolist() == expected


@pytest.mark.parametrize("block", [spectral.INVARIANT_BLOCK, 7])
@pytest.mark.parametrize("moduli,k,even,invariant", [
    ((100003,), 40, False, 1),          # connected: only x = 0 is invariant
    ((4, 9, 25), 6, False, 1),
    ((2,) * 16, 5, False, 2 ** 11),     # disconnected
    ((6, 6), 4, True, 12),              # generators in 2G span only 3 elements
    ((12,), 30, True, 2),               # many repeated generators
    ((6, 6), 10 ** 5, True, 4),         # each of the 9 elements of 2G ~10^4 times
])
def test_invariant_characters_match_loop_oracle(monkeypatch, moduli, k, even, invariant,
                                                block):
    monkeypatch.setattr(spectral, "INVARIANT_BLOCK", block)
    g = make_group(moduli)
    gens = sample_generators(g, k, replicate_rng(21, k)).generators
    Z = GeneratorMultiset(gens - gens % 2 if even else gens)
    for candidates in (np.arange(0, g.n, 1 if g.n <= 10 ** 4 else 97),
                       np.arange(0), np.array([0])):
        got = _invariant_characters(g, Z.generators, candidates)
        assert got.tolist() == invariant_characters_oracle(g, Z, candidates).tolist()
    lam = eigenvalues(g, Z, "undirected").eigenvalues
    found = np.flatnonzero(lam == 1.0)
    assert found.size == invariant
    assert found.tolist() == invariant_characters_oracle(g, Z, np.arange(g.n)).tolist()


def test_gap_below_float_resolution_stays_connected():
    # lambda_1 = 1 - (1 - cos(2 pi / 2^22)) / 40001 rounds to 1.0 in floats
    g = make_group([2 ** 22])
    Z = GeneratorMultiset(np.array(((1,),) + ((0,),) * 40000))
    gaps = gap_summary(eigenvalues(g, Z, "undirected"))
    assert gaps.connected and gaps.gamma > 0.0 and gaps.t_rel < math.inf


def _generates_group(group, Z):
    """Breadth-first closure of {0} under adding generators."""
    seen = {zero(group)}
    frontier = [zero(group)]
    while frontier:
        nxt = []
        for x in frontier:
            for z in Z.generators:
                y = add(group, x, z)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == group.n


def test_connectivity_is_exact_and_model_free():
    cases = [[6], [12], [2, 4], [3, 3], [4, 6], [2, 2, 2]]
    for rep, moduli in enumerate(cases):
        g = make_group(moduli)
        for k in (1, 2, 3):
            for r in range(8):
                Z = sample_generators(g, k, replicate_rng(100 + rep, 10 * k + r))
                expected = _generates_group(g, Z)
                for model in ("undirected", "directed"):
                    gaps = gap_summary(eigenvalues(g, Z, model))
                    assert gaps.connected == expected
                    assert (gaps.gamma == 0.0) == (gaps.t_rel == math.inf)
                    assert (gaps.gamma > 0.0) == gaps.connected


@pytest.mark.parametrize("model", ["undirected", "directed"])
def test_eigenvalue_invariants_random(model):
    g = make_group([12, 5])
    Z = sample_generators(g, 7, replicate_rng(10, 0))
    spec = eigenvalues(g, Z, model)
    lam = spec.eigenvalues
    assert lam[0] == 1.0
    assert np.abs(lam).max() <= 1 + 1e-12
    if model == "undirected":
        assert np.abs(lam.imag).max() <= 1e-12
    # lambda at -x vs lambda at x
    for i in range(g.n):
        j = index_of(g, neg(g, element_of(g, i)))
        if model == "undirected":
            assert abs(lam[i] - lam[j]) < 1e-12
        else:
            assert abs(lam[i] - np.conj(lam[j])) < 1e-12


@pytest.mark.parametrize("shape", [(101,), (32749,), (1024,), (101, 12),
                                   (8, 9), (4, 9, 25), (101, 2, 6)])
def test_dft_is_numpy_fftn_bit_for_bit(shape):
    rng = replicate_rng(19, 0)
    counts = rng.integers(0, 5, size=shape)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for a in (counts, z):
        assert np.array_equal(_dft(staged(a)), np.fft.fftn(a))
        assert np.array_equal(_dft(staged(a), inverse=True), np.fft.ifftn(a, norm="forward"))


def _bits(a: np.ndarray) -> np.ndarray:
    """The float64 words of a complex array, so that a sign of zero counts."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("shape, axes", [
    *(((p,), (0,)) for p in (2, 3, 101, 1009, 16411, 32749)),  # primes below CHIRP_AXIS
    *(((m,), (0,)) for m in (12, 1024, 27720, 10 ** 6)),        # 11-smooth lengths
    ((4, 9, 25), (0, 1, 2)), ((1024, 1024), (0, 1)),
    (100003, (0, 1)), (10 ** 6 + 3, (0, 1)),                    # the four-step's batches
])
def test_numpy_fft_is_scipy_fft_bit_for_bit(shape, axes):
    """numpy's pocketfft gives scipy's bits, forward and `norm="forward"`
    inverse, along each axis: the transforms `_dft` and the four-step run.  An
    int shape is the four-step's (n1, n2) buffer at that length: its columns
    (axis 0) and rows (axis 1)."""
    from scipy import fft

    if isinstance(shape, int):
        plan = spectral._chirp_plan(shape)
        shape = (plan.n1, plan.n2)
        spectral._chirp_plan.cache_clear()
    rng = replicate_rng(45, 0)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for axis in axes:
        for ours, theirs, norm in ((np.fft.fft, fft.fft, "backward"),
                                   (np.fft.ifft, fft.ifft, "forward")):
            got = ours(z, axis=axis, norm=norm)
            assert np.array_equal(_bits(got), _bits(theirs(z, axis=axis, norm=norm, workers=2)))


def test_four_step_column_leaves_are_thread_count_free(monkeypatch):
    """`_four_step`'s column leaves give the same bits on 1 and on 2 threads,
    alone and as the convolution with the plan's kernel: each column is
    transformed whole, whichever thread takes its leaf."""
    spectral._chirp_plan.cache_clear()
    plan = spectral._chirp_plan(100003)
    assert len(spectral._leaves(plan.n2, plan.n1)) > 1
    rng = replicate_rng(46, 0)
    z = rng.normal(size=(plan.n1, plan.n2)) + 1j * rng.normal(size=(plan.n1, plan.n2))
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "_fft_workers", lambda w=workers: w)
        out = []
        for kernel in (None, plan.kernel):
            v = z.copy()
            spectral._four_step(plan, v, kernel)
            out.append(_bits(v))
        outputs.append(out)
    spectral._chirp_plan.cache_clear()
    assert all(np.array_equal(x, y) for x, y in zip(*outputs))


def test_next_fast_len_is_scipys():
    """`_next_fast_len` is scipy's `next_fast_len` up to 2 10^4, past every
    target the plan's split search passes it up to n = 10^7 + 19 (all below
    9000), so no split moves."""
    from scipy import fft

    assert all(spectral._next_fast_len(t) == fft.next_fast_len(t) for t in range(1, 20001))


@pytest.mark.parametrize("shape, chirp_axis", [((262147,), None), ((101,), 101),
                                               ((100003,), 100003), ((32822,), None)])
def test_chirp_z_matches_numpy(monkeypatch, shape, chirp_axis):
    """`_dft` on the four-step Bluestein path, forward and inverse, against
    numpy's transform of the same input in long double.

    The bound is c eps log2(N), first order in u = eps / 2, with c derived, not
    fitted.  A table entry (chirp or twiddle factor) comes from an exact integer
    phase in (-pi, pi] by three roundings and one sin/cos: within (3 pi + 1) u
    <= 11u.  A complex product is within sqrt(2) gamma_2 <= 3u (Higham 2002,
    Lemma 3.5).  A length-N transform is within eta per butterfly level, eta =
    mu + gamma_4 (sqrt(2) + mu) <= 7u with twiddles good to mu = u (Thm 24.2);
    the four-step's sub-transforms have log2(N) levels between them, and its
    twiddle stage (two table entries, two products) adds 28u, so one transform
    is within T = (7 log2 N + 28) u.  The three length-N transforms (the
    input's, the inverse, the kernel's), the three pointwise products (chirp
    in, kernel, chirp out) and the tables then give, in relative 2-norm:

        input chirp 14u, forward T, kernel 11u + T + u (the chirp table, its
        transform, the division by N), kernel product 3u, inverse T: each
        scaled by at most the kernel's peak gain kappa = max|DFT b| / sqrt(m);
        output chirp 14u, not scaled.

    Total kappa (21 log2 N + 113) u + 14u.  With kappa <= 3 (asserted below;
    the chirp's DFT is a Fresnel sum of size about sqrt(2m)) and log2 N >= 7:
    113 <= 16.2 log2 N and 14 <= 2 log2 N, so the error is below
    114 u log2 N = 57 eps log2 N.  The long double reference adds 2^-64 scale
    terms, which the first-order slack covers.
    """
    if chirp_axis:
        monkeypatch.setattr(spectral, "CHIRP_AXIS", chirp_axis)
    rng = replicate_rng(37, 0)
    counts = rng.integers(0, 5, size=shape)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for a in (counts, z):
        for inverse in (False, True):
            got = _dft(staged(a), inverse=inverse)
            ref = (np.fft.ifft(a.astype(np.clongdouble), norm="forward") if inverse
                   else np.fft.fft(a.astype(np.clongdouble)))
            plan = spectral._chirp_plan(a.size)
            big_n = plan.n1 * plan.n2
            kappa = np.abs(plan.kernel).max() * big_n / math.sqrt(a.size)
            assert big_n >= 2 * a.size - 1 and math.log2(big_n) >= 7 and kappa <= 3
            err = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
            assert err <= 57 * EPS * math.log2(big_n)
    # the result is the array transformed, in the kept buffer
    work = staged(z)
    assert _dft(work) is work and work.base is spectral._chirp_plan(z.size).scratch.buf


@pytest.mark.parametrize("m, chirp_axis", [(262147, None), (100003, 100003), (32822, None)])
def test_chirp_z_matches_unfused_passes(monkeypatch, m, chirp_axis):
    """The fused row steps and the threaded leaves of `_chirp_z` and its plan
    give the bits of the whole-buffer passes they replaced, forward and inverse."""
    if chirp_axis:
        monkeypatch.setattr(spectral, "CHIRP_AXIS", chirp_axis)
    spectral._chirp_plan.cache_clear()
    plan = spectral._chirp_plan(m)
    oracle = unfused_chirp_plan(plan, m)
    assert np.array_equal(plan.chirp, oracle.chirp)
    assert np.array_equal(plan.kernel, oracle.kernel)
    rng = replicate_rng(39, 0)
    z = rng.normal(size=m) + 1j * rng.normal(size=m)
    for inverse in (False, True):
        assert np.array_equal(_dft(staged(z), inverse),
                              chirp_z_unfused(oracle, z.copy(), inverse))
    spectral._chirp_plan.cache_clear()


@pytest.mark.parametrize("m", [100003, 32822])
def test_chirp_plan_holds_half_of_each_table(monkeypatch, m):
    """At an odd prime and at an even m = 2 * 16411 that is not 11-smooth, the
    plan keeps c_j for j <= m // 2 and kernel rows 0 .. n1 // 2; the full
    chirp read through the mirror c_{m-j} = c_j is the integer-phase chirp bit
    for bit, and a Bluestein chirp.  The build allocates nothing past the
    plan's tables and the buffer it is transformed in but its leaves'
    scratch: no full-length chirp (16 m bytes) or kernel.  The build runs on
    one thread: each thread's broadcast twiddle product takes a numpy buffer
    of up to 8192 complex values (128 KiB), and two of them at once would
    fill the 8 m bytes at m = 32822 whenever the threads overlap."""
    monkeypatch.setattr(spectral, "_fft_workers", lambda: 1)
    spectral._chirp_plan.cache_clear()
    tracing = tracemalloc.is_tracing()  # a caller's tracing is left on
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = spectral._chirp_plan(m)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert plan.chirp.shape == (m // 2 + 1,)
    assert plan.kernel.shape == (plan.n1 // 2 + 1, plan.n2)
    held = sum(a.nbytes for a in (plan.chirp, plan.kernel, plan.twiddle_hi,
                                  plan.twiddle_lo, plan.buffer()))
    assert peak - held < 8 * m
    phase = chirp_phases(m)
    phase[phase > m] -= 2 * m
    h = plan.chirp.size
    full = np.concatenate([plan.chirp, plan.chirp[m - h:0:-1]])
    assert np.array_equal(full, np.exp(-2j * np.pi * (phase / (2 * m))))
    j = np.arange(8)  # Bluestein's identity c_j c_k conj c_{k-j} = w^{jk}, c_{-i} = c_{m-i}
    bluestein = full[j, None] * full[j] * np.conjugate(full[j - j[:, None]])
    assert np.allclose(bluestein, np.exp(-2j * np.pi * np.outer(j, j) / m), rtol=0, atol=1e-12)
    spectral._chirp_plan.cache_clear()


def test_chirp_buffer_is_reused_per_thread():
    """Two `_dft` calls on one thread run in one convolution buffer, another
    thread gets its own, and a reused buffer, even one left holding NaN, gives
    the bits of a fresh one.  A result kept (`keep`) is a fresh array, never
    the buffer, and the buffers go with their plan when the cache evicts it.
    The buffers are watched through weak references: a strong one would make
    the next transform take a fresh buffer."""
    m = 100003
    rng = replicate_rng(44, 0)
    z = rng.normal(size=m) + 1j * rng.normal(size=m)
    spectral._chirp_plan.cache_clear()
    fresh = _dft(staged(z), keep=True)
    plan = spectral._chirp_plan(m)
    buf = weakref.ref(plan.buffer())
    buf()[...] = np.nan
    again = _dft(staged(z), keep=True)
    assert spectral._chirp_plan(m) is plan and plan.buffer() is buf()
    assert np.array_equal(again, fresh) and not np.shares_memory(again, buf())
    other = {}

    def run():
        other["out"] = _dft(staged(z), keep=True)
        other["buf"] = weakref.ref(spectral._chirp_plan(m).buffer())

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert other["buf"]() is not buf() and np.array_equal(other["out"], fresh)
    held = [buf, other.pop("buf")]
    del plan
    spectral._chirp_plan(101)  # evicts the plan for m
    spectral._chirp_plan.cache_clear()
    assert [ref() for ref in held] == [None, None]


def test_kept_rows_are_never_overwritten():
    """At Z_100003, on the four-step route, the rows of two successive
    `heat_kernel_row` calls, kept through a third transform, each equal a
    fresh recomputation (copied beforehand) bit for bit and share no memory:
    a row is a view of a convolution buffer, and a buffer something still
    references is not handed out again.  Once both rows are dropped, the next
    transform runs in the buffer kept with the plan.  On the main thread and
    on a replicate thread (`_fft_workers() == 1`), each with its own buffer."""
    g = make_group([100003])
    spec = eigenvalues(g, sample_generators(g, 14, replicate_rng(45, 0)), "directed")
    plan = spectral._plan(g.n)
    pairs = [(0.5, 2.0), (1.0, 4.0)]

    def check():
        want = [heat_kernel_row(spec, t).probs.copy() for t in pairs]
        first, second = (heat_kernel_row(spec, t) for t in pairs)
        heat_kernel_row(spec, 3.0)
        kept = [np.array_equal(row.probs, w) for row, w in zip((first, second), want)]
        apart = not np.shares_memory(first.probs, second.probs)
        del first, second
        buf = weakref.ref(plan.buffer())
        again = heat_kernel_row(spec, pairs[0])
        reused = buf() is not None and np.shares_memory(again.probs, buf())
        return [*kept, apart, reused, np.array_equal(again.probs, want[0])]

    assert check() == [True] * 5
    other = {}
    thread = threading.Thread(target=lambda: other.update(result=check()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and other["result"] == [True] * 5
    spectral._chirp_plan.cache_clear()


class _LowCount:
    """`sys` as `spectral` sees it, with `getrefcount` reading `by` below the truth."""

    def __init__(self, by: int):
        self.by = by

    def getrefcount(self, x) -> int:
        return sys.getrefcount(x) - self.by


def test_kept_rows_survive_a_reference_count_that_reads_lower(monkeypatch):
    """`_ChirpPlan.buffer` assumes no interpreter's reference count.  With
    `sys.getrefcount` reading one lower, as where loads borrow references
    (CPython 3.14), `test_kept_rows_are_never_overwritten` still holds on the
    main thread and on a replicate thread: no kept row at Z_100003 is
    overwritten, and an idle buffer is still reused."""
    probe = object()
    extra = _LowCount(0).getrefcount(probe) - sys.getrefcount(probe)  # the method's own
    low = _LowCount(extra + 1)
    assert low.getrefcount(probe) == sys.getrefcount(probe) - 1
    spectral._chirp_plan.cache_clear()
    monkeypatch.setattr(spectral, "sys", low)
    test_kept_rows_are_never_overwritten()


@pytest.mark.parametrize("model", ["undirected", "directed"])
def test_stage_peaks_stay_beside_the_kept_buffer(monkeypatch, model):
    """At n = 100003, with the plan and this thread's buffer warm, a row pair
    peaks less than 16 n bytes (one complex row) above the traced size at
    entry: its weights are written into the kept buffer and the row is a view
    of it.  `eigenvalues` peaks less than 8 n bytes above that and the
    spectrum it returns: the int64 histogram is written into the buffer and
    freed before the spectrum is allocated, and its near-1 scan takes one
    float row of scratch.  On one thread, as on a replicate thread, so that
    no two leaf runs hold scratch at once."""
    n = 100003
    monkeypatch.setattr(spectral, "_fft_workers", lambda: 1)
    g = make_group([n])
    Z = sample_generators(g, 14, replicate_rng(46, 0))
    spectral._chirp_plan.cache_clear()
    heat_kernel_row(eigenvalues(g, Z, model), (0.5, 2.0))  # warms the plan and buffer
    tracing = tracemalloc.is_tracing()  # a caller's tracing is left on
    if not tracing:
        tracemalloc.start()

    def peak_above_entry(stage):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = stage()
        return result, tracemalloc.get_traced_memory()[1] - before

    try:
        spec, peak = peak_above_entry(lambda: eigenvalues(g, Z, model))
        assert peak - spec.eigenvalues.nbytes < 8 * n
        row, peak = peak_above_entry(lambda: heat_kernel_row(spec, (0.5, 2.0)))
        assert peak < 16 * n
    finally:
        if not tracing:
            tracemalloc.stop()
        spectral._chirp_plan.cache_clear()
    assert np.array_equal(row.probs, heat_kernel_row_unfused(spec, (0.5, 2.0)))


def test_chirp_z_output_is_thread_count_free(monkeypatch):
    """Spectra, row pairs, their TV, `l2_bound` at two times and a multi-axis
    `_dft` are the same on 1, 2 and 3 threads (3 oversubscribes a 2-core host),
    whose runs of leaves differ (one run on 1): at 262147 (the
    four-step Bluestein) and on a directed d = 3 group whose largest modulus,
    the axis the weights are split along, is not axis 0."""
    instances = []
    for moduli in ([262147], [2, 131101, 3]):
        g = make_group(moduli)
        instances.append((g, sample_generators(g, 14, replicate_rng(38, 0))))
    rng = replicate_rng(38, 1)
    a = rng.normal(size=(3, 512, 384)) + 1j * rng.normal(size=(3, 512, 384))
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over often, so a lost write would show
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(spectral, "_fft_workers", lambda w=workers: w)
            spectral._chirp_plan.cache_clear()  # the kernel is transformed with them too
            out = [_dft(staged(a))]
            for g, Z in instances:
                spec = eigenvalues(g, Z, "directed")
                row = heat_kernel_row(spec, (1.0, 6.0))
                out += [spec.eigenvalues, row.probs, tv_exact(row),
                        l2_bound(spec, 1.0), l2_bound(spec, 6.0)]
            outputs.append(out)
    finally:
        sys.setswitchinterval(interval)
        spectral._chirp_plan.cache_clear()
    assert np.array_equal(outputs[0][0], np.fft.fftn(a))
    for out in outputs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(outputs[0], out))


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 2 ** 18 - 1, 262147, 10 ** 6 + 3])
def test_tree_sum_is_numpy_sum_bit_for_bit(n):
    """Leaf sums of `_tree_sum`'s leaves, added by `_tree_sum`, give `np.add.reduce`'s
    bits: on the strided rows of a packed (n, 2) pair, as `heat_kernel_row`
    reads them, and on a contiguous row, at ROW_BLOCK leaves and smaller."""
    rng = replicate_rng(41, 0)
    pair = rng.random((n, 2)) * rng.choice([1e-8, 1.0, 1e8], size=(n, 2))
    for leaf in (128, 2 ** 12, spectral.ROW_BLOCK):
        leaves = spectral._tree_sum(lambda lo, hi: [(lo, hi)], n, leaf)
        assert leaves[0][0] == 0 and leaves[-1][1] == n
        assert all(hi == lo2 and hi % 8 == 0 and 0 < hi - lo <= leaf
                   for (lo, hi), (lo2, _) in zip(leaves, leaves[1:]))
        for r in (*pair.T, pair[:, 0].copy()):
            got = spectral._tree_sum(lambda lo, hi: np.add.reduce(r[lo:hi]), n, leaf)
            assert got.hex() == np.add.reduce(r).hex()


@pytest.mark.parametrize("m, unit", [
    (1, 1), (2 ** 16, 1), (65551, 1), (100003, 1), (131101, 1), (2 ** 18 - 1, 1), (2 ** 18, 1),
    (262147, 1), (10 ** 6 + 3, 1), (36, 4096), (64, 4160), (1400, 1458), (64, 2 ** 12),
    (65, 2 ** 12), (17, 2 ** 20), (10 ** 5, 2 ** 16),
])
def test_leaves_cover_the_pass_by_size_alone(monkeypatch, m, unit):
    """`_leaves(m, unit)` is a contiguous cover of [0, m) whose bounds but the
    last are multiples of 8, each leaf within ROW_BLOCK elements or 16 items,
    so a pass of at most ROW_BLOCK elements is one leaf.  It is the same on 1
    and 2 threads, and it ends for units of ROW_BLOCK // 16 and more, where the
    floor of 16 items is the leaf size."""
    got = []
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "_fft_workers", lambda w=workers: w)
        got.append(spectral._leaves(m, unit))
    leaves = got[0]
    assert got[1] == leaves
    if m * unit <= spectral.ROW_BLOCK:
        assert leaves == [(0, m)]
    assert leaves[0][0] == 0 and leaves[-1][1] == m
    assert all(hi == lo2 and hi % 8 == 0 for (_, hi), (lo2, _) in zip(leaves, leaves[1:]))
    assert all(0 < hi - lo and ((hi - lo) * unit <= spectral.ROW_BLOCK or hi - lo <= 16)
               for lo, hi in leaves)


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("moduli", [(262147,), (64, 65, 127), (12,), (101,), (8, 10),
                                    (6, 4, 10), (4, 9, 25), (3,) * 6])
def test_row_pair_matches_whole_array_passes(monkeypatch, moduli, model):
    """Rows of the leafwise fill and epilogue, their TV and `l2_bound` are the
    bits of whole-array passes on one thread (`heat_kernel_row_unfused`,
    `math.fsum` of the masked excess, the `l2_bound` formula), on 1, 2 and 3
    threads.  Groups below LONG_AXIS run with ROW_BLOCK at 128, so that their
    passes over the row split into leaves too (their weights, at most 16 slab
    planes, stay one leaf), and with CHIRP_AXIS at 64, so that (101,) takes the
    four-step Bluestein route of `_dft`; (64, 65, 127), 64 slab planes of 4160
    elements, splits the weights at the floor of 16 planes.  Odd and even slab
    axes, d = 1..6, and times whose rows clamp.  The spectrum runs as drawn and
    with 1e-12 of imaginary noise, which makes it complex and not exactly
    Hermitian, so a misplaced mirror plane shows."""
    g = make_group(moduli)
    if g.n < experiments.LONG_AXIS:
        monkeypatch.setattr(spectral, "CHIRP_AXIS", 64)
        monkeypatch.setattr(spectral, "ROW_BLOCK", 128)
    spec = eigenvalues(g, sample_generators(g, 6, replicate_rng(43, len(moduli))), model)
    noise = 1e-12j * (replicate_rng(43, 9).random(g.n) - 0.5)
    noise[0] = 0
    u = 1.0 / g.n
    for spec in (spec, SpectralData(group=g, eigenvalues=spec.eigenvalues + noise)):
        l2 = {s: 0.5 * math.sqrt(float(np.exp(-2.0 * s * (1.0 - spec.eigenvalues.real[1:])).sum()))
              for s in (0.3, 4.0)}
        for t in (0.3, (0.05, 4.0), (0.0, 2.0), (2.0, 0.0)):
            want = heat_kernel_row_unfused(spec, t)
            tvs = [math.fsum(p - u for p in r.tolist() if p > u) for r in want]
            for workers in (1, 2, 3):
                monkeypatch.setattr(spectral, "_fft_workers", lambda w=workers: w)
                row = heat_kernel_row(spec, t)
                assert np.array_equal(np.atleast_2d(row.probs), want), (workers, t)
                assert np.atleast_1d(tv_exact(row)).tolist() == tvs
                assert [l2_bound(spec, s) for s in l2] == list(l2.values())
                assert l2_bound(spec, list(l2)) == list(l2.values())


def _hand_spectrum(lam):
    lam = np.asarray(lam, dtype=complex)
    return SpectralData(group=make_group([lam.size]), eigenvalues=lam)


def test_heat_kernel_row_guards():
    # lambda_1 != conj(lambda_7): the row picks up an imaginary part.
    spec = _hand_spectrum([1.0, 0.5, 0, 0, 0, 0, 0, 0])
    held = spec.eigenvalues.copy()
    with pytest.raises(ImaginaryResidueError):
        heat_kernel_row(spec, 1.0)
    assert np.array_equal(spec.eigenvalues, held)
    # lambda_1 = 2 > 1: P_1(0, 1) = (1 - e)/2, far below -ROW_TOL.
    spec = _hand_spectrum([1.0, 2.0])
    assert (1 - math.e) / 2 < -ROW_TOL
    with pytest.raises(ValueError, match="negative probability"):
        heat_kernel_row(spec, 1.0)
    assert np.array_equal(spec.eigenvalues, [1.0, 2.0])
    # lambda_0 = 0.5 < 1: the row keeps mass e^{-1/2} at t = 1.
    spec = _hand_spectrum([0.5, 0.5])
    with pytest.raises(ValueError, match=r"row mass 0\.6065"):
        heat_kernel_row(spec, 1.0)


@pytest.mark.parametrize("t", [1.0, (1.0, 0.5), (0.5, 1.0), (0.0, 1.0)])
def test_overflowing_row_still_raises(t):
    """A Hermitian spectrum with lambda_{+-1} = 800 overflows the weights at
    t = 1 and the raw row holds inf and NaN.  The row is scaled by 1/n as a
    real multiply of its floats, which differs from numpy's complex division by
    n exactly there (an infinite part beside a finite one), and a guard still
    rejects the row."""
    spec = _hand_spectrum([1.0, 800.0, 0.5, 800.0])
    times = [float(s) for s in np.atleast_1d(t)]
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _dft(spectral._packed_weights(spec, times))
        scaled = (raw.view(float) * (1.0 / 4)).view(complex)
        assert not np.array_equal(raw / 4, scaled, equal_nan=True)
        with pytest.raises(ValueError, match="negative probability"):
            heat_kernel_row(spec, t)


def test_threaded_row_guards_match_serial(monkeypatch):
    """At n >= LONG_AXIS on 2 threads, the guards of `heat_kernel_row` raise
    the serial path's ValueError text, in its order (row 0's min, then its
    mass, then row 1's), and leave no pool work running."""
    n = 262147
    negative = np.zeros(n)
    negative[[0, 1, -1]] = 1.0, 2.0, 2.0  # lambda_{+-1} = 2: P_1(0, n/2) ~ -4.1/n
    leaking = np.zeros(n)
    leaking[0] = 0.5  # the row keeps mass e^{-t/2}
    both = negative.copy()
    both[0] = 0.5
    # the row at t = 1 fails first wherever it sits
    cases = [(lam, t) for lam in (negative, leaking, both)
             for t in (1.0, (1.0, 2.0), (0.0, 1.0), (1.0, 0.0))]
    texts = {}
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "_fft_workers", lambda w=workers: w)
        heat_kernel_row(eigenvalues(make_group([n]), GeneratorMultiset(np.array([[1]])),
                                    "undirected"), (1.0, 2.0))  # builds the pool
        threads = threading.active_count()
        for lam, t in cases:
            with pytest.raises(ValueError) as raised:
                heat_kernel_row(_hand_spectrum(lam), t)
            texts.setdefault(workers, []).append(str(raised.value))
        assert threading.active_count() == threads
        if workers > 1:
            assert spectral._pool(workers)._work_queue.empty()
    assert texts[1] == texts[2]
    negatives, leaks, boths = texts[1][:4], texts[1][4:8], texts[1][8:]
    assert len(set(negatives)) == 1 and negatives[0].startswith("negative probability -1.5")
    assert all(text.startswith("row mass 0.6065") for text in leaks)
    assert all(text.startswith("negative probability") for text in boths)


@pytest.mark.parametrize("pair", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.25), (0.25, 1.0)])
def test_paired_row_guard_reads_the_spectrum(pair):
    # Packing mixes each row's imaginary residue into the other row, so a
    # non-Hermitian spectrum must raise whichever slot holds which time.
    spec = _hand_spectrum([1.0, 0.5, 0, 0, 0, 0, 0, 0])
    held = spec.eigenvalues.copy()
    with pytest.raises(ImaginaryResidueError):
        heat_kernel_row(spec, pair)
    assert np.array_equal(spec.eigenvalues, held)


def test_residue_bound_counts_eigenvalues_above_one():
    # Re lambda_1 = 1.5 stretches the exponential: at t = 1.6 the unpacked row's
    # residue is 0.5 e^{0.8} sin(1.6e-9) = 1.8e-9 > ROW_TOL, while the spread
    # term alone reads 0.8e-9.
    spec = _hand_spectrum([1.0, 1.5 + 1e-9j])
    assert 0.5 * math.exp(0.8) * math.sin(1.6e-9) > ROW_TOL > 0.8e-9
    for t in (1.6, [1.6, 0.0], [0.5, 1.6]):
        with pytest.raises(ImaginaryResidueError):
            heat_kernel_row(spec, t)


def _mirror_index(group):
    """Index of -x for every element index x, one element at a time."""
    return _mirror_index_of(group.moduli)


@functools.lru_cache(maxsize=None)
def _mirror_index_of(moduli):
    group = make_group(moduli)
    index = np.array([index_of(group, neg(group, element_of(group, x))) for x in range(group.n)])
    index.flags.writeable = False
    return index


@pytest.mark.parametrize("moduli", [(2,) * 10, (3,) * 8, (2, 3, 2, 5, 2, 3, 4, 2)])
def test_residue_terms_match_elementwise_negation(moduli):
    # a perturbed directed spectrum, so lambda_{-x} != conj lambda_x, at d >= 8
    g = make_group(moduli)
    rng = replicate_rng(31, len(moduli))
    lam = eigenvalues(g, sample_generators(g, 5, rng), "directed").eigenvalues.copy()
    lam += 1e-6 * (rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    spec = SpectralData(group=g, eigenvalues=lam)
    minus = index_of(g, -element_of(g, np.arange(g.n)) % g.moduli)
    delta = lam - np.conj(lam[minus])
    want = float(np.abs(delta).mean())
    assert want > 0
    gap = min(1.0 - lam[x].real for x in range(g.n) if delta[x] != 0)
    assert spec._residue_terms == (want, gap)


@given(moduli=st.sampled_from([(12,), (9, 8), (4, 9, 25), (7, 6)]),
       seed=st.integers(0, 10 ** 6), t=st.floats(0.01, 50.0),
       size=st.floats(-12.0, -2.0), spikes=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_residue_bound_never_below_unpacked_residue(moduli, seed, t, size, spikes):
    g = make_group(moduli)
    rng = replicate_rng(seed, 0)
    lam = eigenvalues(g, sample_generators(g, 3, rng), "directed").eigenvalues.copy()
    hit = rng.integers(0, g.n, size=spikes)
    lam[hit] += 10.0 ** size * (rng.normal(size=spikes) + 1j * rng.normal(size=spikes))
    spec = SpectralData(group=g, eigenvalues=lam)
    weights = np.exp(-t * (1.0 - lam)).reshape(moduli)
    residue = np.abs(np.fft.fftn(weights).imag).max() / g.n
    delta = lam - np.conj(lam[_mirror_index(g)])
    drift = np.abs(delta).mean()
    gap = (1.0 - lam.real)[delta != 0].min()

    def bound_at(s):
        return 0.5 * s * math.exp(-s * gap) * drift

    bound = bound_at(t)
    # slack for the rounding of the transform itself, which the bound leaves out
    assert residue <= bound * (1 + 1e-9) + 1e-15
    # the guard reads this bound at both times: it raises above ROW_TOL and only there
    bound = max(bound, bound_at(0.5 * t))
    if bound > ROW_TOL * (1 + 1e-9):
        with pytest.raises(ImaginaryResidueError):
            heat_kernel_row(spec, [t, 0.5 * t])
    elif bound < ROW_TOL * (1 - 1e-9):
        try:
            heat_kernel_row(spec, [t, 0.5 * t])
        except ValueError:  # a perturbed lambda_0 may move the row mass
            pass


def _fill_bound(spec, times):
    """(1/n) sum_x |w_x - conj w_{-x}| summed over the times: no entry of a packed
    raw row moves by more when the upper half of the weights is replaced by
    conj w_{-x}, since each row is (1/n) |DFT| of that change at most."""
    mirror = _mirror_index(spec.group)
    bound = 0.0
    for s in times:
        w = np.exp(-s * (1.0 - spec.eigenvalues))
        bound += float(np.abs(w - np.conj(w[mirror])).sum()) / spec.group.n
    return bound


def _assert_matches_full_spectrum(spec, t):
    times = np.atleast_1d(t)
    got = np.atleast_2d(heat_kernel_row(spec, t).probs)
    want = full_spectrum_row(spec, t)
    fill = _fill_bound(spec, times)
    # The fill leaves w_0, and so the row mass, unchanged; renormalizing moves an
    # entry by at most the fill bound once more for each entry the clamp zeroed
    # in either row.  On top: the rounding of two transforms and a division,
    # four ulps per halving of n.
    rounding = 4 * math.ceil(math.log2(2 * spec.group.n)) * EPS
    for probs, ref, s in zip(got, want, times):
        if s == 0:
            assert np.array_equal(probs, ref)
            continue
        clamped = int(np.count_nonzero((probs == 0) | (ref == 0)))
        assert np.abs(probs - ref).max() <= (1 + clamped) * fill + rounding


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("moduli", [(12,), (101,), (9, 8), (7, 6), (4, 9, 25), (2, 2, 2),
                                    (2,) * 10, (3,) * 8])
def test_half_spectrum_rows_match_full_spectrum_oracle(monkeypatch, moduli, model):
    # odd and even slab axes, d = 1..3; in (2, 2, 2) the slab is the whole group.
    # A 1-D group runs once more with CHIRP_AXIS at its length, so (101,) takes
    # the four-step Bluestein path ((12,) is 11-smooth and stays on pocketfft).
    g = make_group(moduli)
    for chirp_axis in (spectral.CHIRP_AXIS, g.n) if g.d == 1 else (spectral.CHIRP_AXIS,):
        monkeypatch.setattr(spectral, "CHIRP_AXIS", chirp_axis)
        spec = eigenvalues(g, sample_generators(g, 4, replicate_rng(23, len(moduli))), model)
        held = spec.eigenvalues.copy()
        for t in (0.7, 3.0, 40.0, [0.4, 2.5], [2.5, 0.4], [2.5, 0.0], [0.0, 1.2]):
            _assert_matches_full_spectrum(spec, t)
        assert np.array_equal(spec.eigenvalues, held)


@given(moduli=st.sampled_from([(12,), (101,), (9, 8), (4, 9, 25), (7, 6)]),
       seed=st.integers(0, 10 ** 6), t=st.floats(0.01, 50.0),
       size=st.floats(-16.0, -8.0), spikes=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_half_spectrum_rows_stay_within_fill_bound(moduli, seed, t, size, spikes):
    # A non-Hermitian spectrum the guard lets through: the fill changes the
    # weights by sum_x |w_x - conj w_{-x}|, and the rows by no more than that.
    g = make_group(moduli)
    rng = replicate_rng(seed, 0)
    lam = eigenvalues(g, sample_generators(g, 3, rng), "directed").eigenvalues.copy()
    hit = rng.integers(1, g.n, size=spikes)
    lam[hit] += 10.0 ** size * (rng.normal(size=spikes) + 1j * rng.normal(size=spikes))
    spec = SpectralData(group=g, eigenvalues=lam)
    for pair in ([t, 0.5 * t], [0.5 * t, t]):
        try:
            _assert_matches_full_spectrum(spec, pair)
        except ImaginaryResidueError:  # the guard's own test covers this side
            pass
        except ValueError as err:  # a spike can push an empty entry below the clamp
            assert "negative probability" in str(err)


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("moduli", [(12,), (9, 8), (4, 9, 25)])
def test_paired_rows_equal_single_rows(moduli, model):
    g = make_group(moduli)
    spec = eigenvalues(g, sample_generators(g, 4, replicate_rng(21, 0)), model)
    held = spec.eigenvalues.copy()
    for pair in ([0.3, 2.0], [2.0, 0.3], [0.0, 1.5], [1.5, 0.0], [0.0, 0.0], [4.0]):
        row = heat_kernel_row(spec, pair)
        assert row.probs.shape == (len(pair), g.n)
        tvs = tv_exact(row)
        assert len(tvs) == len(pair)
        for probs, tv, t in zip(row.probs, tvs, pair):
            single = heat_kernel_row(spec, t)
            assert np.abs(probs - single.probs).max() < 1e-13
            assert abs(tv - tv_exact(single)) < 1e-13
            if t == 0:
                assert np.array_equal(probs, single.probs)
    assert np.array_equal(spec.eigenvalues, held)
    for bad in ([1.0, 2.0, 3.0], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            heat_kernel_row(spec, bad)
    with pytest.raises(ValueError):
        heat_kernel_row(spec, [1.0, -1.0])


def test_paired_row_counts_every_point():
    # A pair is two rows of n points each: a point count read from
    # `probs.size` must see both.
    g = make_group([101])
    spec = eigenvalues(g, sample_generators(g, 4, replicate_rng(22, 0)), "directed")
    row = heat_kernel_row(spec, (0.5, 3.0))
    assert row.probs.size == 2 * g.n
    assert heat_kernel_row(spec, 0.5).probs.size == g.n


def test_heat_kernel_t0_is_indicator():
    g, Z = _instance([6, 4], [(1, 1), (2, 3)])
    spec = eigenvalues(g, Z, "undirected")
    row = heat_kernel_row(spec, 0.0)
    assert row.probs[0] == 1.0 and row.probs[1:].sum() == 0.0
    with pytest.raises(ValueError):
        heat_kernel_row(spec, -1.0)
    with pytest.raises(ValueError, match="t must be >= 0"):
        l2_bound(spec, -1.0)


@pytest.mark.parametrize("n", [101, 131101])
def test_non_finite_times_and_rows_raise(n):
    """A NaN or infinite time is refused, not turned into an all-zero or all-NaN
    row whose TV reads 0; a NaN eigenvalue makes the row NaN, which the guards
    refuse, on one leaf (101) and on several (131101)."""
    g = make_group([n])
    spec = eigenvalues(g, sample_generators(g, 4, replicate_rng(23, 0)), "directed")
    for t in (math.nan, math.inf, (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            heat_kernel_row(spec, t)
    for t in (math.nan, math.inf, -1.0, [1.0, math.nan], [2.0, 1.0, -1.0]):
        with pytest.raises(ValueError, match=r"t must be >= 0 and finite, got .*(nan|inf|-1\.0)"):
            l2_bound(spec, t)
    lam = spec.eigenvalues.copy()
    lam[5] = math.nan
    for t in (1.0, (1.0, 2.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match="negative probability nan"):
            heat_kernel_row(SpectralData(group=g, eigenvalues=lam), t)


def test_heat_kernel_two_state_closed_form():
    g, Z = _instance([2], [(1,)])
    spec = eigenvalues(g, Z, "undirected")
    for t in (0.1, 0.7, 2.5, 10.0):
        row = heat_kernel_row(spec, t)
        assert abs(row.probs[0] - 0.5 * (1 + math.exp(-2 * t))) < 1e-14
        assert abs(l2_bound(spec, t) - 0.5 * math.exp(-2 * t)) < 1e-14


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_heat_kernel_matches_uniformized_oracle(model, t):
    g, Z = _instance([12], [(1,), (5,)])
    spec = eigenvalues(g, Z, model)
    held = spec.eigenvalues.copy()
    row = heat_kernel_row(spec, t)
    assert np.array_equal(spec.eigenvalues, held)
    oracle = uniformized_row(dense_transition(g, Z, model), t)
    assert np.abs(row.probs - oracle).max() < 1e-10
    assert abs(tv_exact(row) - tv_from_uniform(oracle)) < 1e-10


def test_row_stochastic_on_log_grid():
    g = make_group([9, 8])
    Z = sample_generators(g, 5, replicate_rng(11, 0))
    spec = eigenvalues(g, Z, "undirected")
    for t in np.geomspace(0.01, 100, 12):
        row = heat_kernel_row(spec, float(t))
        assert abs(row.probs.sum() - 1.0) < 1e-12
        assert row.probs.min() >= 0.0


def test_semigroup_convolution():
    g = make_group([10, 7])
    Z = sample_generators(g, 4, replicate_rng(12, 0))
    spec = eigenvalues(g, Z, "undirected")
    t1, t2 = 0.8, 2.3
    p = heat_kernel_row(spec, t1).probs.reshape(g.moduli)
    q = heat_kernel_row(spec, t2).probs.reshape(g.moduli)
    conv = np.fft.ifftn(np.fft.fftn(p) * np.fft.fftn(q)).real.reshape(-1)
    assert np.abs(conv - heat_kernel_row(spec, t1 + t2).probs).max() < 1e-8


def test_tv_exact_boundary_identities():
    g = make_group([123])
    Z = sample_generators(g, 4, replicate_rng(13, 0))
    spec = eigenvalues(g, Z, "undirected")
    assert tv_exact(heat_kernel_row(spec, 0.0)) == 1.0 - 1.0 / g.n
    if gap_summary(spec).connected:
        assert tv_exact(heat_kernel_row(spec, 1e4)) <= 1e-8


def test_tv_exact_matches_elementwise_sum():
    rng = replicate_rng(17, 0)
    for n in (1, 2, 7, 1000, 100003):
        rows = [rng.dirichlet(np.full(n, 0.3)) if n > 1 else np.ones(1), np.full(n, 1.0 / n)]
        rows.append(np.where(np.arange(n) % 7 == 3, np.nan, rows[0]))  # r > u drops NaN
        for probs in rows:
            u = 1.0 / n
            expected = math.fsum(p - u for p in probs.tolist() if p > u)
            assert tv_exact(HeatKernelRow(probs=probs)) == expected


def _fsum_cases():
    rng = replicate_rng(29, 0)
    tie = 2.0 ** -65  # 2^12 of them add 2^-53: half an ulp of 1.0
    return {
        "empty": np.array([]),
        "one": np.array([0.3]),
        "subnormal": rng.integers(1, 2 ** 52, size=999) * 5e-324,
        "subnormal and normal": np.concatenate([rng.integers(1, 2 ** 52, size=500) * 5e-324,
                                                rng.random(500) * 1e-300]),
        "1000+ exponents": np.ldexp(rng.normal(size=5000), rng.integers(-1070, 1000, size=5000)),
        "cancelling": np.concatenate([[1e300, -1e300], rng.normal(size=100) * 1e-200]),
        "tie to even below": np.concatenate([[1.0], np.full(2 ** 12, tie)]),
        "tie to even above": np.concatenate([[1.0 + EPS], np.full(2 ** 12, tie)]),
        "just past tie": np.concatenate([[1.0], np.full(2 ** 12 + 1, tie)]),
    }


def test_exact_sum_is_fsum_bit_for_bit():
    for name, x in _fsum_cases().items():
        got, want = exact_sum(x), math.fsum(x.tolist())
        assert got.hex() == want.hex(), name
    assert exact_sum(_fsum_cases()["tie to even below"]) == 1.0
    assert exact_sum(_fsum_cases()["tie to even above"]) == 1.0 + 2 * EPS
    for n in (1, 2):
        assert tv_exact(HeatKernelRow(probs=np.full(n, 1.0 / n))) == 0.0
    probs = np.stack([replicate_rng(31, j).dirichlet(np.full(1009, 0.3)) for j in range(2)])
    expected = [math.fsum(p - 1 / 1009 for p in r.tolist() if p > 1 / 1009) for r in probs]
    assert tv_exact(HeatKernelRow(probs=probs)) == expected


def test_tv_le_l2_bound_and_monotone():
    g = make_group([101])
    Z = sample_generators(g, 5, replicate_rng(14, 0))
    spec = eigenvalues(g, Z, "undirected")
    prev = math.inf
    for t in np.geomspace(0.05, 500, 40):
        tv = tv_exact(heat_kernel_row(spec, float(t)))
        bound = l2_bound(spec, float(t))
        # the rates are cached per spectrum; the bound is the uncached formula's
        assert bound == 0.5 * math.sqrt(float(
            np.exp(-2.0 * float(t) * (1.0 - spec.eigenvalues.real[1:])).sum()))
        assert tv <= bound + 1e-10
        assert tv <= prev + 1e-9
        prev = tv


def test_l2_bound_floor_when_disconnected():
    g, Z = _instance([6], [(2,)])
    spec = eigenvalues(g, Z, "undirected")
    for t in (0.1, 1.0, 100.0):
        assert l2_bound(spec, t) >= 0.5


def test_gap_mix_sandwich():
    g = make_group([60])
    Z = sample_generators(g, 4, replicate_rng(15, 0))
    spec = eigenvalues(g, Z, "undirected")
    gaps = gap_summary(spec)
    assert gaps.connected
    for t in np.geomspace(0.1, 20 * gaps.t_rel, 25):
        tv = tv_exact(heat_kernel_row(spec, float(t)))
        assert tv >= 0.5 * math.exp(-gaps.gamma * t) - 1e-9
        assert tv <= 0.5 * math.sqrt(g.n) * math.exp(-gaps.gamma * t) + 1e-9


def test_gap_summary_examples():
    g, Z = _instance([4], [(1,)])
    gaps = gap_summary(eigenvalues(g, Z, "undirected"))
    assert abs(gaps.gamma - 1.0) < 1e-15 and abs(gaps.t_rel - 1.0) < 1e-15

    g, Z = _instance([6], [(2,)])
    gaps = gap_summary(eigenvalues(g, Z, "undirected"))
    assert gaps.gamma == 0.0 and not gaps.connected and gaps.t_rel == math.inf

    g, Z = _instance([2], [(1,)])
    gaps = gap_summary(eigenvalues(g, Z, "undirected"))
    assert abs(gaps.gamma - 2.0) < 1e-15 and abs(gaps.gamma_star) < 1e-15


@pytest.mark.parametrize("workers", [1, 2])
def test_gap_summary_leaves_match_whole_array(monkeypatch, workers):
    """`gap_summary`, taken leaf by leaf, gives the whole-array formulas' bits
    on spectra of several leaves: a connected directed walk at 262147, and a
    walk on Z_{2 * 65537} whose generators are all even, so that the invariant
    character n / 2 lies past the first leaf."""
    monkeypatch.setattr(spectral, "_fft_workers", lambda: workers)
    g = make_group([262147])
    specs = [eigenvalues(g, sample_generators(g, 14, replicate_rng(45, 0)), "directed")]
    g = make_group([2 * 65537])
    Z = sample_generators(g, 14, replicate_rng(45, 1))
    specs.append(eigenvalues(g, GeneratorMultiset(Z.generators // 2 * 2), "undirected"))
    for spec, connected in zip(specs, (True, False)):
        lam = spec.eigenvalues[1:]
        assert lam.size > spectral.ROW_BLOCK
        gaps = gap_summary(spec)
        assert gaps.connected == connected == (not np.any(lam == 1.0))
        assert gaps.gamma == (float(np.min(1.0 - lam.real)) if connected else 0.0)
        assert gaps.gamma_star == float(np.min(1.0 - np.abs(lam)))


def test_cheeger_bounds_formulas():
    g, Z = _instance([2], [(1,)])
    gaps = gap_summary(eigenvalues(g, Z, "undirected"))
    assert cheeger_bounds(gaps) == (1.0, 2.0)

    g, Z = _instance([6], [(2,)])
    with pytest.raises(ValueError):
        cheeger_bounds(gap_summary(eigenvalues(g, Z, "undirected")))


def test_cheeger_exact_hand_values():
    g, Z = _instance([2], [(1,)])
    assert cheeger_exact(g, Z) == 1.0
    g, Z = _instance([4], [(1,)])
    assert cheeger_exact(g, Z) == 0.5
    g, Z = _instance([6], [(2,)])
    assert cheeger_exact(g, Z) == 0.0
    g = make_group([5, 5])
    with pytest.raises(ValueError):
        cheeger_exact(g, GeneratorMultiset(np.array(((1, 1),))))


def test_cheeger_bounds_bracket_exact_value():
    cases = [[12], [16], [20], [2, 10], [4, 5], [3, 5]]
    for rep, moduli in enumerate(cases):
        g = make_group(moduli)
        Z = sample_generators(g, 3, replicate_rng(777, rep))
        gaps = gap_summary(eigenvalues(g, Z, "undirected"))
        if not gaps.connected:
            assert cheeger_exact(g, Z) == 0.0
            continue
        lo, hi = cheeger_bounds(gaps)
        phi = cheeger_exact(g, Z)
        assert lo - 1e-12 <= phi <= hi + 1e-12


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("n, split", [
    (262202, (2, 131101)),  # 1-D: four-step Bluestein; split: pocketfft
    (10 ** 4, (16, 625)), (900, (4, 9, 25)), (1001, (7, 11, 13)),
])
def test_isomorphic_labellings_agree(n, split, model):
    """Z_n and its coprime split give the same walk, up to rounding.

    Each generator maps by z -> (z mod m_j)_j, so the two instances are one
    Cayley graph under two labellings: no oracle, only two transform routes.
    With u = eps and L = log2 n, and times t_{-1.5}, t_0, t_{1.5}:
    - connectivity is decided in integers and is identical;
    - each lambda comes from one transform of the generator histogram, error
      O(u L), so the sorted real spectra, gamma and gamma_star agree within u L,
      absolutely (1 - lambda loses relative accuracy when gamma is small);
    - TV agrees within 2 u L, and l2_bound relatively within 8 u L.  Both carry a
      t max|d lambda| term; the times here stay below 30.
    At k = 8 the worst readings over three other seeds were 0.25 u L (spectrum),
    1.5 u (gammas), 0.47 u L (TV) and 2.4 u L (l2_bound).
    """
    k, bar = 8, EPS * math.log2(n)
    cyclic, target = make_group([n]), make_group(split)
    Z = sample_generators(cyclic, k, replicate_rng(8, 0))
    specs = [eigenvalues(cyclic, Z, model),
             eigenvalues(target, GeneratorMultiset(Z.generators % np.array(split)), model)]
    a, b = (gap_summary(spec) for spec in specs)
    assert a.connected == b.connected
    assert abs(a.gamma - b.gamma) <= bar and abs(a.gamma_star - b.gamma_star) <= bar
    ra, rb = (np.sort(spec.eigenvalues.real) for spec in specs)
    assert np.max(np.abs(ra - rb)) <= bar
    for t in entropic.solve_times(n, k, model, (-1.5, 0.0, 1.5)).t_alpha.values():
        tv_a, tv_b = (tv_exact(heat_kernel_row(spec, t)) for spec in specs)
        assert abs(tv_a - tv_b) <= 2 * bar, t
        l2_a, l2_b = (l2_bound(spec, t) for spec in specs)
        assert abs(l2_a / l2_b - 1) <= 8 * bar, t


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("n, c", [(262147, 2), (262147, 12345), (262147, 262146),
                                  (100003, 2), (100003, 12345), (100003, 100002)])
def test_prime_order_automorphism_agrees(n, c, model):
    """Z_n at a prime n with generators z and with c z mod n: the same walk.

    z -> c z is an automorphism of Z_n, so the two instances are one Cayley
    graph under two labellings, and lambda'_x = lambda_{c x}: the same spectrum,
    permuted.  At 262147 both run the four-step Bluestein and the threaded
    passes, at 100003 pocketfft and the serial ones, on inputs that differ by
    that permutation, so only rounding separates them; no oracle is involved.
    With u = eps and L = log2 n, gamma and TV at four times (two row pairs)
    agree within u L absolutely, as for the coprime splits of
    `test_isomorphic_labellings_agree`, and `l2_bound` relatively within
    (1 + t) u L / 4: its exponents carry a t max|d lambda| term.  Over
    replicates 1-4 of seed 8 the worst readings were 0.09 u L (gamma),
    0.31 u L (TV) and 0.054 (1 + t) u L (l2_bound).
    """
    k = 8
    bar = EPS * math.log2(n)
    g = make_group([n])
    Z = sample_generators(g, k, replicate_rng(8, 1))
    specs = [eigenvalues(g, Z, model),
             eigenvalues(g, GeneratorMultiset(Z.generators * c % n), model)]
    a, b = (gap_summary(spec) for spec in specs)
    assert a.connected and b.connected
    assert abs(a.gamma - b.gamma) <= bar
    times = list(entropic.solve_times(n, k, model, (-1.5, -0.5, 0.5, 1.5)).t_alpha.values())
    for pair in (times[:2], times[2:]):
        tv_a, tv_b = (tv_exact(heat_kernel_row(spec, pair)) for spec in specs)
        for t, x, y in zip(pair, tv_a, tv_b):
            assert abs(x - y) <= bar, t
            l2_a, l2_b = (l2_bound(spec, t) for spec in specs)
            assert abs(l2_a / l2_b - 1) <= (1 + t) * bar / 4, t
