import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_cutoff import spectral
from cayley_cutoff.groups import (GeneratorMultiset, element_of, index_of,
                                  make_group, replicate_rng, sample_generators)
from cayley_cutoff.spectral import (ROW_TOL, HeatKernelRow,
                                    ImaginaryResidueError, SpectralData, _dft,
                                    _invariant_characters, cheeger_bounds,
                                    cheeger_exact, eigenvalues,
                                    gap_summary, heat_kernel_row, l2_bound,
                                    tv_exact)

from conftest import (add, dense_transition, invariant_characters_oracle, neg,
                      tv_from_uniform, uniformized_row, zero)


def _instance(moduli, gens):
    g = make_group(moduli)
    Z = GeneratorMultiset(np.array(gens))
    return g, Z


def test_eigenvalues_z4_hand_values():
    g, Z = _instance([4], [(1,)])
    lam = eigenvalues(g, Z, "undirected").eigenvalues
    assert np.allclose(lam, [1.0, 0.0, -1.0, 0.0], atol=1e-15)


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
        Z = GeneratorMultiset(np.array((gen,)))
        assert _invariant_characters(g, Z, x).tolist() == expected


@pytest.mark.parametrize("block", [spectral.INVARIANT_BLOCK, 7])
@pytest.mark.parametrize("moduli,k,even,invariant", [
    ((100003,), 40, False, 1),          # connected: only x = 0 is invariant
    ((4, 9, 25), 6, False, 1),
    ((2,) * 16, 5, False, 2 ** 11),     # disconnected
    ((6, 6), 4, True, 12),              # generators in 2G span only 3 elements
    ((12,), 30, True, 2),               # many repeated generators
])
def test_invariant_characters_match_loop_oracle(monkeypatch, moduli, k, even, invariant,
                                                block):
    monkeypatch.setattr(spectral, "INVARIANT_BLOCK", block)
    g = make_group(moduli)
    gens = sample_generators(g, k, replicate_rng(21, k)).generators
    Z = GeneratorMultiset(gens - gens % 2 if even else gens)
    for candidates in (np.arange(0, g.n, 1 if g.n <= 10 ** 4 else 97),
                       np.arange(0), np.array([0])):
        got = _invariant_characters(g, Z, candidates)
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


@pytest.mark.parametrize("shape", [(101,), (100003,), (1024,), (101, 12),
                                   (8, 9), (4, 9, 25), (101, 2, 6)])
def test_dft_is_numpy_fftn_bit_for_bit(shape):
    rng = replicate_rng(19, 0)
    counts = rng.integers(0, 5, size=shape)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for a in (counts, z):
        held = a.copy()
        assert np.array_equal(_dft(a), np.fft.fftn(held))
        assert np.array_equal(_dft(a, inverse=True), np.fft.ifftn(held, norm="forward"))
        assert np.array_equal(a, held)


def _hand_spectrum(lam):
    lam = np.asarray(lam, dtype=complex)
    return SpectralData(model="directed", group=make_group([lam.size]), k=1, eigenvalues=lam)


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
    return np.array([index_of(group, neg(group, element_of(group, x))) for x in range(group.n)])


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
    spec = SpectralData(model="directed", group=g, k=3, eigenvalues=lam)
    weights = np.exp(-t * (1.0 - lam)).reshape(moduli)
    residue = np.abs(np.fft.fftn(weights).imag).max() / g.n
    drift = np.abs(lam - np.conj(lam[_mirror_index(g)])).mean()
    bound = 0.5 * t * math.exp(t * max(0.0, lam.real.max() - 1.0)) * drift
    # slack for the rounding of the transform itself, which the bound leaves out
    assert residue <= bound * (1 + 1e-9) + 1e-15
    # the guard reads this bound: it raises above ROW_TOL and only there
    if bound > ROW_TOL * (1 + 1e-9):
        with pytest.raises(ImaginaryResidueError):
            heat_kernel_row(spec, [t, 0.5 * t])
    elif bound < ROW_TOL * (1 - 1e-9):
        try:
            heat_kernel_row(spec, [t, 0.5 * t])
        except ValueError:  # a perturbed lambda_0 may move the row mass
            pass


@pytest.mark.parametrize("model", ["undirected", "directed"])
@pytest.mark.parametrize("moduli", [(12,), (9, 8), (4, 9, 25)])
def test_paired_rows_equal_single_rows(moduli, model):
    g = make_group(moduli)
    spec = eigenvalues(g, sample_generators(g, 4, replicate_rng(21, 0)), model)
    held = spec.eigenvalues.copy()
    for pair in ([0.3, 2.0], [2.0, 0.3], [0.0, 1.5], [1.5, 0.0], [0.0, 0.0], [4.0]):
        row = heat_kernel_row(spec, pair)
        assert row.t == tuple(pair) and row.probs.shape == (len(pair), g.n)
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
        for probs in rows:
            u = 1.0 / n
            expected = math.fsum(p - u for p in probs.tolist() if p > u)
            assert tv_exact(HeatKernelRow(t=1.0, probs=probs)) == expected


def test_tv_le_l2_bound_and_monotone():
    g = make_group([101])
    Z = sample_generators(g, 5, replicate_rng(14, 0))
    spec = eigenvalues(g, Z, "undirected")
    prev = math.inf
    for t in np.geomspace(0.05, 500, 40):
        tv = tv_exact(heat_kernel_row(spec, float(t)))
        assert tv <= l2_bound(spec, float(t)) + 1e-10
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
