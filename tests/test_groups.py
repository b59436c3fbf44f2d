import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cayley_cutoff.groups import (GeneratorMultiset, element_levels, element_of, index_of,
                                  make_group, parse_group, replicate_rng, sample_generators)
from conftest import add, dot, neg, zero


def test_make_group_basic():
    g = make_group([6])
    assert g.n == 6 and g.d == 1
    g = make_group([2, 3, 5])
    assert g.n == 30 and g.d == 3


def test_make_group_rejects_small_modulus():
    with pytest.raises(ValueError):
        make_group([4, 1])
    with pytest.raises(ValueError):
        make_group([])


def test_make_group_rejects_overflow():
    with pytest.raises(OverflowError):
        make_group([2 ** 25, 2 ** 25])


@pytest.mark.parametrize("moduli", [[12], [101], [6, 4], [2, 9, 25], [8, 27, 11]])
def test_element_levels_match_per_element_gcd(moduli):
    g = make_group(moduli)
    expected = [max(m // math.gcd(x, m) for x, m in zip(element_of(g, i), g.moduli))
                for i in range(g.n)]
    assert element_levels(g).tolist() == expected


def test_parse_group():
    assert parse_group("4,9,25").moduli == (4, 9, 25)
    assert parse_group(" 6 ").n == 6
    with pytest.raises(ValueError):
        parse_group(",")


def test_add_examples():
    g6 = make_group([6])
    assert add(g6, (2,), (5,)) == (1,)
    g23 = make_group([2, 3])
    assert add(g23, (1, 2), (1, 2)) == (0, 1)


def test_add_identity_random():
    g = make_group([5, 7, 4])
    rng = replicate_rng(1, 0)
    for _ in range(100):
        a = tuple(int(rng.integers(0, m)) for m in g.moduli)
        assert add(g, a, zero(g)) == a


def test_add_dimension_mismatch():
    g = make_group([6])
    with pytest.raises(ValueError):
        add(g, (1, 2), (0,))


moduli_st = st.lists(st.integers(2, 12), min_size=1, max_size=3)


@given(moduli=moduli_st, data=st.data())
@settings(max_examples=60, deadline=None)
def test_group_axioms(moduli, data):
    g = make_group(moduli)
    pick = st.integers(0, g.n - 1)
    a = element_of(g, data.draw(pick))
    b = element_of(g, data.draw(pick))
    c = element_of(g, data.draw(pick))
    assert add(g, add(g, a, b), c) == add(g, a, add(g, b, c))
    assert add(g, a, b) == add(g, b, a)
    assert add(g, a, neg(g, a)) == zero(g)


@pytest.mark.parametrize("moduli", [[12], [6, 4], [2, 3, 5], [101], [10, 10, 10]])
def test_index_element_bijection_exhaustive(moduli):
    g = make_group(moduli)
    for i in range(g.n):
        assert index_of(g, element_of(g, i)) == i
    # the same codec maps whole arrays, and rejects rows outside the group
    elements = element_of(g, np.arange(g.n))
    assert elements.shape == (g.n, g.d)
    assert np.array_equal(index_of(g, elements), np.arange(g.n))
    for j, m in enumerate(g.moduli):
        for bad in (-1, m):
            rows = elements[:3].copy()
            rows[1, j] = bad
            with pytest.raises(ValueError):
                index_of(g, rows)
    with pytest.raises(ValueError):
        element_of(g, np.array([0, g.n]))


def test_dot_examples():
    g5 = make_group([5])
    Z = GeneratorMultiset(np.array(((2,), (3,))))
    assert dot(g5, (1, 1), Z) == (0,)
    assert dot(g5, (0, 0), Z) == (0,)
    g6 = make_group([6])
    Z6 = GeneratorMultiset(np.array(((2,), (4,))))
    # -1*2 + 2*4 = 6 = 0 mod 6
    assert dot(g6, (-1, 2), Z6) == (0,)
    with pytest.raises(ValueError):
        dot(g6, (1,), Z6)


def test_dot_exact_beyond_int64():
    # sum_i w_i z_i reaches ~1e22 here; an int64 w @ Z would wrap
    m = 2 ** 47 - 115
    g = make_group([m, 2])
    gens = np.array([[m - 1 - 7 * i, i % 2] for i in range(6)])
    w = [10 ** 7 + 13 * i for i in range(6)]
    expected = tuple(sum(wi * int(z[j]) for wi, z in zip(w, gens)) % mj
                     for j, mj in enumerate(g.moduli))
    assert dot(g, w, GeneratorMultiset(gens)) == expected
    wrapped = tuple((np.array(w) @ gens % g.moduli).tolist())
    assert wrapped != expected


def test_dot_is_linear():
    g = make_group([8, 9])
    rng = replicate_rng(2, 0)
    Z = sample_generators(g, 4, rng)
    for _ in range(50):
        w1 = rng.integers(-10, 10, size=4)
        w2 = rng.integers(-10, 10, size=4)
        lhs = dot(g, (w1 + w2).tolist(), Z)
        rhs = add(g, dot(g, w1.tolist(), Z), dot(g, w2.tolist(), Z))
        assert lhs == rhs


def test_sample_generators_deterministic():
    g = make_group([7, 11])
    Z1 = sample_generators(g, 20, replicate_rng(3, 5))
    Z2 = sample_generators(g, 20, replicate_rng(3, 5))
    assert np.array_equal(Z1.generators, Z2.generators)
    with pytest.raises(ValueError):
        sample_generators(g, 0, replicate_rng(3, 5))


def test_sample_generators_uniform_binary():
    g = make_group([2])
    k = 10 ** 5
    Z = sample_generators(g, k, replicate_rng(4, 0))
    ones = Z.generators.sum()
    sigma = math.sqrt(k * 0.25)
    assert abs(ones - k / 2) <= 5 * sigma


def test_sample_generators_chi_square_uniformity():
    g = make_group([2, 3])
    k = 6 * 10 ** 5
    Z = sample_generators(g, k, replicate_rng(5, 0))
    counts = np.bincount(index_of(g, Z.generators), minlength=g.n)
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 1e-6


def test_replicate_rng_streams():
    a = replicate_rng(99, 0).integers(0, 2 ** 32, size=8)
    b = replicate_rng(99, 0).integers(0, 2 ** 32, size=8)
    c = replicate_rng(99, 1).integers(0, 2 ** 32, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # negative seeds and seeds from 2^63 on each key their own stream; a key
    # cast through float64 would map every negative seed onto seed 0's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = {tuple(replicate_rng(seed, 0).integers(0, 2 ** 32, size=8))
                 for seed in (0, -1, -2, 2 ** 63, 2 ** 63 + 1)}
    assert len(draws) == 5
