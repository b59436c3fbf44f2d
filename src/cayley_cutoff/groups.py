"""Finite Abelian groups: construction, indexing, element levels and generator sampling.

A group is a direct sum of cyclic factors Z_{m_1} + ... + Z_{m_d}.  Elements are
tuples of canonical coordinates, and every element also has a mixed-radix index
in {0, ..., n-1} (first coordinate most significant, matching C-order reshapes
of flat arrays).  `index_of` and `element_of` are the one codec between the two;
both also map whole arrays of elements or indices.  Sums, inverses and integer
combinations of single elements are brute-force oracles in the tests' conftest;
the library does its group arithmetic on whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Largest supported group size; keeps all index arithmetic exact in 64-bit.
MAX_GROUP_SIZE = 2 ** 48


@dataclass(frozen=True)
class GroupSpec:
    """A finite Abelian group given by its list of cyclic moduli."""

    moduli: tuple[int, ...]
    n: int
    radix_weights: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.moduli)

    def __repr__(self) -> str:  # compact, e.g. GroupSpec(4,9,25)
        return "GroupSpec(%s)" % ",".join(str(m) for m in self.moduli)


@dataclass(frozen=True, eq=False)
class GeneratorMultiset:
    """k group elements sampled (or chosen) as Cayley-graph generators; repeats allowed."""

    generators: np.ndarray  # int64, shape (k, d): one generator per row

    @property
    def k(self) -> int:
        return len(self.generators)


def make_group(moduli) -> GroupSpec:
    """Build a GroupSpec from a list of cyclic moduli (each >= 2)."""
    mods = tuple(int(m) for m in moduli)
    if len(mods) == 0:
        raise ValueError("at least one modulus is required")
    for m in mods:
        if m < 2:
            raise ValueError(f"modulus {m} < 2")
    n = math.prod(mods)
    if n > MAX_GROUP_SIZE:
        raise OverflowError(f"group size {n} exceeds cap {MAX_GROUP_SIZE}")
    # Place value of coordinate j: product of the moduli after it.
    weights = tuple(math.prod(mods[j + 1:]) for j in range(len(mods)))
    return GroupSpec(moduli=mods, n=n, radix_weights=weights)


def parse_group(literal: str) -> GroupSpec:
    """Parse the CLI group literal, a comma-separated moduli string like "4,9,25"."""
    parts = [p.strip() for p in literal.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty group literal: {literal!r}")
    return make_group(int(p) for p in parts)


def index_of(group: GroupSpec, x):
    """Mixed-radix index in {0, ..., n-1} of an element, or of each row of a (..., d) array."""
    x = np.asarray(x)
    if x.shape[-1:] != (group.d,):
        raise ValueError("element dimension mismatch")
    if ((x < 0) | (x >= group.moduli)).any():
        raise ValueError(f"coordinate out of range [0, m_j) for moduli {group.moduli}")
    index = x @ group.radix_weights
    return int(index) if x.ndim == 1 else index


def element_of(group: GroupSpec, index):
    """Inverse of index_of: an element for one index, a (..., d) int64 array for an array."""
    index = np.asarray(index)
    if ((index < 0) | (index >= group.n)).any():
        raise ValueError("element index out of range")
    coords = index[..., None] // group.radix_weights % group.moduli
    return tuple(coords.tolist()) if index.ndim == 0 else coords


def element_levels(group: GroupSpec) -> np.ndarray:
    """Level max_j m_j / gcd(x_j, m_j) of every element x, by mixed-radix index."""
    coords = element_of(group, np.arange(group.n))
    return (group.moduli // np.gcd(coords, group.moduli)).max(axis=1)


def sample_generators(group: GroupSpec, k: int, rng: np.random.Generator) -> GeneratorMultiset:
    """Draw k iid uniform elements (with replacement) from the group."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return GeneratorMultiset(np.column_stack([rng.integers(0, m, size=k) for m in group.moduli]))


def replicate_rng(base_seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream for one replicate: Philox keyed by (base_seed, replicate).

    Streams for distinct replicates are independent and order-free, so parallel
    and serial runs see identical randomness.  Each key word is reduced mod 2^64
    into a uint64 array, so seeds that differ mod 2^64, negative ones included,
    key different streams.
    """
    key = np.array([int(base_seed) % 2 ** 64, int(replicate) % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
