"""Exact spectral analysis of Abelian Cayley walks via the character basis.

Every Cayley walk on G = Z_{m_1} + ... + Z_{m_d} is diagonalized by the
characters chi_x(y) = exp(2 pi i sum_j x_j y_j / m_j).  The eigenvalue
lambda_x = (1/k) sum_i chi_x(z_i) is the inverse DFT of the generator
histogram (how often each element occurs among the generators), so the whole
spectrum costs one transform, and each heat-kernel row one more.  numpy's FFT
handles arbitrary axis lengths (Bluestein/chirp-z for primes) at O(n log n).

Connectivity is decided exactly: a character is invariant (lambda_x = 1) iff
x . z_i = 0 in Q/Z for every generator, which is checked in integer arithmetic
for the few characters whose float eigenvalue lies near 1.  Invariant
characters carry the eigenvalue 1.0 exactly and no other character does, so
`lambda == 1` is the connectivity test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .groups import Element, GeneratorMultiset, GroupSpec

#: |lambda_x - 1| up to this makes x a candidate invariant character.  The
#: transform's rounding error is ~1e-15, so no invariant character is missed;
#: non-invariant candidates are rejected by the exact integer test.
INVARIANT_CANDIDATE_TOL = 1e-6

#: tolerance for the imaginary residue and negative-probability clamp of a row.
ROW_TOL = 1e-9


class ImaginaryResidueError(RuntimeError):
    """Raised when a heat-kernel row has imaginary residue above tolerance."""


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues lambda_x of the transition operator, indexed by element index."""

    model: str
    group: GroupSpec
    k: int
    eigenvalues: np.ndarray  # complex, shape (n,)


@dataclass(frozen=True)
class HeatKernelRow:
    """One row P_t(0, .) of the heat kernel, clamped and renormalized."""

    t: float
    probs: np.ndarray


@dataclass(frozen=True)
class GapSummary:
    gamma: float
    t_rel: float
    gamma_star: float
    connected: bool


def character(group: GroupSpec, x: Element, y: Element) -> complex:
    """chi_x(y) = exp(2 pi i sum_j x_j y_j / m_j)."""
    phase = sum(xj * yj / m for xj, yj, m in zip(x, y, group.moduli))
    return cmath.exp(2j * math.pi * phase)


def _invariant_characters(group: GroupSpec, Z: GeneratorMultiset,
                          candidates: np.ndarray) -> np.ndarray:
    """The candidate indices x with x . z_i = 0 in Q/Z for every generator z_i.

    Scaled by L = lcm(m) to sum_j x_j z_ij (L / m_j) = 0 (mod L), on Python
    ints (object arrays): the products reach m_j * L and would wrap in int64.
    """
    lcm = math.lcm(*group.moduli)
    coords = [(candidates // w % m).astype(object) * (lcm // m)
              for w, m in zip(group.radix_weights, group.moduli)]
    for z in set(Z.generators):
        ok = sum(c * zj for c, zj in zip(coords, z)) % lcm == 0
        candidates, coords = candidates[ok], [c[ok] for c in coords]
    return candidates


def eigenvalues(group: GroupSpec, Z: GeneratorMultiset, model: str) -> SpectralData:
    """lambda_x = (1/k) sum_i cos(2 pi x_bar.Z_i), or the character value when directed.

    Computed as the inverse DFT of the generator histogram.  Invariant
    characters (x = 0 among them) are set to exactly 1.0; every other
    character keeps Re lambda < 1, so its gap 1 - Re lambda stays positive.
    """
    if model not in ("undirected", "directed"):
        raise ValueError(f"unknown model {model!r}")
    gens = np.array(Z.generators, dtype=np.int64).reshape(Z.k, group.d)
    counts = np.bincount(gens @ np.array(group.radix_weights, dtype=np.int64),
                         minlength=group.n).reshape(group.moduli)
    lam = np.fft.ifftn(counts, norm="forward").reshape(-1) / Z.k
    if model == "undirected":
        lam = lam.real.astype(complex)
    near = np.flatnonzero(np.abs(lam - 1.0) <= INVARIANT_CANDIDATE_TOL)
    # Rounding must not close a gap below float resolution: only the exactly
    # invariant characters reach 1.
    lam[near] = np.minimum(lam[near].real, np.nextafter(1.0, 0.0)) + 1j * lam[near].imag
    lam[_invariant_characters(group, Z, near)] = 1.0
    return SpectralData(model=model, group=group, k=Z.k, eigenvalues=lam)


def heat_kernel_row(spec: SpectralData, t: float) -> HeatKernelRow:
    """P_t(0, y) = (1/n) sum_x e^{-t(1-lambda_x)} conj(chi_x(y)) via per-axis DFT."""
    if t < 0:
        raise ValueError("t must be >= 0")
    group = spec.group
    n = group.n
    if t == 0:
        probs = np.zeros(n)
        probs[0] = 1.0
        return HeatKernelRow(t=0.0, probs=probs)
    weights = np.exp(-t * (1.0 - spec.eigenvalues)).reshape(group.moduli)
    row = np.fft.fftn(weights).reshape(-1) / n
    imag_residue = float(np.max(np.abs(row.imag)))
    if imag_residue > ROW_TOL:
        raise ImaginaryResidueError(f"imaginary residue {imag_residue:g} > {ROW_TOL:g}")
    probs = row.real
    worst_negative = float(probs.min())
    if worst_negative < -ROW_TOL:
        raise ValueError(f"negative probability {worst_negative:g} beyond clamp tolerance")
    total = float(probs.sum())
    if abs(total - 1.0) > ROW_TOL:
        raise ValueError(f"row mass {total} deviates from 1 beyond tolerance")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return HeatKernelRow(t=float(t), probs=probs)


def tv_exact(row: HeatKernelRow) -> float:
    """Total variation distance from uniform: half the L1 discrepancy.

    Accumulated as the positive-part sum (equal to half the L1 distance for
    probability vectors), which keeps boundary identities like tv(0) = 1 - 1/n
    exact to the last bit.
    """
    n = row.probs.size
    u = 1.0 / n
    return math.fsum(p - u for p in row.probs.tolist() if p > u)


def l2_bound(spec: SpectralData, t: float) -> float:
    """L2 upper bound on TV: half the root of sum_{x!=0} e^{-2t(1-Re lambda_x)}."""
    if t < 0:
        raise ValueError("t must be >= 0")
    rates = 1.0 - spec.eigenvalues.real[1:]
    return 0.5 * math.sqrt(float(np.exp(-2.0 * t * rates).sum()))


def gap_summary(spec: SpectralData) -> GapSummary:
    """Spectral gap, relaxation time and absolute gap from the eigenvalue array.

    The walk is connected iff no nonzero character has lambda == 1 exactly
    (see `eigenvalues`); a disconnected walk has gamma = 0 and t_rel = inf.
    """
    lam = spec.eigenvalues[1:]
    connected = not bool(np.any(lam == 1.0))
    gamma = float(np.min(1.0 - lam.real)) if connected else 0.0
    t_rel = 1.0 / gamma if gamma > 0.0 else math.inf
    gamma_star = float(np.min(1.0 - np.abs(lam)))
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
    if n > 24:
        raise ValueError("exhaustive Cheeger scan capped at n <= 24")
    from .groups import add, element_of, index_of

    shifts = []
    for z in Z.generators:
        perm = np.array(
            [index_of(group, add(group, element_of(group, g), z)) for g in range(n)],
            dtype=np.int64,
        )
        shifts.append(perm)

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
