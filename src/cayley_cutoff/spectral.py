"""Exact spectral analysis of Abelian Cayley walks via the character basis.

Every Cayley walk on G = Z_{m_1} + ... + Z_{m_d} is diagonalized by the
characters chi_x(y) = exp(2 pi i sum_j x_j y_j / m_j).  The eigenvalue
lambda_x = (1/k) sum_i chi_x(z_i) is the inverse DFT of the generator
histogram (how often each element occurs among the generators), so the whole
spectrum costs one transform.  Heat-kernel rows are real, so one more
transform carries two of them, one in its real and one in its imaginary part.

Both transforms run through `_dft` on scipy's pocketfft, which handles
arbitrary axis lengths (Bluestein/chirp-z for primes) at O(n log n) and, unlike
numpy's, caches its plans: a prime-length row reuses the chirp and the padded
kernel transform of the previous row instead of rebuilding them (at
n = 10^6 + 3 the cached plan holds about 60 MB).  `_dft` transforms one axis at
a time from the last, the order numpy's `fftn` uses, which keeps the spectrum
and a row of one time bit-identical to numpy's `fftn`; scipy's own `fftn` is
not (it differs in the last bits at shape (4, 9, 25)).  A row computed in a
pair is not: the other row's rounding enters it, which moves its total
variation in the last digits (by at most 5.6e-16 over the 48 rows of two
draws at n = 10^6 + 3).

Connectivity is decided exactly: a character is invariant (lambda_x = 1) iff
x . z_i = 0 in Q/Z for every generator, which is checked in integer arithmetic
for the few characters whose float eigenvalue lies near 1.  Invariant
characters carry the eigenvalue 1.0 exactly and no other character does, so
`lambda == 1` is the connectivity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft

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

#: largest group the exhaustive Cheeger scan accepts: it visits all 2^n subsets.
CHEEGER_MAX_N = 24


class ImaginaryResidueError(RuntimeError):
    """Raised when a heat-kernel row has imaginary residue above tolerance."""


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues lambda_x of the transition operator, indexed by element index."""

    model: str
    group: GroupSpec
    k: int
    eigenvalues: np.ndarray  # complex, shape (n,)

    @cached_property
    def _residue_terms(self) -> tuple[float, float]:
        """mean_x |lambda_x - conj lambda_{-x}| and max_x Re lambda_x, once per spectrum.

        Every heat-kernel row bounds its imaginary residue from these two.
        """
        lam = self.eigenvalues
        mirror = np.roll(np.flip(lam.reshape(self.group.moduli)), 1,
                         axis=tuple(range(self.group.d))).reshape(-1)  # lambda_{-x}
        np.conjugate(mirror, out=mirror)
        np.subtract(lam, mirror, out=mirror)
        return float(np.abs(mirror).mean()), float(lam.real.max())


@dataclass(frozen=True)
class HeatKernelRow:
    """Rows P_t(0, .) of the heat kernel, clamped and renormalized.

    For one time `t` is a float and `probs` has shape (n,); for a sequence of
    times `t` is a tuple and `probs` has shape (len(t), n).
    """

    t: float | tuple[float, ...]
    probs: np.ndarray


@dataclass(frozen=True)
class GapSummary:
    gamma: float
    t_rel: float
    gamma_star: float
    connected: bool


def _invariant_characters(group: GroupSpec, Z: GeneratorMultiset,
                          candidates: np.ndarray) -> np.ndarray:
    """The candidate indices x with x . z_i = 0 in Q/Z for every generator z_i.

    Scaled by L = lcm(m) to sum_j x_j z_ij (L / m_j) = 0 (mod L), on Python
    ints (object arrays): the products reach m_j * L and would wrap in int64.
    All distinct generators are tested in one product per block of candidates,
    each block holding at most INVARIANT_BLOCK products.
    """
    lcm = math.lcm(*group.moduli)
    coords = element_of(group, candidates).astype(object) * [lcm // m for m in group.moduli]
    gens = np.unique(Z.generators, axis=0).T.astype(object)
    rows = max(1, INVARIANT_BLOCK // gens.shape[1])
    ok = np.ones(len(candidates), dtype=bool)
    for lo in range(0, len(candidates), rows):
        ok[lo:lo + rows] = (coords[lo:lo + rows] @ gens % lcm == 0).all(axis=1)
    return candidates[ok]


def _dft(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """numpy's `fftn(a)`, or `ifftn(a, norm="forward")`, bit for bit.

    A complex `a` is left intact; every intermediate this function owns is
    transformed in place.
    """
    out = a.astype(complex, copy=False)
    transform = fft.ifft if inverse else fft.fft
    norm = "forward" if inverse else "backward"
    for axis in range(out.ndim - 1, -1, -1):
        out = transform(out, axis=axis, norm=norm, overwrite_x=out is not a)
    return out


def eigenvalues(group: GroupSpec, Z: GeneratorMultiset, model: str) -> SpectralData:
    """lambda_x = (1/k) sum_i cos(2 pi x_bar.Z_i), or the character value when directed.

    Computed as the inverse DFT of the generator histogram.  Invariant
    characters (x = 0 among them) are set to exactly 1.0; every other
    character keeps Re lambda < 1, so its gap 1 - Re lambda stays positive.
    """
    if model not in entropic.MODELS:
        raise ValueError(f"unknown model {model!r}")
    counts = np.bincount(index_of(group, Z.generators), minlength=group.n).reshape(group.moduli)
    lam = _dft(counts, inverse=True).reshape(-1)
    lam /= Z.k
    if model == "undirected":
        lam = lam.real.astype(complex)
    near = np.flatnonzero(np.abs(lam - 1.0) <= INVARIANT_CANDIDATE_TOL)
    # Rounding must not close a gap below float resolution: only the exactly
    # invariant characters reach 1.
    lam[near] = np.minimum(lam[near].real, np.nextafter(1.0, 0.0)) + 1j * lam[near].imag
    lam[_invariant_characters(group, Z, near)] = 1.0
    return SpectralData(model=model, group=group, k=Z.k, eigenvalues=lam)


def heat_kernel_row(spec: SpectralData, t) -> HeatKernelRow:
    """P_t(0, y) = (1/n) sum_x e^{-t(1-lambda_x)} conj(chi_x(y)) via per-axis DFT.

    `t` is a time, or a sequence of one or two times whose rows come back stacked
    in `probs` (shape (len(t), n)).  A row is real because its weights are
    Hermitian (w_{-x} = conj w_x), so one complex transform of w(t_1) + i w(t_2)
    carries row t_1 in its real part and row t_2 in its imaginary part, and
    `probs` is a view of that transform's output.  A row at t = 0 is the
    indicator of 0 and takes no transform.
    """
    if np.ndim(t) > 1 or not 1 <= np.size(t) <= 2:
        raise ValueError("t must be a time or a pair of times")
    times = [float(s) for s in np.atleast_1d(t)]
    if min(times) < 0:
        raise ValueError("t must be >= 0")
    group = spec.group
    n = group.n
    lam = spec.eigenvalues
    t_max = max(times)
    if t_max > 0:
        # Packing mixes each row's imaginary residue into the other row, so the
        # residue is bounded from the spectrum instead:
        # |Im P_t(0, y)| <= (1/2n) sum_x |w_x - conj w_{-x}|, and exp is
        # e^{excess}-Lipschitz between the two exponents.
        asymmetry, real_max = spec._residue_terms
        drift = 0.5 * t_max * asymmetry
        excess = t_max * max(0.0, real_max - 1.0)
        if drift > 0 and math.log(drift) + excess > math.log(ROW_TOL):
            raise ImaginaryResidueError(
                f"imaginary residue bound {drift:g} * e^{excess:g} > {ROW_TOL:g}")
        # e^{-t(1 - lambda)} + i e^{-t'(1 - lambda)} in at most two buffers: at
        # n = 10^6 each complex temporary is 16 MB on top of the cached plan.
        weights = np.subtract(1.0, lam)
        imag = None
        if len(times) == 2 and times[1]:
            imag = np.multiply(-times[1], weights)
            np.exp(imag, out=imag)
            imag *= 1j
        if times[0]:
            np.multiply(-times[0], weights, out=weights)
            np.exp(weights, out=weights)
            if imag is not None:
                weights += imag
        else:
            weights = imag
        del imag
        row = _dft(weights.reshape(group.moduli)).reshape(-1)
        del weights
        row /= n
    else:
        row = np.zeros(n, dtype=complex)
    rows = row.view(float).reshape(n, 2).T[:len(times)]
    for probs, s in zip(rows, times):
        if s == 0:
            probs[:] = 0.0
            probs[0] = 1.0
            continue
        worst_negative = float(probs.min())
        if worst_negative < -ROW_TOL:
            raise ValueError(f"negative probability {worst_negative:g} beyond clamp tolerance")
        total = float(probs.sum())
        if abs(total - 1.0) > ROW_TOL:
            raise ValueError(f"row mass {total} deviates from 1 beyond tolerance")
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum()
    if np.ndim(t) == 0:
        return HeatKernelRow(t=times[0], probs=rows[0])
    return HeatKernelRow(t=tuple(times), probs=rows)


def tv_exact(row: HeatKernelRow) -> float | list[float]:
    """Total variation distance from uniform: half the L1 discrepancy.

    Accumulated as the positive-part sum (equal to half the L1 distance for
    probability vectors), which keeps boundary identities like tv(0) = 1 - 1/n
    exact to the last bit.  A row of stacked times gives one float per time.
    """
    p = row.probs
    u = 1.0 / p.shape[-1]
    tvs = [math.fsum((r[r > u] - u).tolist()) for r in np.atleast_2d(p)]
    return tvs if p.ndim == 2 else tvs[0]


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
