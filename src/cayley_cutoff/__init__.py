"""Random walks on random Cayley graphs of finite Abelian groups.

Exact spectral heat kernels and TV distances, entropic/cutoff time solving,
Monte Carlo probes of the Gaussian cutoff profile, and brute-force checks of
the supporting lemmas, plus a reproducible experiment CLI.
"""

__version__ = "0.1.0"
