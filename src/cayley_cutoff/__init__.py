"""Random walks on random Cayley graphs of finite Abelian groups.

Exact spectral heat kernels and TV distances, entropic/cutoff time solving,
Monte Carlo probes of the Gaussian cutoff profile, and brute-force checks of
the supporting lemmas, plus a reproducible experiment CLI.
"""

from .groups import (GeneratorMultiset, GroupSpec, element_of, index_of, make_group,
                     parse_group, replicate_rng, sample_generators)
from .spectral import (GapSummary, HeatKernelRow, SpectralData, cheeger_bounds,
                       cheeger_exact, eigenvalues, gap_summary, heat_kernel_row,
                       l2_bound, tv_exact)
from .entropic import (AsymptoticReport, EntropicSolution, StepDistribution,
                       asymptotic_times, entropy, entropy_derivative, f_lambda,
                       g_lambda, q1_moments, solve_times)
from .walk import (ProbeResult, TypicalityParams, clt_probe, psi, typicality_params,
                   typicality_probe)

__version__ = "0.1.0"
