"""Coprimality densities by three independent routes.

Exact sieve-backed counting (:mod:`coprime_lab.exact`), analytic constants
with certified error bounds (:mod:`coprime_lab.constants`), and seeded
Monte Carlo sampling (:mod:`coprime_lab.montecarlo`), over the integers and
the Gaussian integers (:mod:`coprime_lab.gaussian`).
"""

__version__ = "0.1.0"

from .constants import (
    ConstantValue,
    catalan,
    delta_determinant_constant,
    euler_product_inv_zeta2,
    gaussian_coprime_constant,
    inv_zeta,
    pairwise_triple_constant,
    reference_constant,
    zeta,
)
from .errors import PrecisionError, ResourceLimitError
from .exact import (
    DensityResult,
    FunctionSpec,
    coprime_pair_count,
    f_gcd_density,
    gcd_equal_count,
    kfree_count,
    ktuple_coprime_count,
    odd_coprime_pair_count,
    pairwise_coprime_triple_count,
    prime_density,
    squarefree_count,
    totient_sum,
    visible_points_in_disk,
)
from .gaussian import GaussianInt, canonical_associate, div_round, gcd, is_coprime
from .montecarlo import (
    McEstimate,
    RngStream,
    det_bareiss,
    estimate_coprime_pair,
    estimate_det_coprime,
    estimate_gaussian_coprime,
    estimate_pairwise_triple,
    wilson_interval,
)
from .sieve import SieveTables, build_sieve, primes_up_to

__all__ = [
    "__version__",
    "ConstantValue",
    "DensityResult",
    "FunctionSpec",
    "GaussianInt",
    "McEstimate",
    "PrecisionError",
    "ResourceLimitError",
    "RngStream",
    "SieveTables",
    "build_sieve",
    "canonical_associate",
    "catalan",
    "coprime_pair_count",
    "delta_determinant_constant",
    "det_bareiss",
    "div_round",
    "estimate_coprime_pair",
    "estimate_det_coprime",
    "estimate_gaussian_coprime",
    "estimate_pairwise_triple",
    "euler_product_inv_zeta2",
    "f_gcd_density",
    "gaussian_coprime_constant",
    "gcd",
    "gcd_equal_count",
    "inv_zeta",
    "is_coprime",
    "kfree_count",
    "ktuple_coprime_count",
    "odd_coprime_pair_count",
    "pairwise_coprime_triple_count",
    "pairwise_triple_constant",
    "prime_density",
    "primes_up_to",
    "reference_constant",
    "squarefree_count",
    "totient_sum",
    "visible_points_in_disk",
    "wilson_interval",
    "zeta",
]
