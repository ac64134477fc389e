"""Coprimality densities by three independent routes.

Exact sieve-backed counting (:mod:`coprime_lab.exact`), analytic constants
with certified error bounds (:mod:`coprime_lab.constants`), and seeded
Monte Carlo sampling (:mod:`coprime_lab.montecarlo`), over the integers and
the Gaussian integers (:mod:`coprime_lab.gaussian`).

Each public name is imported from its submodule on first use (PEP 562), so
``import coprime_lab`` loads no numpy and leaves ``os.environ`` alone.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ConstantValue",
            "catalan",
            "delta_determinant_constant",
            "euler_product_inv_zeta2",
            "gaussian_coprime_constant",
            "inv_zeta",
            "pairwise_triple_constant",
            "reference_constant",
            "zeta",
        ),
        "constants",
    ),
    **dict.fromkeys(("PrecisionError", "ResourceLimitError"), "errors"),
    **dict.fromkeys(
        (
            "DensityResult",
            "FunctionSpec",
            "coprime_pair_count",
            "f_gcd_density",
            "gcd_equal_count",
            "kfree_count",
            "ktuple_coprime_count",
            "odd_coprime_pair_count",
            "pairwise_coprime_triple_count",
            "prime_density",
            "squarefree_count",
            "totient_sum",
            "visible_points_in_disk",
        ),
        "exact",
    ),
    **dict.fromkeys(
        ("GaussianInt", "canonical_associate", "div_round", "gcd", "is_coprime"), "gaussian"
    ),
    **dict.fromkeys(
        (
            "McEstimate",
            "RngStream",
            "det_bareiss",
            "estimate_coprime_pair",
            "estimate_det_coprime",
            "estimate_gaussian_coprime",
            "estimate_pairwise_triple",
            "wilson_interval",
        ),
        "montecarlo",
    ),
    **dict.fromkeys(("SieveTables", "build_sieve", "primes_up_to"), "sieve"),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
