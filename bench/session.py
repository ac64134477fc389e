"""One long-lived library session, the client of the session-warm workload.

Reads a JSON list of queries on stdin, answers them in order through the
public ``coprime_lab`` API only, and prints one JSON line per answer:
``[numerator, denominator, value]`` for an exact count,
``[value, abs_error_bound, prime_bound]`` for a constant, or
``{"error": "..."}`` when the call raised. Names are looked up on the
package at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import sys

import coprime_lab as cl

EXACT = {
    "pair": lambda n: cl.coprime_pair_count(n),
    "odd-pair": lambda n: cl.odd_coprime_pair_count(n),
    "gcd-eq": lambda n, t: cl.gcd_equal_count(n, t),
    "ktuple": lambda n, k: cl.ktuple_coprime_count(n, k),
    "squarefree": lambda n: cl.squarefree_count(n),
    "prime-density": lambda x: cl.prime_density(x),
}

CONST = {
    "euler-product": lambda eps: cl.euler_product_inv_zeta2(eps),
    "q3": lambda eps: cl.pairwise_triple_constant(eps),
    "delta": lambda dim, eps: cl.delta_determinant_constant(dim, eps),
}


def answer(query):
    kind, *args = query
    if kind in EXACT:
        r = EXACT[kind](*args)
        return [r.numerator, r.denominator, r.value]
    c = CONST[kind](*args)
    return [c.value, c.abs_error_bound, c.params.get("prime_bound")]


def main() -> int:
    queries = json.load(sys.stdin)
    for query in queries:
        try:
            line = answer(query)
        except Exception as exc:  # reported per query; run.py counts it as failed
            line = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
