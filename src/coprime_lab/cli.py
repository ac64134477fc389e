"""Command-line front end.

One experiment per invocation; every result is one record per line, JSON
lines by default or CSV with a fixed column set. Exit codes: 0 success,
2 invalid arguments, 3 resource limit or overflow, 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, constants, exact, montecarlo
from .errors import ResourceLimitError

CSV_HEADER = "experiment,n,numerator,denominator,value,reference,abs_gap,ci_low,ci_high,seed,elapsed_ms"

#: Trials used when a convergence table falls back to Monte Carlo.
CONVERGENCE_MC_TRIALS = 1_000_000


def _fmt_real(x: float) -> str:
    return format(float(x), ".12g")


def _round12(x):
    return float(_fmt_real(x)) if x is not None else None


@dataclass
class ExperimentRecord:
    experiment: str
    n: int | None
    params: dict
    value: float
    numerator: int | None = None
    denominator: int | None = None
    reference: float | None = None
    abs_gap: float | None = None
    ci95: tuple[float, float] | None = None
    seed: int | None = None
    elapsed_ms: int = 0
    tool_version: str = field(default=__version__)

    def json_line(self) -> str:
        doc = {"experiment": self.experiment, "params": self.params}
        if self.numerator is not None:
            doc["numerator"] = self.numerator
            doc["denominator"] = self.denominator
        doc["value"] = _round12(self.value)
        if self.reference is not None:
            doc["reference"] = _round12(self.reference)
        if self.abs_gap is not None:
            doc["abs_gap"] = _round12(self.abs_gap)
        if self.ci95 is not None:
            doc["ci95"] = [_round12(self.ci95[0]), _round12(self.ci95[1])]
        if self.seed is not None:
            doc["seed"] = self.seed
        doc["elapsed_ms"] = self.elapsed_ms
        doc["tool_version"] = self.tool_version
        return json.dumps(doc, separators=(", ", ": "))

    def csv_row(self) -> str:
        cols = [
            self.experiment,
            "" if self.n is None else str(self.n),
            "" if self.numerator is None else str(self.numerator),
            "" if self.denominator is None else str(self.denominator),
            _fmt_real(self.value),
            "" if self.reference is None else _fmt_real(self.reference),
            "" if self.abs_gap is None else _fmt_real(self.abs_gap),
            "" if self.ci95 is None else _fmt_real(self.ci95[0]),
            "" if self.ci95 is None else _fmt_real(self.ci95[1]),
            "" if self.seed is None else str(self.seed),
            str(self.elapsed_ms),
        ]
        return ",".join(cols)


def _from_density(res: exact.DensityResult, params: dict) -> ExperimentRecord:
    return ExperimentRecord(
        experiment=res.kind,
        n=res.n,
        params=params,
        value=res.value,
        numerator=res.numerator,
        denominator=res.denominator,
        reference=res.reference,
        abs_gap=res.abs_gap,
    )


def _from_constant(tag: str, n, cv: constants.ConstantValue, params: dict) -> ExperimentRecord:
    params = dict(params)
    params["abs_error_bound"] = cv.abs_error_bound
    params["method"] = cv.method
    params.update({k: v for k, v in cv.params.items() if k not in params})
    return ExperimentRecord(experiment=tag, n=n, params=params, value=cv.value)


def _from_mc(est: montecarlo.McEstimate, n) -> ExperimentRecord:
    kind = est.kind
    p = est.params
    ref = constants.reference_constant(
        kind, dim=p.get("dim") if kind == "det" else None
    ).value
    return ExperimentRecord(
        experiment=kind,
        n=n,
        params=dict(p, trials=est.trials, successes=est.successes),
        value=est.estimate,
        reference=ref,
        abs_gap=abs(est.estimate - ref),
        ci95=(est.ci_low, est.ci_high),
        seed=est.seed,
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _function_spec(args) -> exact.FunctionSpec:
    if args.f == "alpha_n":
        alpha = args.alpha if args.alpha is not None else "sqrt2"
        if alpha == "sqrt2":
            return exact.FunctionSpec.sqrt2_times_n()
        return exact.FunctionSpec.alpha_times_n(Fraction(alpha))
    if args.c is None:
        raise ValueError("--f pow_c needs --c")
    return exact.FunctionSpec.n_pow_c(Fraction(args.c))


def _run_exact(args) -> list[ExperimentRecord]:
    op = args.operation
    if op == "pair":
        return [_from_density(exact.coprime_pair_count(args.n), {"n": args.n})]
    if op == "odd-pair":
        return [_from_density(exact.odd_coprime_pair_count(args.n), {"n": args.n})]
    if op == "gcd-eq":
        res = exact.gcd_equal_count(args.n, args.t)
        return [_from_density(res, {"n": args.n, "t": args.t})]
    if op == "ktuple":
        res = exact.ktuple_coprime_count(args.n, args.k)
        return [_from_density(res, {"n": args.n, "k": args.k})]
    if op == "triple3":
        return [_from_density(exact.pairwise_coprime_triple_count(args.n), {"n": args.n})]
    if op == "squarefree":
        return [_from_density(exact.squarefree_count(args.n), {"n": args.n})]
    if op == "kfree":
        res = exact.kfree_count(args.n, args.j)
        return [_from_density(res, {"n": args.n, "j": args.j})]
    if op == "visible":
        res = exact.visible_points_in_disk(args.radius)
        return [_from_density(res, {"radius": args.radius})]
    if op == "fgcd":
        spec = _function_spec(args)
        res = exact.f_gcd_density(args.n, spec)
        return [_from_density(res, {"n": args.n, "f": spec.label()})]
    if op == "prime-density":
        return [_from_density(exact.prime_density(args.x), {"x": args.x})]
    raise ValueError(f"unknown exact operation {op!r}")


def _run_const(args) -> list[ExperimentRecord]:
    op = args.operation
    eps = args.eps
    if eps is None:
        # Q and delta certify down to 1e-8; everything else defaults to 1e-9
        eps = 1e-8 if op in ("q3", "delta") else 1e-9
    if op == "zeta":
        return [_from_constant("const_zeta", args.k, constants.zeta(args.k, eps), {"k": args.k, "eps": eps})]
    if op == "invzeta":
        return [_from_constant("const_invzeta", args.k, constants.inv_zeta(args.k, eps), {"k": args.k, "eps": eps})]
    if op == "euler-product":
        return [_from_constant("const_euler_product", None, constants.euler_product_inv_zeta2(eps), {"eps": eps})]
    if op == "catalan":
        return [_from_constant("const_catalan", None, constants.catalan(eps), {"eps": eps})]
    if op == "gaussian":
        return [_from_constant("const_gaussian", None, constants.gaussian_coprime_constant(eps), {"eps": eps})]
    if op == "q3":
        return [_from_constant("const_q3", None, constants.pairwise_triple_constant(eps), {"eps": eps})]
    if op == "delta":
        dim = None if args.dim in (None, "inf") else int(args.dim)
        cv = constants.delta_determinant_constant(dim, eps)
        return [_from_constant("const_delta", dim, cv, {"dim": "inf" if dim is None else dim, "eps": eps})]
    if op == "odd":
        return [_from_constant("const_odd", None, constants.reference_constant("odd_pair"), {})]
    if op == "pair":
        return [_from_constant("const_pair", None, constants.reference_constant("pair"), {})]
    raise ValueError(f"unknown const operation {op!r}")


def _run_mc(args) -> list[ExperimentRecord]:
    op = args.operation
    threads = args.threads
    if op == "pair":
        est = montecarlo.estimate_coprime_pair(args.max, args.trials, args.seed, threads)
        return [_from_mc(est, args.max)]
    if op == "triple3":
        est = montecarlo.estimate_pairwise_triple(args.max, args.trials, args.seed, threads)
        return [_from_mc(est, args.max)]
    if op == "gaussian":
        est = montecarlo.estimate_gaussian_coprime(args.box, args.trials, args.seed, threads)
        return [_from_mc(est, args.box)]
    if op == "det":
        est = montecarlo.estimate_det_coprime(
            args.dim, args.entry_max, args.trials, args.seed, threads,
            symmetric_entries=args.symmetric_entries,
        )
        return [_from_mc(est, args.entry_max)]
    raise ValueError(f"unknown mc operation {op!r}")


_CONVERGENCE_KINDS = ("pair", "odd-pair", "squarefree", "visible", "prime-density", "triple3")


def convergence(kind: str, ns: list[int], seed: int | None = None, threads: int = 1) -> list[ExperimentRecord]:
    """One record per n, ascending, plus a closing reference-constant row.

    triple3 sizes beyond the brute-force bound run the Monte Carlo estimator
    and then require a seed.
    """
    if not ns:
        raise ValueError("--ns needs at least one size")
    if list(ns) != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("--ns must be strictly ascending")
    records = []
    for n in ns:
        t0 = time.perf_counter()
        if kind == "pair":
            rec = _from_density(exact.coprime_pair_count(n), {"n": n})
        elif kind == "odd-pair":
            rec = _from_density(exact.odd_coprime_pair_count(n), {"n": n})
        elif kind == "squarefree":
            rec = _from_density(exact.squarefree_count(n), {"n": n})
        elif kind == "visible":
            rec = _from_density(exact.visible_points_in_disk(n), {"radius": n})
        elif kind == "prime-density":
            rec = _from_density(exact.prime_density(n), {"x": n})
        elif kind == "triple3":
            if n <= exact.TRIPLE_BRUTE_BOUND:
                rec = _from_density(exact.pairwise_coprime_triple_count(n), {"n": n})
            elif seed is None:
                raise ResourceLimitError(
                    f"triple3 beyond n = {exact.TRIPLE_BRUTE_BOUND} runs Monte Carlo; pass --seed"
                )
            else:
                est = montecarlo.estimate_pairwise_triple(n, CONVERGENCE_MC_TRIALS, seed, threads)
                rec = _from_mc(est, n)
        else:
            raise ValueError(f"convergence supports {_CONVERGENCE_KINDS}, got {kind!r}")
        rec.elapsed_ms = int(1000 * (time.perf_counter() - t0))
        records.append(rec)
    ref = records[-1].reference
    if ref is not None:
        records.append(
            ExperimentRecord(
                experiment=records[-1].experiment,
                n=None,
                params={"reference_row": True},
                value=ref,
                reference=ref,
                abs_gap=0.0,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {val}")
    return val


def positive_finite_float(text: str) -> float:
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return val


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--threads", type=positive_int, default=1, help="worker cap; never changes results")

    parser = argparse.ArgumentParser(prog="coprime-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact sieve-based counts", parents=[common])
    p_exact.add_argument(
        "operation",
        choices=("pair", "odd-pair", "gcd-eq", "ktuple", "triple3", "squarefree",
                 "kfree", "visible", "fgcd", "prime-density"),
    )
    p_exact.add_argument("--n", type=int)
    p_exact.add_argument("--t", type=int)
    p_exact.add_argument("--k", type=int)
    p_exact.add_argument("--j", type=int)
    p_exact.add_argument("--radius", type=int)
    p_exact.add_argument("--f", choices=("alpha_n", "pow_c"), default="alpha_n")
    p_exact.add_argument("--alpha", default=None, help="sqrt2 or a decimal")
    p_exact.add_argument("--c", default=None, help="non-integer decimal exponent")
    p_exact.add_argument("--x", type=int)

    p_const = sub.add_parser("const", help="analytic constants with error bounds", parents=[common])
    p_const.add_argument(
        "operation",
        choices=("zeta", "invzeta", "euler-product", "catalan", "gaussian", "q3", "delta", "odd", "pair"),
    )
    p_const.add_argument("--k", type=int, default=2)
    p_const.add_argument("--dim", default=None, help="matrix dimension or 'inf'")
    p_const.add_argument("--eps", type=positive_finite_float, default=None, help="tolerance (default 1e-9; 1e-8 for q3/delta)")

    p_mc = sub.add_parser("mc", help="seeded Monte Carlo estimates", parents=[common])
    p_mc.add_argument("operation", choices=("pair", "triple3", "gaussian", "det"))
    p_mc.add_argument("--max", type=int, default=10**9)
    p_mc.add_argument("--box", type=int, default=1000)
    p_mc.add_argument("--dim", type=int, default=2)
    p_mc.add_argument("--entry-max", type=int, default=1000)
    p_mc.add_argument("--trials", type=int, default=10**6)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--symmetric-entries", action="store_true")

    p_rep = sub.add_parser("report", help="convergence tables", parents=[common])
    p_rep.add_argument("operation", choices=("convergence",))
    p_rep.add_argument("--experiment", required=True, choices=_CONVERGENCE_KINDS)
    p_rep.add_argument("--ns", required=True, help="comma-separated ascending sizes")
    p_rep.add_argument("--seed", type=int, default=None)

    return parser


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ValueError(f"--{name} is required for this operation")


def run(argv: list[str] | None = None, out=None) -> int:
    """Parse argv, run the experiment, stream records; returns the exit code.

    ``--out`` is opened before any work starts, so an unwritable path fails
    at once; like a shell redirection, it is truncated even if the run fails.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if out is not None or args.out is None:
        return _execute(args, sys.stdout if out is None else out)
    try:
        out = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"invalid arguments: cannot open --out {args.out!r}: {exc.strerror}", file=sys.stderr)
        return 2
    with out:
        return _execute(args, out)


def _execute(args, out) -> int:
    try:
        t0 = time.perf_counter()
        if args.command == "exact":
            needed = {
                "pair": ["n"], "odd-pair": ["n"], "gcd-eq": ["n", "t"],
                "ktuple": ["n", "k"], "triple3": ["n"], "squarefree": ["n"],
                "kfree": ["n", "j"], "visible": ["radius"], "fgcd": ["n"],
                "prime-density": ["x"],
            }[args.operation]
            _require(args, needed)
            records = _run_exact(args)
        elif args.command == "const":
            records = _run_const(args)
        elif args.command == "mc":
            records = _run_mc(args)
        else:
            ns = [int(s) for s in args.ns.split(",") if s]
            records = convergence(args.experiment, ns, args.seed, args.threads)
        elapsed = int(1000 * (time.perf_counter() - t0))
        for rec in records:
            if not rec.elapsed_ms:
                rec.elapsed_ms = elapsed
    except (ResourceLimitError, OverflowError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failures
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1

    if args.format == "csv":
        out.write(CSV_HEADER + "\n")
    for rec in records:
        out.write((rec.csv_row() if args.format == "csv" else rec.json_line()) + "\n")
        out.flush()
    return 0


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
