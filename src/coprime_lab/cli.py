"""Command-line front end.

One experiment per invocation; every result is one record per line, JSON
lines by default or CSV with a fixed column set. Exit codes: 0 success,
2 invalid arguments, 3 resource limit or overflow, 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .errors import ResourceLimitError

# numpy's OpenBLAS starts one spinning worker per extra CPU when it loads;
# no command here needs one, so a CLI process starts none unless the caller
# asks. This must run before the first layer import loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class _Layer:
    """A layer module, imported at its first attribute lookup.

    A command loads only the layers it calls (a const run loads no numpy),
    and each lookup reads the module as it is then, so a patched or wrapped
    function is the one called.
    """

    def __init__(self, name: str):
        self._name = f"{__package__}.{name}"

    def load(self):
        """Import the module now, so that a timed call does not pay for it."""
        __import__(self._name)  # an import statement's path, which -X importtime reports

    def __getattr__(self, attr):
        self.load()
        return getattr(sys.modules[self._name], attr)


constants = _Layer("constants")
exact = _Layer("exact")
montecarlo = _Layer("montecarlo")

CSV_HEADER = "experiment,n,numerator,denominator,value,reference,abs_gap,ci_low,ci_high,seed,elapsed_ms"

#: Tolerance of a constant when --eps is not given.
DEFAULT_EPS = 1e-9

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
    elapsed_ms: int | None = None  # library time of the record; None until measured
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
        reals = (self.value, self.reference, self.abs_gap, *(self.ci95 or (None, None)))
        cols = [self.experiment, self.n, self.numerator, self.denominator]
        cols += [None if x is None else _fmt_real(x) for x in reals] + [self.seed, self.elapsed_ms]
        return ",".join("" if c is None else str(c) for c in cols)


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
# Experiments
# ---------------------------------------------------------------------------


class Exact(NamedTuple):
    flags: tuple[str, ...]  # required and recorded in params; the first is the size
    call: Callable  # args -> exact.DensityResult


class Const(NamedTuple):
    call: Callable  # (args, eps) -> constants.ConstantValue
    n: str | None = None  # flag recorded as n and first in params
    eps: bool = True  # reads --eps (default DEFAULT_EPS); False for a constant that takes none


class Mc(NamedTuple):
    n: str  # flag recorded as n
    call: Callable  # args -> montecarlo.McEstimate


# Each experiment is declared once, here; the parser's choices, the flag
# check, dispatch and convergence read these tables. Calls look library
# functions up when they run, so a patched or wrapped function is the one
# called.
EXACT = {
    "pair": Exact(("n",), lambda a: exact.coprime_pair_count(a.n)),
    "odd-pair": Exact(("n",), lambda a: exact.odd_coprime_pair_count(a.n)),
    "gcd-eq": Exact(("n", "t"), lambda a: exact.gcd_equal_count(a.n, a.t)),
    "ktuple": Exact(("n", "k"), lambda a: exact.ktuple_coprime_count(a.n, a.k)),
    "triple3": Exact(("n",), lambda a: exact.pairwise_coprime_triple_count(a.n)),
    "squarefree": Exact(("n",), lambda a: exact.squarefree_count(a.n)),
    "kfree": Exact(("n", "j"), lambda a: exact.kfree_count(a.n, a.j)),
    "visible": Exact(("radius",), lambda a: exact.visible_points_in_disk(a.radius)),
    "fgcd": Exact(("n", "f"), lambda a: exact.f_gcd_density(a.n, _function_spec(a))),
    "prime-density": Exact(("x",), lambda a: exact.prime_density(a.x)),
}

CONST = {
    "zeta": Const(lambda a, eps: constants.zeta(a.k, eps), "k"),
    "invzeta": Const(lambda a, eps: constants.inv_zeta(a.k, eps), "k"),
    "euler-product": Const(lambda a, eps: constants.euler_product_inv_zeta2(eps)),
    "catalan": Const(lambda a, eps: constants.catalan(eps)),
    "gaussian": Const(lambda a, eps: constants.gaussian_coprime_constant(eps)),
    "q3": Const(lambda a, eps: constants.pairwise_triple_constant(eps)),
    "delta": Const(lambda a, eps: constants.delta_determinant_constant(a.dim, eps), "dim"),
    "odd": Const(lambda a, eps: constants.reference_constant("odd_pair"), eps=False),
    "pair": Const(lambda a, eps: constants.reference_constant("pair"), eps=False),
}

MC = {
    "pair": Mc("max", lambda a: montecarlo.estimate_coprime_pair(a.max, a.trials, a.seed, a.threads)),
    "triple3": Mc("max", lambda a: montecarlo.estimate_pairwise_triple(a.max, a.trials, a.seed, a.threads)),
    "gaussian": Mc("box", lambda a: montecarlo.estimate_gaussian_coprime(a.box, a.trials, a.seed, a.threads)),
    "det": Mc("entry_max", lambda a: montecarlo.estimate_det_coprime(
        a.dim, a.entry_max, a.trials, a.seed, a.threads, symmetric_entries=a.symmetric_entries)),
}

#: Exact experiments whose only flag is their size, triple3 (whose large
#: sizes fall back to Monte Carlo) last.
CONVERGENCE = tuple(sorted((op for op, e in EXACT.items() if len(e.flags) == 1), key=lambda op: op == "triple3"))

#: exact's integer flags; like --alpha and --c they default to None, so a given one shows.
EXACT_INTS = tuple(dict.fromkeys(f for e in EXACT.values() for f in e.flags if f != "f"))


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
    entry = EXACT[args.operation]
    for flag in entry.flags:
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for this operation")
    read = entry.flags + (("alpha", "c") if "f" in entry.flags else ())
    unread = [f for f in EXACT_INTS + ("alpha", "c") if f not in read and getattr(args, f, None) is not None]
    if unread:
        raise ValueError(f"{args.operation} does not read --{unread[0]}")
    # the growth function is recorded by its label
    params = {f: _function_spec(args).label if f == "f" else getattr(args, f) for f in entry.flags}
    return [_from_density(entry.call(args), params)]


def _run_const(args) -> list[ExperimentRecord]:
    entry = CONST[args.operation]
    if not entry.eps and args.eps is not None:
        raise ValueError(f"{args.operation} does not read --eps")
    n = None if entry.n is None else getattr(args, entry.n)
    params = {} if entry.n is None else {entry.n: "inf" if n is None else n}  # --dim inf parses to None
    if entry.eps:
        params["eps"] = DEFAULT_EPS if args.eps is None else args.eps
    cv = entry.call(args, params.get("eps"))
    return [_from_constant("const_" + args.operation.replace("-", "_"), n, cv, params)]


def _run_mc(args) -> list[ExperimentRecord]:
    entry = MC[args.operation]
    return [_from_mc(entry.call(args), getattr(args, entry.n))]


def _run_report(args) -> list[ExperimentRecord]:
    return convergence(args.experiment, args.ns, args.seed, args.threads)


def convergence(kind: str, ns: list[int], seed: int | None = None, threads: int = 1) -> list[ExperimentRecord]:
    """One record per n, ascending, plus a closing reference-constant row.

    Each n is the size flag of the exact experiment. triple3 sizes beyond the
    brute-force bound run the Monte Carlo estimator and then require a seed.
    """
    if not ns:
        raise ValueError("--ns needs at least one size")
    if list(ns) != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("--ns must be strictly ascending")
    if kind not in CONVERGENCE:
        raise ValueError(f"convergence supports {CONVERGENCE}, got {kind!r}")
    records = []
    for n in ns:
        # each row's clock starts after the layer it calls is loaded
        if kind != "triple3" or n <= exact.TRIPLE_BRUTE_BOUND:
            t0 = time.perf_counter()
            (rec,) = _run_exact(argparse.Namespace(operation=kind, **{EXACT[kind].flags[0]: n}))
        elif seed is None:
            raise ResourceLimitError(
                f"triple3 beyond n = {exact.TRIPLE_BRUTE_BOUND} runs Monte Carlo; pass --seed"
            )
        else:
            montecarlo.load()
            t0 = time.perf_counter()
            est = montecarlo.estimate_pairwise_triple(n, CONVERGENCE_MC_TRIALS, seed, threads)
            rec = _from_mc(est, n)
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


def dimension(text: str) -> int | None:
    """A matrix dimension, or None for 'inf' (the limit)."""
    return None if text == "inf" else int(text)


def sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--threads", type=positive_int, default=1, help="worker cap; never changes results")

    parser = argparse.ArgumentParser(prog="coprime-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact sieve-based counts", parents=[common])
    p_exact.set_defaults(run=_run_exact, layers=(exact,))
    p_exact.add_argument("operation", choices=EXACT)
    for flag in EXACT_INTS:
        p_exact.add_argument(f"--{flag}", type=int)
    p_exact.add_argument("--f", choices=("alpha_n", "pow_c"), default="alpha_n")
    p_exact.add_argument("--alpha", default=None, help="sqrt2 or a decimal")
    p_exact.add_argument("--c", default=None, help="non-integer decimal exponent")

    p_const = sub.add_parser("const", help="analytic constants with error bounds", parents=[common])
    p_const.set_defaults(run=_run_const, layers=(constants,))
    p_const.add_argument("operation", choices=CONST)
    p_const.add_argument("--k", type=int, default=2)
    p_const.add_argument("--dim", type=dimension, default=None, help="matrix dimension or 'inf'")
    p_const.add_argument("--eps", type=positive_finite_float, default=None, help="tolerance (default 1e-9)")

    p_mc = sub.add_parser("mc", help="seeded Monte Carlo estimates", parents=[common])
    p_mc.set_defaults(run=_run_mc, layers=(montecarlo, constants))
    p_mc.add_argument("operation", choices=MC)
    p_mc.add_argument("--max", type=int, default=10**9)
    p_mc.add_argument("--box", type=int, default=1000)
    p_mc.add_argument("--dim", type=int, default=2)
    p_mc.add_argument("--entry-max", type=int, default=1000)
    p_mc.add_argument("--trials", type=int, default=10**6)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--symmetric-entries", action="store_true")

    p_rep = sub.add_parser("report", help="convergence tables", parents=[common])
    p_rep.set_defaults(run=_run_report, layers=(exact,))
    p_rep.add_argument("operation", choices=("convergence",))
    p_rep.add_argument("--experiment", required=True, choices=CONVERGENCE)
    p_rep.add_argument("--ns", type=sizes, required=True, help="comma-separated ascending sizes")
    p_rep.add_argument("--seed", type=int, default=None)

    return parser


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
    """Run the command; a record's elapsed_ms is library time, import excluded,
    the whole run's unless the record timed itself."""
    try:
        for layer in args.layers:
            layer.load()
        t0 = time.perf_counter()
        records = args.run(args)
        elapsed = int(1000 * (time.perf_counter() - t0))
        for rec in records:
            if rec.elapsed_ms is None:
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
