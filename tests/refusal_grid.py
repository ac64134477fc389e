"""The boundary grid of the refusal parity test, and the runner that pins it.

Every case is one CLI command and the library call behind it: each integer
flag of each ``exact`` and ``mc`` experiment in turn takes 0, 1, -1, its cap,
cap + 1, 2^31 +- 1, 2^52, 2^62, 2^62 + 1 and 10^30, with the other flags at
small valid values; a few more cases run under a low or malformed
``COPRIME_LAB_SIEVE_LIMIT``, for the sieve-cap path. ``run_cli`` and
``run_library`` run a case against whatever ``coprime_lab`` is importable,
with every layer's first step of work stubbed to raise :class:`WorkStarted`,
so that an accepted case stops there and no cap-sized run starts. The pins
were made this way from the code before the limits table; regenerating them
from later code pins that code instead:

    PYTHONPATH=src python tests/refusal_grid.py > tests/refusal_pins.json
"""

import contextlib
import io
import json
import os
import sys

#: The default sieve cap, and the low one of the sieve-cap cases.
SIEVE_CAP, LOW_SIEVE_CAP = 10**7, 1000
SIEVE_ENV = "COPRIME_LAB_SIEVE_LIMIT"

#: Small valid values of every flag.
DEFAULTS = {"n": 1000, "t": 2, "k": 3, "j": 3, "radius": 1000, "x": 1000,
            "max": 1000, "box": 100, "dim": 3, "entry_max": 10, "trials": 1000,
            "seed": 1, "threads": 1}

#: The library function behind each CLI experiment, and its arguments from the flags.
EXACT_CALLS = {
    "pair": ("coprime_pair_count", ("n",)),
    "odd-pair": ("odd_coprime_pair_count", ("n",)),
    "gcd-eq": ("gcd_equal_count", ("n", "t")),
    "ktuple": ("ktuple_coprime_count", ("n", "k")),
    "triple3": ("pairwise_coprime_triple_count", ("n",)),
    "squarefree": ("squarefree_count", ("n",)),
    "kfree": ("kfree_count", ("n", "j")),
    "visible": ("visible_points_in_disk", ("radius",)),
    "fgcd": ("f_gcd_density", ("n", "spec")),
    "prime-density": ("prime_density", ("x",)),
}
MC_CALLS = {
    "pair": ("estimate_coprime_pair", {"max": "range_max"}),
    "triple3": ("estimate_pairwise_triple", {"max": "range_max"}),
    "gaussian": ("estimate_gaussian_coprime", {"box": "box_half_width"}),
    "det": ("estimate_det_coprime", {"dim": "dim", "entry_max": "entry_max"}),
}
MC_TRIALS_MAX = {"pair": 5 * 10**8, "triple3": 5 * 10**8, "gaussian": 4 * 10**8, "det": 2 * 10**7}

#: fgcd growth functions: the CLI flags and the FunctionSpec constructor call.
FGCD_FORMS = {
    "sqrt2": ((), ("sqrt2_times_n",)),
    "c7.5": (("--f", "pow_c", "--c", "7.5"), ("n_pow_c", "7.5")),
    "c100000.5": (("--f", "pow_c", "--c", "100000.5"), ("n_pow_c", "100000.5")),
}


def _iroot(x, k):
    r = 1 << -(-x.bit_length() // k)
    while (nr := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = nr
    return r if r**k <= x else r - 1


def _need(n, j):
    """The base table a j-free or Möbius count at n asks for first."""
    base = min(_iroot(n, j), _iroot(n * n, 2 * j + 1))
    return min(_iroot(n, j), max(10**4, base))


def _largest(fits):
    """The largest n >= 1 with fits(n), for fits true at 1 and monotone."""
    lo, hi = 1, 2
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _exact_cap(op, flag, sieve_cap):
    caps = {("triple3", "n"): 2000, ("visible", "radius"): 10**7, ("prime-density", "x"): 10**11,
            ("fgcd", "n"): 10**7, ("ktuple", "k"): 10, ("kfree", "j"): 16}
    if (op, flag) in caps:
        return caps[op, flag]
    if flag != "n":
        return None
    j = {"squarefree": 2, "kfree": DEFAULTS["j"]}.get(op, 1)
    t = DEFAULTS["t"] if op == "gcd-eq" else 1
    return _largest(lambda n: _need(n // t, j) <= sieve_cap)


def _values(cap):
    vals = [0, 1, -1] + ([cap, cap + 1] if cap is not None else [])
    vals += [2**31 - 1, 2**31 + 1, 2**52, 2**62, 2**62 + 1, 10**30]
    return list(dict.fromkeys(vals))


def _case(argv, module, function, kwargs, env=None):
    return {"id": " ".join(argv) + (f" [{SIEVE_ENV}={env}]" if env is not None else ""),
            "argv": argv, "module": module, "function": function, "kwargs": kwargs, "env": env}


def _exact_cases(op, flags, env=None, sieve_cap=SIEVE_CAP, forms=("sqrt2",)):
    function, params = EXACT_CALLS[op]
    for form in forms if op == "fgcd" else (None,):
        for flag in (f for f in flags if f != "f"):
            for v in _values(_exact_cap(op, flag, sieve_cap)):
                values = {f: DEFAULTS[f] for f in flags if f != "f"}
                values[flag] = v
                argv = ["exact", op] + [a for f, x in values.items() for a in (f"--{f}", str(x))]
                kwargs = dict(values)
                if form is not None:
                    argv += FGCD_FORMS[form][0]
                    kwargs["spec"] = form
                yield _case(argv, "exact", function, {p: kwargs[p] for p in params}, env)


def _mc_cases(op, flags, symmetric=False):
    function, sizes = MC_CALLS[op]
    for flag in flags:
        cap = {"trials": MC_TRIALS_MAX[op], "max": 2**62, "box": 2**30, "dim": 8,
               "entry_max": 2**61 if symmetric else 2**62}.get(flag)
        for v in _values(cap):
            values = {f: DEFAULTS[f] for f in flags}
            values[flag] = v
            argv = ["mc", op] + [a for f, x in values.items()
                                 for a in (f"--{f.replace('_', '-')}", str(x))]
            kwargs = {sizes.get(f, f): x for f, x in values.items()}
            if symmetric:
                argv.append("--symmetric-entries")
                kwargs["symmetric_entries"] = True
            yield _case(argv, "montecarlo", function, kwargs)


def cases(exact_flags, mc_sizes):
    """Every case; exact_flags maps each exact experiment to its flags, and
    mc_sizes each mc experiment to the flag it records as n."""
    out = []
    for op, flags in exact_flags.items():
        out += _exact_cases(op, flags, forms=tuple(FGCD_FORMS))
        out += _exact_cases(op, flags, str(LOW_SIEVE_CAP), LOW_SIEVE_CAP)
    for op, size in mc_sizes.items():
        flags = (size, *(("dim",) if op == "det" else ()), "trials", "seed", "threads")
        out += _mc_cases(op, flags)
        if op == "det":
            out += _mc_cases(op, flags, symmetric=True)
    # every size flag out of range at once, so the order of a row's rules decides
    for v in (0, -1, 10**30):
        for op, flags in exact_flags.items():
            function, params = EXACT_CALLS[op]
            values = {f: v for f in flags if f != "f"}
            argv = ["exact", op] + [a for f, x in values.items() for a in (f"--{f}", str(x))]
            kwargs = dict(values, spec="c100000.5")
            if op == "fgcd":
                argv += FGCD_FORMS["c100000.5"][0]
            out.append(_case(argv, "exact", function, {p: kwargs[p] for p in params}))
        for op, size in mc_sizes.items():
            function, sizes = MC_CALLS[op]
            values = {f: v for f in (size, *(("dim",) if op == "det" else ()), "trials")}
            argv = ["mc", op] + [a for f, x in values.items() for a in (f"--{f.replace('_', '-')}", str(x))]
            kwargs = {sizes.get(f, f): x for f, x in values.items()}
            out.append(_case(argv, "montecarlo", function, dict(kwargs, seed=1, threads=1)))
    for env in ("abc", "0", str(10**8 + 1)):
        out.append(_case(["exact", "pair", "--n", "1000"], "exact", "coprime_pair_count",
                         {"n": 1000}, env))
    # the determinant budget refuses dim 8 at entries near 2^62 past about 4.1e5 trials
    for trials in (1, 400_000, 420_000, 2 * 10**7):
        argv = ["mc", "det", "--dim", "8", "--entry-max", str(2**62), "--trials", str(trials)]
        out.append(_case(argv, "montecarlo", "estimate_det_coprime",
                         {"dim": 8, "entry_max": 2**62, "trials": trials, "seed": 1, "threads": 1}))
    return list({c["id"]: c for c in out}.values())  # a flag at its default repeats a case


class WorkStarted(Exception):
    """Raised by the stubs in place of the first step of any work."""


@contextlib.contextmanager
def stubbed(env):
    """Every layer's first step of work raises WorkStarted, the sieve cache is
    empty, and COPRIME_LAB_SIEVE_LIMIT is env (unset for None)."""
    from coprime_lab import exact, montecarlo, sieve

    def work(*args):
        raise WorkStarted

    run_batches = montecarlo._run_batches
    saved = (sieve._shared, sieve.build_sieve, exact._floor_lanes, run_batches,
             os.environ.get(SIEVE_ENV))
    sieve._shared, sieve.build_sieve, exact._floor_lanes = None, work, work
    # the real _run_batches (the code before limits checked trials there), on a batch that stops at once
    montecarlo._run_batches = lambda trials, seed, batch, threads: run_batches(trials, seed, work, 1)
    if env is None:
        os.environ.pop(SIEVE_ENV, None)
    else:
        os.environ[SIEVE_ENV] = env
    try:
        yield
    finally:
        sieve._shared, sieve.build_sieve, exact._floor_lanes, montecarlo._run_batches, old = saved
        if old is None:
            os.environ.pop(SIEVE_ENV, None)
        else:
            os.environ[SIEVE_ENV] = old


def library_args(case):
    """The library call's keyword arguments, with fgcd's spec built."""
    from coprime_lab.limits import FunctionSpec

    kwargs = dict(case["kwargs"])
    if "spec" in kwargs:
        _, (ctor, *args) = FGCD_FORMS[kwargs["spec"]]
        kwargs["spec"] = getattr(FunctionSpec, ctor)(*args)
    return kwargs


def run_cli(case):
    """(exit code, stderr) of the case's command, or "accepted"."""
    from coprime_lab import cli

    err = io.StringIO()
    with stubbed(case["env"]), contextlib.redirect_stderr(err):
        code = cli.run(case["argv"], out=io.StringIO())
    if code == 0 or (code == 1 and "WorkStarted" in err.getvalue()):
        return "accepted"
    return [code, err.getvalue()]


def run_library(case):
    """(exception type, message) of the case's library call, or "accepted"."""
    import importlib

    fn = getattr(importlib.import_module(f"coprime_lab.{case['module']}"), case["function"])
    with stubbed(case["env"]):
        try:
            fn(**library_args(case))
        except WorkStarted:
            return "accepted"
        except Exception as exc:
            return [type(exc).__name__, str(exc)]
    return "accepted"


def main():
    from coprime_lab import cli

    exact_flags = {op: e.flags for op, e in cli.EXACT.items()}
    mc_sizes = {op: e.n for op, e in cli.MC.items()}
    pins = {c["id"]: {"cli": run_cli(c), "library": run_library(c)}
            for c in cases(exact_flags, mc_sizes)}
    json.dump(pins, sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
