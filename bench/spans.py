"""Spans for the benchmark's traced run, recorded from outside the package.

The traced run wraps the module-level functions at each layer boundary of
``coprime_lab`` where they are looked up at call time: module globals (so a
call from inside the package goes through the wrapper), the package
namespace (so library callers do too) and two ``RngStream`` methods. Nothing
under ``src/`` changes. Underscore-named helpers (``_run_batches``,
``_dets_mod_p``, ``_exact_dets``) are wrapped only until the program has a
tracer of its own; a rename there silently drops their spans, which the
benchmark reports as a failed operation (see ``missing_spans``).

Run as a child process in place of the untraced command:

    python bench/spans.py OUT cli exact pair --n 1000
    python bench/spans.py OUT session < queries.json

Spans are kept in memory and written to OUT as JSON when the child ends;
``layer_metrics`` turns the files of one pass into per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

# Span name for each wrapped module-level function. A span name is also the
# prefix of its metrics; its layer is the part before the first dot.
FUNCTION_SPANS = {
    "sieve": {
        "shared_tables": "sieve.shared",
        "build_sieve": "sieve.build",
        "primes_up_to": "sieve.primes",
    },
    "exact": {
        "totient_sum": "exact.totient",
        "coprime_ordered_count_mobius": "exact.mobius",
        "coprime_pair_count": "exact.pair",
        "gcd_equal_count": "exact.gcd_eq",
        "odd_coprime_pair_count": "exact.odd_pair",
        "ktuple_coprime_count": "exact.ktuple",
        "pairwise_coprime_triple_count": "exact.triple",
        "kfree_count": "exact.kfree",
        "visible_points_in_disk": "exact.visible",
        "f_gcd_density": "exact.fgcd",
        "prime_density": "exact.prime_density",
    },
    "constants": {
        "zeta": "constants.series",
        "inv_zeta": "constants.series",
        "catalan": "constants.series",
        "gaussian_coprime_constant": "constants.series",
        "euler_product_inv_zeta2": "constants.euler_product",
        "pairwise_triple_constant": "constants.q3",
        "delta_determinant_constant": "constants.delta",
    },
    "montecarlo": {
        "estimate_coprime_pair": "montecarlo.estimate.pair",
        "estimate_pairwise_triple": "montecarlo.estimate.triple3",
        "estimate_gaussian_coprime": "montecarlo.estimate.gaussian",
        "estimate_det_coprime": "montecarlo.estimate.det",
        "_exact_dets": "montecarlo.det.crt",
        "_dets_mod_p": "montecarlo.det.modp",
        "det_bareiss": "montecarlo.det.bareiss",
    },
}

_PRIME_BOUND_SPANS = ("constants.euler_product", "constants.q3", "constants.delta")


class Recorder:
    """Thread-safe in-memory span list; each thread keeps its own stack."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, attrs]
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(id, name) of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs=None, *, sid=None, parent=None, note=None, attrs=None):
        """Run fn(*args, **kwargs) inside a span; note(args, result) adds attributes."""
        stack = self._stack()
        if sid is None:
            sid = self.new_id()
        if parent is None and stack:
            parent = stack[-1][0]
        attrs = dict(attrs or {})
        stack.append((sid, name))
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        else:
            if note is not None:
                attrs.update(note(args, result))
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append([sid, parent, name, t0, t1, attrs])


def _wrap(rec, name, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, note=note)

    return wrapper


def _note_for(name):
    if name in ("sieve.build", "sieve.primes"):
        return lambda args, result: {"limit": int(args[0])}
    if name in _PRIME_BOUND_SPANS:
        return lambda args, result: {"prime_bound": int(result.params.get("prime_bound", 0))}
    return None


def _replace_everywhere(modules, orig, new):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary of coprime_lab; call once, before any work."""
    import coprime_lab
    from coprime_lab import cli, constants, exact, montecarlo, sieve

    modules = {"sieve": sieve, "exact": exact, "constants": constants, "montecarlo": montecarlo}
    namespaces = (coprime_lab, cli, sieve, exact, constants, montecarlo)
    for mod_name, table in FUNCTION_SPANS.items():
        mod = modules[mod_name]
        for attr, name in table.items():
            orig = getattr(mod, attr)
            _replace_everywhere(namespaces, orig, _wrap(rec, name, orig, _note_for(name)))

    orig_batches = montecarlo._run_batches

    def run_batches(trials, seed, batch_fn, threads):
        sid = rec.new_id()
        outer = rec.current()
        kind = outer[1].rsplit(".", 1)[-1] if outer else "unknown"

        def timed_batch(stream, cnt):
            return rec.call(f"montecarlo.kernel.{kind}", batch_fn, (stream, cnt), parent=sid)

        return rec.call(
            "montecarlo.pool", orig_batches, (trials, seed, timed_batch, threads),
            sid=sid, attrs={"threads": max(1, int(threads))},
        )

    _replace_everywhere(namespaces, orig_batches, run_batches)

    stream_cls = montecarlo.RngStream
    uniform_below = stream_cls.uniform_below
    words = stream_cls.words
    stream_cls.uniform_below = _wrap(
        rec, "montecarlo.rng", uniform_below,
        lambda args, result: {"m": int(args[1]), "delivered": int(args[2])},
    )
    stream_cls.words = _wrap(
        rec, "montecarlo.rng.draw", words, lambda args, result: {"words": int(args[1])}
    )


# ---------------------------------------------------------------------------
# Aggregation (in the runner)
# ---------------------------------------------------------------------------

LAYERS = ("cli", "sieve", "exact", "constants", "montecarlo")

#: Spans whose self time is reported as <name>.busy_s.
BUSY_SPANS = (
    "sieve.build", "sieve.primes",
    "exact.totient", "exact.mobius", "exact.visible", "exact.fgcd", "exact.kfree",
    "exact.ktuple", "exact.odd_pair", "exact.triple",
    "constants.euler_product", "constants.q3", "constants.delta", "constants.series",
    "montecarlo.kernel.pair", "montecarlo.kernel.triple3", "montecarlo.kernel.gaussian",
    "montecarlo.kernel.det",
    "montecarlo.det.modp", "montecarlo.det.crt", "montecarlo.det.bareiss",
)

#: Spans a traced pass of each workload must contain; a missing one means a
#: wrapper no longer sits where the program looks the name up.
EXPECTED_SPANS = {
    "cli-cold": ("cli.run", "sieve.shared", "sieve.build", "sieve.primes", "exact.totient",
                 "exact.mobius", "exact.visible", "exact.fgcd", "exact.kfree", "exact.ktuple",
                 "exact.odd_pair", "exact.triple", "constants.euler_product", "constants.q3",
                 "constants.delta", "constants.series"),
    "session-warm": ("sieve.shared", "sieve.build", "sieve.primes", "exact.totient",
                     "exact.mobius", "exact.ktuple", "exact.odd_pair", "exact.kfree",
                     "constants.euler_product", "constants.q3", "constants.delta"),
    "mc-serial": ("cli.run", "montecarlo.pool", "montecarlo.rng", "montecarlo.rng.draw",
                  "montecarlo.kernel.pair", "montecarlo.kernel.triple3",
                  "montecarlo.kernel.gaussian", "montecarlo.kernel.det", "montecarlo.det.modp",
                  "montecarlo.det.crt", "montecarlo.det.bareiss"),
}
EXPECTED_SPANS["mc-parallel"] = EXPECTED_SPANS["mc-serial"]

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.busy_s", "s", "lower") for layer in LAYERS]
    + [
        ("cli.run.self_s", "s", "lower"),
        ("sieve.build.calls", "count", "lower"),
        ("sieve.build.max_limit", "count", "lower"),
        ("sieve.shared.hit_ratio", "ratio", "higher"),
        ("sieve.primes.max_limit", "count", "lower"),
        ("exact.crosscheck.skipped", "count", "lower"),
        ("constants.prime_bound", "count", "lower"),
        ("montecarlo.rng.words", "count", "lower"),
        ("montecarlo.rng.busy_s", "s", "lower"),
        ("montecarlo.rng.accept_ratio", "ratio", "higher"),
        ("montecarlo.det.bareiss.lanes", "count", "lower"),
        ("montecarlo.pool.batches", "count", "lower"),
        ("montecarlo.pool.wall_s", "s", "lower"),
        ("montecarlo.pool.efficiency", "ratio", "higher"),
    ]
    + [(f"{name}.busy_s", "s", "lower") for name in BUSY_SPANS]
    + [("trace.overhead_s", "s", "lower")]
)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover (any thread)."""
    children = {}
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        for sid, _, _, t0, t1, _ in spans
    }


def layer_metrics(span_files) -> dict:
    """Per-layer metric values from the span lists of one traced pass."""
    acc = {name: 0.0 for name, _, _ in PER_LAYER}
    shared = hits = delivered = lanes = batch_busy = pool_capacity = 0.0
    for spans in span_files:
        self_t = self_times(spans)
        by_id = {s[0]: s for s in spans}
        child_names = {}
        for sid, parent, name, *_ in spans:
            if parent is not None:
                child_names.setdefault(parent, set()).add(name)
        for sid, parent, name, t0, t1, attrs in spans:
            layer = name.split(".", 1)[0]
            parent_layer = by_id[parent][2].split(".", 1)[0] if parent in by_id else None
            if layer in LAYERS:
                acc[f"{layer}.busy_s"] += self_t[sid]
                if parent_layer != layer:
                    acc[f"{layer}.calls"] += 1
            if name in BUSY_SPANS:
                acc[f"{name}.busy_s"] += self_t[sid]
            if name == "cli.run":
                acc["cli.run.self_s"] += self_t[sid]
            elif name == "sieve.build":
                acc["sieve.build.calls"] += 1
                acc["sieve.build.max_limit"] = max(acc["sieve.build.max_limit"], attrs.get("limit", 0))
            elif name == "sieve.shared":
                shared += 1
                hits += "error" not in attrs and "sieve.build" not in child_names.get(sid, ())
            elif name == "sieve.primes":
                acc["sieve.primes.max_limit"] = max(acc["sieve.primes.max_limit"], attrs.get("limit", 0))
            elif name == "exact.mobius":
                acc["exact.crosscheck.skipped"] += attrs.get("error") == "ResourceLimitError"
            elif name in _PRIME_BOUND_SPANS and "prime_bound" in attrs:
                acc["constants.prime_bound"] = max(acc["constants.prime_bound"], attrs["prime_bound"])
            elif name == "montecarlo.rng":
                acc["montecarlo.rng.busy_s"] += self_t[sid]
                delivered += attrs.get("delivered", 0)
            elif name == "montecarlo.rng.draw":
                acc["montecarlo.rng.busy_s"] += self_t[sid]
                words = attrs.get("words", 0)
                acc["montecarlo.rng.words"] += words
                outer = by_id.get(parent)
                if outer is not None and outer[2] == "montecarlo.rng" and "m" in outer[5]:
                    lanes += words * (2 if outer[5]["m"] <= 1 << 32 else 1)
            elif name == "montecarlo.det.bareiss":
                acc["montecarlo.det.bareiss.lanes"] += 1
            elif name == "montecarlo.pool":
                acc["montecarlo.pool.wall_s"] += t1 - t0
                pool_capacity += attrs["threads"] * (t1 - t0)
            elif name.startswith("montecarlo.kernel."):
                acc["montecarlo.pool.batches"] += 1
                batch_busy += t1 - t0
    acc["sieve.shared.hit_ratio"] = hits / shared if shared else 0.0
    acc["montecarlo.rng.accept_ratio"] = delivered / lanes if lanes else 0.0
    acc["montecarlo.pool.efficiency"] = batch_busy / pool_capacity if pool_capacity else 0.0
    return acc


def missing_spans(expected, span_files) -> list:
    """Names in expected that no span file of the traced pass contains."""
    seen = {s[2] for spans in span_files for s in spans}
    return [name for name in expected if name not in seen]


# ---------------------------------------------------------------------------
# Child entry point
# ---------------------------------------------------------------------------


def main(argv) -> int:
    out_path, target, rest = argv[0], argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    try:
        if target == "cli":
            from coprime_lab import cli

            return rec.call("cli.run", cli.run, (rest,))
        if target == "session":
            import session

            return session.main()
        raise SystemExit(f"unknown target {target!r}")
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
