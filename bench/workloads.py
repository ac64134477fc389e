"""The benchmark's four workloads: operation lists and output checks.

Every operation is one child process. A ``cli`` operation is a fresh
``python -m coprime_lab.cli`` run; the ``session`` operation is one
long-lived process (``bench/session.py``) that answers a seeded stream of
library queries. Each check returns a list of failure messages, one per
failed operation, so a miss always counts against ``attempted``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable

import pins
import spans

#: Seed whose Monte Carlo counts and session answers are pinned.
DEFAULT_SEED = 1

MC_THREADS = {"mc-serial": 1, "mc-parallel": 2}


@dataclass(frozen=True)
class Op:
    key: str  # label, and the key of the operation's pins
    target: tuple  # ("cli", *argv) or ("session",)
    check: Callable[[int, str], list]  # (exit code, stdout) -> failure messages
    stdin: bytes = b""
    size: int = 1  # operations this process answers


@dataclass
class Workload:
    name: str
    ops: list
    spans: tuple = ()  # span names a traced pass must contain
    finish: Callable[[], list] = field(default=lambda: [])  # run-level checks


def _records(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _check_exact(key, expected):
    def check(rc, out):
        if rc != 0:
            return [f"{key}: exit {rc}"]
        (rec,) = _records(out)
        got = (rec.get("numerator"), rec.get("denominator"))
        if got != tuple(expected):
            return [f"{key}: got {got[0]}/{got[1]}, pinned {expected[0]}/{expected[1]}"]
        return []

    return check


def _print_rounding(value: float) -> float:
    """Half a unit in the 12th significant digit, the CLI's print precision."""
    if value == 0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def _check_const(key, ref_name):
    def check(rc, out):
        if rc != 0:
            return [f"{key}: exit {rc}"]
        (rec,) = _records(out)
        value, bound = rec["value"], rec["params"]["abs_error_bound"]
        err = abs(Decimal(repr(value)) - Decimal(pins.CONSTANTS[ref_name]))
        if err > Decimal(repr(bound + _print_rounding(value))):
            return [f"{key}: |{value} - {ref_name}| = {err:.3e} exceeds bound {bound:.3e}"]
        return []

    return check


def _check_refusal(key, code):
    def check(rc, out):
        if rc != code or out.strip():
            return [f"{key}: exit {rc}, expected {code} with no output"]
        return []

    return check


CLI_CONST = {
    "const zeta --k 3 --eps 1e-12": "zeta3",
    "const catalan --eps 1e-9": "catalan",
    "const q3": "q3",
    "const delta --dim inf": "delta_inf",
    "const euler-product --eps 1e-9": "inv_zeta2",
}

CLI_REFUSALS = {
    "exact triple3 --n 5000": 3,
    "exact visible --radius 20000000": 3,
    "const q3 --eps 1e-12": 2,
}


def cli_cold(keys=None) -> Workload:
    ops = []
    for key, expected in pins.EXACT.items():
        ops.append(Op(key, ("cli", *key.split()), _check_exact(key, expected)))
    for key, ref in CLI_CONST.items():
        ops.append(Op(key, ("cli", *key.split()), _check_const(key, ref)))
    for key, code in CLI_REFUSALS.items():
        ops.append(Op(key, ("cli", *key.split()), _check_refusal(key, code)))
    if keys is not None:
        ops = [op for op in ops if op.key in keys]
        return Workload("cli-cold", ops)
    return Workload("cli-cold", ops, spans.EXPECTED_SPANS["cli-cold"])


# ---------------------------------------------------------------------------
# session-warm
# ---------------------------------------------------------------------------

SESSION_KINDS = ("pair", "odd-pair", "gcd-eq", "ktuple", "squarefree", "prime-density")

#: The session opens at the top of its range, so the shared table is built
#: once, at a size that does not depend on the seed, and later queries read it.
SESSION_OPENER = ["pair", 10**7]

SESSION_CONSTS = [
    ["euler-product", 1e-9],
    ["q3", 1e-8],
    ["delta", None, 1e-8],
    ["delta", 6, 1e-8],
]

_CONST_REF = {"euler-product": "inv_zeta2", "q3": "q3", "delta": "delta_inf"}


def session_queries(seed: int, per_kind: int, n_max: int = 10**7, full: bool = True) -> list:
    """Seeded query stream: per kind, one n per equal slice of log [1e3, n_max]."""
    rng = random.Random(seed)
    lo, hi = math.log10(1000), math.log10(n_max)
    queries = []
    for kind in SESSION_KINDS:
        for i in range(per_kind):
            n = int(10 ** (lo + (hi - lo) * (i + rng.random()) / per_kind))
            if kind == "gcd-eq":
                queries.append([kind, n, rng.randint(2, 6)])
            elif kind == "ktuple":
                queries.append([kind, n, 3])
            else:
                queries.append([kind, n])
    rng.shuffle(queries)
    if not full:
        return queries + SESSION_CONSTS[1:2]
    return [SESSION_OPENER] + queries + SESSION_CONSTS


def _expected_den(kind, n):
    if kind in ("pair", "gcd-eq"):
        return n * (n - 1) // 2
    if kind == "odd-pair":
        m = (n + 1) // 2
        return m * (m - 1) // 2
    if kind == "ktuple":
        return n**3
    return n


def _error_term(query, num) -> tuple:
    """(|count - main term|, proven bound on it) for an exact session answer.

    Pair counts: Phi(m) = 3m^2/pi^2 + E with |E| <= 2m(ln m + 2), from the
    Mobius sum with floors replaced by their arguments; odd pairs likewise;
    ktuple k=3: |E| <= 5n^2 + n; squarefree: |E| <= 3 sqrt(n) + 1; primes:
    x/ln x < pi(x) < 1.25506 x/ln x (Rosser-Schoenfeld, x >= 17).
    """
    kind, n = query[0], query[1]
    pi2 = Decimal("9.869604401089358618834490999876")
    if kind in ("pair", "gcd-eq"):
        m = n // query[2] if kind == "gcd-eq" else n
        main = 3 * Decimal(m) ** 2 / pi2
        return abs(Decimal(num + 1) - main), 2 * m * (math.log(m) + 2)
    if kind == "odd-pair":
        main = 2 * Decimal(n) ** 2 / pi2
        return abs(Decimal(2 * num + 1) - main), n * (math.log(n) + 3)
    if kind == "ktuple":
        main = Decimal(n) ** 3 / Decimal("1.202056903159594285399738161511")
        return abs(Decimal(num) - main), 5 * n * n + n
    if kind == "squarefree":
        return abs(Decimal(num) - 6 * Decimal(n) / pi2), 3 * math.sqrt(n) + 1
    lo, hi = n / math.log(n), 1.25506 * n / math.log(n)
    mid = (lo + hi) / 2
    return abs(num - mid), (hi - lo) / 2


def _check_session(queries, pinned):
    def check(rc, out):
        lines = _records(out) if rc == 0 else []
        if len(lines) != len(queries):
            return [f"session: exit {rc}, {len(lines)} answers to {len(queries)} queries"] * len(queries)
        fails = []
        for i, (query, ans) in enumerate(zip(queries, lines)):
            label = " ".join(map(str, query))
            if isinstance(ans, dict):
                fails.append(f"{label}: {ans['error']}")
                continue
            if pinned is not None and pinned[i] is not None and tuple(ans[:2]) != pinned[i]:
                fails.append(f"{label}: got {ans[0]}/{ans[1]}, pinned {pinned[i][0]}/{pinned[i][1]}")
                continue
            kind = query[0]
            if kind in _CONST_REF:
                ref = "delta_6" if kind == "delta" and query[1] == 6 else _CONST_REF[kind]
                err = abs(Decimal(repr(ans[0])) - Decimal(pins.CONSTANTS[ref]))
                if err > Decimal(repr(ans[1])):
                    fails.append(f"{label}: off {ref} by {err:.3e} > bound {ans[1]:.3e}")
                continue
            num, den, value = ans
            gap, bound = _error_term(query, num)
            if den != _expected_den(kind, query[1]) or value != num / den or gap > Decimal(bound):
                fails.append(f"{label}: {num}/{den} fails its error-term check")
        return fails

    return check


def session_warm(seed: int, tiny: bool = False) -> Workload:
    if tiny:
        queries = session_queries(seed, 2, n_max=10**5, full=False)
        pinned, expect = None, ()
    else:
        queries = session_queries(seed, 30)
        pinned = pins.SESSION_DEFAULT if seed == DEFAULT_SEED else None
        expect = spans.EXPECTED_SPANS["session-warm"]
    op = Op(
        f"session {len(queries)} queries",
        ("session",),
        _check_session(queries, pinned),
        stdin=json.dumps(queries).encode(),
        size=len(queries),
    )
    return Workload("session-warm", [op], expect)


# ---------------------------------------------------------------------------
# mc-serial / mc-parallel
# ---------------------------------------------------------------------------

MC_OPS = (
    "mc pair --max 1000000000 --trials 4000000",
    "mc triple3 --max 1000000 --trials 2000000",
    "mc gaussian --box 1000 --trials 1000000",
    "mc det --dim 6 --entry-max 1000 --trials 200000",
    "mc det --dim 3 --entry-max 10 --trials 200000",
)


def mc_key(op: str, seed: int) -> str:
    """The command without --threads: the same key for both mc workloads."""
    return f"{op} --seed {seed}"


def mc_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


class McLedger:
    """Success counts by seed and operation, kept in a file in the checkout.

    A count must equal the pinned one for the default seed, and the count the
    other mc workload recorded for the same seed and operation; thread count
    never changes successes.
    """

    def __init__(self, path: Path, workload: str):
        self.path = path
        self.workload = workload
        self.counts = json.loads(path.read_text()) if path.exists() else {}
        self.seen = {}

    def check(self, key, rate_key):
        def check(rc, out):
            if rc != 0:
                return [f"{key}: exit {rc}"]
            (rec,) = _records(out)
            succ, trials = rec["params"]["successes"], rec["params"]["trials"]
            if self.seen.get(key, succ) != succ:
                return [f"{key}: {succ} successes, {self.seen[key]} in an earlier pass"]
            if key in pins.MC_DEFAULT and succ != pins.MC_DEFAULT[key]:
                return [f"{key}: {succ} successes, pinned {pins.MC_DEFAULT[key]}"]
            # Any seed: within 6 sigma of the pinned default-seed rate.
            p = pins.MC_DEFAULT[rate_key] / _trials(rate_key)
            if abs(succ - trials * p) > 6 * math.sqrt(2 * trials * p * (1 - p)):
                return [f"{key}: {succ}/{trials} is implausible against rate {p:.5f}"]
            self.seen[key] = succ
            return []

        return check

    def finish(self) -> list:
        fails = []
        for key, succ in self.seen.items():
            mine = self.counts.setdefault(key, {})
            for other, theirs in mine.items():
                if theirs != succ:
                    fails.append(f"{key}: {succ} successes on {self.workload}, {theirs} on {other}")
            mine[self.workload] = succ
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.counts, indent=0, sort_keys=True))
        tmp.replace(self.path)
        return fails


def _trials(op: str) -> int:
    args = op.split()
    return int(args[args.index("--trials") + 1])


def mc(name: str, seed: int, state_dir: Path, trials_scale: float = 1.0) -> Workload:
    ledger = McLedger(state_dir / "mc_counts.json", name)
    ops = []
    for i, op in enumerate(MC_OPS):
        full_key = mc_key(op, mc_seed(DEFAULT_SEED, i))
        cmd = op
        if trials_scale != 1.0:
            trials = max(1, int(_trials(op) * trials_scale))
            cmd = op.replace(f"--trials {_trials(op)}", f"--trials {trials}")
        key = mc_key(cmd, mc_seed(seed, i))
        argv = (*key.split(), "--threads", str(MC_THREADS[name]))
        ops.append(Op(key, ("cli", *argv), ledger.check(key, full_key)))
    expect = spans.EXPECTED_SPANS[name] if trials_scale == 1.0 else ()
    return Workload(name, ops, expect, ledger.finish)


NAMES = ("cli-cold", "session-warm", "mc-serial", "mc-parallel")


def build(name: str, seed: int, state_dir: Path) -> Workload:
    if name == "cli-cold":
        return cli_cold()
    if name == "session-warm":
        return session_warm(seed)
    return mc(name, seed, state_dir)
