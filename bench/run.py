"""coprime-lab benchmark runner.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 24 --trace 0

Runs one workload as a closed loop from this process: one client, and the
next operation starts only when the previous one returns. Every operation is
a child process (``python -m coprime_lab.cli ...`` or ``bench/session.py``)
built from the checkout's ``src/``; its wall time, CPU time and peak RSS come
from ``wait4``. Passes over the operation list repeat until ``--seconds`` is
used up; the end-to-end metrics are medians over passes.

With ``--trace 1`` it makes one untraced pass and one traced pass (children
run under ``bench/spans.py``) and reports the per-layer metrics instead.

The last line of stdout is the result object; the line before it holds the
details: machine facts, the seed, per-pass figures, ``error_rate`` and the
first failure messages. See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_SAMPLES = 9

#: Per-pass figures reported as medians over passes, with their units.
PASS_METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("COPRIME_LAB_SIEVE_LIMIT", None)
    return env


def run_child(argv, stdin: bytes, tmp: Path):
    """Run one child to completion: (exit code, stdout, wall s, cpu s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as inp:
        inp.write(stdin)
        inp.seek(0)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdin=inp, stdout=out, stderr=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, text, wall, cpu, usage.ru_maxrss / 1024.0


def command(op, trace_out=None) -> list:
    target = list(op.target)
    if trace_out is not None:
        return [str(BENCH / "spans.py"), str(trace_out), *target]
    if target[0] == "cli":
        return ["-m", "coprime_lab.cli", *target[1:]]
    return [str(BENCH / "session.py")]


def run_pass(workload, tmp: Path, trace_dir: Path | None = None) -> dict:
    """One pass over the operation list, closed loop."""
    wall = cpu = rss = 0.0
    failures = []
    per_op = []
    for i, op in enumerate(workload.ops):
        trace_out = None if trace_dir is None else trace_dir / f"{i}.json"
        rc, out, w, c, r = run_child(command(op, trace_out), op.stdin, tmp)
        try:
            fails = op.check(rc, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            fails = [f"{op.key}: unreadable output ({type(exc).__name__}: {exc})"] * op.size
        failures += fails[: op.size]
        wall += w
        cpu += c
        rss = max(rss, r)
        per_op.append(round(w, 4))
    attempted = sum(op.size for op in workload.ops)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "attempted": attempted,
            "failures": failures, "per_op_s": per_op}


def measure_setup(tmp: Path) -> float:
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        rc, _, wall, _, _ = run_child(["-c", "import coprime_lab.cli"], b"", tmp)
        if rc != 0:
            raise RuntimeError("import coprime_lab.cli failed")
        if i:
            samples.append(wall)
    return statistics.median(samples)


def machine_facts(seed: int) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    ram_kb = None
    for line in (read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            ram_kb = int(line.split()[1])
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": None if ram_kb is None else round(ram_kb / 1024),
        "cpu_model": cpu_model or platform.processor(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
    }


def run_workload(workload, seconds: float, trace: bool, tmp: Path):
    """Returns (metrics, attempted, failures, details)."""
    passes = []
    metrics = {}
    if trace:
        untraced = run_pass(workload, tmp)
        trace_dir = Path(tempfile.mkdtemp(dir=tmp))
        traced = run_pass(workload, tmp, trace_dir)
        files = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        values = spans.layer_metrics(files)
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        passes = [untraced, traced]
        missing = spans.missing_spans(workload.spans, files)
        coverage = [f"traced pass has no span {', '.join(missing)}"] if missing else []
    else:
        setup = measure_setup(tmp)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, tmp))
            last = time.perf_counter() - t0
            # Start another pass only if it should end within half a pass of
            # the budget, so a run lasts about --seconds at any pass length.
            if time.perf_counter() - start + last > seconds + last / 2:
                break
        for name, unit in PASS_METRICS:
            metrics[name] = {"value": statistics.median(p[name] for p in passes), "unit": unit}
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        coverage = []
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]] + coverage + workload.finish()
    details = {
        "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "per_op_s": passes[-1]["per_op_s"],
    }
    return metrics, attempted, failures, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coprime_lab" / "cli.py").is_file():
        print(f"no coprime_lab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, ROOT / ".bench_state")
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        metrics, attempted, failures, details = run_workload(
            workload, args.seconds, bool(args.trace), tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "error_rate": len(failures) / attempted,
        **details,
        "failures": failures[:20],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
