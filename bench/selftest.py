"""Quick self-test of the benchmark (about half a minute):

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run passes its output checks and emits every metric BENCHMARK.json
names; then checks that a corrupted pinned value and a serial/parallel
count mismatch each show up as a failed operation, and that the runner
refuses to run without the program's sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY_CLI = ("exact triple3 --n 1000", "const zeta --k 3 --eps 1e-12", "const q3 --eps 1e-12")


def tiny_workloads(state_dir: Path) -> list:
    return [
        workloads.cli_cold(keys=TINY_CLI),
        workloads.session_warm(workloads.DEFAULT_SEED, tiny=True),
        workloads.mc("mc-serial", 7, state_dir, trials_scale=0.03),
        workloads.mc("mc-parallel", 7, state_dir, trials_scale=0.03),
    ]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.ROOT / ".bench_tmp"))
    try:
        for trace in (0, 1):
            for workload in tiny_workloads(tmp / f"state{trace}"):
                metrics, attempted, failures, _ = run.run_workload(workload, 0, bool(trace), tmp)
                label = f"{workload.name} trace={trace}"
                if set(metrics) != wanted[trace]:
                    problems.append(f"{label}: metric names differ: {sorted(set(metrics) ^ wanted[trace])}")
                if failures or attempted < 1:
                    problems.append(f"{label}: error_rate {len(failures)}/{attempted}: {failures[:3]}")
                print(f"{label}: {attempted} attempted, {len(failures)} failed")

        key = TINY_CLI[0]
        num, den = workloads.pins.EXACT[key]
        workloads.pins.EXACT[key] = (num + 1, den)
        try:
            _, attempted, failures, _ = run.run_workload(workloads.cli_cold(keys=TINY_CLI), 0, False, tmp)
        finally:
            workloads.pins.EXACT[key] = (num, den)
        print(f"corrupted pin: error_rate {len(failures)}/{attempted}")
        if len(failures) != 1:
            problems.append(f"a corrupted pin gave {len(failures)} failures, expected 1")

        ledger = tmp / "state0" / "mc_counts.json"
        counts = json.loads(ledger.read_text())
        first = sorted(counts)[0]
        counts[first]["mc-parallel"] += 1
        ledger.write_text(json.dumps(counts))
        workload = workloads.mc("mc-serial", 7, ledger.parent, trials_scale=0.03)
        _, attempted, failures, _ = run.run_workload(workload, 0, False, tmp)
        print(f"corrupted thread-count record: error_rate {len(failures)}/{attempted}")
        if len(failures) != 1:
            problems.append(f"a serial/parallel mismatch gave {len(failures)} failures, expected 1")

        bare = tmp / "bare"
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        cmd = [sys.executable, *spec["command"][1:], "--workload", "cli-cold", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        print(f"without sources: exit {proc.returncode}")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the runner ran without the program's sources")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
