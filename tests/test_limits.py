"""The limits table: refusals pinned at the code before it, and its rows.

tests/refusal_pins.json holds, for every case of the boundary grid in
refusal_grid.py, the exit code and stderr of the CLI command and the
exception type and message of the library call, as the code before the
limits table gave them. A refused case must still be refused alike, with
no step of work started; an accepted case needs only pass the check, so no
cap-sized run starts.
"""

import argparse
import io
import json
from pathlib import Path

import pytest
import refusal_grid as grid

from coprime_lab import cli, exact, limits
from coprime_lab.errors import ResourceLimitError

PINS = json.loads(Path(__file__).with_name("refusal_pins.json").read_text(encoding="utf-8"))
CASES = grid.cases({op: e.flags for op, e in cli.EXACT.items()}, {op: e.n for op, e in cli.MC.items()})


def _usage_free(outcome):
    """An argparse error's usage lines wrap to the terminal width: keep its message line."""
    if outcome != "accepted" and outcome[1].startswith("usage:"):
        return [outcome[0], outcome[1].splitlines()[-1]]
    return outcome


def test_grid_is_the_pinned_grid():
    assert [c["id"] for c in CASES] == list(PINS)


def test_cli_refusals_match_the_pins():
    wrong = []
    for case in CASES:
        pinned = PINS[case["id"]]["cli"]
        if pinned == "accepted":
            with grid.stubbed(case["env"]):
                args = cli._build_parser().parse_args(case["argv"])
                try:
                    args.check(args)
                except Exception as exc:  # noqa: BLE001 - any refusal is a mismatch
                    wrong.append((case["id"], "accepted", repr(exc)))
        elif (got := _usage_free(grid.run_cli(case))) != _usage_free(pinned):
            wrong.append((case["id"], pinned, got))
    assert wrong == []


def test_library_refusals_match_the_pins():
    wrong = []
    for case in CASES:
        pinned = PINS[case["id"]]["library"]
        if pinned == "accepted":
            with grid.stubbed(case["env"]):
                try:
                    limits.check(case["function"], **grid.library_args(case))
                except Exception as exc:  # noqa: BLE001 - any refusal is a mismatch
                    wrong.append((case["id"], "accepted", repr(exc)))
        elif (got := grid.run_library(case)) != pinned:
            wrong.append((case["id"], pinned, got))
    assert wrong == []


def test_every_cli_experiment_has_a_row():
    functions = {e.function for e in (*cli.EXACT.values(), *cli.MC.values())}
    assert functions <= set(limits.RULES)


def test_check_ignores_arguments_no_rule_reads():
    limits.check("estimate_coprime_pair", range_max=10, trials=10, seed=-5, threads=10**30)
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        limits.check("estimate_coprime_pair", range_max=10, trials=0, seed=1)


def test_sieve_need_is_the_first_table_a_count_asks_for(monkeypatch):
    # the refusal names the same table size as the cache would
    monkeypatch.setenv(grid.SIEVE_ENV, "20000")
    n = 10**7
    need = limits.table_need(n)
    assert need == min(n, max(limits.SMALL_TABLE, limits.iroot(n * n, 3))) == 46415
    with pytest.raises(ResourceLimitError, match=f"up to {need}, above the configured limit 20000"):
        limits.check("coprime_pair_count", n=n)
    with pytest.raises(ResourceLimitError, match=f"up to {need}, above"):
        exact.coprime_pair_count(n)


def test_convergence_checks_every_size_before_the_first_row(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(exact, "coprime_pair_count", lambda n: calls.append(n))
    argv = ["report", "convergence", "--experiment", "pair", "--ns", f"10,{10**30}"]
    assert cli.run(argv, out=io.StringIO()) == 3
    assert calls == []
    assert "operation needs sieve tables up to" in capsys.readouterr().err
    argv = ["report", "convergence", "--experiment", "triple3", "--ns", f"10,{2**63}", "--seed", "1"]
    assert cli.run(argv, out=io.StringIO()) == 2
    assert "range_max must be in [1, 2^62]" in capsys.readouterr().err


def test_cli_checks_before_it_loads_a_layer(monkeypatch):
    loads = []
    monkeypatch.setattr(cli._Layer, "load", lambda self: loads.append(self._name))
    for argv in ("exact triple3 --n 5000", "mc det --dim 9", "exact pair --n 1 --k 3",
                 "report convergence --experiment visible --ns 5,20000000"):
        assert cli.run(argv.split(), out=io.StringIO()) in (2, 3), argv
    assert set(loads) == {"coprime_lab.limits"}  # stdlib only


def test_check_reads_the_sieve_cap_when_it_runs(monkeypatch):
    args = argparse.Namespace(operation="pair", n=5000)
    monkeypatch.setenv(grid.SIEVE_ENV, "1000")
    with pytest.raises(ResourceLimitError):
        cli._check_exact(args)
    monkeypatch.delenv(grid.SIEVE_ENV)
    cli._check_exact(args)
