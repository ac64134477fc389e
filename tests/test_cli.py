import io
import json
import math

import pytest

from coprime_lab import cli, exact, montecarlo


def run_lines(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    return code, [ln for ln in buf.getvalue().splitlines() if ln]


def run_json(argv):
    code, lines = run_lines(argv)
    assert code == 0, lines
    return [json.loads(ln) for ln in lines]


def test_exact_pair_json():
    (rec,) = run_json(["exact", "pair", "--n", "10"])
    assert rec["experiment"] == "pair"
    assert rec["numerator"] == 31 and rec["denominator"] == 45
    assert rec["value"] == pytest.approx(31 / 45, abs=1e-11)
    assert rec["params"] == {"n": 10}
    assert rec["tool_version"]


def test_exact_visible_csv():
    code, lines = run_lines(["exact", "visible", "--radius", "5", "--format", "csv"])
    assert code == 0
    assert lines[0] == cli.CSV_HEADER
    cols = lines[1].split(",")
    assert cols[0] == "visible"
    assert cols[1] == "5" and cols[2] == "48" and cols[3] == "80"
    assert cols[4] == "0.6"
    assert cols[7] == "" and cols[8] == "" and cols[9] == ""  # no ci/seed for exact


def test_csv_header_is_pinned():
    assert (
        cli.CSV_HEADER
        == "experiment,n,numerator,denominator,value,reference,abs_gap,ci_low,ci_high,seed,elapsed_ms"
    )


def test_const_q3():
    (rec,) = run_json(["const", "q3", "--eps", "1e-6"])
    assert abs(rec["value"] - 0.286747) < 1e-6
    assert rec["params"]["abs_error_bound"] <= 1e-6
    assert "numerator" not in rec and "ci95" not in rec


def test_const_euler_product_at_its_floor():
    (rec,) = run_json(["const", "euler-product", "--eps", "1e-11"])
    assert rec["params"]["abs_error_bound"] <= 1e-11
    assert abs(rec["value"] - 6 / math.pi**2) <= 1e-11


def test_const_below_floor_exits_2():
    code, _ = run_lines(["const", "q3", "--eps", "1e-12"])
    assert code == 2


def test_const_delta_inf():
    (rec,) = run_json(["const", "delta", "--dim", "inf", "--eps", "1e-6"])
    assert abs(rec["value"] - 0.353236) < 5e-6
    (rec,) = run_json(["const", "delta", "--dim", "1", "--eps", "1e-6"])
    assert abs(rec["value"] - 6 / math.pi**2) < 1e-11


def test_mc_pair_record_shape():
    (rec,) = run_json(["mc", "pair", "--max", "1000", "--trials", "20000", "--seed", "42"])
    assert rec["seed"] == 42
    assert rec["ci95"][0] <= rec["value"] <= rec["ci95"][1]
    assert rec["params"]["trials"] == 20000
    assert "numerator" not in rec


def test_reproducible_payloads():
    argv = ["mc", "triple3", "--max", "5000", "--trials", "30000", "--seed", "9"]
    a = run_json(argv)
    b = run_json(argv)
    for rec in (*a, *b):
        rec.pop("elapsed_ms")
        rec.pop("tool_version")
    assert a == b


def test_mc_threads_do_not_change_successes():
    base = ["mc", "pair", "--max", "100000", "--trials", "70000", "--seed", "3"]
    (a,) = run_json(base + ["--threads", "1"])
    (b,) = run_json(base + ["--threads", "8"])
    assert a["params"]["successes"] == b["params"]["successes"]


def test_fgcd_cli_forms():
    (rec,) = run_json(["exact", "fgcd", "--n", "10", "--f", "alpha_n", "--alpha", "sqrt2"])
    assert rec["numerator"] == 6
    (rec,) = run_json(["exact", "fgcd", "--n", "50", "--f", "pow_c", "--c", "1.5"])
    assert rec["denominator"] == 50
    (rec,) = run_json(["exact", "fgcd", "--n", "20", "--f", "alpha_n", "--alpha", "2.5"])
    brute = sum(1 for m in range(1, 21) if math.gcd(m, int(2.5 * m)) == 1)
    assert rec["numerator"] == brute


def test_convergence_pair_gap_decreases():
    recs = run_json(
        ["report", "convergence", "--experiment", "pair", "--ns", "100,1000,10000,100000"]
    )
    assert len(recs) == 5  # four sizes plus the reference row
    gaps = [r["abs_gap"] for r in recs[:-1]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    ref_row = recs[-1]
    assert ref_row["params"] == {"reference_row": True}
    assert ref_row["value"] == pytest.approx(0.607927101854, abs=1e-9)
    assert ref_row["abs_gap"] == 0


def test_convergence_visible_anchor_and_limit():
    recs = run_json(["report", "convergence", "--experiment", "visible", "--ns", "5,50,500"])
    assert recs[0]["numerator"] == 48 and recs[0]["denominator"] == 80
    assert abs(recs[-2]["value"] - 0.608) < 1e-3


def test_convergence_prime_density_decreases_toward_zero():
    recs = run_json(
        ["report", "convergence", "--experiment", "prime-density", "--ns", "1000,10000,100000,1000000"]
    )
    vals = [r["value"] for r in recs[:-1]]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert recs[-1]["value"] == 0.0


def test_convergence_requires_ascending_ns():
    code, _ = run_lines(["report", "convergence", "--experiment", "pair", "--ns", "100,50"])
    assert code == 2


def test_exit_code_invalid_args():
    code, _ = run_lines(["exact", "pair"])  # missing --n
    assert code == 2
    code, _ = run_lines(["exact", "pair", "--n", "1"])  # below the op's domain
    assert code == 2
    code, _ = run_lines(["exact", "nonsense", "--n", "4"])
    assert code == 2


def test_exit_code_resource_limit():
    code, _ = run_lines(["exact", "triple3", "--n", "100000"])
    assert code == 3


def test_exit_code_internal_error(monkeypatch):
    def boom(n):
        raise AssertionError("cross-check failed")

    monkeypatch.setattr(exact, "coprime_pair_count", boom)
    code, _ = run_lines(["exact", "pair", "--n", "10"])
    assert code == 1


def test_sieve_limit_env_respected(monkeypatch):
    # odd pairs at n = 1e7 read the Mertens function off a base table of
    # about n^(2/3) = 46,416 entries, above the 10,000 limit
    monkeypatch.setenv("COPRIME_LAB_SIEVE_LIMIT", "10000")
    code, _ = run_lines(["exact", "odd-pair", "--n", "10000000"])
    assert code == 3


def test_out_file(tmp_path):
    path = tmp_path / "records.jsonl"
    code = cli.run(["exact", "squarefree", "--n", "100", "--out", str(path)])
    assert code == 0
    rec = json.loads(path.read_text().strip())
    assert rec["numerator"] == 61


def test_triple3_convergence_mc_fallback():
    recs = run_json(
        ["report", "convergence", "--experiment", "triple3", "--ns", "100,5000", "--seed", "4"]
    )
    assert "numerator" in recs[0]
    assert "ci95" in recs[1] and recs[1]["seed"] == 4
    code, _ = run_lines(["report", "convergence", "--experiment", "triple3", "--ns", "100,5000"])
    assert code == 3  # needs a seed past the brute-force bound


def test_convergence_rejects_empty_ns():
    for ns in (",", ""):
        code, _ = run_lines(["report", "convergence", "--experiment", "pair", "--ns", ns])
        assert code == 2, ns


def test_unwritable_out_fails_before_work(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(exact, "coprime_pair_count", lambda n: calls.append(n))
    path = tmp_path / "missing" / "x.json"
    assert cli.run(["exact", "pair", "--n", "10", "--out", str(path)]) == 2
    assert cli.run(["exact", "pair", "--n", "10", "--out", str(tmp_path)]) == 2
    assert calls == []
    assert not path.parent.exists()


def test_threads_below_one_rejected(monkeypatch):
    calls = []
    monkeypatch.setattr(montecarlo, "estimate_coprime_pair", lambda *a: calls.append(a))
    for threads in ("0", "-3"):
        argv = ["mc", "pair", "--trials", "100", "--seed", "1", "--threads", threads]
        assert cli.run(argv, out=io.StringIO()) == 2
    assert calls == []


@pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1e-9"])
def test_const_eps_must_be_finite_and_positive(eps, capsys):
    code, lines = run_lines(["const", "zeta", "--k", "3", f"--eps={eps}"])
    assert code == 2 and lines == []
    assert "--eps" in capsys.readouterr().err
