import io
import json
import math
import subprocess
import sys
import types

import coprime_lab
import mpmath as mp
import oracle
import pytest

from coprime_lab import cli, exact, limits, montecarlo, sieve


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


def test_exact_kfree_numerator_below_2_pow_64_is_a_json_integer():
    # the count is summed in uint64 lanes; json.dumps refuses a numpy integer
    code, (line,) = run_lines(["exact", "kfree", "--n", str(2**64 - 1), "--j", "4"])
    assert code == 0
    assert '"numerator": 17043655258566511333,' in line
    assert json.loads(line)["numerator"] == exact.kfree_count(2**64 - 1, 4).numerator


def test_exact_visible_csv():
    code, lines = run_lines(["exact", "visible", "--radius", "5", "--format", "csv"])
    assert code == 0
    assert lines[0] == cli.CSV_HEADER
    cols = lines[1].split(",")
    assert cols[0] == "visible"
    assert cols[1] == "5" and cols[2] == "48" and cols[3] == "80"
    assert cols[4] == "0.6"
    assert cols[7] == "" and cols[8] == "" and cols[9] == ""  # no ci/seed for exact


def test_experiment_record_keyword_defaults_and_assignable_elapsed_ms():
    rec = cli.ExperimentRecord(experiment="pair", n=10, params={"n": 10}, value=0.5)
    assert [rec.numerator, rec.denominator, rec.reference, rec.abs_gap, rec.ci95, rec.seed,
            rec.elapsed_ms] == [None] * 7
    assert rec.tool_version == coprime_lab.__version__
    rec.elapsed_ms = 3
    assert json.loads(rec.json_line())["elapsed_ms"] == 3
    assert rec.csv_row() == "pair,10,,,0.5,,,,,,3"


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mc_pair_pinned_successes_at_any_thread_count(threads):
    # the benchmark's pinned mc pair run
    argv = "mc pair --max 1000000000 --trials 4000000 --seed 1000 --threads".split() + [threads]
    (rec,) = run_json(argv)
    assert rec["params"]["successes"] == 2432039


@pytest.mark.parametrize("argv, message", [
    ("mc pair --max 5000000000000000000",
     "range_max must be in [1, 2^62], got 5000000000000000000"),
    ("mc triple3 --max 0", "range_max must be in [1, 2^62], got 0"),
    ("mc det --entry-max 5000000000000000000",
     "entry_max must be in [2, 2^62], got 5000000000000000000"),
    ("mc det --symmetric-entries --entry-max 4000000000000000000",
     "entry_max must be in [2, 2^61 with symmetric entries], got 4000000000000000000"),
])
def test_mc_size_refused_before_any_batch(argv, message, monkeypatch, capsys):
    batches = []
    monkeypatch.setattr(montecarlo, "_run_batches", lambda *a: batches.append(a))
    code, lines = run_lines(argv.split() + ["--trials", "100"])
    assert (code, lines, batches) == (2, [], [])
    assert capsys.readouterr().err == f"invalid arguments: {message}\n"


@pytest.mark.parametrize("op", list(cli.MC))
def test_mc_trials_cap_refused_before_any_batch(op, monkeypatch):
    batches = []
    monkeypatch.setattr(montecarlo, "_run_batches", lambda *a: batches.append(a) or 0)
    cap = limits.TRIALS_MAX[op]
    assert run_lines(["mc", op, "--trials", str(cap + 1)]) == (3, []) and batches == []
    code, _ = run_lines(["mc", op, "--trials", str(cap)])
    assert code == 0 and len(batches) == 1


def test_every_experiment_at_size_1e30_refused_before_any_work():
    # each exact entry at size 10^30 (other flags 2), and each mc entry with
    # 10^30 trials and then at size 10^30, in a fresh process one at a time
    # so that a run that starts working fails on the wall time
    big, wall_s = str(10**30), 5.0
    runs = []
    for op, e in cli.EXACT.items():
        others = [a for f in e.flags[1:] if f != "f" for a in (f"--{f}", "2")]
        runs.append(["exact", op, f"--{e.flags[0]}", big, *others])
    for op, e in cli.MC.items():
        runs += [["mc", op, flag, big] for flag in ("--trials", "--" + e.n.replace("_", "-"))]
    slow, wrong = [], []
    for argv in runs:
        try:
            proc = subprocess.run([sys.executable, "-m", "coprime_lab.cli", *argv],
                                  capture_output=True, text=True, timeout=wall_s)
        except subprocess.TimeoutExpired:
            slow.append(" ".join(argv))
            continue
        if proc.returncode not in (2, 3) or proc.stdout:
            wrong.append((" ".join(argv), proc.returncode, proc.stderr))
    assert (slow, wrong) == ([], [])


def test_over_budget_fgcd_and_det_refused_before_any_work():
    # each in a fresh process, so that a run that starts working fails on the
    # wall time: fgcd lanes past 2^52 or past float64 range go to exact roots
    # (hours at c = 1000.5, tens of seconds at c = 7.5 and 3.5), c = 100000.5
    # passes floor_f's bit guard at n, and dim-8 determinants with entries
    # near 2^62 cost about 85 us a trial, so 2e7 would take about half an hour
    runs = [f"exact fgcd --n 10000000 --f pow_c --c {c}" for c in ("1000.5", "7.5", "3.5", "100000.5")]
    runs.append(f"mc det --dim 8 --entry-max {2**62} --trials 20000000")
    wrong = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "coprime_lab.cli", *argv.split()],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode != 3 or proc.stdout:
            wrong.append((argv, proc.returncode, proc.stderr))
    assert wrong == []


def test_fgcd_cli_forms():
    (rec,) = run_json(["exact", "fgcd", "--n", "10", "--f", "alpha_n", "--alpha", "sqrt2"])
    assert rec["numerator"] == 6
    (rec,) = run_json(["exact", "fgcd", "--n", "50", "--f", "pow_c", "--c", "1.5"])
    assert rec["denominator"] == 50
    (rec,) = run_json(["exact", "fgcd", "--n", "20", "--f", "alpha_n", "--alpha", "2.5"])
    brute = sum(1 for m in range(1, 21) if math.gcd(m, int(2.5 * m)) == 1)
    assert rec["numerator"] == brute


def test_fgcd_cli_tiny_exponent_returns_at_once():
    # c = 1/10^400 floors every m^c to 1, so all five m count; a fresh
    # process, so that a hang fails on the timeout
    argv = ["exact", "fgcd", "--n", "5", "--f", "pow_c", "--c", "1e-400"]
    proc = subprocess.run(
        [sys.executable, "-m", "coprime_lab.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert (rec["numerator"], rec["denominator"]) == (5, 5)


def test_fgcd_cli_tiny_alpha():
    # alpha = 1e-400 floors every alpha*m to 0; only m = 1 counts
    (rec,) = run_json(["exact", "fgcd", "--n", "10", "--f", "alpha_n", "--alpha", "1e-400"])
    assert (rec["numerator"], rec["denominator"]) == (1, 10)


def test_const_dim_must_be_int_or_inf(capsys):
    code, lines = run_lines(["const", "delta", "--dim", "abc"])
    assert code == 2 and lines == []
    assert "--dim" in capsys.readouterr().err


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


def test_rows_under_1_ms_keep_their_own_elapsed_ms(monkeypatch):
    # a clock that reads 0, 0.4, 0.8, ... ms: the run's clock starts first, each
    # row reads two ticks and the run's clock ends last
    ticks = iter(range(100))
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 4e-4 * next(ticks)))
    recs = run_json(["report", "convergence", "--experiment", "pair", "--ns", "10,20,30"])
    assert [r["elapsed_ms"] for r in recs] == [0, 0, 0, 2]  # three rows, then the whole run


def test_refusal_names_the_bound_of_the_series_constant_asked_for(capsys):
    for argv in (["zeta", "--k", "2"], ["invzeta", "--k", "2"], ["catalan"], ["gaussian"],
                 ["delta", "--dim", "1"]):
        (rec,) = run_json(["const", *argv])
        bound = rec["params"]["abs_error_bound"]
        capsys.readouterr()
        code, lines = run_lines(["const", *argv, "--eps", "1e-300"])
        assert code == 2 and lines == [], argv
        assert f"certified bound {bound:.2e} exceeds" in capsys.readouterr().err, argv


def test_refusal_names_the_floor_of_the_product_constant_asked_for(capsys):
    for argv in (["euler-product"], ["q3"], ["delta", "--dim", "6"], ["delta", "--dim", "inf"]):
        code, lines = run_lines(["const", *argv, "--eps", "1e-300"])
        assert code == 2 and lines == [], argv
        assert "euler product eps floor is 1e-11" in capsys.readouterr().err, argv


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
    # visible reads mu up to its radius
    code, _ = run_lines(["exact", "visible", "--radius", "20000"])
    assert code == 3
    # prime-density reads primes up to isqrt(x): 10^4 fits, 10001 does not
    (rec,) = run_json(["exact", "prime-density", "--x", "100000000"])
    assert rec["numerator"] == 5761455
    code, _ = run_lines(["exact", "prime-density", "--x", "100020001"])
    assert code == 3
    # the limit is exactly the cap it names: prime-density at 1e6 reads
    # primes up to 1000, above 500, while the constants read no table
    monkeypatch.setenv("COPRIME_LAB_SIEVE_LIMIT", "500")
    monkeypatch.setattr(sieve, "_shared", None)
    code, _ = run_lines(["exact", "prime-density", "--x", "1000000"])
    assert code == 3
    code, _ = run_lines(["const", "q3"])
    assert code == 0


def test_prime_density_cap_refused_before_any_table(monkeypatch):
    def no_build(limit):
        raise AssertionError(f"built a table up to {limit}")

    monkeypatch.setattr(sieve, "_shared", None)
    monkeypatch.setattr(sieve, "build_sieve", no_build)
    assert run_lines(["exact", "prime-density", "--x", "100000000001"]) == (3, [])


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


def test_convergence_rejects_empty_ns(capsys):
    for ns in (",", "", "abc"):
        code, _ = run_lines(["report", "convergence", "--experiment", "pair", "--ns", ns])
        assert code == 2, ns
        assert "--ns" in capsys.readouterr().err, ns


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


@pytest.mark.parametrize("argv, flag", [
    ("const odd --eps 1e-3", "--eps"),
    ("const pair --eps 1e-3", "--eps"),
    ("exact pair --n 10 --k 3", "--k"),
    ("exact visible --radius 5 --n 5", "--n"),
    ("exact gcd-eq --n 10 --t 2 --x 3", "--x"),
    ("exact kfree --n 10 --j 2 --radius 3", "--radius"),
    ("exact squarefree --n 10 --alpha 2", "--alpha"),
    ("exact ktuple --n 10 --k 3 --c 1.5", "--c"),
    ("exact pair --n 10 --f pow_c", "--f"),
    ("exact fgcd --n 10 --f alpha_n --c 1.5", "--c"),
    ("exact fgcd --n 10 --c 1.5", "--c"),
    ("exact fgcd --n 10 --f pow_c --alpha 2 --c 1.5", "--alpha"),
    ("const zeta --dim 3", "--dim"),
    ("const q3 --k 5", "--k"),
    ("const q3 --k 2", "--k"),
    ("const delta --dim 3 --k 2", "--k"),
    ("mc pair --trials 10 --dim 5", "--dim"),
    ("mc pair --trials 10 --dim 2", "--dim"),
    ("mc det --trials 10 --max 5", "--max"),
    ("mc gaussian --trials 10 --entry-max 7", "--entry-max"),
    ("mc pair --trials 10 --symmetric-entries", "--symmetric-entries"),
    ("mc triple3 --trials 10 --box 9", "--box"),
])
def test_unread_flag_refused(argv, flag, capsys):
    code, lines = run_lines(argv.split())
    err = capsys.readouterr().err
    assert (code, lines) == (2, []), argv
    assert err == f"invalid arguments: {argv.split()[1]} does not read {flag}\n", err


@pytest.mark.parametrize("argv, params", [
    ("exact fgcd --n 10", {"n": 10, "f": "sqrt2*n"}),
    ("const zeta", {"k": 2, "eps": 1e-9}),
    ("const delta", {"dim": "inf", "eps": 1e-9}),
    ("mc pair --trials 10", {"range_max": 10**9}),
    ("mc gaussian --trials 10", {"box_half_width": 1000}),
    ("mc det --trials 10", {"dim": 2, "entry_max": 1000, "symmetric_entries": False}),
])
def test_omitted_flags_take_their_defaults(argv, params):
    (rec,) = run_json(argv.split())
    assert {k: rec["params"][k] for k in params} == params


@pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1e-9"])
def test_const_eps_must_be_finite_and_positive(eps, capsys):
    code, lines = run_lines(["const", "zeta", "--k", "3", f"--eps={eps}"])
    assert code == 2 and lines == []
    assert "--eps" in capsys.readouterr().err


# One small command per experiment of each subcommand, one convergence table
# and two CSV runs, captured whole from the program: params and their key
# order, the CSV n column and the const_ tags are all pinned.
RECORDS = {
    "exact pair --n 10": [
        {"experiment": "pair", "params": {"n": 10}, "numerator": 31, "denominator": 45,
         "value": 0.688888888889, "reference": 0.607927101854, "abs_gap": 0.0809617870349,
         "n": "10"},
    ],
    "exact odd-pair --n 10": [
        {"experiment": "odd_pair", "params": {"n": 10}, "numerator": 9, "denominator": 10,
         "value": 0.9, "reference": 0.810569469139, "abs_gap": 0.0894305308613, "n": "10"},
    ],
    "exact gcd-eq --n 100 --t 3": [
        {"experiment": "gcd_eq", "params": {"n": 100, "t": 3}, "numerator": 343,
         "denominator": 4950, "value": 0.0692929292929, "reference": 0.0675474557616,
         "abs_gap": 0.00174547353137, "n": "100"},
    ],
    "exact ktuple --n 100 --k 4": [
        {"experiment": "ktuple", "params": {"n": 100, "k": 4}, "numerator": 92434863,
         "denominator": 100000000, "value": 0.92434863, "reference": 0.923938402922,
         "abs_gap": 0.00041022707841, "n": "100"},
    ],
    "exact triple3 --n 50": [
        {"experiment": "triple3", "params": {"n": 50}, "numerator": 36784,
         "denominator": 125000, "value": 0.294272, "reference": 0.286747428434,
         "abs_gap": 0.00752457156552, "n": "50"},
    ],
    "exact squarefree --n 100": [
        {"experiment": "squarefree", "params": {"n": 100}, "numerator": 61, "denominator": 100,
         "value": 0.61, "reference": 0.607927101854, "abs_gap": 0.00207289814597, "n": "100"},
    ],
    "exact kfree --n 100 --j 3": [
        {"experiment": "kfree", "params": {"n": 100, "j": 3}, "numerator": 85,
         "denominator": 100, "value": 0.85, "reference": 0.831907372581,
         "abs_gap": 0.0180926274193, "n": "100"},
    ],
    "exact visible --radius 10": [
        {"experiment": "visible", "params": {"radius": 10}, "numerator": 192,
         "denominator": 316, "value": 0.607594936709, "reference": 0.607927101854,
         "abs_gap": 0.000332165145166, "n": "10"},
    ],
    "exact fgcd --n 50 --f pow_c --c 1.5": [
        {"experiment": "fgcd", "params": {"n": 50, "f": "n^3/2"}, "numerator": 27,
         "denominator": 50, "value": 0.54, "reference": 0.607927101854,
         "abs_gap": 0.067927101854, "n": "50"},
    ],
    "exact prime-density --x 100": [
        {"experiment": "prime_density", "params": {"x": 100}, "numerator": 25,
         "denominator": 100, "value": 0.25, "reference": 0.0, "abs_gap": 0.25, "n": "100"},
    ],
    "const zeta --k 3 --eps 1e-12": [
        {"experiment": "const_zeta",
         "params": {"k": 3, "eps": 1e-12, "abs_error_bound": 1.3549100482649852e-16,
             "method": "series", "terms": 24},
         "value": 1.20205690316, "n": "3"},
    ],
    "const invzeta --k 4 --eps 1e-10": [
        {"experiment": "const_invzeta",
         "params": {"k": 4, "eps": 1e-10, "abs_error_bound": 3.2618721438102975e-16,
             "method": "series", "terms": 24},
         "value": 0.923938402922, "n": "4"},
    ],
    "const euler-product --eps 1e-9": [
        {"experiment": "const_euler_product",
         "params": {"eps": 1e-09, "abs_error_bound": 1.5419830089151032e-15,
             "method": "euler_product", "prime_bound": 1000, "primes": 168,
             "tail": "prime_zeta"},
         "value": 0.607927101854, "n": ""},
    ],
    "const catalan": [
        {"experiment": "const_catalan",
         "params": {"eps": 1e-09, "abs_error_bound": 1.0324394661797057e-16,
             "method": "alternating_series", "terms": 24},
         "value": 0.915965594177, "n": ""},
    ],
    "const gaussian": [
        {"experiment": "const_gaussian",
         "params": {"eps": 1e-09, "abs_error_bound": 6.64294409012177e-16,
             "method": "alternating_series", "catalan_terms": 24},
         "value": 0.663700804614, "n": ""},
    ],
    "const q3": [
        {"experiment": "const_q3",
         "params": {"eps": 1e-09, "abs_error_bound": 1.1651661499431583e-15,
             "method": "euler_product", "prime_bound": 1000, "primes": 168,
             "tail": "prime_zeta"},
         "value": 0.286747428434, "n": ""},
    ],
    "const delta": [
        {"experiment": "const_delta",
         "params": {"dim": "inf", "eps": 1e-09, "abs_error_bound": 1.999885339713124e-14,
             "method": "euler_product", "prime_bound": 1000, "primes": 168,
             "tail": "prime_zeta"},
         "value": 0.353236371855, "n": ""},
    ],
    "const odd": [
        {"experiment": "const_odd",
         "params": {"abs_error_bound": 7.19930310156782e-16, "method": "closed_form"},
         "value": 0.810569469139, "n": ""},
    ],
    "const pair": [
        {"experiment": "const_pair",
         "params": {"abs_error_bound": 5.399477326175865e-16, "method": "closed_form"},
         "value": 0.607927101854, "n": ""},
    ],
    "mc pair --max 1000 --trials 20000 --seed 42": [
        {"experiment": "pair",
         "params": {"range_max": 1000, "generator": "splitmix64", "batch_size": 65536,
             "trials": 20000, "successes": 12157},
         "value": 0.60785, "reference": 0.607927101854, "abs_gap": 7.71018540267e-05,
         "ci95": [0.601063510849, 0.614595066973], "seed": 42, "n": "1000"},
    ],
    "mc triple3 --max 5000 --trials 20000 --seed 9": [
        {"experiment": "triple3",
         "params": {"range_max": 5000, "generator": "splitmix64", "batch_size": 65536,
             "trials": 20000, "successes": 5756},
         "value": 0.2878, "reference": 0.286747428434, "abs_gap": 0.00105257156552,
         "ci95": [0.281566715116, 0.294114784987], "seed": 9, "n": "5000"},
    ],
    "mc gaussian --box 100 --trials 20000 --seed 3": [
        {"experiment": "gaussian",
         "params": {"box_half_width": 100, "generator": "splitmix64", "batch_size": 65536,
             "trials": 20000, "successes": 13317},
         "value": 0.66585, "reference": 0.663700804614, "abs_gap": 0.00214919538615,
         "ci95": [0.659281497044, 0.672354804595], "seed": 3, "n": "100"},
    ],
    "mc det --dim 3 --entry-max 10 --trials 20000 --seed 5": [
        {"experiment": "det",
         "params": {"dim": 3, "entry_max": 10, "symmetric_entries": False, "crt_primes": 0,
             "high_part": "none", "generator": "splitmix64", "batch_size": 65536, "trials": 20000,
             "successes": 7412},
         "value": 0.3706, "reference": 0.396940351456, "abs_gap": 0.0263403514564,
         "ci95": [0.363932009159, 0.377317689773], "seed": 5, "n": "10"},
    ],
    "report convergence --experiment visible --ns 5,50": [
        {"experiment": "visible", "params": {"radius": 5}, "numerator": 48, "denominator": 80,
         "value": 0.6, "reference": 0.607927101854, "abs_gap": 0.00792710185403, "n": "5"},
        {"experiment": "visible", "params": {"radius": 50}, "numerator": 4776,
         "denominator": 7844, "value": 0.608873023967, "reference": 0.607927101854,
         "abs_gap": 0.000945922113337, "n": "50"},
        {"experiment": "visible", "params": {"reference_row": True}, "value": 0.607927101854,
         "reference": 0.607927101854, "abs_gap": 0.0, "n": ""},
    ],
    "const delta --dim 6 --format csv": [
        {"experiment": "const_delta", "n": "6", "numerator": "", "denominator": "",
         "value": "0.358009933578", "reference": "", "abs_gap": "", "ci_low": "",
         "ci_high": "", "seed": ""},
    ],
    "exact fgcd --n 20 --format csv": [
        {"experiment": "fgcd", "n": "20", "numerator": "12", "denominator": "20",
         "value": "0.6", "reference": "0.607927101854", "abs_gap": "0.00792710185403",
         "ci_low": "", "ci_high": "", "seed": ""},
    ],
}


def _ordered(x):
    """Dicts as lists of pairs, so that key order is compared too."""
    if isinstance(x, dict):
        return [(k, _ordered(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [_ordered(v) for v in x]
    return x


def _records(cmd):
    """Parsed records of one command, minus elapsed_ms and tool_version.

    Records of a JSON command also get the CSV ``n`` column of the same
    command, the one field that JSON does not print.
    """
    argv = cmd.split()
    code, lines = run_lines(argv)
    assert code == 0, lines
    if "--format" in argv:
        head = lines[0].split(",")
        recs = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    else:
        recs = [json.loads(ln) for ln in lines]
        code, rows = run_lines(argv + ["--format", "csv"])
        assert code == 0 and len(rows) == len(recs) + 1, rows
        for rec, row in zip(recs, rows[1:]):
            rec["n"] = row.split(",")[1]
    for rec in recs:
        rec.pop("elapsed_ms")
        rec.pop("tool_version", None)
    return recs


@pytest.mark.parametrize("cmd", list(RECORDS))
def test_whole_record_pinned(cmd):
    assert _ordered(_records(cmd)) == _ordered(RECORDS[cmd])



def _printed_cases():
    """(argv, printed field, the true value at 50 digits) for every constant the CLI prints."""
    with mp.workdps(oracle.DPS):
        six, eight = 6 / mp.pi**2, 8 / mp.pi**2
        q3 = oracle.euler_product("q3")
        delta = lambda dim: oracle.euler_product(("delta", dim))  # noqa: E731
        inv_zeta = lambda k: 1 / oracle.zeta(k)  # noqa: E731
        cases = [(f"const zeta --k {k}", "value", oracle.zeta(k)) for k in range(2, 65)]
        cases += [(f"const invzeta --k {k}", "value", inv_zeta(k)) for k in range(2, 65)]
        cases += [
            ("const euler-product", "value", oracle.euler_product("inv_zeta2")),
            ("const catalan", "value", oracle.catalan()),
            ("const gaussian", "value", oracle.gaussian()),
            ("const q3", "value", q3),
            ("const odd", "value", eight),
            ("const pair", "value", six),
        ]
        cases += [(f"const delta --dim {d}", "value", delta(d)) for d in (1, 2, 3, 6, 8)]
        cases += [("const delta --dim inf", "value", delta(None))]
        cases += [(f"exact {op} --n 10", "reference", six) for op in ("pair", "squarefree", "fgcd")]
        cases += [
            ("exact odd-pair --n 10", "reference", eight),
            ("exact gcd-eq --n 10 --t 3", "reference", six / 9),
            ("exact triple3 --n 10", "reference", q3),
            ("exact visible --radius 10", "reference", six),
            ("exact prime-density --x 100", "reference", mp.mpf(0)),
        ]
        cases += [(f"exact ktuple --n 10 --k {k}", "reference", inv_zeta(k)) for k in range(2, 7)]
        cases += [(f"exact kfree --n 10 --j {j}", "reference", inv_zeta(j)) for j in range(2, 7)]
        mc = "--trials 10 --seed 1"
        cases += [
            (f"mc pair {mc}", "reference", six),
            (f"mc triple3 {mc}", "reference", q3),
            (f"mc gaussian {mc}", "reference", oracle.gaussian()),
        ]
        cases += [(f"mc det --dim {d} --entry-max 10 {mc}", "reference", delta(d)) for d in range(1, 9)]
    return cases


def test_printed_constants_are_the_true_values_to_12_digits():
    wrong = []
    for cmd, field, true in _printed_cases():
        (rec,) = run_json(cmd.split())
        with mp.workdps(oracle.DPS):
            expected = float(mp.nstr(true, 12, min_fixed=-mp.inf))
        if rec[field] != expected:
            wrong.append((cmd, field, rec[field], expected))
    assert wrong == []
