"""Process start-up: the lazy package and the CLI's BLAS thread default.

Each check runs in a fresh interpreter, because what it tests (which modules
are loaded, which threads numpy's OpenBLAS starts) is fixed at import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coprime_lab

SRC = str(Path(coprime_lab.__file__).resolve().parents[1])


def run_python(code, **env_overrides):
    """Run code in a fresh interpreter with OPENBLAS_NUM_THREADS unset unless given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_numpy():
    loaded = run_python(
        "import json, sys, coprime_lab; print(json.dumps('numpy' in sys.modules))"
    )
    assert loaded is False


def test_every_public_name_is_its_defining_modules_object():
    wrong = run_python(
        "import importlib, json, coprime_lab as c\n"
        "wrong = [n for n, m in c._EXPORTS.items()\n"
        "         if getattr(c, n) is not getattr(importlib.import_module('coprime_lab.' + m), n)]\n"
        "print(json.dumps(wrong))"
    )
    assert wrong == []
    assert set(coprime_lab.__all__) == {"__version__", *coprime_lab._EXPORTS}


def test_star_import_binds_all_public_names():
    missing = run_python(
        "import json, coprime_lab\n"
        "ns = {}\n"
        "exec('from coprime_lab import *', ns)\n"
        "print(json.dumps([n for n in coprime_lab.__all__ if n not in ns]))"
    )
    assert missing == []


def test_unknown_name_raises_attribute_error():
    message = run_python(
        "import json, coprime_lab\n"
        "try:\n"
        "    coprime_lab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert message == "module 'coprime_lab' has no attribute 'no_such_name'"


def test_dir_lists_every_public_name():
    listed = run_python("import json, coprime_lab; print(json.dumps(dir(coprime_lab)))")
    assert set(coprime_lab.__all__) <= set(listed)


THREADS = (
    "import json, os, coprime_lab.cli\n"
    "task = '/proc/self/task'\n"
    "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))"
)


def test_cli_import_defaults_openblas_to_one_thread():
    value, threads = run_python(THREADS)
    assert value == "1"
    if threads is not None:
        assert threads == 1


def test_cli_keeps_a_callers_openblas_setting():
    value, _ = run_python(THREADS, OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_library_leaves_openblas_unset():
    value = run_python(
        "import json, os, coprime_lab\n"
        "coprime_lab.zeta(3)\n"
        "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
    )
    assert value is None


def test_console_script_entry_point_prints_one_record():
    # the installed coprime-lab script imports cli as a module, not as __main__
    record = run_python(
        "import sys\n"
        "sys.argv = ['coprime-lab', 'const', 'zeta', '--k', '3', '--eps', '1e-12']\n"
        "from coprime_lab.cli import main\n"
        "main()"
    )
    assert record["experiment"] == "const_zeta"
    assert record["value"] == pytest.approx(1.2020569031596, abs=1e-12)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_triple_counts_do_not_depend_on_blas_threads(blas_threads):
    counts = run_python(
        "import json, coprime_lab\n"
        "print(json.dumps([coprime_lab.pairwise_coprime_triple_count(n).numerator\n"
        "                  for n in (1000, 2000)]))",
        OPENBLAS_NUM_THREADS=blas_threads,
    )
    assert counts == [286984546, 2296659322]


LAYERS = ("numpy", "coprime_lab.constants", "coprime_lab.exact", "coprime_lab.montecarlo",
          "coprime_lab.sieve", "coprime_lab.gaussian", "coprime_lab.kernels")


def loaded_after(code):
    """The modules of LAYERS that a fresh interpreter has loaded after running code."""
    return run_python(
        f"import io, json, sys\n{code}\n"
        f"print(json.dumps([m for m in {LAYERS!r} if m in sys.modules]))"
    )


def runs(*commands):
    """Code that runs each CLI command in-process and requires exit code 0."""
    return "from coprime_lab import cli\n" + "".join(
        f"assert cli.run({cmd.split()!r}, out=io.StringIO()) == 0\n" for cmd in commands
    )


def test_cli_import_loads_no_numpy_and_no_layer():
    assert loaded_after("import coprime_lab.cli") == []


def test_const_runs_load_no_numpy():
    loaded = loaded_after(runs(
        "const zeta --k 3", "const invzeta --k 5", "const euler-product", "const catalan",
        "const gaussian", "const q3", "const delta --dim 6", "const delta --dim inf",
        "const odd", "const pair",
    ))
    assert loaded == ["coprime_lab.constants"]


def test_exact_runs_load_no_montecarlo():
    loaded = loaded_after(runs(
        "exact pair --n 1000", "exact odd-pair --n 100", "exact gcd-eq --n 100 --t 2",
        "exact ktuple --n 100 --k 3", "exact triple3 --n 50", "exact squarefree --n 100",
        "exact kfree --n 100 --j 3", "exact visible --radius 10", "exact fgcd --n 100",
        "exact prime-density --x 1000", "report convergence --experiment pair --ns 10,100",
    ))
    assert "coprime_lab.exact" in loaded and "coprime_lab.montecarlo" not in loaded
    assert "coprime_lab.kernels" in loaded  # fgcd's gcd lanes


def test_mc_runs_load_no_exact():
    loaded = loaded_after(runs(
        "mc pair --trials 100", "mc triple3 --trials 100", "mc gaussian --trials 100",
        "mc det --dim 3 --trials 100",
    ))
    assert "coprime_lab.montecarlo" in loaded and "coprime_lab.exact" not in loaded
    assert "coprime_lab.kernels" in loaded


@pytest.mark.parametrize("command, layer", [
    ("exact pair --n 10", "coprime_lab.exact"),
    ("const zeta --k 3", "coprime_lab.constants"),
    ("mc pair --trials 100", "coprime_lab.montecarlo"),
    ("report convergence --experiment pair --ns 10,20", "coprime_lab.exact"),
])
def test_elapsed_ms_starts_after_the_layer_is_loaded(command, layer):
    # the first reading of the CLI's clock notes whether the layer is loaded
    loaded = run_python(
        "import io, json, sys, time, types\n"
        "from coprime_lab import cli\n"
        "seen = []\n"
        "def clock():\n"
        f"    seen.append({layer!r} in sys.modules)\n"
        "    return time.perf_counter()\n"
        "cli.time = types.SimpleNamespace(perf_counter=clock)\n"
        f"assert cli.run({command.split()!r}, out=io.StringIO()) == 0\n"
        "print(json.dumps(seen[0]))"
    )
    assert loaded is True


def test_constants_primes_and_mobius_match_the_sieve():
    from coprime_lab import constants, sieve

    assert list(constants._HEAD_PRIMES) == sieve.primes_up_to(1000).tolist()
    mu = sieve.shared_tables(32).mu
    assert [constants._mobius(k) for k in range(1, 33)] == mu[1:33].tolist()
