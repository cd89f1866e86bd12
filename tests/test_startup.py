"""What a fresh process loads, and what its hot paths ask of the allocator.

Each test runs its own interpreter, so the modules and the heap it sees are
those of a command-line run, not of the test process.
"""

import json
import platform
import subprocess
import sys

import pytest

from conftest import checkout_env


def _run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout; its
    last stdout line, read as JSON."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=checkout_env(), check=True, capture_output=True,
                         text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


_LOADED_SCIPY = """
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {}
from mirroratoms import cli
loaded["import"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in json.loads(sys.argv[1]):
        assert cli.main(argv) == 0, argv
        loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""

_EVOLVE = ["evolve", "--a", "0.5", "--alignment", "vertical", "--y-over-l",
           "0.1", "--initial-state", "S", "--horizon", "6"]
# nearly defective collective modes: every row comes from the expm route
_DRIFTING = ["evolve", "--a", "0", "--omega-l", "0.15", "--y-over-l", "0.5",
             "--alignment", "vertical", "--initial-state", "E"]


def test_the_eig_route_never_imports_scipy(tmp_path):
    out = tmp_path / "eig.csv"
    runs = [["coeffs", ["coeffs", "--a", "0.5", "--y-over-l", "0.1"]],
            ["evolve", [*_EVOLVE, "--output", str(out)]]]
    loaded = _run_fresh(_LOADED_SCIPY, json.dumps(runs))
    assert loaded == {"import": [], "coeffs": [], "evolve": []}
    assert "# propagation = eig" in out.read_text().splitlines()


def test_the_expm_route_imports_scipy_linalg(tmp_path):
    out = tmp_path / "drift.csv"
    loaded = _run_fresh(_LOADED_SCIPY, json.dumps(
        [["evolve", [*_DRIFTING, "--output", str(out)]]]))
    assert loaded["import"] == []
    assert "scipy.linalg" in loaded["evolve"]
    assert "# propagation = expm" in out.read_text().splitlines()


_FAULTS_PER_CALL = """
import json, resource, sys
import numpy as np
from mirroratoms import cli, coefficients as co, dynamics as dy
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
def per_call(call, calls):
    for _ in range(10):
        call()
    start = faults()
    for _ in range(calls):
        call()
    return (faults() - start) / calls
gen = dy.build_generator(co.assemble(
    co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "vertical")))
s0 = dy.XState.excited()
rng = np.random.default_rng(5)
# no exact zeros: every cell takes the CSV kernel's digit arithmetic
body = [cli.FloatRows(rng.standard_normal((2001, 11))
                      * 10.0 ** rng.integers(-20, 20, (2001, 11)))]
result = {"write_csv 2001x11": per_call(
    lambda: cli.write_csv(sys.argv[1], {}, ["c"] * 11, body), 20)}
for n, calls in ((4001, 50), (20001, 10)):
    times = np.linspace(0.0, 40.0, n)
    result[f"propagate {n}"] = per_call(
        lambda: dy.propagate(gen, s0, times), calls)
result["scipy"] = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(json.dumps(result))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the warm-up sets glibc's dynamic mmap threshold")
def test_hot_paths_fault_no_pages_in_without_scipy(tmp_path):
    # without the package's allocator warm-up, glibc maps each large
    # temporary afresh: about 800 faults a CSV body and 476 a 20,001-sample
    # propagation
    result = _run_fresh(_FAULTS_PER_CALL, tmp_path / "body.csv")
    assert result.pop("scipy") == []
    assert all(f < 1.0 for f in result.values()), result
