"""Every script under scripts/ imports against the current package, so a
renamed or deleted helper cannot leave a script that fails only when run;
`bench_steps.py`, which reads the stepper's private frame rows, also runs one
tiny case."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def test_there_are_scripts():
    assert {p.name for p in SCRIPTS} >= {"run_all.py", "bench_sums.py", "bench_steps.py"}


def load(monkeypatch, path):
    # the scripts set BLAS thread variables and prepend src/ on import
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(monkeypatch, path):
    assert callable(load(monkeypatch, path).main)


def test_bench_steps_runs_one_tiny_case(monkeypatch):
    # march and kernels reach into the stepper's private frame rows
    bench = load(monkeypatch, SCRIPT_DIR / "bench_steps.py")
    monkeypatch.setattr(bench, "PRODUCTS", 2)
    elapsed, diag = bench.march(1, 7, 8, True, 0)
    assert elapsed > 0.0 and diag["linear_solves"] == 8
    assert diag["max_linear_residual"] <= 1e-10
    per_frame, per_product = bench.kernels(1, 7, 8, True, 0)
    assert per_frame > 0.0 and per_product > 0.0
    # the smooth-bump start, at d = 2 where a lagged step extrapolates
    elapsed, diag = bench.march(2, 7, 8, True, 0, "bump")
    assert diag["linear_solves"] == 8 and diag["max_linear_residual"] <= 1e-10
    # one sparse LU solve per step of an exact factor, and one tridiagonal solve per step
    # at d = 1
    assert bench.solves(2, 7, 8, False, 0) == 8 and bench.solves(1, 7, 8, True, 0) == 8
    assert bench.solves(1, 7, 8, False, 0) == 8
    assert bench.solves(2, 7, 8, True, 0, "bump") >= 8
    # the d = 1 march kernel against the step loop, which must agree bit for bit, and a
    # time-independent march against dgtsv steps on the same bands: one held factor
    for time_dependent in (False, True):
        per_march, per_step, per_dgtsv, factorisations = bench.march_vs_steps(
            7, 8, time_dependent, 0)
        assert per_march > 0.0 and per_step > 0.0
        assert (per_dgtsv is None) == time_dependent and per_dgtsv != 0.0
        assert factorisations == (8 if time_dependent else 1)
    # the reconstruction's normal equations by march against the step loop, equal G bits
    per_march, per_loop = bench.normal_vs_steps(1, 7, 8, 0)
    assert per_march > 0.0 and per_loop > 0.0
