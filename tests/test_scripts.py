"""Every script under scripts/ imports against the current package, so a
renamed or deleted helper cannot leave a script that fails only when run."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_there_are_scripts():
    assert {p.name for p in SCRIPTS} >= {"run_all.py", "bench_sums.py", "bench_steps.py"}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(monkeypatch, path):
    # the scripts set BLAS thread variables and prepend src/ on import
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
