"""The committed runs/ directory is the golden output of `scripts/run_all.py --fast`.

Every suite is rerun with the fast overrides into a temporary directory and
each CSV is compared with its committed copy: the header and non-numeric
cells exactly, numeric cells to 1e-9 relative.  A change that moves a CSV
on purpose regenerates the file and says so in CHANGES.md.
"""

import importlib.util
import math
from pathlib import Path

from carlstab.cli import main

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "runs"
REL_TOL = 1e-9


def _run_all():
    spec = importlib.util.spec_from_file_location("run_all", ROOT / "scripts" / "run_all.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_agree(want: str, got: str) -> bool:
    a, b = _number(want), _number(got)
    if a is None or b is None:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def test_fast_runs_match_committed_csvs(tmp_path):
    run_all = _run_all()
    for suite in run_all.SUITES:
        argv = [suite, f"--set=run.out={tmp_path}"]
        argv += [f"--set={ov}" for ov in run_all.FAST_OVERRIDES[suite]]
        assert main(argv) == 0, suite

    golden = sorted(p.relative_to(RUNS) for p in RUNS.glob("*/*.csv"))
    assert golden == sorted(p.relative_to(tmp_path) for p in tmp_path.glob("*/*.csv"))
    for rel in golden:
        want = (RUNS / rel).read_text().splitlines()
        got = (tmp_path / rel).read_text().splitlines()
        assert len(got) == len(want), rel
        assert got[0] == want[0], rel
        for i, (w_line, g_line) in enumerate(zip(want[1:], got[1:]), start=2):
            w_cells, g_cells = w_line.split(","), g_line.split(",")
            assert len(g_cells) == len(w_cells), f"{rel}:{i}"
            for col, w_cell, g_cell in zip(want[0].split(","), w_cells, g_cells):
                assert _cells_agree(w_cell, g_cell), f"{rel}:{i} {col}: {g_cell} != {w_cell}"
