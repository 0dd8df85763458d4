"""The committed runs/ directory is the golden output of `scripts/run_all.py --fast`.

Every suite is rerun with the fast overrides into a temporary directory and
each CSV is compared with its committed copy: the header and non-numeric
cells exactly, numeric cells to 1e-9 relative.  Each summary.json must list
the same assertions, with the same bounds and verdicts and values to the
same tolerance, and the same extras and health: counters such as the
carleman suite's factorisations and sweeps exactly, other numbers to the same
tolerance; its wall time and timings are not compared.  Each config.cfg snapshot must parse and hold the
fresh run's settings, `run.out` aside.  A change that moves a run on purpose
regenerates the files and says so in CHANGES.md.
"""

import configparser
import importlib.util
import json
import math
from pathlib import Path

import pytest

from carlstab.cli import main
from carlstab.config import SCHEMA, default_config, parse_config

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "runs"
REL_TOL = 1e-9


def _run_all():
    spec = importlib.util.spec_from_file_location("run_all", ROOT / "scripts" / "run_all.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    run_all = _run_all()
    for suite in run_all.SUITES:
        argv = [suite, f"--set=run.out={out}"]
        argv += [f"--set={ov}" for ov in run_all.FAST_OVERRIDES[suite]]
        assert main(argv) == 0, suite
    return out


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _numbers_agree(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _cells_agree(want: str, got: str) -> bool:
    a, b = _number(want), _number(got)
    if a is None or b is None:
        return want == got
    return _numbers_agree(a, b)


def test_fast_runs_match_committed_csvs(fresh_runs):
    golden = sorted(p.relative_to(RUNS) for p in RUNS.glob("*/*.csv"))
    assert golden == sorted(p.relative_to(fresh_runs) for p in fresh_runs.glob("*/*.csv"))
    for rel in golden:
        want = (RUNS / rel).read_text().splitlines()
        got = (fresh_runs / rel).read_text().splitlines()
        assert len(got) == len(want), rel
        assert got[0] == want[0], rel
        for i, (w_line, g_line) in enumerate(zip(want[1:], got[1:]), start=2):
            w_cells, g_cells = w_line.split(","), g_line.split(",")
            assert len(g_cells) == len(w_cells), f"{rel}:{i}"
            for col, w_cell, g_cell in zip(want[0].split(","), w_cells, g_cells):
                assert _cells_agree(w_cell, g_cell), f"{rel}:{i} {col}: {g_cell} != {w_cell}"


def _extras_agree(want, got) -> bool:
    """Counters (integers) exactly, other numbers to REL_TOL, lists entry by entry."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) \
            and all(map(_extras_agree, want, got))
    if isinstance(want, int):
        return isinstance(got, int) and got == want
    return _numbers_agree(float(want), float(got))


def test_fast_runs_match_committed_summaries(fresh_runs):
    golden = sorted(p.relative_to(RUNS) for p in RUNS.glob("*/summary.json"))
    assert golden == sorted(p.relative_to(fresh_runs) for p in fresh_runs.glob("*/summary.json"))
    for rel in golden:
        want = json.loads((RUNS / rel).read_text())
        got = json.loads((fresh_runs / rel).read_text())
        assert got.keys() == want.keys() and got["suite"] == want["suite"], rel
        assert [a["name"] for a in got["assertions"]] == [a["name"] for a in want["assertions"]], rel
        for w, g in zip(want["assertions"], got["assertions"]):
            assert (g["bound"], g["pass"]) == (w["bound"], w["pass"]), f"{rel} {w['name']}"
            assert _numbers_agree(float(w["value"]), float(g["value"])), \
                f"{rel} {w['name']}: {g['value']} != {w['value']}"
        for part in ("extras", "health"):
            assert got[part].keys() == want[part].keys(), f"{rel} {part}"
            for key, w in want[part].items():
                assert _extras_agree(w, got[part][key]), f"{rel} {key}: {got[part][key]} != {w}"


def test_committed_snapshots_match_fresh_configs(fresh_runs):
    golden = sorted(p.relative_to(RUNS) for p in RUNS.glob("*/config.cfg"))
    assert golden == sorted(p.relative_to(fresh_runs) for p in fresh_runs.glob("*/config.cfg"))
    for rel in golden:
        want = parse_config(str(RUNS / rel)).values
        got = parse_config(str(fresh_runs / rel)).values
        del want["run"]["out"], got["run"]["out"]
        assert got == want, rel


def test_default_cfg_file_is_the_builtin_default():
    assert parse_config(str(ROOT / "configs" / "default.cfg")).values == default_config().values


def test_default_cfg_file_lists_every_schema_key():
    # a key left out of the file still parses (the built-in default fills it in),
    # so the file's "every knob shown" needs its own check
    parser = configparser.ConfigParser()
    parser.read(ROOT / "configs" / "default.cfg")
    listed = {(section, key) for section in parser.sections() for key in parser[section]}
    assert listed == {(section, key) for section, keys in SCHEMA.items() for key in keys}
