import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from carlstab import experiments
from carlstab.cli import main
from carlstab.config import (MAX_NORMAL_UNKNOWNS, MAX_UNKNOWNS, SCHEMA, Config, default_config,
                             parse_config)
from carlstab.errors import ConfigError
from carlstab.experiments import (run_carleman, run_converge, run_energy, run_reconstruct,
                                  run_stability, run_verify_ops)


def test_verify_ops_exit_zero(tmp_path):
    code = main(["verify-ops", "--set", "verify_ops.fields=10",
                 "--out", str(tmp_path / "vo")])
    assert code == 0
    summary = json.loads((tmp_path / "vo" / "summary.json").read_text())
    assert summary["suite"] == "verify_ops"
    assert all(a["pass"] for a in summary["assertions"])
    assert {"name", "value", "bound", "pass"} <= set(summary["assertions"][0])
    assert "wall_time_s" in summary


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nd = seven\n")
    code = main(["verify-ops", "--config", str(bad)])
    assert code == 2
    assert "grid.d" in capsys.readouterr().err


def test_unknown_key_exits_two(tmp_path, capsys):
    code = main(["converge", "--set", "carleman.nonsense=1"])
    assert code == 2
    assert "carleman.nonsense" in capsys.readouterr().err


def test_missing_config_file_exits_two():
    assert main(["energy", "--config", "/nonexistent/path.cfg"]) == 2


def test_interval_and_list_parsing():
    cfg = parse_config(None, ["domain.omega=0.25:0.75", "carleman.grids=15,31"])
    assert cfg.get("domain", "omega") == (0.25, 0.75)
    assert cfg.get("carleman", "grids") == (15, 31)


@pytest.mark.parametrize("suite,override", [
    ("stability", "domain.omega0=0.1:0.9"),
    ("stability", "weights.delta=0.7"),
    ("stability", "stability.steps=63"),
    ("stability", "stability.decay_steps=0"),
    ("reconstruct", "reconstruct.steps=255"),
    ("reconstruct", "reconstruct.coeff_steps=2047"),
    ("energy", "energy.steps=100"),
    ("verify-ops", "verify_ops.fields=0"),
    ("energy", "energy.runs=0"),
    ("carleman", "carleman.runs=0"),
    ("carleman", "carleman.feasibility_runs=0"),
    ("carleman", "carleman.steps=1"),
    ("stability", "stability.runs=0"),
    ("verify-ops", "verify_ops.n_min=0"),
    ("verify-ops", "verify_ops.n_min=21"),
    ("converge", "converge.spatial_grids=7"),
    ("converge", "converge.temporal_steps="),
    ("carleman", "carleman.grids="),
    ("carleman", "carleman.feasibility_taus="),
    ("carleman", "carleman.feasibility_taus=0.5"),
    ("carleman", "weights.tau1=0.5"),
    ("carleman", "weights.eps0=0"),
    ("carleman", "weights.eps0=-0.5"),
    ("stability", "stability.decay_grids=15"),
    ("carleman", "carleman.grids=0,15"),
    ("converge", "converge.temporal_steps=0,64"),
    ("reconstruct", "reconstruct.beta=-1"),
    ("stability", "stability.grids=7,15"),
    ("carleman", "carleman.grids=7,15"),
    ("carleman", "carleman.feasibility_grids=7,15"),
    ("carleman", "carleman.feasibility_grids=7,15 carleman.feasibility_taus=2.5 "
                 "carleman.feasibility_deltas=0.5"),
    ("stability", "stability.decay_grids=3,15"),
    ("stability", "weights.eps0=0.6"),
    ("stability", "weights.tau1=1.5"),
    ("stability", "weights.eps0=0"),
    ("stability", "weights.eps0=-0.5"),
    ("stability", "weights.tau1=0.5"),
    ("stability", "stability.decay_lambda=0.5"),
    ("reconstruct", "reconstruct.n=0"),
    ("reconstruct", "reconstruct.coeff_n=0"),
    ("converge", "converge.spatial_steps=0"),
    ("converge", "converge.manufactured_steps=0"),
    ("reconstruct", "reconstruct.beta_sweep_decades=-3 reconstruct.noise=0.01"),
    ("converge", "converge.t_final=0"),
    ("reconstruct", "reconstruct.coeff_t_final=0"),
], ids=lambda v: v if "=" in v else None)
def test_validation_rules(suite, override, tmp_path, capsys):
    # `override` is one override or several separated by spaces; the first names the key
    overrides = override.split()
    key = overrides[0].partition("=")[0]
    with pytest.raises(ConfigError, match=key):
        parse_config(None, overrides)
    assert main([suite, "--out", str(tmp_path), *(f"--set={ov}" for ov in overrides)]) == 2
    assert key in capsys.readouterr().err


def test_defaults_and_benchmark_workloads_validate(monkeypatch):
    # the checks that reject a config before any solve pass every shipped one; at
    # d = 3 the default feasibility grid N = 63 is too large (test below)
    for d in (1, 2):
        parse_config(None, [f"grid.d={d}"])
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # dataclasses look it up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for _, overrides in workload.suites:
            parse_config(None, list(overrides))


def test_grids_over_the_unknown_bound_exit_two(tmp_path, capsys):
    # the d = 3 default marches N = 63, 250 047 unknowns, in the feasibility table and
    # the decay study; the d = 3 probe (corpus grids 15 and 31, feasibility at 15,
    # decay at 15 and 31) stays admitted.  The normal equations hold n x n arrays, so
    # reconstruct.n has the smaller bound: N = 15 at d = 3 (3375 unknowns), not 31
    assert 31 ** 3 <= MAX_UNKNOWNS < 63 ** 3
    assert 15 ** 3 <= MAX_NORMAL_UNKNOWNS < 31 ** 3
    # parse first, so a missing bound fails here instead of marching the grid
    small = ["carleman.feasibility_grids=15", "stability.decay_grids=15,31"]
    for name, over, value in (("carleman.feasibility_grids", small[1:], "15,63"),
                              ("carleman.grids", small, "15,63"),
                              ("stability.grids", small, "15,63"),
                              ("stability.decay_grids", small[:1], "15,63"),
                              ("grid.n", small, "63"),
                              ("converge.spatial_grids", small, "15,63"),
                              ("reconstruct.coeff_n", small, "63"),
                              ("reconstruct.n", small, "31")):
        n = value.split(",")[-1]
        with pytest.raises(ConfigError, match=f"{name}: N={n} "):
            parse_config(None, ["grid.d=3", *over, f"{name}={value}"])
        sets = [f"--set={ov}" for ov in ["grid.d=3", *over, f"{name}={value}"]]
        assert main(["converge", "--out", str(tmp_path), *sets]) == 2
        assert f"{name}: N={n} at d=3" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="stability.decay_grids: N=63"):
        parse_config(None, ["grid.d=3", "carleman.feasibility_grids=15"])
    assert main(["carleman", "--out", str(tmp_path), "--set=grid.d=3"]) == 2
    err = capsys.readouterr().err
    assert "carleman.feasibility_grids: N=63 at d=3 marches 250047 unknowns" in err
    assert "stability.grids" not in err and "carleman.grids" not in err
    parse_config(None, ["grid.d=3", "carleman.grids=15,31", "carleman.feasibility_grids=15",
                        "stability.decay_grids=15,31", "carleman.runs=2", "carleman.steps=64"])


def test_beta_sweep_needs_positive_beta(tmp_path, capsys):
    # the noisy sweep steps beta in decades, from log10(beta)
    noisy = ["reconstruct.beta=0", "reconstruct.noise=0.01"]
    with pytest.raises(ConfigError, match="reconstruct.beta"):
        parse_config(None, noisy)
    argv = ["reconstruct", "--out", str(tmp_path)]
    assert main(argv + [f"--set={ov}" for ov in noisy]) == 2
    assert "reconstruct.beta" in capsys.readouterr().err
    assert parse_config(None, ["reconstruct.beta=0"]).get("reconstruct", "beta") == 0.0


def test_removed_keys_rejected_as_unknown():
    for override in ("time.steps=512", "coefficients.gamma_amp=0.4"):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(None, [override])


def test_snapshot_round_trip(tmp_path):
    cfg = parse_config(None, ["run.seed=77", "carleman.tau_min=2.4"])
    snap = tmp_path / "snap.cfg"
    snap.write_text(cfg.snapshot_text())
    back = parse_config(str(snap))
    assert back.values == cfg.values


def test_config_snapshot_is_sufficient_to_rerun(tmp_path):
    out1 = tmp_path / "a"
    args = ["stability", "--set", "stability.runs=2", "--set", "stability.steps=64",
            "--set", "stability.decay_grids=15,31", "--set", "stability.decay_steps=64"]
    assert main(args + ["--out", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert main(["stability", "--config", str(out1 / "config.cfg"),
                 "--out", str(out2)]) == 0
    for name in ("stability.csv", "decay.csv", "stability_extra.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the non-default decay grids travel in the snapshot: one row per grid
    rows = (out2 / "decay.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["15", "31"]


def test_stability_grids_flag_three_row_decay(tmp_path):
    out = tmp_path / "g"
    code = main(["stability", "--set", "stability.runs=2", "--set", "stability.steps=64",
                 "--set", "stability.decay_steps=64", "--set", "stability.decay_grids=15,31,63",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "decay.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + one row per grid
    assert rows[1].split(",")[0] == "15"


def test_default_config_matches_schema():
    cfg = default_config()
    assert cfg.get("grid", "n") == 15
    assert cfg.get("run", "workers") == 1


def test_feasibility_csv_header_schema(tmp_path):
    out = tmp_path / "fs"
    code = main(["carleman", "--set", "carleman.runs=1", "--set", "carleman.steps=64",
                 "--set", "carleman.feasibility_grids=15",
                 "--set", "carleman.feasibility_runs=1", "--out", str(out)])
    assert code == 0
    header = (out / "feasibility.csv").read_text().splitlines()[0]
    assert header == "h,tau,delta,lambda,p,I_p,J_p,rhs_source,rhs_local,rhs_endpoint,ratio,admissible"
    sheader = None
    sout = tmp_path / "ss"
    assert main(["stability", "--set", "stability.runs=1", "--set", "stability.steps=64",
                 "--set", "stability.decay_grids=15,31", "--set", "stability.decay_steps=64",
                 "--out", str(sout)]) == 0
    sheader = (sout / "stability.csv").read_text().splitlines()[0]
    assert sheader == "run_id,h,N,d,tau,delta,lambda,lhs,rhs_observed,rhs_error_term,quotient,seed"


def test_carleman_summary_times_each_phase(tmp_path):
    out = tmp_path / "c"
    assert main(["carleman", "--set", "carleman.runs=2", "--set", "carleman.steps=16",
                 "--set", "carleman.feasibility_grids=15", "--set", "carleman.feasibility_runs=1",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    timings = summary["timings"]
    assert set(timings) == {"march", "corpus_terms", "feasibility_table"}
    assert all(0.0 < s for s in timings.values())
    assert sum(timings.values()) <= summary["wall_time_s"]
    # one table per mesh (primal N points, dual N + 1) and weight over the 17 frames:
    # 2 corpus runs of one weight on N = 15 and 31, and the 3 admissible N = 15 cells
    extras = summary["extras"]
    assert extras["weighted_points"] == 17 * (2 * (15 + 16 + 31 + 32) + 3 * (15 + 16))
    assert "max_skipped_rel" not in extras and "fully_skipped_cells" not in extras


@pytest.mark.parametrize("argv,phases", [
    (["stability", "--set", "stability.runs=2", "--set", "stability.steps=64",
      "--set", "stability.decay_grids=15,31", "--set", "stability.decay_steps=64"],
     {"march", "z_system", "quotient", "decay"}),
    (["reconstruct", "--set", "reconstruct.steps=64", "--set", "reconstruct.coeff_steps=256",
      "--set", "reconstruct.noise=0.01"],
     {"source_march", "normal_equations", "coefficient_march", "coefficient_recovery"}),
    (["energy", "--set", "energy.runs=2", "--set", "energy.steps=32"], {"march", "check"}),
    (["converge", "--set", "converge.spatial_steps=64"], {"manufactured", "spatial", "temporal"}),
    (["verify-ops", "--set", "verify_ops.fields=8"], {"leibniz", "squares", "ibp"}),
], ids=["stability", "reconstruct", "energy", "converge", "verify-ops"])
def test_inverse_summaries_time_each_phase(tmp_path, argv, phases):
    out = tmp_path / argv[0]
    assert main(argv + ["--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["timings"]) == phases
    assert all(0.0 < s for s in summary["timings"].values())
    assert sum(summary["timings"].values()) <= summary["wall_time_s"]


def _csv_rows(path: Path) -> list:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_summaries_carry_the_per_grid_maxima(tmp_path):
    # `health` holds the per-grid maxima behind the grid-stability assertions, as the CSVs
    # give them: the largest admissible ratio per p, and the largest quotients
    out = tmp_path / "c"
    assert main(["carleman", "--set", "carleman.runs=2", "--set", "carleman.steps=16",
                 "--set", "carleman.feasibility_grids=15", "--set", "carleman.feasibility_runs=1",
                 "--out", str(out)]) == 0
    health = json.loads((out / "summary.json").read_text())["health"]
    rows = [r for r in _csv_rows(out / "carleman_corpus.csv") if r["admissible"] == "true"]
    assert health["grids"] == [15, 31]
    for p in (0, 1):
        assert health[f"p{p}_max_ratio"] == [
            max(float(r["ratio"]) for r in rows if r["p"] == str(p) and r["N"] == str(n))
            for n in (15, 31)]
    out = tmp_path / "s"
    assert main(["stability", "--set", "stability.runs=2", "--set", "stability.steps=64",
                 "--set", "stability.decay_grids=15,31", "--set", "stability.decay_steps=64",
                 "--out", str(out)]) == 0
    health = json.loads((out / "summary.json").read_text())["health"]
    rows = _csv_rows(out / "stability.csv")
    extra = _csv_rows(out / "stability_extra.csv")
    assert health["grids"] == [15, 31]
    for key, table in (("quotient", rows), ("reduced_quotient", extra)):
        assert health[f"max_{key}"] == [max(float(r[key]) for r in table if r["N"] == str(n))
                                        for n in (15, 31)]


def test_feasibility_cells_appear_once(tmp_path):
    # tau1 = 2.5 repeats the first listed tau at the defaults; 4.0 is listed twice here
    out = tmp_path / "fs"
    assert main(["carleman", "--set", "carleman.runs=1", "--set", "carleman.steps=64",
                 "--set", "carleman.feasibility_grids=15", "--set", "carleman.feasibility_runs=1",
                 "--set", "carleman.feasibility_taus=2.5,4.0,4.0,8.0", "--out", str(out)]) == 0
    lines = (out / "feasibility.csv").read_text().splitlines()
    cells = [(c[0], c[1], c[2], c[4]) for c in (line.split(",") for line in lines[1:])]
    assert len(cells) == len(set(cells))
    assert sorted({float(tau) for _, tau, _, _ in cells}) == [2.5, 4.0, 8.0]


def test_worker_pool_matches_serial(tmp_path):
    base = ["stability", "--set", "stability.runs=3", "--set", "stability.steps=64",
            "--set", "stability.decay_grids=15,31", "--set", "stability.decay_steps=64"]
    assert main(base + ["--out", str(tmp_path / "serial")]) == 0
    assert main(base + ["--set", "run.workers=3", "--out", str(tmp_path / "pool")]) == 0
    for f in ("stability.csv", "decay.csv"):
        assert (tmp_path / "serial" / f).read_bytes() == (tmp_path / "pool" / f).read_bytes()
    # the solver health merges in run-id order, whoever ran the runs: one step per
    # forward frame of 3 runs on 2 grids and of the 2 decay grids, and as many
    # again over half of them for the z-systems marched from T/2
    serial, pool = (json.loads((tmp_path / run / "summary.json").read_text())["extras"]
                    for run in ("serial", "pool"))
    assert serial == pool and serial["linear_solves"] == (3 * 2 * 64 + 2 * 64) * 3 // 2


class _SerialPool:
    """Stands in for `ProcessPoolExecutor`: records `max_workers`, maps in this
    process and starts none."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


def test_worker_pool_is_capped_at_the_run_count(tmp_path, monkeypatch):
    # a pool launches all its processes at the first submit, so more workers than
    # runs would only start idle processes
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    base = ["stability", "--set", "stability.steps=16", "--set", "stability.decay_grids=15,31",
            "--set", "stability.decay_steps=16", "--set", "run.workers=1000"]
    assert main(base + ["--set", "stability.runs=2", "--out", str(tmp_path / "two")]) == 0
    assert _SerialPool.sizes == [2]
    assert main(base + ["--set", "stability.runs=1", "--out", str(tmp_path / "one")]) == 0
    assert _SerialPool.sizes == [2]   # one run is mapped serially, with no pool


def test_d2_stability_factorises_once_per_y_march(tmp_path):
    # each z-system marches on its y run's stepper, whose exact factor of the one
    # frame of time-independent coefficients it reuses: one factorisation per pair
    out = tmp_path / "d2"
    assert main(["stability", "--set", "grid.d=2", "--set", "stability.runs=1",
                 "--set", "stability.grids=15,31", "--set", "stability.steps=16",
                 "--set", "stability.decay_grids=15,31", "--set", "stability.decay_steps=16",
                 "--out", str(out)]) == 0
    extras = json.loads((out / "summary.json").read_text())["extras"]
    y_marches = 1 * 2 + 2
    assert extras["factorisations"] == y_marches
    assert extras["linear_solves"] == y_marches * (16 + 8)


class _ReadRecorder(dict):
    """A config section that records every key a suite reads from it."""

    def __init__(self, section, values, seen):
        super().__init__(values)
        self.section, self.seen = section, seen

    def __getitem__(self, key):
        self.seen.add(f"{self.section}.{key}")
        return super().__getitem__(key)


TINY = ["grid.n=7", "verify_ops.fields=2", "verify_ops.n_max=4",
        "converge.spatial_grids=3,7", "converge.spatial_steps=8",
        "converge.temporal_steps=4,8", "converge.manufactured_steps=8",
        "energy.runs=1", "energy.steps=16",
        "carleman.runs=1", "carleman.grids=15,31", "carleman.steps=16",
        "carleman.feasibility_grids=15", "carleman.feasibility_runs=1",
        "stability.runs=1", "stability.grids=15,31", "stability.steps=16",
        "stability.decay_grids=15,31", "stability.decay_steps=16",
        "reconstruct.n=7", "reconstruct.steps=16", "reconstruct.coeff_n=7",
        "reconstruct.coeff_steps=32",
        "reconstruct.noise=0.01", "reconstruct.beta_sweep_decades=1"]


def test_every_schema_key_is_read():
    """A key no suite reads cannot change a run, so it must not be in the schema.

    `run.out` is read by the CLI only.  The noise sweep is switched on, which
    also covers the noisy branch of the reconstruct suite.
    """
    seen = set()
    values = parse_config(None, TINY).values
    cfg = Config({s: _ReadRecorder(s, v, seen) for s, v in values.items()})
    results = {run.__name__: run(cfg) for run in (run_verify_ops, run_converge, run_energy,
                                                  run_carleman, run_stability, run_reconstruct)}
    schema_keys = {f"{s}.{k}" for s, keys in SCHEMA.items() for k in keys}
    assert seen == schema_keys - {"run.out"}

    header, rows = results["run_reconstruct"].tables["reconstruct"]
    noisy = [dict(zip(header, row)) for row in rows if row[0] == "source_noisy"]
    assert [r["beta"] for r in noisy] == pytest.approx([1e-10, 1e-9], rel=1e-12)
    assert all(r["noise"] == 0.01 and math.isfinite(r["rel_error"]) for r in noisy)
