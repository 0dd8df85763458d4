"""Experiment suites behind the CLI: identity corpus, convergence orders,
energy corpus, weighted-inequality corpus with feasibility table, stability
corpus with refinement decay, and the twin reconstructions.

Randomness is counter-based: the generator of run k in suite s is
default_rng(SeedSequence([global_seed, s, k])), so corpora are reproducible
run by run, independent of worker count.  Per-run draws happen before any
grid-dependent sampling, so refinement comparisons see the same continuous
problem on every grid.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as g
from . import operators as ops
from .carleman import endpoint_term, feasibility_rows, verify_cells
from .coefficients import (CoefficientFields, ConstantField, random_smooth_coefficients,
                           sample_frames)
from .config import Config
from .inverse import (add_observation_noise, certify_separable, observe, random_bump,
                      random_separable_source, reconstruct_source, recover_coefficient,
                      stability_quotient)
from .solver import Stepper, TimeGrid, assemble_ah, energy_check, solve_forward, solve_z_system
from .weights import Box, CarlemanWeight, WeightParams, coupled_delta, feasibility_cells

SUITE_IDS = {"verify_ops": 1, "converge": 2, "energy": 3, "carleman": 4,
             "stability": 5, "reconstruct": 6, "decay": 7, "feasibility": 8}


def run_rng(seed: int, suite: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, suite, index]))


@dataclass
class Assertion:
    name: str
    value: float
    bound: float
    passed: bool


@dataclass
class SuiteResult:
    suite: str
    assertions: list
    tables: dict = field(default_factory=dict)   # name -> (header, rows)
    extras: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)  # seconds per phase
    health: dict = field(default_factory=dict)   # per-grid figures behind the assertions

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def _le(name, value, bound) -> Assertion:
    return Assertion(name, float(value), float(bound), bool(value <= bound))


def _ge(name, value, bound) -> Assertion:
    return Assertion(name, float(value), float(bound), bool(value >= bound))


def _weight_params(cfg: Config, tau: float, **over) -> WeightParams:
    w = cfg["weights"]
    base = dict(T=cfg.get("time", "t_final"), tau=tau, lam=w["lambda"], delta=w["delta"])
    base.update(over)
    return WeightParams(**base)


def _weight(cfg: Config, grid: g.GridSpec, params: WeightParams) -> CarlemanWeight:
    """The weight on `grid` for the configured boxes omega0 inside omega."""
    lo, hi = cfg.get("domain", "omega")
    lo0, hi0 = cfg.get("domain", "omega0")
    return CarlemanWeight(grid, params, Box.cube(lo0, hi0, grid.d), Box.cube(lo, hi, grid.d))


def _grid_maxima(per_grid: list) -> list:
    """The largest value of one quantity on each grid, NaN on a grid without one."""
    return [max(vals) if vals else math.nan for vals in per_grid]


def _grid_stability(label: str, finite_name: str, maxima: list) -> list:
    """Per-grid maxima of one quantity: all finite and positive, and the first
    two grids within a factor 2 of each other."""
    finite = all(math.isfinite(v) and v > 0 for v in maxima)
    out = [Assertion(finite_name, max(maxima) if finite else math.inf, math.inf, finite)]
    if len(maxima) >= 2 and finite:
        r = maxima[0] / maxima[1]
        out.append(_le(f"{label}_grid_stability", max(r, 1.0 / r), 2.0))
    return out


def _solver_work(diagnostics: list) -> dict:
    """Solver work of several marches from their `Trajectory.diagnostics`, or
    from earlier merges: counters summed, the largest linear residual kept."""
    work = {key: sum(d[key] for d in diagnostics)
            for key in ("factorisations", "sweeps", "linear_solves")}
    work["max_linear_residual"] = max((d["max_linear_residual"] for d in diagnostics),
                                      default=0.0)
    return work


def _timed(timings: dict, phase: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its seconds added to timings[phase]."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - start
    return out


# identities ---------------------------------------------------------------


def run_verify_ops(cfg: Config) -> SuiteResult:
    """Randomized corpus over d in [1,3], n in [n_min, n_max]: product rules,
    their squared consequences, and both integration-by-parts identities."""
    seed = cfg.get("run", "seed")
    vo = cfg["verify_ops"]
    worst = {k: 0.0 for k in ("leibniz_diff", "leibniz_avg", "avg_square",
                              "diff_square", "ibp_diff", "ibp_avg")}
    avg_dominance_violations, timings = 0, {}
    for k in range(vo["fields"]):
        rng = run_rng(seed, SUITE_IDS["verify_ops"], k)
        d = int(rng.integers(1, 4))
        n = int(rng.integers(vo["n_min"], vo["n_max"] + 1))
        grid = g.GridSpec(d, n)
        fc = g.full_closure(grid)
        u = g.MeshFunction(fc, rng.normal(size=fc.size))
        v = g.MeshFunction(fc, rng.normal(size=fc.size))
        axis = int(rng.integers(0, d))
        scale_uv = max(1.0, ops.linf_norm(u)) * max(1.0, ops.linf_norm(v))
        scale_uu = max(1.0, ops.linf_norm(u)) ** 2
        leib = _timed(timings, "leibniz", ops.leibniz_residuals, u, v, axis)
        worst["leibniz_diff"] = max(worst["leibniz_diff"], leib["diff_rule"] / scale_uv)
        worst["leibniz_avg"] = max(worst["leibniz_avg"], leib["avg_rule"] / scale_uv)
        r_avg_sq, r_diff_sq, dominance = _timed(timings, "squares", _square_residuals, u, axis)
        worst["avg_square"] = max(worst["avg_square"], r_avg_sq / scale_uu)
        worst["diff_square"] = max(worst["diff_square"], r_diff_sq / (scale_uu / grid.h))
        avg_dominance_violations += int(dominance < -1e-12 * scale_uu)
        uc = g.MeshFunction(g.closure(grid, axis), rng.normal(size=g.closure(grid, axis).size))
        vs = g.MeshFunction(g.dual_star(grid, axis), rng.normal(size=g.dual_star(grid, axis).size))
        scale_ibp = max(1.0, ops.linf_norm(uc)) * max(1.0, ops.linf_norm(vs))
        ibp_diff = _timed(timings, "ibp", ops.ibp_diff_residual, uc, vs, axis)
        ibp_avg = _timed(timings, "ibp", ops.ibp_avg_residual, uc, vs, axis)
        worst["ibp_diff"] = max(worst["ibp_diff"], abs(ibp_diff) / scale_ibp)
        worst["ibp_avg"] = max(worst["ibp_avg"], abs(ibp_avg) / scale_ibp)
    assertions = [_le(f"{k}_residual", v, 1e-12) for k, v in sorted(worst.items())]
    assertions.append(_le("avg_dominance_violations", avg_dominance_violations, 0))
    header = ["identity", "max_normalized_residual"]
    rows = [[k, v] for k, v in sorted(worst.items())]
    return SuiteResult("verify_ops", assertions, {"identities": (header, rows)}, timings=timings)


def _square_residuals(u: g.MeshFunction, axis: int) -> tuple:
    """The largest residuals of A(u^2) = (A u)^2 + h^2/4 (D u)^2 and
    D(u^2) = 2 D u A u along one axis, and the least A(u^2) - (A u)^2."""
    h = u.mesh.grid.h
    du, au = ops.diff(u, axis).values, ops.avg(u, axis).values
    u_sq = g.MeshFunction(u.mesh, u.values ** 2)
    a_sq, d_sq = ops.avg(u_sq, axis).values, ops.diff(u_sq, axis).values
    return (np.max(np.abs(a_sq - (au ** 2 + 0.25 * h * h * du ** 2))),
            np.max(np.abs(d_sq - 2.0 * du * au)), np.min(a_sq - au ** 2))


# convergence ---------------------------------------------------------------


def _product_sine(X: np.ndarray) -> np.ndarray:
    return np.prod(np.sin(np.pi * X), axis=1)


def run_converge(cfg: Config) -> SuiteResult:
    """Manufactured-solution checks: exact discrete source reproduction,
    spatial order on the continuous source, temporal order of the trapezoid."""
    cc = cfg["converge"]
    d = cfg.get("grid", "d")
    T = cc["t_final"]
    rows = []

    grid = g.GridSpec(d, cfg.get("grid", "n"))
    pm = g.primal(grid)
    u0 = g.sample(pm, _product_sine)
    coeffs = CoefficientFields.constant(d)
    a_u0 = assemble_ah(grid, coeffs, 0.0) @ u0.values

    def discrete_src(t, X):
        return -math.exp(-t) * (u0.values + a_u0)

    tg, timings = TimeGrid(T, cc["manufactured_steps"]), {}
    traj = _timed(timings, "manufactured", solve_forward, grid, coeffs, discrete_src, tg, y_ini=u0)
    diagnostics = [traj.diagnostics]
    scale = np.max(np.abs(u0.values))
    rel_discrete = max(
        float(np.max(np.abs(traj.values[m] - math.exp(-t) * u0.values))) / scale
        for m, t in enumerate(tg.times)
    )

    lam_c = d * math.pi ** 2

    def continuous_src_factory(vals):
        def src(t, X):
            return (lam_c - 1.0) * math.exp(-t) * vals
        return src

    errs = []
    for n in cc["spatial_grids"]:
        gn = g.GridSpec(d, int(n))
        pn = g.primal(gn)
        un = g.sample(pn, _product_sine)
        tgn = TimeGrid(T, cc["spatial_steps"])
        trn = _timed(timings, "spatial", solve_forward, gn, CoefficientFields.constant(d),
                     continuous_src_factory(un.values), tgn, y_ini=un)
        diagnostics.append(trn.diagnostics)
        exact = math.exp(-T) * un.values
        err = math.sqrt(gn.h ** d * float(np.sum((trn.values[-1] - exact) ** 2)))
        err /= math.sqrt(gn.h ** d * float(np.sum(exact ** 2)))
        errs.append(err)
        rows.append(["spatial", int(n), tgn.steps, err])
    spatial_orders = [math.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]

    terrs = []
    for steps in cc["temporal_steps"]:
        tgt = TimeGrid(T, int(steps))
        trt = _timed(timings, "temporal", solve_forward, grid, coeffs, discrete_src, tgt, y_ini=u0)
        diagnostics.append(trt.diagnostics)
        exact = math.exp(-T) * u0.values
        err = float(np.max(np.abs(trt.values[-1] - exact))) / scale
        terrs.append(err)
        rows.append(["temporal", grid.n, int(steps), err])
    temporal_orders = [math.log2(a / b) for a, b in zip(terrs[:-1], terrs[1:])]

    assertions = [_le("discrete_manufactured_rel_error", rel_discrete, 1e-9)]
    for i, o in enumerate(spatial_orders):
        assertions.append(_ge(f"spatial_order_{i}", o, 1.9))
    for i, o in enumerate(temporal_orders):
        assertions.append(_ge(f"temporal_order_{i}", o, 1.9))
    return SuiteResult("converge", assertions,
                       {"converge": (["study", "n", "steps", "rel_error"], rows)},
                       extras={"spatial_orders": spatial_orders,
                               "temporal_orders": temporal_orders,
                               **_solver_work(diagnostics)}, timings=timings)


# energy ---------------------------------------------------------------------


def run_energy(cfg: Config) -> SuiteResult:
    """Randomized corpus for the exponential energy bound; zero violations."""
    seed = cfg.get("run", "seed")
    en = cfg["energy"]
    violations = 0
    margins = []
    rows = []
    diagnostics, timings = [], {}
    for k in range(en["runs"]):
        rng = run_rng(seed, SUITE_IDS["energy"], k)
        d = int(rng.integers(1, 3))
        n = int(rng.integers(5, 13))
        grid = g.GridSpec(d, n)
        coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True,
                                            b_amp=en["b_amp"])
        pm = g.primal(grid)
        y0 = g.MeshFunction(pm, rng.normal(size=pm.size))
        src = random_separable_source(rng, d, 1.0)
        tg = TimeGrid(1.0, en["steps"])
        traj = _timed(timings, "march", solve_forward, grid, coeffs, src, tg, y_ini=y0)
        diagnostics.append(traj.diagnostics)
        for t0, t1 in ((0.0, 1.0), (0.25, 0.75), (0.5, 0.9375)):
            rep = _timed(timings, "check", energy_check, traj, coeffs, src, t0, t1)
            violations += int(not rep.holds)
            margin = rep.rhs / rep.lhs if rep.lhs > 0 else math.inf
            margins.append(margin)
            rows.append([k, d, n, t0, t1, rep.lhs, rep.rhs, rep.c_tilde, rep.holds])
    assertions = [_le("energy_violations", violations, 0)]
    header = ["run_id", "d", "n", "t0", "t1", "lhs", "rhs", "c_tilde", "holds"]
    return SuiteResult("energy", assertions, {"energy": (header, rows)},
                       extras={"min_margin": min(margins), **_solver_work(diagnostics)},
                       timings=timings)


# weighted-inequality corpus --------------------------------------------------


def _draw_corpus_run(rng: np.random.Generator, cfg: Config, time_dependent: bool,
                     b_amp: float, tau_range: tuple[float, float]):
    d = cfg.get("grid", "d")
    T = cfg.get("time", "t_final")
    tau = float(rng.uniform(*tau_range))
    coeffs = random_smooth_coefficients(rng, d, T, time_dependent=time_dependent,
                                        b_amp=b_amp)
    y_prof = random_bump(rng, d)
    src = random_separable_source(rng, d, T)
    return tau, coeffs, y_prof, src


def _carleman_worker(payload) -> tuple[list, dict, dict]:
    cfg_values, run_index = payload
    cfg = Config(cfg_values)
    seed = cfg.get("run", "seed")
    ca = cfg["carleman"]
    d = cfg.get("grid", "d")
    T = cfg.get("time", "t_final")
    rng = run_rng(seed, SUITE_IDS["carleman"], run_index)
    tau, coeffs, y_prof, src = _draw_corpus_run(
        rng, cfg, time_dependent=True, b_amp=ca["b_amp"],
        tau_range=(ca["tau_min"], ca["tau_max"]))
    rows, diagnostics, timings, work = [], [], {}, {"weighted_points": 0}
    for n in ca["grids"]:
        grid = g.GridSpec(d, int(n))
        y0 = g.sample(g.primal(grid), y_prof)
        tg = TimeGrid(T, ca["steps"])
        traj = _timed(timings, "march", solve_forward, grid, coeffs, src, tg, y0)
        traj.stepper = None   # no z-system here: the factor need not outlive the march
        diagnostics.append(traj.diagnostics)
        weight = _weight(cfg, grid, _weight_params(cfg, tau=tau))
        for rep in _timed(timings, "corpus_terms", verify_cells, traj, src, coeffs,
                          [(weight, 0), (weight, 1)], work):
            rows.append({
                "run_id": run_index, "N": int(n), "h": grid.h, "p": rep.p,
                "tau": tau, "delta": weight.params.delta, "lambda": weight.params.lam,
                **rep.columns(), "admissible": rep.admissible,
                "residual": traj.diagnostics["max_linear_residual"],
            })
    return rows, {**_solver_work(diagnostics), **work}, timings


def _map_runs(worker, payloads, workers: int):
    # a pool starts all its processes at the first submit: none beyond one per run
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _feasibility_table(cfg: Config) -> tuple[list, list, int]:
    """The feasibility rows of every feasibility grid, the diagnostics of their
    marches, and the table entries their weighted sums formed."""
    ca, w = cfg["carleman"], cfg["weights"]
    d = cfg.get("grid", "d")
    T = cfg.get("time", "t_final")
    seed = cfg.get("run", "seed")
    draws = [_draw_corpus_run(run_rng(seed, SUITE_IDS["feasibility"], i), cfg,
                              time_dependent=True, b_amp=ca["b_amp"],
                              tau_range=(ca["tau_min"], ca["tau_max"]))
             for i in range(ca["feasibility_runs"])]
    rows, diagnostics, work = [], [], {"weighted_points": 0}
    for n in ca["feasibility_grids"]:
        grid = g.GridSpec(d, int(n))
        runs = []
        for _, coeffs, y_prof, src in draws:
            traj = solve_forward(grid, coeffs, src, TimeGrid(T, ca["steps"]),
                                 y_ini=g.sample(g.primal(grid), y_prof))
            traj.stepper = None   # no z-system here either
            runs.append((traj, src, coeffs))
        diagnostics += [traj.diagnostics for traj, _, _ in runs]
        cells = feasibility_cells(T, grid.h, w["tau1"], w["eps0"], ca["feasibility_taus"],
                                  ca["feasibility_deltas"])
        rows += feasibility_rows(
            [_weight(cfg, grid, _weight_params(cfg, tau=float(tau), delta=float(delta)))
             for tau, delta in cells], runs, work)
    return rows, diagnostics, work["weighted_points"]


def run_carleman(cfg: Config) -> SuiteResult:
    """Corpus of randomized admissible runs for p in {0, 1}, plus the
    feasibility table over (h, tau, delta) with a mesh-coupled delta cell."""
    ca = cfg["carleman"]
    workers = cfg.get("run", "workers")
    payloads = [(cfg.values, k) for k in range(ca["runs"])]
    results = _map_runs(_carleman_worker, payloads, workers)    # in run-id order
    rows = [row for batch, _, _ in results for row in batch]
    rows.sort(key=lambda r: (r["run_id"], r["N"], r["p"]))
    solver_work = [work for _, work, _ in results]
    timings = {phase: sum(t[phase] for _, _, t in results) for phase in results[0][2]}

    assertions, health = [], {"grids": [int(n) for n in ca["grids"]]}
    for p in (0, 1):
        per_grid = [[r["ratio"] for r in rows if r["p"] == p and r["N"] == n
                     and r["admissible"] and r["ratio"] is not None] for n in ca["grids"]]
        health[f"p{p}_max_ratio"] = _grid_maxima(per_grid)
        assertions.extend(_grid_stability(f"p{p}", f"p{p}_max_ratio_finite",
                                          health[f"p{p}_max_ratio"]))

    fea_rows, fea_diagnostics, fea_points = _timed(timings, "feasibility_table",
                                                   _feasibility_table, cfg)
    d = cfg.get("grid", "d")
    for n in ca["feasibility_grids"]:
        h = g.GridSpec(d, int(n)).h
        n_adm = sum(1 for r in fea_rows if r["h"] == h and r["admissible"])
        assertions.append(_ge(f"feasibility_admissible_n{n}", n_adm, 1))
    ratios = [r["ratio"] for r in fea_rows if r["ratio"] != ""]
    assertions.append(Assertion("feasibility_ratios_finite",
                                max(ratios) if ratios else math.nan, math.inf,
                                bool(ratios) and all(math.isfinite(v) for v in ratios)))

    corpus_header = ["run_id", "N", "h", "p", "tau", "delta", "lambda", "I_p", "J_p",
                     "rhs_source", "rhs_local", "rhs_endpoint", "ratio", "admissible",
                     "residual"]
    fea_header = ["h", "tau", "delta", "lambda", "p", "I_p", "J_p", "rhs_source",
                  "rhs_local", "rhs_endpoint", "ratio", "admissible"]
    tables = {
        "carleman_corpus": (corpus_header, [[r[k] for k in corpus_header] for r in rows]),
        "feasibility": (fea_header, [[r[k] for k in fea_header] for r in fea_rows]),
    }
    extras = {**_solver_work(solver_work + fea_diagnostics),
              # entries of the scale-free weight tables the weighted sums formed
              "weighted_points": sum(w["weighted_points"] for w in solver_work) + fea_points}
    return SuiteResult("carleman", assertions, tables, extras=extras, timings=timings,
                       health=health)


# stability corpus and decay ---------------------------------------------------


def _stability_worker(payload) -> tuple[list, list, dict]:
    cfg_values, run_index = payload
    cfg = Config(cfg_values)
    seed = cfg.get("run", "seed")
    st = cfg["stability"]
    d = cfg.get("grid", "d")
    T = cfg.get("time", "t_final")
    rng = run_rng(seed, SUITE_IDS["stability"], run_index)
    tau, coeffs, _, src = _draw_corpus_run(rng, cfg, time_dependent=False, b_amp=0.0,
                                           tau_range=(cfg.get("carleman", "tau_min"),
                                                      cfg.get("carleman", "tau_max")))
    rows, zs, timings = [], [], {}
    for n in st["grids"]:
        grid = g.GridSpec(d, int(n))
        tg = TimeGrid(T, st["steps"])
        adm = certify_separable(src, grid, tg)
        traj = _timed(timings, "march", solve_forward, grid, coeffs, adm.g, tg)
        z = _timed(timings, "z_system", solve_z_system, traj, adm.g)
        zs.append(z.diagnostics)
        weight = _weight(cfg, grid, _weight_params(cfg, tau=tau))
        res = _timed(timings, "quotient", stability_quotient, traj, z, adm, weight)
        rows.append({
            "run_id": run_index, "h": grid.h, "N": int(n), "d": d, "tau": tau,
            "delta": weight.params.delta, "lambda": weight.params.lam,
            "lhs": res.lhs, "rhs_observed": res.rhs_observed,
            "rhs_error_term": res.rhs_error_term, "quotient": res.quotient,
            "seed": f"{seed}.{run_index}",
            "reduced_quotient": res.reduced_quotient,
            "c_g": adm.c_g,
        })
    return rows, zs, timings


def run_stability(cfg: Config) -> SuiteResult:
    """Stability-quotient corpus on two grids plus the coupled-delta decay study."""
    st = cfg["stability"]
    workers = cfg.get("run", "workers")
    payloads = [(cfg.values, k) for k in range(st["runs"])]
    results = _map_runs(_stability_worker, payloads, workers)    # in run-id order
    rows = [row for batch, _, _ in results for row in batch]
    rows.sort(key=lambda r: (r["run_id"], r["N"]))
    timings = {phase: sum(t[phase] for _, _, t in results) for phase in results[0][2]}

    assertions, health = [], {"grids": [int(n) for n in st["grids"]]}
    for key in ("quotient", "reduced_quotient"):
        health[f"max_{key}"] = _grid_maxima([[r[key] for r in rows if r["N"] == n]
                                             for n in st["grids"]])
        assertions.extend(_grid_stability(key, f"{key}_finite", health[f"max_{key}"]))

    decay_rows, decay_assertions, decay_zs = _timed(timings, "decay", _decay_study, cfg)
    assertions.extend(decay_assertions)

    header = ["run_id", "h", "N", "d", "tau", "delta", "lambda", "lhs", "rhs_observed",
              "rhs_error_term", "quotient", "seed"]
    extra_header = ["run_id", "N", "reduced_quotient", "c_g"]
    decay_header = ["N", "h", "inv_h", "tau", "delta", "lambda", "endpoint_term",
                    "log_endpoint_term", "error_term", "log_error_term"]
    tables = {
        "stability": (header, [[r[k] for k in header] for r in rows]),
        "stability_extra": (extra_header, [[r[k] for k in extra_header] for r in rows]),
        "decay": (decay_header, decay_rows),
    }
    # each z trajectory's diagnostics count the march of its y run too
    zs = [z for _, batch, _ in results for z in batch] + decay_zs
    extras = {**_solver_work(zs), "max_cross_check_rel": max(z["cross_check_rel"] for z in zs)}
    return SuiteResult("stability", assertions, tables, extras=extras, timings=timings,
                       health=health)


def _decay_study(cfg: Config) -> tuple[list, list, list]:
    """Mesh-coupled delta: endpoint and error terms vs 1/h, fitted in log space;
    also the diagnostics of its z-systems."""
    st, w = cfg["stability"], cfg["weights"]
    d = cfg.get("grid", "d")
    T = cfg.get("time", "t_final")
    seed = cfg.get("run", "seed")
    rng = run_rng(seed, SUITE_IDS["decay"], 0)
    y_prof = random_bump(rng, d)
    src = random_separable_source(rng, d, T)
    coeffs = random_smooth_coefficients(run_rng(seed, SUITE_IDS["decay"], 1), d, T,
                                        time_dependent=False)
    rows, zs = [], []
    log_end, log_err, inv_h = [], [], []
    for n in st["decay_grids"]:
        grid = g.GridSpec(d, int(n))
        params = replace(_weight_params(cfg, w["tau1"], lam=st["decay_lambda"]),
                         delta=coupled_delta(T, grid.h, w["tau1"], w["eps0"]))
        weight = _weight(cfg, grid, params)
        tg = TimeGrid(T, st["decay_steps"])
        y0 = g.sample(g.primal(grid), y_prof)
        adm = certify_separable(src, grid, tg)
        traj = solve_forward(grid, coeffs, adm.g, tg, y_ini=y0)
        z = solve_z_system(traj, adm.g)
        zs.append(z.diagnostics)
        end = endpoint_term(traj, weight, 0)
        res = stability_quotient(traj, z, adm, weight)
        rows.append([int(n), grid.h, 1.0 / grid.h, params.tau, params.delta, params.lam,
                     end.value, end.log, res.rhs_error_term, res.log_error_term])
        log_end.append(end.log)
        log_err.append(res.log_error_term)
        inv_h.append(1.0 / grid.h)
    assertions = []
    assertions.append(_le("decay_endpoint_monotone",
                          max(b - a for a, b in zip(log_end[:-1], log_end[1:])), 0.0))
    assertions.append(_le("decay_error_monotone",
                          max(b - a for a, b in zip(log_err[:-1], log_err[1:])), 0.0))
    for name, logs in (("endpoint", log_end), ("error", log_err)):
        slopes = [(lb - la) / (xb - xa) for (la, lb, xa, xb)
                  in zip(logs[:-1], logs[1:], inv_h[:-1], inv_h[1:])]
        assertions.append(_le(f"decay_{name}_slope_negative", max(slopes), 0.0))
        spread = max(abs(s - slopes[0]) for s in slopes) / abs(slopes[0])
        assertions.append(_le(f"decay_{name}_slope_spread", spread, 0.2))
    return rows, assertions, zs


# reconstruction ----------------------------------------------------------------


def run_reconstruct(cfg: Config) -> SuiteResult:
    """Twin experiments: separable-source recovery and zero-order coefficient
    recovery, with an optional noise/regularisation sweep (reported only)."""
    rc = cfg["reconstruct"]
    seed = cfg.get("run", "seed")
    d = cfg.get("grid", "d")
    T = cfg.get("time", "t_final")
    rng = run_rng(seed, SUITE_IDS["reconstruct"], 0)
    rows, timings = [], {}

    grid = g.GridSpec(d, rc["n"])
    tg = TimeGrid(T, rc["steps"])
    adm = certify_separable(random_separable_source(rng, d, T), grid, tg)
    coeffs = random_smooth_coefficients(rng, d, T, time_dependent=False)
    traj = _timed(timings, "source_march", solve_forward, grid, coeffs, adm.g, tg)
    obs = observe(traj, Box.cube(*cfg.get("domain", "omega"), d))
    rec = _timed(timings, "normal_equations", reconstruct_source, grid, coeffs, adm.r, tg, obs,
                 beta=rc["beta"], truth=adm.f)
    rows.append(["source", grid.n, rc["beta"], 0.0, rec.relative_error])

    if rc["noise"] > 0:
        noisy = add_observation_noise(obs, rc["noise"], run_rng(seed, SUITE_IDS["reconstruct"], 1))
        betas = np.logspace(math.log10(rc["beta"]), math.log10(rc["beta"]) + rc["beta_sweep_decades"],
                            rc["beta_sweep_decades"] + 1)
        for b in betas:
            rec_n = _timed(timings, "normal_equations", reconstruct_source, grid, coeffs, adm.r,
                           tg, noisy, beta=float(b), truth=adm.f)
            rows.append(["source_noisy", grid.n, float(b), rc["noise"], rec_n.relative_error])

    cgrid = g.GridSpec(d, rc["coeff_n"])
    cpm = g.primal(cgrid)
    p_true = g.sample(cpm, lambda X: 1.0 + X[:, 0])
    base = CoefficientFields.constant(d)
    shifted = CoefficientFields(gamma=base.gamma, b=None, c=_ShiftedPotential())
    ctg = TimeGrid(rc["coeff_t_final"], rc["coeff_steps"])
    y0 = g.sample(cpm, _product_sine)
    frames, cdiag = _timed(timings, "coefficient_march", _march_past_mid, cgrid, shifted, ctg, y0)
    mid = ctg.mid   # the measurement at T/2: the snapshot and its centred difference
    snapshot = g.MeshFunction(cpm, frames[mid])
    dt_snapshot = (frames[mid + 1] - frames[mid - 1]) / (2.0 * ctg.dt)
    recov = _timed(timings, "coefficient_recovery", recover_coefficient, snapshot, dt_snapshot,
                   ctg, base, alpha=rc["coeff_alpha"], truth=p_true)
    rows.append(["coefficient", cgrid.n, 0.0, 0.0, recov.relative_error])

    assertions = [
        _le("source_recovery_rel_error", rec.relative_error, 5e-3),
        _le("coefficient_recovery_rel_error", recov.relative_error, 1e-2),
        _ge("coefficient_mask_fraction", recov.mask_fraction, 0.5),
    ]
    header = ["kind", "n", "beta", "noise", "rel_error"]
    return SuiteResult("reconstruct", assertions, {"reconstruct": (header, rows)},
                       extras=_solver_work([traj.diagnostics, cdiag]),
                       timings=timings)


# a separable sampler, so the coefficient march samples its frames in one call
_zero_source = ConstantField(0.0)


def _march_past_mid(grid: g.GridSpec, coeffs: CoefficientFields, tg: TimeGrid,
                    y0: g.MeshFunction) -> tuple[np.ndarray, dict]:
    """Frames 0, ..., mid + 1 of the source-free march from y0 on `tg`, bitwise
    those of `solve_forward` over the whole grid, and the march's diagnostics:
    the measurement at T/2 reads no later frame."""
    stepper = Stepper(grid, coeffs, tg)
    g_all = sample_frames(_zero_source, tg.times[:tg.mid + 2], g.primal(grid).physical)
    frames, max_res = stepper.march(y0.values,
                                    stepper.forcing(g_all[:-1], g_all[1:], out=g_all[:-1]))
    return frames, stepper.diagnostics(max_res)


class _ShiftedPotential:
    """c(t,x) = -(1 + x_0): turns the sought zero-order coefficient into
    operator data for the synthetic truth run."""

    def __call__(self, t, X):
        X = np.atleast_2d(X)
        return -(1.0 + X[:, 0])
