"""Benchmark workloads: which CLI suites a pass runs, with which overrides.

Every workload runs on the built-in default configuration plus the overrides
listed here, `run.workers=1`, and `run.seed` set to the benchmark seed.  The
corpus counts (`carleman.runs`, `carleman.feasibility_runs`, `stability.runs`)
and the feasibility grids are the run-length knobs; everything else is left
at its default.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[tuple[str, tuple[str, ...]], ...]   # (suite, --set overrides)
    why: str
    exercises: str
    bypasses: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="carleman-d1",
        suites=(("carleman", ("carleman.runs=1", "carleman.feasibility_runs=1",
                              "carleman.feasibility_grids=15,31")),),
        why="weighted-inequality corpus and feasibility table at d=1, N=15,31, "
            "time-dependent coefficients with advection: per-frame weighted sums dominate",
        exercises="quadrature weighted sums, log weights, carleman terms, per-step re-assembly "
                  "and nonsymmetric BiCGStab solves (time-dependent coefficients with advection)",
        bypasses="stability quotient, observation, reconstruction, CG and the z-system",
    ),
    Workload(
        name="carleman-d2",
        suites=(("carleman", ("grid.d=2", "carleman.runs=1", "carleman.feasibility_runs=1",
                              "carleman.feasibility_grids=15")),),
        why="the same suite at d=2 (N=31: 961-unknown 5-point systems; mixed i!=j difference "
            "block), so a d=1-tuned kernel or solve policy that costs d>=2 shows",
        exercises="the carleman-d1 layers at 15x the points per frame, plus the i!=j "
                  "mixed-difference block",
        bypasses="stability quotient, observation, reconstruction, CG and the z-system",
    ),
    Workload(
        name="inverse-d1",
        suites=(("stability", ("stability.runs=1",)), ("reconstruct", ())),
        why="stability corpus and decay study then the twin reconstructions: one symmetric "
            "operator serves thousands of CG solves",
        exercises="CG solves against a repeated operator, the z-system, observation, "
                  "reconstruction by CG on the normal equations, coefficient recovery",
        bypasses="verify_inequality and compute_lhs (no feasibility table), advection, "
                 "time-dependent re-assembly",
    ),
)}


def expected_rows(suite: str, cfg) -> dict:
    """Row counts each CSV of one suite must have under config `cfg`.

    A count of None only requires the table to be non-empty.
    """
    if suite == "carleman":
        ca = cfg["carleman"]
        return {"carleman_corpus": ca["runs"] * len(ca["grids"]) * 2, "feasibility": None}
    if suite == "stability":
        st = cfg["stability"]
        corpus = st["runs"] * len(st["grids"])
        return {"stability": corpus, "stability_extra": corpus,
                "decay": len(st["decay_grids"])}
    if suite == "reconstruct":
        return {"reconstruct": None}
    raise ValueError(f"no row expectations for suite {suite!r}")
