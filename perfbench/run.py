"""carlstab benchmark: CLI suite passes timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; carlstab is imported from its `src/`.  Each
measuring interpreter is fresh, single-process (`run.workers=1`) and pins
BLAS to one thread; the seed becomes `run.seed`.

--trace 0  starts SETUP_SAMPLES - 1 interpreters that only import and parse
           the config, then one that also runs workload passes for S
           seconds (at least two).  Reports setup_s (median over all of
           them), and wall_s, cpu_s (medians over passes) and peak_rss_mb.
           Every timing is scaled to the reference host speed: each
           interpreter times units of fixed reference work after set-up,
           and samples them while each suite runs (`reference.py`); a raw
           time t, less the sampling's, becomes t * host speed, where the
           host speed is UNIT_S / (mean unit time).  The raw medians and the
           host speed are printed and stored alongside.
--trace 1  runs one untraced interpreter and two traced ones, each for a
           third of S (at least one pass each), and reports the per-layer
           metrics: timings as medians over traced passes, counts from the
           first.  Counts must repeat exactly over every traced pass, and
           traced CSV bytes must equal untraced ones.

A pass fails when a suite exits non-zero or an assertion fails, when a CSV
table lacks its expected rows, or when its CSV bytes differ from the first
pass of the same interpreter.  Human-readable lines go first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics, where metrics holds the metrics BENCHMARK.json lists for
the mode.  Full results, with the environment and every suite assertion, go
to .perfbench-out/NAME/result-trace<T>-seed<N>.json, and span arrays next
to them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import METRICS, is_exact  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spawn(args, deadline: float, mode: str, tag: str, budget: float = 0.0,
          min_passes: int = 1, trace: int = 0, reference: int = 0) -> dict:
    """Run one fresh worker interpreter to completion and load its result."""
    out = OUT / args.workload / f"{tag}.json"
    out.unlink(missing_ok=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--t0", repr(t0), "--budget", repr(budget), "--min-passes", str(min_passes),
           "--trace", str(trace), "--reference", str(reference), "--tag", tag]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError(f"{tag}: worker exceeded the time limit") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{tag}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(worker_env: dict) -> dict:
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            **worker_env, "blas_threads": THREAD_ENV, "run.workers": 1}


def _failed(passes) -> int:
    return sum(1 for p in passes if p["problems"])


def _fail_frac(passes) -> dict:
    """failed / attempted passes; the result line carries both counts as well."""
    return {"value": _failed(passes) / len(passes), "unit": "frac", "kind": "exact"}


def _scaled(p: dict, key: str) -> float:
    """One pass's time at the reference host speed, suite by suite."""
    return sum(s[key] * s["host_speed"] for s in p["suites"])


def measure(args, deadline: float) -> dict:
    setups = [spawn(args, deadline, "setup", f"setup-{i}", reference=1)
              for i in range(SETUP_SAMPLES - 1)]
    run = spawn(args, deadline, "passes", "plain", budget=args.seconds, min_passes=2,
                reference=1)
    passes = run["passes"]
    setups.append({"setup_s": run["setup_s"],
                   "host_speed": passes[0]["suites"][0]["host_speed"]})
    samples = {
        "setup_s": [s["setup_s"] * s["host_speed"] for s in setups],
        "wall_s": [_scaled(p, "wall_s") for p in passes],
        "cpu_s": [_scaled(p, "cpu_s") for p in passes],
        "peak_rss_mb": [run["peak_rss_mb"]],
        "setup_raw_s": [s["setup_s"] for s in setups],
        "wall_raw_s": [p["wall_s"] for p in passes],
        "cpu_raw_s": [p["cpu_s"] for p in passes],
        "host_speed": ([s["host_speed"] for s in setups[:-1]]
                       + [s["host_speed"] for p in passes for s in p["suites"]]),
    }
    units = {"peak_rss_mb": "MB", "host_speed": "x"}
    metrics = {k: {"value": statistics.median(v), "unit": units.get(k, "s"), "samples": v,
                   "kind": "noisy"} for k, v in samples.items()}
    metrics["fail_frac"] = _fail_frac(passes)
    return {"passes": passes, "checks": [], "assertions": run["assertions"],
            "env": environment(run["env"]), "metrics": metrics}


def trace(args, deadline: float) -> dict:
    plain = spawn(args, deadline, "passes", "plain", budget=args.seconds / 3)
    traced = [spawn(args, deadline, "passes", f"traced-{i}", budget=args.seconds / 3, trace=1)
              for i in range(2)]
    passes = plain["passes"] + [p for t in traced for p in t["passes"]]
    checks = []
    reference = plain["passes"][0]["digest"]
    for t in traced:
        for p in t["passes"]:
            if p["digest"] != reference:
                p["problems"].append("traced CSV bytes differ from the untraced pass")
    per_pass = [m for t in traced for m in t["trace"]["metrics"]]
    metrics = {"fail_frac": _fail_frac(passes)}
    for name, unit in METRICS:
        if name == "trace.overhead_frac":
            continue
        values = [m[name] for m in per_pass]
        if is_exact(name):
            if any(v != values[0] for v in values):
                checks.append(f"exact counter {name} differs between traced passes: {values}")
            metrics[name] = {"value": values[0], "unit": unit, "kind": "exact"}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit,
                             "samples": values, "kind": "noisy"}
    traced_wall = statistics.median([m["cli.main.s"] for m in per_pass])
    plain_wall = statistics.median([p["wall_s"] for p in plain["passes"]])
    metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1.0,
                                      "unit": "frac", "kind": "noisy"}
    shares = {k[len("layer."):-len(".self_s")]: v["value"] / traced_wall
              for k, v in metrics.items() if k.startswith("layer.")}
    return {"passes": passes, "checks": checks, "assertions": plain["assertions"],
            "env": environment(plain["env"]), "metrics": metrics, "layer_self_share": shares,
            "detail": traced[0]["trace"]["detail"]}


def report(args, res: dict, wanted: list[str]):
    w = WORKLOADS[args.workload]
    print(f"# carlstab benchmark  workload={w.name}  seed={args.seed}  trace={args.trace}")
    for suite, overrides in w.suites:
        print(f"#   suite {suite}: {' '.join(overrides) or '(defaults)'}")
    print(f"#   exercises: {w.exercises}")
    print(f"#   bypasses: {w.bypasses}")
    env = res["env"]
    print(f"# env: sha={env['git_sha']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']} blas_threads=1 run.workers=1")
    for name, m in res["metrics"].items():
        line = f"{name:45s} {m['value']!r:>24} {m['unit']:6s} [{m['kind']}]"
        if m["kind"] == "noisy" and m["value"] == 0:
            line += " (not exercised by this workload)"
        elif "samples" in m and len(m["samples"]) > 1:
            q1, med, q3 = quartiles(m["samples"])
            line += f" median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(m['samples'])}"
        print(line)
    for layer, share in res.get("layer_self_share", {}).items():
        print(f"share of traced wall, layer {layer:12s} self time: {share:.4f}")
    for a in res["assertions"]:
        print(f"assertion {a['suite']}.{a['name']}: value={a['value']!r} bound={a['bound']!r} "
              f"{'PASS' if a['pass'] else 'FAIL'}")
    for p in res["passes"]:
        for problem in p["problems"]:
            print(f"FAILED PASS: {problem}")
    for check in res["checks"]:
        print(f"FAILED CHECK: {check}")
    metrics = {k: {"value": res["metrics"][k]["value"], "unit": res["metrics"][k]["unit"]}
               for k in wanted}
    n, failed = len(res["passes"]), _failed(res["passes"])
    print(json.dumps({"correct": failed == 0 and not res["checks"], "attempted": n,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative (it becomes run.seed)")
    if not (ROOT / "src" / "carlstab" / "cli.py").is_file():
        print(f"no carlstab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        res = trace(args, deadline) if args.trace else measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    (OUT / args.workload / f"result-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, **res}, indent=1))
    report(args, res, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
