"""One benchmark interpreter: import carlstab, then time workload passes.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N --mode setup|passes
        --t0 T --budget S --min-passes K --trace 0|1 --reference 0|1 --tag TAG

`--t0` is the CLOCK_MONOTONIC reading taken just before this interpreter was
started; the time from it until imports and config parsing are done is the
set-up time.  In `passes` mode the interpreter then runs workload passes
through `carlstab.cli.main`, at least K of them and no more than fit in S
seconds, and checks each: every suite exits 0 with all assertions passing,
every CSV table has its expected rows, and the CSV bytes equal the first
pass's.  With `--trace 1` the tracer is installed before carlstab is
imported.  With `--reference 1` the fixed reference work of `reference.py`
gauges the host's speed: in `setup` mode a burst of it runs after set-up; in
`passes` mode it is sampled while each suite runs, and each suite's times,
less the sampling's, are stored with the host speed they measured.  The result
goes to ROOT/.perfbench-out/NAME/TAG.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path


def _pass(cli, plans, pass_dir: Path, tracer, sampler, index: int) -> dict:
    if tracer is not None:
        tracer.begin_pass(index)
    begin = time.perf_counter()
    wall = cpu = 0.0
    problems = []
    suites = []
    for suite, sets, _ in plans:
        argv = [suite, *[a for s in sets for a in ("--set", s)], "--out", str(pass_dir / suite)]
        log = io.StringIO()
        if sampler is not None:
            sampler.start()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:    # anything cli.main lets escape fails the pass
            rc = 1
            problems.append(f"{suite}: {type(exc).__name__}: {exc}")
        finally:
            if sampler is not None:
                sampler.stop()
        w, c = time.perf_counter() - w0, time.process_time() - c0
        speed = None
        if sampler is not None:
            w, c, speed = w - sampler.wall_s, c - sampler.cpu_s, sampler.host_speed()
        wall += w
        cpu += c
        suites.append({"suite": suite, "wall_s": w, "cpu_s": c, "host_speed": speed})
        if rc != 0:
            problems.append(f"{suite}: exit {rc}: {log.getvalue()[-400:]}")

    digest = hashlib.sha256()
    assertions = []
    for suite, _, rows in plans:
        run_dir = pass_dir / suite
        for table, want in rows.items():
            path = run_dir / f"{table}.csv"
            if not path.is_file():
                problems.append(f"{suite}: {table}.csv missing")
                continue
            data = path.read_bytes()
            digest.update(f"{suite}/{table}.csv\0{len(data)}\0".encode())
            digest.update(data)
            got = data.count(b"\n") - 1
            if got < 1 or (want is not None and got != want):
                problems.append(f"{suite}: {table}.csv has {got} rows, expected {want or '>=1'}")
        summary = run_dir / "summary.json"
        if summary.is_file():
            for a in json.loads(summary.read_text())["assertions"]:
                assertions.append({"suite": suite, **a})
                if not a["pass"]:
                    problems.append(f"{suite}: assertion {a['name']} failed")
        else:
            problems.append(f"{suite}: summary.json missing")
    return {"wall_s": wall, "cpu_s": cpu, "suites": suites,
            "span_s": time.perf_counter() - begin, "digest": digest.hexdigest(),
            "problems": problems, "assertions": assertions}


def _env() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "passes"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, expected_rows

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_scipy()
    import carlstab
    if Path(carlstab.__file__).resolve().parent != root / "src" / "carlstab":
        raise SystemExit(f"carlstab imported from {carlstab.__file__}, not from {root / 'src'}")
    from carlstab import cli
    from carlstab.config import parse_config
    if tracer is not None:
        tracer.install_carlstab()

    plans = []
    for suite, overrides in WORKLOADS[args.workload].suites:
        sets = (*overrides, "run.workers=1", f"run.seed={args.seed}")
        plans.append((suite, sets, expected_rows(suite, parse_config(None, sets))))
    result = {"setup_s": time.monotonic() - args.t0}
    sampler = None
    if args.reference:
        import reference
        if args.mode == "setup":
            result["host_speed"] = reference.burst()
        else:
            sampler = reference.Sampler()

    out_dir = root / ".perfbench-out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "passes":
        work = out_dir / args.tag
        shutil.rmtree(work, ignore_errors=True)
        passes = []
        begin = time.perf_counter()
        while len(passes) < args.min_passes or \
                time.perf_counter() - begin + passes[-1]["span_s"] <= args.budget:
            pass_dir = work / f"pass-{len(passes)}"
            p = _pass(cli, plans, pass_dir, tracer, sampler, len(passes))
            if passes and p["digest"] != passes[0]["digest"]:
                p["problems"].append("CSV bytes differ from the first pass")
            if passes:   # keep the first pass's run directories for inspection
                shutil.rmtree(pass_dir, ignore_errors=True)
            passes.append(p)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["assertions"] = passes[0]["assertions"]
        for p in passes:
            del p["assertions"]
        result["passes"] = passes
        result["env"] = _env()
        if tracer is not None:
            tables = tracer.tables()
            result["trace"] = {
                "tables": tables,
                "metrics": [tracer.pass_metrics(t, c) for t, c in zip(tables, tracer.counts)],
                "detail": [[name, size, calls, secs]
                           for (name, size), (calls, secs) in sorted(
                               tracer.detail.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            }
            tracer.write_spans(out_dir / f"{args.tag}-spans.npz")
    (out_dir / f"{args.tag}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
