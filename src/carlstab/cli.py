"""Command-line front end.

    carlstab <suite> [--config FILE] [--set section.key=value ...] [--out DIR]

Suites: verify-ops, converge, energy, carleman, stability, reconstruct.
Each run writes a directory containing the fully resolved config snapshot,
a machine-readable summary (one entry per assertion), and the suite's CSV
tables.  Exit codes: 0 success, 1 assertion or run failure, 2 config error.

Re-running with the same config and seed reproduces every CSV byte for byte;
floats are serialised with shortest round-trip repr and all reductions are
order-fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import Config, parse_config
from .errors import ConfigError
from .experiments import (SuiteResult, run_carleman, run_converge, run_energy,
                          run_reconstruct, run_stability, run_verify_ops)

_SUITES = {
    "verify-ops": run_verify_ops,
    "converge": run_converge,
    "energy": run_energy,
    "carleman": run_carleman,
    "stability": run_stability,
    "reconstruct": run_reconstruct,
}


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_format_cell(v) for v in row) + "\n")


def _json_num(v: float):
    return v if math.isfinite(v) else repr(v)


def _json_value(v):
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return _json_num(v) if isinstance(v, float) else v


def _write_run_dir(out_dir: Path, cfg: Config, result: SuiteResult, wall: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.cfg").write_text(cfg.snapshot_text())
    for name, (header, rows) in result.tables.items():
        write_csv(out_dir / f"{name}.csv", header, rows)
    summary = {
        "suite": result.suite,
        "assertions": [
            {"name": a.name, "value": _json_num(a.value), "bound": _json_num(a.bound),
             "pass": a.passed}
            for a in result.assertions
        ],
        "extras": {key: _json_value(v) for key, v in result.extras.items()},
        "timings": result.timings,
        "health": {key: _json_value(v) for key, v in result.health.items()},
        "wall_time_s": wall,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="carlstab",
        description="staggered-grid parabolic estimate verification and "
                    "inverse source stability experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUITES:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE", help="override one config entry")
        p.add_argument("--out", help="run directory (default: <run.out>/<suite>)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        result = _SUITES[args.command](cfg)
    except Exception as exc:  # solver/certification failures are run failures
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start

    out_dir = Path(args.out) if args.out else Path(cfg.get("run", "out")) / result.suite
    _write_run_dir(out_dir, cfg, result, wall)

    for a in result.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"[{status}] {a.name}: value={a.value:.6g} bound={a.bound:.6g}")
    print(f"suite={result.suite} wall={wall:.1f}s artifacts={out_dir}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
