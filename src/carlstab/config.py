"""Experiment configuration: one INI file, schema-validated, CLI-overridable.

The schema holds exactly the knobs some suite reads: the converge grid, the
horizon, the observation boxes, the weight's lambda and delta and the one mesh
coupling tau1 / (T^2 delta) = eps0 / h (its other constants are fixed in
`weights`; each suite sets its own tau), each suite's corpus sizes, grids, step
counts and advection amplitude, and the run seed, so a
run's snapshot (`Config.snapshot_text`) is all it takes to re-run it.  Each
setting has one spelling, `section.key`, in the file or in a `--set
section.key=value` override; no CLI flag duplicates one.  Validation failures
carry field-level paths and map to exit code 2 at the CLI.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from .errors import AdmissibilityError, ConfigError
from .grid import GridSpec
from .weights import EPSILON, admissible, coupled_delta, feasibility_cells


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_interval(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int_list": _parse_int_list,
    "float_list": _parse_float_list,
    "interval": _parse_interval,
}

# section -> key -> (type, default)
SCHEMA = {
    "grid": {
        "d": ("int", 1),
        "n": ("int", 15),
    },
    "time": {
        "t_final": ("float", 1.0),
    },
    "domain": {
        "omega": ("interval", (0.2, 0.8)),
        "omega0": ("interval", (0.35, 0.65)),
    },
    "weights": {
        "lambda": ("float", 2.0),
        "delta": ("float", 0.5),
        "tau1": ("float", 2.5),
        "eps0": ("float", 0.5),
    },
    "verify_ops": {
        "fields": ("int", 200),
        "n_min": ("int", 3),
        "n_max": ("int", 20),
    },
    "converge": {
        "spatial_grids": ("int_list", (7, 15, 31)),
        "spatial_steps": ("int", 2048),
        "temporal_steps": ("int_list", (32, 64, 128)),
        "manufactured_steps": ("int", 4096),
        "t_final": ("float", 0.25),
    },
    "energy": {
        "runs": ("int", 100),
        "steps": ("int", 128),
        "b_amp": ("float", 0.5),
    },
    "carleman": {
        "runs": ("int", 50),
        "grids": ("int_list", (15, 31)),
        "steps": ("int", 256),
        "tau_min": ("float", 2.2),
        "tau_max": ("float", 3.8),
        "b_amp": ("float", 0.3),
        "feasibility_grids": ("int_list", (15, 31, 63)),
        "feasibility_taus": ("float_list", (2.5, 4.0, 8.0)),
        "feasibility_deltas": ("float_list", (0.125, 0.25, 0.5)),
        "feasibility_runs": ("int", 2),
    },
    "stability": {
        "runs": ("int", 50),
        "grids": ("int_list", (15, 31)),
        "steps": ("int", 256),
        "decay_grids": ("int_list", (15, 31, 63)),
        "decay_steps": ("int", 256),
        "decay_lambda": ("float", 1.0),
    },
    "reconstruct": {
        "n": ("int", 15),
        "steps": ("int", 256),
        "beta": ("float", 1e-10),
        "noise": ("float", 0.0),
        "beta_sweep_decades": ("int", 6),
        "coeff_n": ("int", 31),
        "coeff_steps": ("int", 2048),
        "coeff_alpha": ("float", 0.02),
        "coeff_t_final": ("float", 0.2),
    },
    "run": {
        "seed": ("int", 20240901),
        "workers": ("int", 1),
        "out": ("str", "runs"),
    },
}


# the most primal unknowns a grid of any suite may march: N = 31 at d = 3 (29 791),
# not N = 63 (250 047, gigabytes of factors)
MAX_UNKNOWNS = 1 << 15
# n x n normal-equation arrays: 134 MB each at 2^12 unknowns, 7.1 GB at N = 31, d = 3
MAX_NORMAL_UNKNOWNS = 1 << 12
# step counts whose runs observe, or certify a source at, the mid time T/2
_MID_TIME_STEPS = ("stability.steps", "stability.decay_steps", "reconstruct.steps",
                   "reconstruct.coeff_steps")
_AT_LEAST_ONE = ("grid.n", "verify_ops.fields", "energy.runs", "carleman.runs",
                 "carleman.feasibility_runs", "stability.runs", "converge.spatial_steps",
                 "converge.manufactured_steps", "reconstruct.n", "reconstruct.coeff_n",
                 "weights.lambda", "weights.tau1", "stability.decay_lambda", "run.workers")
_POSITIVE = ("time.t_final", "converge.t_final", "reconstruct.coeff_t_final", "weights.eps0")
_NON_NEGATIVE = ("reconstruct.noise", "reconstruct.beta", "reconstruct.beta_sweep_decades")
# lists that feed an order or a slope need two points; every other list needs one
_MIN_ENTRIES = {"converge.spatial_grids": 2, "converge.temporal_steps": 2,
                "stability.decay_grids": 2}


@dataclass
class Config:
    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def get(self, section: str, key: str):
        return self.values[section][key]

    def snapshot_text(self) -> str:
        """Fully resolved INI text; re-running from it reproduces the run."""
        buf = io.StringIO()
        for section in SCHEMA:
            buf.write(f"[{section}]\n")
            for key, (kind, _) in SCHEMA[section].items():
                val = self.values[section][key]
                if kind == "interval":
                    text = f"{val[0]!r}:{val[1]!r}"
                elif isinstance(val, tuple):
                    text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
                elif isinstance(val, float):
                    text = repr(val)
                else:
                    text = str(val)
                buf.write(f"{key} = {text}\n")
            buf.write("\n")
        return buf.getvalue()


def default_config() -> Config:
    return Config({s: {k: v for k, (_, v) in keys.items()} for s, keys in SCHEMA.items()})


def parse_config(path: str | None = None, overrides=()) -> Config:
    """Load, override, and validate a configuration.

    Raises ConfigError listing every offending `section.key` with its reason.
    """
    cfg = default_config()
    problems = []
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found or unreadable: {path}")
        for section in parser.sections():
            if section not in SCHEMA:
                problems.append(f"{section}: unknown section")
                continue
            for key, raw in parser.items(section):
                _apply(cfg, section, key, raw, problems)
    for ov in overrides:
        target, _, raw = ov.partition("=")
        if not _ or "." not in target:
            problems.append(f"{ov!r}: overrides take the form section.key=value")
            continue
        section, _, key = target.partition(".")
        if section not in SCHEMA:
            problems.append(f"{section}: unknown section")
            continue
        _apply(cfg, section, key.strip(), raw.strip(), problems)
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    _validate(cfg)
    return cfg


def _apply(cfg: Config, section: str, key: str, raw: str, problems: list):
    spec = SCHEMA[section].get(key)
    if spec is None:
        problems.append(f"{section}.{key}: unknown key")
        return
    try:
        cfg.values[section][key] = _PARSERS[spec[0]](raw)
    except (ValueError, TypeError) as exc:
        problems.append(f"{section}.{key}: cannot parse {raw!r} as {spec[0]} ({exc})")


def _validate(cfg: Config):
    problems = []
    if not 1 <= cfg.get("grid", "d") <= 3:
        problems.append("grid.d: must be in [1, 3]")
    problems += [f"{name}: must be >= 1" for name in _AT_LEAST_ONE
                 if cfg.get(*name.split(".")) < 1]
    problems += [f"{name}: must be positive" for name in _POSITIVE
                 if cfg.get(*name.split(".")) <= 0]
    problems += [f"{name}: must be >= 0" for name in _NON_NEGATIVE
                 if cfg.get(*name.split(".")) < 0]
    for name in _MID_TIME_STEPS:
        steps = cfg.get(*name.split("."))
        if steps < 2 or steps % 2:
            problems.append(f"{name}: must be even and >= 2 (mid-time frame needed)")
    if cfg.get("carleman", "steps") < 2:
        problems.append("carleman.steps: must be >= 2 (the corpus differences frames in time)")
    if cfg.get("energy", "steps") < 16 or cfg.get("energy", "steps") % 16:
        problems.append("energy.steps: must be a positive multiple of 16 "
                        "(frames at t = 0.25, 0.5 and 0.9375 needed)")
    if not 1 <= cfg.get("verify_ops", "n_min") <= cfg.get("verify_ops", "n_max"):
        problems.append("verify_ops.n_min: must satisfy 1 <= n_min <= verify_ops.n_max")
    for section, keys in SCHEMA.items():
        for key, (kind, _) in keys.items():
            need = _MIN_ENTRIES.get(f"{section}.{key}", 1)
            if kind.endswith("_list") and len(cfg.get(section, key)) < need:
                problems.append(f"{section}.{key}: needs at least {need} value(s)")
            if kind == "int_list" and min(cfg.get(section, key), default=1) < 1:
                problems.append(f"{section}.{key}: every entry must be >= 1")
    lo, hi = cfg.get("domain", "omega")
    lo0, hi0 = cfg.get("domain", "omega0")
    if not 0.0 < lo < hi < 1.0:
        problems.append("domain.omega: must satisfy 0 < lo < hi < 1")
    elif not lo < lo0 < hi0 < hi:
        problems.append("domain.omega0: must be strictly inside domain.omega")
    if not 0 < cfg.get("weights", "delta") <= 0.5:
        problems.append("weights.delta: must be in (0, 1/2]")
    if min(cfg.get("carleman", "feasibility_taus"), default=1) < 1:
        problems.append("carleman.feasibility_taus: every entry must be >= 1")
    if cfg.get("reconstruct", "beta") == 0 and cfg.get("reconstruct", "noise") > 0:
        problems.append("reconstruct.beta: must be > 0 when reconstruct.noise > 0 "
                        "(the noisy sweep steps beta in decades from it)")
    d = cfg.get("grid", "d")
    for name in ("carleman.grids", "carleman.feasibility_grids", "stability.grids",
                 "stability.decay_grids", "grid.n", "converge.spatial_grids",
                 "reconstruct.coeff_n", "reconstruct.n"):
        bound = MAX_NORMAL_UNKNOWNS if name == "reconstruct.n" else MAX_UNKNOWNS
        grids = cfg.get(*name.split("."))
        grids = grids if isinstance(grids, tuple) else (grids,)
        for n in [n for n in grids if n ** d > bound][:1]:
            problems.append(f"{name}: N={n} at d={d} marches {n ** d} unknowns, more than {bound}")
    if not problems:
        _check_tau_window(cfg, problems)
        _check_feasibility_cells(cfg, problems)
        _check_decay_window(cfg, problems)
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


def _check_tau_window(cfg: Config, problems: list):
    """Every tau the two corpora draw must be admissible on every grid they run.

    The carleman and stability corpora draw tau from [carleman.tau_min,
    carleman.tau_max]; the floor binds at tau_min and the coupling
    tau h / (delta T^2) grows with tau and h, so both ends on the coarsest grid
    of each corpus decide.
    """
    for section in ("stability", "carleman"):
        n = min(cfg.get(section, "grids"))
        h = GridSpec(cfg.get("grid", "d"), n).h
        for end in ("tau_min", "tau_max"):
            tau = cfg.get("carleman", end)
            ok, tau_floor, coupling = admissible(tau, h, cfg.get("time", "t_final"),
                                                 cfg.get("weights", "delta"))
            if not ok:
                problems.append(
                    f"{section}.grids: carleman.{end}={tau!r} is inadmissible on N={n}: need "
                    f"tau >= {tau_floor:.4g} and tau h / (delta T^2) = {coupling:.4g} <= "
                    f"epsilon = {EPSILON!r}")


def _check_feasibility_cells(cfg: Config, problems: list):
    """Every feasibility grid needs an admissible cell among the table's
    `weights.feasibility_cells`, or the suite would march every run and then fail."""
    ca, w = cfg["carleman"], cfg["weights"]
    T = cfg.get("time", "t_final")
    for n in ca["feasibility_grids"]:
        h = GridSpec(cfg.get("grid", "d"), n).h
        cells = feasibility_cells(T, h, w["tau1"], w["eps0"], ca["feasibility_taus"],
                                  ca["feasibility_deltas"])
        if not any(admissible(tau, h, T, delta)[0] for tau, delta in cells):
            problems.append(
                f"carleman.feasibility_grids: no admissible (tau, delta) cell on N={n} "
                f"among weights.tau1, carleman.feasibility_taus and carleman.feasibility_deltas "
                f"(with the mesh-coupled delta); need tau h / (delta T^2) <= epsilon = "
                f"{EPSILON!r} with tau >= the floor")


def _check_decay_window(cfg: Config, problems: list):
    """On every decay grid the decay study's delta = tau1 h / (T^2 eps0) must lie
    in (0, 1/2], and its weight (tau = tau1) must be admissible."""
    w = cfg["weights"]
    T = cfg.get("time", "t_final")
    for n in cfg.get("stability", "decay_grids"):
        h = GridSpec(cfg.get("grid", "d"), n).h
        try:
            delta = coupled_delta(T, h, w["tau1"], w["eps0"])
        except AdmissibilityError as exc:
            problems.append(f"stability.decay_grids: N={n} with weights.tau1 and "
                            f"weights.eps0: {exc}")
            continue
        ok, tau_floor, coupling = admissible(w["tau1"], h, T, delta)
        if not ok:
            problems.append(
                f"weights.tau1, weights.eps0: the decay weight is inadmissible on N={n}: "
                f"need tau1 = {w['tau1']!r} >= {tau_floor:.4g} and tau1 h / (delta T^2) = "
                f"eps0 = {coupling:.4g} <= epsilon = {EPSILON!r}")
