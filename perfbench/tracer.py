"""Outside-in tracing of carlstab: spans around calls into each module.

Nothing in carlstab is edited.  `install_scipy` replaces the scipy entry
points carlstab solves and reduces with (`cg`, `bicgstab`, `spsolve`,
`splu`, `factorized`, `solve_banded`, `logsumexp`) and must run before
carlstab is imported, so that every binding carlstab makes of them, and any
fast path added later, goes through a wrapper.  `install_carlstab` then
wraps every public function of the traced modules and rebinds each module
reference to it (`carleman.assemble_ah` and `inverse.assemble_ah` as well as
`solver.assemble_ah`, and dict entries such as the CLI's suite table), and
patches the sampler and weight methods on their classes.

Each call records a span (name, start, end, parent span, pass id) in flat
arrays kept in memory and written out once at the end.  Alongside the spans
the wrappers keep exact per-pass counters: Krylov iterations (through a
chained callback, which leaves the iterates untouched), linear solves and
the unknowns they advance, factorisations, repeated assemblies and repeated
operators, points fed to the weighted sums, CSV bytes written.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = ("cli", "experiments", "carleman", "quadrature", "solver", "inverse",
                  "weights", "operators", "coefficients")
# Wrapped scipy calls are reported as the `linalg` layer.
LAYERS = TRACED_MODULES + ("linalg",)

COUNTERS = ("quadrature.weighted_points", "solver.linear_solves", "solver.krylov_iters",
            "solver.factorisations", "solver.unknown_steps", "solver.assemble_ah.repeats",
            "solver.operator_repeats", "inverse.reconstruct_source.cg_iters",
            "inverse.reconstruct_source.forward_solves", "cli.csv_bytes")

# (metric, unit); `.s` is inclusive time, `.self_s` excludes child spans.
METRICS = (
    ("cli.main.s", "s"), ("cli.write_csv.s", "s"), ("cli.csv_bytes", "count"),
    ("experiments.run_carleman.self_s", "s"), ("experiments.run_stability.s", "s"),
    ("experiments.run_reconstruct.s", "s"),
    ("carleman.verify_inequality.calls", "count"), ("carleman.verify_inequality.self_s", "s"),
    ("carleman.compute_lhs.s", "s"), ("carleman.compute_lhs.self_s", "s"),
    ("carleman.compute_rhs.s", "s"), ("carleman.check_scheme_residual.s", "s"),
    ("carleman.feasibility_map.s", "s"),
    ("quadrature.weighted_square_sum.calls", "count"), ("quadrature.weighted_square_sum.s", "s"),
    ("quadrature.weighted_points", "count"),
    ("quadrature.logsumexp.calls", "count"), ("quadrature.logsumexp.s", "s"),
    ("quadrature.exact_sum.calls", "count"), ("quadrature.exact_sum.s", "s"),
    ("solver.solve_forward.calls", "count"), ("solver.solve_forward.s", "s"),
    ("solver.solve_forward.self_s", "s"), ("solver.solve_z_system.s", "s"),
    ("solver.assemble_ah.calls", "count"), ("solver.assemble_ah.s", "s"),
    ("solver.assemble_ah.repeat_frac", "frac"), ("solver.apply_ah.s", "s"),
    ("solver.linear_solves", "count"), ("solver.linear_solve.s", "s"),
    ("solver.krylov_iters", "count"), ("solver.factorisations", "count"),
    ("solver.repeat_operator_frac", "frac"), ("solver.unknown_steps", "count"),
    ("inverse.observe.calls", "count"), ("inverse.observe.s", "s"),
    ("inverse.certify_source.s", "s"), ("inverse.stability_quotient.self_s", "s"),
    ("inverse.reconstruct_source.s", "s"), ("inverse.reconstruct_source.self_s", "s"),
    ("inverse.reconstruct_source.cg_iters", "count"),
    ("inverse.reconstruct_source.forward_solves", "count"),
    ("inverse.recover_coefficient.s", "s"),
    ("inverse.source.calls", "count"), ("inverse.source.s", "s"),
    ("weights.log_weight.calls", "count"), ("weights.log_weight.s", "s"),
    ("weights.CarlemanWeight.init.s", "s"),
    ("operators.diff_block.calls", "count"), ("operators.diff_block.s", "s"),
    ("operators.avg_block.s", "s"), ("operators.h2_norm.s", "s"),
    ("coefficients.sample.calls", "count"), ("coefficients.sample.s", "s"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.overhead_frac", "frac"),
)


def is_exact(metric: str) -> bool:
    """Counts and ratios of counts repeat exactly; timings are noisy."""
    return not (metric.endswith(".s") or metric.endswith("_s") or metric == "trace.overhead_frac")


def _operator_key(A):
    """Content digest of a matrix, so repeated operators are recognised."""
    import scipy.sparse as sp

    if sp.issparse(A):
        if A.format not in ("csr", "csc"):
            A = A.tocsr()
        parts = (A.indptr, A.indices, A.data)
    elif isinstance(A, np.ndarray):
        parts = (A,)
    else:  # LinearOperator and friends: identity is all we can see
        return ("object", id(A))
    h = hashlib.blake2b(repr((type(A).__name__, A.shape)).encode(), digest_size=16)
    for part in parts:
        h.update(np.ascontiguousarray(part))
    return h.digest()


class _TracedLU:
    """Stands in for a SuperLU factorisation; solves through it are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_no = array("i")
        self._stack: list[int] = []
        self.pass_index = -1
        self.counts: list[dict] = []
        self.count = dict.fromkeys(COUNTERS, 0)   # counters of the current pass
        self.detail: dict = {}                    # (span name, size) -> [calls, seconds]
        self._seen_assemblies: set = set()
        self._seen_operators: set = set()

    def begin_pass(self, index: int):
        self.pass_index = index
        self.count = dict.fromkeys(COUNTERS, 0)
        self.counts.append(self.count)
        self._seen_assemblies.clear()
        self._seen_operators.clear()

    # spans ----------------------------------------------------------------

    def wrap(self, fn, name: str, on_return=None):
        """Span-recording wrapper; `on_return(args, kwargs, result, seconds)` updates counters."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, ends = self._stack, self.end
        add_name, add_parent = self.name_id.append, self.parent.append
        add_pass, add_start, add_end = self.pass_no.append, self.start.append, self.end.append
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ends)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_pass(tracer.pass_index)
            add_end(0.0)
            stack.append(i)
            t0 = perf_counter()
            add_start(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[i] = t1
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out, t1 - t0)
            return out

        return traced

    def _detail(self, name: str, size, seconds: float):
        slot = self.detail.setdefault((name, size), [0, 0.0])
        slot[0] += 1
        slot[1] += seconds

    # counters ---------------------------------------------------------------

    def _solved(self, A, seconds: float, key=None):
        c = self.count
        rows = int(A.shape[-1])
        c["solver.linear_solves"] += 1
        c["solver.unknown_steps"] += rows
        key = _operator_key(A) if key is None else key
        if key in self._seen_operators:
            c["solver.operator_repeats"] += 1
        self._seen_operators.add(key)
        self._detail("linalg.solve", rows, seconds)

    def _krylov(self, fn, name: str):
        def call(A, b, *args, callback=None, **kwargs):
            count = self.count

            def counting(xk):
                count["solver.krylov_iters"] += 1
                if callback is not None:
                    callback(xk)

            return fn(A, b, *args, callback=counting, **kwargs)

        return self.wrap(call, name, lambda a, k, out, s: self._solved(a[0], s))

    def _factorising(self, fn, name: str):
        """splu / factorized: count the factorisation, trace solves through it."""
        def done(args, kwargs, out, seconds):
            self.count["solver.factorisations"] += 1

        def call(A, *args, **kwargs):
            key = _operator_key(A)
            lu = fn(A, *args, **kwargs)
            inner = lu.solve if hasattr(lu, "solve") else lu
            solve = self.wrap(inner, "linalg.lu_solve",
                              lambda a, k, out, s: self._solved(A, s, key))
            return _TracedLU(lu, solve) if hasattr(lu, "solve") else solve

        return self.wrap(call, name, done)

    def _direct(self, fn, name: str, matrix_arg: int):
        """spsolve / solve_banded: one factorisation and one solve per call."""
        def done(args, kwargs, out, seconds):
            self.count["solver.factorisations"] += 1
            self._solved(args[matrix_arg], seconds)

        return self.wrap(fn, name, done)

    def _on_assemble(self, args, kwargs, out, seconds):
        bound = {**dict(zip(("grid", "coeffs", "t"), args)), **kwargs}
        grid, coeffs, t = bound["grid"], bound["coeffs"], bound["t"]
        try:
            key = (grid, coeffs, float(t))
            hash(key)
        except TypeError:  # unhashable sampler: fall back to object identity
            key = (grid, id(coeffs), float(t))
        if key in self._seen_assemblies:
            self.count["solver.assemble_ah.repeats"] += 1
        self._seen_assemblies.add(key)
        self._detail("solver.assemble_ah", f"d={grid.d},n={grid.n}", seconds)

    def _on_weighted_sum(self, args, kwargs, out, seconds):
        points = int(np.size(args[0] if args else kwargs["values"]))
        self.count["quadrature.weighted_points"] += points
        self._detail("quadrature.weighted_square_sum", points, seconds)

    def _on_write_csv(self, args, kwargs, out, seconds):
        self.count["cli.csv_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _on_reconstruct(self, args, kwargs, out, seconds):
        self.count["inverse.reconstruct_source.cg_iters"] += int(out.iterations)
        self.count["inverse.reconstruct_source.forward_solves"] += int(out.forward_solves)

    # installation -------------------------------------------------------------

    def install_scipy(self):
        """Wrap scipy's solver and logsumexp entry points; call before importing carlstab."""
        if any(name == "carlstab" or name.startswith("carlstab.") for name in sys.modules):
            raise RuntimeError("install_scipy must run before carlstab is imported")
        import scipy.linalg
        import scipy.sparse.linalg as spla
        import scipy.special

        spla.cg = self._krylov(spla.cg, "linalg.cg")
        spla.bicgstab = self._krylov(spla.bicgstab, "linalg.bicgstab")
        spla.spsolve = self._direct(spla.spsolve, "linalg.spsolve", 0)
        spla.splu = self._factorising(spla.splu, "linalg.splu")
        spla.factorized = self._factorising(spla.factorized, "linalg.factorized")
        scipy.linalg.solve_banded = self._direct(scipy.linalg.solve_banded,
                                                 "linalg.solve_banded", 1)
        scipy.special.logsumexp = self.wrap(scipy.special.logsumexp, "quadrature.logsumexp")

    def install_carlstab(self):
        """Wrap each public function of the traced modules and rebind every reference."""
        mods = {short: importlib.import_module(f"carlstab.{short}") for short in TRACED_MODULES}
        hooks = {"solver.assemble_ah": self._on_assemble,
                 "quadrature.weighted_square_sum": self._on_weighted_sum,
                 "cli.write_csv": self._on_write_csv,
                 "inverse.reconstruct_source": self._on_reconstruct}
        wrapped = {}   # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(obj, name, hooks.get(name)))
        zero_source = mods["experiments"]._zero_source
        wrapped[id(zero_source)] = (zero_source, self.wrap(zero_source, "inverse.source"))

        def swap(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for modname, mod in list(sys.modules.items()):
            if modname != "carlstab" and not modname.startswith("carlstab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if (new := swap(obj)) is not None:
                    setattr(mod, attr, new)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if (new := swap(val)) is not None:
                            obj[key] = new

        co, inv, w = mods["coefficients"], mods["inverse"], mods["weights"]
        methods = ((w.CarlemanWeight, "__init__", "weights.CarlemanWeight.init"),
                   (w.CarlemanWeight, "log_weight", "weights.log_weight"),
                   (co.ConstantField, "__call__", "coefficients.sample"),
                   (co.SmoothField, "__call__", "coefficients.sample"),
                   (co.FieldTimeDerivative, "__call__", "coefficients.sample"),
                   (mods["experiments"]._ShiftedPotential, "__call__", "coefficients.sample"),
                   (inv.SeparableSource, "__call__", "inverse.source"),
                   (inv.SeparableSource, "dt", "inverse.source"))
        for cls, attr, name in methods:
            setattr(cls, attr, self.wrap(vars(cls)[attr], name))

    # results ------------------------------------------------------------------

    def span_arrays(self) -> dict:
        # copies, so the arrays stay resizable
        return {"names": np.array(self.names),
                "name_id": np.array(self.name_id, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int64),
                "pass_no": np.array(self.pass_no, dtype=np.int32)}

    def write_spans(self, path):
        np.savez(path, **self.span_arrays())

    def tables(self) -> list[dict]:
        """Per pass: span name -> {calls, s, self_s}."""
        sa = self.span_arrays()
        n_names, n_passes = len(self.names), len(self.counts)
        dur = sa["end"] - sa["start"]
        parent = sa["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        keep = sa["pass_no"] >= 0
        cell = sa["pass_no"][keep].astype(np.int64) * n_names + sa["name_id"][keep]
        size = n_passes * n_names
        calls = np.bincount(cell, minlength=size).reshape(n_passes, n_names)
        incl = np.bincount(cell, weights=dur[keep], minlength=size).reshape(n_passes, n_names)
        excl = np.bincount(cell, weights=self_time[keep], minlength=size).reshape(n_passes, n_names)
        return [{name: {"calls": int(calls[p, j]), "s": float(incl[p, j]),
                        "self_s": float(excl[p, j])}
                 for j, name in enumerate(self.names)}
                for p in range(n_passes)]

    def pass_metrics(self, table: dict, counts: dict) -> dict:
        """All METRICS but the overhead for one pass; an uncalled function reads 0."""
        def total(field, layer):
            return sum(v[field] for k, v in table.items() if k.split(".")[0] == layer)

        def ratio(part, whole):
            return part / whole if whole else 0.0

        derived = {
            "solver.linear_solve.s": total("s", "linalg"),
            "solver.assemble_ah.repeat_frac": ratio(
                counts["solver.assemble_ah.repeats"],
                table.get("solver.assemble_ah", {}).get("calls", 0)),
            "solver.repeat_operator_frac": ratio(counts["solver.operator_repeats"],
                                                 counts["solver.linear_solves"]),
        }
        out = {}
        for metric, _ in METRICS:
            name, _, field = metric.rpartition(".")
            if metric in counts:
                out[metric] = counts[metric]
            elif metric in derived:
                out[metric] = derived[metric]
            elif metric.startswith("layer."):
                out[metric] = total("self_s", name[len("layer."):])
            elif metric != "trace.overhead_frac":
                out[metric] = table.get(name, {}).get(field, 0)
        return out
