"""Difference/average operators, discrete integrals, norms, and identities.

The two first-order operators move a field half a step up or down the mesh
hierarchy along one axis:

    A_i u(x) = ( u(x + h/2 e_i) + u(x - h/2 e_i) ) / 2
    D_i u(x) = ( u(x + h/2 e_i) - u(x - h/2 e_i) ) / h

Both consume the two neighbours at distance h/2, so the result lives on the
in-between points of the input's axis-i family.  When the input carries the
primal interior range on that axis, the documented Dirichlet convention
applies: the field is first zero-extended to the face layer (padded by
`_shift_core`), so primal -> dual_star(i),
dual_star(i) -> primal, and mixed second differences land on the iterated
dual mesh.

The discrete product rules and the integration-by-parts identities are exact
in real arithmetic; this module exposes them as computable residuals, which
the test suite pins at 1e-12 times the field scale.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import grid as g
from .errors import GridError, MeshMismatchError
from .quadrature import exact_sum


def _step_two(c: tuple[int, ...]) -> bool:
    return len(c) >= 2 and all(b - a == 2 for a, b in zip(c[:-1], c[1:]))


@lru_cache(maxsize=256)
def _shift_meshes(mesh: g.Mesh, axis: int) -> tuple[bool, g.Mesh]:
    """Whether a shift of `mesh` along `axis` zero-extends it first, and the
    in-between mesh it lands on."""
    gs = mesh.grid
    gs.check_axis(axis)
    c = mesh.coords[axis]
    padded = g.is_primal_axis(gs, c)
    if padded:
        c = tuple(range(0, 2 * gs.n + 3, 2))
    if not _step_two(c):
        raise GridError(f"axis {axis} of {mesh.kind} is not shiftable by +-h/2")
    coords = list(mesh.coords)
    coords[axis] = tuple(k + 1 for k in c[:-1])
    return padded, g.make_mesh(gs, coords)


def _shift_core(values: np.ndarray, mesh: g.Mesh, axis: int):
    """Neighbour slabs of a (batched) field along one axis.

    `values` has shape (batch, mesh.size).  Returns (upper, lower, new_mesh)
    where upper/lower are the +h/2 and -h/2 neighbour values aligned with the
    enumeration of the in-between mesh.  Applies the Dirichlet zero-extension
    when the axis carries the primal interior range.
    """
    padded, new_mesh = _shift_meshes(mesh, axis)
    d = mesh.grid.d
    arr = values.reshape((-1,) + mesh.shape)
    if padded:
        pad = [(0, 0)] * (d + 1)
        pad[axis + 1] = (1, 1)
        arr = np.pad(arr, pad, mode="constant")
    lo, hi = g.axis_index(d + 1, axis + 1, slice(None, -1), slice(1, None))
    batch = values.shape[0]
    return arr[hi].reshape(batch, -1), arr[lo].reshape(batch, -1), new_mesh


def diff_block(values: np.ndarray, mesh: g.Mesh, axis: int):
    """D_i applied to a (batch, size) block; returns (block, mesh)."""
    up, lo, new_mesh = _shift_core(values, mesh, axis)
    return (up - lo) / mesh.grid.h, new_mesh


def avg_block(values: np.ndarray, mesh: g.Mesh, axis: int):
    """A_i applied to a (batch, size) block; returns (block, mesh)."""
    up, lo, new_mesh = _shift_core(values, mesh, axis)
    return 0.5 * (up + lo), new_mesh


def diff(u: g.MeshFunction, axis: int) -> g.MeshFunction:
    vals, mesh = diff_block(u.values[None, :], u.mesh, axis)
    return g.MeshFunction(mesh, vals[0])


def avg(u: g.MeshFunction, axis: int) -> g.MeshFunction:
    vals, mesh = avg_block(u.values[None, :], u.mesh, axis)
    return g.MeshFunction(mesh, vals[0])


def second_diff(u: g.MeshFunction, axis_i: int, axis_j: int) -> g.MeshFunction:
    """D_i D_j for a primal field: back to primal for i == j, iterated dual else."""
    g.require_mesh(u, g.primal(u.mesh.grid), "second_diff argument")
    return diff(diff(u, axis_j), axis_i)


def avg_diff(u: g.MeshFunction, axis: int) -> g.MeshFunction:
    """A_i D_i for a primal field (the wide centered first difference)."""
    g.require_mesh(u, g.primal(u.mesh.grid), "avg_diff argument")
    return avg(diff(u, axis), axis)


def integral(u: g.MeshFunction) -> float:
    """h^d-weighted sum over the mesh, compensated."""
    return u.grid.h ** u.grid.d * exact_sum(u.values)


def boundary_integral(u: g.MeshFunction) -> float:
    """h^(d-1)-weighted sum over a face mesh, compensated."""
    return u.grid.h ** (u.grid.d - 1) * exact_sum(u.values)


def inner(u: g.MeshFunction, v: g.MeshFunction) -> float:
    if u.mesh != v.mesh:
        raise MeshMismatchError(f"inner product across meshes {u.mesh.kind} / {v.mesh.kind}")
    return u.grid.h ** u.grid.d * exact_sum(u.values * v.values)


def l2_norm(u: g.MeshFunction) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def linf_norm(u: g.MeshFunction) -> float:
    return float(np.max(np.abs(u.values))) if u.values.size else 0.0


def h2_norm(u: g.MeshFunction) -> float:
    """Discrete H^2 norm: L2 plus all second differences and wide gradients."""
    gs = u.mesh.grid
    if u.mesh != g.primal(gs):
        raise MeshMismatchError("h2 norm is defined for primal fields only")
    total = inner(u, u)
    for i in range(gs.d):
        d2 = second_diff(u, i, i)
        ad = avg_diff(u, i)
        total += inner(d2, d2) + inner(ad, ad)
    return float(np.sqrt(max(total, 0.0)))


def ibp_diff_residual(u: g.MeshFunction, v: g.MeshFunction, axis: int) -> float:
    """Residual of the difference-operator integration by parts.

    For u on the axis closure of the primal mesh and v on dual_star(axis),

        int_W u D_i v  +  int_{W*_i} v D_i u  -  int_{face} u tr(v) nu

    vanishes identically; the returned number is that combination.
    """
    gs = u.mesh.grid
    g.require_mesh(u, g.closure(gs, axis), "ibp u")
    g.require_mesh(v, g.dual_star(gs, axis), "ibp v")
    dv = diff(v, axis)
    du = diff(u, axis)
    u_int = g.restrict_to_primal(u)
    term_bulk = integral(g.MeshFunction(u_int.mesh, u_int.values * dv.values))
    term_dual = integral(g.MeshFunction(du.mesh, v.values * du.values))
    face = g.boundary_face(gs, axis)
    u_face = _face_values(u, axis)
    tr = trace_values(v, axis)
    nu = g.face_normals(gs, axis)
    term_face = boundary_integral(g.MeshFunction(face, u_face * tr * nu))
    return term_bulk + term_dual - term_face


def ibp_avg_residual(u: g.MeshFunction, v: g.MeshFunction, axis: int) -> float:
    """Residual of the average-operator integration by parts.

        int_W u A_i v  -  int_{W*_i} v A_i u  +  (h/2) int_{face} u tr(v)
    """
    gs = u.mesh.grid
    g.require_mesh(u, g.closure(gs, axis), "ibp u")
    g.require_mesh(v, g.dual_star(gs, axis), "ibp v")
    av = avg(v, axis)
    au = avg(u, axis)
    u_int = g.restrict_to_primal(u)
    term_bulk = integral(g.MeshFunction(u_int.mesh, u_int.values * av.values))
    term_dual = integral(g.MeshFunction(au.mesh, v.values * au.values))
    face = g.boundary_face(gs, axis)
    u_face = _face_values(u, axis)
    tr = trace_values(v, axis)
    term_face = boundary_integral(g.MeshFunction(face, u_face * tr))
    return term_bulk - term_dual + 0.5 * gs.h * term_face


def _face_values(u: g.MeshFunction, axis: int) -> np.ndarray:
    """Values of an axis-closed field on the two face slabs, face enumeration."""
    arr = u.array()
    lo, hi = g.axis_index(u.mesh.grid.d, axis, 0, -1)
    return np.stack([arr[lo], arr[hi]], axis=axis).ravel()


def trace_values(v: g.MeshFunction, axis: int) -> np.ndarray:
    return g.trace(v, axis).values


def leibniz_residuals(u: g.MeshFunction, v: g.MeshFunction, axis: int) -> dict:
    """Max-norm residuals of the two discrete product rules along one axis.

        D_i(uv) = D_i u A_i v + A_i u D_i v
        A_i(uv) = A_i u A_i v + (h^2/4) D_i u D_i v
    """
    if u.mesh != v.mesh:
        raise MeshMismatchError("product rule requires both fields on one mesh")
    h = u.grid.h
    uv = g.MeshFunction(u.mesh, u.values * v.values)
    du, au = diff(u, axis), avg(u, axis)
    dv, av = diff(v, axis), avg(v, axis)
    d_rule = du.values * av.values + au.values * dv.values
    a_rule = au.values * av.values + (h * h / 4.0) * du.values * dv.values
    r_diff = float(np.max(np.abs(diff(uv, axis).values - d_rule)))
    r_avg = float(np.max(np.abs(avg(uv, axis).values - a_rule)))
    return {"diff_rule": r_diff, "avg_rule": r_avg}
