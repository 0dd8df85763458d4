import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carlstab import grid as g
from carlstab import operators as ops
from carlstab.errors import GridError, MeshMismatchError


def field_map(mf):
    """Point -> value dictionary, the independent lookup for oracles."""
    return {tuple(p): v for p, v in zip(mf.mesh.points, mf.values)}


def test_diff_example_with_dirichlet_closure():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.primal(gs), [1.0, 2.0, 3.0])
    du = ops.diff(u, 0)
    assert du.mesh == g.dual_star(gs, 0)
    assert du.values.tolist() == [4.0, 4.0, 4.0, -12.0]


def test_diff_annihilates_constants_on_closed_mesh():
    gs = g.GridSpec(2, 4)
    fc = g.full_closure(gs)
    u = g.MeshFunction(fc, np.full(fc.size, 3.25))
    for i in range(2):
        assert np.all(ops.diff(u, i).values == 0.0)


def test_diff_exact_on_linear_dual_field():
    gs = g.GridSpec(1, 5)
    star = g.dual_star(gs, 0)
    u = g.MeshFunction(star, star.physical[:, 0])
    du = ops.diff(u, 0)
    assert du.mesh == g.primal(gs)
    assert np.allclose(du.values, 1.0, rtol=0, atol=1e-14)


def test_avg_example():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.primal(gs), [1.0, 2.0, 3.0])
    au = ops.avg(u, 0)
    assert au.values.tolist() == [0.5, 1.5, 2.5, 1.5]


def test_avg_preserves_constants():
    gs = g.GridSpec(1, 6)
    fc = g.full_closure(gs)
    u = g.MeshFunction(fc, np.full(fc.size, -2.5))
    assert np.all(ops.avg(u, 0).values == -2.5)


def test_avg_square_identity_pointwise(rng):
    gs = g.GridSpec(2, 5)
    fc = g.full_closure(gs)
    u = g.MeshFunction(fc, rng.normal(size=fc.size))
    h = gs.h
    for i in range(2):
        lhs = ops.avg(g.MeshFunction(fc, u.values ** 2), i).values
        rhs = ops.avg(u, i).values ** 2 + 0.25 * h * h * ops.diff(u, i).values ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(u.values ** 2))


def test_second_diff_quadratic_exact():
    gs = g.GridSpec(1, 9)
    pm = g.primal(gs)
    u = g.sample(pm, lambda X: X[:, 0] ** 2)
    d2 = ops.second_diff(u, 0, 0)
    interior = d2.values[1:-1]  # closure touches the boundary stencils
    assert np.allclose(interior, 2.0, rtol=0, atol=1e-11)


def test_second_diff_example():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.primal(gs), [1.0, 2.0, 3.0])
    d2 = ops.second_diff(u, 0, 0)
    assert d2.values.tolist() == [0.0, 0.0, -64.0]


def test_second_diff_zero():
    gs = g.GridSpec(2, 3)
    u = g.MeshFunction(g.primal(gs), np.zeros(9))
    assert np.all(ops.second_diff(u, 0, 1).values == 0.0)


def test_mixed_second_diff_commutes():
    gs = g.GridSpec(2, 4)
    rng = np.random.default_rng(5)
    u = g.MeshFunction(g.primal(gs), rng.normal(size=16))
    d01 = ops.second_diff(u, 0, 1)
    d10 = ops.second_diff(u, 1, 0)
    assert d01.mesh == d10.mesh == g.double_dual(gs, 0, 1)
    scale = max(1.0, np.max(np.abs(d01.values)))
    assert np.max(np.abs(d01.values - d10.values)) <= 1e-15 * scale


def test_diff_avg_commute_across_axes(rng):
    gs = g.GridSpec(2, 4)
    fc = g.full_closure(gs)
    u = g.MeshFunction(fc, rng.normal(size=fc.size))
    a = ops.diff(ops.avg(u, 1), 0)
    b = ops.avg(ops.diff(u, 0), 1)
    assert a.mesh == b.mesh
    assert np.max(np.abs(a.values - b.values)) <= 1e-13 * max(1.0, np.max(np.abs(u.values)))


def test_integral_examples():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.primal(gs), [1.0, 2.0, 3.0])
    assert ops.integral(u) == 0.25 * 6.0
    for d, n in ((1, 5), (2, 4), (3, 3)):
        G = g.GridSpec(d, n)
        ones = g.MeshFunction(g.primal(G), np.ones(n ** d))
        assert abs(ops.integral(ones) - (n * G.h) ** d) <= 1e-15 * n ** d
        zero = g.MeshFunction(g.primal(G), np.zeros(n ** d))
        assert ops.integral(zero) == 0.0


def norms(u):
    out = {"l2_h": ops.l2_norm(u), "linf_h": ops.linf_norm(u)}
    if u.mesh == g.primal(u.mesh.grid):
        out["h2_h"] = ops.h2_norm(u)
    return out


def test_norm_examples():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.primal(gs), [1.0, 2.0, 3.0])
    out = norms(u)
    assert abs(out["l2_h"] - math.sqrt(0.25 * 14.0)) <= 1e-15
    assert out["linf_h"] == 3.0
    assert out["h2_h"] >= out["l2_h"]
    z = g.MeshFunction(g.primal(gs), np.zeros(3))
    assert norms(z) == {"l2_h": 0.0, "linf_h": 0.0, "h2_h": 0.0}


def test_h2_norm_rejects_non_primal():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.dual_star(gs, 0), np.ones(4))
    with pytest.raises(MeshMismatchError):
        ops.h2_norm(u)


def test_inner_rejects_mesh_mismatch():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.primal(gs), np.ones(3))
    v = g.MeshFunction(g.dual_star(gs, 0), np.ones(4))
    with pytest.raises(MeshMismatchError):
        ops.inner(u, v)


def _ibp_diff_oracle(u, v, axis):
    """Both sides of the difference-operator identity by explicit loops."""
    gs = u.mesh.grid
    h = gs.h
    um, vm = field_map(u), field_map(v)

    def shifted(k, s):
        return tuple(c + (s if i == axis else 0) for i, c in enumerate(k))

    bulk = sum(um[k] * (vm[shifted(k, 1)] - vm[shifted(k, -1)]) / h
               for k in map(tuple, g.primal(gs).points))
    dual = sum(vm[k] * (um[shifted(k, 1)] - um[shifted(k, -1)]) / h
               for k in map(tuple, g.dual_star(gs, axis).points))
    face = 0.0
    for k in map(tuple, g.boundary_face(gs, axis).points):
        nu = g.normal(gs, axis, k)
        tr = vm[shifted(k, -1)] if nu == 1 else vm[shifted(k, 1)]
        face += um[k] * tr * nu
    return h ** gs.d * bulk + h ** gs.d * dual - h ** (gs.d - 1) * face


def _ibp_avg_oracle(u, v, axis):
    gs = u.mesh.grid
    h = gs.h
    um, vm = field_map(u), field_map(v)

    def shifted(k, s):
        return tuple(c + (s if i == axis else 0) for i, c in enumerate(k))

    bulk = sum(um[k] * 0.5 * (vm[shifted(k, 1)] + vm[shifted(k, -1)])
               for k in map(tuple, g.primal(gs).points))
    dual = sum(vm[k] * 0.5 * (um[shifted(k, 1)] + um[shifted(k, -1)])
               for k in map(tuple, g.dual_star(gs, axis).points))
    face = 0.0
    for k in map(tuple, g.boundary_face(gs, axis).points):
        nu = g.normal(gs, axis, k)
        tr = vm[shifted(k, -1)] if nu == 1 else vm[shifted(k, 1)]
        face += um[k] * tr
    return h ** gs.d * bulk - h ** gs.d * dual + 0.5 * h * h ** (gs.d - 1) * face


@pytest.mark.parametrize("d,n,axis", [(1, 4, 0), (2, 3, 0), (2, 3, 1)])
def test_ibp_residuals_match_oracle_and_vanish(d, n, axis, rng):
    gs = g.GridSpec(d, n)
    u = g.MeshFunction(g.closure(gs, axis), rng.normal(size=g.closure(gs, axis).size))
    v = g.MeshFunction(g.dual_star(gs, axis), rng.normal(size=g.dual_star(gs, axis).size))
    r_diff = ops.ibp_diff_residual(u, v, axis)
    r_avg = ops.ibp_avg_residual(u, v, axis)
    scale = max(1.0, ops.linf_norm(u)) * max(1.0, ops.linf_norm(v))
    assert abs(r_diff) <= 1e-12 * scale
    assert abs(r_avg) <= 1e-12 * scale
    assert abs(r_diff - _ibp_diff_oracle(u, v, axis)) <= 1e-12 * scale
    assert abs(r_avg - _ibp_avg_oracle(u, v, axis)) <= 1e-12 * scale


def test_ibp_zero_field_exact():
    gs = g.GridSpec(1, 4)
    u = g.MeshFunction(g.closure(gs, 0), np.zeros(6))
    v = g.MeshFunction(g.dual_star(gs, 0), np.random.default_rng(0).normal(size=5))
    assert ops.ibp_diff_residual(u, v, 0) == 0.0


def test_ibp_rejects_wrong_meshes():
    gs = g.GridSpec(1, 4)
    u = g.MeshFunction(g.primal(gs), np.zeros(4))
    v = g.MeshFunction(g.dual_star(gs, 0), np.zeros(5))
    with pytest.raises(MeshMismatchError):
        ops.ibp_diff_residual(u, v, 0)


def _leibniz_oracle(u, v, axis):
    """Product-rule residuals recomputed from the point dictionaries."""
    gs = u.mesh.grid
    h = gs.h
    um, vm = field_map(u), field_map(v)
    target = ops.diff(u, axis).mesh

    def shifted(k, s):
        return tuple(c + (s if i == axis else 0) for i, c in enumerate(k))

    r_diff = r_avg = 0.0
    for k in map(tuple, target.points):
        up, um_, vp, vm_ = um[shifted(k, 1)], um[shifted(k, -1)], vm[shifted(k, 1)], vm[shifted(k, -1)]
        duv = (up * vp - um_ * vm_) / h
        du, au = (up - um_) / h, 0.5 * (up + um_)
        dv, av = (vp - vm_) / h, 0.5 * (vp + vm_)
        r_diff = max(r_diff, abs(duv - (du * av + au * dv)))
        auv = 0.5 * (up * vp + um_ * vm_)
        r_avg = max(r_avg, abs(auv - (au * av + 0.25 * h * h * du * dv)))
    return r_diff, r_avg


@given(st.integers(1, 2), st.integers(3, 8), st.integers(0, 41))
def test_leibniz_rules_random(d, n, seed):
    gs = g.GridSpec(d, n)
    fc = g.full_closure(gs)
    r = np.random.default_rng(seed)
    u = g.MeshFunction(fc, r.normal(size=fc.size))
    v = g.MeshFunction(fc, r.normal(size=fc.size))
    axis = seed % d
    res = ops.leibniz_residuals(u, v, axis)
    scale = max(1.0, ops.linf_norm(u)) * max(1.0, ops.linf_norm(v))
    assert res["diff_rule"] <= 1e-12 * scale
    assert res["avg_rule"] <= 1e-12 * scale
    od, oa = _leibniz_oracle(u, v, axis)
    assert abs(res["diff_rule"] - od) <= 1e-13 * scale
    assert abs(res["avg_rule"] - oa) <= 1e-13 * scale


def test_leibniz_unit_factor_degenerates():
    gs = g.GridSpec(1, 5)
    fc = g.full_closure(gs)
    u = g.MeshFunction(fc, np.ones(fc.size))
    v = g.MeshFunction(fc, np.random.default_rng(3).normal(size=fc.size))
    res = ops.leibniz_residuals(u, v, 0)
    assert res["diff_rule"] == 0.0


def test_diff_square_identity(rng):
    gs = g.GridSpec(1, 6)
    fc = g.full_closure(gs)
    u = g.MeshFunction(fc, rng.normal(size=fc.size))
    lhs = ops.diff(g.MeshFunction(fc, u.values ** 2), 0).values
    rhs = 2.0 * ops.diff(u, 0).values * ops.avg(u, 0).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(u.values ** 2) / gs.h)


def test_duality_without_boundary_terms(rng):
    # u vanishing on the face layer: int u D_i v = -int v D_i u exactly
    gs = g.GridSpec(1, 6)
    u_int = g.MeshFunction(g.primal(gs), rng.normal(size=6))
    u = g.MeshFunction(g.closure(gs, 0), np.pad(u_int.values, 1))  # zero face values
    v = g.MeshFunction(g.dual_star(gs, 0), rng.normal(size=7))
    lhs = ops.integral(g.MeshFunction(g.primal(gs), u_int.values * ops.diff(v, 0).values))
    rhs = -ops.integral(g.MeshFunction(g.dual_star(gs, 0), v.values * ops.diff(u, 0).values))
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_residuals_independent_of_resolution(rng):
    worst = 0.0
    for n in (3, 10, 20, 40):
        gs = g.GridSpec(1, n)
        fc = g.full_closure(gs)
        u = g.MeshFunction(fc, rng.normal(size=fc.size))
        v = g.MeshFunction(fc, rng.normal(size=fc.size))
        res = ops.leibniz_residuals(u, v, 0)
        scale = max(1.0, ops.linf_norm(u)) * max(1.0, ops.linf_norm(v))
        worst = max(worst, res["diff_rule"] / scale, res["avg_rule"] / scale)
    assert worst <= 1e-12


def test_diff_unshiftable_mesh_errors():
    gs = g.GridSpec(1, 3)
    face = g.boundary_face(gs, 0)
    u = g.MeshFunction(face, np.zeros(2))
    with pytest.raises(GridError):
        ops.diff(u, 0)
