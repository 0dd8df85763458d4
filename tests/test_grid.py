import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carlstab import grid as g
from carlstab.errors import GridError, MeshMismatchError


def brute_shift_set(points, axis, step):
    return {tuple(p[i] + (step if i == axis else 0) for i in range(len(p))) for p in points}


def test_grid_spec_rejects_bad_dimension():
    with pytest.raises(GridError):
        g.GridSpec(4, 3)
    with pytest.raises(GridError):
        g.GridSpec(0, 3)
    with pytest.raises(GridError):
        g.GridSpec(1, 0)


def test_primal_enumeration_d1():
    gs = g.GridSpec(1, 3)
    assert g.primal(gs).physical[:, 0].tolist() == [0.25, 0.5, 0.75]


def test_dual_star_matches_brute_force_union():
    gs = g.GridSpec(1, 3)
    primal_pts = {tuple(p) for p in g.primal(gs).points}
    expected = brute_shift_set(primal_pts, 0, 1) | brute_shift_set(primal_pts, 0, -1)
    assert {tuple(p) for p in g.dual_star(gs, 0).points} == expected
    assert g.dual_star(gs, 0).physical[:, 0].tolist() == [0.125, 0.375, 0.625, 0.875]


def test_dual_prime_matches_brute_force_intersection():
    gs = g.GridSpec(1, 3)
    primal_pts = {tuple(p) for p in g.primal(gs).points}
    expected = brute_shift_set(primal_pts, 0, 1) & brute_shift_set(primal_pts, 0, -1)
    assert {tuple(p) for p in g.dual_prime(gs, 0).points} == expected
    assert g.dual_prime(gs, 0).physical[:, 0].tolist() == [0.375, 0.625]


@given(st.integers(1, 3), st.integers(1, 8))
def test_cardinalities(d, n):
    gs = g.GridSpec(d, n)
    assert g.primal(gs).size == n ** d
    for i in range(d):
        assert g.dual_star(gs, i).size == (n + 1) * n ** (d - 1)
        assert g.dual_prime(gs, i).size == (n - 1) * n ** (d - 1)
        assert g.boundary_face(gs, i).size == 2 * n ** (d - 1)
        assert g.closure(gs, i).size == (n + 2) * n ** (d - 1)
    assert g.full_closure(gs).size == (n + 2) ** d


def test_dual_star_surjective_from_primal():
    gs = g.GridSpec(2, 4)
    primal_pts = {tuple(p) for p in g.primal(gs).points}
    for i in range(2):
        reachable = brute_shift_set(primal_pts, i, 1) | brute_shift_set(primal_pts, i, -1)
        assert {tuple(p) for p in g.dual_star(gs, i).points} <= reachable


def test_enumeration_lexicographic_and_unique():
    gs = g.GridSpec(3, 3)
    pts = [tuple(p) for p in g.double_dual(gs, 0, 2).points]
    assert pts == sorted(pts)
    assert len(pts) == len(set(pts))


def test_double_dual_same_axis_is_closure():
    gs = g.GridSpec(2, 5)
    assert g.double_dual(gs, 1, 1) == g.closure(gs, 1)


def test_normal_endpoints_d1():
    gs = g.GridSpec(1, 3)
    assert g.normal(gs, 0, (0,)) == -1
    assert g.normal(gs, 0, (8,)) == 1
    with pytest.raises(GridError):
        g.normal(gs, 0, (2,))  # interior point


def test_normal_against_membership_oracle_d2():
    gs = g.GridSpec(2, 3)
    star = {tuple(p) for p in g.dual_star(gs, 0).points}
    for p in g.boundary_face(gs, 0).points:
        k = tuple(p)
        back = (k[0] - 1, k[1])
        fwd = (k[0] + 1, k[1])
        if back in star and fwd not in star:
            expected = 1
        elif fwd in star and back not in star:
            expected = -1
        else:
            expected = 0
        assert g.normal(gs, 0, k) == expected


def test_normal_counts():
    for d in (1, 2, 3):
        gs = g.GridSpec(d, 3)
        for i in range(d):
            vals = [g.normal(gs, i, tuple(p)) for p in g.boundary_face(gs, i).points]
            assert sum(1 for v in vals if v != 0) == 2 * 3 ** (d - 1)


def test_trace_example():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.dual_star(gs, 0), [10.0, 20.0, 30.0, 40.0])
    tr = g.trace(u, 0)
    assert tr.mesh == g.boundary_face(gs, 0)
    assert tr.values.tolist() == [10.0, 40.0]


def test_trace_constant_and_zero():
    gs = g.GridSpec(2, 3)
    star = g.dual_star(gs, 1)
    c = g.MeshFunction(star, np.full(star.size, 7.5))
    assert np.all(g.trace(c, 1).values == 7.5)
    z = g.MeshFunction(star, np.zeros(star.size))
    assert np.all(g.trace(z, 1).values == 0.0)


def test_trace_rejects_wrong_mesh():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.primal(gs), [1.0, 2.0, 3.0])
    with pytest.raises(MeshMismatchError):
        g.trace(u, 0)


def test_mesh_function_length_check():
    gs = g.GridSpec(1, 3)
    with pytest.raises(MeshMismatchError):
        g.MeshFunction(g.primal(gs), [1.0, 2.0])


def close(u, axes=None):
    """Dirichlet zero-extension: append the face layer with value 0 along `axes`
    (by default every axis that carries the primal interior range)."""
    grid = u.mesh.grid
    if axes is None:
        axes = [i for i in range(grid.d) if g.is_primal_axis(grid, u.mesh.coords[i])]
    arr = u.array()
    coords = list(u.mesh.coords)
    for ax in axes:
        grid.check_axis(ax)
        if not g.is_primal_axis(grid, coords[ax]):
            raise GridError(f"axis {ax} of {u.mesh.kind} is not the primal interior range")
        pad = [(0, 0)] * grid.d
        pad[ax] = (1, 1)
        arr = np.pad(arr, pad)
        coords[ax] = g.full_closure(grid).coords[ax]
    return g.MeshFunction(g.Mesh(grid, tuple(coords)), arr)


def test_close_pads_with_zeros():
    gs = g.GridSpec(2, 3)
    u = g.MeshFunction(g.primal(gs), np.arange(9.0))
    cu = close(u)
    assert cu.mesh == g.full_closure(gs)
    arr = cu.array()
    assert np.all(arr[0, :] == 0) and np.all(arr[:, -1] == 0)
    assert np.all(arr[1:-1, 1:-1] == u.array())


def test_close_rejects_non_primal_axis():
    gs = g.GridSpec(1, 3)
    u = g.MeshFunction(g.dual_star(gs, 0), np.zeros(4))
    with pytest.raises(GridError):
        close(u, axes=[0])


def test_invalid_axis_errors():
    gs = g.GridSpec(2, 3)
    with pytest.raises(GridError):
        g.dual_star(gs, 2)
    with pytest.raises(GridError):
        g.boundary_face(gs, -1)


def test_kind_is_descriptive_not_identity():
    gs = g.GridSpec(1, 4)
    m1 = g.closure(gs, 0)
    m2 = g.double_dual(gs, 0, 0)
    assert m1 == m2
    assert m1.kind != m2.kind
