"""Staggered meshes on the unit box, addressed by half-step integers.

Every mesh is a Cartesian product of one-dimensional point families on the
half-step lattice {k * h/2 : k integer}, h = 1/(N+1), with N interior points
per axis.  In half-step coordinates the standard meshes read

    primal            k even in [2, 2N] on every axis   (interior points)
    dual_star(i)      k odd  in [1, 2N+1] on axis i     (union of +-h/2 shifts)
    dual_prime(i)     k odd  in [3, 2N-1] on axis i     (intersection of shifts)
    closure(i)        k even in [0, 2N+2] on axis i
    double_dual(i,j)  odd on axes i and j for i != j; closure(i) for i == j
    boundary_face(i)  k in {0, 2N+2} on axis i          (the two faces)
    full_closure      k even in [0, 2N+2] on every axis

Integer coordinates make every set relation between meshes exact; no
floating-point membership test is ever needed.  Enumeration is lexicographic
in k (C order), which fixes the index <-> point bijection used by all linear
algebra in this package.

Fields on the primal mesh follow the homogeneous Dirichlet convention: where
an operator needs values on the face layer, the field is extended by zero.
The difference/average operators pad their input themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError, MeshMismatchError

MAX_DIM = 3


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice of the unit box: `d` axes, `n` interior points each."""

    d: int
    n: int

    def __post_init__(self):
        if not 1 <= self.d <= MAX_DIM:
            raise GridError(f"dimension d={self.d} outside supported range [1, {MAX_DIM}]")
        if self.n < 1:
            raise GridError(f"need at least one interior point per axis, got n={self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def check_axis(self, axis: int):
        if not 0 <= axis < self.d:
            raise GridError(f"axis {axis} invalid for d={self.d}")


@dataclass(frozen=True)
class Mesh:
    """A product mesh: per-axis tuples of half-step integer coordinates.

    Two meshes compare equal iff they have the same grid and the same
    coordinate tuples; the `kind` label is descriptive only.
    """

    grid: GridSpec
    coords: tuple[tuple[int, ...], ...]
    kind: str = field(default="mesh", compare=False)

    def __post_init__(self):
        if len(self.coords) != self.grid.d:
            raise GridError("coordinate families do not match grid dimension")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.coords)

    @property
    def size(self) -> int:
        out = 1
        for c in self.coords:
            out *= len(c)
        return out

    @cached_property
    def points(self) -> np.ndarray:
        """All mesh points, shape (size, d), lexicographic in k (C order)."""
        if self.size == 0:
            return np.empty((0, self.grid.d), dtype=np.int64)
        axes = [np.asarray(c, dtype=np.int64) for c in self.coords]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def physical(self) -> np.ndarray:
        """Physical coordinates x = k * h/2, shape (size, d)."""
        return self.points * (self.grid.h / 2.0)

    def contains(self, k) -> bool:
        k = tuple(int(v) for v in k)
        if len(k) != self.grid.d:
            return False
        return all(ki in c for ki, c in zip(k, self.coords))

    def __repr__(self):
        return f"Mesh({self.kind}, d={self.grid.d}, n={self.grid.n}, shape={self.shape})"


def _even_range(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1, 2))


@lru_cache(maxsize=256)
def primal(grid: GridSpec) -> Mesh:
    c = _even_range(2, 2 * grid.n)
    return Mesh(grid, (c,) * grid.d, kind="primal")


@lru_cache(maxsize=256)
def dual_star(grid: GridSpec, axis: int) -> Mesh:
    grid.check_axis(axis)
    base = _even_range(2, 2 * grid.n)
    star = tuple(range(1, 2 * grid.n + 2, 2))
    coords = tuple(star if i == axis else base for i in range(grid.d))
    return Mesh(grid, coords, kind=f"dual_star({axis})")


@lru_cache(maxsize=256)
def dual_prime(grid: GridSpec, axis: int) -> Mesh:
    grid.check_axis(axis)
    base = _even_range(2, 2 * grid.n)
    prime = tuple(range(3, 2 * grid.n, 2))
    coords = tuple(prime if i == axis else base for i in range(grid.d))
    return Mesh(grid, coords, kind=f"dual_prime({axis})")


@lru_cache(maxsize=256)
def closure(grid: GridSpec, axis: int) -> Mesh:
    grid.check_axis(axis)
    base = _even_range(2, 2 * grid.n)
    closed = _even_range(0, 2 * grid.n + 2)
    coords = tuple(closed if i == axis else base for i in range(grid.d))
    return Mesh(grid, coords, kind=f"closure({axis})")


@lru_cache(maxsize=256)
def double_dual(grid: GridSpec, axis_i: int, axis_j: int) -> Mesh:
    """The iterated dual (star of the star): odd on both axes for i != j,
    the closure in the axis for i == j."""
    grid.check_axis(axis_i)
    grid.check_axis(axis_j)
    if axis_i == axis_j:
        m = closure(grid, axis_i)
        return Mesh(grid, m.coords, kind=f"double_dual({axis_i},{axis_j})")
    base = _even_range(2, 2 * grid.n)
    star = tuple(range(1, 2 * grid.n + 2, 2))
    coords = tuple(star if i in (axis_i, axis_j) else base for i in range(grid.d))
    return Mesh(grid, coords, kind=f"double_dual({axis_i},{axis_j})")


@lru_cache(maxsize=256)
def boundary_face(grid: GridSpec, axis: int) -> Mesh:
    grid.check_axis(axis)
    base = _even_range(2, 2 * grid.n)
    face = (0, 2 * grid.n + 2)
    coords = tuple(face if i == axis else base for i in range(grid.d))
    return Mesh(grid, coords, kind=f"boundary_face({axis})")


@lru_cache(maxsize=256)
def full_closure(grid: GridSpec) -> Mesh:
    c = _even_range(0, 2 * grid.n + 2)
    return Mesh(grid, (c,) * grid.d, kind="full_closure")


@dataclass
class MeshFunction:
    """Real values attached to one mesh, stored flat in enumeration order."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if self.values.shape[0] != self.mesh.size:
            raise MeshMismatchError(
                f"{self.values.shape[0]} values for mesh of size {self.mesh.size} ({self.mesh.kind})"
            )

    @property
    def grid(self) -> GridSpec:
        return self.mesh.grid

    def array(self) -> np.ndarray:
        return self.values.reshape(self.mesh.shape)


def sample(mesh: Mesh, fn) -> MeshFunction:
    """Evaluate `fn` on the physical points of `mesh` (fn maps (size,d) -> (size,))."""
    vals = np.asarray(fn(mesh.physical), dtype=np.float64)
    return MeshFunction(mesh, vals)


def require_mesh(u: MeshFunction, mesh: Mesh, what: str = "field"):
    if u.mesh != mesh:
        raise MeshMismatchError(f"{what} lives on {u.mesh.kind}, expected {mesh.kind}")


def is_primal_axis(grid: GridSpec, coords_axis: tuple[int, ...]) -> bool:
    return coords_axis == _even_range(2, 2 * grid.n)


def _classify_axis(grid: GridSpec, c: tuple[int, ...]) -> str:
    n = grid.n
    if c == _even_range(2, 2 * n):
        return "interior"
    if c == tuple(range(1, 2 * n + 2, 2)):
        return "star"
    if c == tuple(range(3, 2 * n, 2)):
        return "prime"
    if c == _even_range(0, 2 * n + 2):
        return "closed"
    if c == (0, 2 * n + 2):
        return "face"
    return "other"


def _derive_kind(grid: GridSpec, coords) -> str:
    tags = [_classify_axis(grid, c) for c in coords]
    if all(t == "interior" for t in tags):
        return "primal"
    if all(t == "closed" for t in tags):
        return "full_closure"
    special = [(i, t) for i, t in enumerate(tags) if t != "interior"]
    if len(special) == 1:
        i, t = special[0]
        return {"star": f"dual_star({i})", "prime": f"dual_prime({i})",
                "closed": f"closure({i})", "face": f"boundary_face({i})"}.get(t, "mesh")
    if len(special) == 2 and all(t == "star" for _, t in special):
        return f"double_dual({special[0][0]},{special[1][0]})"
    return "mesh"


def make_mesh(grid: GridSpec, coords) -> Mesh:
    coords = tuple(tuple(int(k) for k in c) for c in coords)
    return Mesh(grid, coords, kind=_derive_kind(grid, coords))


def normal(grid: GridSpec, axis: int, point) -> int:
    """The exterior normal component on the face set of the given axis.

    +1 where the backward shift stays in dual_star(axis) but the forward one
    leaves it, -1 in the mirrored case, 0 otherwise.
    """
    grid.check_axis(axis)
    face = boundary_face(grid, axis)
    k = tuple(int(v) for v in point)
    if not face.contains(k):
        raise GridError(f"point {k} is not on the axis-{axis} face set")
    star = dual_star(grid, axis)
    back = tuple(v - 1 if i == axis else v for i, v in enumerate(k))
    fwd = tuple(v + 1 if i == axis else v for i, v in enumerate(k))
    b_in, f_in = star.contains(back), star.contains(fwd)
    if b_in and not f_in:
        return 1
    if f_in and not b_in:
        return -1
    return 0


def axis_index(d: int, axis: int, lo, hi) -> tuple[tuple, tuple]:
    """Index tuples of a d-dimensional array taking `lo`, then `hi`, along one axis."""
    a, b = [slice(None)] * d, [slice(None)] * d
    a[axis], b[axis] = lo, hi
    return tuple(a), tuple(b)


def face_normals(grid: GridSpec, axis: int) -> np.ndarray:
    """Normals on the whole face mesh, aligned with its enumeration."""
    face = boundary_face(grid, axis)
    arr = np.empty(face.shape, dtype=np.float64)
    lo, hi = axis_index(grid.d, axis, 0, 1)
    arr[lo] = -1.0
    arr[hi] = 1.0
    return arr.ravel()


def trace(u: MeshFunction, axis: int) -> MeshFunction:
    """Trace of a dual_star(axis) field onto the axis face set.

    Takes the dual value adjacent to each face point from the interior side;
    zero where the normal vanishes (cannot happen on a box face set).
    """
    grid = u.mesh.grid
    require_mesh(u, dual_star(grid, axis), "trace argument")
    arr = u.array()
    # dual coordinates 1 and 2N+1, adjacent to the k=0 and k=2N+2 faces
    lo, hi = axis_index(grid.d, axis, 0, -1)
    stacked = np.stack([arr[lo], arr[hi]], axis=axis)
    return MeshFunction(boundary_face(grid, axis), stacked)


def restrict_to_primal(u: MeshFunction) -> MeshFunction:
    """Drop closed face layers so the field lives on the primal mesh."""
    grid = u.mesh.grid
    arr = u.array()
    for ax in range(grid.d):
        tag = _classify_axis(grid, u.mesh.coords[ax])
        if tag == "closed":
            sl = [slice(None)] * grid.d
            sl[ax] = slice(1, -1)
            arr = arr[tuple(sl)]
        elif tag != "interior":
            raise GridError(f"cannot restrict axis {ax} of {u.mesh.kind} to the interior")
    return MeshFunction(primal(grid), arr)
