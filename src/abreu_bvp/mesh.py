"""Uniformly convex model domains and finite-difference grids on them.

The model domains are an interval (n = 1), a disk, and an axis-aligned
ellipse (n = 2).  A domain is discretized on an axis-aligned Cartesian
lattice; lattice points inside the domain become interior nodes.  Wherever
one of the eight stencil arms of an interior node (two per coordinate axis,
four diagonal) leaves the domain, the crossing point with the boundary
becomes a boundary node and the shortened arm length is recorded
(Shortley-Weller).  Second derivatives along each stencil line use the
three-point formula on unequal arms, which is exact for quadratics, so
Hessians of quadratic fields are reproduced exactly at every interior node,
regular or irregular.  The center weight is computed as minus the sum of the
arm weights, so a constant's second differences vanish exactly on rows
whose arms are all interior (equal arms, equal weights), and on
Shortley-Weller rows only up to rounding: a few units of roundoff in the
constant times the row's largest weight.

Crossings reached from two arms become one boundary node by one sort along
the boundary parameter.  Interior quadrature assigns each full lattice cell
a midpoint weight at its node and gives the exact clipped area of each
boundary cell, whole, to the node nearest its centroid, so the weights are
positive and sum to |Omega| to machine precision; the moments of all
boundary cells come from one vectorized pass.  Boundary quadrature is the
trapezoid rule on chords between boundary nodes ordered along the boundary.
Normal derivatives at boundary nodes use a second-order one-sided
difference along the inward normal.  Off-lattice values come from
least-squares quadratic fits on the nearest nodes, all from batched QR
(`_quadratic_qr`): `Grid.boundary_fits` near the boundary, and
`quadratic_transfer`, which interpolates node values of one grid at the
points of another grid of the same domain.  Nearness is measured
in lattice coordinates (x/hx, y/hy), where the lattice has unit spacing on
both axes.  There an ellipse grid is the disk grid of its resolution (the
snap test aside), so a thin ellipse gets the disk's weights times ab, and
its fits draw neighbours from both axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .exceptions import DomainError, GridResolutionError

# Lattice points closer to the boundary than this fraction of the cell size
# are treated as boundary-adjacent exterior points; keeps stencil arm lengths
# bounded away from zero.
SNAP_FRACTION = 1e-3

_VALID_KINDS = ("interval", "disk", "ellipse")


@dataclass(frozen=True)
class DomainSpec:
    """A uniformly convex model domain.

    kind is one of "interval", "disk", "ellipse"; bounds holds (a, b) for an
    interval, (radius,) for a disk and (semi_a, semi_b) for an ellipse.
    """

    kind: str
    bounds: Tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _VALID_KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        vals = tuple(float(v) for v in self.bounds)
        object.__setattr__(self, "bounds", vals)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("domain parameters must be finite")
        if self.kind == "interval":
            if len(vals) != 2 or vals[0] >= vals[1]:
                raise DomainError("interval requires bounds (a, b) with a < b")
        elif self.kind == "disk":
            if len(vals) != 1 or vals[0] <= 0:
                raise DomainError("disk requires a positive radius")
        else:
            if len(vals) != 2 or min(vals) <= 0:
                raise DomainError("ellipse requires positive semi-axes")

    @staticmethod
    def interval(a: float, b: float) -> "DomainSpec":
        return DomainSpec("interval", (a, b))

    @staticmethod
    def disk(radius: float) -> "DomainSpec":
        return DomainSpec("disk", (radius,))

    @staticmethod
    def ellipse(semi_a: float, semi_b: float) -> "DomainSpec":
        return DomainSpec("ellipse", (semi_a, semi_b))

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    @property
    def semi_axes(self) -> Tuple[float, float]:
        if self.kind == "disk":
            return (self.bounds[0], self.bounds[0])
        if self.kind == "ellipse":
            return self.bounds
        raise DomainError("semi_axes undefined for an interval")

    @property
    def diameter(self) -> float:
        if self.kind == "interval":
            return self.bounds[1] - self.bounds[0]
        a, b = self.semi_axes
        return 2.0 * max(a, b)

    @property
    def measure(self) -> float:
        """Length of the interval, or area of the disk/ellipse."""
        if self.kind == "interval":
            return self.bounds[1] - self.bounds[0]
        a, b = self.semi_axes
        return math.pi * a * b

    # The 2-d level function is x^2/A^2 + y^2/B^2 - 1: dimensionless,
    # negative inside, exactly quadratic, so ray crossings solve in closed
    # form.
    def level(self, x, y):
        a, b = self.semi_axes
        return (np.asarray(x) / a) ** 2 + (np.asarray(y) / b) ** 2 - 1.0

    def level_gradient(self, x, y):
        a, b = self.semi_axes
        return 2.0 * np.asarray(x) / a**2, 2.0 * np.asarray(y) / b**2

    def inside_distance(self, x, y):
        """Approximate signed distance to the boundary, positive inside."""
        gx, gy = self.level_gradient(x, y)
        norm = np.maximum(np.hypot(gx, gy), 1e-300)
        return -self.level(x, y) / norm

    def outward_normal(self, points: np.ndarray) -> np.ndarray:
        """Unit outward normals at the (m, 2) boundary `points`."""
        gx, gy = self.level_gradient(points[:, 0], points[:, 1])
        norm = np.hypot(gx, gy)
        return np.column_stack([gx / norm, gy / norm])

    def boundary_point(self, t):
        """Point on the boundary at parameter t (angle for disk/ellipse)."""
        a, b = self.semi_axes
        t = np.asarray(t, dtype=float)
        return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)

    def boundary_param(self, points: np.ndarray) -> np.ndarray:
        a, b = self.semi_axes
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.arctan2(pts[:, 1] / b, pts[:, 0] / a)

    def ray_boundary_distance(self, px, py, ux, uy):
        """Distance from interior points p along unit directions u to the boundary.

        Solves the quadratic level(p + s u) = 0 for the positive root with a
        cancellation-safe formula.
        """
        a, b = self.semi_axes
        qa = (ux / a) ** 2 + (uy / b) ** 2
        qb = 2.0 * (px * ux / a**2 + py * uy / b**2)
        qc = self.level(px, py)
        disc = np.sqrt(qb**2 - 4.0 * qa * qc)
        # qc < 0 inside, so the roots straddle zero; pick the stable form of
        # the positive one depending on the sign of qb.
        s_plus = np.where(qb <= 0.0, (-qb + disc) / (2.0 * qa), -2.0 * qc / (disc + qb))
        return s_plus


def gauss_curvature(domain: DomainSpec, point, tol: float = 1e-8):
    """Gauss (here: plane) curvature of the boundary at boundary points.

    One point gives a float, an (m, 2) array of points an array.  For n = 1
    the convention K = 1 is used.  Raises DomainError when a point is not
    on the boundary within the dimensionless level tolerance.
    """
    pts = np.asarray(point, dtype=float)
    many = pts.ndim == 2
    pts = pts if many else pts.ravel()[None, :]
    if domain.kind == "interval":
        a, b = domain.bounds
        off = np.minimum(abs(pts[:, 0] - a), abs(pts[:, 0] - b)) / (b - a)
        kappa = np.ones(len(pts))
    else:
        off = abs(domain.level(pts[:, 0], pts[:, 1]))
        a, b = domain.semi_axes
        gx, gy = domain.level_gradient(pts[:, 0], pts[:, 1])
        lxx, lyy = 2.0 / a**2, 2.0 / b**2
        # Implicit curve curvature with l_xy = 0 for these quadrics.
        kappa = (gx**2 * lyy + gy**2 * lxx) / np.hypot(gx, gy) ** 3
    if np.any(off > tol):
        raise DomainError("point not on boundary")
    return kappa if many else float(kappa[0])


class ScalarField:
    """Values attached to every node (interior then boundary) of one grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: "Grid", values):
        vals = np.array(values, dtype=float, copy=True)
        if vals.shape != (grid.n_nodes,):
            raise ValueError(
                f"expected {grid.n_nodes} node values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @classmethod
    def from_function(cls, grid: "Grid", fn: Callable) -> "ScalarField":
        pts = grid.points
        return cls(grid, np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float) * np.ones(grid.n_nodes))

    @classmethod
    def constant(cls, grid: "Grid", value: float) -> "ScalarField":
        return cls(grid, np.full(grid.n_nodes, float(value)))

    @property
    def interior(self) -> np.ndarray:
        return self.values[: self.grid.n_interior]

    @property
    def boundary(self) -> np.ndarray:
        return self.values[self.grid.n_interior :]


class MatrixField:
    """A symmetric matrix per interior node (Hessians, cofactor fields)."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: "Grid", data):
        arr = np.array(data, dtype=float, copy=True)
        n = grid.dim
        if arr.shape != (grid.n_interior, n, n):
            raise ValueError(f"expected shape {(grid.n_interior, n, n)}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixField is immutable")


class SecondOps(NamedTuple):
    """The Shortley-Weller stencil of one grid, in one fixed layout.

    Row n of `cols` lists the stencil nodes of interior node n: the node
    itself, then the + and - arm of each axis (x, y and for n = 2 the two
    lattice diagonals) in arm order, as node columns (interior nodes, then
    boundary nodes offset by n_interior).  `weights[n, a]` holds the
    second-difference weights of axis a on its center, + arm and - arm.
    Row a of `to_hessian` is the flattened dim x dim matrix that the second
    derivative along axis a contributes to the Hessian, so
    H = d2 @ to_hessian, and the operator U^{ij} w_ij weights axis a by
    U : to_hessian[a] (`lin_ma.stencil_weights`).  The sparsity patterns
    of the operators on this stencil live in `lin_ma`.
    """

    cols: np.ndarray
    weights: np.ndarray
    to_hessian: np.ndarray


class Grid:
    """Cartesian grid with boundary-fitted stencil data for one domain.

    Nodes are ordered interior first (lattice row-major) and boundary second
    (by boundary parameter).  The stencil is `second_ops`, written once by
    `build_grid`; `arm_dist[n, k]` is the length of arm k of interior node
    n, shortened where the arm crosses the boundary.  Arm order: +x, -x,
    +y, -y, and for n = 2 the diagonals +(hx,hy), -(hx,hy), +(hx,-hy),
    -(hx,-hy).

    A 2-d grid has one k-d tree over all nodes in lattice coordinates
    (x/hx, y/hy) (`tree`; None for an interval), which places the cut-cell
    quadrature and the boundary fits.  `nd_order`, `boundary_fits` and
    `nearest_interior` are built on first use through `cached`, which also
    keeps what other modules derive per grid.
    """

    def __init__(self, domain, resolution, hx, hy, points, n_interior,
                 cols, arm_dist,
                 boundary_normals, boundary_curvature, boundary_params,
                 boundary_arcweights, quad_weights, tree=None):
        self.domain = domain
        self.resolution = resolution
        self.hx = hx
        self.hy = hy
        self.h = min(hx, hy)
        self.points = points
        self.n_interior = n_interior
        self.n_boundary = points.shape[0] - n_interior
        self.arm_dist = arm_dist
        self.boundary_normals = boundary_normals
        self.boundary_curvature = boundary_curvature
        self.boundary_params = boundary_params
        self.boundary_arcweights = boundary_arcweights
        self.quad_weights = quad_weights
        self.tree = tree
        self.second_ops = _build_second_ops(cols, arm_dist, hx, hy)
        self._cache = {}

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    @property
    def interior_points(self) -> np.ndarray:
        return self.points[: self.n_interior]

    @property
    def boundary_points(self) -> np.ndarray:
        return self.points[self.n_interior :]

    def field(self, fn: Callable) -> ScalarField:
        return ScalarField.from_function(self, fn)

    def boundary_values(self, fn: Callable) -> np.ndarray:
        bp = self.boundary_points
        return np.asarray(fn(bp[:, 0], bp[:, 1]), dtype=float) * np.ones(self.n_boundary)

    def cached(self, build):
        """build(self), made on first use and kept with the grid.

        For structure fixed per grid that is derived from the stencil or
        the nodes: the grid's own `nd_order`, `boundary_fits` and
        `nearest_interior`, and the operators' sparsity patterns (`lin_ma`).
        Every later caller shares the result, so `build` returns read-only
        arrays.
        """
        if build not in self._cache:
            self._cache[build] = build(self)
        return self._cache[build]

    @property
    def nearest_interior(self) -> np.ndarray:
        """Index of the nearest interior node for each boundary node."""
        return self.cached(_nearest_interior)

    @property
    def nd_order(self):
        """A nested-dissection order of the interior nodes, built once.

        A read-only permutation of range(n_interior) for sparse
        factorizations, from the bisection of a lattice box that starts at
        the bounding box of the interior nodes: each box is cut at the
        middle lattice line across its longer extent (along i on a tie),
        and the nodes of the two halves come first, then the nodes on the
        cut (George 1973).  The stencil only reaches neighbouring lattice
        nodes, so no stencil column joins the two halves.  Boxes of at
        most _ND_LEAF lattice points are leaves, and the nodes of a leaf or
        a cut keep lattice order.  On an interval it is the identity: the
        lattice order is tridiagonal and has no fill.
        """
        return self.cached(_nested_dissection)

    @property
    def boundary_fits(self) -> Tuple[np.ndarray, np.ndarray]:
        """Least-squares quadratic fits at the boundary nodes, built once.

        Row d of `(idx, coef)` holds the fits of `_quadratic_fit` centered
        d h along the inward normal, d = 0, 1, 2, so `coef @ values[idx]`
        are the coefficients, exact for quadratic fields.  Raises
        GridResolutionError when a center at depth h or 2h is not inside
        the domain.
        """
        return self.cached(_boundary_fits)


def _nearest_interior(grid: Grid) -> np.ndarray:
    _, idx = cKDTree(grid.interior_points).query(grid.boundary_points)
    idx = np.asarray(idx, dtype=int)
    idx.setflags(write=False)
    return idx


def _boundary_fits(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    if grid.dim != 2:
        raise ValueError("boundary fits require a 2-d grid")
    depth = grid.h * np.arange(3.0)[:, None, None]
    centers = grid.boundary_points - depth * grid.boundary_normals
    if np.any(grid.domain.level(centers[1:, :, 0], centers[1:, :, 1]) >= 0.0):
        raise GridResolutionError(
            "normal-derivative stencil leaves the domain; refine the grid")
    fits = _quadratic_fit(grid, centers / (grid.hx, grid.hy))
    for arr in fits:
        arr.setflags(write=False)
    return fits


def _quadratic_qr(grid: Grid, centers: np.ndarray):
    """The 12 nodes of `grid.tree` nearest each center, and the batched QR
    of the quadratic basis 1, X, Y, X^2, XY, Y^2 at them.

    centers are in lattice coordinates (x/hx, y/hy), shape (..., 2), and
    the basis is in lattice coordinates relative to the center.  Returns
    idx, shape (..., 12), and Q, R, shapes (..., 12, 6) and (..., 6, 6).
    """
    _, idx = grid.tree.query(centers, k=12)
    z = grid.tree.data[idx] - centers[..., None, :]
    x, y = z[..., 0], z[..., 1]
    q, r = np.linalg.qr(np.stack([np.ones_like(x), x, y, x**2, x * y, y**2],
                                 axis=-1))
    return idx, q, r


def _quadratic_fit(grid: Grid, centers: np.ndarray):
    """Local quadratic least-squares fits at centers, from one batched QR.

    Returns idx, the nodes of `_quadratic_qr`, and coef, shape
    (..., 6, 12), with `coef @ values[idx]` the coefficients of 1, X, Y,
    X^2, XY, Y^2 in lattice coordinates relative to the center.  With the
    basis B = QR at those nodes, coef = R^{-1} Q^T; QR keeps it accurate
    to roundoff where clustered boundary nodes make B^T B ill-conditioned.
    """
    idx, q, r = _quadratic_qr(grid, centers)
    return idx, np.linalg.solve(r, np.swapaxes(q, -1, -2))


def quadratic_transfer(grid: Grid, points, values) -> np.ndarray:
    """Node values of a 2-d grid, shape (n_nodes, ...), interpolated at the
    (m, 2) `points`.

    A point's value is the constant term of the fit of `_quadratic_fit`
    centered there, so the transfer is exact for quadratic fields, and
    each column costs one weighted sum over 12 nodes.  The weights are row
    0 of R^{-1} Q^T alone, Q y with R^T y = e_0: one forward substitution
    per point.
    """
    idx, q, r = _quadratic_qr(
        grid, np.asarray(points, dtype=float) / (grid.hx, grid.hy))
    y = np.zeros(r.shape[:-1])
    y[:, 0] = 1.0 / r[:, 0, 0]
    for k in range(1, 6):
        y[:, k] = -np.einsum("mj,mj->m", r[:, :k, k], y[:, :k]) / r[:, k, k]
    return np.einsum("mk,mk...->m...", np.einsum("mkj,mj->mk", q, y),
                     values[idx])


def build_grid(domain: DomainSpec, resolution: int) -> Grid:
    """Build the grid for a domain.

    resolution is the number of lattice points per axis spanning the bounding
    box, boundary included: an interval (a, b) at resolution 5 has nodes
    a, a+h, ..., b with h = (b-a)/4.
    """
    resolution = int(resolution)
    if resolution < 4:
        raise GridResolutionError("resolution must be at least 4")
    if domain.dim == 1:
        return _build_grid_1d(domain, resolution)
    return _build_grid_2d(domain, resolution)


def _build_grid_1d(domain: DomainSpec, res: int) -> Grid:
    a, b = domain.bounds
    xs = np.linspace(a, b, res)
    h = xs[1] - xs[0]
    n_int = res - 2
    points = np.zeros((res, 2))
    points[:n_int, 0] = xs[1:-1]
    points[n_int, 0] = a
    points[n_int + 1, 0] = b

    # the node, its +x arm, its -x arm
    cols = np.arange(n_int, dtype=np.int64)[:, None] + np.array([0, 1, -1])
    cols[-1, 1] = n_int + 1  # right endpoint
    cols[0, 2] = n_int  # left endpoint
    arm_dist = np.full((n_int, 2), h)

    normals = np.array([[-1.0, 0.0], [1.0, 0.0]])
    curvature = np.ones(2)
    params = np.array([0.0, 1.0])
    arcweights = np.ones(2)  # counting measure on the two endpoints

    quad = np.full(res, h)
    quad[n_int:] = h / 2.0  # trapezoid end weights

    return Grid(domain, res, h, h, points, n_int, cols, arm_dist, normals,
                curvature, params, arcweights, quad)


_ARMS_2D = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))


def _build_grid_2d(domain: DomainSpec, res: int) -> Grid:
    a, b = domain.semi_axes
    xs = np.linspace(-a, a, res)
    ys = np.linspace(-b, b, res)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    h = min(hx, hy)
    diag = math.hypot(hx, hy)

    X, Y = np.meshgrid(xs, ys, indexing="ij")
    dist = domain.inside_distance(X, Y)
    inside = dist > SNAP_FRACTION * h
    ii, jj = np.nonzero(inside)
    n_int = ii.size
    if n_int == 0:
        raise GridResolutionError("no interior nodes; refine the grid")
    # One ring of exterior lattice points around the lattice, so every arm
    # end has an index; -1 marks a point that is not an interior node.
    index2d = np.full((res + 2, res + 2), -1, dtype=np.int64)
    index2d[ii + 1, jj + 1] = np.arange(n_int)
    ipts = np.column_stack([xs[ii], ys[jj]])

    # The stencil columns (`SecondOps`): the node, then its arm ends.
    di, dj = np.array(_ARMS_2D).T
    cols = index2d[ii[:, None] + np.r_[0, di] + 1,
                   jj[:, None] + np.r_[0, dj] + 1]
    arm_len = np.array([hx, hx, hy, hy, diag, diag, diag, diag])
    arm_dist = np.tile(arm_len, (n_int, 1))

    # Crossings, arm by arm and then by row, with the unit arm direction u.
    arm, row = np.nonzero(cols[:, 1:].T < 0)
    ux, uy = (di * hx / arm_len)[arm], (dj * hy / arm_len)[arm]
    s = domain.ray_boundary_distance(ipts[row, 0], ipts[row, 1], ux, uy)
    if np.any(~np.isfinite(s)) or np.any(s <= 0) or np.any(s > 2.0 * arm_len[arm]):
        raise GridResolutionError("boundary crossing outside expected range")
    arm_dist[row, arm] = s
    cand_pos = np.column_stack([ipts[row, 0] + s * ux, ipts[row, 1] + s * uy])
    cand_t = domain.boundary_param(cand_pos)

    # Crossings within tol_t of the previous one along the boundary are one
    # node (the same crossing reached from several arms); the first in
    # order represents it.  The last node merges into the first across the
    # -pi/+pi seam.
    tol_t = 1e-10
    order = np.argsort(cand_t, kind="stable")
    starts = np.concatenate([[True], np.diff(cand_t[order]) > tol_t])
    cluster_of = np.empty(order.size, dtype=np.int64)
    cluster_of[order] = np.cumsum(starts) - 1
    reps = order[starts]
    if reps.size > 1 and (cand_t[reps[0]] + 2.0 * math.pi) - cand_t[reps[-1]] <= tol_t:
        cluster_of[cluster_of == reps.size - 1] = 0
        reps = reps[:-1]
    cols[row, 1 + arm] = n_int + cluster_of

    bpts = cand_pos[reps]
    bparams = cand_t[reps]
    n_bdy = reps.size

    points = np.vstack([ipts, bpts])
    normals = domain.outward_normal(bpts)
    curvature = gauss_curvature(domain, bpts, tol=1e-6)

    # Trapezoid arc weights on the closed polygon of boundary nodes.
    nxt = np.roll(np.arange(n_bdy), -1)
    chord = np.linalg.norm(bpts[nxt] - bpts, axis=1)
    arcweights = 0.5 * (chord + np.roll(chord, 1))

    tree = cKDTree(points / (hx, hy))
    quad = _interior_quadrature(domain, xs, ys, hx, hy, dist,
                                index2d[1:-1, 1:-1], tree)

    grid = Grid(domain, res, hx, hy, points, n_int, cols, arm_dist, normals,
                curvature, bparams, arcweights, quad, tree)
    total = quad.sum()
    if abs(total - domain.measure) > 1e-8 * domain.measure:
        raise GridResolutionError(
            f"quadrature weights sum to {total}, expected {domain.measure}")
    return grid


def _disk_rect_moments(x0, x1, y0, y1):
    """Exact (area, int x dA, int y dA) of [x0,x1]x[y0,y1] within the unit disk.

    Takes four arrays of one shape and returns three.  The x cuts of a
    rectangle are its clipped sides and the points where its bottom and top
    edges meet the circle; a cut outside the sides is replaced by the left
    side, so every rectangle has five pieces between sorted cuts, some
    empty.  On each piece the upper and lower limits are each an edge or
    the circle, so its moments are differences of closed-form
    antiderivatives at the cuts.
    """
    lo = np.maximum(x0, -1.0)
    hi = np.maximum(lo, np.minimum(x1, 1.0))  # lo = hi beside the disk
    cuts = [lo, hi]
    for yv in (y0, y1):
        xc = np.sqrt(np.maximum(0.0, 1.0 - yv * yv))
        for c in (-xc, xc):
            cuts.append(np.where((abs(yv) < 1.0) & (lo < c) & (c < hi), c, lo))
    xs = np.sort(np.stack(cuts, axis=-1), axis=-1)
    p, q = xs[..., :-1], xs[..., 1:]
    y0, y1 = y0[..., None], y1[..., None]

    def F_c(x):  # integral of sqrt(1-x^2)
        x = np.clip(x, -1.0, 1.0)
        return 0.5 * (x * np.sqrt(np.maximum(0.0, 1.0 - x * x)) + np.arcsin(x))

    def F_xc(x):  # integral of x*sqrt(1-x^2)
        return -(np.maximum(0.0, 1.0 - x * x) ** 1.5) / 3.0

    def F_c2(x):  # integral of (1-x^2)
        return x - x**3 / 3.0

    xm = 0.5 * (p + q)
    c = np.sqrt(np.maximum(0.0, 1.0 - xm * xm))
    yu_cap = y1 >= c  # upper limit is the circle on this piece
    yl_cap = y0 <= -c  # lower limit is the circle
    empty = (q - p < 1e-15) | (np.where(yu_cap, c, y1) <= np.where(yl_cap, -c, y0))
    dc, dxc, dc2 = (np.diff(F(xs), axis=-1) for F in (F_c, F_xc, F_c2))

    def limit(cap, y, sign):
        """Integrals of v, x v and v^2/2 over each piece for the limit v,
        sign * sqrt(1-x^2) where cap holds and the edge y elsewhere."""
        return (np.where(cap, sign * dc, y * (q - p)),
                np.where(cap, sign * dxc, y * 0.5 * (q * q - p * p)),
                0.5 * np.where(cap, dc2, y * y * (q - p)))

    return tuple(np.where(empty, 0.0, up - low).sum(axis=-1) for up, low
                 in zip(limit(yu_cap, y1, 1.0), limit(yl_cap, y0, -1.0)))


def _interior_quadrature(domain, xs, ys, hx, hy, dist, index2d, tree):
    a, b = domain.semi_axes
    w = np.zeros(tree.n)

    # Corner grid of the lattice cells (cell of node (i,j) is
    # [xs[i]-hx/2, xs[i]+hx/2] x [ys[j]-hy/2, ys[j]+hy/2]).
    xc = np.concatenate([xs - hx / 2.0, [xs[-1] + hx / 2.0]])
    yc = np.concatenate([ys - hy / 2.0, [ys[-1] + hy / 2.0]])
    XC, YC = np.meshgrid(xc, yc, indexing="ij")
    corner_in = domain.level(XC, YC) < 0.0
    cell_full = (corner_in[:-1, :-1] & corner_in[1:, :-1]
                 & corner_in[:-1, 1:] & corner_in[1:, 1:])
    if np.any(index2d[cell_full] < 0):
        # A cell strictly inside the domain always has an interior center.
        raise GridResolutionError("inconsistent cell classification")
    w[index2d[cell_full]] = hx * hy

    # Cells near the boundary: exact clipped area, whole, at the node
    # nearest the centroid in lattice coordinates.
    i, j = np.nonzero(~cell_full & (dist >= -2.0 * math.hypot(hx, hy)))
    ar, mx, my = _disk_rect_moments(
        (xs[i] - hx / 2.0) / a, (xs[i] + hx / 2.0) / a,
        (ys[j] - hy / 2.0) / b, (ys[j] + hy / 2.0) / b)
    area = ar * a * b
    cut = area > 1e-14 * hx * hy
    _, idx = tree.query(np.column_stack([a * mx[cut] / ar[cut] / hx,
                                         b * my[cut] / ar[cut] / hy]))
    np.add.at(w, idx, area[cut])  # cell by cell in lattice order
    return w


def _build_second_ops(cols, arm_dist, hx, hy) -> SecondOps:
    dp = arm_dist[:, 0::2]
    dm = arm_dist[:, 1::2]
    cp = 2.0 / (dp * (dp + dm))
    cm = 2.0 / (dm * (dp + dm))
    # Center weight minus the arm weights.  A constant's second difference
    # is then exactly 0 where the arms are equal (cp == cm); on unequal
    # arms the center weight and the sum are rounded, which leaves a few
    # units of roundoff in the constant times the largest weight.
    weights = np.stack([-(cp + cm), cp, cm], axis=2)
    if dp.shape[1] == 1:
        to_hessian = np.ones((1, 1))
    else:
        # u_xy = (u_pp - u_mm) * ell^2 / (4 hx hy) with the diagonal stencils.
        s = (hx**2 + hy**2) / (4.0 * hx * hy)
        to_hessian = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                               [0.0, s, s, 0.0], [0.0, -s, -s, 0.0]])
    ops = SecondOps(cols, weights, to_hessian)
    for arr in ops:
        arr.setflags(write=False)  # shared by every operator on the grid
    return ops


# Boxes of at most this many lattice points are the leaves of the nested
# dissection; their nodes keep lattice order.
_ND_LEAF = 8


def _nested_dissection(grid: Grid) -> np.ndarray:
    """`Grid.nd_order`: every interior node descends the bisection of its
    lattice box, one level at a time, for all nodes at once.

    Each level appends one base-3 digit to a node's key: 0 below the cut of
    its box, 1 above it, 2 on it.  A node on a cut, or in a leaf box,
    stops and appends 0 from then on, so one stable sort of the keys lists
    both halves of every box before its cut, and keeps lattice order
    inside each leaf and each cut.  Each level at least halves the lattice
    points of a box, so an int64 key (39 digits) holds the order of any
    lattice of fewer than 2^41 points.
    """
    order = np.arange(grid.n_interior)
    if grid.dim == 1:
        order.setflags(write=False)
        return order
    a, b = grid.domain.semi_axes
    ij = np.rint((grid.interior_points + (a, b)) / (grid.hx, grid.hy))
    i, j = ij.astype(np.int64).T
    # The boxes of one level, rows (lo_i, lo_j, hi_i, hi_j); row 0 is empty
    # and holds the nodes that have stopped.
    boxes = np.array([[0, 0, -1, -1], [i.min(), j.min(), i.max(), j.max()]])
    at = np.ones(order.size, dtype=np.int64)  # each node's box
    key = np.zeros(order.size, dtype=np.int64)
    while True:
        ext = boxes[:, 2:] - boxes[:, :2]
        cut = np.flatnonzero((ext[:, 0] + 1) * (ext[:, 1] + 1) > _ND_LEAF)
        if not cut.size:
            break
        # The middle lattice line across the longer extent, along i on a
        # tie; a box that is not cut sends its nodes to row 0 with digit 0.
        along_j = ext[:, 1] > ext[:, 0]
        axis = along_j[cut].astype(np.int64)
        mid = np.full(len(boxes), np.iinfo(np.int64).max)
        mid[cut] = (boxes[cut, axis] + boxes[cut, 2 + axis]) // 2
        line, m = np.where(along_j[at], j, i), mid[at]
        digit = (line > m) + 2 * (line == m)
        key = 3 * key + digit
        # The halves of the k-th cut box are the next level's rows 2k + 1
        # and 2k + 2.
        halves = np.arange(1, 2 * cut.size + 1).reshape(-1, 2)
        child = np.zeros((len(boxes), 3), dtype=np.int64)
        child[cut, :2] = halves
        at = child[at, digit]
        boxes = np.concatenate([boxes[:1], np.repeat(boxes[cut], 2, axis=0)])
        boxes[halves[:, 0], 2 + axis] = mid[cut] - 1
        boxes[halves[:, 1], axis] = mid[cut] + 1
    order = np.argsort(key, kind="stable")
    order.setflags(write=False)
    return order


# --- discrete calculus ----------------------------------------------------


def hessian(u: ScalarField, grid: Grid = None) -> MatrixField:
    """Discrete Hessian at every interior node.

    Second differences along each axis of `grid.second_ops`, from one
    gather of node values on its stencil columns: central differences on
    regular stencils, three-point formulas on shortened Shortley-Weller arms
    near the boundary.  The mixed derivative comes from the two diagonal
    axes.
    """
    grid = grid or u.grid
    ops = grid.second_ops
    v = u.values[ops.cols]
    w = ops.weights
    d2 = w[..., 0] * v[:, :1]  # center, then the + and - arm of each axis
    d2 += w[..., 1] * v[:, 1::2]
    d2 += w[..., 2] * v[:, 2::2]
    return MatrixField(grid, (d2 @ ops.to_hessian).reshape(-1, grid.dim,
                                                           grid.dim))


def det_field(H: MatrixField, grid: Grid = None) -> ScalarField:
    """Determinant of a symmetric matrix field, extended to boundary nodes.

    Boundary values are one-sided (nearest interior node) extrapolations.
    """
    grid = grid or H.grid
    return ScalarField(grid, extend_to_boundary(grid, sym_det(H.data)))


def sym_det(data: np.ndarray) -> np.ndarray:
    """Per-node determinants of symmetric 1x1 or 2x2 data, shape (n, k, k)."""
    if data.shape[1] == 1:
        return data[:, 0, 0]
    return data[:, 0, 0] * data[:, 1, 1] - data[:, 0, 1] ** 2


def extend_to_boundary(grid: Grid, interior_values: np.ndarray) -> np.ndarray:
    """Extend interior node values to all nodes by nearest-interior copy."""
    vals = np.empty(grid.n_nodes)
    vals[: grid.n_interior] = interior_values
    vals[grid.n_interior :] = interior_values[grid.nearest_interior]
    return vals


def cofactor(H: MatrixField, grid: Grid = None) -> MatrixField:
    """Cofactor matrix field; identically 1 in one dimension."""
    grid = grid or H.grid
    if grid.dim == 1:
        return MatrixField(grid, np.ones_like(H.data))
    d = H.data
    out = np.empty_like(d)
    out[:, 0, 0] = d[:, 1, 1]
    out[:, 1, 1] = d[:, 0, 0]
    out[:, 0, 1] = -d[:, 0, 1]
    out[:, 1, 0] = -d[:, 1, 0]
    return MatrixField(grid, out)


def level_bubble(grid: Grid) -> np.ndarray:
    """A convex bubble vanishing on the boundary (the domain level function)."""
    pts = grid.points
    if grid.dim == 1:
        a, b = grid.domain.bounds
        return 0.5 * (pts[:, 0] - a) * (pts[:, 0] - b)
    vals = 0.5 * grid.domain.level(pts[:, 0], pts[:, 1])
    vals[grid.n_interior:] = 0.0
    return vals


def is_positive_definite(H: MatrixField) -> np.ndarray:
    """Per-node positive definiteness flags (symmetric 1x1 or 2x2 data).

    Where the determinant is positive the diagonal entries share one sign,
    so the first one stands for the trace.
    """
    d = H.data
    return (sym_det(d) > 0.0) & (d[:, 0, 0] > 0.0)


def boundary_normal_derivative(u: ScalarField, grid: Grid = None) -> np.ndarray:
    """Outward normal derivative of u at every boundary node.

    Second-order one-sided difference along -nu into the domain; in two
    dimensions the two inner samples come from the quadratic fits of
    `Grid.boundary_fits`, so the result is exact for quadratic fields.
    """
    grid = grid or u.grid
    vals = u.values
    nb = grid.n_interior
    if grid.dim == 1:
        # interior nodes run from a + h to b - h, then the nodes a and b
        inner1, inner2 = vals[[0, nb - 1]], vals[[1, nb - 2]]
        return (3.0 * vals[nb:] - 4.0 * inner1 + inner2) / (2.0 * grid.hx)

    idx, coef = grid.boundary_fits
    u1, u2 = (np.einsum("ij,ij->i", coef[d, :, 0], vals[idx[d]]) for d in (1, 2))
    return (3.0 * vals[nb:] - 4.0 * u1 + u2) / (2.0 * grid.h)


def boundary_hessian(u: ScalarField, grid: Grid = None) -> np.ndarray:
    """Hessian of u at every boundary node, shape (n_boundary, 2, 2).

    Read off the local quadratic fit of `Grid.boundary_fits` centered at the
    node, whose coefficients of X^2, XY, Y^2 in lattice coordinates scale
    by 1/hx^2, 1/(hx hy), 1/hy^2; exact for quadratic fields.
    """
    grid = grid or u.grid
    idx, coef = grid.boundary_fits
    scale = (grid.hx**2, grid.hx * grid.hy, grid.hy**2)
    c = (coef[0] @ u.values[idx[0]][..., None])[:, 3:, 0] / scale
    return np.stack([2.0 * c[:, 0], c[:, 1], c[:, 1], 2.0 * c[:, 2]],
                    axis=1).reshape(-1, 2, 2)


def integrate_interior(field, grid: Grid) -> float:
    """Quadrature of a node field over the domain interior."""
    vals = field.values if isinstance(field, ScalarField) else np.asarray(field, dtype=float)
    if vals.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} node values")
    return float(grid.quad_weights @ vals)


def integrate_boundary(boundary_values, grid: Grid) -> float:
    """Quadrature of boundary node values over the boundary."""
    vals = np.asarray(boundary_values, dtype=float)
    if vals.shape != (grid.n_boundary,):
        raise ValueError(f"expected {grid.n_boundary} boundary values")
    return float(grid.boundary_arcweights @ vals)


def cofactor_divergence(U: MatrixField, grid: Grid = None):
    """Row-wise discrete divergence of a cofactor field, where evaluable.

    Returns (div, mask): div has one row per interior node with the two
    components sum_j D_j U^{ij}; mask marks nodes whose central-difference
    stencil touches only regular-stencil interior nodes, where the values
    carry a clean truncation order.  Two-dimensional grids only.
    """
    grid = grid or U.grid
    if grid.dim != 2:
        raise ValueError("cofactor divergence check requires a 2-d grid")
    n_int = grid.n_interior
    cols = grid.second_ops.cols
    # per node: an interior node whose stencil is all interior
    regular = np.zeros(grid.n_nodes, dtype=bool)
    regular[:n_int] = np.all(cols < n_int, axis=1)
    mask = regular[:n_int] & np.all(regular[cols[:, 1:5]], axis=1)

    div = np.zeros((n_int, 2))
    rows = np.nonzero(mask)[0]
    e, wst, nth, sth = cols[rows, 1:5].T
    d = U.data
    for comp in range(2):
        dx = (d[e, comp, 0] - d[wst, comp, 0]) / (2.0 * grid.hx)
        dy = (d[nth, comp, 1] - d[sth, comp, 1]) / (2.0 * grid.hy)
        div[rows, comp] = dx + dy
    return div, mask
