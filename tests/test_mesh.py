import gc

import numpy as np
import pytest
from scipy.special import ellipe

from abreu_bvp import (
    DomainSpec,
    GSpec,
    MatrixField,
    Problem,
    ScalarField,
    boundary_normal_derivative,
    build_grid,
    cofactor,
    cofactor_divergence,
    det_field,
    extend_to_boundary,
    gauss_curvature,
    hessian,
    integrate_boundary,
    integrate_interior,
    is_positive_definite,
    solve_second_bvp,
)
from abreu_bvp.exceptions import DomainError, GridResolutionError
from abreu_bvp import mesh
from abreu_bvp.mesh import boundary_hessian


# ---------------------------------------------------------------- domains

def test_domain_validation():
    with pytest.raises(DomainError):
        DomainSpec.interval(1.0, 1.0)
    with pytest.raises(DomainError):
        DomainSpec.disk(-2.0)
    with pytest.raises(DomainError):
        DomainSpec.ellipse(1.0, 0.0)


def test_domain_geometry_constants():
    disk = DomainSpec.disk(2.0)
    assert disk.diameter == pytest.approx(4.0)
    assert disk.measure == pytest.approx(4.0 * np.pi)

    ell = DomainSpec.ellipse(2.0, 1.0)
    assert ell.diameter == pytest.approx(4.0)
    assert ell.measure == pytest.approx(2.0 * np.pi)

    iv = DomainSpec.interval(-1.0, 3.0)
    assert iv.diameter == pytest.approx(4.0)
    assert iv.measure == pytest.approx(4.0)


def test_gauss_curvature_disk_and_ellipse():
    disk = DomainSpec.disk(1.5)
    for t in np.linspace(0.0, 2 * np.pi, 7):
        p = disk.boundary_point(t)
        assert gauss_curvature(disk, p) == pytest.approx(1.0 / 1.5, rel=1e-10)

    a, b = 2.0, 1.0
    ell = DomainSpec.ellipse(a, b)
    for t in np.linspace(0.0, 2 * np.pi, 9):
        p = np.array([a * np.cos(t), b * np.sin(t)])
        kappa = a * b / (a**2 * np.sin(t)**2 + b**2 * np.cos(t)**2) ** 1.5
        assert gauss_curvature(ell, p) == pytest.approx(kappa, rel=1e-8)


def test_gauss_curvature_of_many_points_equals_the_per_point_calls():
    for dom in (DomainSpec.disk(1.5), DomainSpec.ellipse(2.0, 1.0)):
        pts = dom.boundary_point(np.linspace(-np.pi, np.pi, 17))
        one_by_one = [gauss_curvature(dom, p) for p in pts]
        assert all(isinstance(k, float) for k in one_by_one)
        kappa = gauss_curvature(dom, pts)
        assert kappa.shape == (17,)
        np.testing.assert_array_equal(kappa, one_by_one)
        # every point is checked, not only the first
        off = pts.copy()
        off[9] *= 1.01
        with pytest.raises(DomainError):
            gauss_curvature(dom, off)
    iv = DomainSpec.interval(0.0, 2.0)
    ends = np.array([[0.0, 0.0], [2.0, 0.0]])
    np.testing.assert_array_equal(gauss_curvature(iv, ends), [1.0, 1.0])
    assert gauss_curvature(iv, 2.0) == 1.0
    with pytest.raises(DomainError):
        gauss_curvature(iv, np.array([[0.0, 0.0], [1.0, 0.0]]))


# ------------------------------------------------------------------ grids

def test_grid_counts_match_brute_force_predicate(disk32):
    g = disk32
    xs = np.unique(g.points[: g.n_interior, 0])
    # every interior node must satisfy the domain predicate strictly
    lv = g.domain.level(g.points[: g.n_interior, 0], g.points[: g.n_interior, 1])
    assert np.all(lv < 0.0)
    # boundary nodes sit on the zero level set
    bl = g.domain.level(g.boundary_points[:, 0], g.boundary_points[:, 1])
    assert np.max(np.abs(bl)) < 1e-12
    # interior-first ordering
    assert g.n_nodes == g.n_interior + g.n_boundary
    assert xs.size > 1


@pytest.mark.parametrize("domain, resolution", [
    (DomainSpec.disk(1.0), 5), (DomainSpec.disk(1.0), 17),
    (DomainSpec.disk(0.37), 33), (DomainSpec.disk(1.0), 65),
    (DomainSpec.ellipse(1.5, 0.75), 48)])
def test_boundary_nodes_are_distinct_and_end_their_arms(domain, resolution):
    g = build_grid(domain, resolution)
    bpts = g.boundary_points
    a, _ = domain.semi_axes
    if resolution % 2:
        # the lattice row y = 0 crosses at the -pi/+pi seam, from three arms
        seam = np.linalg.norm(bpts - (-a, 0.0), axis=1)
        assert np.sum(seam <= 1e-12 * g.h) == 1

    gap = np.linalg.norm(bpts[:, None] - bpts[None], axis=-1)
    np.fill_diagonal(gap, np.inf)
    assert gap.min() > 1e-9 * g.h

    steps = np.array([(1, 0), (-1, 0), (0, 1), (0, -1),
                      (1, 1), (-1, -1), (1, -1), (-1, 1)]) * (g.hx, g.hy)
    u = steps / np.linalg.norm(steps, axis=1)[:, None]
    row, arm = np.nonzero(g.second_ops.cols[:, 1:] >= g.n_interior)
    node = g.second_ops.cols[row, 1 + arm] - g.n_interior
    ends = g.interior_points[row] + g.arm_dist[row, arm, None] * u[arm]
    assert np.max(np.linalg.norm(ends - bpts[node], axis=1)) <= 1e-12 * g.h
    assert np.array_equal(np.unique(node), np.arange(g.n_boundary))


def test_grid_1d_layout(interval64):
    g = interval64
    assert g.dim == 1
    assert g.n_boundary == 2
    assert np.all(g.points[: g.n_interior, 0] > 0.0)
    assert np.all(g.points[: g.n_interior, 0] < 1.0)
    assert sorted(g.boundary_points[:, 0]) == [0.0, 1.0]


def test_resolution_too_small():
    with pytest.raises(GridResolutionError):
        build_grid(DomainSpec.disk(1.0), 3)


# --------------------------------------------------------------- hessians

def test_hessian_exact_on_quadratics(disk32, rng):
    g = disk32
    pts = g.points
    for _ in range(12):
        a, b, c, d, e, f0 = rng.normal(size=6)
        u = ScalarField(g, a * pts[:, 0]**2 + b * pts[:, 0] * pts[:, 1]
                        + c * pts[:, 1]**2 + d * pts[:, 0] + e * pts[:, 1] + f0)
        H = hessian(u, g)
        assert np.max(np.abs(H.data[:, 0, 0] - 2 * a)) < 1e-9
        assert np.max(np.abs(H.data[:, 0, 1] - b)) < 1e-9
        assert np.max(np.abs(H.data[:, 1, 1] - 2 * c)) < 1e-9


def test_hessian_constant_annihilation(disk64):
    u = ScalarField.constant(disk64, 7.3)
    H = hessian(u, disk64)
    assert np.max(np.abs(H.data)) < 1e-10


def test_hessian_of_a_constant_is_exactly_zero_on_full_stencils(
        disk32, ellipse64, rng):
    # Where every arm is interior the arms are equal and so are their
    # weights, and c w0 + c w + c w cancels exactly.  On Shortley-Weller
    # rows the center weight -(cp + cm) and the three-term sum are rounded:
    # within 7 u = 3.5 eps of |c| times the largest weight per axis
    # (u = eps / 2), scaled by the column sums of |to_hessian|.
    disk48 = build_grid(DomainSpec.disk(1.0), 48)
    eps = np.finfo(float).eps
    for g in (disk32, disk48, ellipse64):
        ops, n = g.second_ops, g.n_interior
        full = np.all(ops.cols < n, axis=1)
        largest = np.abs(ops.weights).reshape(n, -1).max(axis=1)
        scale = np.abs(ops.to_hessian).sum(axis=0)
        for c in (1.0, *rng.uniform(-100.0, 100.0, 8)):
            H = hessian(ScalarField.constant(g, c), g).data.reshape(n, -1)
            assert not np.any(H[full])
            bound = 4.0 * eps * abs(c) * largest[:, None] * scale
            assert np.all(np.abs(H[~full]) <= bound[~full])
            assert np.any(H[~full])  # not exact there


def test_hessian_1d_second_derivative(interval64):
    g = interval64
    x = g.points[:, 0]
    u = ScalarField(g, x**3)
    H = hessian(u, g)
    ref = 6.0 * x[: g.n_interior]
    assert np.max(np.abs(H.data[:, 0, 0] - ref)) < 5e-3


def test_det_cofactor_and_convexity(disk32):
    g = disk32
    pts = g.points
    u = ScalarField(g, pts[:, 0]**2 + 0.5 * pts[:, 1]**2 + 0.25 * pts[:, 0] * pts[:, 1])
    H = hessian(u, g)
    d = det_field(H, g)
    # det [[2, .25], [.25, 1]] = 2 - 0.0625
    assert np.max(np.abs(d.values[: g.n_interior] - 1.9375)) < 1e-9
    U = cofactor(H, g)
    # cofactor of [[a,b],[b,c]] is [[c,-b],[-b,a]]
    assert np.max(np.abs(U.data[:, 0, 0] - 1.0)) < 1e-9
    assert np.max(np.abs(U.data[:, 0, 1] + 0.25)) < 1e-9
    assert np.max(np.abs(U.data[:, 1, 1] - 2.0)) < 1e-9
    assert np.all(is_positive_definite(H))

    saddle = ScalarField(g, pts[:, 0]**2 - pts[:, 1]**2)
    assert not np.any(is_positive_definite(hessian(saddle, g)))


def test_positive_definite_flags_are_the_trace_test(interval64, disk32, rng):
    # Where det > 0 the diagonal entries share one sign, so the first
    # stands for the trace: the flags equal det > 0 and trace > 0 on
    # symmetric data with zero, negative, NaN and det = 0 entries mixed in.
    values = np.array([0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, np.nan])
    for g in (interval64, disk32):
        k = g.dim
        data = rng.choice(values, size=(g.n_interior, k, k))
        data = np.triu(data) + np.triu(data, 1).transpose(0, 2, 1)
        if k == 2:
            singular = rng.random(g.n_interior) < 0.2  # [[a, b], [b, b^2/a]]
            data[singular, 0, 0] = rng.choice([-2.0, 2.0], singular.sum())
            data[singular, 0, 1] = data[singular, 1, 0] = 2.0
            data[singular, 1, 1] = 4.0 / data[singular, 0, 0]
        flags = is_positive_definite(MatrixField(g, data))
        trace = (mesh.sym_det(data) > 0.0) & (
            np.trace(data, axis1=1, axis2=2) > 0.0)
        assert np.array_equal(flags, trace)
        assert 0 < flags.sum() < g.n_interior


# ------------------------------------------------------------- quadrature

def test_interior_quadrature_disk_moments(disk128):
    g = disk128
    ones = np.ones(g.n_nodes)
    assert integrate_interior(ones, g) == pytest.approx(np.pi, abs=1e-12)
    r2 = g.points[:, 0]**2 + g.points[:, 1]**2
    assert integrate_interior(r2, g) == pytest.approx(np.pi / 2, abs=2e-3)


def test_interior_quadrature_ellipse_moments(ellipse64):
    # the cut cells of an ellipse are clipped in scaled coordinates
    g = ellipse64
    a, b = g.domain.semi_axes
    x, y = g.points[:, 0], g.points[:, 1]
    assert integrate_interior(np.ones_like(x), g) == pytest.approx(np.pi * a * b, abs=1e-12)
    assert abs(integrate_interior(x, g)) < 1e-12
    assert abs(integrate_interior(x * y, g)) < 1e-12
    assert integrate_interior(x**2, g) == pytest.approx(np.pi * a**3 * b / 4, abs=1e-3)
    assert integrate_interior(y**2, g) == pytest.approx(np.pi * a * b**3 / 4, abs=1e-3)


def test_interior_quadrature_is_positive(disk32, disk64, disk128):
    # Each cut cell's exact area goes, whole, to one node; on these grids no
    # node collects more than one cell's area.  In lattice coordinates an
    # ellipse grid is the disk grid of its resolution, so its weights are
    # the disk's times ab.
    disks = (build_grid(DomainSpec.disk(1.0), 16), disk32, disk64, disk128)
    for disk in disks:
        wd, cell = disk.quad_weights, disk.hx * disk.hy
        assert np.all(wd >= 0.0)
        assert wd.max() <= cell * (1.0 + 1e-12)
        assert abs(wd.sum() - np.pi) <= 1e-12 * np.pi
        for a, b in ((1.5, 0.75), (1.0, 0.4), (1.0, 0.25)):
            w = build_grid(DomainSpec.ellipse(a, b), disk.resolution).quad_weights
            assert abs(w.sum() - np.pi * a * b) <= 1e-12 * np.pi * a * b
            assert np.max(np.abs(w / (a * b) - wd)) < 1e-10 * cell


def test_thin_ellipses_solve_with_passing_diagnostics():
    for b in (0.4, 0.25):
        g = build_grid(DomainSpec.ellipse(1.0, b), 32)
        sol = solve_second_bvp(Problem(g, GSpec(0.0, 2), 5.0, 0.0, 1.0))
        failed = [name for name, e in sol.diagnostics.items()
                  if e.passed is False]
        assert failed == [], b


def test_interior_quadrature_interval():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    x = g.points[:, 0]
    assert integrate_interior(x, g) == pytest.approx(0.5, abs=1e-14)
    assert integrate_interior(np.ones_like(x), g) == pytest.approx(1.0, abs=1e-14)


def test_boundary_quadrature_perimeters(disk128):
    ones = np.ones(disk128.n_boundary)
    assert integrate_boundary(ones, disk128) == pytest.approx(2 * np.pi, abs=1e-3)

    a, b = 2.0, 1.0
    g = build_grid(DomainSpec.ellipse(a, b), 128)
    perim = 4 * a * ellipe(1.0 - (b / a) ** 2)
    assert integrate_boundary(np.ones(g.n_boundary), g) == pytest.approx(perim, abs=2e-3)


def test_boundary_quadrature_interval(interval64):
    vals = np.array([3.0, 5.0])
    # 0-dimensional boundary measure is counting measure
    assert integrate_boundary(vals, interval64) == pytest.approx(8.0)


# ------------------------------------------------------ normal derivative

def test_normal_derivative_radial(disk64):
    g = disk64
    pts = g.points
    u = ScalarField(g, 0.5 * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0))
    un = boundary_normal_derivative(u, g)
    assert np.max(np.abs(un - 1.0)) < 1e-9


def test_normal_derivative_exact_on_quadratics_ellipse(ellipse64):
    g = ellipse64
    x, y = g.points[:, 0], g.points[:, 1]
    u = ScalarField(g, 0.3 * x**2 - 0.2 * x * y + 0.7 * y**2 + 0.1 * x - 0.4 * y)
    bx, by = g.boundary_points[:, 0], g.boundary_points[:, 1]
    grad = np.column_stack([0.6 * bx - 0.2 * by + 0.1, -0.2 * bx + 1.4 * by - 0.4])
    exact = np.sum(grad * g.boundary_normals, axis=1)
    assert np.max(np.abs(boundary_normal_derivative(u, g) - exact)) < 1e-9


def test_normal_derivative_fits_are_lazy():
    # at resolution 4 the inward samples near the tips of this ellipse
    # fall outside it: the grid builds, the first derivative call refuses
    g = build_grid(DomainSpec.ellipse(1.0, 0.25), 4)
    with pytest.raises(GridResolutionError):
        boundary_normal_derivative(ScalarField.constant(g, 1.0), g)


def test_boundary_hessian_exact_on_quadratics(disk32, ellipse32, rng):
    for g in (disk32, ellipse32):
        x, y = g.points[:, 0], g.points[:, 1]
        a, b, c, d, e, f0 = rng.normal(size=6)
        u = ScalarField(g, a * x**2 + b * x * y + c * y**2 + d * x + e * y + f0)
        H = boundary_hessian(u, g)
        assert H.shape == (g.n_boundary, 2, 2)
        assert np.max(np.abs(H - [[2 * a, b], [b, 2 * c]])) < 1e-9


def test_normal_derivative_linear_interval(interval64):
    g = interval64
    u = ScalarField(g, g.points[:, 0])
    un = boundary_normal_derivative(u, g)
    by_x = dict(zip(g.boundary_points[:, 0], un))
    assert by_x[1.0] == pytest.approx(1.0, abs=1e-10)
    assert by_x[0.0] == pytest.approx(-1.0, abs=1e-10)

    u2 = ScalarField(g, g.points[:, 0]**2)
    un2 = boundary_normal_derivative(u2, g)
    by_x2 = dict(zip(g.boundary_points[:, 0], un2))
    assert by_x2[1.0] == pytest.approx(2.0, abs=1e-9)
    assert by_x2[0.0] == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------- nested-dissection order

def test_nd_order_is_a_permutation(disk32, disk64, disk128, ellipse32,
                                   ellipse64, ellipse128):
    grids = (build_grid(DomainSpec.disk(1.0), 16), disk32, disk64, disk128,
             build_grid(DomainSpec.ellipse(1.5, 0.75), 16), ellipse32,
             ellipse64, ellipse128)
    for g in grids:
        order = g.nd_order
        assert order.shape == (g.n_interior,)
        assert np.array_equal(np.sort(order), np.arange(g.n_interior))


def test_nd_order_is_lazy_cached_and_read_only():
    g = build_grid(DomainSpec.disk(1.0), 32)
    g.second_ops
    assert g._cache == {}  # the grid's set-up does not pay for it
    order = g.nd_order
    assert g.nd_order is order
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = order[1]


def test_cached_structure_is_built_once_per_grid_on_first_use(monkeypatch):
    built = []

    def build(grid):
        built.append(grid)
        return object()

    g, h = (build_grid(DomainSpec.disk(1.0), 16) for _ in range(2))
    g.second_ops
    assert g._cache == {}  # the grid's set-up builds no cached pattern
    first = g.cached(build)
    assert g.cached(build) is first and built == [g]
    assert h.cached(build) is not first and built == [g, h]

    # the grid's own structure goes through the same cache
    for name, builder in (("nd_order", "_nested_dissection"),
                          ("boundary_fits", "_boundary_fits"),
                          ("nearest_interior", "_nearest_interior")):
        built = []
        real = getattr(mesh, builder)

        def counted(grid, real=real, built=built):
            built.append(grid)
            return real(grid)

        monkeypatch.setattr(mesh, builder, counted)
        g, h = (build_grid(DomainSpec.disk(1.0), 16) for _ in range(2))
        assert built == [] and g._cache == {}
        first = getattr(g, name)
        assert getattr(g, name) is first and built == [g]
        assert getattr(h, name) is not first and built == [g, h]
        assert g._cache == {counted: first}


def test_nd_order_leaves_no_reference_cycle():
    # The order is built without a recursive closure, so with the cyclic
    # collector off a fresh grid and its order are freed by reference
    # counting alone.
    gc.collect()
    gc.disable()
    try:
        for domain in (DomainSpec.disk(1.0), DomainSpec.ellipse(1.5, 0.75)):
            g = build_grid(domain, 32)
            g.nd_order
            del g
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_nd_order_interval_is_the_lattice_order(interval64):
    # tridiagonal, with no fill: the identity, cached and read-only
    order = interval64.nd_order
    assert np.array_equal(order, np.arange(interval64.n_interior))
    assert np.all(np.diff(interval64.interior_points[:, 0]) > 0.0)
    assert interval64.nd_order is order and not order.flags.writeable


def box_bisection(ij, lo, hi, nodes):
    # The order nd_order stands for, by plain recursion: a box of more
    # than _ND_LEAF lattice points is cut at the middle line across its
    # longer extent (along i on a tie); both halves, then the cut.
    if np.prod(hi - lo + 1) <= mesh._ND_LEAF:
        return [nodes]
    axis = int(np.argmax(hi - lo))
    mid = (lo[axis] + hi[axis]) // 2
    line = ij[nodes, axis]
    below, above = hi.copy(), lo.copy()
    below[axis], above[axis] = mid - 1, mid + 1
    return (box_bisection(ij, lo, below, nodes[line < mid])
            + box_bisection(ij, above, hi, nodes[line > mid])
            + [nodes[line == mid]])


@pytest.mark.parametrize("grid_name", ["disk32", "disk33", "ellipse64"])
def test_nd_order_is_the_recursive_box_bisection(grid_name, request):
    g = request.getfixturevalue(grid_name)
    a, b = g.domain.semi_axes
    ij = np.rint((g.interior_points + (a, b)) / (g.hx, g.hy)).astype(int)
    parts = box_bisection(ij, ij.min(axis=0), ij.max(axis=0),
                          np.arange(g.n_interior))
    assert np.array_equal(g.nd_order, np.concatenate(parts))


def test_nd_order_top_split_separates_the_stencil(disk64, ellipse128):
    # The order begins with the two halves of the first cut, the nodes on
    # the cut line last; no stencil of one half reaches into the other.
    for g in (disk64, ellipse128):
        a, b = g.domain.semi_axes
        ij = np.rint((g.interior_points + (a, b)) / (g.hx, g.hy))
        axis = int(np.argmax(np.ptp(ij, axis=0)))
        line = ij[:, axis]
        mid = (line.min() + line.max()) // 2
        halves = [np.nonzero(line < mid)[0], np.nonzero(line > mid)[0]]
        assert min(h.size for h in halves) > g.n_interior // 3
        n0, n1 = (h.size for h in halves)
        order = g.nd_order
        assert np.array_equal(np.sort(order[:n0]), halves[0])
        assert np.array_equal(np.sort(order[n0:n0 + n1]), halves[1])
        assert np.all(line[order[n0 + n1:]] == mid)
        cols = g.second_ops.cols
        for this, other in (halves, halves[::-1]):
            reach = cols[this]
            assert not np.any(np.isin(reach[reach < g.n_interior], other))


# ---------------------------------------------------- divergence identity

def test_cofactor_divergence_vanishes_for_quadratics(disk64):
    g = disk64
    pts = g.points
    u = ScalarField(g, 1.3 * pts[:, 0]**2 + 0.4 * pts[:, 0] * pts[:, 1] + 0.8 * pts[:, 1]**2)
    U = cofactor(hessian(u, g), g)
    div, mask = cofactor_divergence(U, g)
    assert mask.sum() > 0
    assert np.max(np.abs(div[mask])) < 1e-9


def test_cofactor_divergence_second_order(disk32, disk64, disk128):
    sups = []
    for g in (disk32, disk64, disk128):
        pts = g.points
        u = ScalarField(g, np.exp(0.5 * (pts[:, 0]**2 + pts[:, 1]**2)))
        div, mask = cofactor_divergence(cofactor(hessian(u, g), g), g)
        sups.append(np.max(np.abs(div[mask])))
    assert sups[0] > sups[1] > sups[2]
    slope = np.log2(sups[0] / sups[2]) / 2.0
    assert slope > 1.7


def test_cofactor_divergence_mask_is_the_full_stencil_core(disk32,
                                                           ellipse64):
    # From lattice positions alone: a node is full when its eight lattice
    # neighbours are interior nodes, and the mask holds where the node and
    # its four axis neighbours are full.
    for g in (disk32, ellipse64):
        a, b = g.domain.semi_axes
        ij = np.rint((g.interior_points + (a, b)) / (g.hx, g.hy)).astype(int)
        inside = set(map(tuple, ij))

        def full(i, j):
            return all((i + di, j + dj) in inside
                       for di in (-1, 0, 1) for dj in (-1, 0, 1))

        expected = [full(i, j) and all(full(i + di, j + dj) for di, dj
                                       in ((1, 0), (-1, 0), (0, 1), (0, -1)))
                    for i, j in ij]
        U = cofactor(hessian(ScalarField.constant(g, 0.0), g), g)
        _, mask = cofactor_divergence(U, g)
        assert np.array_equal(mask, expected)
        assert 0 < mask.sum() < g.n_interior


def test_extend_to_boundary(disk32):
    g = disk32
    vals = extend_to_boundary(g, np.arange(g.n_interior, dtype=float))
    assert vals.shape == (g.n_nodes,)
    assert np.array_equal(vals[: g.n_interior], np.arange(g.n_interior, dtype=float))
    # boundary entries copy the nearest interior value
    assert np.all(np.isin(vals[g.n_interior:], vals[: g.n_interior]))


@pytest.mark.parametrize("grid_name", ["disk32", "ellipse64"])
def test_transfer_weights_are_row_0_of_the_full_fit(grid_name, rng,
                                                    request):
    # The transfer computes only the constant term's weights of each fit;
    # they must be those of the full R^{-1} Q^T, at interior points and at
    # points that reach the clustered boundary nodes alike.
    grid = request.getfixturevalue(grid_name)
    a, b = grid.domain.semi_axes
    r, angle = np.sqrt(rng.uniform(0.0, 1.0, 500)), rng.uniform(0.0, 7.0, 500)
    pts = np.column_stack([a * r * np.cos(angle), b * r * np.sin(angle)])
    values = rng.standard_normal((grid.n_nodes, 2))
    idx, coef = mesh._quadratic_fit(grid, pts / (grid.hx, grid.hy))
    full = np.einsum("mk,mk...->m...", coef[:, 0], values[idx])
    moved = mesh.quadratic_transfer(grid, pts, values)
    assert np.max(np.abs(moved - full)) <= 1e-12 * np.max(np.abs(full))
