"""Variational quantities attached to the fourth-order problem.

F(u) = int G(det D^2 u) - int u f - (1/n) int_bdy K psi u_nu^n is the
functional whose Euler-Lagrange equation is the fourth-order problem;
L(u) collects the non-G terms.  Both are implemented for zero Dirichlet
data on u only.  Two probes test structural facts used by the theory:
concavity of t |-> int G(det D^2 u_t), sampled along linear paths, and the
growth condition L(v) >= lambda int v_nu - C, decided in closed form.  In
one dimension it is decided on the rays through a fixed family of convex
test functions, the tent included; a family can witness failure, never
prove the condition.  With psi = 1 on [0, 1] it finds a witness exactly
when f >= f*_h = 8/(1 - h^2), the discrete threshold.  In two dimensions
the boundary term (1/2) int K psi v_nu^2 > 0 wins on every ray, so the
probe returns "no violation found" for every f without evaluating a ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConvexityLossError
from .gfamily import GSpec, g_eval
from .lin_ma import apply_weights, assemble_operator, stencil_weights
from .mesh import (Grid, ScalarField, boundary_normal_derivative, cofactor,
                   extend_to_boundary, hessian, integrate_boundary,
                   integrate_interior, is_positive_definite, level_bubble,
                   sym_det)
from .problem import Problem


def _require_zero_phi(problem: Problem, op: str):
    if not problem.phi_is_zero:
        raise ValueError(f"{op} is implemented for zero Dirichlet data "
                         "(phi = 0) only")


def _convex_dets(u: ScalarField, grid: Grid) -> np.ndarray:
    H = hessian(u, grid)
    dets = sym_det(H.data)
    if not (np.all(is_positive_definite(H)) and np.all(np.isfinite(dets))):
        raise ConvexityLossError("field is not discretely convex")
    return dets


def eval_L(u: ScalarField, problem: Problem) -> float:
    """int u f + (1/n) int_bdy K psi u_nu^n."""
    _require_zero_phi(problem, "eval_L")
    grid = problem.grid
    n = grid.dim
    u_nu = boundary_normal_derivative(u, grid)
    bterm = integrate_boundary(
        grid.boundary_curvature * problem.psi * u_nu**n, grid) / n
    return integrate_interior(u.values * problem.f.values, grid) + bterm


def eval_F(u: ScalarField, problem: Problem) -> float:
    """int G(det D^2 u) - eval_L(u) (same quadratures, so the identity
    F = int G - L holds exactly as computed)."""
    _require_zero_phi(problem, "eval_F")
    grid = problem.grid
    dets = _convex_dets(u, grid)
    G = g_eval(problem.gspec, extend_to_boundary(grid, dets)).G
    return integrate_interior(G, grid) - eval_L(u, problem)


def el_residual(u: ScalarField, problem: Problem) -> ScalarField:
    """Pointwise U^{ij} (w(det D^2 u))_{ij} - f at interior nodes.

    The boundary trace of w(det D^2 u) is the prescribed psi: the equation
    constrains w on the boundary, while a trace extrapolated from one-sided
    determinants would inject O(1/h) noise into near-boundary rows.
    Boundary rows of the returned field are zero.  Raises ValueError when
    u is not discretely convex.  The interior values of w go through the
    assembled operator, the matrix the Newton solves factorize, and the
    boundary trace through `apply_weights`.
    """
    grid = problem.grid
    H = hessian(u, grid)
    if not np.all(is_positive_definite(H)):
        raise ValueError("field is not discretely convex")
    dets = sym_det(H.data)
    w_int = g_eval(problem.gspec, dets).w
    a = stencil_weights(grid, cofactor(H, grid))
    r = apply_weights(grid, a, np.concatenate(
        [np.zeros(grid.n_interior), problem.psi])) - problem.f.interior
    order = grid.nd_order
    r[order] += assemble_operator(grid, a) @ w_int[order]
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))


class GradientCheck(NamedTuple):
    fd_derivative: float
    pairing: float
    relative_gap: float


def gradient_check(u: ScalarField, eta: ScalarField, problem: Problem,
                   step: float = 1e-3) -> GradientCheck:
    """Compare a central difference of F against the residual pairing.

    (F(u + s eta) - F(u - s eta)) / 2s should match
    int (U^{ij} w_{ij} - f) eta to second order in s.  eta must vanish on
    and near the boundary so that the boundary terms of F are unaffected.
    """
    grid = problem.grid
    if eta.grid is not grid or u.grid is not grid:
        raise ValueError("u and eta must live on the problem grid")
    pts = grid.points
    near = grid.domain.inside_distance(pts[:, 0], pts[:, 1]) < 4.0 * grid.h
    if np.any(eta.values[near] != 0.0):
        raise ValueError("eta must vanish on and near the boundary "
                         "(within 4h)")
    s = float(step)
    if s <= 0.0:
        raise ValueError("step must be positive")

    up = ScalarField(grid, u.values + s * eta.values)
    um = ScalarField(grid, u.values - s * eta.values)
    for cand in (up, um):
        H = hessian(cand, grid)
        if not np.all(is_positive_definite(H)):
            raise ConvexityLossError(
                f"u + s*eta loses convexity at step {s:g}")
    f_plus = eval_F(up, problem)
    f_minus = eval_F(um, problem)
    fd = (f_plus - f_minus) / (2.0 * s)
    r = el_residual(u, problem)
    pairing = integrate_interior(r.values * eta.values, grid)
    denom = max(abs(f_plus), abs(f_minus), abs(pairing), 1e-30)
    return GradientCheck(fd, pairing, abs(fd - pairing) / denom)


class ConcavityProbe(NamedTuple):
    ts: np.ndarray
    values: np.ndarray
    second_differences: np.ndarray
    max_second_difference: float


def concavity_probe(u0: ScalarField, u1: ScalarField, gspec: GSpec,
                    samples: int = 11) -> ConcavityProbe:
    """Sample A(t) = int G(det D^2 u_t) along u_t = (1-t) u0 + t u1.

    Both endpoints must be convex with equal boundary traces; then every
    u_t is convex and A is concave, so all centered second differences of
    the samples should be nonpositive.
    """
    if u0.grid is not u1.grid:
        raise ValueError("u0 and u1 must share a grid")
    grid = u0.grid
    if samples < 3:
        raise ValueError("need at least 3 samples")
    scale = max(float(np.max(np.abs(u0.values))),
                float(np.max(np.abs(u1.values))), 1.0)
    if float(np.max(np.abs(u0.boundary - u1.boundary))) > 1e-10 * scale:
        raise ValueError("u0 and u1 must have equal boundary values")
    H0 = hessian(u0, grid)
    H1 = hessian(u1, grid)
    for H in (H0, H1):
        if not np.all(is_positive_definite(H)):
            raise ValueError("endpoints must be discretely convex")

    ts = np.linspace(0.0, 1.0, samples)
    values = np.empty(samples)
    for i, t in enumerate(ts):
        data = (1.0 - t) * H0.data + t * H1.data
        dets = sym_det(data)
        # linear combination of positive definite matrices stays definite
        assert np.all(dets > 0.0)
        G = g_eval(gspec, extend_to_boundary(grid, dets)).G
        values[i] = integrate_interior(G, grid)
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    return ConcavityProbe(ts, values, d2, float(np.max(d2)))


# --- properness ------------------------------------------------------------


# The skewed parabolas tilt by these fractions of the width (mild, so
# convexity holds).
_SKEWS = (-0.4, 0.4)


def _test_shapes(grid: Grid):
    """Unit-scale (label, ScalarField) test functions on an interval grid,
    vanishing at both ends: the level function B, B skewed linearly in x,
    -(-B)^{3/4}, whose derivative concentrates at the ends, and the tent
    |x - c| - width/2, the extremal of the n = 1 threshold.  Each is
    convex, so its second differences on the uniform lattice are
    nonnegative."""
    base = level_bubble(grid)
    xs = grid.points[:, 0]
    a, b = grid.domain.bounds
    center, width = 0.5 * (a + b), b - a
    out = [("scaled_parabola", base)]
    for kappa in _SKEWS:
        out.append((f"skewed_parabola[{kappa:+g}]",
                    base * (1.0 + kappa * (xs - center) / width)))
    out.append(("boundary_layer", -np.maximum(-base, 0.0) ** 0.75))
    out.append(("tent", np.abs(xs - center) - 0.5 * width))
    return [(label, ScalarField(grid, vals)) for label, vals in out]


@dataclass(frozen=True)
class PropernessResult:
    verdict: str
    lambda_hat: float
    c_hat: float
    witnesses: tuple  # (lambda bound, shape label) pairs

    @property
    def violation_found(self) -> bool:
        return self.verdict.startswith("not proper")


def properness_probe(problem: Problem) -> PropernessResult:
    """Decide L(v) >= lambda int v_nu - C on the rays s V, s >= 0, through
    test functions V.

    On a ray, L(sV) - lambda s int V_nu = (p - lambda r) s + q s^n with
    p = int V f, q = (1/n) int_bdy K psi V_nu^n and r = int_bdy V_nu > 0.
    In two dimensions psi > 0 gives q > 0 on every ray, so the condition
    holds for every lambda: the result is "no violation found" with
    lambda_hat = c_hat = inf and no witnesses, whatever f.  In one
    dimension each shape V of `_test_shapes` bounds lambda by (p + q)/r,
    and lambda_hat is the least bound; with psi = 1 on [0, 1] the tent's
    p + q vanishes at f*_h = 8/(1 - h^2), the exact 1-d path's threshold.

    lambda_hat <= 0 is "not proper", with lambda_hat and c_hat NaN.
    Otherwise c_hat = 0: each ray is linear in s and >= 0 at lambda_hat.
    witnesses lists (bound, label) for every shape, each of which breaks
    the condition for every lambda above its bound.
    """
    _require_zero_phi(problem, "properness_probe")
    grid = problem.grid
    if grid.dim == 2:
        return PropernessResult("no violation found", math.inf, math.inf, ())
    witnesses = []
    for label, V in _test_shapes(grid):
        v_nu = boundary_normal_derivative(V, grid)
        p = integrate_interior(V.values * problem.f.values, grid)
        q = integrate_boundary(
            grid.boundary_curvature * problem.psi * v_nu, grid)
        r = integrate_boundary(v_nu, grid)
        witnesses.append(((p + q) / r, label))
    witnesses = tuple(witnesses)
    lambda_hat = min(bound for bound, _ in witnesses)
    if lambda_hat <= 0.0:
        return PropernessResult("not proper (witness found)", math.nan,
                                math.nan, witnesses)
    return PropernessResult("no violation found", lambda_hat, 0.0, witnesses)
