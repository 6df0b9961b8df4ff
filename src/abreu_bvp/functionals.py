"""Variational quantities attached to the fourth-order problem.

F(u) = int G(det D^2 u) - int u f - (1/n) int_bdy K psi u_nu^n is the
functional whose Euler-Lagrange equation is the fourth-order problem;
L(u) collects the non-G terms.  Both are implemented for zero Dirichlet
data on u only.  The probes sample structural facts used by the theory:
concavity of t |-> int G(det D^2 u_t) along linear paths, and the growth
condition L(v) >= lambda int v_nu - C over families of convex test
functions (a probe can witness failure, never prove the condition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConvexityLossError
from .gfamily import GSpec, g_eval
from .lin_ma import assemble_operator
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
    Boundary rows of the returned field are zero.
    """
    grid = problem.grid
    H = hessian(u, grid)
    dets = sym_det(H.data)
    if np.any(dets <= 0.0):
        raise ValueError("field is not discretely convex")
    w_int = g_eval(problem.gspec, dets).w
    A, B = assemble_operator(grid, cofactor(H, grid))
    r = A @ w_int + B @ problem.psi - problem.f.interior
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


@dataclass(frozen=True)
class TestFunctionFamily:
    """Parametric convex test functions vanishing on the boundary.

    Three generators: the domain level function scaled, the same with a
    linear skew in x (kept mild so convexity survives), and a boundary-layer
    profile (-B)^{3/4} whose normal derivative concentrates at the boundary.
    Members violating discrete convexity on a given grid are dropped.
    """

    __test__ = False  # "Test" prefix is descriptive, not a pytest marker

    kinds: tuple = ("scaled_parabola", "skewed_parabola", "boundary_layer")
    scales: tuple = tuple(float(s) for s in np.geomspace(0.1, 1000.0, 13))
    skews: tuple = (-0.4, 0.4)

    def __post_init__(self):
        if len(self.scales) < 6 or np.any(np.diff(self.scales) <= 0):
            raise ValueError("scales must be increasing, at least 6 values")
        unknown = set(self.kinds) - {"scaled_parabola", "skewed_parabola",
                                     "boundary_layer"}
        if unknown:
            raise ValueError(f"unknown generator kinds {sorted(unknown)}")

    def shapes(self, grid: Grid):
        """Unit-scale members (label, ScalarField); scaling is linear."""
        base = level_bubble(grid)
        xs = grid.points[:, 0]
        if grid.dim == 1:
            a, b = grid.domain.bounds
            center, width = 0.5 * (a + b), b - a
        else:
            center, width = 0.0, 2.0 * grid.domain.semi_axes[0]
        out = []
        for kind in self.kinds:
            if kind == "scaled_parabola":
                out.append(("scaled_parabola", base))
            elif kind == "skewed_parabola":
                for kappa in self.skews:
                    vals = base * (1.0 + kappa * (xs - center) / width)
                    out.append((f"skewed_parabola[{kappa:+g}]", vals))
            else:
                vals = -np.maximum(-base, 0.0) ** 0.75
                out.append(("boundary_layer", vals))
        members = []
        for label, vals in out:
            field = ScalarField(grid, vals)
            if np.all(is_positive_definite(hessian(field, grid))):
                members.append((label, field))
        return members


@dataclass(frozen=True)
class PropernessResult:
    verdict: str
    lambda_hat: float
    c_hat: float
    witnesses: tuple  # (lambda, shape label) pairs

    @property
    def violation_found(self) -> bool:
        return self.verdict.startswith("not proper")


DEFAULT_LAMBDAS = tuple(float(2.0**k) for k in range(-10, 11))

# A tail shrinking by at least this factor per scale step (the sweep step is
# ~2.15x) separates genuinely unbounded decay from the slowing descent ahead
# of a parabola vertex.
_WITNESS_GROWTH = 1.8


def _tail_witness(g: np.ndarray) -> bool:
    tail = g[-4:]
    return (bool(np.all(np.diff(tail) < 0.0)) and tail[-1] < 0.0
            and tail[-2] < 0.0 and tail[-1] <= _WITNESS_GROWTH * tail[-2])


def properness_probe(problem: Problem, family: TestFunctionFamily = None,
                     lambdas=DEFAULT_LAMBDAS) -> PropernessResult:
    """Search for scaling sequences along which L(v) - lambda int v_nu
    is unbounded below.

    A witness at every tested lambda means the growth condition fails on
    this family ("not proper").  Otherwise the largest witness-free lambda
    is reported together with the offset C making L(v) >= lambda int v_nu - C
    hold on every sampled member.
    """
    _require_zero_phi(problem, "properness_probe")
    family = family or TestFunctionFamily()
    grid = problem.grid
    n = grid.dim
    shapes = family.shapes(grid)
    if not shapes:
        raise ValueError("test function family is empty on this grid")
    scales = np.asarray(family.scales)

    rows = []  # (label, L values over scales, int v_nu values over scales)
    for label, V in shapes:
        v_nu = boundary_normal_derivative(V, grid)
        p = integrate_interior(V.values * problem.f.values, grid)
        q = integrate_boundary(
            grid.boundary_curvature * problem.psi * v_nu**n, grid) / n
        r = integrate_boundary(v_nu, grid)
        rows.append((label, p * scales + q * scales**n, r * scales))

    witnesses = []
    lambda_hat = None
    for lam in sorted(lambdas):
        found = None
        for label, L_vals, I_vals in rows:
            if _tail_witness(L_vals - lam * I_vals):
                found = label
                break
        if found is None:
            lambda_hat = lam
        else:
            witnesses.append((lam, found))

    if lambda_hat is None:
        return PropernessResult("not proper (witness found)", math.nan,
                                math.nan, tuple(witnesses))
    deficits = [lambda_hat * I_vals - L_vals for _, L_vals, I_vals in rows]
    c_hat = max(0.0, float(np.max(deficits)))
    return PropernessResult("no violation found", lambda_hat, c_hat,
                            tuple(witnesses))
