"""Exact solutions of the 2-d problem, for convergence tests.

Each `ExactCase` holds a domain, a member of the G-family and the exact
u, w and f as functions of (x, y).  The boundary data are those of the
exact solution, phi = u and psi = w, so the discrete solution's error at
every node is the discretization error alone.

`rotated_quartic`: in coordinates X rotated by alpha,
u = |X|^2 / 2 + eps (X1^4 + X2^4) / 12.  D^2 u has eigenvalues
P = 1 + eps X1^2 and Q = 1 + eps X2^2, its cofactor is diag(Q, P), and
w = G'(det D^2 u) = (PQ)^m with m = theta - 1, so

    f = U^{ij} w_{ij} = Q (P^m)'' Q^m + P P^m (Q^m)'',
    (P^m)'' = 2 m eps P^(m-1) + 4 m (m - 1) eps^2 X1^2 P^(m-2).

Both boundary data vary along the boundary, and alpha != 0 brings in the
mixed derivatives.

`affine_sphere`: theta = 1/4 = 1/(n + 2) is the member for which the
problem prescribes the affine mean curvature of the graph of u.  On a
disk of radius R < 1, u = -sqrt(1 - r^2) has w = (1 - r^2)^(3/2) and
U^{ij} w_{ij} = -6 exactly: the source and both boundary data are
constant.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from abreu_bvp import DomainSpec, GSpec, Problem, build_grid


class ExactCase(NamedTuple):
    domain: DomainSpec
    gspec: GSpec
    u: Callable
    w: Callable
    f: Callable


def rotated_quartic(domain, alpha, eps, theta) -> ExactCase:
    m = theta - 1.0
    c, s = np.cos(alpha), np.sin(alpha)

    def rotated(x, y):
        return c * x + s * y, -s * x + c * y

    def u(x, y):
        X1, X2 = rotated(x, y)
        return 0.5 * (X1**2 + X2**2) + eps * (X1**4 + X2**4) / 12.0

    def w(x, y):
        X1, X2 = rotated(x, y)
        return ((1.0 + eps * X1**2) * (1.0 + eps * X2**2)) ** m

    def power_dd(X):
        # (E^m)'' in X, for E = 1 + eps X^2
        E = 1.0 + eps * X**2
        return (2.0 * m * eps * E ** (m - 1.0)
                + 4.0 * m * (m - 1.0) * eps**2 * X**2 * E ** (m - 2.0))

    def f(x, y):
        X1, X2 = rotated(x, y)
        P, Q = 1.0 + eps * X1**2, 1.0 + eps * X2**2
        return Q * power_dd(X1) * Q**m + P * P**m * power_dd(X2)

    return ExactCase(domain, GSpec(theta, 2), u, w, f)


def affine_sphere(radius) -> ExactCase:
    def u(x, y):
        return -np.sqrt(1.0 - x**2 - y**2)

    def w(x, y):
        return (1.0 - x**2 - y**2) ** 1.5

    def f(x, y):
        return np.full(np.shape(x), -6.0)

    return ExactCase(DomainSpec.disk(radius), GSpec(0.25, 2), u, w, f)


def exact_problem(case: ExactCase, resolution: int) -> Problem:
    """The case's problem on its domain at `resolution`, with its exact
    boundary data."""
    grid = build_grid(case.domain, resolution)
    return Problem(grid, case.gspec, case.f, grid.boundary_values(case.u),
                   grid.boundary_values(case.w))


def sup_errors(case: ExactCase, solution) -> tuple:
    """(max|u_h - u|, max|w_h - w|) over the nodes of the solution's grid."""
    grid = solution.u.grid
    return tuple(float(np.max(np.abs(field.values - grid.field(exact).values)))
                 for field, exact in ((solution.u, case.u),
                                      (solution.w, case.w)))
