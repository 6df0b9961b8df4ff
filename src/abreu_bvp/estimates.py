"""Diagnostic checks of identities and inequalities satisfied by solutions.

Each check measures a quantity on computed fields and compares it against an
analytic bound where one exists; checks whose expectation is a convergence
order rather than a pointwise bound report their measurement with an
infinite tolerance and no pass flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gfamily import GSpec
from .mesh import (Grid, ScalarField, boundary_hessian,
                   boundary_normal_derivative)


@dataclass(frozen=True)
class ReportEntry:
    name: str
    measured: float
    bound: float
    tolerance: float
    passed: object  # True/False, or None for informational entries
    details: str = ""


def boundary_cofactor_check(u: ScalarField, grid: Grid = None) -> ReportEntry:
    """Residual of U^{nn} = K u_nu^{n-1} at boundary nodes (n = 2 only).

    U^{nn} is the normal-normal cofactor entry, equal to the
    tangential-tangential entry of the Hessian, here taken from local
    quadratic fits at each boundary node.  Valid for fields with zero
    tangential boundary data; the residual scale is expected to shrink at
    first order under refinement.
    """
    grid = grid or u.grid
    if grid.dim != 2:
        raise ValueError("boundary cofactor check requires n = 2 "
                         "(the 1-d cofactor is identically 1)")
    u_nu = boundary_normal_derivative(u, grid)
    nu = grid.boundary_normals
    tau = np.column_stack([-nu[:, 1], nu[:, 0]])
    H = boundary_hessian(u, grid)
    unn = (tau[:, None] @ H @ tau[..., None])[:, 0, 0]  # nu^T cof(H) nu
    e = unn - grid.boundary_curvature * u_nu
    return ReportEntry(
        name="boundary_cofactor",
        measured=float(np.max(np.abs(e))) / 2.0,  # n=2: 1 + u_nu^{n-2} = 2
        bound=math.inf,
        tolerance=math.inf,
        passed=None,
        details="sup |U^nn - K u_nu| / 2 over boundary nodes; "
                "expected O(h) under refinement",
    )


def max_principle_check(w: ScalarField, f: ScalarField) -> ReportEntry:
    """Boundary attainment of the extremum of w, by the sign of f.

    f >= 0: the maximum of w must be attained on the boundary; f <= 0: the
    minimum.  Mixed-sign f yields an informational entry with both gaps.
    """
    scale = float(np.max(np.abs(w.values)))
    tol = 1e-8 * max(scale, 1e-300)
    gap_max = float(np.max(w.values) - np.max(w.boundary))
    gap_min = float(np.min(w.boundary) - np.min(w.values))
    fmin = float(np.min(f.interior))
    fmax = float(np.max(f.interior))
    if fmin >= 0.0:
        return ReportEntry("max_principle", gap_max, 0.0, tol,
                           gap_max <= tol,
                           "f >= 0: interior excess of max w over boundary max")
    if fmax <= 0.0:
        return ReportEntry("max_principle", gap_min, 0.0, tol,
                           gap_min <= tol,
                           "f <= 0: interior undershoot of min w below "
                           "boundary min")
    return ReportEntry(
        "max_principle", max(gap_max, gap_min), math.inf, math.inf, None,
        f"mixed-sign f: max-side gap {gap_max:.3e}, min-side gap "
        f"{gap_min:.3e}")


def wd_bound_check(w: ScalarField, d: ScalarField,
                   gspec: GSpec) -> ReportEntry:
    """w * d^{1-1/n} <= 1 wherever d >= 1 (exact for the power family)."""
    mask = d.interior >= 1.0
    if not np.any(mask):
        return ReportEntry("wd_bound", -math.inf, 1.0, 1e-8, True,
                           "vacuous: no interior node with d >= 1")
    vals = w.interior[mask] * d.interior[mask] ** (1.0 - 1.0 / gspec.n)
    measured = float(np.max(vals))
    return ReportEntry("wd_bound", measured, 1.0, 1e-8,
                       measured <= 1.0 + 1e-8,
                       f"checked at {int(mask.sum())} nodes with d >= 1")


def gradient_lower_bound_check(u: ScalarField, grid: Grid = None,
                               phi=0.0) -> ReportEntry:
    """Convexity bound u_nu >= (phi - inf u)/diam - |D phi| at the boundary.

    |D phi| is approximated by the tangential derivative of the boundary
    data (exact when phi is constant, in particular for phi = 0).
    """
    grid = grid or u.grid
    phi = np.asarray(phi, dtype=float) * np.ones(grid.n_boundary)
    u_nu = boundary_normal_derivative(u, grid)
    inf_u = float(np.min(u.values))
    diam = grid.domain.diameter
    if grid.dim == 1 or grid.n_boundary < 3:
        dphi = np.zeros(grid.n_boundary)
    else:
        # central difference along the closed boundary polygon
        pts = grid.boundary_points
        gap = np.linalg.norm(pts - np.roll(pts, 1, axis=0), axis=1)
        ds = gap + np.roll(gap, -1)
        dphi = (np.roll(phi, -1) - np.roll(phi, 1)) / ds
    slack = u_nu - ((phi - inf_u) / diam - np.abs(dphi))
    measured = float(np.min(slack))
    return ReportEntry("gradient_lower_bound", measured, 0.0, 1e-8,
                       measured >= -1e-8,
                       "min over boundary nodes of u_nu - "
                       "((phi - inf u)/diam - |D phi|)")


def standard_diagnostics(u: ScalarField, w: ScalarField, d: ScalarField,
                         f: ScalarField, grid: Grid, gspec: GSpec,
                         phi) -> dict:
    """The report attached to solver output: its entries by name."""
    entries = [max_principle_check(w, f), wd_bound_check(w, d, gspec),
               gradient_lower_bound_check(u, grid, phi)]
    phi_arr = np.asarray(phi, dtype=float) * np.ones(grid.n_boundary)
    if grid.dim == 2 and np.all(phi_arr == 0.0):
        entries.append(boundary_cofactor_check(u, grid))
    return {e.name: e for e in entries}
