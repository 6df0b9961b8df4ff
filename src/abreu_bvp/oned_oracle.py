"""Independent 1-d solver by double quadrature.

In one dimension the cofactor is 1 and the fourth-order problem decouples:
w'' = f with w = psi at the endpoints, then u'' = Theta(w) with u = phi.
Both integrations use the composite trapezoid rule, so the accuracy is
O(h^2) with no iteration, giving an oracle independent of the continuation
machinery.  A nonpositive minimum of w is a certificate of nonexistence
(w = G'(d) must be strictly positive for finite d), returned as a value
rather than raised.  For f = c * shape, w is affine in c, so the
existence threshold in c has a closed form on the quadrature nodes
(`existence_threshold_1d`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuation import Solution
from .estimates import standard_diagnostics
from .gfamily import GSpec, invert_w
from .mesh import DomainSpec, ScalarField, build_grid


@dataclass(frozen=True)
class OneDProblem:
    interval: tuple
    theta: float
    f: object  # callable of x, scalar, or an array on the uniform grid
    phi: tuple = (0.0, 0.0)
    psi: tuple = (1.0, 1.0)

    def __post_init__(self):
        a, b = (float(v) for v in self.interval)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("interval must satisfy a < b")
        object.__setattr__(self, "interval", (a, b))
        phi = tuple(float(v) for v in self.phi)
        if len(phi) != 2 or not all(map(math.isfinite, phi)):
            raise ValueError("phi must be two finite endpoint values")
        object.__setattr__(self, "phi", phi)
        psi = tuple(float(v) for v in self.psi)
        if len(psi) != 2 or not all(0.0 < v < math.inf for v in psi):
            raise ValueError("psi must be two positive finite endpoint values")
        object.__setattr__(self, "psi", psi)
        GSpec(self.theta, 1)  # validates theta in [0, 1)

    @property
    def gspec(self) -> GSpec:
        return GSpec(self.theta, 1)


@dataclass(frozen=True)
class NonexistenceCertificate:
    min_w: float
    argmin: float
    resolution: int
    message: str


def _source_values(f, xs):
    if callable(f):
        vals = np.asarray(f(xs), dtype=float) * np.ones_like(xs)
    elif np.ndim(f) == 0:
        vals = np.full_like(xs, float(f))
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != xs.shape:
            raise ValueError(f"f grid has {vals.size} values, expected "
                             f"{xs.size}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite")
    return vals


def _cumtrapz(vals, h):
    out = np.empty_like(vals)
    out[0] = 0.0
    np.cumsum((vals[1:] + vals[:-1]) * (h / 2.0), out=out[1:])
    return out


def _bvp_by_quadrature(vals, xs, left, right):
    """Double trapezoid integration of y'' = vals with y endpoint data."""
    y = _cumtrapz(_cumtrapz(vals, xs[1] - xs[0]), xs[1] - xs[0])
    span = xs[-1] - xs[0]
    slope = (right - left - y[-1]) / span
    return left + slope * (xs - xs[0]) + y


def solve_exact_1d(p: OneDProblem, resolution: int = 1001):
    """Solution fields on a uniform grid, or a NonexistenceCertificate."""
    resolution = int(resolution)
    if resolution < 4:
        raise ValueError("resolution must be at least 4")
    a, b = p.interval
    xs = np.linspace(a, b, resolution)
    h = xs[1] - xs[0]
    fv = _source_values(p.f, xs)

    w = _bvp_by_quadrature(fv, xs, p.psi[0], p.psi[1])
    i_min = int(np.argmin(w))
    if w[i_min] <= 0.0:
        return NonexistenceCertificate(
            min_w=float(w[i_min]), argmin=float(xs[i_min]),
            resolution=resolution,
            message=f"w reaches {w[i_min]:.6g} at x = {xs[i_min]:.6g}; "
                    "no strictly convex solution exists")

    d = invert_w(p.gspec, w)
    u = _bvp_by_quadrature(d, xs, p.phi[0], p.phi[1])

    grid = build_grid(DomainSpec.interval(a, b), resolution)

    def to_nodes(sorted_vals):
        return np.concatenate([sorted_vals[1:-1],
                               [sorted_vals[0], sorted_vals[-1]]])

    u_f = ScalarField(grid, to_nodes(u))
    w_f = ScalarField(grid, to_nodes(w))
    d_f = ScalarField(grid, to_nodes(d))
    f_f = ScalarField(grid, to_nodes(fv))

    res = np.abs((w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2 - fv[1:-1])
    el_norm = float(np.max(res))
    diags = standard_diagnostics(u_f, w_f, d_f, f_f, grid, p.gspec,
                                 np.array(p.phi))
    return Solution(u=u_f, w=w_f, d=d_f, el_residual_norm=el_norm,
                    iterations=[], diagnostics=diags)


def existence_threshold_1d(shape, template: OneDProblem, c_range,
                           resolution: int = 2001) -> float:
    """The amplitude c in c_range at which min w for f = c * shape reaches 0.

    The w-equation is linear in c: w = w_hom + c p, with w_hom > 0 the
    response to psi and p the response to the shape, zero at the
    endpoints.  An interior node with p != 0 reaches 0 at c = -w_hom/p, so
    min w > 0 holds exactly on (max_{p>0} -w_hom/p, min_{p<0} -w_hom/p).
    Returns the one end of that interval that c_range holds; raises
    ValueError if it holds neither or both.
    """
    a, b = template.interval
    xs = np.linspace(a, b, int(resolution))
    w_hom = _bvp_by_quadrature(np.zeros_like(xs), xs, template.psi[0],
                               template.psi[1])[1:-1]
    p = _bvp_by_quadrature(_source_values(shape, xs), xs, 0.0, 0.0)[1:-1]
    up, down = p > 0.0, p < 0.0
    ends = (np.max(-w_hom[up] / p[up], initial=-math.inf),
            np.min(-w_hom[down] / p[down], initial=math.inf))
    lo, hi = sorted(float(v) for v in c_range)
    held = [float(end) for end in ends if lo <= end <= hi]
    if len(held) != 1:
        raise ValueError("c_range does not bracket a sign change of min w")
    return held[0]
