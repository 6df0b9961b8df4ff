"""Line-oriented config files: sections of `key = value` pairs.

Sections: [domain], [g], [problem], [solver], [output].  Values are numbers,
bare words, expression strings over x and y (optionally quoted), or `@path`
for the source f to load a node table.  All module invariants are validated
at parse time, with the offending line number in the error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DomainError, ExpressionError
from .expressions import Expression, parse_expression
from .continuation import ContinuationOptions
from .fileio import read_node_table
from .gfamily import GSpec
from .ma_dirichlet import MAOptions
from .mesh import DomainSpec, Grid, ScalarField, build_grid
from .problem import Problem

_KEYS = {
    "domain": ("kind", "a", "b", "radius", "semi_a", "semi_b"),
    "g": ("theta",),
    "problem": ("f", "phi", "psi", "g"),
    "solver": ("resolution", "t_steps", "w_floor", "max_step_halvings",
               "newton_tol", "max_newton_iters"),
    "output": ("directory",),
}

_DOMAIN_PARAMS = {
    "interval": ("a", "b"),
    "disk": ("radius",),
    "ellipse": ("semi_a", "semi_b"),
}

_MISSING = object()


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    gspec: GSpec
    f_spec: object  # Expression, or "@path" string
    phi: Expression
    psi: Expression
    g_expr: object  # Expression or None
    resolution: int
    continuation: ContinuationOptions
    output_dir: object  # str or None
    base_dir: str

    def make_grid(self, resolution: int = None) -> Grid:
        return build_grid(self.domain, resolution or self.resolution)

    def f_field(self, grid: Grid) -> ScalarField:
        if isinstance(self.f_spec, str):
            path = os.path.join(self.base_dir, self.f_spec[1:])
            try:
                xy, values = read_node_table(path)
            except OSError as exc:
                raise ConfigError(f"cannot read f table: {exc}") from exc
            if xy.shape[0] != grid.n_nodes:
                raise ConfigError(
                    f"f table {path!r} has {xy.shape[0]} rows, grid has "
                    f"{grid.n_nodes} nodes")
            if float(np.max(np.abs(xy - grid.points))) > 1e-8 * (
                    grid.domain.diameter):
                raise ConfigError(
                    f"f table {path!r} node coordinates do not match the grid")
            return ScalarField(grid, values)
        return grid.field(self.f_spec)

    def make_problem(self, grid: Grid) -> Problem:
        return Problem(grid, self.gspec, self.f_field(grid),
                       grid.boundary_values(self.phi),
                       grid.boundary_values(self.psi))


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def _scan(text: str) -> dict:
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ConfigError("key outside of any section", lineno)
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError("expected `key = value`", lineno)
        key = key.strip()
        # trailing comments: a marker preceded by whitespace opens one
        for marker in (" #", "\t#", " ;", "\t;"):
            cut = value.find(marker)
            if cut != -1:
                value = value[:cut]
        value = _strip_quotes(value.strip())
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


class _Reader:
    def __init__(self, entries):
        self.entries = entries

    def get(self, section, key, conv=str, default=_MISSING):
        if (section, key) not in self.entries:
            if default is _MISSING:
                raise ConfigError(f"missing required key {key!r} in "
                                  f"[{section}]")
            return default
        value, lineno = self.entries[(section, key)]
        try:
            return conv(value)
        except ConfigError:
            raise
        except (ValueError, ExpressionError) as exc:
            raise ConfigError(f"{key}: {exc}", lineno) from exc

    def line_of(self, section, key, fallback=None):
        if (section, key) in self.entries:
            return self.entries[(section, key)][1]
        return fallback

    def has(self, section, key):
        return (section, key) in self.entries


def _to_int(value: str) -> int:
    return int(value, 10)


def _build_domain(reader: _Reader) -> DomainSpec:
    kind = reader.get("domain", "kind")
    line = reader.line_of("domain", "kind")
    if kind not in _DOMAIN_PARAMS:
        raise ConfigError(f"unknown domain kind {kind!r}", line)
    allowed = set(_DOMAIN_PARAMS[kind])
    for param in ("a", "b", "radius", "semi_a", "semi_b"):
        if param not in allowed and reader.has("domain", param):
            raise ConfigError(f"key {param!r} is not valid for kind={kind}",
                              reader.line_of("domain", param))
    params = [reader.get("domain", p, float) for p in _DOMAIN_PARAMS[kind]]
    try:
        return DomainSpec(kind, tuple(params))
    except DomainError as exc:
        raise ConfigError(str(exc), line) from exc


def _sample_points(domain: DomainSpec, count: int = 33):
    if domain.dim == 1:
        a, b = domain.bounds
        xs = np.linspace(a, b, count)
        return xs, np.zeros_like(xs)
    a, b = domain.semi_axes
    xs = np.linspace(-a, a, count)
    ys = np.linspace(-b, b, count)
    X, Y = np.meshgrid(xs, ys)
    keep = domain.level(X, Y) < 0.0
    return X[keep], Y[keep]


def _boundary_sample(domain: DomainSpec, count: int = 256):
    if domain.dim == 1:
        pts = np.array([[domain.bounds[0], 0.0], [domain.bounds[1], 0.0]])
    else:
        pts = domain.boundary_point(np.linspace(-np.pi, np.pi, count))
    return pts[:, 0], pts[:, 1]


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    reader = _Reader(_scan(text))
    domain = _build_domain(reader)

    theta = reader.get("g", "theta", float)
    try:
        gspec = GSpec(theta, domain.dim)
    except ValueError as exc:
        raise ConfigError(str(exc), reader.line_of("g", "theta")) from exc

    f_raw = reader.get("problem", "f")
    if f_raw.startswith("@"):
        f_spec = f_raw
    else:
        f_spec = reader.get("problem", "f", parse_expression)
    phi = reader.get("problem", "phi", parse_expression)
    psi = reader.get("problem", "psi", parse_expression)
    g_expr = reader.get("problem", "g", parse_expression, default=None)

    bx, by = _boundary_sample(domain)
    psi_vals = np.asarray(psi(bx, by), dtype=float) * np.ones_like(bx)
    if not np.all(np.isfinite(psi_vals)) or np.any(psi_vals <= 0.0):
        raise ConfigError("psi is not positive at sampled boundary points",
                          reader.line_of("problem", "psi"))
    phi_vals = np.asarray(phi(bx, by), dtype=float) * np.ones_like(bx)
    if not np.all(np.isfinite(phi_vals)):
        raise ConfigError("phi is not finite at sampled boundary points",
                          reader.line_of("problem", "phi"))
    if isinstance(f_spec, Expression):
        sx, sy = _sample_points(domain)
        f_vals = np.asarray(f_spec(sx, sy), dtype=float) * np.ones_like(sx)
        if not np.all(np.isfinite(f_vals)):
            raise ConfigError("f is not finite at sampled interior points",
                              reader.line_of("problem", "f"))

    resolution = reader.get("solver", "resolution", _to_int)
    if resolution < 4:
        raise ConfigError("resolution must be at least 4",
                          reader.line_of("solver", "resolution"))

    try:
        ma = MAOptions(
            newton_tol=reader.get("solver", "newton_tol", float,
                                  MAOptions.newton_tol),
            max_newton_iters=reader.get("solver", "max_newton_iters", _to_int,
                                        MAOptions.max_newton_iters),
        )
        cont = ContinuationOptions(
            t_steps=reader.get("solver", "t_steps", _to_int,
                               ContinuationOptions.t_steps),
            w_floor=reader.get("solver", "w_floor", float,
                               ContinuationOptions.w_floor),
            max_step_halvings=reader.get("solver", "max_step_halvings",
                                         _to_int,
                                         ContinuationOptions.max_step_halvings),
            ma=ma,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid solver option: {exc}") from exc

    output_dir = reader.get("output", "directory", str, None)
    return RunConfig(domain=domain, gspec=gspec, f_spec=f_spec, phi=phi,
                     psi=psi, g_expr=g_expr, resolution=resolution,
                     continuation=cont, output_dir=output_dir,
                     base_dir=base_dir)
