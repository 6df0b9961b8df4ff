"""Problem container for the second boundary value problem."""

from __future__ import annotations

import numpy as np

from .gfamily import GSpec
from .mesh import Grid, ScalarField


class Problem:
    """One instance of the coupled problem: (domain, G-family, f, phi, psi).

    f is the finite source field on the grid, phi the finite Dirichlet data
    for u, psi the strictly positive Dirichlet data for w.
    """

    __slots__ = ("grid", "gspec", "f", "phi", "psi")

    def __init__(self, grid: Grid, gspec: GSpec, f, phi, psi):
        if gspec.n != grid.dim:
            raise ValueError(f"gspec dimension {gspec.n} does not match "
                             f"grid dimension {grid.dim}")
        if callable(f):
            f = ScalarField.from_function(grid, f)
        elif not isinstance(f, ScalarField):
            f = ScalarField(grid, np.asarray(f, dtype=float)
                            * np.ones(grid.n_nodes))
        if f.grid is not grid:
            raise ValueError("f lives on a different grid")
        if not np.isfinite(f.values).all():
            raise ValueError("f must be finite")
        phi = np.asarray(phi, dtype=float) * np.ones(grid.n_boundary)
        psi = np.asarray(psi, dtype=float) * np.ones(grid.n_boundary)
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        if np.any(psi <= 0.0) or not np.all(np.isfinite(psi)):
            raise ValueError("psi must be strictly positive")
        self.grid = grid
        self.gspec = gspec
        self.f = f
        self.phi = phi
        self.psi = psi

    @property
    def phi_is_zero(self) -> bool:
        return bool(np.all(self.phi == 0.0))
