"""Uniform meshes of the unit interval and of the unit square.

A mesh is its grid: the dimension and the number K of cells per side.  The
interval is cut into K equal cells; the square into K x K cells, each split
along its lower-left to upper-right diagonal.  `rstokes.fem` writes the P1
matrices and loads of both grids in closed form, so no element list is kept.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "build_interval_mesh", "build_square_mesh"]


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of (0,1) (dim 1) or (0,1)^2 (dim 2) with K cells per side.

    nodes are the K+1 grid coordinates of one side, 0, h, ..., 1 with
    h = 1/K the cell side; the square's nodes are their pairs.  The end
    nodes carry the Dirichlet condition, so nodes[1:-1] are the interior
    nodes of the interval.
    """

    dim: int
    K: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"mesh dimension must be 1 or 2, got dim={self.dim!r}")
        if not (isinstance(self.K, numbers.Integral) and self.K >= 2):
            raise ValueError(f"need an integer K >= 2 cells per side, got K={self.K!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.K

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.K + 1)


def build_interval_mesh(K: int) -> Mesh:
    """Divide (0,1) into K equal subintervals (K+1 nodes, h = 1/K)."""
    return Mesh(dim=1, K=K)


def build_square_mesh(K: int) -> Mesh:
    """Divide (0,1)^2 into K x K cells, each cut along its main diagonal (h = 1/K)."""
    return Mesh(dim=2, K=K)
