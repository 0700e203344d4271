"""P1 finite-element Galerkin and convolution quadrature for the fractional Rayleigh-Stokes problem."""

from .mesh import Mesh, build_interval_mesh, build_square_mesh
from .fem import InitialDatum, FemSpace, assemble, l2_project, ritz_project, error_norms
from .cq import weights
from .stepper import SchemeConfig, run_scheme
from .oracle import build_modal_solution

__all__ = [
    "Mesh",
    "build_interval_mesh",
    "build_square_mesh",
    "InitialDatum",
    "FemSpace",
    "assemble",
    "l2_project",
    "ritz_project",
    "error_norms",
    "weights",
    "SchemeConfig",
    "run_scheme",
    "build_modal_solution",
]
