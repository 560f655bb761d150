"""Boundary layers, wall laws and large-scale regularity for rough-wall Stokes flow."""

__version__ = "0.1.0"

import importlib.util
import sys

import numpy


def _defer_numpy_submodules() -> None:
    """Register numpy submodules that stokesbl never uses as lazy modules.

    scipy.sparse imports scipy's array-API shim,
    scipy._lib.array_api_compat.numpy, whose clone_module("numpy") reads
    every public numpy attribute and so imports numpy.f2py, numpy.testing
    (with unittest) and numpy.ma.  A lazy module executes on its first
    attribute access instead.  A submodule already imported stays as it is.
    """
    for name in ("f2py", "testing", "ma"):
        full = f"numpy.{name}"
        if full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        if spec is None:  # a numpy built without it
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        # as an import would; numpy's __getattr__ would otherwise import the
        # lazy module again, and recurse
        setattr(numpy, name, module)
        spec.loader.exec_module(module)


_defer_numpy_submodules()

from .polynomials import ExactPolynomial, VectorPolynomial
from .halfspace import StokesPair, SpaceBasis, stokes_basis, verify_stokes_pair
from .geometry import BoundaryGeometry
from .cell import CellSolution, StripGrid, solve_cell
from .recursion import CorrectorStack, assemble_alpha, heterogeneous_basis, script_S
from .walllaw import WallLawTable, phi_table, second_order_2d

__all__ = [
    "ExactPolynomial",
    "VectorPolynomial",
    "StokesPair",
    "SpaceBasis",
    "stokes_basis",
    "verify_stokes_pair",
    "BoundaryGeometry",
    "CellSolution",
    "StripGrid",
    "solve_cell",
    "CorrectorStack",
    "assemble_alpha",
    "heterogeneous_basis",
    "script_S",
    "WallLawTable",
    "phi_table",
    "second_order_2d",
]
