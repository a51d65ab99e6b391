"""Multiple orthogonal polynomials and the Jacobi matrices they generate on rooted trees.

Submodules:

* ``measures``         -- measures, moments, Markov functions, boundary values
* ``mop_engine``       -- type I/II polynomials, recurrence coefficients, zeros
* ``tree_topology``    -- finite trees and Cayley-tree truncations
* ``tree_jacobi``      -- operator assembly and algebraic eigenfunction identities
* ``finite_spectral``  -- exact finite-tree spectral decompositions
* ``angelesco``        -- Green's functions and spectral measures for disjoint hulls
* ``nikishin``         -- dual measures, sign patterns, coefficient blowup
* ``periodic_surface`` -- genus-0 rational map, periodic operators, density of states
* ``cli``              -- the ``mop-trees`` command-line front end
"""

from .errors import (
    AssumptionError,
    BranchError,
    ConvergenceError,
    DomainError,
    EndpointError,
    InvalidSurfaceError,
    JointError,
    MopTreesError,
    NeutralVectorError,
    NormalityError,
    OverlapError,
    PrecisionError,
    RankError,
    SeriesError,
    ZeroError,
    ZeroWeightError,
)
from .measures import DensitySpec, Measure, Piece, concat, measure_from_json, uniform
from .mop_engine import MopSystem

__all__ = [
    "Measure",
    "Piece",
    "DensitySpec",
    "MopSystem",
    "uniform",
    "concat",
    "measure_from_json",
    "MopTreesError",
    "DomainError",
    "EndpointError",
    "OverlapError",
    "NormalityError",
    "PrecisionError",
    "ConvergenceError",
    "ZeroError",
    "ZeroWeightError",
    "AssumptionError",
    "JointError",
    "RankError",
    "NeutralVectorError",
    "SeriesError",
    "BranchError",
    "InvalidSurfaceError",
]

__version__ = "0.1.0"
