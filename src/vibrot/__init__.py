"""vibrot: molecular vibrations and rigid-rotor spectroscopy toolkit.

Modules
-------
quadform     symmetric-matrix machinery and simultaneous diagonalization
molecule     atoms, internal coordinates, B/G/inertia matrices
normalmodes  the GF solve: eigenvalues, L and l matrices, mode shapes
dynamics     closed-form harmonic trajectories and an RK4 oracle
frames       Euler zyz' rotations, momentum maps, Eckart embedding
watson       Coriolis zeta constants, sum rules, mu tensor, Watson U
rotor        symmetric/asymmetric top levels and wavefunctions
cli          input files, pipeline orchestration, reports
"""

from .molecule import (
    AngleBend,
    Atom,
    BondStretch,
    CartesianDisplacement,
    InternalCoordinateSet,
    LinearCombination,
    MassMatrix,
    Molecule,
    Torsion,
    build_b_matrix,
    build_g_matrix,
    extend_b_matrix,
    inertia,
)
from .normalmodes import ForceField, NormalModeResult, solve
from .quadform import SymMatrix, simultaneous_diagonalize
from .rotor import RotorSpec, SymTopState, asymmetric_levels, classify

__version__ = "0.1.0"

__all__ = [
    "AngleBend",
    "Atom",
    "BondStretch",
    "CartesianDisplacement",
    "ForceField",
    "InternalCoordinateSet",
    "LinearCombination",
    "MassMatrix",
    "Molecule",
    "NormalModeResult",
    "RotorSpec",
    "SymMatrix",
    "SymTopState",
    "Torsion",
    "asymmetric_levels",
    "build_b_matrix",
    "build_g_matrix",
    "classify",
    "extend_b_matrix",
    "inertia",
    "simultaneous_diagonalize",
    "solve",
]
