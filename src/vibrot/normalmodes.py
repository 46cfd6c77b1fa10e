"""GF-problem solver: eigenvalues, L and l matrices, Cartesian mode shapes.

The vibrational secular problem is solved as a simultaneous diagonalization
of the kinetic metric G^-1 and the force-constant form F, through the
symmetric operator W = G^{1/2} F G^{1/2} (never by eigendecomposing the
unsymmetric product GF).

Each solve factors the kinetic metric once.  Given B and the masses, that
is the SVD of the mass-weighted B matrix, B M^{-1/2} = U S V^T, so that
G = U S^2 U^T; given G alone, it is eigh(G) = U S^2 U^T.  From U and S come
G^{1/2}, the positive-definiteness test and G^-1 (carried as `g_inv`, the
kinetic metric the dynamics use); the test is also B's one rank test.  With
eta the eigenvectors of W, L = G^{1/2} eta and l = V U^T eta, so l is
orthonormal however badly G is conditioned.  `zero_modes` marks zero lambdas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constants, quadform
from .molecule import BMatrix, MassMatrix, Molecule, RankDeficient
from .quadform import DimensionMismatch, NotPositiveDefinite, QuadformError, SymMatrix


class NonFiniteModes(QuadformError):
    """The GF solve gave a non-finite eigenvalue or mode (an overflowing F or G)."""


@dataclass(frozen=True, eq=False)
class ForceField:
    """Harmonic force constants over internal coordinates.

    Units are aJ/Angstrom^2 for stretch-stretch blocks, aJ/rad^2 for bends
    and aJ/(Angstrom rad) for cross terms.
    """

    f: SymMatrix

    @property
    def dim(self) -> int:
        return self.f.dim


@dataclass(frozen=True, eq=False)
class NormalModeResult:
    """Eigenvalues and transformations of one harmonic solve.

    lambdas ascend; S = L Q with L^T G^-1 L = 1; g_inv is G^-1 from the
    solve's own factorization.  l maps mass-weighted Cartesian displacements
    to normal coordinates and is orthogonal; column s of cart_displacements
    is the Cartesian image of Q_s, and B applied to it gives column s of L.
    l and cart_displacements are only present when the solve was given the
    B matrix and masses.
    """

    lambdas: np.ndarray
    frequencies_cm: np.ndarray
    L: np.ndarray
    g_inv: SymMatrix
    l: Optional[np.ndarray] = None
    cart_displacements: Optional[np.ndarray] = None

    @property
    def nmodes(self) -> int:
        return self.lambdas.size


zero_modes = quadform.roundoff_zero  # the zero lambdas, by G's definiteness rule


def frequencies_cm(lambdas, unit_mode: str = "cm") -> np.ndarray:
    """Harmonic frequencies from eigenvalues of the GF problem.

    natural: sqrt(lambda) as-is.  cm: wavenumbers (cm^-1) for lambdas in
    aJ Angstrom^-2 amu^-1.  The zero_modes are roundoff and give 0; any other
    negative eigenvalue marks a saddle point, a negative wavenumber.
    """
    factor = constants.unit_factors(unit_mode)[0]
    lam = np.array(lambdas, dtype=float)
    lam[zero_modes(lam)] = 0.0
    return factor * np.sign(lam) * np.sqrt(np.abs(lam))


def solve(
    g: SymMatrix,
    f: ForceField,
    *,
    b: Optional[BMatrix] = None,
    masses: Optional[MassMatrix] = None,
    unit_mode: str = "cm",
) -> NormalModeResult:
    """Solve the vibrational problem for kinetic matrix G and force field F.

    Passing the B matrix and masses (with G = B M^-1 B^T) solves through
    the SVD of B M^{-1/2} and additionally fills the l matrix and the
    per-mode Cartesian displacement vectors.  A singular G raises
    NotPositiveDefinite, or RankDeficient (dependent rows) when B was given.
    An unknown unit mode raises ValueError before anything is factored.
    """
    constants.unit_factors(unit_mode)
    if g.dim != f.dim:
        raise DimensionMismatch(f"G is {g.dim}-dim but F is {f.dim}-dim")
    cartesian = b is not None and masses is not None
    if cartesian:
        if b.count != g.dim:
            raise DimensionMismatch(f"B has {b.count} rows but G is {g.dim}-dim")
        if b.ncart != masses.diagonal.size:
            raise DimensionMismatch("B columns and mass diagonal disagree")
        inv_sqrt_m = 1.0 / np.sqrt(masses.diagonal)
        u, s, vt = np.linalg.svd(b.rows * inv_sqrt_m, full_matrices=False)
        s2 = s * s
    else:
        s2, u = np.linalg.eigh(g.entries)
    try:
        quadform.require_positive_definite(s2, "G matrix")
    except NotPositiveDefinite:
        if b is None:
            raise
        raise RankDeficient("B matrix rows are linearly dependent") from None
    g_half = (u * np.sqrt(s2)) @ u.T
    pair, eta = quadform.canonical_eigenbasis(g_half @ f.f.entries @ g_half, g_half)
    l = cart = None
    if cartesian:
        l = vt.T @ (u.T @ eta)
        cart = l * inv_sqrt_m[:, None]
    if not all(np.isfinite(a).all() for a in (pair.lambdas, pair.beta, l) if a is not None):
        raise NonFiniteModes("the GF solve gave non-finite eigenvalues or modes")
    return NormalModeResult(
        lambdas=pair.lambdas,
        frequencies_cm=frequencies_cm(pair.lambdas, unit_mode),
        L=pair.beta,
        g_inv=SymMatrix((u / s2) @ u.T),
        l=l,
        cart_displacements=cart,
    )


def mode_animation(
    mol: Molecule, mode: np.ndarray, amplitude: float, frames: int
) -> np.ndarray:
    """Geometries sampling one period of a mode at the given amplitude.

    Returns a (frames, natoms, 3) array.  Frame t displaces the equilibrium
    geometry by amplitude * sin(2 pi t / frames) * mode; frame 0 is the
    equilibrium.  An (ncart, k) block of mode columns gives (k, frames,
    natoms, 3), each mode's geometries bit-identical to a call for that mode
    alone: every value is the same product and sum, however many modes.
    """
    if frames < 2:
        raise ValueError("at least 2 frames required")
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    mode = np.asarray(mode, dtype=float)
    block = mode.ndim == 2
    entries = mode.shape[0] if block else mode.size
    if entries != mol.ncart:
        raise DimensionMismatch(f"mode vector has {entries} entries, expected {mol.ncart}")
    d = mol.dimensionality
    shaped = mode.reshape(mol.ncart, -1).T.reshape(-1, 1, mol.natoms, d)
    factors = np.array(
        [amplitude * math.sin(2.0 * math.pi * t / frames) for t in range(frames)]
    )
    out = np.empty((len(shaped), frames, mol.natoms, 3))
    out[:] = mol.positions
    out[..., :d] += factors[:, None, None] * shaped
    return out if block else out[0]
