"""Molecular model: atoms, geometry, internal coordinates, B/G/inertia matrices.

Internal coordinates are linearized around the equilibrium geometry; the
B matrix holds their analytic Cartesian gradients.  Geometry lives in
Angstrom, masses in amu.  A molecule may be declared 1-, 2- or
3-dimensional; lower dimensionalities restrict the active Cartesian axes
(x, then x,y), which is how desk-scale one-dimensional fixtures are
expressed.

inertia(mol) is the one equilibrium frame: the geometry about the centre of
mass, I0 with its principal moments and right-handed axes, the mass-weighted
rotation rows R and the pseudo-inverse of I0.  It is computed once per
Molecule, and B's frame rows, the Watson diagnostics, the Eckart embedding
and the CLI all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import constants
from .quadform import DimensionMismatch, SymMatrix

STRETCH_MIN_LENGTH = 1e-6   # Angstrom
BEND_MIN_SINE = 1e-6        # collinearity guard
ZERO_INERTIA_RTOL = 1e-12


class MoleculeError(ValueError):
    """Base class for molecular-model failures."""


class DegenerateGeometry(MoleculeError):
    """Geometry does not define the requested internal coordinate."""


class IndexOutOfRange(MoleculeError):
    """An internal coordinate references a missing atom."""


class RankDeficient(MoleculeError):
    """B matrix rows are (numerically) linearly dependent."""


@dataclass(frozen=True)
class Atom:
    label: str
    mass: float
    position: tuple

    def __post_init__(self):
        pos = tuple(float(x) for x in self.position)
        if len(pos) != 3:
            raise MoleculeError("atom position must be a 3-vector")
        if not self.mass > 0:
            raise MoleculeError(f"atom {self.label!r} has non-positive mass")
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class Molecule:
    """Atoms with masses and an equilibrium geometry.

    masses and positions are computed once per Molecule, as read-only arrays.
    """

    atoms: tuple
    dimensionality: int = 3

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise MoleculeError("a molecule needs at least one atom")
        if self.dimensionality not in (1, 2, 3):
            raise MoleculeError("dimensionality must be 1, 2 or 3")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_lists(cls, labels, masses, positions, dimensionality: int = 3):
        atoms = tuple(
            Atom(l, m, tuple(p)) for l, m, p in zip(labels, masses, positions)
        )
        return cls(atoms=atoms, dimensionality=dimensionality)

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    @property
    def ncart(self) -> int:
        return self.natoms * self.dimensionality

    # the atoms are immutable, so the cached arrays never go stale; they are
    # read-only, and a caller that needs to change one takes a copy
    @cached_property
    def masses(self) -> np.ndarray:
        return _read_only(np.array([a.mass for a in self.atoms]))

    @cached_property
    def positions(self) -> np.ndarray:
        return _read_only(np.array([a.position for a in self.atoms]))

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def center_of_mass(self) -> np.ndarray:
        m = self.masses
        return m @ self.positions / m.sum()

    @cached_property
    def _inertia(self) -> "InertiaData":
        return _equilibrium_frame(self)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# -- internal coordinate kinds ------------------------------------------------


@dataclass(frozen=True)
class BondStretch:
    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise MoleculeError("stretch atoms must be distinct")


@dataclass(frozen=True)
class AngleBend:
    i: int
    j: int  # vertex
    k: int

    def __post_init__(self):
        if len({self.i, self.j, self.k}) != 3:
            raise MoleculeError("bend atoms must be distinct")


@dataclass(frozen=True)
class Torsion:
    i: int
    j: int
    k: int
    l: int

    def __post_init__(self):
        if len({self.i, self.j, self.k, self.l}) != 4:
            raise MoleculeError("torsion atoms must be distinct")


@dataclass(frozen=True)
class CartesianDisplacement:
    atom: int
    axis: int  # 0=x, 1=y, 2=z


@dataclass(frozen=True)
class LinearCombination:
    """Arbitrary fixed linear combination of Cartesian displacements."""

    weights: tuple  # length ncart

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


InternalCoordinate = Union[
    BondStretch, AngleBend, Torsion, CartesianDisplacement, LinearCombination
]


@dataclass(frozen=True)
class InternalCoordinateSet:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, eq=False)
class BMatrix:
    """Linearized coordinates, rows x ncart; normalmodes.solve decides the rank."""

    rows: np.ndarray
    kinds: tuple  # "internal" | "translation" | "rotation", one per row

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        kinds = tuple(self.kinds)
        if rows.ndim != 2:
            raise DimensionMismatch("B matrix must be 2-dimensional")
        if len(kinds) != rows.shape[0]:
            raise DimensionMismatch("one kind per row required")
        if rows.shape[0] > rows.shape[1]:
            raise RankDeficient(
                f"{rows.shape[0]} coordinates cannot be independent in {rows.shape[1]} dims"
            )
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "kinds", kinds)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def ncart(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class MassMatrix:
    """Diagonal Cartesian mass metric (each atomic mass repeated per axis)."""

    diagonal: np.ndarray

    def __post_init__(self):
        d = np.array(self.diagonal, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise DimensionMismatch("mass diagonal must be a nonempty vector")
        if np.any(d <= 0):
            raise MoleculeError("masses must be strictly positive")
        d.flags.writeable = False
        object.__setattr__(self, "diagonal", d)

    @classmethod
    def from_molecule(cls, mol: Molecule) -> "MassMatrix":
        return cls(np.repeat(mol.masses, mol.dimensionality))


@dataclass(frozen=True, eq=False)
class InertiaData:
    """The equilibrium frame: origin at the centre of mass, axes along the
    principal axes of I0.  Every array is read-only."""

    tensor: np.ndarray              # I0, 3x3, amu Angstrom^2, about the COM
    principal_moments: np.ndarray   # ascending
    principal_axes: np.ndarray      # columns, right-handed
    rotational_constants: tuple     # (A, B, C) cm^-1 descending, inf if moment ~ 0
    com_positions: np.ndarray       # (N, 3) Angstrom, about the COM
    rotation_rows: np.ndarray       # (r, N, 3): m_i (n x r_i) / sqrt(I_n), one per nonzero moment
    tensor_pinv: np.ndarray         # inverse of I0 on its nonzero moments


# -- B matrix construction ----------------------------------------------------


def _stretch_gradient(pos, i, j):
    d = pos[i] - pos[j]
    r = np.linalg.norm(d)
    if r <= STRETCH_MIN_LENGTH:
        raise DegenerateGeometry(f"zero bond between atoms {i} and {j}")
    e = d / r
    return {i: e, j: -e}


def _bend_gradient(pos, i, j, k):
    u = pos[i] - pos[j]
    v = pos[k] - pos[j]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu <= STRETCH_MIN_LENGTH or nv <= STRETCH_MIN_LENGTH:
        raise DegenerateGeometry(f"zero bend arm at vertex {j}")
    uh, vh = u / nu, v / nv
    cos_t = np.clip(uh @ vh, -1.0, 1.0)
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    if sin_t <= BEND_MIN_SINE:
        raise DegenerateGeometry(f"collinear bend {i}-{j}-{k}")
    gi = (cos_t * uh - vh) / (nu * sin_t)
    gk = (cos_t * vh - uh) / (nv * sin_t)
    return {i: gi, k: gk, j: -(gi + gk)}


def _torsion_gradient(pos, i, j, k, l):
    b1 = pos[j] - pos[i]
    b2 = pos[k] - pos[j]
    b3 = pos[l] - pos[k]
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    nb2 = np.linalg.norm(b2)
    if nb2 <= STRETCH_MIN_LENGTH:
        raise DegenerateGeometry(f"zero central bond in torsion {i}-{j}-{k}-{l}")
    sq1, sq2 = n1 @ n1, n2 @ n2
    if sq1 <= BEND_MIN_SINE**2 or sq2 <= BEND_MIN_SINE**2:
        raise DegenerateGeometry(f"collinear arms in torsion {i}-{j}-{k}-{l}")
    # gradients of phi = atan2((n1 x b2hat) . n2, n1 . n2)
    gi = (nb2 / sq1) * n1
    gl = -(nb2 / sq2) * n2
    f12 = (b1 @ b2) / (nb2 * nb2)
    f32 = (b3 @ b2) / (nb2 * nb2)
    gj = (-1.0 - f12) * gi + f32 * gl
    gk = -gi - gj - gl
    return {i: gi, j: gj, k: gk, l: gl}


# The internal coordinates given by atoms: keyword -> (class, gradient).  The
# class's fields are the atom indices, in the order the gradient takes them.
ATOM_COORDINATES = {"stretch": (BondStretch, _stretch_gradient),
                    "bend": (AngleBend, _bend_gradient),
                    "torsion": (Torsion, _torsion_gradient)}
_GRADIENTS = dict(ATOM_COORDINATES.values())


def _check_index(idx: int, natoms: int):
    if not 0 <= idx < natoms:
        raise IndexOutOfRange(f"atom index {idx} outside 0..{natoms - 1}")


def build_b_matrix(mol: Molecule, ics: InternalCoordinateSet) -> BMatrix:
    """Analytic linearization B of the internal coordinates at equilibrium.

    Row i holds (dR_i / d(delta x)) evaluated at the equilibrium geometry;
    stretches are dimensionless, bends and torsions carry rad/Angstrom.
    """
    pos = mol.positions
    n, d = mol.natoms, mol.dimensionality
    rows = np.zeros((len(ics), mol.ncart))
    for r, coord in enumerate(ics.coords):
        gradient = _GRADIENTS.get(type(coord))
        if gradient:
            atoms = [getattr(coord, f) for f in coord.__match_args__]
            for a in atoms:
                _check_index(a, n)
            for atom, g in gradient(pos, *atoms).items():
                rows[r, atom * d : atom * d + d] = g[:d]
        elif isinstance(coord, CartesianDisplacement):
            _check_index(coord.atom, n)
            if not 0 <= coord.axis < d:
                raise IndexOutOfRange(
                    f"axis {coord.axis} outside the {d}-dimensional model"
                )
            rows[r, coord.atom * d + coord.axis] = 1.0
        elif isinstance(coord, LinearCombination):
            if len(coord.weights) != mol.ncart:
                raise DimensionMismatch(
                    f"linear combination needs {mol.ncart} weights"
                )
            rows[r] = coord.weights
        else:
            raise MoleculeError(f"unknown internal coordinate {coord!r}")
    return BMatrix(rows=rows, kinds=("internal",) * len(ics))


def extend_b_matrix(b: BMatrix, mol: Molecule) -> BMatrix:
    """Append translation (and, in 2D/3D, rotation) rows to an internal B.

    The result is square (else RankDeficient) and invertible for a
    well-chosen internal set; solve raises RankDeficient for a singular one.
    """
    if any(k != "internal" for k in b.kinds):
        raise MoleculeError("extend_b_matrix expects internal rows only")
    if b.ncart != mol.ncart:
        raise DimensionMismatch(
            f"B has {b.ncart} columns but molecule has {mol.ncart} Cartesian dims"
        )
    d = mol.dimensionality
    masses = mol.masses
    total = mol.total_mass
    rows = [b.rows]
    kinds = list(b.kinds)

    for axis in range(d):
        t = np.zeros(mol.ncart)
        t[axis::d] = masses / math.sqrt(total)
        rows.append(t[None, :])
        kinds.append("translation")

    if d >= 2:
        for row3 in inertia(mol).rotation_rows:
            r = row3[:, :d].reshape(-1)
            if np.linalg.norm(r) <= 1e-12:
                continue
            rows.append(r[None, :])
            kinds.append("rotation")

    stacked = np.vstack(rows)
    if stacked.shape[0] != stacked.shape[1]:
        raise RankDeficient(
            f"extended B is {stacked.shape[0]}x{stacked.shape[1]}, not square; "
            "internal coordinate count does not complete the frame"
        )
    return BMatrix(rows=stacked, kinds=tuple(kinds))


def build_g_matrix(b: BMatrix, masses: MassMatrix) -> SymMatrix:
    """Wilson G = B T^-1 B^T with T the diagonal Cartesian mass metric."""
    if b.ncart != masses.diagonal.size:
        raise DimensionMismatch(
            f"B has {b.ncart} columns but mass diagonal has {masses.diagonal.size}"
        )
    return SymMatrix((b.rows / masses.diagonal) @ b.rows.T)


# -- inertia ------------------------------------------------------------------


def _inertia_tensor(masses: np.ndarray, pos: np.ndarray) -> np.ndarray:
    r2 = np.sum(pos * pos, axis=1)
    return np.einsum("i,i,ab->ab", masses, r2, np.eye(3)) - np.einsum(
        "i,ia,ib->ab", masses, pos, pos
    )


def inertia(mol: Molecule) -> InertiaData:
    """The equilibrium frame of the molecule, computed once per Molecule.

    The origin is the centre of mass and the axes are the right-handed
    principal axes of I0, the frame of the Eckart-Watson Hamiltonian.  A
    moment at or below ZERO_INERTIA_RTOL of sqrt(sum m |r|^2 sum m |r -
    com|^2), r about the input origin, counts as zero: it has no rotation
    row, no pseudo-inverse entry and an infinite rotational constant.  The
    constants are kappa / I with kappa = h / (8 pi^2 c) in cm^-1 amu
    Angstrom^2.
    """
    return mol._inertia


def _equilibrium_frame(mol: Molecule) -> InertiaData:
    masses = mol.masses
    pos = mol.positions - mol.center_of_mass()
    tensor = _inertia_tensor(masses, pos)
    moments, axes = np.linalg.eigh(tensor)
    moments = np.clip(moments, 0.0, None)
    if np.linalg.det(axes) < 0:
        axes[:, -1] = -axes[:, -1]
    # the centre-of-mass shift leaves roundoff of about eps sum m |r| |r - com|
    # in the moments, at most eps sqrt(sum m |r|^2 sum m |r - com|^2)
    size = math.sqrt((masses @ np.sum(mol.positions**2, axis=1))
                     * (masses @ np.sum(pos**2, axis=1)))
    nonzero = moments > ZERO_INERTIA_RTOL * size
    inv = np.divide(1.0, moments, out=np.zeros(3), where=nonzero)
    consts = np.divide(constants.ROTATIONAL_CM, moments, out=np.full(3, math.inf), where=nonzero)
    rows = masses[:, None] * np.cross(axes.T[nonzero, None], pos)
    rows /= np.sqrt(moments[nonzero])[:, None, None]
    pinv = (axes * inv) @ axes.T
    for arr in (tensor, moments, axes, pos, rows, pinv):
        arr.flags.writeable = False
    return InertiaData(
        tensor=tensor,
        principal_moments=moments,
        principal_axes=axes,
        rotational_constants=tuple(sorted(consts, reverse=True)),
        com_positions=pos,
        rotation_rows=rows,
        tensor_pinv=pinv,
    )
