"""Rigid-rotor solver.

Symmetric tops have the closed-form energy B J(J+1) + (A-B) k^2, rederived
here through the Frobenius series of the polar equation whose truncation
quantizes the spectrum.  Asymmetric tops are solved in the symmetric-top
|J,k> basis, where H couples k only to k +- 2: each of the Wang parity
blocks E+/E-/O+/O- of a J manifold is tridiagonal, so the blocks are built
straight from the two diagonals of H, and the levels are their eigenvalues
(eigvalsh; no eigenvectors), returned as `RotorLevels`: arrays of J,
parity-class code, in-block index and energy (degeneracy 2J+1) that index
as `RotorLevel` views.  Symmetric-top wavefunctions use Wigner's d in
Jacobi-polynomial form.  All energies are in the units of the rotational
constants (cm^-1 by convention); hbar is absorbed into them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frames import EulerAngles

CLASSIFY_RTOL = 1e-9
# Wang parity classes in block order; RotorLevels.code indexes this tuple,
# and the codes sort like the labels ("E+" < "E-" < "O+" < "O-" in ASCII).
PARITY_CLASSES = ("E+", "E-", "O+", "O-")


class RotorError(ValueError):
    pass


class NonPositiveConstant(RotorError):
    """Rotational constants must be positive (zero marks a linear rotor)."""


class InvalidQuantumNumbers(RotorError):
    pass


class NegativeNmax(RotorError):
    """No truncation order exists for the requested (J, k, m)."""


class NotSymmetricTop(RotorError):
    """A symmetric-top closed form was requested for an asymmetric rotor."""


class NonFiniteLevels(RotorError):
    """The rotor Hamiltonian or its levels overflow the float range."""


@dataclass(frozen=True)
class RotorSpec:
    """Ordered rotational constants and the rotor classification."""

    a_const: float
    b_const: float
    c_const: float
    classification: str


@dataclass(frozen=True)
class SymTopState:
    """Symmetric-top quantum numbers |J, k, m>."""

    j: int
    k: int
    m: int

    def __post_init__(self):
        if self.j < 0:
            raise InvalidQuantumNumbers(f"J = {self.j} < 0")
        if abs(self.k) > self.j or abs(self.m) > self.j:
            raise InvalidQuantumNumbers(
                f"|k| and |m| must not exceed J = {self.j}: k={self.k}, m={self.m}"
            )


@dataclass(frozen=True, eq=False)
class AsymTopBlock:
    """One Wang parity block of an asymmetric-top J manifold."""

    j: int
    parity_class: str  # "E+" | "E-" | "O+" | "O-"
    basis: tuple       # labels like "|2,2,+>"
    hmatrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.hmatrix.shape[0]


@dataclass(frozen=True)
class RotorLevel:
    j: int
    parity_class: str
    index: int       # position within the ascending spectrum of its block
    energy: float
    degeneracy: int  # 2J+1 m-replicas


@dataclass(frozen=True, eq=False)
class RotorLevels:
    """Rotor levels as parallel arrays, grouped by ascending J.

    Level i is RotorLevel(j[i], PARITY_CLASSES[code[i]], index[i], energy[i],
    2 j[i] + 1); indexing and iteration give these views, and a slice gives
    the RotorLevels of its levels.
    """

    j: np.ndarray
    code: np.ndarray
    index: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return self.energy.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RotorLevels(self.j[i], self.code[i], self.index[i], self.energy[i])
        j = int(self.j[i])
        cls = PARITY_CLASSES[self.code[i]]
        return RotorLevel(j, cls, int(self.index[i]), float(self.energy[i]), 2 * j + 1)


def classify(a: float, b: float, c: float) -> RotorSpec:
    """Sort the constants descending and name the rotor type.

    A single zero constant flags a linear rotor (its actual constant along
    the axis is infinite); otherwise all constants must be positive and
    finite.  Equalities are detected at 1e-9 relative tolerance.
    """
    vals = sorted((float(a), float(b), float(c)), reverse=True)
    if any(v < 0 or math.isnan(v) for v in vals):
        raise NonPositiveConstant(f"invalid rotational constants {vals}")
    zeros = sum(1 for v in vals if v == 0.0)
    infs = sum(1 for v in vals if math.isinf(v))
    finite = [v for v in vals if math.isfinite(v) and v > 0]
    tol = CLASSIFY_RTOL * max(finite) if finite else 0.0
    if zeros or infs:
        if zeros + infs == 1:
            # (inf, B, B) or (B, B, 0): one degenerate positive pair remains
            hi, lo = (vals[1], vals[2]) if infs else (vals[0], vals[1])
            if lo > 0 and abs(hi - lo) <= tol:
                return RotorSpec(vals[0], vals[1], vals[2], "linear")
        raise NonPositiveConstant(
            "zero/infinite constants are only valid for a linear rotor (B = C)"
        )
    a_c, b_c, c_c = vals
    if a_c - c_c <= tol:
        kind = "spherical"
    elif a_c - b_c <= tol:
        kind = "oblate-symmetric"
    elif b_c - c_c <= tol:
        kind = "prolate-symmetric"
    else:
        kind = "asymmetric"
    return RotorSpec(a_c, b_c, c_c, kind)


def symmetric_top_energy(spec: RotorSpec, j: int, k: int) -> float:
    """Closed-form symmetric-top level, degenerate in the sign of k and in m.

    Prolate: B J(J+1) + (A-B) k^2.  Oblate tops use the same form with C in
    place of A, the standard limit on the other side of B.
    """
    SymTopState(j=j, k=k, m=0)
    b = spec.b_const
    if spec.classification in ("prolate-symmetric",):
        unique = spec.a_const
    elif spec.classification == "oblate-symmetric":
        unique = spec.c_const
    elif spec.classification == "spherical":
        unique = spec.b_const
    elif spec.classification == "linear":
        if k != 0:
            raise InvalidQuantumNumbers("a linear rotor only carries k = 0")
        unique = b
    else:
        raise NotSymmetricTop(f"{spec.classification} rotor has no closed form")
    return b * j * (j + 1) + (unique - b) * k * k


def frobenius_solve(spec: RotorSpec, k: int, m: int, j_target: int):
    """Series solution of the prolate polar equation for one (J, k, m).

    The exponents are alpha = 1 + |k-m| and beta = alpha + 1 + |k+m|;
    demanding that the series truncate at n_max = J - (|k+m|+|k-m|)/2
    fixes gamma and hence the energy, which reproduces the closed form.
    Returns (energy, coefficients a_0..a_{n_max+1}); the final coefficient
    vanishes by construction.
    """
    if spec.classification not in ("prolate-symmetric", "spherical"):
        raise NotSymmetricTop(
            "the series solution is set up for a prolate symmetric top"
        )
    SymTopState(j=j_target, k=k, m=m)
    n_max = j_target - (abs(k + m) + abs(k - m)) // 2
    if n_max < 0:
        raise NegativeNmax(f"no series truncates for J={j_target}, k={k}, m={m}")
    alpha = 1 + abs(k - m)
    beta = alpha + 1 + abs(k + m)
    gamma = beta * n_max + n_max * (n_max - 1)
    delta = gamma + beta * (beta - 2) / 4.0
    energy = spec.b_const * delta + (spec.a_const - spec.b_const) * k * k

    coeffs = np.zeros(n_max + 2)
    coeffs[0] = 1.0
    for n in range(n_max + 1):
        coeffs[n + 1] = (
            (-gamma + beta * n + n * (n - 1)) / ((n + 1) * (n + alpha))
        ) * coeffs[n]
    return energy, coeffs


def wavefunction_value(state: SymTopState, angles: EulerAngles) -> complex:
    """Symmetric-top wavefunction |J,k,m> at the given Euler angles.

    psi = sqrt((2J+1) / (8 pi^2)) d^J_mk(theta) exp(i (m phi + k chi)); the
    modulus squared integrates to one over sin(theta) dtheta dphi dchi.
    Wigner's d is taken in its Jacobi-polynomial form,
    d = +- sqrt(n! (n+a+b)! / ((n+a)! (n+b)!)) sin^a(theta/2) cos^b(theta/2)
    P_n^(a,b)(cos theta) with a = |k-m|, b = |k+m|, n = J - (a+b)/2, and
    P_n comes from its three-term recurrence (DLMF 18.9.2).  Unlike the
    alternating factorial sum, this neither cancels nor overflows at large J.
    """
    j, k, m = state.j, state.k, state.m
    a, b = abs(k - m), abs(k + m)
    n = j - (a + b) // 2
    x = math.cos(angles.theta)
    p_prev, p = 1.0, 0.5 * (a - b + (a + b + 2) * x)  # P_0 and P_1
    if n == 0:
        p = p_prev
    for i in range(2, n + 1):
        c = 2 * i + a + b
        p_prev, p = p, (
            (c - 1) * (c * (c - 2) * x + a * a - b * b) * p
            - 2 * (i + a - 1) * (i + b - 1) * c * p_prev
        ) / (2 * i * (i + a + b) * (c - 2))
    ratio = (math.factorial(n) * math.factorial(n + a + b)) / (
        math.factorial(n + a) * math.factorial(n + b)
    )
    sign = -1 if k < m and (m - k) % 2 else 1
    half = 0.5 * angles.theta
    d = sign * math.sqrt(ratio) * math.sin(half) ** a * math.cos(half) ** b * p
    norm = math.sqrt((2 * j + 1) / (8.0 * math.pi**2))
    return norm * d * cmath.exp(1j * (m * angles.phi + k * angles.chi))


@dataclass(frozen=True, eq=False)
class LadderTable:
    """Angular momentum matrix elements for one J, in units of hbar.

    Molecule-fixed matrices (jsq, jz, jplus_m, jminus_m) act on the k basis,
    space-fixed ones (jrho3, jplus_s, jminus_s) on the m basis; both bases
    run from -J to J.
    """

    j: int
    jsq: np.ndarray
    jz: np.ndarray
    jrho3: np.ndarray
    jplus_m: np.ndarray
    jminus_m: np.ndarray
    jplus_s: np.ndarray
    jminus_s: np.ndarray


def ladder_matrix_elements(j: int) -> LadderTable:
    """All five matrix-element families of the rigid-rotor operators.

    The molecule-fixed ladders are anomalous: J+_m lowers k while J+_s
    raises m, both with the amplitude sqrt(J(J+1) - q(q -+ 1)).
    """
    if j < 0:
        raise InvalidQuantumNumbers(f"J = {j} < 0")
    dim = 2 * j + 1
    qs = np.arange(-j, j + 1)
    jsq = float(j * (j + 1)) * np.eye(dim)
    jz = np.diag(qs.astype(float))
    jrho3 = np.diag(qs.astype(float))
    jplus_m = np.zeros((dim, dim))
    jminus_m = np.zeros((dim, dim))
    jplus_s = np.zeros((dim, dim))
    jminus_s = np.zeros((dim, dim))
    for idx, q in enumerate(qs):
        if q - 1 >= -j:
            amp = math.sqrt(j * (j + 1) - q * (q - 1))
            jplus_m[idx - 1, idx] = amp   # <J,k-1| J+_m |J,k>
            jminus_s[idx - 1, idx] = amp  # <J,k,m-1| J-_s |J,k,m>
        if q + 1 <= j:
            amp = math.sqrt(j * (j + 1) - q * (q + 1))
            jminus_m[idx + 1, idx] = amp  # <J,k+1| J-_m |J,k>
            jplus_s[idx + 1, idx] = amp   # <J,k,m+1| J+_s |J,k,m>
    return LadderTable(
        j=j,
        jsq=jsq,
        jz=jz,
        jrho3=jrho3,
        jplus_m=jplus_m,
        jminus_m=jminus_m,
        jplus_s=jplus_s,
        jminus_s=jminus_s,
    )


def _band(spec: RotorSpec, j: int):
    """The two diagonals of the J Hamiltonian, indexed by k + J.

    d[k + J] = H[k, k] = (B+C)/2 J(J+1) + [A - (B+C)/2] k^2 for k = -J..J;
    o[k + J] = H[k, k+2] = (B-C)/4 sqrt(J(J+1) - (k+2)(k+1)) sqrt(J(J+1) - (k+1)k)
    for k = -J..J-2.  Every other element of H is zero.
    """
    a_c, b_c, c_c = spec.a_const, spec.b_const, spec.c_const
    jj = float(j * (j + 1))
    ks = np.arange(-j, j + 1, dtype=float)
    d = 0.5 * (b_c + c_c) * jj + (a_c - 0.5 * (b_c + c_c)) * (ks * ks)
    k = ks[:-2]
    o = 0.25 * (b_c - c_c) * (np.sqrt(jj - (k + 2) * (k + 1)) * np.sqrt(jj - (k + 1) * k))
    return d, o


def asymmetric_hamiltonian(spec: RotorSpec, j: int) -> np.ndarray:
    """Rigid-rotor Hamiltonian for one J in the |J,k,0> basis (cm^-1).

    H = (B+C)/2 J^2 + [A - (B+C)/2] Jz^2 + (B-C)/4 ((J+_m)^2 + (J-_m)^2);
    squared ladders couple k to k -+ 2, so the matrix is real symmetric,
    independent of m, and filled here from its two diagonals (`_band`).
    """
    if j < 0:
        raise InvalidQuantumNumbers(f"J = {j} < 0")
    d, o = _band(spec, j)
    h = np.diag(d)
    rows = np.arange(o.size)
    h[rows, rows + 2] = h[rows + 2, rows] = o
    return h


def _wang_label(j: int, kabs: int, sign: int) -> str:
    if kabs == 0:
        return f"|{j},0,0>"
    return f"|{j},{kabs},0,{'+' if sign > 0 else '-'}>"


def _parity_blocks(d: np.ndarray, o: np.ndarray, j: int) -> list:
    """The Wang blocks E+, E-, O+, O- of one J, built from the band of H.

    In the basis (|J,k,0> +- |J,-k,0>)/sqrt(2) (|J,0,0> alone in E+), each
    block is tridiagonal over its |k| values in ascending order, with the
    diagonal d_k and the coupling o_k between |k| and |k|+2.  Two elements
    differ: |0> couples to |2,+> with sqrt(2) o_0, and the |1,+-> diagonal
    is d_1 +- H[1,-1].  Returns (parity class, |k| values, matrix) per block.
    """
    blocks = []
    for cls, start in zip(PARITY_CLASSES, (0, 2, 1, 1)):
        ks = np.arange(start, j + 1, 2)
        h = np.diag(d[ks + j])
        rows = np.arange(ks.size - 1)
        h[rows, rows + 1] = h[rows + 1, rows] = o[ks[:-1] + j]
        if start == 0 and j >= 2:
            h[0, 1] = h[1, 0] = math.sqrt(2.0) * o[j]
        elif start == 1 and j >= 1:
            h[0, 0] += o[j - 1] if cls == "O+" else -o[j - 1]
        blocks.append((cls, ks, h))
    return blocks


def wang_blocks(h: np.ndarray, j: int) -> list:
    """Parity-adapted blocks of an asymmetric-top J Hamiltonian.

    The Wang combinations (|J,k,0> +- |J,-k,0>)/sqrt(2) decouple even from
    odd k and + from - parity, leaving the four blocks E+, E-, O+, O-.  They
    are read from the diagonal and the k+-2 band of h.
    """
    h = np.asarray(h, dtype=float)
    dim = 2 * j + 1
    if h.shape != (dim, dim):
        raise InvalidQuantumNumbers(f"Hamiltonian shape {h.shape} does not match J={j}")
    blocks = []
    for cls, ks, sub in _parity_blocks(h.diagonal(), h.diagonal(2), j):
        sign = 1 if cls.endswith("+") else -1
        vals, vecs = np.linalg.eigh(sub)
        blocks.append(
            AsymTopBlock(
                j=j,
                parity_class=cls,
                basis=tuple(_wang_label(j, int(k), sign) for k in ks),
                hmatrix=sub,
                eigenvalues=vals,
                eigenvectors=vecs,
            )
        )
    return blocks


def asymmetric_levels(spec: RotorSpec, j_max: int) -> RotorLevels:
    """All rotor levels up to j_max, each with its 2J+1 m-degeneracy.

    Each J's Wang blocks are built straight from the band of H and only
    their eigenvalues are computed.  The levels are ordered by J, then
    energy, then parity class, then index inside the block.  Raises
    NonFiniteLevels when the band of H or a level is not finite.
    """
    if j_max < 0:
        raise InvalidQuantumNumbers(f"j_max = {j_max} < 0")
    energies = []  # block b of J at entry 4 J + b
    for j in range(j_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            d, o = _band(spec, j)
            blocks = _parity_blocks(d, o, j)
        if not (np.isfinite(d).all() and np.isfinite(o).all()):
            raise NonFiniteLevels(f"rotor Hamiltonian for J = {j} is not finite")
        for _, _, sub in blocks:
            energies.append(np.linalg.eigvalsh(sub))
            if not np.isfinite(energies[-1]).all():
                raise NonFiniteLevels(f"rotor levels for J = {j} are not finite")
    sizes = [v.size for v in energies]
    j = np.repeat(np.arange(j_max + 1).repeat(len(PARITY_CLASSES)), sizes)
    code = np.repeat(np.tile(np.arange(len(PARITY_CLASSES), dtype=np.int8), j_max + 1), sizes)
    index = np.concatenate([np.arange(n) for n in sizes])
    energy = np.concatenate(energies)
    order = np.lexsort((index, code, energy, j))
    return RotorLevels(j[order], code[order], index[order], energy[order])


def rotor_spec_from_inertia(constants_abc) -> Optional[RotorSpec]:
    """RotorSpec from (A, B, C) allowing the linear-rotor infinite A."""
    a, b, c = constants_abc
    if math.isinf(a) and math.isfinite(b) and math.isfinite(c):
        return classify(0.0, b, c)
    if any(math.isinf(v) for v in (a, b, c)):
        return None
    return classify(a, b, c)
