"""Rigid-rotor solver.

Symmetric tops have the closed-form energy B J(J+1) + (A-B) k^2, rederived
here through the Frobenius series of the polar equation whose truncation
quantizes the spectrum.  Asymmetric tops are diagonalized in the
symmetric-top |J,k> basis after the Wang parity transform splits each J
block into E+/E-/O+/O- sub-blocks.  All energies are in the units of the
rotational constants (cm^-1 by convention); hbar is absorbed into them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frames import EulerAngles

CLASSIFY_RTOL = 1e-9


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

    @property
    def is_symmetric(self) -> bool:
        return self.classification in (
            "prolate-symmetric",
            "oblate-symmetric",
            "spherical",
            "linear",
        )


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

    Explicit finite-sum form with the closed normalization; the modulus
    squared integrates to one over sin(theta) dtheta dphi dchi.
    """
    j, k, m = state.j, state.k, state.m
    half = 0.5 * angles.theta
    c, s = math.cos(half), math.sin(half)
    total = 0.0
    for sigma in range(max(0, k - m), min(j - m, j + k) + 1):
        num = (c ** (2 * j + k - m - 2 * sigma)) * ((-s) ** (m - k + 2 * sigma))
        den = (
            math.factorial(sigma)
            * math.factorial(j - m - sigma)
            * math.factorial(m - k + sigma)
            * math.factorial(j + k - sigma)
        )
        total += (-1) ** sigma * num / den
    norm = math.sqrt(
        math.factorial(j + m)
        * math.factorial(j - m)
        * math.factorial(j + k)
        * math.factorial(j - k)
        * (2 * j + 1)
        / (8.0 * math.pi**2)
    )
    return norm * total * cmath.exp(1j * (m * angles.phi + k * angles.chi))


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


def asymmetric_hamiltonian(spec: RotorSpec, j: int) -> np.ndarray:
    """Rigid-rotor Hamiltonian for one J in the |J,k,0> basis (cm^-1).

    H = (B+C)/2 J^2 + [A - (B+C)/2] Jz^2 + (B-C)/4 ((J+_m)^2 + (J-_m)^2);
    squared ladders couple k to k -+ 2, so the matrix is real symmetric and
    independent of m.
    """
    if j < 0:
        raise InvalidQuantumNumbers(f"J = {j} < 0")
    a_c, b_c, c_c = spec.a_const, spec.b_const, spec.c_const
    t = ladder_matrix_elements(j)
    h = (
        0.5 * (b_c + c_c) * t.jsq
        + (a_c - 0.5 * (b_c + c_c)) * (t.jz @ t.jz)
        + 0.25 * (b_c - c_c) * (t.jplus_m @ t.jplus_m + t.jminus_m @ t.jminus_m)
    )
    return 0.5 * (h + h.T)


def _wang_label(j: int, kabs: int, sign: int) -> str:
    if kabs == 0:
        return f"|{j},0,0>"
    return f"|{j},{kabs},0,{'+' if sign > 0 else '-'}>"


def _wang_transform(j: int):
    """Columns of the Wang transform, with (|k|, parity) labels.

    Column order: k = 0 first, then ascending |k| with + before -.
    """
    dim = 2 * j + 1
    idx = {k: k + j for k in range(-j, j + 1)}
    cols = []
    labels = []
    e0 = np.zeros(dim)
    e0[idx[0]] = 1.0
    cols.append(e0)
    labels.append((0, +1))
    for kabs in range(1, j + 1):
        for sign in (+1, -1):
            v = np.zeros(dim)
            v[idx[kabs]] = 1.0 / math.sqrt(2.0)
            v[idx[-kabs]] = sign / math.sqrt(2.0)
            cols.append(v)
            labels.append((kabs, sign))
    return np.column_stack(cols), labels


def wang_blocks(h: np.ndarray, j: int) -> list:
    """Parity-adapted blocks of an asymmetric-top J Hamiltonian.

    The Wang combinations (|J,k,0> +- |J,-k,0>)/sqrt(2) decouple even from
    odd k and + from - parity, leaving the four blocks E+, E-, O+, O-.
    """
    h = np.asarray(h, dtype=float)
    dim = 2 * j + 1
    if h.shape != (dim, dim):
        raise InvalidQuantumNumbers(f"Hamiltonian shape {h.shape} does not match J={j}")
    w, labels = _wang_transform(j)
    hw = w.T @ h @ w

    def block_class(kabs, sign):
        even = kabs % 2 == 0
        return ("E" if even else "O") + ("+" if sign > 0 else "-")

    blocks = []
    for cls in ("E+", "E-", "O+", "O-"):
        sel = [i for i, (kabs, sign) in enumerate(labels) if block_class(kabs, sign) == cls]
        if not sel:
            blocks.append(
                AsymTopBlock(
                    j=j,
                    parity_class=cls,
                    basis=(),
                    hmatrix=np.zeros((0, 0)),
                    eigenvalues=np.zeros(0),
                    eigenvectors=np.zeros((0, 0)),
                )
            )
            continue
        sub = hw[np.ix_(sel, sel)]
        vals, vecs = np.linalg.eigh(sub)
        blocks.append(
            AsymTopBlock(
                j=j,
                parity_class=cls,
                basis=tuple(_wang_label(j, *labels[i]) for i in sel),
                hmatrix=sub,
                eigenvalues=vals,
                eigenvectors=vecs,
            )
        )
    return blocks


def cross_block_residual(h: np.ndarray, j: int) -> float:
    """Largest Wang-basis matrix element between different parity blocks."""
    w, labels = _wang_transform(j)
    hw = w.T @ np.asarray(h, dtype=float) @ w
    classes = [("E" if kabs % 2 == 0 else "O") + ("+" if s > 0 else "-") for kabs, s in labels]
    worst = 0.0
    for i, ci in enumerate(classes):
        for k, ck in enumerate(classes):
            if ci != ck:
                worst = max(worst, abs(hw[i, k]))
    return worst


def asymmetric_levels(spec: RotorSpec, j_max: int) -> list:
    """All rotor levels up to j_max, each with its 2J+1 m-degeneracy.

    Within one J the block eigenvalues are merged in ascending order;
    labels keep the parity class and the level's index inside its block.
    Raises NonFiniteLevels when a Hamiltonian or a level is not finite.
    """
    if j_max < 0:
        raise InvalidQuantumNumbers(f"j_max = {j_max} < 0")
    levels = []
    for j in range(j_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            h = asymmetric_hamiltonian(spec, j)
        # H couples k only to k and k +- 2, so two diagonals hold all of it
        if not (np.isfinite(h.diagonal()).all() and np.isfinite(h.diagonal(2)).all()):
            raise NonFiniteLevels(f"rotor Hamiltonian for J = {j} is not finite")
        entries = []
        for block in wang_blocks(h, j):
            if not np.isfinite(block.eigenvalues).all():
                raise NonFiniteLevels(f"rotor levels for J = {j} are not finite")
            for idx, e in enumerate(block.eigenvalues):
                entries.append((float(e), block.parity_class, idx))
        entries.sort(key=lambda t: (t[0], t[1], t[2]))
        for e, cls, idx in entries:
            levels.append(
                RotorLevel(
                    j=j,
                    parity_class=cls,
                    index=idx,
                    energy=e,
                    degeneracy=2 * j + 1,
                )
            )
    return levels


def rotor_spec_from_inertia(constants_abc) -> Optional[RotorSpec]:
    """RotorSpec from (A, B, C) allowing the linear-rotor infinite A."""
    a, b, c = constants_abc
    if math.isinf(a) and math.isfinite(b) and math.isfinite(c):
        return classify(0.0, b, c)
    if any(math.isinf(v) for v in (a, b, c)):
        return None
    return classify(a, b, c)
