"""Rigid-rotor solver.

Symmetric tops have the closed-form energy B J(J+1) + (A-B) k^2, rederived
here through the Frobenius series of the polar equation whose truncation
quantizes the spectrum.  Asymmetric tops are solved in the symmetric-top
|J,k> basis, where H couples k only to k +- 2: each of the Wang parity
blocks E+/E-/O+/O- of a J manifold is tridiagonal, so each block is built
as its two diagonals straight from the two diagonals of H; asymmetric_levels
packs the blocks of every J into one array.  The levels are the blocks'
eigenvalues, returned as `RotorLevels`: arrays of J, parity-class code,
in-block index and energy (degeneracy 2J+1) that index as `RotorLevel`
views, ordered by a stable sort on (J, energy) of the packed (J, class,
index) order.  They come from LAPACK's root-free tridiagonal QL/QR, dsterf,
called through ctypes in the OpenBLAS library that numpy's wheel ships, on
the calling thread and, for large J ranges on two or more CPUs, one helper
thread; each block's values do not depend on the thread that solves it.
np.linalg.eigvalsh scales a matrix outside a safe range, reduces it to
tridiagonal form and runs the same dsterf.  Here every block takes one
dsterf path: a block outside that range is scaled inside the packed array
first and its eigenvalues are scaled back after, so the levels equal
eigvalsh's to the bit.  dsterf calls no BLAS, so they cannot depend on the
BLAS thread count.  Where numpy's build has no dsterf, dense eigvalsh runs,
on one thread, and gives the same bytes.  A linear rotor has one level,
B J(J+1), per J.  Symmetric-top
wavefunctions use Wigner's d in Jacobi-polynomial form.  All energies are
in the units of the rotational constants (cm^-1 by convention); hbar is
absorbed into them.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _host
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

    One zero or infinite constant flags a linear rotor, (inf, B, B): its axial
    moment is zero, so A is exactly infinite.  Otherwise all constants must be
    positive and finite.  Equalities are detected at 1e-9 relative tolerance.
    """
    vals = sorted((float(a), float(b), float(c)), reverse=True)
    if any(v < 0 or math.isnan(v) for v in vals):
        raise NonPositiveConstant(f"invalid rotational constants {vals}")
    finite = [v for v in vals if 0 < v < math.inf]
    tol = CLASSIFY_RTOL * max(finite) if finite else 0.0
    if len(finite) < 3:
        # one zero or infinite constant and a degenerate positive pair
        if len(finite) == 2 and finite[0] - finite[1] <= tol:
            return RotorSpec(math.inf, *finite, "linear")
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
    unique = {"prolate-symmetric": spec.a_const, "oblate-symmetric": spec.c_const,
              "spherical": b, "linear": b}.get(spec.classification)  # linear: A = inf
    if unique is None:
        raise NotSymmetricTop(f"{spec.classification} rotor has no closed form")
    if spec.classification == "linear" and k != 0:
        raise InvalidQuantumNumbers("a linear rotor only carries k = 0")
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


def _diagonal(spec: RotorSpec, jj, k):
    """H[k, k] = (B+C)/2 J(J+1) + [A - (B+C)/2] k^2, for jj = J(J+1) and k as floats."""
    a_c, b_c, c_c = spec.a_const, spec.b_const, spec.c_const
    return 0.5 * (b_c + c_c) * jj + (a_c - 0.5 * (b_c + c_c)) * (k * k)


def _coupling(spec: RotorSpec, jj, k):
    """H[k, k+2] = (B-C)/4 sqrt(J(J+1) - (k+2)(k+1)) sqrt(J(J+1) - (k+1)k), as _diagonal."""
    return 0.25 * (spec.b_const - spec.c_const) * (
        np.sqrt(jj - (k + 2) * (k + 1)) * np.sqrt(jj - (k + 1) * k)
    )


def _band(spec: RotorSpec, j: int):
    """The two diagonals of the J Hamiltonian, indexed by k + J.

    d[k + J] = H[k, k] for k = -J..J and o[k + J] = H[k, k+2] for k = -J..J-2;
    every other element of H is zero.
    """
    jj = float(j * (j + 1))
    ks = np.arange(-j, j + 1, dtype=float)
    return _diagonal(spec, jj, ks), _coupling(spec, jj, ks[:-2])


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
    """The Wang blocks E+, E-, O+, O- of one J, as bands read from the band of H.

    In the basis (|J,k,0> +- |J,-k,0>)/sqrt(2) (|J,0,0> alone in E+), each
    block is tridiagonal over its |k| values in ascending order, with the
    diagonal d_k and the coupling o_k between |k| and |k|+2.  Two elements
    differ: |0> couples to |2,+> with sqrt(2) o_0, and the |1,+-> diagonal
    is d_1 +- H[1,-1].  Returns (parity class, lowest |k|, diagonal,
    off-diagonal) per block.
    """
    blocks = []
    for cls, start in zip(PARITY_CLASSES, (0, 2, 1, 1)):
        diag, off = d[j + start :: 2].copy(), o[j + start :: 2].copy()
        if start == 0 and j >= 2:
            off[0] = math.sqrt(2.0) * o[j]
        elif start == 1 and j >= 1:
            diag[0] += o[j - 1] if cls == "O+" else -o[j - 1]
        blocks.append((cls, start, diag, off))
    return blocks


def _dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with the given diagonal and off-diagonal."""
    h = np.diag(diag)
    rows = np.arange(off.size)
    h[rows, rows + 1] = h[rows + 1, rows] = off
    return h


# dsyevd's scaling range: sqrt(safe minimum / precision) and its inverse
_RMIN = math.sqrt(sys.float_info.min / sys.float_info.epsilon)
_RMAX = 1.0 / _RMIN
# Work, in the sum of n^2 over the blocks, from which asymmetric_levels runs
# dsterf on a helper thread too.  Measured on a 2-core host with (A, B, C) =
# (27.88, 14.51, 9.28): the split cost 0.4-0.5 ms more than it saved at
# jmax 40-45 (2.3e4-3.2e4), broke even near jmax 55-60 (5.9e4-7.6e4) and
# saved 11 % at jmax 70 (1.2e5), 38 % at jmax 200 (2.7e6).  jmax 5 gives 68.
_SPLIT_WORK = 100_000


@functools.cache
def _dsterf(libs=None, symbol: str = "scipy_dsterf_64_"):
    """LAPACK's dsterf(n, d, e, info), every argument an address and n and
    info 64-bit integers, from _host.openblas(libs), looked up on the first
    rotor call.  None when the library or the symbol is missing, as on other
    builds."""
    import ctypes

    fn = getattr(_host.openblas(libs), symbol, None)
    if fn is None:
        return None
    fn.argtypes = [ctypes.c_void_p] * 4
    fn.restype = None
    return fn


def _sterf(dsterf, sizes, diags) -> None:
    """Run dsterf in place on each block: sizes[i] diagonal values from the
    address diags[i] on, the off-diagonal right after them.  Each diagonal
    becomes its block's ascending eigenvalues.  It calls nothing but dsterf,
    which ctypes runs without the GIL, so a helper thread may run it."""
    import ctypes

    n, info = ctypes.c_int64(), ctypes.c_int64()
    n_at, info_at = ctypes.byref(n), ctypes.byref(info)
    for size, diag in zip(sizes, diags):
        n.value = size
        dsterf(n_at, diag, diag + 8 * size, info_at)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _sterf_split(dsterf, sizes: np.ndarray, diags: np.ndarray) -> None:
    """_sterf on the blocks, split into two halves of equal sum n^2 run on
    this thread and one helper thread when the process may use two CPUs and
    the blocks carry _SPLIT_WORK; each block's values do not depend on the
    split.  The helper is always joined, and its exception re-raised."""
    work = np.cumsum(sizes * sizes)
    if not work.size or work[-1] < _SPLIT_WORK or _host.usable_cpus() < 2:
        _sterf(dsterf, sizes.tolist(), diags.tolist())
        return
    import threading  # logging has loaded it

    half = int(np.searchsorted(work, work[-1] / 2))
    helper_sizes, helper_diags = sizes[half:].tolist(), diags[half:].tolist()
    failures = []

    def helper():
        try:
            _sterf(dsterf, helper_sizes, helper_diags)
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        _sterf(dsterf, sizes[:half].tolist(), diags[:half].tolist())
    finally:
        thread.join()
    if failures:
        raise failures[0]


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
    for cls, start, diag, off in _parity_blocks(h.diagonal(), h.diagonal(2), j):
        sign = 1 if cls.endswith("+") else -1
        sub = _dense(diag, off)
        vals, vecs = np.linalg.eigh(sub)
        blocks.append(
            AsymTopBlock(
                j=j,
                parity_class=cls,
                basis=tuple(_wang_label(j, k, sign) for k in range(start, j + 1, 2)),
                hmatrix=sub,
                eigenvalues=vals,
                eigenvectors=vecs,
            )
        )
    return blocks


def _ramps(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[0] - 1, then 0, 1, ..., counts[1] - 1, and so on."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def asymmetric_levels(spec: RotorSpec, j_max: int) -> RotorLevels:
    """All rotor levels up to j_max, each with its 2J+1 m-degeneracy.

    A linear rotor has one level per J, E+ with index 0, at B J(J+1): the
    k = 0 level of symmetric_top_energy.  For any other rotor the Wang blocks
    E+, E-, O+, O- of every J are built as bands, with _parity_blocks'
    elements, in one array: each block's diagonal, then its off-diagonal, in
    the order (J, parity class).  Only their eigenvalues are computed, by
    eigvalsh's own steps: every block of two rows or more goes to dsterf in
    place, on up to two threads (_sterf_split); a block outside dsyevd's
    scaling range is scaled by sigma before and its eigenvalues by 1 / sigma
    after.  Without dsterf, eigvalsh runs on each dense block.  A stable sort
    by (J, energy) then orders the levels by J, energy, parity class and
    index inside the block.  Raises NonFiniteLevels when the band of H or a
    level is not finite, naming the lowest such J.
    """
    if j_max < 0:
        raise InvalidQuantumNumbers(f"j_max = {j_max} < 0")
    if spec.classification == "linear":
        j = np.arange(j_max + 1)
        with np.errstate(over="ignore"):  # checked just below
            energy = spec.b_const * j * (j + 1)
        if not np.isfinite(energy[-1]):
            j_bad = np.argmin(np.isfinite(energy))
            raise NonFiniteLevels(f"rotor levels for J = {j_bad} are not finite")
        return RotorLevels(j, np.zeros(j.size, np.int8), np.zeros_like(j), energy)
    js = np.arange(j_max + 1).repeat(4)  # E+, E-, O+, O- of each J
    start = np.tile([0, 2, 1, 1], j_max + 1)  # each block's lowest |k|
    size = (js - start) // 2 + 1
    width = np.maximum(2 * size - 1, 0)
    at = np.cumsum(width) - width  # where each block starts
    # one level per diagonal element, at |k| = start + 2 index
    j = np.repeat(js, size)
    index = _ramps(size)
    diagonal = np.repeat(at, size) + index
    # the couplings of |k| = start + 2 i to |k| + 2, after the diagonal
    couplings = np.maximum(size - 1, 0)
    i = _ramps(couplings)
    off = np.repeat(at + size, couplings) + i
    jj = js * (js + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        band = np.empty(width.sum())
        band[diagonal] = _diagonal(spec, np.repeat(jj, size),
                                   np.repeat(start, size) + 2.0 * index)
        band[off] = _coupling(spec, np.repeat(jj, couplings),
                              np.repeat(start, couplings) + 2.0 * i)
        h1 = _coupling(spec, jj[4::4], -1.0)  # H[-1, 1] of J = 1..j_max
        finite = np.isfinite(band)
        j_bad = j_max + 1  # the lowest J whose band of H is not finite
        if not (finite.all() and np.isfinite(h1).all()):
            j_bad = min(np.min(j[~finite[diagonal]], initial=j_bad),
                        np.min(np.repeat(js, couplings)[~finite[off]], initial=j_bad),
                        np.min(np.flatnonzero(~np.isfinite(h1)) + 1, initial=j_bad))
        band[at[8::4] + size[8::4]] *= math.sqrt(2.0)  # E+ of J >= 2: <0|H|2,+>
        band[at[6::4]] += h1  # O+ of J >= 1: d_1 + H[1,-1]
        band[at[7::4]] -= h1  # O- of J >= 1: d_1 - H[1,-1]
        nonempty = size > 0
        anrm = np.zeros(size.size)
        anrm[nonempty] = np.maximum.reduceat(np.abs(band), at[nonempty])
    # the blocks of every J below j_bad
    solve = (size >= 2) & (js < j_bad)
    dsterf = _dsterf()
    if dsterf is None:
        for b in np.flatnonzero(solve):
            first, n = at[b], size[b]
            band[first : first + n] = np.linalg.eigvalsh(
                _dense(band[first : first + n], band[first + n : first + 2 * n - 1]))
    else:
        # dsyevd's own steps: a block outside its scaling range is scaled by
        # sigma before dsterf, and its eigenvalues by 1 / sigma after
        low = solve & (0 < anrm) & (anrm < _RMIN)
        scaled = low | solve & (anrm > _RMAX)
        sigma = np.where(low, _RMIN, _RMAX)[scaled] / anrm[scaled]
        first, n, w = at[scaled], size[scaled], width[scaled]
        band[np.repeat(first, w) + _ramps(w)] *= np.repeat(sigma, w)
        _sterf_split(dsterf, size[solve], band.ctypes.data + 8 * at[solve])
        with np.errstate(over="ignore"):  # checked just below
            band[np.repeat(first, n) + _ramps(n)] *= np.repeat(1.0 / sigma, n)
    energy = band[diagonal[: np.searchsorted(j, j_bad)]]
    finite = np.isfinite(energy)
    if not finite.all():
        j_bad = j[: energy.size][~finite].min()
        raise NonFiniteLevels(f"rotor levels for J = {j_bad} are not finite")
    if j_bad <= j_max:
        raise NonFiniteLevels(f"rotor Hamiltonian for J = {j_bad} is not finite")
    code = np.repeat(np.tile(np.arange(4, dtype=np.int8), j_max + 1), size)
    order = np.lexsort((energy, j))
    return RotorLevels(j[order], code[order], index[order], energy[order])


def rotor_spec_from_inertia(constants_abc) -> Optional[RotorSpec]:
    """classify(A, B, C), or None when more than one constant is infinite."""
    if sum(map(math.isinf, constants_abc)) > 1:
        return None
    return classify(*constants_abc)
