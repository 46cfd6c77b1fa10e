"""Symmetric quadratic-form machinery.

Fractional matrix powers, positive-definiteness tests and the simultaneous
diagonalization of two quadratic forms (the generic operation behind every
normal-mode solve in this package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYMMETRIZE_TOL = 1e-12
DEGENERACY_RTOL = 1e-8
SIGN_TOL = 1e-12


class QuadformError(ValueError):
    """Base class for quadratic-form failures."""


class NegativeEigenvalueNonIntegerPower(QuadformError):
    """Non-integer power requested for a matrix with a negative eigenvalue."""


class SingularNonPositivePower(QuadformError):
    """Non-positive power requested for a singular matrix."""


class NotPositiveDefinite(QuadformError):
    """A positive-definite matrix was required."""


class DimensionMismatch(QuadformError):
    """Operand dimensions are inconsistent."""


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix.

    The stored array is symmetrized by averaging on construction and made
    read-only; instances are safe to share between threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("dimension must be at least 1")
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.entries, dtype=dtype, copy=True)
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True, eq=False)
class PairDiagonalization:
    """Result of diagonalizing the pair (g, gtilde).

    beta columns are g-orthonormal and diagonalize gtilde; lambdas are the
    characteristic values in ascending order, grouped into degenerate
    subspaces by `multiplicities`.
    """

    beta: np.ndarray
    lambdas: np.ndarray
    multiplicities: np.ndarray = field(default=None)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        lambdas = np.array(self.lambdas, dtype=float)
        mult = (
            np.array(self.multiplicities, dtype=int)
            if self.multiplicities is not None
            else np.ones(lambdas.size, dtype=int)
        )
        if np.any(np.diff(lambdas) < -1e-12 * max(1.0, np.abs(lambdas).max())):
            raise QuadformError("lambdas must be ascending")
        if mult.sum() != lambdas.size:
            raise DimensionMismatch("multiplicities do not partition the spectrum")
        for arr in (beta, lambdas, mult):
            arr.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "multiplicities", mult)


def matrix_power(a: SymMatrix, gamma: float) -> SymMatrix:
    """Power of a symmetric matrix through its orthonormal eigenbasis.

    Returns beta D**gamma beta^-1.  Negative eigenvalues are only allowed
    for (positive) integer powers, zero eigenvalues only for gamma > 0.
    """
    vals, vecs = np.linalg.eigh(a.entries)
    scale = max(1.0, np.abs(vals).max())
    gamma_is_int = float(gamma).is_integer()
    if vals.min() < -SYMMETRIZE_TOL * scale and not gamma_is_int:
        raise NegativeEigenvalueNonIntegerPower(
            f"eigenvalue {vals.min():.3e} < 0 with gamma = {gamma}"
        )
    if np.any(np.abs(vals) < SYMMETRIZE_TOL * scale) and gamma <= 0:
        raise SingularNonPositivePower(
            f"singular matrix with non-positive gamma = {gamma}"
        )
    if gamma_is_int:
        powered = vals**int(gamma)
    else:
        powered = vals**float(gamma)
    return SymMatrix((vecs * powered) @ vecs.T)


def is_positive_definite(a: SymMatrix) -> bool:
    """True unless `require_positive_definite` rejects a's eigenvalues.

    Matrices positive-definite only within 1e-12 * max(1, max |a_ij|) of
    singular report False.
    """
    try:
        require_positive_definite(np.linalg.eigvalsh(a.entries), a, "matrix")
    except NotPositiveDefinite:
        return False
    return True


def _group_degenerate(lambdas: np.ndarray) -> list:
    """Partition ascending eigenvalues into near-degenerate groups."""
    tol = DEGENERACY_RTOL * max(np.abs(lambdas).max(), 1e-300)
    groups = [[0]]
    for i in range(1, lambdas.size):
        if lambdas[i] - lambdas[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def require_positive_definite(eigenvalues, a: SymMatrix, what: str) -> None:
    """Raise NotPositiveDefinite unless every eigenvalue of `a` exceeds
    1e-12 * max(1, max |a_ij|): the one positive-definiteness criterion."""
    scale = max(1.0, np.abs(a.entries).max())
    if np.min(eigenvalues) <= SYMMETRIZE_TOL * scale:
        raise NotPositiveDefinite(f"{what} is not positive definite")


def canonical_eigenbasis(w: np.ndarray, t: np.ndarray):
    """Eigenpairs (pair, eta) of the symmetric operator w, with pair.beta = t eta.

    Column conventions are read off beta: inside a degenerate group the
    columns are ordered by the position of their first significant entry,
    and each column's sign makes that entry positive.  eta gets the same
    order and signs, so it stays orthonormal.
    """
    lambdas, eta = np.linalg.eigh(w)
    beta = t @ eta
    groups = _group_degenerate(lambdas)
    order = np.arange(lambdas.size)
    for grp in groups:
        if len(grp) > 1:
            cols = np.abs(beta[:, grp])
            first = np.argmax(cols > 1e-8 * max(cols.max(), 1e-300), axis=0)
            order[grp] = np.asarray(grp)[np.argsort(first, kind="stable")]
    eta, beta = eta[:, order], beta[:, order]
    mag = np.abs(beta)
    lead = np.argmax(mag > SIGN_TOL * np.maximum(mag.max(axis=0), 1e-300), axis=0)
    signs = np.where(beta[lead, np.arange(beta.shape[1])] < 0, -1.0, 1.0)
    mult = np.array([len(grp) for grp in groups], dtype=int)
    pair = PairDiagonalization(beta=beta * signs, lambdas=lambdas, multiplicities=mult)
    return pair, eta * signs


def simultaneous_diagonalize(g: SymMatrix, gtilde: SymMatrix) -> PairDiagonalization:
    """Simultaneously diagonalize the pair of quadratic forms (g, gtilde).

    g must be positive definite.  The solve goes through the symmetric
    operator W = g^{-1/2} gtilde g^{-1/2} rather than the (generally
    unsymmetric, possibly defective) product g^-1 gtilde; one eigh of g
    supplies both the definiteness test and g^{-1/2}.  Returned beta
    satisfies beta^T g beta = 1 and beta^T gtilde beta = diag(lambdas).
    """
    if g.dim != gtilde.dim:
        raise DimensionMismatch(f"dims differ: {g.dim} vs {gtilde.dim}")
    vals, vecs = np.linalg.eigh(g.entries)
    require_positive_definite(vals, g, "metric g")
    g_inv_half = (vecs / np.sqrt(vals)) @ vecs.T
    pair, _ = canonical_eigenbasis(g_inv_half @ gtilde.entries @ g_inv_half, g_inv_half)
    return pair
