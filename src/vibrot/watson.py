"""Coriolis and Watson-Hamiltonian diagnostics.

Everything here is c-number data attached to a set of mass-weighted
Cartesian mode vectors l (shape 3N x n_vib, orthonormal columns): zeta
constants, inertia-derivative coefficients, the Watson sum rules, the
I0 / I'' / I' / mu tensor family and the U pseudo-potential.

The zeta constants are accumulated atom by atom: for the mode pairs k < l
of a slab of rows k, and all three axes at once, the per-atom term
u_k v_l - v_k u_l (one cross-product component for every pair) is added in
atom order, starting from +0.0; the lower triangle is its exact negation.
That is how numpy sums per-pair cross products over atoms, so the result is
bit-identical to such a loop, signed zeros included.  The matrix-product
form X_p^T X_q - X_q^T X_p is not used: BLAS reorders its sums, which
changes the last printed digits of the report.  The matching test oracle
uses an independent permutation-sum implementation.

The inertia derivatives are a_k = c l_k, with c the (9 x 3N) inertia
gradient of the equilibrium geometry.  Eckart modes are complete in the
vibrational subspace, sum_n l_n l_n^T = 1 - T T^T - R R^T with T and R the
mass-weighted translations and rotations (Watson, Mol. Phys. 15, 479 (1968);
Meal & Polo, J. Chem. Phys. 24, 1119 (1956)), and c T = 0 about the centre of
mass.  Rule 2, sum_k a_k^ab a_k^gd = c^ab (1 - R R^T) c^gd, and rule 3,
sum_n zeta^g_kn a_n^ab = l_k^T E_g (1 - R R^T) c^ab with E_g the per-atom
cross product's g component, are therefore identities for Eckart modes.
Each term of rule 1 is one (3n x 3n) BLAS product: its max-abs residual
moves only at roundoff with the summation order.  The geometry about the
centre of mass, I0, R and the pseudo-inverse of I0 all come from the
equilibrium frame molecule.inertia(mol).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constants
from .molecule import Molecule, inertia
from .quadform import DimensionMismatch

ORTHONORMAL_TOL = 1e-8
SINGULAR_TOL = 1e-12

# axis alpha's cross-product component is the (p, q) pair's u_p v_q - u_q v_p
_AXIS_PAIRS = ((1, 2), (2, 0), (0, 1))
# Rows k of zeta summed at a time.  A slab's sum and its two product arrays
# are 3 x 64 x n doubles, 450 kB at n = 294, which stay in a 2-core x86
# host's cache: for 100 atoms, 294 modes, slabs of 32-64 rows took 32-33 ms,
# 16 rows 39 ms (more calls), 96-128 rows 39-49 ms and one slab of every row
# 77 ms.
ZETA_SLAB_ROWS = 64


class WatsonError(ValueError):
    pass


def _maxabs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


class NonOrthonormalL(WatsonError):
    """The supplied l matrix does not have orthonormal columns."""


class SingularInertia(WatsonError):
    """I''(Q) is not invertible at the requested normal coordinates."""


@dataclass(frozen=True, eq=False)
class CoriolisData:
    """Coriolis zeta constants and, optionally, inertia derivatives.

    zeta[alpha, k, l] is antisymmetric in (k, l) by construction;
    a_coeff[k, alpha, beta] is symmetric in (alpha, beta).
    """

    zeta: np.ndarray
    a_coeff: Optional[np.ndarray] = None

    @property
    def n_modes(self) -> int:
        return self.zeta.shape[1]


@dataclass(frozen=True, eq=False)
class InertiaExpansion:
    """Normal-coordinate expansion of the effective inertia tensors.

    i_dprime(Q) = I0 + (1/2) sum_k a_k Q_k is linear in Q;
    i_prime(Q) = I'' (I0)^-1 I'' and mu(Q) = i_prime(Q)^-1.
    """

    i0: np.ndarray
    a_coeff: np.ndarray

    def i_dprime(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.size != self.a_coeff.shape[0]:
            raise DimensionMismatch(
                f"expected {self.a_coeff.shape[0]} normal coordinates"
            )
        return self.i0 + 0.5 * np.einsum("kab,k->ab", self.a_coeff, q)

    def i_prime(self, q) -> np.ndarray:
        idp = self.i_dprime(q)
        return idp @ np.linalg.solve(self.i0, idp)

    def mu(self, q) -> np.ndarray:
        idp = self.i_dprime(q)
        scale = max(np.abs(idp).max(), 1e-300)
        if abs(np.linalg.det(idp)) <= SINGULAR_TOL * scale**3:
            raise SingularInertia("I''(Q) is singular")
        idp_inv = np.linalg.inv(idp)
        return idp_inv @ self.i0 @ idp_inv


@dataclass(frozen=True)
class SumRuleResiduals:
    """Max-abs deviations of the three Watson sum rules.

    Each rule is an identity for modes that span the Eckart vibrational
    subspace, so all three read roundoff there.
    """

    rule1: float
    rule2: float
    rule3: float


@dataclass(frozen=True, eq=False)
class EckartResiduals:
    """Per-mode deviations from the Eckart frame conditions."""

    translational: np.ndarray  # |sum_i sqrt(m_i) l_ik| per mode
    rotational: np.ndarray     # max over axis pairs per mode

    @property
    def max_translational(self) -> float:
        return float(self.translational.max())

    @property
    def max_rotational(self) -> float:
        return float(self.rotational.max())


def _shaped_l(mol: Molecule, l: np.ndarray) -> np.ndarray:
    l = np.asarray(l, dtype=float)
    if mol.dimensionality != 3:
        raise WatsonError("Watson diagnostics require a 3-dimensional molecule")
    if l.ndim != 2 or l.shape[0] != 3 * mol.natoms:
        raise DimensionMismatch(
            f"l must be (3N, n_vib) with N = {mol.natoms}, got {l.shape}"
        )
    return l.reshape(mol.natoms, 3, l.shape[1])


def coriolis_constants(l: np.ndarray) -> CoriolisData:
    """Zeta constants from an orthonormal l matrix (3N x n_vib).

    zeta[alpha, k, l] = sum_i (l_ik x l_il)_alpha; the diagonal vanishes
    and the (k, l) antisymmetry is exact by construction.

    Only the entries k < l are summed, ZETA_SLAB_ROWS rows k and all three
    axes at a time: per atom, the outer products P = u (x) v and Q = v (x) u
    of its (p, q) components, with P - Q added in atom order from +0.0.  The
    bits are those of a per-pair loop: each product is one rounding, and a
    zero product of the other sign would move no sum, since a sum that
    starts at +0.0 is never -0.0 and x + (+-0) = x for every other x.  Below
    the diagonal is the exact negation, signed zeros included.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] % 3:
        raise DimensionMismatch("l must be (3N, n_vib)")
    gram = l.T @ l
    if _maxabs(gram - np.eye(l.shape[1])) > ORTHONORMAL_TOL:
        raise NonOrthonormalL("l columns are not orthonormal")
    natoms = l.shape[0] // 3
    n = l.shape[1]
    shaped = l.reshape(natoms, 3, n)
    u = shaped[:, [p for p, _ in _AXIS_PAIRS]]  # (N, 3, n): row alpha is axis p's
    v = shaped[:, [q for _, q in _AXIS_PAIRS]]
    zeta = np.zeros((3, n, n))
    for first in range(0, n - 1, ZETA_SLAB_ROWS):
        # rows k of the slab against the columns l > first
        ks, ls = slice(first, min(first + ZETA_SLAB_ROWS, n - 1)), slice(first + 1, n)
        acc = np.zeros((3, ks.stop - first, n - first - 1))
        p_term, q_term = np.empty_like(acc), np.empty_like(acc)
        for i in range(natoms):
            np.einsum("ai,aj->aij", u[i, :, ks], v[i, :, ls], out=p_term)
            np.einsum("ai,aj->aij", v[i, :, ks], u[i, :, ls], out=q_term)
            p_term -= q_term
            acc += p_term
        upper = np.arange(acc.shape[2]) >= np.arange(acc.shape[1])[:, None]  # k < l
        np.copyto(zeta[:, ks, ls], acc, where=upper)
        np.negative(acc, out=zeta.transpose(0, 2, 1)[:, ks, ls], where=upper)
    return CoriolisData(zeta=zeta)


def _inertia_gradient(mol: Molecule) -> np.ndarray:
    """c[(alpha, beta), (i, t)] = sqrt(m_i) (2 d_ab r_it - d_bt r_ia - d_at r_ib),
    r about the centre of mass, so that a_k^{alpha beta} = c[(alpha, beta)] l_k."""
    r = inertia(mol).com_positions * np.sqrt(mol.masses)[:, None]
    c = np.zeros((3, 3, mol.natoms, 3))
    for t in range(3):
        c[t, t] += 2.0 * r
        c[t, :, :, t] -= r.T
        c[:, t, :, t] -= r.T
    return c.reshape(9, 3 * mol.natoms)


def interaction_coefficients(mol: Molecule, l: np.ndarray) -> np.ndarray:
    """Derivatives a[k, alpha, beta] = (dI_alpha_beta / dQ_k) at equilibrium.

    Geometry is taken relative to the center of mass; a_k is the inertia
    gradient applied to mode k, symmetric in (alpha, beta).
    """
    shaped = _shaped_l(mol, l)
    n = shaped.shape[2]
    return (_inertia_gradient(mol) @ shaped.reshape(3 * mol.natoms, n)).T.reshape(n, 3, 3)


def coriolis_data(mol: Molecule, l: np.ndarray) -> CoriolisData:
    """CoriolisData with both zeta constants and interaction coefficients."""
    zeta = coriolis_constants(l).zeta
    return CoriolisData(zeta=zeta, a_coeff=interaction_coefficients(mol, l))


def inertia_expansion(
    mol: Molecule, l: np.ndarray, a_coeff: Optional[np.ndarray] = None
) -> InertiaExpansion:
    """I0 about the COM plus the linear inertia derivatives for the modes.

    a_coeff, when given, is interaction_coefficients(mol, l) computed
    already (for example CoriolisData.a_coeff) and is used as it is.
    """
    if a_coeff is None:
        a_coeff = interaction_coefficients(mol, l)
    return InertiaExpansion(i0=inertia(mol).tensor, a_coeff=a_coeff)


def watson_u(ie: InertiaExpansion, q, unit_mode: str = "cm") -> float:
    """Watson pseudo-potential U = -(hbar^2 / 8) Tr mu(Q), inertia in amu
    Angstrom^2; natural takes hbar = 1, cm gives wavenumbers."""
    factor = constants.unit_factors(unit_mode)[1]
    return -factor * float(np.trace(ie.mu(q)))


def sum_rule_residuals(
    cd: CoriolisData, mol: Molecule, l: np.ndarray
) -> SumRuleResiduals:
    """Evaluate both sides of the Watson sum rules and report deviations.

    All three rules are exact identities for modes that span the Eckart
    vibrational subspace and drop to roundoff there.  Rule 1's terms are
    (3n x 3n) products, formed one (n x 3n) row block at a time: Z Z^T (Z =
    zeta as 3n x n), M^T M (M = l as N x 3n, its axis indices crossed) and
    a_k (I0)^-1 a_l.  Rules 2 and 3 take the completeness forms of the
    module docstring.
    """
    shaped = _shaped_l(mol, l)
    if cd.zeta.shape[1] != shaped.shape[2]:
        raise DimensionMismatch("CoriolisData and l disagree on the mode count")
    a = cd.a_coeff if cd.a_coeff is not None else interaction_coefficients(mol, l)
    zeta = cd.zeta
    n = shaped.shape[2]
    frame = inertia(mol)

    # rule 1: sum_n zeta[a,k,n] zeta[b,l,n]
    #         = d_ab d_kl - sum_i l[b,i,k] l[a,i,l] - (1/4) a_k (I0)^-1 a_l,
    # each term a (3n x 3n) product with rows (a, k) and columns (b, l),
    # built one row block a at a time as (k, b, l)
    z = zeta.reshape(3 * n, n)
    flat = shaped.reshape(shaped.shape[0], 3 * n)
    a_pinv = a @ frame.tensor_pinv
    a_rows = a.transpose(1, 0, 2).reshape(3, 3 * n)
    diag = np.arange(n)
    rule1 = 0.0
    for alpha in range(3):
        cols = slice(alpha * n, (alpha + 1) * n)
        resid1 = (z[cols] @ z.T).reshape(n, 3, n)
        # the overlap's axis indices are crossed: (a, k, b, l) sits at [b, k, a, l]
        resid1 += (flat.T @ flat[:, cols]).reshape(3, n, n).transpose(1, 0, 2)
        resid1 += 0.25 * (a_pinv[:, alpha] @ a_rows).reshape(n, n, 3).transpose(0, 2, 1)
        resid1[diag, alpha, diag] -= 1.0
        rule1 = max(rule1, _maxabs(resid1))

    c = _inertia_gradient(mol)
    # R: orthonormal mass-weighted rotations, 2 for a linear molecule
    rot = (frame.rotation_rows / np.sqrt(mol.masses)[:, None]).reshape(-1, 3 * mol.natoms).T
    vib = c.T - rot @ (rot.T @ c.T)  # (1 - R R^T) c^T
    a9 = a.reshape(n, 9)

    # rule 2: sum_k a_k^ab a_k^gd = c^ab (1 - R R^T) c^gd
    rule2 = _maxabs(a9.T @ a9 - c @ vib)

    # rule 3: sum_n zeta^g_kn a_n^ab = l_k^T E_g (1 - R R^T) c^ab
    vib = vib.reshape(mol.natoms, 3, 9)
    resid3 = zeta @ a9
    for gamma, (p, q) in enumerate(_AXIS_PAIRS):
        resid3[gamma] -= shaped[:, p].T @ vib[:, q] - shaped[:, q].T @ vib[:, p]
    rule3 = _maxabs(resid3)
    return SumRuleResiduals(rule1=rule1, rule2=rule2, rule3=rule3)


def eckart_conditions_check(mol: Molecule, l: np.ndarray) -> EckartResiduals:
    """Residuals of the translational and rotational Eckart conditions.

    translational[k] = |sum_i sqrt(m_i) l_ik|;
    rotational[k] = max over axis pairs of
    |sum_i sqrt(m_i) (r0_ia l_bik - r0_ib l_aik)|.
    """
    shaped = _shaped_l(mol, l)
    sqm = np.sqrt(mol.masses)
    trans_vec = np.einsum("i,iak->ak", sqm, shaped)
    translational = np.linalg.norm(trans_vec, axis=0)
    s = np.einsum("i,ia,ibk->abk", sqm, inertia(mol).com_positions, shaped)
    rotational = np.abs(s - s.transpose(1, 0, 2)).max(axis=(0, 1))
    return EckartResiduals(translational=translational, rotational=rotational)
