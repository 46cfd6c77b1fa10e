"""Body-frame machinery: zyz' Euler rotations, momentum maps, Eckart embedding.

The rotation convention: phi about space z, theta about the intermediate y,
chi about the body z'.  rotation_zyz returns the direction-cosine matrix
taking space-fixed vector components to body-fixed ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .molecule import Molecule, inertia
from .quadform import DimensionMismatch

GIMBAL_TOL = 1e-10
PODOLSKY_GIMBAL_TOL = 1e-6
PODOLSKY_FD_STEP = 1e-6
ECKART_RESIDUAL_RTOL = 1e-6


class FramesError(ValueError):
    pass


class GimbalSingularity(FramesError):
    """theta too close to 0 or pi for the requested map."""


class NoConvergence(FramesError):
    """Eckart rotation could not be pinned down for this geometry."""


@dataclass(frozen=True)
class EulerAngles:
    """zyz' Euler angles, wrapped to phi, chi in [0, 2pi) and theta in [0, pi]."""

    phi: float
    theta: float
    chi: float

    def __post_init__(self):
        two_pi = 2.0 * math.pi
        phi, theta, chi = float(self.phi), float(self.theta), float(self.chi)
        theta = math.atan2(math.sin(theta), math.cos(theta))  # (-pi, pi]
        if theta < 0.0:
            # (phi, -theta, chi) and (phi+pi, theta, chi+pi) are the same frame.
            theta = -theta
            phi += math.pi
            chi += math.pi
        object.__setattr__(self, "phi", phi % two_pi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "chi", chi % two_pi)


def rotation_y(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_zyz(angles: EulerAngles) -> np.ndarray:
    """Direction-cosine matrix of the zyz' rotation (space -> body components).

    Equals rotation_z(chi).T @ rotation_y(theta).T @ rotation_z(phi).T, i.e.
    the inverses of the single-axis rotations applied in convention order.
    """
    cp, sp = math.cos(angles.phi), math.sin(angles.phi)
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    cc, sc = math.cos(angles.chi), math.sin(angles.chi)
    return np.array(
        [
            [ct * cp * cc - sp * sc, ct * sp * cc + cp * sc, -st * cc],
            [-ct * cp * sc - sp * cc, -ct * sp * sc + cp * cc, st * sc],
            [st * cp, st * sp, ct],
        ]
    )


def angles_from_rotation(r: np.ndarray) -> EulerAngles:
    """Euler angles reproducing a given direction-cosine matrix."""
    ct = float(np.clip(r[2, 2], -1.0, 1.0))
    theta = math.acos(ct)
    if math.sin(theta) > GIMBAL_TOL:
        phi = math.atan2(r[2, 1], r[2, 0])
        chi = math.atan2(r[1, 2], -r[0, 2])
    else:
        # Only phi + chi (theta ~ 0) or phi - chi (theta ~ pi) is defined.
        phi = 0.0
        if ct > 0:
            chi = math.atan2(r[0, 1], r[0, 0])
        else:
            chi = math.atan2(r[0, 1], -r[0, 0])
    return EulerAngles(phi=phi, theta=theta, chi=chi)


def omega_from_euler_rates(angles: EulerAngles, rates) -> np.ndarray:
    """Body-frame angular velocity from (theta_dot, phi_dot, chi_dot)."""
    theta_dot, phi_dot, chi_dot = (float(x) for x in rates)
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    sc, cc = math.sin(angles.chi), math.cos(angles.chi)
    return np.array(
        [
            sc * theta_dot - st * cc * phi_dot,
            cc * theta_dot + st * sc * phi_dot,
            ct * phi_dot + chi_dot,
        ]
    )


def euler_rates_from_omega(angles: EulerAngles, omega_body) -> tuple:
    """(theta_dot, phi_dot, chi_dot) reproducing a body-frame angular velocity."""
    st = math.sin(angles.theta)
    if st <= GIMBAL_TOL:
        raise GimbalSingularity(f"sin(theta) = {st:.3e} too small")
    ct = math.cos(angles.theta)
    sc, cc = math.sin(angles.chi), math.cos(angles.chi)
    wx, wy, wz = (float(x) for x in omega_body)
    theta_dot = sc * wx + cc * wy
    phi_dot = (-cc * wx + sc * wy) / st
    chi_dot = (ct / st) * (cc * wx - sc * wy) + wz
    return theta_dot, phi_dot, chi_dot


# -- momentum a-matrix ---------------------------------------------------------


def _euler_block_forward(angles: EulerAngles) -> np.ndarray:
    """3x3 block mapping (M_x, M_y, M_z) to (p_theta, p_phi, p_chi); det = sin(theta)."""
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    sc, cc = math.sin(angles.chi), math.cos(angles.chi)
    return np.array(
        [
            [sc, cc, 0.0],
            [-st * cc, st * sc, ct],
            [0.0, 0.0, 1.0],
        ]
    )


def _euler_block_inverse(angles: EulerAngles) -> np.ndarray:
    """3x3 block mapping (p_theta, p_phi, p_chi) to (M_x, M_y, M_z); det = 1/sin(theta)."""
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    sc, cc = math.sin(angles.chi), math.cos(angles.chi)
    csc = 1.0 / st
    cot = ct / st
    return np.array(
        [
            [sc, -csc * cc, cot * cc],
            [cc, csc * sc, -cot * sc],
            [0.0, 0.0, 1.0],
        ]
    )


@dataclass(frozen=True, eq=False)
class AMatrix:
    """Linear map between generalized momenta and angular momenta.

    entries takes (M_x, M_y, M_z, P_1..P_n) to (p_theta, p_phi, p_chi,
    P_1..P_n); the determinant of its Euler block is sin(theta).
    inverse_entries is the reverse map, Euler-block determinant 1/sin(theta).
    Both carry a zero lower-left block and an identity lower-right block.
    """

    entries: np.ndarray
    inverse_entries: np.ndarray
    n_vib: int

    @property
    def euler_block(self) -> np.ndarray:
        return self.entries[:3, :3]

    @property
    def inverse_euler_block(self) -> np.ndarray:
        return self.inverse_entries[:3, :3]


def build_a_matrix(angles: EulerAngles, tau: Optional[np.ndarray] = None) -> AMatrix:
    """Assemble the momentum map for given angles and Coriolis tau columns.

    tau has shape (3, n_vib); omitting it gives the purely rotational 3x3
    blocks.
    """
    st = math.sin(angles.theta)
    if st <= GIMBAL_TOL:
        raise GimbalSingularity(f"sin(theta) = {st:.3e} too small")
    if tau is None:
        tau = np.zeros((3, 0))
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 2 or tau.shape[0] != 3:
        raise DimensionMismatch("tau must have shape (3, n_vib)")
    n = tau.shape[1]
    fwd_e = _euler_block_forward(angles)
    inv_e = _euler_block_inverse(angles)

    entries = np.zeros((3 + n, 3 + n))
    entries[:3, :3] = fwd_e
    entries[:3, 3:] = fwd_e @ tau
    entries[3:, 3:] = np.eye(n)

    inverse = np.zeros((3 + n, 3 + n))
    inverse[:3, :3] = inv_e
    inverse[:3, 3:] = -tau
    inverse[3:, 3:] = np.eye(n)
    return AMatrix(entries=entries, inverse_entries=inverse, n_vib=n)


def podolsky_condition_residual(angles: EulerAngles) -> float:
    """Numerical check of the Podolsky consistency condition.

    Evaluates -cos(theta)/sin^2(theta)
    + (1/sin(theta)) sum_ij ainv[j,i] d_i(colsum_j) with the derivatives of
    the a-matrix column sums taken by central finite differences in
    (theta, phi, chi).  Analytically zero; the return value is limited by
    the finite-difference step.
    """
    if math.sin(angles.theta) <= PODOLSKY_GIMBAL_TOL:
        raise GimbalSingularity("theta too close to 0 or pi")

    def colsums(theta, phi, chi):
        block = _euler_block_forward(EulerAngles(phi=phi, theta=theta, chi=chi))
        return block.sum(axis=0)

    h = PODOLSKY_FD_STEP
    base = (angles.theta, angles.phi, angles.chi)
    d_colsums = np.zeros((3, 3))  # d_colsums[i, j] = d(colsum_j)/d(coord_i)
    for i in range(3):
        plus = list(base)
        minus = list(base)
        plus[i] += h
        minus[i] -= h
        d_colsums[i] = (colsums(*plus) - colsums(*minus)) / (2.0 * h)

    ainv = _euler_block_inverse(angles)
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    total = sum(ainv[j, i] * d_colsums[i, j] for i in range(3) for j in range(3))
    return -ct / (st * st) + total / st


# -- Eckart embedding ----------------------------------------------------------


def _quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    q0, q1, q2, q3 = q / np.linalg.norm(q)
    return np.array(
        [
            [
                q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
                2.0 * (q1 * q2 + q0 * q3),
                2.0 * (q1 * q3 - q0 * q2),
            ],
            [
                2.0 * (q1 * q2 - q0 * q3),
                q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3,
                2.0 * (q2 * q3 + q0 * q1),
            ],
            [
                2.0 * (q1 * q3 + q0 * q2),
                2.0 * (q2 * q3 - q0 * q1),
                q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3,
            ],
        ]
    )


def _eckart_profile_matrix(ref_mw: np.ndarray, cur_mw: np.ndarray) -> np.ndarray:
    """Symmetric 4x4 whose lowest eigenvector is the Eckart quaternion."""
    s = ref_mw + cur_mw
    d = ref_mw - cur_mw
    c = np.zeros((4, 4))
    c[0, 0] = np.sum(d * d)
    for t in range(3):
        c[t + 1, t + 1] = np.sum(s * s) - np.sum(s[:, t] ** 2) + np.sum(d[:, t] ** 2)
    c[0, 1] = np.sum(s[:, 1] * d[:, 2] - d[:, 1] * s[:, 2])
    c[0, 2] = np.sum(s[:, 2] * d[:, 0] - d[:, 2] * s[:, 0])
    c[0, 3] = np.sum(s[:, 0] * d[:, 1] - d[:, 0] * s[:, 1])
    c[1, 2] = np.sum(d[:, 0] * d[:, 1] - s[:, 0] * s[:, 1])
    c[1, 3] = np.sum(d[:, 0] * d[:, 2] - s[:, 0] * s[:, 2])
    c[2, 3] = np.sum(d[:, 1] * d[:, 2] - s[:, 1] * s[:, 2])
    return c + np.triu(c, 1).T


def eckart_residual(mol: Molecule, geometry: np.ndarray) -> float:
    """Norm of sum_i m_i a_i x rho_i for a COM-frame geometry (amu Angstrom^2)."""
    ref = inertia(mol).com_positions
    cur = np.asarray(geometry, dtype=float).reshape(mol.natoms, 3)
    cross = np.cross(ref, cur - ref)
    return float(np.linalg.norm((mol.masses[:, None] * cross).sum(axis=0)))


def eckart_rotate(mol: Molecule, displaced_geometry) -> tuple:
    """Rotate a displaced geometry into the Eckart frame of the equilibrium.

    The rotation comes from the quaternion eigenproblem of the 4x4 profile
    matrix built from mass-weighted reference and displaced coordinates
    (its smallest eigenvalue is the residual mass-weighted misalignment);
    no iteration is involved.  Returns the Euler angles of the rotation
    and the rotated (natoms, 3) geometry, which satisfies
    sum_i m_i a_i x rho_i = 0.
    """
    if mol.dimensionality != 3:
        raise FramesError("Eckart embedding requires a 3-dimensional molecule")
    cur = np.asarray(displaced_geometry, dtype=float).reshape(mol.natoms, 3)
    ref = inertia(mol).com_positions
    masses = mol.masses
    com = masses @ cur / masses.sum()
    cur = cur - com

    sqm = np.sqrt(masses)[:, None]
    c = _eckart_profile_matrix(ref * sqm, cur * sqm)
    vals, vecs = np.linalg.eigh(c)
    q = vecs[:, 0]
    if q[np.argmax(np.abs(q))] < 0:
        q = -q
    r = _quaternion_to_matrix(q)
    rotated = cur @ r.T

    scale = float(np.sum(masses * np.linalg.norm(ref, axis=1) ** 2))
    if eckart_residual(mol, rotated) > ECKART_RESIDUAL_RTOL * max(scale, 1e-300):
        raise NoConvergence("Eckart conditions not met; geometry too distorted")
    return angles_from_rotation(r), rotated
