"""Independent reference computations for checking `vibrot analyze` outputs.

Nothing here calls vibrot.  The B matrix comes from central finite
differences of the internal-coordinate values, the GF eigenvalues from a
Cholesky factor of G (vibrot goes through G^-1/2 instead), the rotor
Hamiltonian is assembled entry by entry in the |J,k> basis, and the
unit factors are derived here from the CODATA 2018 values.
"""

from __future__ import annotations

import math

import numpy as np

PLANCK_H = 6.62607015e-34          # J s
SPEED_OF_LIGHT_CM = 2.99792458e10  # cm / s
AMU_KG = 1.66053906660e-27         # kg

# cm^-1 per sqrt(aJ / (Angstrom^2 amu)), and cm^-1 amu Angstrom^2 (h / 8 pi^2 c)
WAVENUMBER_CM = math.sqrt(1.0e-18 / (AMU_KG * 1.0e-20)) / (2.0 * math.pi * SPEED_OF_LIGHT_CM)
ROTATIONAL_CM = PLANCK_H / (8.0 * math.pi**2 * SPEED_OF_LIGHT_CM * AMU_KG * 1.0e-20)

FD_STEP = 1.0e-5  # Angstrom


def _values(coords, geoms: np.ndarray) -> np.ndarray:
    """Internal-coordinate values for a stack of geometries (g, natoms, 3)."""
    out = np.empty((geoms.shape[0], len(coords)))
    for c, coord in enumerate(coords):
        kind, atoms = coord[0], coord[1:]
        if kind == "cart":
            out[:, c] = geoms[:, atoms[0], atoms[1]]
        elif kind == "stretch":
            out[:, c] = np.linalg.norm(geoms[:, atoms[0]] - geoms[:, atoms[1]], axis=1)
        elif kind == "bend":
            u = geoms[:, atoms[0]] - geoms[:, atoms[1]]
            v = geoms[:, atoms[2]] - geoms[:, atoms[1]]
            out[:, c] = np.arctan2(
                np.linalg.norm(np.cross(u, v), axis=1), np.einsum("ga,ga->g", u, v)
            )
        elif kind == "torsion":
            p = [geoms[:, a] for a in atoms]
            b1, b2, b3 = p[1] - p[0], p[2] - p[1], p[3] - p[2]
            n1, n2 = np.cross(b1, b2), np.cross(b2, b3)
            # vibrot's sign: phi = atan2((n1 x b2/|b2|) . n2, n1 . n2)
            b2hat = b2 / np.linalg.norm(b2, axis=1)[:, None]
            y = np.einsum("ga,ga->g", np.cross(n1, b2hat), n2)
            out[:, c] = np.arctan2(y, np.einsum("ga,ga->g", n1, n2))
        else:
            raise ValueError(f"unknown coordinate kind {kind!r}")
    return out


def b_matrix(inp) -> np.ndarray:
    """B = dS/dx by central differences over the active Cartesian axes."""
    natoms, dim = inp.natoms, inp.dim
    ncart = natoms * dim
    geoms = np.repeat(inp.positions[None, :, :], 2 * ncart, axis=0)
    for col in range(ncart):
        atom, axis = divmod(col, dim)
        geoms[2 * col, atom, axis] += FD_STEP
        geoms[2 * col + 1, atom, axis] -= FD_STEP
    vals = _values(inp.coords, geoms)
    diff = vals[0::2] - vals[1::2]
    diff = (diff + math.pi) % (2.0 * math.pi) - math.pi  # torsions wrap at +-pi
    return diff.T / (2.0 * FD_STEP)


def g_matrix(inp) -> np.ndarray:
    b = b_matrix(inp)
    return (b / np.repeat(inp.masses, inp.dim)) @ b.T


def gf_eigen(inp, g: np.ndarray | None = None):
    """(lambdas ascending, eigenvectors U, Cholesky factor C) with G = C C^T."""
    g = g_matrix(inp) if g is None else g
    c = np.linalg.cholesky(g)
    lam, u = np.linalg.eigh(c.T @ inp.f @ c)
    return lam, u, c


def frequencies(lambdas: np.ndarray, units: str) -> np.ndarray:
    factor = 1.0 if units == "natural" else WAVENUMBER_CM
    return factor * np.sign(lambdas) * np.sqrt(np.abs(lambdas))


def rotational_constants(inp) -> tuple:
    """(A, B, C) in cm^-1, descending, from the inertia tensor about the COM."""
    m = inp.masses
    pos = inp.positions - m @ inp.positions / m.sum()
    r2 = np.einsum("ia,ia->i", pos, pos)
    tensor = np.eye(3) * (m @ r2) - np.einsum("i,ia,ib->ab", m, pos, pos)
    moments = np.linalg.eigvalsh(tensor)
    scale = moments.max()
    return tuple(
        sorted(
            (math.inf if mom <= 1e-12 * scale else ROTATIONAL_CM / mom for mom in moments),
            reverse=True,
        )
    )


def rotor_energies(a: float, b: float, c: float, j: int) -> np.ndarray:
    """Ascending eigenvalues of the rigid-rotor Hamiltonian for one J."""
    ks = np.arange(-j, j + 1, dtype=float)
    jj = j * (j + 1.0)
    h = np.diag(0.5 * (b + c) * (jj - ks**2) + a * ks**2)
    k = ks[:-2]
    off = 0.25 * (b - c) * np.sqrt((jj - k * (k + 1)) * (jj - (k + 1) * (k + 2)))
    idx = np.arange(2 * j - 1)
    h[idx, idx + 2] = off
    h[idx + 2, idx] = off
    return np.linalg.eigvalsh(h)


def trajectory(inp, g: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Closed-form x(t) of T x'' + F x = 0 with T = G^-1, one row per time."""
    lam, u, c = gf_eigen(inp, g)
    d = inp.dynamics
    a = u.T @ np.linalg.solve(c, d["kappa"])
    bdot = u.T @ np.linalg.solve(c, d["beta"])
    w = np.sqrt(lam)
    q = np.cos(np.outer(times, w)) * a + np.sin(np.outer(times, w)) * (bdot / w)
    return q @ (c @ u).T


def dynamics_energy(inp, g: np.ndarray) -> float:
    d = inp.dynamics
    beta = d["beta"]
    return float(0.5 * beta @ np.linalg.solve(g, beta) + 0.5 * d["kappa"] @ inp.f @ d["kappa"])
