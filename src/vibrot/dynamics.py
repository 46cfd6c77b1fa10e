"""Classical harmonic dynamics: closed-form trajectories and an RK4 oracle.

The closed form expands the initial conditions over the metric-orthonormal
eigenvectors L; every coordinate then evolves as a superposition of cosines
and sines at the normal frequencies.  The normal coordinates of all sampled
times form one (samples x modes) table Q, with Q[t, k] = a_k cos(w_k t) +
(bdot_k / w_k) sin(w_k t), and the trajectory is the single matrix product
Q L^T.  Zero-frequency modes (those `normalmodes.zero_modes` marks) propagate
as uniform drift a_k + bdot_k t, the omega -> 0 limit of the sine term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .normalmodes import NormalModeResult, zero_modes
from .quadform import DimensionMismatch, SymMatrix

ENERGY_DRIFT_LIMIT = 1e-3
# Most values of Q a trajectory builds at a time: a chunk's cos and sin rows
# stay in cache while they are combined, and no whole-table temporaries are
# made.  The product Q L^T stays one call: row blocks of it differ from the
# whole product in the last bit under OpenBLAS.
TRAJECTORY_CHUNK_VALUES = 1 << 14


class DynamicsError(ValueError):
    pass


class NegativeLambda(DynamicsError):
    """Unstable mode present; the oscillatory closed form does not apply."""


class ZeroFrequencyMode(DynamicsError):
    """B_k requested for a mode with vanishing frequency."""


class StepTooLarge(DynamicsError):
    """RK4 energy drift exceeded the trust threshold."""


class NonFiniteTrajectory(DynamicsError):
    """A trajectory state or the energy of the initial conditions is not finite."""


@dataclass(frozen=True, eq=False)
class InitialConditions:
    """Initial displacement kappa and velocity beta_vel."""

    kappa: np.ndarray
    beta_vel: np.ndarray

    def __post_init__(self):
        kappa = np.array(self.kappa, dtype=float)
        beta = np.array(self.beta_vel, dtype=float)
        if kappa.shape != beta.shape or kappa.ndim != 1:
            raise DimensionMismatch("kappa and beta_vel must be equal-length vectors")
        if not (np.all(np.isfinite(kappa)) and np.all(np.isfinite(beta))):
            raise DynamicsError("initial conditions must be finite")
        kappa.flags.writeable = False
        beta.flags.writeable = False
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "beta_vel", beta)

    @property
    def dim(self) -> int:
        return self.kappa.size


def _check_system(modes: NormalModeResult, metric: SymMatrix, ic: InitialConditions):
    """Raise unless the system fits and is stable; returns the zero-mode mask."""
    n = metric.dim
    if modes.L.shape != (n, n):
        raise DimensionMismatch(
            f"mode matrix {modes.L.shape} incompatible with metric dim {n}"
        )
    if ic.dim != n:
        raise DimensionMismatch(f"initial conditions have dim {ic.dim}, expected {n}")
    zero = zero_modes(modes.lambdas)
    if np.any(modes.lambdas[~zero] < 0):
        raise NegativeLambda(
            f"lambda = {modes.lambdas.min():.3e} < 0; use the RK4 oracle instead"
        )
    return zero


def trajectory_closed_form(
    modes: NormalModeResult,
    metric: SymMatrix,
    ic: InitialConditions,
    times,
    with_velocities: bool = False,
):
    """Exact harmonic trajectory, one state vector per requested time.

    x(t) = sum_k xi_k [ (xi_k, T kappa) cos(w_k t)
                        + (xi_k, T beta) sin(w_k t) / w_k ]
    with T the kinetic metric and xi_k its orthonormal eigenvectors; modes
    with w_k = 0 contribute (a_k + b_k t) drift instead.  With
    with_velocities the analytically differentiated trajectory is returned
    as a second array.
    """
    drift = _check_system(modes, metric, ic)
    times = np.asarray(times, dtype=float).reshape(-1)
    xi = modes.L
    a = xi.T @ metric.entries @ ic.kappa
    bdot = xi.T @ metric.entries @ ic.beta_vel
    w = np.sqrt(np.where(drift, 1.0, modes.lambdas))  # drift columns are overwritten
    b, aw = bdot / w, -a * w
    q = np.empty((times.size, w.size))
    qdot = np.empty_like(q) if with_velocities else None
    step = max(1, TRAJECTORY_CHUNK_VALUES // max(w.size, 1))
    cos, sin = np.empty((2, min(step, times.size), w.size))
    for start in range(0, times.size, step):
        t = times[start : start + step]
        c, s, rows = cos[: t.size], sin[: t.size], q[start : start + step]
        np.multiply.outer(t, w, out=s)
        np.cos(s, out=c)
        np.sin(s, out=s)
        np.multiply(a, c, out=rows)  # a cos + (bdot / w) sin
        if with_velocities:  # -a w sin + bdot cos
            dots = qdot[start : start + step]
            np.multiply(aw, s, out=dots)
            dots += np.multiply(bdot, c, out=c)
            dots[:, drift] = bdot[drift]
        rows += np.multiply(b, s, out=s)
        rows[:, drift] = a[drift] + np.multiply.outer(t, bdot[drift])
    out = q @ xi.T
    return (out, qdot @ xi.T) if with_velocities else out


def normal_coordinate_coefficients(
    modes: NormalModeResult, g: SymMatrix, ic: InitialConditions
):
    """Per-mode amplitudes (A_k, B_k) of Q_k(t) = A_k cos w_k t + B_k sin w_k t.

    A_k projects the initial displacement on mode k in the metric g;
    B_k does the same for the velocity, divided by the frequency.
    """
    if np.any(_check_system(modes, g, ic)):
        raise ZeroFrequencyMode(
            "B_k is undefined for a zero-frequency mode; propagate it as drift"
        )
    a = modes.L.T @ g.entries @ ic.kappa
    bdot = modes.L.T @ g.entries @ ic.beta_vel
    return a, bdot / np.sqrt(modes.lambdas)


def rk4_oracle(
    g_inv: SymMatrix, f: SymMatrix, ic: InitialConditions, t_end: float, dt: float
):
    """Classical 4th-order integration of T xddot + F x = 0; test oracle.

    g_inv is the kinetic metric (G^-1 in internal coordinates, the mass
    matrix in Cartesians).  Returns (x, v) at t_end and refuses to answer
    when the relative energy drift passes 1e-3.
    """
    if dt <= 0:
        raise DynamicsError("dt must be positive")
    if t_end < 0:
        raise DynamicsError("t_end must be non-negative")
    if g_inv.dim != f.dim or ic.dim != g_inv.dim:
        raise DimensionMismatch("system dimensions disagree")
    accel = -np.linalg.solve(g_inv.entries, f.entries)

    def energy(x, v):
        return 0.5 * v @ g_inv.entries @ v + 0.5 * x @ f.entries @ x

    x = ic.kappa.copy()
    v = ic.beta_vel.copy()
    e0 = energy(x, v)
    e_scale = max(abs(e0), 1e-300)
    nsteps = int(round(t_end / dt))
    remainder = t_end - nsteps * dt

    def step(x, v, h):
        k1x, k1v = v, accel @ x
        k2x, k2v = v + 0.5 * h * k1v, accel @ (x + 0.5 * h * k1x)
        k3x, k3v = v + 0.5 * h * k2v, accel @ (x + 0.5 * h * k2x)
        k4x, k4v = v + h * k3v, accel @ (x + h * k3x)
        return (
            x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v),
        )

    for _ in range(nsteps):
        x, v = step(x, v, dt)
    if abs(remainder) > 1e-15 * max(t_end, 1.0):
        x, v = step(x, v, remainder)
    if abs(energy(x, v) - e0) > ENERGY_DRIFT_LIMIT * e_scale:
        raise StepTooLarge(
            f"energy drifted by {abs(energy(x, v) - e0):.3e}; reduce dt"
        )
    return x, v
