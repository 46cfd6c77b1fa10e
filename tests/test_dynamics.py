import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_spd, two_mass_system
from vibrot import dynamics as dyn
from vibrot import normalmodes as nm
from vibrot.dynamics import (
    InitialConditions,
    NegativeLambda,
    StepTooLarge,
    ZeroFrequencyMode,
)
from vibrot.quadform import SymMatrix


def two_mass_setup(m=1.0, k=1.0):
    g, ff = two_mass_system(m, k)
    res = nm.solve(g, ff, unit_mode="natural")
    metric = SymMatrix.diagonal([m, m])  # G^-1
    return res, metric, ff


def random_system(rng, n):
    metric = random_spd(rng, n)       # kinetic metric T
    f = random_spd(rng, n)
    g = SymMatrix(np.linalg.inv(metric.entries))
    res = nm.solve(g, nm.ForceField(f=f), unit_mode="natural")
    return res, metric, f


def trajectory_per_mode(modes, metric, ic, times, with_velocities=False):
    """The closed form accumulated one mode at a time with np.outer.

    The drift modes are the zero modes of nm.zero_modes, as in the code under
    test: this oracle checks the matrix form, not which modes are zero.
    """
    times = np.asarray(times, dtype=float)
    xi = modes.L
    a = xi.T @ metric.entries @ ic.kappa
    bdot = xi.T @ metric.entries @ ic.beta_vel
    out = np.zeros((times.size, ic.dim))
    vel = np.zeros_like(out)
    zero = nm.zero_modes(modes.lambdas)
    for k in range(modes.nmodes):
        lam = modes.lambdas[k]
        if zero[k]:
            q = a[k] + bdot[k] * times
            qdot = np.full_like(times, bdot[k])
        else:
            w = np.sqrt(lam)
            q = a[k] * np.cos(w * times) + (bdot[k] / w) * np.sin(w * times)
            qdot = -a[k] * w * np.sin(w * times) + bdot[k] * np.cos(w * times)
        out += np.outer(q, xi[:, k])
        vel += np.outer(qdot, xi[:, k])
    return (out, vel) if with_velocities else out


def assert_matches_per_mode(res, metric, ic, times):
    x, v = dyn.trajectory_closed_form(res, metric, ic, times, with_velocities=True)
    x_ref, v_ref = trajectory_per_mode(res, metric, ic, times, with_velocities=True)
    only_x = dyn.trajectory_closed_form(res, metric, ic, times)
    assert np.array_equal(only_x, x)
    assert x.shape == v.shape == (len(times), ic.dim)
    assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()
    assert np.abs(v - v_ref).max() <= 1e-13 * np.abs(v_ref).max()


class TestMatrixForm:
    def test_drift_mode_matches_per_mode_loop(self, rng):
        n = 5
        metric = random_spd(rng, n)
        r, _ = np.linalg.qr(rng.normal(size=(n, n)))
        f = SymMatrix((r * [0.0, 1.0, 2.0, 5.0, 9.0]) @ r.T)  # one zero mode
        g = SymMatrix(np.linalg.inv(metric.entries))
        res = nm.solve(g, nm.ForceField(f=f), unit_mode="natural")
        assert np.sum(nm.zero_modes(res.lambdas)) == 1
        ic = InitialConditions(kappa=rng.normal(size=n), beta_vel=rng.normal(size=n))
        assert_matches_per_mode(res, metric, ic, np.linspace(0.0, 30.0, 301))

    # 301 samples of 5 modes are one chunk at the default size, and chunks of
    # 1, 2 and 20 rows here (1 row is left for the last chunk of 2 and 20)
    @pytest.mark.parametrize("chunk", [5, 12, 100])
    def test_row_chunks_give_the_same_bits(self, rng, monkeypatch, chunk):
        n = 5
        metric = random_spd(rng, n)
        r, _ = np.linalg.qr(rng.normal(size=(n, n)))
        f = SymMatrix((r * [0.0, 1.0, 2.0, 5.0, 9.0]) @ r.T)  # one drift mode
        res = nm.solve(SymMatrix(np.linalg.inv(metric.entries)), nm.ForceField(f=f),
                       unit_mode="natural")
        ic = InitialConditions(kappa=rng.normal(size=n), beta_vel=rng.normal(size=n))
        times = np.linspace(0.0, 30.0, 301)
        whole = dyn.trajectory_closed_form(res, metric, ic, times, with_velocities=True)
        monkeypatch.setattr(dyn, "TRAJECTORY_CHUNK_VALUES", chunk)
        chunked = dyn.trajectory_closed_form(res, metric, ic, times, with_velocities=True)
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))
        assert_matches_per_mode(res, metric, ic, times)

    @settings(max_examples=60)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(float, (n, n), elements=st.floats(-2.0, 2.0)),
        st.integers(0, n),
        # initial conditions away from the subnormals, where roundoff is absolute
        arrays(float, (2, n), elements=st.just(0.0) | st.floats(1e-6, 1.0)
               | st.floats(-1.0, -1e-6)),
        st.floats(0.1, 50.0),
        st.integers(1, 40),
    )))
    @example((np.eye(2), np.eye(2), 1, np.ones((2, 2)), 3.0, 5))
    def test_random_systems_match_per_mode_loop(self, case):
        # metric c c^T + I/2 is SPD; f = d d^T with `zeros` columns of d
        # dropped has that many zero-frequency (drift) modes
        c, d, zeros, ic, t_end, samples = case
        n = len(c)
        metric = SymMatrix(c @ c.T + 0.5 * np.eye(n))
        f = SymMatrix(d[:, zeros:] @ d[:, zeros:].T)
        g = SymMatrix(np.linalg.inv(metric.entries))
        res = nm.solve(g, nm.ForceField(f=f), unit_mode="natural")
        ic = InitialConditions(kappa=ic[0], beta_vel=ic[1])
        assert_matches_per_mode(res, metric, ic, np.linspace(0.0, t_end, samples))


class TestClosedForm:
    def test_single_mode_projection(self, rng):
        res, metric, f = random_system(rng, 4)
        xi = res.L[:, 1]
        ic = InitialConditions(kappa=xi, beta_vel=np.zeros(4))
        times = np.linspace(0.0, 3.0, 7)
        traj = dyn.trajectory_closed_form(res, metric, ic, times)
        w = math.sqrt(res.lambdas[1])
        expected = np.outer(np.cos(w * times), xi)
        np.testing.assert_allclose(traj, expected, atol=1e-10)

    def test_two_mass_symmetric_stretch(self):
        res, metric, _ = two_mass_setup(m=1.0, k=1.0)
        a = 0.4
        ic = InitialConditions(kappa=[a, a], beta_vel=[0.0, 0.0])
        times = np.linspace(0.0, 10.0, 33)
        traj = dyn.trajectory_closed_form(res, metric, ic, times)
        # pure symmetric mode at omega = sqrt(k/m) = 1
        expected = a * np.cos(times)
        np.testing.assert_allclose(traj[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(traj[:, 1], expected, atol=1e-12)

    def test_initial_conditions_reproduced(self, rng):
        res, metric, f = random_system(rng, 5)
        ic = InitialConditions(kappa=rng.normal(size=5), beta_vel=rng.normal(size=5))
        traj = dyn.trajectory_closed_form(res, metric, ic, [0.0])
        np.testing.assert_allclose(traj[0], ic.kappa, atol=1e-10)
        h = 1e-6
        pair = dyn.trajectory_closed_form(res, metric, ic, [-h, h])
        vel = (pair[1] - pair[0]) / (2 * h)
        np.testing.assert_allclose(vel, ic.beta_vel, atol=1e-8)

    def test_matches_rk4_oracle(self, rng):
        res, metric, f = random_system(rng, 3)
        ic = InitialConditions(kappa=rng.normal(size=3), beta_vel=rng.normal(size=3))
        closed = dyn.trajectory_closed_form(res, metric, ic, [1.0])[0]
        x, v = dyn.rk4_oracle(metric, f, ic, t_end=1.0, dt=1e-4)
        assert np.abs(closed - x).max() < 1e-6

    def test_energy_conserved(self, rng):
        res, metric, f = random_system(rng, 4)
        ic = InitialConditions(kappa=rng.normal(size=4), beta_vel=rng.normal(size=4))
        times = np.linspace(0.0, 20.0, 1000)
        traj, vel = dyn.trajectory_closed_form(res, metric, ic, times,
                                               with_velocities=True)
        energies = 0.5 * np.einsum("ti,ij,tj->t", vel, metric.entries, vel)
        energies += 0.5 * np.einsum("ti,ij,tj->t", traj, f.entries, traj)
        assert np.ptp(energies) / energies[0] < 1e-10

    def test_velocities_match_finite_differences(self, rng):
        res, metric, f = random_system(rng, 3)
        ic = InitialConditions(kappa=rng.normal(size=3), beta_vel=rng.normal(size=3))
        h = 1e-6
        t0 = 0.7
        (x, v) = dyn.trajectory_closed_form(res, metric, ic, [t0],
                                            with_velocities=True)
        pair = dyn.trajectory_closed_form(res, metric, ic, [t0 - h, t0 + h])
        fd = (pair[1] - pair[0]) / (2 * h)
        np.testing.assert_allclose(v[0], fd, atol=1e-8)

    def test_superposition(self, rng):
        res, metric, f = random_system(rng, 4)
        k1, k2 = rng.normal(size=4), rng.normal(size=4)
        b1, b2 = rng.normal(size=4), rng.normal(size=4)
        times = np.linspace(0.0, 5.0, 11)
        t12 = dyn.trajectory_closed_form(
            res, metric, InitialConditions(kappa=k1 + k2, beta_vel=b1 + b2), times
        )
        t1 = dyn.trajectory_closed_form(
            res, metric, InitialConditions(kappa=k1, beta_vel=b1), times
        )
        t2 = dyn.trajectory_closed_form(
            res, metric, InitialConditions(kappa=k2, beta_vel=b2), times
        )
        np.testing.assert_allclose(t12, t1 + t2, atol=1e-10)

    def test_zero_mode_drifts_linearly(self):
        g = SymMatrix.identity(2)
        f = SymMatrix.diagonal([0.0, 4.0])
        res = nm.solve(g, nm.ForceField(f=f), unit_mode="natural")
        metric = SymMatrix.identity(2)
        ic = InitialConditions(kappa=[1.0, 0.0], beta_vel=[0.5, 0.0])
        traj = dyn.trajectory_closed_form(res, metric, ic, [0.0, 2.0])
        np.testing.assert_allclose(traj[1, 0], 2.0, atol=1e-12)  # 1 + 0.5 t

    def test_unstable_mode_rejected(self):
        g = SymMatrix.identity(2)
        res = nm.solve(g, nm.ForceField(f=SymMatrix.diagonal([-1.0, 1.0])),
                       unit_mode="natural")
        ic = InitialConditions(kappa=[1.0, 0.0], beta_vel=[0.0, 0.0])
        with pytest.raises(NegativeLambda):
            dyn.trajectory_closed_form(res, SymMatrix.identity(2), ic, [0.0])

    def test_spectrum_peaks_only_at_normal_frequencies(self, rng):
        res, metric, f = random_system(rng, 3)
        ic = InitialConditions(kappa=rng.normal(size=3), beta_vel=rng.normal(size=3))
        t_total, nsamp = 60.0, 4096
        times = np.linspace(0.0, t_total, nsamp, endpoint=False)
        traj = dyn.trajectory_closed_form(res, metric, ic, times)
        signal = traj[:, 0] * np.hanning(nsamp)
        spec = np.abs(np.fft.rfft(signal))
        freqs = np.fft.rfftfreq(nsamp, d=t_total / nsamp)
        predicted = np.sqrt(res.lambdas) / (2 * math.pi)
        peak_mask = spec > 0.1 * spec.max()
        for fpk in freqs[peak_mask]:
            assert np.min(np.abs(predicted - fpk)) < 2.0 / t_total


class TestCoefficients:
    def test_zero_initial_conditions(self):
        res, metric, _ = two_mass_setup()
        a, b = dyn.normal_coordinate_coefficients(
            res, metric, InitialConditions(kappa=[0.0, 0.0], beta_vel=[0.0, 0.0])
        )
        np.testing.assert_allclose(a, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(b, [0.0, 0.0], atol=1e-15)

    def test_antisymmetric_displacement_excites_only_mode_two(self):
        res, metric, _ = two_mass_setup()
        amp = 0.3
        a, b = dyn.normal_coordinate_coefficients(
            res, metric, InitialConditions(kappa=[amp, -amp], beta_vel=[0.0, 0.0])
        )
        assert abs(a[0]) < 1e-14
        assert abs(a[1]) > 0.1
        np.testing.assert_allclose(b, [0.0, 0.0], atol=1e-15)

    def test_round_trip_reconstruction(self, rng):
        res, metric, f = random_system(rng, 5)
        ic = InitialConditions(kappa=rng.normal(size=5), beta_vel=rng.normal(size=5))
        a, b = dyn.normal_coordinate_coefficients(res, metric, ic)
        times = np.linspace(0.0, 4.0, 9)
        w = np.sqrt(res.lambdas)
        q = a[None, :] * np.cos(np.outer(times, w)) + b[None, :] * np.sin(
            np.outer(times, w)
        )
        rebuilt = q @ res.L.T
        direct = dyn.trajectory_closed_form(res, metric, ic, times)
        np.testing.assert_allclose(rebuilt, direct, atol=1e-9)

    def test_zero_frequency_rejected(self):
        g = SymMatrix.identity(2)
        res = nm.solve(g, nm.ForceField(f=SymMatrix.diagonal([0.0, 1.0])),
                       unit_mode="natural")
        ic = InitialConditions(kappa=[1.0, 1.0], beta_vel=[0.0, 0.0])
        with pytest.raises(ZeroFrequencyMode):
            dyn.normal_coordinate_coefficients(res, SymMatrix.identity(2), ic)


class TestRK4Oracle:
    def test_zero_stays_zero(self):
        g = SymMatrix.identity(2)
        f = SymMatrix.identity(2)
        ic = InitialConditions(kappa=[0.0, 0.0], beta_vel=[0.0, 0.0])
        x, v = dyn.rk4_oracle(g, f, ic, t_end=3.0, dt=1e-3)
        assert np.abs(x).max() == 0.0
        assert np.abs(v).max() == 0.0

    def test_unit_oscillator_period(self):
        g = SymMatrix.identity(1)
        f = SymMatrix.identity(1)
        ic = InitialConditions(kappa=[1.0], beta_vel=[0.0])
        x, v = dyn.rk4_oracle(g, f, ic, t_end=2 * math.pi, dt=1e-4)
        assert abs(x[0] - 1.0) < 1e-6

    def test_matches_closed_form_two_mass(self):
        res, metric, ff = two_mass_setup(m=2.0, k=1.5)
        ic = InitialConditions(kappa=[0.2, -0.1], beta_vel=[0.0, 0.3])
        closed = dyn.trajectory_closed_form(res, metric, ic, [1.0])[0]
        x, _ = dyn.rk4_oracle(metric, ff.f, ic, t_end=1.0, dt=1e-4)
        assert np.abs(closed - x).max() < 1e-6

    def test_energy_drift_small(self, rng):
        metric = random_spd(rng, 3, cond=10.0)
        f = random_spd(rng, 3, cond=10.0)
        ic = InitialConditions(kappa=rng.normal(size=3), beta_vel=rng.normal(size=3))
        dt = 1e-3
        x, v = dyn.rk4_oracle(metric, f, ic, t_end=1e4 * dt, dt=dt)
        e0 = (
            0.5 * ic.beta_vel @ metric.entries @ ic.beta_vel
            + 0.5 * ic.kappa @ f.entries @ ic.kappa
        )
        e1 = 0.5 * v @ metric.entries @ v + 0.5 * x @ f.entries @ x
        assert abs(e1 - e0) / abs(e0) < 1e-8

    def test_step_too_large(self):
        g = SymMatrix.identity(1)
        f = SymMatrix.diagonal([100.0])
        ic = InitialConditions(kappa=[1.0], beta_vel=[0.0])
        with pytest.raises(StepTooLarge):
            dyn.rk4_oracle(g, f, ic, t_end=50.0, dt=0.5)
