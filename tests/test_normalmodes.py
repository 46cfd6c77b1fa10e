import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    bent_triatomic,
    random_spd,
    two_mass_system,
    water_molecule,
    water_pipeline,
    water_isotopologue,
)
from vibrot import molecule as mo
from vibrot import normalmodes as nm
from vibrot.frames import EulerAngles, rotation_zyz
from vibrot.quadform import DimensionMismatch, NotPositiveDefinite, SymMatrix


def solve_two_mass(m=1.0, k=1.0):
    g, ff = two_mass_system(m, k)
    return nm.solve(g, ff, unit_mode="natural")


class TestSolve:
    def test_two_mass_eigenvalues_and_l_matrix(self):
        res = solve_two_mass()
        np.testing.assert_allclose(res.lambdas, [1.0, 3.0], rtol=1e-12)
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        # equality up to column sign
        for j in range(2):
            col = res.L[:, j]
            assert min(
                np.abs(col - expected[:, j]).max(), np.abs(col + expected[:, j]).max()
            ) < 1e-12

    @pytest.mark.parametrize("m,k", [(2.0, 3.0), (0.5, 1.7)])
    def test_two_mass_general_masses(self, m, k):
        g, ff = two_mass_system(m, k)
        res = nm.solve(g, ff, unit_mode="natural")
        np.testing.assert_allclose(res.lambdas, [k / m, 3 * k / m], rtol=1e-12)

    def test_zero_force_field(self):
        g, _ = two_mass_system()
        res = nm.solve(g, nm.ForceField(f=SymMatrix(np.zeros((2, 2)))),
                       unit_mode="natural")
        np.testing.assert_allclose(res.lambdas, [0.0, 0.0], atol=1e-14)
        g_inv = np.linalg.inv(g.entries)
        np.testing.assert_allclose(res.L.T @ g_inv @ res.L, np.eye(2), atol=1e-9)

    def test_diatomic_reduced_mass_oracle(self):
        m1, m2, k = 1.3, 7.7, 2.1
        g = SymMatrix([[1 / m1 + 1 / m2]])
        res = nm.solve(g, nm.ForceField(f=SymMatrix([[k]])), unit_mode="natural")
        assert res.lambdas[0] == pytest.approx(k * (1 / m1 + 1 / m2), rel=1e-12)

    def test_result_invariants_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_spd(rng, n)
            f = random_spd(rng, n)
            res = nm.solve(g, nm.ForceField(f=f), unit_mode="natural")
            g_inv = np.linalg.inv(g.entries)
            assert np.abs(res.L.T @ g_inv @ res.L - np.eye(n)).max() < 1e-9
            gf_diag = np.linalg.solve(res.L, g.entries @ f.entries @ res.L)
            assert np.abs(gf_diag - np.diag(res.lambdas)).max() < 1e-9

    def test_requires_positive_definite_g(self):
        with pytest.raises(NotPositiveDefinite):
            nm.solve(
                SymMatrix.diagonal([1.0, -1.0]),
                nm.ForceField(f=SymMatrix.identity(2)),
            )

    def test_dimension_mismatch(self, water):
        with pytest.raises(DimensionMismatch):
            nm.solve(SymMatrix.identity(2), nm.ForceField(f=SymMatrix.identity(3)))
        _, b, masses, _, _ = water
        with pytest.raises(DimensionMismatch):
            nm.solve(SymMatrix.identity(2), nm.ForceField(f=SymMatrix.identity(2)),
                     b=b, masses=masses)

    def test_isotope_scaling_property(self, rng):
        g = random_spd(rng, 5)
        f = random_spd(rng, 5)
        c = 2.7
        res1 = nm.solve(g, nm.ForceField(f=f), unit_mode="natural")
        # scaling all masses by c scales G by 1/c
        res2 = nm.solve(SymMatrix(g.entries / c), nm.ForceField(f=f),
                        unit_mode="natural")
        np.testing.assert_allclose(res2.lambdas, res1.lambdas / c, rtol=1e-9)

    def test_energy_identity(self, rng):
        g, ff = two_mass_system(1.3, 0.8)
        res = nm.solve(g, ff, unit_mode="natural")
        q = rng.normal(size=2)
        qdot = rng.normal(size=2)
        s = res.L @ q
        sdot = res.L @ qdot
        g_inv = np.linalg.inv(g.entries)
        h_normal = 0.5 * qdot @ qdot + 0.5 * q @ np.diag(res.lambdas) @ q
        h_internal = 0.5 * sdot @ g_inv @ sdot + 0.5 * s @ ff.f.entries @ s
        assert h_normal == pytest.approx(h_internal, rel=1e-9)

    @settings(max_examples=60)
    @given(
        arrays(float, (4, 4), elements=st.floats(-1.0, 1.0)),
        arrays(float, (4, 4), elements=st.floats(-2.0, 2.0)),
        arrays(float, (4, 4), elements=st.floats(-0.5, 0.5)),
    )
    def test_spectrum_invariant_under_coordinate_redefinition(self, c, f, a):
        # S' = A S with A strictly diagonally dominant, hence invertible;
        # then G' = A G A^T and F' = A^-T F A^-1.
        n = 4
        g = SymMatrix(c @ c.T + 0.5 * np.eye(n))
        ff = SymMatrix(f)
        a = a + 3.0 * np.eye(n)
        a_inv = np.linalg.inv(a)
        g2 = SymMatrix(a @ g.entries @ a.T)
        f2 = SymMatrix(a_inv.T @ ff.entries @ a_inv)
        res1 = nm.solve(g, nm.ForceField(f=ff), unit_mode="natural")
        res2 = nm.solve(g2, nm.ForceField(f=f2), unit_mode="natural")
        scale = max(1.0, np.abs(res1.lambdas).max())
        np.testing.assert_allclose(res2.lambdas, res1.lambdas, atol=1e-9 * scale)

    def test_saddle_point_reports_negative_wavenumber(self):
        g = SymMatrix.identity(2)
        res = nm.solve(g, nm.ForceField(f=SymMatrix.diagonal([-4.0, 9.0])),
                       unit_mode="natural")
        np.testing.assert_allclose(res.frequencies_cm, [-2.0, 3.0], rtol=1e-12)


class TestCartesianDisplacements:
    def test_two_mass_modes_phase(self):
        # in-phase then out-of-phase columns of the orthogonal l matrix
        mol = mo.Molecule.from_lists(
            ["m1", "m2"], [1.0, 1.0], [[0.0, 0, 0], [1.0, 0, 0]], dimensionality=1
        )
        ics = mo.InternalCoordinateSet(
            (mo.CartesianDisplacement(0, 0), mo.CartesianDisplacement(1, 0))
        )
        b = mo.build_b_matrix(mol, ics)
        masses = mo.MassMatrix.from_molecule(mol)
        g = mo.build_g_matrix(b, masses)
        _, ff = two_mass_system()
        res = nm.solve(g, ff, b=b, masses=masses, unit_mode="natural")
        assert np.abs(res.l.T @ res.l - np.eye(2)).max() < 1e-9
        sym = res.l[:, 0]
        antisym = res.l[:, 1]
        assert sym[0] == pytest.approx(sym[1], rel=1e-12)       # sqrt(m) dx1 = sqrt(m) dx2
        assert antisym[0] == pytest.approx(-antisym[1], rel=1e-12)
        assert abs(sym[0]) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_b_image_recovers_l_columns(self, water):
        mol, b, masses, g, res = water
        np.testing.assert_allclose(b.rows @ res.cart_displacements, res.L, atol=1e-9)

    def test_modes_carry_no_linear_momentum(self, water):
        mol, b, masses, g, res = water
        disp = res.cart_displacements.reshape(mol.natoms, 3, res.nmodes)
        momentum = np.einsum("i,iak->ak", mol.masses, disp)
        assert np.abs(momentum).max() < 1e-8

    def test_l_columns_orthonormal(self, water):
        _, _, _, _, res = water
        assert np.abs(res.l.T @ res.l - np.eye(res.nmodes)).max() < 1e-9


def _zigzag_chain(natoms, jitter, masses):
    """Planar zigzag chain (1 A bonds, ~109 deg bends) with displaced atoms."""
    base = np.array(
        [[i * 0.816, 0.577 * (i % 2), 0.0] for i in range(natoms)]
    )
    mol = mo.Molecule.from_lists(
        [f"X{i}" for i in range(natoms)], list(masses), base + jitter
    )
    coords = [mo.BondStretch(i, i + 1) for i in range(natoms - 1)]
    coords += [mo.AngleBend(i, i + 1, i + 2) for i in range(natoms - 2)]
    return mol, mo.InternalCoordinateSet(tuple(coords))


class TestSolveProperties:
    @settings(max_examples=40)
    @given(
        arrays(float, 3, elements=st.floats(-math.pi, math.pi)),
        arrays(float, 3, elements=st.floats(-10.0, 10.0)),
    )
    def test_frequencies_invariant_under_rigid_motion(self, angles, shift):
        mol, b, masses, g, ref = water_pipeline()
        rotation = rotation_zyz(EulerAngles(*angles))
        moved = mo.Molecule.from_lists(
            [a.label for a in mol.atoms],
            list(mol.masses),
            mol.positions @ rotation.T + shift,
        )
        ics = mo.InternalCoordinateSet(
            (mo.BondStretch(0, 1), mo.BondStretch(0, 2), mo.AngleBend(1, 0, 2))
        )
        b2 = mo.build_b_matrix(moved, ics)
        m2 = mo.MassMatrix.from_molecule(moved)
        f = nm.ForceField(
            f=SymMatrix([[8.45, -0.10, 0.25], [-0.10, 8.45, 0.25], [0.25, 0.25, 0.70]])
        )
        res = nm.solve(mo.build_g_matrix(b2, m2), f, b=b2, masses=m2)
        np.testing.assert_allclose(res.frequencies_cm, ref.frequencies_cm, rtol=1e-9)

    @settings(max_examples=40)
    @given(st.integers(3, 7).flatmap(lambda n: st.tuples(
        arrays(float, (n, 3), elements=st.floats(-0.15, 0.15)),
        arrays(float, n, elements=st.floats(1.0, 40.0)),
        arrays(float, (2 * n - 3, 2 * n - 3), elements=st.floats(-5.0, 5.0)),
    )))
    def test_l_orthonormal_and_b_image_is_L(self, case):
        jitter, mass_values, f = case
        mol, ics = _zigzag_chain(len(mass_values), jitter, mass_values)
        b = mo.build_b_matrix(mol, ics)
        masses = mo.MassMatrix.from_molecule(mol)
        g = mo.build_g_matrix(b, masses)
        res = nm.solve(g, nm.ForceField(f=SymMatrix(f)), b=b, masses=masses)
        n = res.nmodes
        assert np.abs(res.l.T @ res.l - np.eye(n)).max() < 1e-12
        scale = np.abs(res.L).max()
        assert np.abs(b.rows @ res.cart_displacements - res.L).max() < 1e-12 * scale

    # Scaling F by s scales every lambda by s and every omega by sqrt(s);
    # the zero modes, decided relative to max |lambda|, stay the same.
    @settings(max_examples=100)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(float, n, elements=st.floats(0.1, 10.0)),
        st.integers(0, n),
        st.floats(-12.0, 12.0),
    )))
    @example((np.eye(2), np.eye(2), np.array([1.0, 3.0]), 1, 12.0))
    @example((np.eye(2), np.eye(2), np.array([1.0, 3.0]), 1, -12.0))
    def test_scaled_force_field_scales_lambdas_and_keeps_zero_modes(self, case):
        c, a, spectrum, zeros, log_s = case
        n, s, eps = len(c), 10.0**log_s, np.finfo(float).eps
        g = SymMatrix(c @ c.T + 0.5 * np.eye(n))  # eigenvalues in [0.5, n + 0.5]
        q, _ = np.linalg.qr(a)
        f = (q * np.where(np.arange(n) < zeros, 0.0, spectrum)) @ q.T
        res, scaled = (nm.solve(g, nm.ForceField(f=SymMatrix(x * f)), unit_mode="natural")
                       for x in (1.0, s))
        bound = 8 * n * eps * s * np.abs(res.lambdas).max()  # both solves' roundoff
        assert np.all(np.abs(scaled.lambdas - s * res.lambdas) <= bound)
        zero = nm.zero_modes(res.lambdas)
        assert zero.sum() == zeros
        assert np.array_equal(nm.zero_modes(scaled.lambdas), zero)
        assert np.all(res.frequencies_cm[zero] == 0) and np.all(scaled.frequencies_cm[zero] == 0)
        ratio = scaled.frequencies_cm[~zero] / (math.sqrt(s) * res.frequencies_cm[~zero])
        assert np.all(np.abs(ratio - 1) <= bound / (s * res.lambdas[~zero]))


class TestTellerRedlich:
    # Teller-Redlich product rule (Wilson, Decius & Cross, Molecular
    # Vibrations, 1955, sec. 8-5).  Isotopic substitution leaves F unchanged,
    # so prod(lambda'/lambda) = det(G'F) / det(GF) = det G' / det G; over all
    # 3N - 6 modes of a nonlinear molecule it also equals
    # prod_a (m_a/m'_a)^3 (M'/M)^3 (I'_a I'_b I'_c) / (I_a I_b I_c).
    @settings(max_examples=40)
    @given(
        water_isotopologue,
        water_isotopologue,
        st.floats(0.8, 1.2),
        st.floats(0.8, 1.2),
        st.floats(math.radians(80.0), math.radians(140.0)),
        st.floats(-math.pi, math.pi),
    )
    def test_product_rule_for_water_isotopologues(self, masses, masses2, r1, r2, theta, tilt):
        mol, g, res = bent_triatomic(masses, r1, r2, theta, tilt)
        mol2, g2, res2 = bent_triatomic(masses2, r1, r2, theta, tilt)
        ratio = np.prod(res2.lambdas / res.lambdas)
        assert ratio == pytest.approx(np.linalg.det(g2.entries) / np.linalg.det(g.entries),
                                      rel=1e-10)
        m, m2 = np.array(masses), np.array(masses2)
        moments = mo.inertia(mol).principal_moments
        moments2 = mo.inertia(mol2).principal_moments
        cartesian = (np.prod((m / m2) ** 3) * (m2.sum() / m.sum()) ** 3
                     * np.prod(moments2) / np.prod(moments))
        assert ratio == pytest.approx(cartesian, rel=1e-10)


class TestFrequencies:
    def test_zero_and_unit(self):
        out = nm.frequencies_cm([0.0, 1.0], unit_mode="natural")
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)
        # the zero-mode scale is max |lambda| over the finite lambdas
        assert nm.frequencies_cm([1.0, np.inf], unit_mode="natural").tolist() == [1.0, np.inf]

    def test_conversion_constant_dimensional_analysis(self):
        # independent route: 1 aJ/(A^2 amu) in SI, omega -> wavenumber
        aj = 1e-18
        amu = 1.66053906660e-27
        omega = math.sqrt(aj / (amu * 1e-20))
        expected = omega / (2 * math.pi * 2.99792458e10)
        got = nm.frequencies_cm([1.0], unit_mode="cm")[0]
        assert got == pytest.approx(expected, rel=1e-6)
        assert got == pytest.approx(1302.79, rel=1e-4)

    def test_tiny_negative_clamped(self):
        # roundoff next to a mode of 1; a lone -1e-12 is its own scale, a saddle
        out = nm.frequencies_cm([-1e-17, 1.0], unit_mode="natural")
        assert out[0] == 0.0

    def test_imaginary_reported_negative(self):
        out = nm.frequencies_cm([-4.0], unit_mode="natural")
        assert out[0] == pytest.approx(-2.0)

    def test_unknown_mode_rejected(self):
        g, ff = two_mass_system()
        for mode in ("parsecs", "spectroscopic"):  # the units are "natural" and "cm"
            with pytest.raises(ValueError):
                nm.frequencies_cm([1.0], unit_mode=mode)
            with pytest.raises(ValueError):
                nm.solve(g, ff, unit_mode=mode)


class TestModeAnimation:
    def test_sine_samples(self):
        mol = mo.Molecule.from_lists(["A"], [1.0], [[0.0, 0.0, 0.0]])
        mode = np.array([1.0, 0.0, 0.0])
        frames = nm.mode_animation(mol, mode, amplitude=0.25, frames=4)
        xs = [g[0, 0] for g in frames]
        np.testing.assert_allclose(xs, [0.0, 0.25, 0.0, -0.25], atol=1e-15)

    def test_zero_mode_keeps_equilibrium(self):
        mol = water_molecule()
        frames = nm.mode_animation(mol, np.zeros(9), amplitude=0.1, frames=5)
        for g in frames:
            np.testing.assert_allclose(g, mol.positions, atol=1e-15)

    def test_two_mass_antisymmetric_mode_moves_oppositely(self):
        mol = mo.Molecule.from_lists(
            ["m1", "m2"], [1.0, 1.0], [[0.0, 0, 0], [1.0, 0, 0]], dimensionality=1
        )
        ics = mo.InternalCoordinateSet(
            (mo.CartesianDisplacement(0, 0), mo.CartesianDisplacement(1, 0))
        )
        b = mo.build_b_matrix(mol, ics)
        masses = mo.MassMatrix.from_molecule(mol)
        g, ff = two_mass_system()
        res = nm.solve(g, ff, b=b, masses=masses, unit_mode="natural")
        disp = res.cart_displacements
        frames = nm.mode_animation(mol, disp[:, 1], amplitude=0.2, frames=8)
        for t, g in enumerate(frames):
            d1 = g[0, 0] - mol.positions[0, 0]
            d2 = g[1, 0] - mol.positions[1, 0]
            assert d1 == pytest.approx(-d2, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_array_equals_per_frame_loop(self, dim):
        # the per-frame factor and the per-element product round as in a
        # frame-by-frame loop, so the geometries agree bit for bit
        rng = np.random.default_rng(dim)
        natoms = 4
        positions = rng.normal(size=(natoms, 3))
        positions[:, dim:] = 0.0
        mol = mo.Molecule.from_lists(
            [f"A{i}" for i in range(natoms)], [1.0] * natoms, positions,
            dimensionality=dim,
        )
        mode = rng.normal(size=natoms * dim)
        frames = nm.mode_animation(mol, mode, amplitude=0.37, frames=7)
        assert frames.shape == (7, natoms, 3)
        for t in range(7):
            geom = mol.positions.copy()
            geom[:, :dim] += (
                0.37 * math.sin(2.0 * math.pi * t / 7) * mode.reshape(natoms, dim)
            )
            assert np.array_equal(frames[t], geom)
            assert np.array_equal(np.signbit(frames[t]), np.signbit(geom))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_block_equals_single_mode_calls(self, dim):
        rng = np.random.default_rng(10 + dim)
        natoms, k = 5, 4
        positions = rng.normal(size=(natoms, 3)) * 10.0 ** rng.integers(-3, 5, (natoms, 3))
        positions[0] = -0.0
        mol = mo.Molecule.from_lists(
            [f"A{i}" for i in range(natoms)], [1.0] * natoms, positions, dimensionality=dim,
        )
        modes = rng.normal(size=(mol.ncart, k))
        modes[:, 1] = -0.0
        block = nm.mode_animation(mol, modes, amplitude=0.29, frames=6)
        assert block.shape == (k, 6, natoms, 3)
        for i in range(k):
            single = nm.mode_animation(mol, modes[:, i], amplitude=0.29, frames=6)
            assert np.array_equal(block[i].view(np.int64), single.view(np.int64))
        with pytest.raises(DimensionMismatch):
            nm.mode_animation(mol, modes[1:], amplitude=0.29, frames=6)

    def test_validation(self):
        mol = water_molecule()
        with pytest.raises(ValueError):
            nm.mode_animation(mol, np.zeros(9), amplitude=0.1, frames=1)
        with pytest.raises(ValueError):
            nm.mode_animation(mol, np.zeros(9), amplitude=-1.0, frames=4)
