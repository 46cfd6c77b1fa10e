import math

import numpy as np
import pytest

from conftest import water_molecule
from vibrot import constants
from vibrot import molecule as mo
from vibrot import normalmodes as nm
from vibrot.molecule import (
    AngleBend,
    Atom,
    BondStretch,
    CartesianDisplacement,
    DegenerateGeometry,
    IndexOutOfRange,
    InternalCoordinateSet,
    LinearCombination,
    MassMatrix,
    Molecule,
    MoleculeError,
    RankDeficient,
    Torsion,
)
from vibrot.quadform import SymMatrix

# -- independent coordinate-value functions (finite-difference oracle) ---------


def _distance(pos, i, j):
    return np.linalg.norm(pos[i] - pos[j])


def _angle(pos, i, j, k):
    u = pos[i] - pos[j]
    v = pos[k] - pos[j]
    c = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(np.clip(c, -1.0, 1.0))


def _dihedral(pos, i, j, k, l):
    b1 = pos[j] - pos[i]
    b2 = pos[k] - pos[j]
    b3 = pos[l] - pos[k]
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.linalg.norm(b2))
    return math.atan2(m1 @ n2, n1 @ n2)


def fd_row(value_fn, pos, step=1e-5):
    """Central finite-difference gradient of a coordinate value function."""
    flat = pos.reshape(-1).copy()
    out = np.zeros_like(flat)
    for idx in range(flat.size):
        fwd = flat.copy()
        bwd = flat.copy()
        fwd[idx] += step
        bwd[idx] -= step
        out[idx] = (value_fn(fwd.reshape(-1, 3)) - value_fn(bwd.reshape(-1, 3))) / (
            2 * step
        )
    return out


def twomass_1d():
    return Molecule.from_lists(
        ["m1", "m2"], [1.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], dimensionality=1
    )


class TestMoleculeType:
    def test_requires_atoms(self):
        with pytest.raises(MoleculeError):
            Molecule(atoms=())

    def test_positive_masses(self):
        with pytest.raises(MoleculeError):
            Atom("X", -1.0, (0, 0, 0))

    def test_properties(self):
        mol = water_molecule()
        assert mol.natoms == 3
        assert mol.ncart == 9
        assert mol.total_mass == pytest.approx(18.015)

    def test_masses_and_positions_are_cached_and_read_only(self):
        mol = water_molecule()
        want = (np.array([a.mass for a in mol.atoms]), np.array([a.position for a in mol.atoms]))
        for arr, values in zip((mol.masses, mol.positions), want):
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr += 1.0
            assert np.array_equal(arr, values)
        assert mol.masses is mol.masses and mol.positions is mol.positions


class TestBuildBMatrix:
    def test_two_mass_cartesian_coordinates_give_identity(self):
        mol = twomass_1d()
        ics = InternalCoordinateSet(
            (CartesianDisplacement(0, 0), CartesianDisplacement(1, 0))
        )
        b = mo.build_b_matrix(mol, ics)
        np.testing.assert_allclose(b.rows, np.eye(2), atol=1e-15)

    def test_diatomic_stretch_row(self):
        mol = Molecule.from_lists(
            ["A", "B"], [1.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        b = mo.build_b_matrix(mol, InternalCoordinateSet((BondStretch(0, 1),)))
        np.testing.assert_allclose(b.rows[0], [-1, 0, 0, 1, 0, 0], atol=1e-15)

    def test_water_rows_match_finite_differences(self):
        mol = water_molecule()
        pos = mol.positions
        ics = InternalCoordinateSet(
            (BondStretch(0, 1), BondStretch(0, 2), AngleBend(1, 0, 2))
        )
        b = mo.build_b_matrix(mol, ics)
        oracles = [
            lambda p: _distance(p, 0, 1),
            lambda p: _distance(p, 0, 2),
            lambda p: _angle(p, 1, 0, 2),
        ]
        for row, fn in zip(b.rows, oracles):
            np.testing.assert_allclose(row, fd_row(fn, pos), atol=1e-6)

    def test_torsion_row_matches_finite_differences(self):
        mol = Molecule.from_lists(
            ["C", "C", "C", "C"],
            [12.0, 12.0, 12.0, 12.0],
            [
                [0.0, 0.0, 0.0],
                [1.5, 0.0, 0.0],
                [2.0, 1.4, 0.0],
                [3.1, 1.7, 1.1],
            ],
        )
        b = mo.build_b_matrix(mol, InternalCoordinateSet((Torsion(0, 1, 2, 3),)))
        oracle = fd_row(lambda p: _dihedral(p, 0, 1, 2, 3), mol.positions)
        np.testing.assert_allclose(b.rows[0], oracle, atol=1e-6)

    def test_internal_rows_have_zero_axis_sums(self):
        mol = water_molecule()
        ics = InternalCoordinateSet(
            (BondStretch(0, 1), BondStretch(0, 2), AngleBend(1, 0, 2))
        )
        b = mo.build_b_matrix(mol, ics)
        per_axis = b.rows.reshape(len(ics), mol.natoms, 3).sum(axis=1)
        assert np.abs(per_axis).max() < 1e-12

    def test_collinear_bend_rejected(self):
        mol = Molecule.from_lists(
            ["A", "B", "C"],
            [1.0, 1.0, 1.0],
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
        )
        with pytest.raises(DegenerateGeometry):
            mo.build_b_matrix(mol, InternalCoordinateSet((AngleBend(0, 1, 2),)))

    def test_zero_bond_rejected(self):
        mol = Molecule.from_lists(
            ["A", "B"], [1.0, 1.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        with pytest.raises(DegenerateGeometry):
            mo.build_b_matrix(mol, InternalCoordinateSet((BondStretch(0, 1),)))

    def test_index_out_of_range(self):
        mol = twomass_1d()
        with pytest.raises(IndexOutOfRange):
            mo.build_b_matrix(mol, InternalCoordinateSet((BondStretch(0, 5),)))

    def test_duplicate_rows_rank_deficient(self):
        mol = Molecule.from_lists(
            ["A", "B"], [1.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        # B takes the rows; the solve's one rank test rejects them
        b = mo.build_b_matrix(
            mol, InternalCoordinateSet((BondStretch(0, 1), BondStretch(1, 0)))
        )
        masses = MassMatrix.from_molecule(mol)
        ff = nm.ForceField(f=SymMatrix.identity(2))
        with pytest.raises(RankDeficient, match="B matrix rows are linearly dependent"):
            nm.solve(mo.build_g_matrix(b, masses), ff, b=b, masses=masses)

    def test_linear_combination_row(self):
        mol = twomass_1d()
        ics = InternalCoordinateSet((LinearCombination((0.5, -0.5)),))
        b = mo.build_b_matrix(mol, ics)
        np.testing.assert_allclose(b.rows[0], [0.5, -0.5])


class TestExtendBMatrix:
    def test_two_mass_translation_row(self):
        # T_x coefficients m_i / sqrt(M) equal sqrt(mu) for equal masses
        m = 3.0
        mol = Molecule.from_lists(
            ["m1", "m2"], [m, m], [[0.0, 0, 0], [1.0, 0, 0]], dimensionality=1
        )
        b = mo.build_b_matrix(
            mol, InternalCoordinateSet((LinearCombination((1.0, -1.0)),))
        )
        ext = mo.extend_b_matrix(b, mol)
        assert ext.kinds == ("internal", "translation")
        mu = m / 2.0
        np.testing.assert_allclose(ext.rows[1], [math.sqrt(mu)] * 2, rtol=1e-12)

    def test_diatomic_3d_is_six_by_six_full_rank(self):
        mol = Molecule.from_lists(
            ["A", "B"], [1.0, 2.0], [[0.0, 0, 0], [1.1, 0, 0]]
        )
        b = mo.build_b_matrix(mol, InternalCoordinateSet((BondStretch(0, 1),)))
        ext = mo.extend_b_matrix(b, mol)
        assert ext.rows.shape == (6, 6)
        assert ext.kinds.count("rotation") == 2  # axis rotation excluded
        sv = np.linalg.svd(ext.rows, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_water_extended_square_and_g_block_orthogonal(self):
        mol = water_molecule()
        ics = InternalCoordinateSet(
            (BondStretch(0, 1), BondStretch(0, 2), AngleBend(1, 0, 2))
        )
        b = mo.build_b_matrix(mol, ics)
        ext = mo.extend_b_matrix(b, mol)
        assert ext.rows.shape == (9, 9)
        masses = MassMatrix.from_molecule(mol)
        g = mo.build_g_matrix(ext, masses)
        # frame rows decouple from internal rows in the G metric
        assert np.abs(g.entries[:3, 3:]).max() < 1e-8
        # and the frame block is orthonormal
        np.testing.assert_allclose(g.entries[3:, 3:], np.eye(6), atol=1e-10)

    def test_bad_internal_count_rejected(self):
        mol = water_molecule()
        b = mo.build_b_matrix(mol, InternalCoordinateSet((BondStretch(0, 1),)))
        with pytest.raises(RankDeficient):
            mo.extend_b_matrix(b, mol)
        # more coordinates than Cartesian dims fail B's one shape check
        with pytest.raises(RankDeficient, match="10 coordinates cannot be independent in 9"):
            mo.build_b_matrix(mol, InternalCoordinateSet((BondStretch(0, 1),) * 10))

    def test_planar_2d_molecule_keeps_one_rotation(self):
        # 2N - 3 internal coordinates + 2 translations + in-plane rotation
        mol = Molecule.from_lists(
            ["A", "B", "C"],
            [1.0, 2.0, 3.0],
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.4, 0.9, 0.0]],
            dimensionality=2,
        )
        ics = InternalCoordinateSet(
            (BondStretch(0, 1), BondStretch(0, 2), AngleBend(1, 0, 2))
        )
        b = mo.build_b_matrix(mol, ics)
        ext = mo.extend_b_matrix(b, mol)
        assert ext.rows.shape == (6, 6)
        assert ext.kinds.count("translation") == 2
        assert ext.kinds.count("rotation") == 1
        masses = MassMatrix.from_molecule(mol)
        g = mo.build_g_matrix(ext, masses)
        np.testing.assert_allclose(g.entries[3:, 3:], np.eye(3), atol=1e-10)


class TestGMatrix:
    def test_two_mass_g_is_inverse_mass(self):
        mol = twomass_1d()
        ics = InternalCoordinateSet(
            (CartesianDisplacement(0, 0), CartesianDisplacement(1, 0))
        )
        b = mo.build_b_matrix(mol, ics)
        g = mo.build_g_matrix(b, MassMatrix.from_molecule(mol))
        np.testing.assert_allclose(g.entries, np.eye(2), atol=1e-15)

    def test_diatomic_reduced_mass_element(self):
        m1, m2 = 1.5, 3.5
        mol = Molecule.from_lists(
            ["A", "B"], [m1, m2], [[0.0, 0, 0], [1.0, 0, 0]]
        )
        b = mo.build_b_matrix(mol, InternalCoordinateSet((BondStretch(0, 1),)))
        g = mo.build_g_matrix(b, MassMatrix.from_molecule(mol))
        assert g.entries[0, 0] == pytest.approx(1 / m1 + 1 / m2, rel=1e-14)

    def test_identity_b_unit_masses(self):
        b = mo.BMatrix(rows=np.eye(3), kinds=("internal",) * 3)
        g = mo.build_g_matrix(b, MassMatrix(np.ones(3)))
        np.testing.assert_allclose(g.entries, np.eye(3), atol=1e-15)

    def test_translation_invariance_of_internal_g(self):
        mol = water_molecule()
        ics = InternalCoordinateSet(
            (BondStretch(0, 1), BondStretch(0, 2), AngleBend(1, 0, 2))
        )
        masses = MassMatrix.from_molecule(mol)
        g0 = mo.build_g_matrix(mo.build_b_matrix(mol, ics), masses)
        shifted = Molecule.from_lists(
            [a.label for a in mol.atoms],
            mol.masses,
            mol.positions + np.array([1.3, -0.2, 5.0]),
        )
        g1 = mo.build_g_matrix(mo.build_b_matrix(shifted, ics), masses)
        assert np.abs(g0.entries - g1.entries).max() < 1e-10


class TestInertia:
    def test_single_atom(self):
        mol = Molecule.from_lists(["X"], [12.0], [[0.0, 0.0, 0.0]])
        data = mo.inertia(mol)
        assert np.abs(data.tensor).max() == 0.0
        assert all(math.isinf(c) for c in data.rotational_constants)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e7])
    def test_zero_moment_threshold_follows_the_geometry(self, offset):
        # off the origin the centre-of-mass shift leaves roundoff in the
        # moments: 4e-32 for one atom, which has no rotational constant, and
        # 2e-9 along a diatomic 1e7 Angstrom out, which stays linear
        atom = Molecule.from_lists(["C"], [12.0], [[0.4 + offset, -1.0, 2.0]])
        assert all(math.isinf(c) for c in mo.inertia(atom).rotational_constants)
        pair = Molecule.from_lists(
            ["A", "B"], [1.0, 2.0], [[0.3 + offset, offset, offset], [1.5 + offset, offset, offset]]
        )
        a, b, c = mo.inertia(pair).rotational_constants
        assert math.isinf(a)
        assert b == c == pytest.approx(constants.ROTATIONAL_CM / 0.96, rel=1e-8)

    def test_two_point_masses(self):
        mol = Molecule.from_lists(
            ["A", "B"], [1.0, 1.0], [[1.0, 0, 0], [-1.0, 0, 0]]
        )
        data = mo.inertia(mol)
        np.testing.assert_allclose(data.principal_moments, [0.0, 2.0, 2.0], atol=1e-12)
        assert math.isinf(data.rotational_constants[0])
        assert data.rotational_constants[1] == pytest.approx(
            constants.ROTATIONAL_CM / 2.0
        )

    def test_conversion_constant_against_codata(self):
        # independent recomputation of h / (8 pi^2 c) in cm^-1 amu A^2
        h = 6.62607015e-34
        c_cm = 2.99792458e10
        amu = 1.66053906660e-27
        kappa = h / (8 * math.pi**2 * c_cm * amu * 1e-20)
        assert constants.ROTATIONAL_CM == pytest.approx(kappa, rel=1e-6)
        assert kappa == pytest.approx(16.8576, rel=1e-4)

    def test_principal_axes_diagonalize(self, rng):
        mol = Molecule.from_lists(
            ["A", "B", "C", "D"],
            [1.0, 2.0, 3.0, 4.0],
            rng.normal(size=(4, 3)),
        )
        data = mo.inertia(mol)
        r = data.principal_axes
        d = r.T @ data.tensor @ r
        assert np.abs(d - np.diag(np.diag(d))).max() < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_constants_sorted_descending(self):
        mol = water_molecule()
        a, b, c = mo.inertia(mol).rotational_constants
        assert a >= b >= c > 0


class TestCenterOfMass:
    def test_already_centered_unchanged(self):
        mol = Molecule.from_lists(
            ["A", "B"], [1.0, 1.0], [[1.0, 0, 0], [-1.0, 0, 0]]
        )
        out = mo.inertia(mol).com_positions
        np.testing.assert_allclose(out, mol.positions, atol=1e-15)

    def test_two_equal_masses(self):
        mol = Molecule.from_lists(
            ["A", "B"], [2.0, 2.0], [[0.0, 0, 0], [2.0, 0, 0]]
        )
        out = mo.inertia(mol).com_positions
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0], atol=1e-15)

    def test_random_molecule_com_vanishes(self, rng):
        mol = Molecule.from_lists(
            ["A", "B", "C"], [1.0, 2.7, 0.3], rng.normal(size=(3, 3))
        )
        out = mo.inertia(mol).com_positions
        com_norm = np.linalg.norm(mol.masses @ out)
        assert com_norm < 1e-12


def frame_molecules():
    """Water, a diatomic along x (two equal moments mu r^2 = 0.96) and a
    single atom (no nonzero moment)."""
    return {
        "water": water_molecule(),
        "diatomic": Molecule.from_lists(["A", "B"], [1.0, 2.0], [[0.3, 0, 0], [1.5, 0, 0]]),
        "atom": Molecule.from_lists(["X"], [12.0], [[0.0, 0.0, 0.0]]),
    }


class TestEquilibriumFrame:
    def test_computed_once_per_molecule(self):
        mol = water_molecule()
        assert mo.inertia(mol) is mo.inertia(mol)
        assert mo.inertia(water_molecule()) is not mo.inertia(mol)

    def test_arrays_are_read_only(self):
        data = mo.inertia(water_molecule())
        for name in ("tensor", "principal_moments", "principal_axes", "com_positions",
                     "rotation_rows", "tensor_pinv"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(data, name)[0] = 1.0

    @pytest.mark.parametrize("kind,count", [("water", 3), ("diatomic", 2), ("atom", 0)])
    def test_rotation_rows_orthonormal_in_inverse_mass_metric(self, kind, count):
        mol = frame_molecules()[kind]
        rows = mo.inertia(mol).rotation_rows
        assert rows.shape == (count, mol.natoms, 3)
        # rotations about the centre of mass carry no momentum
        np.testing.assert_allclose(rows.sum(axis=1), 0.0, atol=1e-12)
        flat = rows.reshape(count, 3 * mol.natoms)
        inv_mass = np.repeat(1.0 / mol.masses, 3)
        np.testing.assert_allclose((flat * inv_mass) @ flat.T, np.eye(count), atol=1e-12)

    @pytest.mark.parametrize(
        "kind,expected",
        [("water", None), ("diatomic", np.diag([0.0, 1 / 0.96, 1 / 0.96])),
         ("atom", np.zeros((3, 3)))],
    )
    def test_pseudo_inverse(self, kind, expected):
        data = mo.inertia(frame_molecules()[kind])
        if expected is None:
            expected = np.linalg.inv(data.tensor)
        np.testing.assert_allclose(data.tensor_pinv, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max(initial=0.0))
        if kind == "atom":
            assert not data.tensor_pinv.any()
