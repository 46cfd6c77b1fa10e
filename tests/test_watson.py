import itertools
import math
import unittest.mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, bent_triatomic, water_isotopologue, water_molecule
from vibrot import cli, constants
from vibrot import molecule as mo
from vibrot import normalmodes as nm
from vibrot import watson as wa
from vibrot.molecule import Molecule
from vibrot.quadform import SymMatrix
from vibrot.watson import (
    InertiaExpansion,
    NonOrthonormalL,
    SingularInertia,
    coriolis_constants,
    coriolis_data,
    eckart_conditions_check,
    inertia_expansion,
    interaction_coefficients,
    sum_rule_residuals,
    watson_u,
)

EPS = np.finfo(float).eps

# -- independent oracles --------------------------------------------------------


def eps_sign(a, b, c):
    """Levi-Civita symbol via permutation parity (independent of production)."""
    perm = (a, b, c)
    if len(set(perm)) < 3:
        return 0
    sign = 1
    lst = list(perm)
    for i in range(3):
        for j in range(2 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return sign


def zeta_bruteforce(l):
    natoms = l.shape[0] // 3
    n = l.shape[1]
    shaped = l.reshape(natoms, 3, n)
    out = np.zeros((3, n, n))
    for alpha, beta, gamma in itertools.product(range(3), repeat=3):
        s = eps_sign(alpha, beta, gamma)
        if s == 0:
            continue
        for k in range(n):
            for m in range(n):
                out[alpha, k, m] += s * np.sum(
                    shaped[:, beta, k] * shaped[:, gamma, m]
                )
    return out


def zeta_per_pair_cross(l):
    """zeta from one cross product per mode pair, summed over atoms.

    This is the summation order coriolis_constants must reproduce bit for
    bit, signed zeros included.
    """
    natoms = l.shape[0] // 3
    n = l.shape[1]
    shaped = l.reshape(natoms, 3, n)
    zeta = np.zeros((3, n, n))
    for k in range(n):
        for m in range(k + 1, n):
            c = np.cross(shaped[:, :, k], shaped[:, :, m]).sum(axis=0)
            zeta[:, k, m] = c
            zeta[:, m, k] = -c
    return zeta


def zeta_per_atom_outer(l):
    """zeta from full n x n per-atom terms l_p l_q^T - l_q l_p^T, summed in
    atom order from +0.0, the upper triangle kept and negated below; the
    form coriolis_constants had before it summed only the entries k < l."""
    natoms = l.shape[0] // 3
    n = l.shape[1]
    shaped = l.reshape(natoms, 3, n)
    upper = np.triu_indices(n, 1)
    zeta = np.zeros((3, n, n))
    for alpha, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
        acc = np.zeros((n, n))
        for i in range(natoms):
            prod = np.multiply.outer(shaped[i, p], shaped[i, q])
            acc += prod - prod.T
        zeta[alpha][upper] = acc[upper]
        zeta[alpha].T[upper] = -acc[upper]
    return zeta


def zigzag_chain(natoms, planar):
    """(mol, l) of a zigzag chain (stretches and bends), jittered in or out of plane."""
    jitter = np.random.default_rng(natoms).uniform(-0.1, 0.1, (natoms, 3))
    if planar:
        jitter[:, 2] = 0.0
    positions = [[i * 0.816, 0.577 * (i % 2), 0.0] for i in range(natoms)]
    masses = [12.0 + 2.0 * (i % 3) for i in range(natoms)]
    mol = Molecule.from_lists(
        [f"X{i}" for i in range(natoms)], masses, np.array(positions) + jitter
    )
    coords = [mo.BondStretch(i, i + 1) for i in range(natoms - 1)]
    coords += [mo.AngleBend(i, i + 1, i + 2) for i in range(natoms - 2)]
    b = mo.build_b_matrix(mol, mo.InternalCoordinateSet(tuple(coords)))
    masses_m = mo.MassMatrix.from_molecule(mol)
    f = SymMatrix(np.diag(np.linspace(1.0, 6.0, len(coords))))
    res = nm.solve(
        mo.build_g_matrix(b, masses_m), nm.ForceField(f=f), b=b, masses=masses_m
    )
    return mol, res.l


def com_shifted(mol):
    """The molecule translated so that sum(m_i r_i) = 0, from its masses and
    positions alone, so that the oracles do not read the frame they check."""
    m, pos = mol.masses, mol.positions
    labels = [atom.label for atom in mol.atoms]
    return Molecule.from_lists(labels, m, pos - m @ pos / m.sum(), mol.dimensionality)


def fd_interaction(mol, l, step=1e-5):
    """(dI/dQ_k) by central differences along the mass-weighted modes."""
    shifted = com_shifted(mol)
    flat0 = shifted.positions.reshape(-1)
    inv_sqm = 1.0 / np.repeat(np.sqrt(mol.masses), 3)
    n = l.shape[1]
    out = np.zeros((n, 3, 3))
    for k in range(n):
        plus = (flat0 + step * inv_sqm * l[:, k]).reshape(-1, 3)
        minus = (flat0 - step * inv_sqm * l[:, k]).reshape(-1, 3)
        i_plus = mo._inertia_tensor(mol.masses, plus)
        i_minus = mo._inertia_tensor(mol.masses, minus)
        out[k] = (i_plus - i_minus) / (2 * step)
    return out


def diatomic_pipeline(m1=1.0, m2=2.0, r0=1.2, k=1.0):
    x2 = r0 * m1 / (m1 + m2)
    x1 = x2 - r0
    mol = Molecule.from_lists(["A", "B"], [m1, m2], [[x1, 0, 0], [x2, 0, 0]])
    ics = mo.InternalCoordinateSet((mo.BondStretch(0, 1),))
    b = mo.build_b_matrix(mol, ics)
    masses = mo.MassMatrix.from_molecule(mol)
    g = mo.build_g_matrix(b, masses)
    res = nm.solve(g, nm.ForceField(f=SymMatrix([[k]])), b=b, masses=masses)
    return mol, res


def illcond8_pipeline():
    parsed = cli.parse_input(FIXTURES / "illcond8.inp")
    return parsed.molecule, cli._solve_modes(parsed, "cm").l


def rule1_einsum(cd, mol, l):
    """Watson rule 1 from four-index einsums, term by term.

    Returns (max-abs residual, largest absolute entry of any term).
    """
    natoms, n = mol.natoms, l.shape[1]
    shaped = l.reshape(natoms, 3, n)
    shifted = com_shifted(mol)
    i0 = mo._inertia_tensor(shifted.masses, shifted.positions)
    i0_inv = np.linalg.pinv(i0, rcond=wa.SINGULAR_TOL, hermitian=True)
    a = cd.a_coeff
    lhs = np.einsum("akn,bln->abkl", cd.zeta, cd.zeta)
    ident = np.einsum("ab,kl->abkl", np.eye(3), np.eye(n))
    overlap = np.einsum("ibk,ial->abkl", shaped, shaped)
    inertia = 0.25 * np.einsum("kag,gd,ldb->abkl", a, i0_inv, a)
    resid = lhs - (ident - overlap - inertia)
    terms = (lhs, overlap, inertia)
    largest = max((np.abs(t).max() for t in terms if t.size), default=0.0)
    return (np.abs(resid).max() if resid.size else 0.0), largest


def _eps_table():
    return np.array([[[eps_sign(a, b, c) for c in range(3)] for b in range(3)]
                     for a in range(3)], dtype=float)


def interaction_eps_loop(mol, l):
    """dI/dQ_k from the double Levi-Civita contraction of the inertia
    expansion, one (alpha, beta, gamma, delta, eta) term at a time."""
    natoms, n = mol.natoms, l.shape[1]
    shaped = l.reshape(natoms, 3, n)
    pos = mol.positions - mol.center_of_mass()
    sqm = np.sqrt(mol.masses)
    a = np.zeros((n, 3, 3))
    for alpha, beta, gamma, delta, eta in itertools.product(range(3), repeat=5):
        e = eps_sign(alpha, gamma, delta) * eps_sign(beta, eta, delta)
        if e == 0:
            continue
        contrib = sqm[:, None] * (
            pos[:, gamma, None] * shaped[:, eta, :] + pos[:, eta, None] * shaped[:, gamma, :]
        )
        a[:, alpha, beta] += e * contrib.sum(axis=0)
    return a


def _geometry(mol):
    """(I0, its pseudo-inverse, the second moment K) about the centre of mass."""
    shifted = com_shifted(mol)
    pos = shifted.positions
    i0 = mo._inertia_tensor(shifted.masses, pos)
    i0_inv = np.linalg.pinv(i0, rcond=wa.SINGULAR_TOL, hermitian=True)
    return i0, i0_inv, np.einsum("i,ia,ib->ab", shifted.masses, pos, pos)


def rule2_explicit(cd, mol):
    """Watson rule 2 with its right side expanded in the second moment K:
    sum_k a_k^ab a_k^gd = 4 tr K d_ab d_gd - 4 (d_ab K_gd + d_gd K_ab)
    + (K_ag d_bd + K_ad d_bg + K_bg d_ad + K_bd d_ag) - w_ab (I0)^-1 w_gd,
    the last term removing the rotations.

    Returns (max-abs residual, largest absolute entry of any term).
    """
    _, i0_inv, kmat = _geometry(mol)
    eps, eye, a = _eps_table(), np.eye(3), cd.a_coeff
    lhs = np.einsum("kab,kgd->abgd", a, a)
    direct = (
        4.0 * np.trace(kmat) * np.einsum("ab,gd->abgd", eye, eye)
        - 4.0 * np.einsum("ab,gd->abgd", eye, kmat)
        - 4.0 * np.einsum("gd,ab->abgd", eye, kmat)
        + np.einsum("bd,ag->abgd", eye, kmat)
        + np.einsum("bg,ad->abgd", eye, kmat)
        + np.einsum("ad,bg->abgd", eye, kmat)
        + np.einsum("ag,bd->abgd", eye, kmat)
    )
    w = np.einsum("pgb,ga->abp", eps, kmat) + np.einsum("pga,gb->abp", eps, kmat)
    rot = np.einsum("abp,pq,gdq->abgd", w, i0_inv, w)
    largest = max(np.abs(t).max() for t in (lhs, direct, rot))
    return np.abs(lhs - direct + rot).max(), largest


def rule3_literal(cd, mol):
    """Rule 3 read off its printed index pattern,
    sum_l zeta^a_kl a_l^bg = (1/2) eps_abg tr a_k - eps_abe a_k^eg
    - (eps_bde K_dg (I0)^-1_eg) sum_x a_k^xa.
    The indices do not balance, so this is not an identity: it is O(1) even
    for exact Eckart modes.  Returns its max-abs residual."""
    _, i0_inv, kmat = _geometry(mol)
    eps, a = _eps_table(), cd.a_coeff
    lhs = np.einsum("akl,lbg->abgk", cd.zeta, a)
    rhs = 0.5 * np.einsum("abg,k->abgk", eps, np.einsum("kee->k", a))
    rhs -= np.einsum("abe,keg->abgk", eps, a)
    geom = np.einsum("bde,dg,eg->bg", eps, kmat, i0_inv)
    rhs -= np.einsum("bg,ka->abgk", geom, np.einsum("kxa->ka", a))
    return np.abs(lhs - rhs).max()


def eckart_complement(mol):
    """Orthonormal mass-weighted vectors orthogonal to the three translations
    and three rotations about the centre of mass: modes that satisfy the
    Eckart conditions, built without the GF solve."""
    shifted = com_shifted(mol)
    sqm = np.sqrt(shifted.masses)[:, None]
    ext = []
    for axis in np.eye(3):
        ext.append((sqm * axis).ravel())
        ext.append((sqm * np.cross(axis, shifted.positions)).ravel())
    q, _ = np.linalg.qr(np.array(ext).T, mode="complete")
    return q[:, 6:]


class TestCoriolisConstants:
    def test_diagonal_zero_and_antisymmetry(self, water):
        mol, _, _, _, res = water
        cd = coriolis_constants(res.l)
        assert np.abs(np.einsum("akk->ak", cd.zeta)).max() == 0.0
        assert np.abs(cd.zeta + cd.zeta.transpose(0, 2, 1)).max() == 0.0

    def test_parallel_modes_give_zero(self):
        # two modes whose per-atom vectors are parallel -> vanishing cross products
        l = np.zeros((6, 2))
        l[0, 0] = 1.0
        l[3, 1] = 1.0
        cd = coriolis_constants(l)
        assert np.abs(cd.zeta).max() == 0.0

    def test_matches_bruteforce_epsilon_sum(self, water):
        mol, _, _, _, res = water
        cd = coriolis_constants(res.l)
        np.testing.assert_allclose(cd.zeta, zeta_bruteforce(res.l), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        l = np.ones((6, 2))
        with pytest.raises(NonOrthonormalL):
            coriolis_constants(l)


class TestCoriolisBitIdentity:
    def assert_bit_identical(self, l):
        got = coriolis_constants(l).zeta
        want = zeta_per_pair_cross(l)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        return want

    def test_planar_water(self, water):
        mol, _, _, _, res = water
        self.assert_bit_identical(res.l)

    def test_planar_water_with_exact_zeros(self, water):
        # out-of-plane components exactly zero: the zero cross products carry
        # a sign, and the lower triangle holds negative zeros
        mol, _, _, _, res = water
        l = res.l.copy()
        l.reshape(3, 3, 3)[:, 0, :] = 0.0
        want = self.assert_bit_identical(l)
        assert np.any((want == 0.0) & np.signbit(want))

    def test_sum_of_negative_zeros(self):
        # every atom's y term is (-c)(0) - (0)(0) = -0.0; numpy's sum starts
        # from +0.0, so zeta_y[0, 1] is +0.0 and zeta_y[1, 0] is -0.0
        c = 1.0 / math.sqrt(2.0)
        l = np.array([[0.0, 0.0], [0.0, c], [-c, 0.0]] * 2)
        want = self.assert_bit_identical(l)
        assert not np.signbit(want[1, 0, 1]) and np.signbit(want[1, 1, 0])

    def test_ill_conditioned_fixture(self):
        self.assert_bit_identical(illcond8_pipeline()[1])

    @pytest.mark.parametrize("planar", [True, False])
    def test_zigzag_chain(self, planar):
        _, l = zigzag_chain(24, planar)
        assert l.shape == (72, 45)
        self.assert_bit_identical(l)


class TestCoriolisSlabs:
    # n below, at and above the slab of 64 rows, and small slabs against many rows
    @settings(max_examples=30)
    @given(n=st.sampled_from([1, 2, 3, 17, 63, 64, 65, 66, 129]),
           slab=st.sampled_from([1, 2, 7, wa.ZETA_SLAB_ROWS]),
           zero_axes=st.sets(st.integers(0, 2), max_size=2), extra_atoms=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_atom_outer_products(self, n, slab, zero_axes, extra_atoms, seed):
        # l orthonormal on the axes it uses: an unused axis (a planar or
        # linear input) gives exact zero rows, whose products carry a sign
        rng = np.random.default_rng(seed)
        axes = [a for a in range(3) if a not in zero_axes]
        natoms = -(-n // len(axes)) + extra_atoms
        q, _ = np.linalg.qr(rng.normal(size=(natoms * len(axes), n)))
        l = np.zeros((natoms, 3, n))
        l[:, axes] = q.reshape(natoms, len(axes), n)
        l = l.reshape(3 * natoms, n)
        with unittest.mock.patch.object(wa, "ZETA_SLAB_ROWS", slab):
            got = coriolis_constants(l).zeta
        want = zeta_per_atom_outer(l)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestInteractionCoefficients:
    def test_single_atom_all_zero(self):
        mol = Molecule.from_lists(["X"], [5.0], [[0.0, 0.0, 0.0]])
        a = interaction_coefficients(mol, np.eye(3))
        assert np.abs(a).max() == 0.0

    def test_diatomic_stretch_matches_finite_difference(self):
        mol, res = diatomic_pipeline()
        a = interaction_coefficients(mol, res.l)
        fd = fd_interaction(mol, res.l)
        np.testing.assert_allclose(a, fd, atol=1e-6)
        # stretching changes the perpendicular moments equally, not the axial one
        assert a[0, 1, 1] == pytest.approx(a[0, 2, 2], rel=1e-12)
        assert abs(a[0, 0, 0]) < 1e-12

    def test_water_matches_finite_difference(self, water):
        mol, _, _, _, res = water
        a = interaction_coefficients(mol, res.l)
        np.testing.assert_allclose(a, fd_interaction(mol, res.l), atol=1e-6)

    def assert_matches_eps_loop(self, mol, l):
        a = interaction_coefficients(mol, l)
        want = interaction_eps_loop(mol, l)
        assert np.abs(a - want).max() <= 1e-14 * np.abs(want).max()

    def test_matches_levi_civita_loop_water(self, water):
        mol, _, _, _, res = water
        self.assert_matches_eps_loop(mol, res.l)

    def test_matches_levi_civita_loop_illcond8(self):
        self.assert_matches_eps_loop(*illcond8_pipeline())

    @pytest.mark.parametrize("planar", [True, False])
    def test_matches_levi_civita_loop_zigzag_chain(self, planar):
        self.assert_matches_eps_loop(*zigzag_chain(24, planar))

    def test_symmetry_exact(self, rng, water):
        mol, _, _, _, res = water
        a = interaction_coefficients(mol, res.l)
        assert np.abs(a - a.transpose(0, 2, 1)).max() < 1e-12


class TestSumRules:
    def assert_rule1_matches_einsums(self, mol, l):
        cd = coriolis_data(mol, l)
        sr = sum_rule_residuals(cd, mol, l)
        want, largest = rule1_einsum(cd, mol, l)
        assert abs(sr.rule1 - want) <= 1e-13 * (1.0 + largest)
        return sr

    def test_rule1_matches_einsums_water(self, water):
        mol, _, _, _, res = water
        assert self.assert_rule1_matches_einsums(mol, res.l).rule1 < 1e-8

    def test_rule1_matches_einsums_illcond8(self):
        self.assert_rule1_matches_einsums(*illcond8_pipeline())

    @pytest.mark.parametrize("planar", [True, False])
    def test_rule1_matches_einsums_zigzag_chain(self, planar):
        # 45 modes span only part of the 66 vibrations, so rule 1 is O(1) here
        self.assert_rule1_matches_einsums(*zigzag_chain(24, planar))

    def assert_rule2_matches_explicit(self, mol, l):
        cd = coriolis_data(mol, l)
        sr = sum_rule_residuals(cd, mol, l)
        want, largest = rule2_explicit(cd, mol)
        assert abs(sr.rule2 - want) <= 1e-13 * (1.0 + largest)
        return sr

    def test_rule2_matches_explicit_water(self, water):
        mol, _, _, _, res = water
        assert self.assert_rule2_matches_explicit(mol, res.l).rule2 < 1e-8

    def test_rule2_matches_explicit_illcond8(self):
        self.assert_rule2_matches_explicit(*illcond8_pipeline())

    @pytest.mark.parametrize("planar", [True, False])
    def test_rule2_matches_explicit_zigzag_chain(self, planar):
        # the 45 modes are the planar chain's in-plane vibrations, which carry
        # every inertia derivative; off the plane they miss some
        sr = self.assert_rule2_matches_explicit(*zigzag_chain(24, planar))
        assert (sr.rule2 < 1e-8) if planar else (sr.rule2 > 1e-4)

    def test_rule2_matches_explicit_linear_molecule(self):
        mol, res = diatomic_pipeline()
        self.assert_rule2_matches_explicit(mol, res.l)

    def test_literal_rule3_is_not_an_identity(self, water):
        mol, _, _, _, res = water
        cd = coriolis_data(mol, res.l)
        assert rule3_literal(cd, mol) >= 1.0
        assert sum_rule_residuals(cd, mol, res.l).rule3 < 1e-12

    def test_diatomic_exact(self):
        mol, res = diatomic_pipeline()
        cd = coriolis_data(mol, res.l)
        sr = sum_rule_residuals(cd, mol, res.l)
        assert sr.rule1 < 1e-10
        assert sr.rule2 < 1e-10
        assert sr.rule3 < 1e-10

    def test_water_pipeline_exact(self, water):
        mol, _, _, _, res = water
        cd = coriolis_data(mol, res.l)
        sr = sum_rule_residuals(cd, mol, res.l)
        assert sr.rule1 < 1e-8
        assert sr.rule2 < 1e-8

    def test_non_eckart_modes_reported_not_small(self, rng, water):
        # negative control: orthonormal columns that ignore the Eckart frame
        mol, _, _, _, res = water
        q, _ = np.linalg.qr(rng.normal(size=(9, 3)))
        sr = self.assert_rule1_matches_einsums(mol, q)
        assert sr.rule1 > 1e-4
        assert sr.rule2 > 1e-4
        assert sr.rule3 > 1e-4

    def test_single_atom_trivial(self):
        mol = Molecule.from_lists(["X"], [3.0], [[0.0, 0.0, 0.0]])
        l = np.zeros((3, 0))
        sr = self.assert_rule1_matches_einsums(mol, l)
        # no modes: rule 2 compares zero against zero geometry sums
        assert sr.rule1 == 0.0
        assert sr.rule2 == 0.0
        assert sr.rule3 == 0.0

    @settings(max_examples=40)
    @given(
        st.integers(4, 8),
        st.lists(st.floats(1.0, 40.0), min_size=8, max_size=8),
        st.lists(st.floats(-0.2, 0.2), min_size=24, max_size=24),
    )
    def test_rules_hold_on_perturbed_nonplanar_molecules(self, natoms, masses, shifts):
        # a helix (nonplanar from four atoms on), each atom moved by up to 0.2
        turn = 2.0 * math.pi * np.arange(natoms) / 3.6
        helix = np.column_stack(
            [1.2 * np.cos(turn), 1.2 * np.sin(turn), 0.5 * np.arange(natoms)]
        )
        pos = helix + np.reshape(shifts, (8, 3))[:natoms]
        mol = Molecule.from_lists([f"X{i}" for i in range(natoms)], masses[:natoms], pos)
        l = eckart_complement(mol)
        cd = coriolis_data(mol, l)
        sr = sum_rule_residuals(cd, mol, l)
        shifted = com_shifted(mol)
        r2 = float(np.sum(shifted.masses[:, None] * shifted.positions**2))
        zeta_a = np.einsum("gkn,nab->gkab", cd.zeta, cd.a_coeff)
        assert sr.rule1 <= 1e-12
        assert sr.rule2 <= 1e-12 * 4.0 * r2
        assert sr.rule3 <= 1e-12 * (1.0 + np.abs(zeta_a).max())


class TestInertiaExpansion:
    def test_factorized_identities(self, water):
        mol, _, _, _, res = water
        ie = inertia_expansion(mol, res.l)
        for q in (np.zeros(3), np.array([0.05, -0.03, 0.02])):
            idp = ie.i_dprime(q)
            iprime = ie.i_prime(q)
            np.testing.assert_allclose(
                iprime, idp @ np.linalg.inv(ie.i0) @ idp, atol=1e-10
            )
            mu = ie.mu(q)
            assert np.abs(mu @ iprime - np.eye(3)).max() < 1e-10

    def test_reference_point_collapse(self, water):
        mol, _, _, _, res = water
        ie = inertia_expansion(mol, res.l)
        q0 = np.zeros(3)
        np.testing.assert_allclose(ie.i_dprime(q0), ie.i0, atol=1e-14)
        np.testing.assert_allclose(ie.i_prime(q0), ie.i0, atol=1e-10)
        np.testing.assert_allclose(ie.mu(q0), np.linalg.inv(ie.i0), atol=1e-12)

    def test_mu_against_direct_inversion_sweep(self, water):
        mol, _, _, _, res = water
        ie = inertia_expansion(mol, res.l)
        for amp in np.linspace(-0.1, 0.1, 9):
            q = amp * np.array([1.0, 0.5, -0.8])
            direct = np.linalg.inv(ie.i_prime(q))
            np.testing.assert_allclose(ie.mu(q), direct, atol=1e-10)

    def test_precomputed_a_coeff_used_as_given(self, water, monkeypatch):
        mol, _, _, _, res = water
        cd = coriolis_data(mol, res.l)
        fresh = inertia_expansion(mol, res.l)

        def fail(*args):
            raise AssertionError("a_coeff recomputed")

        monkeypatch.setattr(wa, "interaction_coefficients", fail)
        ie = inertia_expansion(mol, res.l, cd.a_coeff)
        assert ie.a_coeff is cd.a_coeff
        assert np.array_equal(ie.a_coeff, fresh.a_coeff)
        assert np.array_equal(ie.i0, fresh.i0)

    def test_singular_inertia_rejected(self):
        ie = InertiaExpansion(i0=np.eye(3), a_coeff=np.array([-2.0 * np.eye(3)]))
        with pytest.raises(SingularInertia):
            ie.mu(np.array([1.0]))  # I'' = (1 - 1) eye = 0


class TestPlanarRelations:
    # A planar molecule in the yz-plane whose modes all stay in the plane (a
    # bent triatomic): l has no x components, so the only nonzero Coriolis
    # constants are zeta^x, and the perpendicular-axis theorem
    # I_xx = I_yy + I_zz holds along every mode, a_k^xx = a_k^yy + a_k^zz.
    @settings(max_examples=40)
    @given(
        water_isotopologue,
        st.floats(0.8, 1.2),
        st.floats(0.8, 1.2),
        st.floats(math.radians(80.0), math.radians(140.0)),
        st.floats(-math.pi, math.pi),
    )
    def test_planar_zeta_and_inertia_derivatives(self, masses, r1, r2, theta, tilt):
        mol, _, res = bent_triatomic(masses, r1, r2, theta, tilt)
        cd = coriolis_data(mol, res.l)
        a = cd.a_coeff
        assert np.abs(a[:, 0, 0] - a[:, 1, 1] - a[:, 2, 2]).max() <= 1e-13 * np.abs(a).max()
        assert np.abs(cd.zeta[1:]).max() <= 1e-13
        assert np.abs(cd.zeta[0]).max() > 0.1

    # A zig-zag or cis chain of 4-6 atoms in the xy-plane, with N - 1
    # stretches, N - 2 bends and N - 3 torsions at 0 or 180 degrees.  B's
    # stretch and bend rows lie in the plane and its torsion rows along z, and
    # F couples no bend or stretch to a torsion, so the N - 3 torsion modes are
    # the out-of-plane ones (Wilson, Decius & Cross, ch. 6).  Along every mode
    # a_k^zz = a_k^xx + a_k^yy; an in-plane mode has a_k^xz = a_k^yz = 0; zeta^z
    # couples only in-plane pairs, zeta^x and zeta^y only mixed pairs.
    @settings(max_examples=40)
    @given(st.integers(4, 6), st.integers(0, 2**32 - 1))
    def test_planar_chain_with_out_of_plane_modes(self, natoms, seed):
        rng = np.random.default_rng(seed)
        heading, pos = rng.uniform(-math.pi, math.pi), [np.zeros(3)]
        for k in range(1, natoms):
            if k > 1:  # turn by pi - theta, to either side
                heading += rng.choice([-1.0, 1.0]) * (math.pi - math.radians(rng.uniform(100, 130)))
            pos.append(pos[-1] + rng.uniform(1.0, 1.6) * np.array([math.cos(heading),
                                                                   math.sin(heading), 0.0]))
        masses = rng.choice([1.008, 12.0, 14.003074, 15.994915, 31.972071], natoms)
        mol = mo.Molecule.from_lists(["X"] * natoms, masses, pos)
        coords = [mo.BondStretch(k, k + 1) for k in range(natoms - 1)]
        coords += [mo.AngleBend(k, k + 1, k + 2) for k in range(natoms - 2)]
        coords += [mo.Torsion(k, k + 1, k + 2, k + 3) for k in range(natoms - 3)]
        d = np.r_[rng.uniform(4.0, 8.0, natoms - 1), rng.uniform(0.5, 1.0, natoms - 2),
                  rng.uniform(0.05, 0.2, natoms - 3)]
        # D^-1/2 F D^-1/2 = 1 + c + c^T has off-diagonal entries of at most 0.08
        # in rows of at most 12, so F > 0 (Gershgorin)
        c = rng.uniform(-0.04, 0.04, (len(d), len(d)))
        c[: 2 * natoms - 3, 2 * natoms - 3 :] = c[2 * natoms - 3 :, : 2 * natoms - 3] = 0.0
        f = np.diag(d) + (c + c.T) * np.sqrt(np.outer(d, d))
        b = mo.build_b_matrix(mol, mo.InternalCoordinateSet(tuple(coords)))
        m = mo.MassMatrix.from_molecule(mol)
        res = nm.solve(mo.build_g_matrix(b, m), nm.ForceField(SymMatrix(f)), b=b, masses=m)
        shaped, lam = res.l.reshape(natoms, 3, -1), res.lambdas
        out = (shaped[:, 2] ** 2).sum(axis=0) > 0.5
        assert out.sum() == natoms - 3
        # roundoff mixes the two classes by about eps / (their relative gap):
        # at most 7.3 times that over 3000 drawn chains
        tol = 64 * EPS * lam.max() / np.abs(lam[out][:, None] - lam[~out]).min()
        assert np.abs(shaped[:, :2][..., out]).max() <= tol
        assert np.abs(shaped[:, 2][:, ~out]).max() <= tol
        cd = coriolis_data(mol, res.l)
        a, zeta = cd.a_coeff, cd.zeta
        scale = np.abs(a).max()
        assert np.abs(a[:, 2, 2] - a[:, 0, 0] - a[:, 1, 1]).max() <= 32 * EPS * scale
        assert np.abs(a[~out][:, :2, 2]).max() <= 32 * EPS * scale
        mixed = out[:, None] != out[None, :]
        assert np.abs(zeta[2][mixed | np.outer(out, out)]).max() <= tol
        assert np.abs(zeta[:2][:, ~mixed]).max() <= tol
        assert np.abs(zeta[2]).max() > 0.1 and np.abs(zeta[:2]).max() > 0.1


class TestWatsonU:
    def test_spherical_inertia(self):
        i_val = 4.0
        ie = InertiaExpansion(i0=i_val * np.eye(3), a_coeff=np.zeros((1, 3, 3)))
        u = watson_u(ie, np.zeros(1), unit_mode="natural")
        assert u == pytest.approx(-3.0 / (8.0 * i_val), rel=1e-14)

    def test_general_reference_value(self, water):
        mol, _, _, _, res = water
        ie = inertia_expansion(mol, res.l)
        u = watson_u(ie, np.zeros(3), unit_mode="natural")
        assert u == pytest.approx(-np.trace(np.linalg.inv(ie.i0)) / 8.0, rel=1e-12)

    def test_wavenumber_units(self, water):
        mol, _, _, _, res = water
        ie = inertia_expansion(mol, res.l)
        u_cm = watson_u(ie, np.zeros(3), unit_mode="cm")
        u_nat = watson_u(ie, np.zeros(3), unit_mode="natural")
        assert u_cm == pytest.approx(2.0 * constants.ROTATIONAL_CM * u_nat, rel=1e-12)

    def test_unknown_mode_rejected(self, water):
        mol, _, _, _, res = water
        ie = inertia_expansion(mol, res.l)
        for mode in ("parsecs", "spectroscopic"):  # the units are "natural" and "cm"
            with pytest.raises(ValueError):
                watson_u(ie, np.zeros(3), unit_mode=mode)

    def test_smooth_small_q_sweep(self, water):
        mol, _, _, _, res = water
        ie = inertia_expansion(mol, res.l)
        qs = np.linspace(-0.05, 0.05, 11)
        us = [watson_u(ie, q * np.ones(3), unit_mode="natural") for q in qs]
        assert np.abs(np.diff(us)).max() < 0.05 * abs(us[5])


class TestEckartConditionsCheck:
    def test_pipeline_modes_satisfy_conditions(self, water):
        mol, _, _, _, res = water
        rep = eckart_conditions_check(mol, res.l)
        assert rep.max_translational < 1e-10
        assert rep.max_rotational < 1e-10

    def test_translation_mode_detected(self):
        mol = water_molecule()
        m = mol.masses
        col = np.zeros((3, 3))
        col[:, 0] = np.sqrt(m) / math.sqrt(m.sum())  # normalized x translation
        l = col.reshape(9, 1)
        rep = eckart_conditions_check(mol, l)
        # |sum_i sqrt(m_i) * sqrt(m_i)/sqrt(M)| = sqrt(M)
        assert rep.translational[0] == pytest.approx(math.sqrt(m.sum()), rel=1e-12)

    def test_rotation_mode_detected(self):
        mol = com_shifted(water_molecule())
        pos = mol.positions
        m = mol.masses
        vec = np.cross(np.array([1.0, 0.0, 0.0]), pos) * np.sqrt(m)[:, None]
        vec = vec.reshape(9, 1)
        vec /= np.linalg.norm(vec)
        rep = eckart_conditions_check(mol, vec)
        assert rep.max_rotational > 1e-3

    def test_diatomic_pipeline(self):
        mol, res = diatomic_pipeline()
        rep = eckart_conditions_check(mol, res.l)
        assert rep.max_translational < 1e-10
        assert rep.max_rotational < 1e-10
