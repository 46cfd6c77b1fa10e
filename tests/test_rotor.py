import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from conftest import (
    dense_band_blocks,
    failed_dsterf_lookup,
    failing_dsterf,
    levels_by_tuple_sort,
    on_helper_thread,
    set_usable_cpus,
)
from vibrot import rotor
from vibrot.frames import EulerAngles
from vibrot.rotor import (
    PARITY_CLASSES,
    InvalidQuantumNumbers,
    NegativeNmax,
    NonFiniteLevels,
    NonPositiveConstant,
    NotSymmetricTop,
    RotorLevel,
    SymTopState,
    asymmetric_hamiltonian,
    asymmetric_levels,
    classify,
    frobenius_solve,
    ladder_matrix_elements,
    symmetric_top_energy,
    wang_blocks,
    wavefunction_value,
)


def wang_transform(j):
    """Dense Wang transform: columns (|k> + s|-k>)/sqrt(2), with (|k|, s) labels.

    Column order: k = 0 first, then ascending |k| with + before -.  Tests use
    it as an oracle independent of the band-built blocks.
    """
    dim = 2 * j + 1
    cols = []
    labels = []
    e0 = np.zeros(dim)
    e0[j] = 1.0
    cols.append(e0)
    labels.append((0, +1))
    for kabs in range(1, j + 1):
        for sign in (+1, -1):
            v = np.zeros(dim)
            v[j + kabs] = 1.0 / math.sqrt(2.0)
            v[j - kabs] = sign / math.sqrt(2.0)
            cols.append(v)
            labels.append((kabs, sign))
    return np.column_stack(cols), labels


def parity_class(kabs, sign):
    return ("E" if kabs % 2 == 0 else "O") + ("+" if sign > 0 else "-")


def dense_wang_blocks(h, j):
    """{parity class: sub-block of W^T H W}, the blocks by dense transform."""
    w, labels = wang_transform(j)
    hw = w.T @ h @ w
    classes = [parity_class(*lab) for lab in labels]
    return {
        cls: hw[np.ix_(*[[i for i, c in enumerate(classes) if c == cls]] * 2)]
        for cls in ("E+", "E-", "O+", "O-")
    }


def cross_block_residual(h, j):
    """Largest Wang-basis matrix element between different parity blocks."""
    w, labels = wang_transform(j)
    hw = w.T @ np.asarray(h, dtype=float) @ w
    classes = [parity_class(*lab) for lab in labels]
    worst = 0.0
    for i, ci in enumerate(classes):
        for k, ck in enumerate(classes):
            if ci != ck:
                worst = max(worst, abs(hw[i, k]))
    return worst


def ladder_hamiltonian(spec, j):
    """H from dense products of the ladder matrices, the textbook route."""
    a_c, b_c, c_c = spec.a_const, spec.b_const, spec.c_const
    t = ladder_matrix_elements(j)
    h = (
        0.5 * (b_c + c_c) * t.jsq
        + (a_c - 0.5 * (b_c + c_c)) * (t.jz @ t.jz)
        + 0.25 * (b_c - c_c) * (t.jplus_m @ t.jplus_m + t.jminus_m @ t.jminus_m)
    )
    return 0.5 * (h + h.T)


ASYMMETRIC = [(3.7, 2.2, 0.9), (27.88, 14.51, 9.28), (1.2, 1.1, 0.3), (40.0, 0.9, 0.2)]


class TestClassify:
    @pytest.mark.parametrize(
        "abc,kind",
        [
            ((5, 1, 1), "prolate-symmetric"),
            ((5, 5, 1), "oblate-symmetric"),
            ((3, 3, 3), "spherical"),
            ((3, 2, 1), "asymmetric"),
            ((0, 2, 2), "linear"),
            ((math.inf, 1.5, 1.5), "linear"),
        ],
    )
    def test_kinds(self, abc, kind):
        spec = classify(*abc)
        assert spec.classification == kind
        if kind == "linear":  # one shape: the constant of the zero moment is infinite
            assert (spec.a_const, spec.b_const, spec.c_const) == (math.inf, abc[1], abc[2])

    def test_sorted_descending(self):
        spec = classify(1.0, 3.0, 2.0)
        assert (spec.a_const, spec.b_const, spec.c_const) == (3.0, 2.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(NonPositiveConstant):
            classify(3.0, -1.0, 1.0)

    def test_zero_without_degenerate_pair_rejected(self):
        with pytest.raises(NonPositiveConstant):
            classify(0.0, 2.0, 1.0)

    def test_near_equal_within_tolerance(self):
        spec = classify(5.0, 1.0, 1.0 * (1 + 1e-10))
        assert spec.classification == "prolate-symmetric"


class TestSymmetricTopEnergy:
    def test_ground_state(self):
        assert symmetric_top_energy(classify(5, 1, 1), 0, 0) == 0.0

    def test_prolate_values(self):
        spec = classify(5.0, 1.0, 1.0)
        assert symmetric_top_energy(spec, 2, 1) == pytest.approx(10.0)
        assert symmetric_top_energy(spec, 2, 0) == pytest.approx(6.0)

    def test_oblate_uses_c(self):
        spec = classify(5.0, 5.0, 1.0)
        # E = B J(J+1) + (C - B) k^2
        assert symmetric_top_energy(spec, 2, 2) == pytest.approx(5 * 6 + (1 - 5) * 4)

    def test_spherical(self):
        spec = classify(3.0, 3.0, 3.0)
        assert symmetric_top_energy(spec, 3, 2) == pytest.approx(3 * 12)

    def test_quantum_number_validation(self):
        spec = classify(5, 1, 1)
        with pytest.raises(InvalidQuantumNumbers):
            symmetric_top_energy(spec, 1, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricTop):
            symmetric_top_energy(classify(3, 2, 1), 1, 0)


class TestFrobenius:
    def test_j1_k0_m0_two_term_series(self):
        spec = classify(5.0, 1.0, 1.0)
        energy, coeffs = frobenius_solve(spec, 0, 0, 1)
        assert energy == pytest.approx(2.0)  # 2B
        assert coeffs.size == 3  # a_0, a_1, a_(n_max+1)
        assert coeffs[0] == 1.0
        assert coeffs[-1] == pytest.approx(0.0, abs=1e-12)

    def test_j2_k1_matches_closed_form(self):
        spec = classify(5.0, 1.0, 1.0)
        energy, _ = frobenius_solve(spec, 1, 0, 2)
        assert energy == pytest.approx(10.0, abs=1e-12)

    def test_sweep_terminates_and_matches(self):
        spec = classify(7.3, 2.1, 2.1)
        for j in range(11):
            for k in range(-j, j + 1):
                for m in range(-j, j + 1):
                    energy, coeffs = frobenius_solve(spec, k, m, j)
                    ref = symmetric_top_energy(spec, j, k)
                    assert abs(energy - ref) <= 1e-10 * max(1.0, abs(ref))
                    assert abs(coeffs[-1]) < 1e-12 * abs(coeffs[0])

    def test_quantum_number_validation(self):
        spec = classify(5.0, 1.0, 1.0)
        with pytest.raises(InvalidQuantumNumbers):
            frobenius_solve(spec, 3, 0, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricTop):
            frobenius_solve(classify(3, 2, 1), 0, 0, 1)


class TestWavefunction:
    def test_isotropic_ground_state(self):
        val = wavefunction_value(SymTopState(0, 0, 0), EulerAngles(0.3, 0.7, 1.1))
        assert val == pytest.approx(math.sqrt(1.0 / (8 * math.pi**2)))

    def test_phase_factors(self):
        state = SymTopState(2, 1, -1)
        a0 = EulerAngles(0.0, 0.9, 0.0)
        a1 = EulerAngles(0.4, 0.9, 1.3)
        ratio = wavefunction_value(state, a1) / wavefunction_value(state, a0)
        assert ratio == pytest.approx(np.exp(1j * (-1 * 0.4 + 1 * 1.3)))

    @staticmethod
    def _overlap(s1, s2, ntheta=64, nphi=128):
        xs, ws = leggauss(ntheta)
        phis = np.linspace(0.0, 2 * math.pi, nphi, endpoint=False)
        thetas = np.arccos(xs)

        def theta_part(state):
            return np.array(
                [
                    wavefunction_value(
                        state, EulerAngles(phi=0.0, theta=t, chi=0.0)
                    ).real
                    for t in thetas
                ]
            )

        t_int = float(np.sum(ws * theta_part(s1) * theta_part(s2)))
        phi_int = np.mean(np.exp(1j * (s2.m - s1.m) * phis)) * 2 * math.pi
        chi_int = np.mean(np.exp(1j * (s2.k - s1.k) * phis)) * 2 * math.pi
        return t_int * phi_int * chi_int

    def test_separable_quadrature_equals_full_grid(self):
        # sanity-check the factorized overlap against a dense 3D grid
        s1, s2 = SymTopState(1, 0, 0), SymTopState(2, 0, 0)
        ntheta, nphi = 32, 24
        xs, ws = leggauss(ntheta)
        phis = np.linspace(0.0, 2 * math.pi, nphi, endpoint=False)
        acc = 0.0
        for x, w in zip(xs, ws):
            for p in phis:
                for c in phis:
                    a = EulerAngles(phi=p, theta=math.acos(x), chi=c)
                    acc += w * (
                        np.conj(wavefunction_value(s1, a)) * wavefunction_value(s2, a)
                    ).real
        acc *= (2 * math.pi / nphi) ** 2
        assert acc == pytest.approx(
            self._overlap(s1, s2, ntheta=ntheta, nphi=nphi).real, abs=1e-12
        )

    def test_norms_small_set(self):
        for state in (SymTopState(1, 1, 0), SymTopState(2, -1, 1), SymTopState(3, 2, -2)):
            assert abs(self._overlap(state, state) - 1.0) < 1e-6

    def test_orthogonality_small_set(self):
        pairs = [
            (SymTopState(1, 0, 0), SymTopState(2, 0, 0)),
            (SymTopState(2, 1, 0), SymTopState(2, -1, 0)),
            (SymTopState(3, 1, 1), SymTopState(1, 1, 1)),
        ]
        for s1, s2 in pairs:
            assert abs(self._overlap(s1, s2)) < 1e-6


def factorial_sum(j, k, m, theta):
    """d^J_mk(theta) by Wigner's alternating factorial sum, and the sum of |terms|.

    The second value bounds the sum's cancellation: its rounding error is a
    small multiple of eps times it.
    """
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    terms = [
        (-1) ** sigma
        * c ** (2 * j + k - m - 2 * sigma)
        * (-s) ** (m - k + 2 * sigma)
        / (
            math.factorial(sigma)
            * math.factorial(j - m - sigma)
            * math.factorial(m - k + sigma)
            * math.factorial(j + k - sigma)
        )
        for sigma in range(max(0, k - m), min(j - m, j + k) + 1)
    ]
    norm = math.sqrt(
        math.factorial(j + m) * math.factorial(j - m)
        * math.factorial(j + k) * math.factorial(j - k)
    )
    return norm * math.fsum(terms), norm * math.fsum(abs(t) for t in terms)


def exact_d_at_right_angle(j, k, m):
    """d^J_mk(pi/2) from exact integers: there cos and sin of theta/2 are 2^-1/2."""
    total = sum(
        (-1) ** (m - k + 3 * sigma) * math.comb(j + m, m - k + sigma) * math.comb(j - m, sigma)
        for sigma in range(max(0, k - m), min(j - m, j + k) + 1)
    )
    ratio = Fraction(
        math.factorial(j + k) * math.factorial(j - k),
        math.factorial(j + m) * math.factorial(j - m),
    )
    return math.sqrt(ratio) * float(Fraction(total, 2**j))


def d_value(j, k, m, theta):
    psi = wavefunction_value(SymTopState(j, k, m), EulerAngles(0.0, theta, 0.0))
    return psi.real / math.sqrt((2 * j + 1) / (8 * math.pi**2))


class TestWavefunctionLargeJ:
    @pytest.mark.parametrize("j", [1, 2, 5, 10, 15, 20])
    def test_matches_factorial_sum(self, j):
        for theta in (0.3, math.pi / 2, 2.9):
            for k in range(-j, j + 1):
                for m in range(-j, j + 1):
                    want, magnitude = factorial_sum(j, k, m, theta)
                    assert abs(d_value(j, k, m, theta) - want) <= 1e-13 * magnitude

    @pytest.mark.parametrize("j", [57, 80, 100, 200])
    def test_closed_form_at_zero(self, j):
        top = math.sqrt((2 * j + 1) / (8 * math.pi**2))
        origin = EulerAngles(0.0, 0.0, 0.0)
        for k in (0, 1, 5, -7, j, -j):
            assert wavefunction_value(SymTopState(j, k, k), origin) == pytest.approx(
                top, rel=1e-15
            )
        for k, m in ((1, 0), (5, 3), (-j, j)):
            assert wavefunction_value(SymTopState(j, k, m), origin) == 0.0

    @pytest.mark.parametrize("j", [20, 57, 100, 200])
    def test_exact_at_right_angle(self, j):
        # the alternating sum loses every digit here from J ~ 55 on
        step = max(1, j // 6)
        for k in range(-j, j + 1, step):
            for m in range(-j, j + 1, step):
                want = exact_d_at_right_angle(j, k, m)
                assert abs(d_value(j, k, m, math.pi / 2) - want) <= 1e-13


class TestLadders:
    def test_k_lowering_element(self):
        t = ladder_matrix_elements(1)
        # <1,0| J+_m |1,1> = sqrt(2)
        k_index = {k: k + 1 for k in (-1, 0, 1)}
        assert t.jplus_m[k_index[0], k_index[1]] == pytest.approx(math.sqrt(2))

    def test_jsq_diagonal(self):
        for j in range(4):
            t = ladder_matrix_elements(j)
            np.testing.assert_allclose(t.jsq, j * (j + 1) * np.eye(2 * j + 1))

    def test_top_of_ladder_annihilates(self):
        j = 3
        t = ladder_matrix_elements(j)
        # J-_m raises k; from k = J there is nowhere to go
        assert np.abs(t.jminus_m[:, -1]).max() == 0.0

    def test_anomalous_commutation(self):
        for j in range(6):
            t = ladder_matrix_elements(j)
            jx = 0.5 * (t.jplus_m + t.jminus_m)
            jy = (t.jplus_m - t.jminus_m) / 2j
            jz = t.jz
            resid = np.abs(jx @ jy - jy @ jx + 1j * jz).max()
            assert resid < 1e-12

    def test_space_fixed_normal_commutation(self):
        t = ladder_matrix_elements(2)
        jx = 0.5 * (t.jplus_s + t.jminus_s)
        jy = (t.jplus_s - t.jminus_s) / 2j
        resid = np.abs(jx @ jy - jy @ jx - 1j * t.jrho3).max()
        assert resid < 1e-12

    def test_ladder_identity(self):
        for j in range(5):
            t = ladder_matrix_elements(j)
            eye = np.eye(2 * j + 1)
            lhs = t.jminus_m @ t.jplus_m
            rhs = t.jsq - t.jz @ (t.jz - eye)
            assert np.abs(lhs - rhs).max() < 1e-12
            lhs = t.jplus_m @ t.jminus_m
            rhs = t.jsq - t.jz @ (t.jz + eye)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestAsymmetricHamiltonian:
    def test_j0_single_zero(self):
        h = asymmetric_hamiltonian(classify(3, 2, 1), 0)
        np.testing.assert_allclose(h, [[0.0]])

    def test_spherical_is_diagonal(self):
        b = 2.5
        h = asymmetric_hamiltonian(classify(b, b, b), 2)
        np.testing.assert_allclose(h, b * 6 * np.eye(5), atol=1e-12)

    def test_j2_eplus_block(self):
        a, b, c = 3.0, 2.0, 1.0
        blocks = {
            blk.parity_class: blk
            for blk in wang_blocks(asymmetric_hamiltonian(classify(a, b, c), 2), 2)
        }
        expected = np.array(
            [
                [3 * (b + c), math.sqrt(3) * (b - c)],
                [math.sqrt(3) * (b - c), 4 * a + b + c],
            ]
        )
        np.testing.assert_allclose(blocks["E+"].hmatrix, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "abc", ASYMMETRIC + [(5.0, 1.5, 1.5), (5.0, 5.0, 1.0), (3.0, 3.0, 3.0)]
    )
    def test_band_build_equals_ladder_products(self, abc):
        spec = classify(*abc)
        for j in range(61):
            assert np.array_equal(asymmetric_hamiltonian(spec, j), ladder_hamiltonian(spec, j))

    def test_diagonal_entries(self):
        a, b, c = 4.2, 1.7, 0.9
        h = asymmetric_hamiltonian(classify(a, b, c), 3)
        for idx, k in enumerate(range(-3, 4)):
            expected = 0.5 * (b + c) * 12 + (a - 0.5 * (b + c)) * k * k
            assert h[idx, idx] == pytest.approx(expected, rel=1e-12)


class TestWangBlocks:
    def test_j1_scalar_blocks(self):
        a, b, c = 3.0, 2.0, 1.0
        blocks = {
            blk.parity_class: blk
            for blk in wang_blocks(asymmetric_hamiltonian(classify(a, b, c), 1), 1)
        }
        assert blocks["E+"].eigenvalues[0] == pytest.approx(b + c)
        assert blocks["O+"].eigenvalues[0] == pytest.approx(a + b)
        assert blocks["O-"].eigenvalues[0] == pytest.approx(a + c)
        assert blocks["E-"].dim == 0

    def test_j2_scalar_blocks(self):
        a, b, c = 3.0, 2.0, 1.0
        blocks = {
            blk.parity_class: blk
            for blk in wang_blocks(asymmetric_hamiltonian(classify(a, b, c), 2), 2)
        }
        assert blocks["E-"].eigenvalues[0] == pytest.approx(4 * a + b + c)
        assert blocks["O+"].eigenvalues[0] == pytest.approx(a + 4 * b + c)
        assert blocks["O-"].eigenvalues[0] == pytest.approx(a + b + 4 * c)

    def test_j3_dimensions(self):
        blocks = {
            blk.parity_class: blk.dim
            for blk in wang_blocks(asymmetric_hamiltonian(classify(3, 2, 1), 3), 3)
        }
        assert blocks == {"E+": 2, "E-": 1, "O+": 2, "O-": 2}

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_dimension_formulas(self, j):
        blocks = {
            blk.parity_class: blk.dim
            for blk in wang_blocks(asymmetric_hamiltonian(classify(3, 2, 1), j), j)
        }
        if j % 2 == 0:
            assert blocks["E+"] == j // 2 + 1
            assert blocks["E-"] == blocks["O+"] == blocks["O-"] == j // 2
        else:
            assert blocks["E-"] == (j - 1) // 2
            assert blocks["E+"] == blocks["O+"] == blocks["O-"] == (j + 1) // 2

    def test_basis_labels(self):
        blocks = {
            blk.parity_class: blk.basis
            for blk in wang_blocks(asymmetric_hamiltonian(classify(3, 2, 1), 3), 3)
        }
        assert blocks == {
            "E+": ("|3,0,0>", "|3,2,0,+>"),
            "E-": ("|3,2,0,->",),
            "O+": ("|3,1,0,+>", "|3,3,0,+>"),
            "O-": ("|3,1,0,->", "|3,3,0,->"),
        }

    @pytest.mark.parametrize("abc", ASYMMETRIC)
    def test_band_blocks_match_dense_transform(self, abc):
        spec = classify(*abc)
        for j in range(61):
            h = asymmetric_hamiltonian(spec, j)
            dense = dense_wang_blocks(h, j)
            for blk in wang_blocks(h, j):
                want = dense[blk.parity_class]
                assert blk.hmatrix.shape == want.shape
                np.testing.assert_array_max_ulp(blk.hmatrix, want, maxulp=4)

    def test_no_cross_block_coupling(self):
        for j in range(1, 7):
            h = asymmetric_hamiltonian(classify(3.7, 2.2, 0.9), j)
            assert cross_block_residual(h, j) < 1e-12


class TestAsymmetricLevels:
    def test_j1_reference_values(self):
        levels = [
            lv for lv in asymmetric_levels(classify(3, 2, 1), 1) if lv.j == 1
        ]
        np.testing.assert_allclose(
            [lv.energy for lv in levels], [3.0, 4.0, 5.0], atol=1e-12
        )
        assert all(lv.degeneracy == 3 for lv in levels)

    def test_symmetric_limit_matches_closed_form(self):
        spec = classify(5.0, 1.5, 1.5)
        levels = asymmetric_levels(spec, 10)
        for j in range(11):
            got = sorted(lv.energy for lv in levels if lv.j == j)
            want = sorted(symmetric_top_energy(spec, j, k) for k in range(-j, j + 1))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * max(1.0, abs(w))

    def test_j2_eplus_eigenvalues_match_quadratic_formula(self):
        a, b, c = 3.0, 2.0, 1.0
        levels = asymmetric_levels(classify(a, b, c), 2)
        eplus = sorted(
            lv.energy for lv in levels if lv.j == 2 and lv.parity_class == "E+"
        )
        p = 3 * (b + c)
        r = 4 * a + b + c
        q = math.sqrt(3) * (b - c)
        disc = math.sqrt((p - r) ** 2 + 4 * q * q)
        np.testing.assert_allclose(
            eplus, [(p + r - disc) / 2, (p + r + disc) / 2], atol=1e-12
        )

    @pytest.mark.parametrize("abc", [(0.0, 2.0, 2.0), (math.inf, 1.5, 1.5)])
    def test_linear_rotor_has_one_level_per_j(self, abc):
        spec = classify(*abc)
        levels = asymmetric_levels(spec, 12)
        assert levels.j.tolist() == list(range(13))
        assert levels.code.tolist() == levels.index.tolist() == [0] * 13
        assert levels.energy.tolist() == [symmetric_top_energy(spec, j, 0) for j in range(13)]

    def test_trace_preserved(self):
        spec = classify(4.4, 2.3, 1.1)
        levels = asymmetric_levels(spec, 6)
        for j in range(7):
            tr = np.trace(asymmetric_hamiltonian(spec, j))
            total = sum(lv.energy for lv in levels if lv.j == j)
            assert total == pytest.approx(tr, rel=1e-10)

    @pytest.mark.parametrize("abc", ASYMMETRIC)
    def test_parity_classes_match_dense_blocks(self, abc):
        spec = classify(*abc)
        levels = asymmetric_levels(spec, 20)
        for j in range(21):
            dense = dense_wang_blocks(ladder_hamiltonian(spec, j), j)
            for cls, block in dense.items():
                mine = sorted(
                    (lv.index, lv.energy) for lv in levels if lv.j == j and lv.parity_class == cls
                )
                want = np.linalg.eigvalsh(block)
                assert [i for i, _ in mine] == list(range(want.size))
                np.testing.assert_allclose(
                    [e for _, e in mine], want, rtol=0, atol=1e-13 * abs(want).max(initial=1.0)
                )

    def test_no_dense_hamiltonian_or_eigenvectors(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the levels must come from the band alone")

        for name in ("asymmetric_hamiltonian", "wang_blocks", "ladder_matrix_elements"):
            monkeypatch.setattr(rotor, name, forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        if rotor._dsterf() is not None:  # then no block is dense
            monkeypatch.setattr(rotor, "_dense", forbidden)
            monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert len(asymmetric_levels(classify(3.7, 2.2, 0.9), 8)) == 81

    @pytest.mark.parametrize("abc", [(3.7, 2.2, 0.9), (2.5, 2.5, 2.5)])
    def test_sequence_view_matches_arrays(self, abc):
        spec = classify(*abc)
        levels = asymmetric_levels(spec, 8)
        js = np.arange(9)
        assert np.array_equal(levels.j, np.repeat(js, 2 * js + 1))
        assert len(levels) == levels.energy.size == levels.code.size == levels.index.size == 81
        views = list(levels)
        assert len(views) == 81
        for i, lv in enumerate(views):
            j = int(levels.j[i])
            want = RotorLevel(j, PARITY_CLASSES[levels.code[i]], int(levels.index[i]),
                              float(levels.energy[i]), 2 * j + 1)
            assert lv == want and levels[i] == want
            assert [type(v) for v in (lv.j, lv.parity_class, lv.index, lv.energy)] == [
                int, str, int, float]
        assert levels[-1] == views[-1]
        with pytest.raises(IndexError):
            levels[81]
        assert views == levels_by_tuple_sort(spec, 8)

    def test_levels_monotone_in_a(self):
        b, c = 2.0, 1.0
        grids = np.linspace(2.5, 6.0, 15)
        stacked = []
        for a in grids:
            levels = asymmetric_levels(classify(a, b, c), 3)
            stacked.append([lv.energy for lv in levels])
        stacked = np.array(stacked)
        diffs = np.diff(stacked, axis=0)
        assert diffs.min() > -1e-10  # each labeled level grows with A


def levels_by_j(levels, jmax):
    by_j = [[] for _ in range(jmax + 1)]
    for lv in levels:
        by_j[lv.j].append(lv.energy)
    return by_j


positive = st.floats(0.05, 20.0)
ratio = st.floats(1.05, 30.0)
closeness = st.floats(0.0, 1e-2)
EPS = np.finfo(float).eps


class TestRotorProperties:
    @settings(max_examples=40)
    @given(st.tuples(positive, positive, positive), st.integers(0, 30))
    def test_trace_rule_per_j(self, abc, jmax):
        spec = classify(*abc)
        total_abc = spec.a_const + spec.b_const + spec.c_const
        for j, energies in enumerate(levels_by_j(asymmetric_levels(spec, jmax), jmax)):
            want = (2 * j + 1) * j * (j + 1) * total_abc / 3
            assert abs(math.fsum(energies) - want) <= 1e-13 * want

    # H(A, B, C) = (B+C)/2 J^2 + [A - (B+C)/2] Jz^2 + (B-C)/4 (J+^2 + J-^2) is
    # linear in the constants, and J^2 = J(J+1) on a J manifold, so
    # H(sA + t, sB + t, sC + t) = s H(A, B, C) + t J(J+1).  Relabelling the
    # axes a <-> c turns H(t - C, t - B, t - A) into t J(J+1) - H(A, B, C), so
    # for t > A its levels are t J(J+1) minus the levels, as a sorted set.
    # The constants are drawn at 2^(+-500) too, where every block is scaled
    # before dsterf; the tolerances hold 3x the largest error measured over
    # 300 draws with J <= 60, in units of eps times the level scale.

    @settings(max_examples=40)
    @given(st.tuples(positive, positive, positive), st.sampled_from((1.0, 2.0**-500, 2.0**500)),
           st.floats(0.1, 10.0), st.floats(-0.9, 2.0), st.integers(0, 20))
    def test_affine_law(self, abc, scale, s, shift, jmax):
        spec = classify(*(v * scale for v in abc))
        a, b, c = spec.a_const, spec.b_const, spec.c_const
        t = shift * s * (a if shift > 0 else c)  # keeps s C + t > 0
        levels = asymmetric_levels(spec, jmax)
        moved = asymmetric_levels(classify(s * a + t, s * b + t, s * c + t), jmax)
        jj = levels.j * (levels.j + 1.0)
        # s > 0 keeps the order of the levels of each J
        error = np.abs(moved.energy - (s * levels.energy + t * jj))
        assert np.all(error <= 32 * EPS * (s * a + abs(t)) * np.maximum(jj, 1.0))

    @settings(max_examples=40)
    @given(st.tuples(positive, positive, positive), st.sampled_from((1.0, 2.0**-500, 2.0**500)),
           st.floats(1.01, 4.0), st.integers(0, 20))
    def test_mirror_law(self, abc, scale, over, jmax):
        spec = classify(*(v * scale for v in abc))
        a, b, c = spec.a_const, spec.b_const, spec.c_const
        t = over * a
        levels = asymmetric_levels(spec, jmax)
        mirrored = asymmetric_levels(classify(t - c, t - b, t - a), jmax)
        for j in range(jmax + 1):
            block = slice(j * j, (j + 1) ** 2)
            want = np.sort(t * j * (j + 1) - levels.energy[block])
            error = np.abs(mirrored.energy[block] - want)
            assert np.all(error <= 32 * EPS * t * max(j * (j + 1), 1)), j

    # King, Hainer & Cross, J. Chem. Phys. 11, 27 (1943): the asymmetric levels
    # go to the prolate closed form as B -> C and to the oblate one as A -> B.
    # H differs from the limiting top's H by an operator of norm at most
    # |B - C| J(J+1) / 2 (or |A - B| J(J+1) / 2), which by Weyl's inequality
    # bounds how far each sorted level may lie from the closed form.

    @staticmethod
    def assert_within_weyl_bound(spec, limit, gap, jmax):
        levels = levels_by_j(asymmetric_levels(spec, jmax), jmax)
        for j, energies in enumerate(levels):
            want = sorted(symmetric_top_energy(limit, j, k) for k in range(-j, j + 1))
            bound = 0.5 * gap * j * (j + 1) + 1e-12 * spec.a_const * (j * (j + 1) + 1)
            assert max(abs(g - w) for g, w in zip(sorted(energies), want)) <= bound

    @settings(max_examples=40)
    @given(positive, ratio, closeness, st.integers(0, 20))
    def test_prolate_limit(self, c, r, t, jmax):
        a = c * r
        b = c + t * (a - c)
        spec = classify(a, b, c)
        mid = 0.5 * (spec.b_const + spec.c_const)
        limit = classify(spec.a_const, mid, mid)
        assert limit.classification == "prolate-symmetric"
        self.assert_within_weyl_bound(spec, limit, spec.b_const - spec.c_const, jmax)

    @settings(max_examples=40)
    @given(positive, ratio, closeness, st.integers(0, 20))
    def test_oblate_limit(self, c, r, t, jmax):
        a = c * r
        b = a - t * (a - c)
        spec = classify(a, b, c)
        mid = 0.5 * (spec.a_const + spec.b_const)
        limit = classify(mid, mid, spec.c_const)
        assert limit.classification == "oblate-symmetric"
        self.assert_within_weyl_bound(spec, limit, spec.a_const - spec.b_const, jmax)


class TestBandEigenvalues:
    """asymmetric_levels' blocks against dense eigvalsh, and the fallback
    without dsterf."""

    @settings(max_examples=25)
    @given(st.tuples(positive, positive, positive),
           st.sampled_from((1e-300, 1e-150, 1.0, 1e150, 1e300))
           | st.integers(-300, 300).map(lambda e: 10.0**e))
    def test_dsterf_equals_dense_eigvalsh(self, abc, scale):
        # beyond 2^(+-485) dsyevd scales the block before dsterf and scales
        # the eigenvalues back, which moves their last bits
        spec = classify(*(v * scale for v in abc))
        levels = asymmetric_levels(spec, 60)
        for j in range(61):
            for code, (cls, dense) in enumerate(dense_band_blocks(spec, j)):
                # the levels of a J ascend, as a block's eigenvalues do
                got = levels.energy[(levels.j == j) & (levels.code == code)]
                assert np.array_equal(got, np.linalg.eigvalsh(dense)), (j, cls)

    @pytest.mark.parametrize("failure", ["no-directory", "no-file", "not-a-library", "no-symbol"])
    def test_failed_lookup_falls_back_to_eigvalsh(self, monkeypatch, tmp_path, failure):
        libs, symbol = failed_dsterf_lookup(failure, tmp_path)
        lookup = rotor._dsterf
        assert lookup(libs, symbol) is None
        # at 1e150 every block is scaled before dsterf; at 2^470 those of
        # J >= 35 are and the others are not
        specs = [classify(scale * 27.88, scale * 14.51, scale * 9.28) for scale in (1e150, 2.0**470)]
        wants = [asymmetric_levels(spec, 40) for spec in specs]
        eigvalsh = np.linalg.eigvalsh
        sizes = [n for j in range(41) for n in (j // 2 + 1, j // 2, (j + 1) // 2, (j + 1) // 2)]
        monkeypatch.setattr(rotor, "_dsterf", lambda: lookup(libs, symbol))
        for spec, want in zip(specs, wants):
            calls = []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h) or eigvalsh(h))
            got = asymmetric_levels(spec, 40)
            assert sorted(len(h) for h in calls) == sorted(n for n in sizes if n > 1)
            for name in ("j", "code", "index", "energy"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_lookup_finds_numpys_dsterf(self):
        # numpy's own wheels ship this library; other builds take the fallback
        if not any(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*")):
            pytest.skip("numpy's build ships no scipy_openblas64")
        assert rotor._dsterf() is not None


# The smallest jmax whose dsterf blocks carry rotor._SPLIT_WORK.
SPLIT_JMAX = next(
    jmax for jmax in range(400)
    if sum(n * n for j in range(jmax + 1)
           for n in (j // 2 + 1, j // 2, (j + 1) // 2, (j + 1) // 2) if n > 1)
    >= rotor._SPLIT_WORK
)


def levels_on_threads(spec, jmax, cpus):
    """(levels, idents of the threads that ran dsterf) with cpus usable CPUs."""
    threads = set()
    sterf = rotor._sterf
    with pytest.MonkeyPatch.context() as mp:
        set_usable_cpus(mp, cpus)
        mp.setattr(rotor, "_sterf", lambda *args: threads.add(threading.get_ident())
                   or sterf(*args))
        return asymmetric_levels(spec, jmax), threads


@pytest.mark.skipif(rotor._dsterf() is None, reason="numpy's build has no dsterf")
class TestTwoThreadSplit:
    """The dsterf blocks of a large jmax, split between two threads."""

    @settings(max_examples=12)
    @given(st.tuples(positive, positive, positive),
           st.sampled_from((1.0, 2.0**-500, 2.0**-490, 2.0**470, 2.0**500)),
           st.integers(SPLIT_JMAX, SPLIT_JMAX + 20))
    def test_split_equals_one_thread_and_dense_eigvalsh(self, abc, scale, jmax):
        # beyond 2^(+-485) a block is scaled before dsterf: at 2^-500 and
        # 2^470 some blocks of each J range are, at 2^500 all of them
        spec = classify(*(v * scale for v in abc))
        threads = threading.active_count()
        split, helpers = levels_on_threads(spec, jmax, 2)
        single, ran = levels_on_threads(spec, jmax, 1)
        assert threading.active_count() == threads
        assert len(ran) <= 1 and len(helpers) <= 2  # scaled blocks may leave too little to split
        for name in ("j", "code", "index", "energy"):
            assert np.array_equal(getattr(split, name), getattr(single, name))
        assert list(split) == levels_by_tuple_sort(spec, jmax)

    def test_unscaled_large_jmax_runs_on_two_threads(self):
        spec = classify(27.88, 14.51, 9.28)
        _, helpers = levels_on_threads(spec, SPLIT_JMAX, 2)
        assert len(helpers) == 2
        _, helpers = levels_on_threads(spec, SPLIT_JMAX - 1, 2)
        assert len(helpers) == 1

    def test_split_under_a_short_switch_interval(self):
        # the threads write disjoint blocks of one array; switching between
        # them every microsecond must not change a value
        spec = classify(27.88, 14.51, 9.28)
        want, _ = levels_on_threads(spec, SPLIT_JMAX + 30, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, helpers = levels_on_threads(spec, SPLIT_JMAX + 30, 2)
        finally:
            sys.setswitchinterval(interval)
        assert len(helpers) == 2
        for name in ("j", "code", "index", "energy"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_block_raises_linalgerror(self, monkeypatch, cpus):
        # with two CPUs the helper thread's first block fails, else the first block
        stub = failing_dsterf(rotor._dsterf(), on_helper_thread if cpus == 2 else lambda: True)
        monkeypatch.setattr(rotor, "_dsterf", lambda: stub)
        set_usable_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            asymmetric_levels(classify(27.88, 14.51, 9.28), SPLIT_JMAX)
        assert threading.active_count() == threads
        assert len(stub.failed) == 1 and (stub.failed[0] is threading.main_thread()) == (cpus == 1)


class TestValidation:
    @pytest.mark.parametrize(
        "consts",
        [(1e308, 5e307, 1e307),          # J(J+1) B overflows on the diagonal
         (1.7e308, 1.6e308, 1.5e308)],   # B + C itself overflows
    )
    def test_overflowing_constants_raise(self, consts):
        with pytest.raises(NonFiniteLevels):
            asymmetric_levels(classify(*consts), 2)

    @pytest.mark.parametrize(
        "consts,jmax,message",
        [((1e308, 8.5e307, 1e306), 3, "rotor levels for J = 1 are not finite"),  # |1,+> = A + B
         ((1e308, 5e307, 1e307), 40, "rotor Hamiltonian for J = 2 is not finite"),
         ((1e305, 5e304, 1e304), 200, "rotor Hamiltonian for J = 43 is not finite"),
         # a scaled E+ block of J = 2 whose level overflows as it is scaled back
         ((3e307, 3e307, 1e300), 2, "rotor levels for J = 2 are not finite"),
         ((0.0, 1e308, 1e308), 4, "rotor levels for J = 1 are not finite")],  # linear: 2B
    )
    def test_non_finite_names_the_lowest_j(self, consts, jmax, message):
        with pytest.raises(NonFiniteLevels, match=message):
            asymmetric_levels(classify(*consts), jmax)

    def test_negative_j(self):
        with pytest.raises(InvalidQuantumNumbers):
            ladder_matrix_elements(-1)
        with pytest.raises(InvalidQuantumNumbers):
            asymmetric_levels(classify(3, 2, 1), -2)

    def test_negative_nmax_unreachable_via_validation(self):
        spec = classify(5.0, 1.0, 1.0)
        with pytest.raises((InvalidQuantumNumbers, NegativeNmax)):
            frobenius_solve(spec, 4, 4, 3)
