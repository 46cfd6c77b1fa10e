import numpy as np
import pytest

from conftest import random_spd, two_mass_system
from vibrot import quadform as qf
from vibrot.quadform import (
    DimensionMismatch,
    NegativeEigenvalueNonIntegerPower,
    NotPositiveDefinite,
    PairDiagonalization,
    SingularNonPositivePower,
    SymMatrix,
)


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        a = SymMatrix([[1.0, 2.0 + 1e-13], [2.0, 3.0]])
        assert np.abs(a.entries - a.entries.T).max() == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        a = SymMatrix.identity(2)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0


class TestMatrixPower:
    def test_identity_fractional_power(self):
        out = qf.matrix_power(SymMatrix.identity(3), 0.37)
        np.testing.assert_allclose(out.entries, np.eye(3), atol=1e-14)

    def test_analytic_square_root(self):
        out = qf.matrix_power(SymMatrix.diagonal([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(out.entries, np.diag([2.0, 3.0]), atol=1e-14)

    def test_power_addition_recovers_inverse_free_product(self, rng):
        a = random_spd(rng, 5)
        prod = qf.matrix_power(a, 0.3).entries @ qf.matrix_power(a, 0.7).entries
        np.testing.assert_allclose(prod, a.entries, rtol=1e-9, atol=1e-12)

    def test_power_addition_law(self, rng):
        # A^g A^b = A^(g+b) over the stated exponent range
        for _ in range(25):
            a = random_spd(rng, 4)
            g, b = rng.uniform(-2.0, 2.0, size=2)
            lhs = qf.matrix_power(a, g).entries @ qf.matrix_power(a, b).entries
            rhs = qf.matrix_power(a, g + b).entries
            err = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert err < 1e-9

    def test_result_symmetric(self, rng):
        a = random_spd(rng, 6)
        out = qf.matrix_power(a, 0.31)
        scale = np.abs(out.entries).max()
        assert np.abs(out.entries - out.entries.T).max() <= 1e-12 * scale

    def test_negative_eigenvalue_non_integer_power_rejected(self):
        a = SymMatrix.diagonal([1.0, -1.0])
        with pytest.raises(NegativeEigenvalueNonIntegerPower):
            qf.matrix_power(a, 0.5)

    def test_negative_eigenvalue_integer_power_allowed(self):
        a = SymMatrix.diagonal([2.0, -1.0])
        out = qf.matrix_power(a, 2.0)
        np.testing.assert_allclose(out.entries, np.diag([4.0, 1.0]), atol=1e-13)

    def test_singular_non_positive_power_rejected(self):
        a = SymMatrix.diagonal([1.0, 0.0])
        with pytest.raises(SingularNonPositivePower):
            qf.matrix_power(a, -1.0)
        out = qf.matrix_power(a, 2.0)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-14)


class TestPositiveDefinite:
    def test_diagonal_positive(self):
        assert qf.is_positive_definite(SymMatrix.diagonal([1.0, 2.0, 3.0]))

    def test_semidefinite_boundary(self):
        assert not qf.is_positive_definite(SymMatrix.diagonal([1.0, 0.0]))

    def test_coupled_springs_force_matrix(self):
        assert qf.is_positive_definite(SymMatrix([[2.0, -1.0], [-1.0, 2.0]]))

    def test_indefinite(self):
        assert not qf.is_positive_definite(SymMatrix.diagonal([1.0, -0.1]))

    def test_random_spd(self, rng):
        for _ in range(10):
            assert qf.is_positive_definite(random_spd(rng, 5))

    @pytest.mark.parametrize(
        "diag,expected",
        [([1.0, 2e-12], True), ([1.0, 5e-13], False), ([1.0, 1e-12], False),
         ([4.0, 6e-12], True), ([4.0, 3e-12], False)],
    )
    def test_margin_is_require_positive_definite(self, diag, expected):
        # the margin is 1e-12 * max(1, max |a_ij|), the one that
        # require_positive_definite applies to the eigenvalues
        a = SymMatrix.diagonal(diag)
        assert qf.is_positive_definite(a) is expected
        try:
            qf.require_positive_definite(np.linalg.eigvalsh(a.entries), a, "a")
        except NotPositiveDefinite:
            raised = True
        else:
            raised = False
        assert raised is not expected


class TestSimultaneousDiagonalize:
    def test_identity_metric_diagonal_form(self):
        lam = [3.0, 1.0, 2.0]
        pair = qf.simultaneous_diagonalize(
            SymMatrix.identity(3), SymMatrix.diagonal(lam)
        )
        np.testing.assert_allclose(pair.lambdas, [1.0, 2.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(pair.beta), np.eye(3)[:, [1, 2, 0]],
                                   atol=1e-12)

    @pytest.mark.parametrize("m,k", [(1.0, 1.0), (3.0, 0.7)])
    def test_two_mass_three_spring_pair(self, m, k):
        g, ff = two_mass_system(m, k)
        g_inv = SymMatrix.diagonal([m, m])
        pair = qf.simultaneous_diagonalize(g_inv, ff.f)
        np.testing.assert_allclose(pair.lambdas, [k / m, 3 * k / m], rtol=1e-12)
        # columns proportional to (1, 1) and (1, -1)
        c0, c1 = pair.beta[:, 0], pair.beta[:, 1]
        assert abs(c0[0] - c0[1]) < 1e-12 * abs(c0[0])
        assert abs(c1[0] + c1[1]) < 1e-12 * abs(c1[0])

    def test_invariants_and_brute_force_oracle(self, rng):
        for _ in range(10):
            g = random_spd(rng, 6)
            gt = SymMatrix(rng.normal(size=(6, 6)))
            pair = qf.simultaneous_diagonalize(g, gt)
            bgb = pair.beta.T @ g.entries @ pair.beta
            bgtb = pair.beta.T @ gt.entries @ pair.beta
            assert np.abs(bgb - np.eye(6)).max() < 1e-10
            assert np.abs(bgtb - np.diag(pair.lambdas)).max() < 1e-10
            # independent oracle: eigenvalues of the unsymmetric product
            ev = np.sort(np.linalg.eigvals(np.linalg.solve(g.entries, gt.entries)).real)
            scale = max(np.abs(ev).max(), 1.0)
            assert np.abs(ev - pair.lambdas).max() < 1e-9 * scale

    def test_solvability_condition(self, rng):
        # det(gtilde - lambda g) ~ 0 at every returned lambda
        g = random_spd(rng, 5)
        gt = random_spd(rng, 5)
        pair = qf.simultaneous_diagonalize(g, gt)
        norm = np.linalg.norm(gt.entries, 2)
        for lam in pair.lambdas:
            det = np.linalg.det(gt.entries - lam * g.entries)
            assert abs(det) / norm**gt.dim < 1e-8

    def test_degenerate_subspace_grouping(self):
        g = SymMatrix.identity(4)
        gt = SymMatrix.diagonal([2.0, 1.0, 1.0, 1.0])
        pair = qf.simultaneous_diagonalize(g, gt)
        assert pair.multiplicities.tolist() == [3, 1]
        gram = pair.beta.T @ g.entries @ pair.beta
        assert np.abs(gram - np.eye(4)).max() < 1e-12

    def test_zero_eigenvalues_of_gtilde_allowed(self):
        pair = qf.simultaneous_diagonalize(
            SymMatrix.identity(2), SymMatrix.diagonal([0.0, 1.0])
        )
        np.testing.assert_allclose(pair.lambdas, [0.0, 1.0], atol=1e-14)

    def test_not_positive_definite_metric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            qf.simultaneous_diagonalize(
                SymMatrix.diagonal([1.0, -1.0]), SymMatrix.identity(2)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qf.simultaneous_diagonalize(SymMatrix.identity(2), SymMatrix.identity(3))

    def test_column_sign_convention(self, rng):
        pair = qf.simultaneous_diagonalize(random_spd(rng, 5), random_spd(rng, 5))
        for j in range(5):
            col = pair.beta[:, j]
            lead = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0][0]
            assert col[lead] > 0

    def test_pair_diagonalization_validates_order(self):
        with pytest.raises(qf.QuadformError):
            PairDiagonalization(beta=np.eye(2), lambdas=np.array([2.0, 1.0]))
