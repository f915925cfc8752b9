import numpy as np
import pytest

from discernlab.errors import HermiticityError, ShapeError, UnitError
from discernlab.matrix_core import (
    MixedState,
    Operator,
    PureState,
    eigenvalue_levels,
    hermitian_eigensystem,
    identity,
    kron,
)
from oracles import commutator, is_scalar_identity

SIGMA_X = Operator([[0, 1], [1, 0]])
SIGMA_Y = Operator([[0, -1j], [1j, 0]])
SIGMA_Z = Operator([[1, 0], [0, -1]])


def naive_matmul(a, b):
    """Index-by-index product, the oracle for commutator tests."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(n))
    return out


class TestKron:
    def test_identity_times_identity(self):
        assert np.array_equal(kron(identity(2), identity(2)).entries,
                              np.eye(4))

    def test_sigma_z_squared_tensor(self):
        got = kron(SIGMA_Z, SIGMA_Z).entries
        assert np.array_equal(got, np.diag([1, -1, -1, 1]).astype(complex))

    def test_dimension_arithmetic(self):
        a = Operator(np.arange(4).reshape(2, 2))
        b = Operator(np.arange(9).reshape(3, 3))
        assert kron(a, b).dim == 6

    def test_entry_formula(self):
        rng = np.random.default_rng(7)
        a = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = Operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        got = kron(a, b).entries
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        # 1-ulp slack: np.kron associates the complex
                        # multiply differently from the scalar product
                        assert abs(got[i * 3 + k, j * 3 + l]
                                   - a.entries[i, j] * b.entries[k, l]) < 1e-14

    def test_associative_up_to_reshaping(self):
        # integer entries so float multiplication is exact and order-free
        rng = np.random.default_rng(11)
        mats = [Operator(rng.integers(-9, 10, (d, d)).astype(float)
                         + 1j * rng.integers(-9, 10, (d, d)))
                for d in (2, 3, 2)]
        left = kron(kron(mats[0], mats[1]), mats[2]).entries
        right = kron(mats[0], kron(mats[1], mats[2])).entries
        assert np.array_equal(left, right)


class TestCommutator:
    """The dense commutator of tests/oracles.py, which the spin and
    symmetrizer tests rely on."""

    def test_self_commutation_vanishes(self):
        a = Operator(np.arange(9).reshape(3, 3))
        assert commutator(a, a).max_norm() == 0

    def test_pauli_xy(self):
        # oracle: naive 2x2 multiplication of sigma_x sigma_y - sigma_y sigma_x
        expected = naive_matmul(SIGMA_X.entries, SIGMA_Y.entries) \
            - naive_matmul(SIGMA_Y.entries, SIGMA_X.entries)
        assert np.array_equal(expected, 2j * SIGMA_Z.entries)
        assert np.array_equal(commutator(SIGMA_X, SIGMA_Y).entries, expected)

    def test_disjoint_slots_commute(self):
        sz1 = kron(SIGMA_Z, identity(2))
        sz2 = kron(identity(2), SIGMA_Z)
        assert commutator(sz1, sz2).max_norm() == 0

    def test_antisymmetric(self):
        rng = np.random.default_rng(3)
        a = Operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = Operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert np.array_equal(commutator(a, b).entries,
                              -commutator(b, a).entries)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            commutator(identity(2), identity(3))


class TestHermitianEigensystem:
    def test_diagonal_input(self):
        pairs = hermitian_eigensystem(Operator(np.diag([3.0, 1.0, 2.0])))
        assert [lam for lam, _ in pairs] == [1.0, 2.0, 3.0]
        for lam, vec in pairs:
            col = np.abs(vec.amplitudes)
            assert np.isclose(col.max(), 1.0)

    def test_sigma_x(self):
        # characteristic polynomial lambda^2 - 1 = 0: eigenvalues -1, +1
        pairs = hermitian_eigensystem(SIGMA_X)
        assert np.allclose([lam for lam, _ in pairs], [-1.0, 1.0])
        minus, plus = pairs[0][1].amplitudes, pairs[1][1].amplitudes
        s = 1 / np.sqrt(2)
        assert np.allclose(np.abs(minus), [s, s])
        assert np.isclose(minus[0] * minus[1].conjugate(), -0.5)
        assert np.isclose(plus[0] * plus[1].conjugate(), 0.5)

    def test_pair_casimir_spectrum(self):
        # 4x4 oracle: (S_1 + S_2)^2 for two spin-1/2 via explicit Paulis
        half = 0.5
        ops = [SIGMA_X.entries * half, SIGMA_Y.entries * half,
               SIGMA_Z.entries * half]
        total = np.zeros((4, 4), dtype=complex)
        for w in ops:
            comp = np.kron(w, np.eye(2)) + np.kron(np.eye(2), w)
            total += comp @ comp
        pairs = hermitian_eigensystem(Operator(total))
        assert np.allclose([lam for lam, _ in pairs], [0.0, 2.0, 2.0, 2.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for dim in (3, 17, 64):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = Operator((m + m.conj().T) / 2)
            pairs = hermitian_eigensystem(a)
            v = np.column_stack([vec.amplitudes for _, vec in pairs])
            lam = np.diag([l for l, _ in pairs])
            recon = v @ lam @ v.conj().T
            assert np.abs(a.entries - recon).max() <= 1e-9 * a.max_norm()
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitian_eigensystem(Operator([[0, 1], [0, 0]]))


class TestEigenvalueLevels:
    def test_multiplicities(self):
        levels = eigenvalue_levels(Operator(np.diag([2.0, 0.0, 2.0, 2.0])))
        assert levels == [(0.0, 1), (2.0, 3)]


class TestIsScalarIdentity:
    """The scalar-identity oracle of tests/oracles.py, which the spin
    tests and the negative controls rely on."""

    def test_scalar_matrix(self):
        assert is_scalar_identity(Operator(2.5j * np.eye(3)), 2.5j, 1e-12)

    def test_sigma_z_is_not_scalar(self):
        assert not is_scalar_identity(SIGMA_Z, 1.0, 1e-6)

    def test_implies_eigen_equation_on_random_states(self):
        a = Operator(np.eye(5) * (1 + 2j))
        assert is_scalar_identity(a, 1 + 2j, 1e-10)
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(a.entries @ v - (1 + 2j) * v) <= 1e-9

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_scalar_identity(identity(2), 1.0, 0.0)


class TestStateInvariants:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ShapeError):
            PureState([1, 1])

    def test_mixed_state_rejects_negative(self):
        with pytest.raises(ShapeError):
            MixedState(np.diag([1.5, -0.5]))

    def test_mixed_state_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            MixedState([[0.5, 1], [0, 0.5]])


class TestUnits:
    def test_sum_needs_equal_hbar_power(self):
        s = Operator(SIGMA_Z.entries, hbar_power=1)
        assert (s + s).hbar_power == 1
        assert (s @ s).hbar_power == 2
        with pytest.raises(UnitError):
            s + s @ s
        with pytest.raises(ShapeError):
            s + identity(3)
