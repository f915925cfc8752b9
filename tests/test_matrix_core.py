"""The dense matrix oracles of tests/oracles.py, and the state invariants
that the public predicates enforce on a ``StateBatch``: a statistical
operator is self-adjoint, positive and of unit trace, and its factors
hold states of the system's sector."""

import numpy as np
import pytest

from discernlab.discern import ALL_STATES, eigenproperty, relation_T_holds
from discernlab.errors import ShapeError
from discernlab.multiparticle import ParticleSystem, StateBatch, sample_states
from discernlab.spin import SpinLabel, pair_operator
from oracles import commutator, is_scalar_identity, kron

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def naive_matmul(a, b):
    """Index-by-index product, the oracle for commutator tests."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(n))
    return out


class TestKron:
    """The tensor product of tests/oracles.py, from which its slot
    embeddings and N-body operators are built."""

    def test_identity_times_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_squared_tensor(self):
        assert np.array_equal(kron(SIGMA_Z, SIGMA_Z),
                              np.diag([1, -1, -1, 1]).astype(complex))

    def test_dimension_arithmetic(self):
        a = np.arange(4).reshape(2, 2)
        b = np.arange(9).reshape(3, 3)
        assert kron(a, b).shape == (6, 6)
        assert kron(a, b, a).shape == (12, 12)

    def test_entry_formula(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        # 1-ulp slack: np.kron associates the complex
                        # multiply differently from the scalar product
                        assert abs(got[i * 3 + k, j * 3 + l]
                                   - a[i, j] * b[k, l]) < 1e-14

    def test_associative_up_to_reshaping(self):
        # integer entries so float multiplication is exact and order-free
        rng = np.random.default_rng(11)
        mats = [rng.integers(-9, 10, (d, d)).astype(float)
                + 1j * rng.integers(-9, 10, (d, d)) for d in (2, 3, 2)]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        assert np.array_equal(left, right)
        assert np.array_equal(kron(*mats), left)


class TestCommutator:
    """The dense commutator of tests/oracles.py, which the spin and
    symmetrizer tests rely on."""

    def test_self_commutation_vanishes(self):
        a = np.arange(9).reshape(3, 3)
        assert np.abs(commutator(a, a)).max() == 0

    def test_pauli_xy(self):
        # oracle: naive 2x2 multiplication of sigma_x sigma_y - sigma_y sigma_x
        expected = naive_matmul(SIGMA_X, SIGMA_Y) - naive_matmul(SIGMA_Y,
                                                                 SIGMA_X)
        assert np.array_equal(expected, 2j * SIGMA_Z)
        assert np.array_equal(commutator(SIGMA_X, SIGMA_Y), expected)

    def test_disjoint_slots_commute(self):
        sz1 = kron(SIGMA_Z, np.eye(2))
        sz2 = kron(np.eye(2), SIGMA_Z)
        assert np.abs(commutator(sz1, sz2)).max() == 0

    def test_antisymmetric(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(commutator(a, b), -commutator(b, a))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            commutator(np.eye(2), np.eye(3))


class TestIsScalarIdentity:
    """The scalar-identity oracle of tests/oracles.py, which the spin
    tests and the negative controls rely on."""

    def test_scalar_matrix(self):
        assert is_scalar_identity(2.5j * np.eye(3), 2.5j, 1e-12)

    def test_sigma_z_is_not_scalar(self):
        assert not is_scalar_identity(SIGMA_Z, 1.0, 1e-6)

    def test_implies_eigen_equation_on_random_states(self):
        a = np.eye(5) * (1 + 2j)
        assert is_scalar_identity(a, 1 + 2j, 1e-10)
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(a @ v - (1 + 2j) * v) <= 1e-9

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_scalar_identity(np.eye(2), 1.0, 0.0)


class TestStateInvariants:
    """Each refusal of a batch, by both predicates where they apply."""

    label, system = SpinLabel(1), ParticleSystem(2, 2)

    def refused(self, batch):
        for predicate in (
                lambda: relation_T_holds(1, 2, batch, self.label, self.system),
                lambda: eigenproperty(
                    pair_operator(self.label, 1, 2, self.system), batch)):
            with pytest.raises(ShapeError):
                predicate()

    def test_pure_state_rejects_unnormalized(self):
        # trace 2: a vector of norm sqrt(2)
        self.refused(StateBatch(np.array([1, 1, 0, 0], complex).reshape(
            1, 1, 2, 2), np.ones((1, 1))))

    def test_mixed_state_rejects_negative(self):
        # diag(1.5, -0.5, 0, 0): unit trace, not positive
        self.refused(StateBatch(np.eye(4, dtype=complex)[:2].reshape(
            1, 2, 2, 2), np.array([[1.5, -0.5]])))

    def test_mixed_state_rejects_non_hermitian(self):
        # diag(0.5 + 0.5i, 0.5 - 0.5i, 0, 0): unit trace, not self-adjoint
        self.refused(StateBatch(np.eye(4, dtype=complex)[:2].reshape(
            1, 2, 2, 2), np.array([[0.5 + 0.5j, 0.5 - 0.5j]])))

    def test_relation_rejects_factors_of_another_shape(self):
        bose = ParticleSystem(2, 2, "bose")
        three = sample_states(ParticleSystem(3, 2), 2, 0)
        for batch, system in (
                (sample_states(self.system, 2, 0), bose),  # d^N, not D
                (sample_states(bose, 2, 0), self.system),  # D, not d^N
                (three, self.system),  # three particles, not two
                # two weights per state for one factor each
                (StateBatch(three.factors, np.ones((2, 2)) / 2),
                 ParticleSystem(3, 2))):
            with pytest.raises(ShapeError):
                relation_T_holds(1, 2, batch, self.label, system)

    def test_relation_rejects_a_plain_array(self):
        # compared with ALL_STATES by identity, never as an array
        psi = np.array([0, 1, 0, 0.])
        for states in (psi, psi.reshape(1, 1, 2, 2), "all states"):
            with pytest.raises(ShapeError):
                relation_T_holds(1, 2, states, self.label, self.system)
        with pytest.raises(ShapeError):
            eigenproperty(pair_operator(self.label, 1, 2, self.system), psi)
        assert not relation_T_holds(1, 2, ALL_STATES, self.label, self.system)
