import math
from fractions import Fraction

import numpy as np
import pytest

from discernlab.errors import DegreeCapError, IndexRangeError, ShapeError
from discernlab.schwartz import (
    MINUS_I,
    GaussianPolyWavefunction,
    QComplex,
    SpinorWavefunction,
    apply_P,
    apply_Q,
    commutator_PQ_apply,
    gaussian,
    gaussian_moment,
    inner_product,
    random_wavefunction,
    symmetric_product_state,
)


def qc(re, im=0):
    return QComplex(Fraction(re), Fraction(im))


def poly(n, coeffs):
    return GaussianPolyWavefunction(n, {m: qc(*c) if isinstance(c, tuple)
                                        else qc(c) for m, c in coeffs.items()})


class TestQComplex:
    def test_arithmetic(self):
        a, b = qc(1, 2), qc(3, -1)
        assert a * b == qc(5, 5)
        assert a + b == qc(4, 1)
        assert a.conj() == qc(1, -2)
        assert a.mul_minus_i() == a * MINUS_I

    def test_exactness(self):
        third = QComplex(Fraction(1, 3))
        assert third + third + third == qc(1)


class TestApplyP:
    def test_pure_gaussian(self):
        # -i d/dq exp(-q^2/2) = i q exp(-q^2/2)
        got = apply_P(gaussian(1), 1)
        assert got == poly(1, {(1,): (0, 1)})

    def test_q_times_gaussian(self):
        # -i d/dq (q e^{-q^2/2}) = -i (1 - q^2) e^{-q^2/2}
        got = apply_P(poly(1, {(1,): 1}), 1)
        assert got == poly(1, {(0,): (0, -1), (2,): (0, 1)})

    def test_disjoint_slot_untouched(self):
        # product p(q1) * q2^3: acting on slot 1 leaves the q2 factor alone
        psi = poly(2, {(2, 3): 1})
        got = apply_P(psi, 1)
        for mono in got.coeffs:
            assert mono[1] == 3

    def test_slot_out_of_range(self):
        with pytest.raises(IndexRangeError):
            apply_P(gaussian(1), 2)


class TestApplyQ:
    def test_pure_gaussian(self):
        assert apply_Q(gaussian(1), 1) == poly(1, {(1,): 1})

    def test_composition(self):
        psi = poly(1, {(0,): (2, 3)})
        assert apply_Q(apply_Q(psi, 1), 1) == poly(1, {(2,): (2, 3)})

    def test_distinct_slots_commute(self):
        psi = poly(2, {(1, 0): (1, 1), (0, 2): 3})
        ab = apply_Q(apply_Q(psi, 1), 2)
        ba = apply_Q(apply_Q(psi, 2), 1)
        assert ab == ba

    def test_degree_cap(self):
        capped = GaussianPolyWavefunction(1, {(2,): qc(1)}, degree_cap=2)
        with pytest.raises(DegreeCapError):
            capped.times_q(1)


class TestCommutator:
    def test_diagonal_is_minus_i(self):
        for seed in range(20):
            psi = random_wavefunction(2, 6, 1, seed)
            for a in (1, 2):
                assert commutator_PQ_apply(psi, a, a) == psi.scale(MINUS_I)

    def test_off_diagonal_is_zero(self):
        for seed in range(20):
            psi = random_wavefunction(3, 5, 0, seed)
            for a, b in [(1, 2), (2, 1), (1, 3), (3, 2)]:
                assert commutator_PQ_apply(psi, a, b).is_zero()

    def test_bosonic_product_state(self):
        phi = {0: qc(1), 1: qc(1, 1), 2: qc(-1, 0)}
        psi = symmetric_product_state(phi, 2)
        assert commutator_PQ_apply(psi, 1, 1) == psi.scale(MINUS_I)
        assert commutator_PQ_apply(psi, 2, 2) == psi.scale(MINUS_I)
        assert commutator_PQ_apply(psi, 1, 2).is_zero()

    def test_degree_raised_by_at_most_one(self):
        psi = poly(1, {(4,): 1})
        for op in (apply_P, apply_Q):
            out = op(psi, 1)
            assert max(m[0] for m in out.coeffs) <= 5


class TestInnerProduct:
    def test_gaussian_norm(self):
        assert np.isclose(inner_product(gaussian(1), gaussian(1)),
                          math.sqrt(math.pi))

    def test_odd_moment_vanishes(self):
        assert inner_product(poly(1, {(1,): 1}), gaussian(1)) == 0.0

    def test_moment_values(self):
        assert gaussian_moment(0) == math.sqrt(math.pi)
        assert np.isclose(gaussian_moment(2), math.sqrt(math.pi) / 2)
        assert np.isclose(gaussian_moment(4), 3 * math.sqrt(math.pi) / 4)
        # quadrature oracle
        q = np.linspace(-12, 12, 200001)
        for n in range(0, 9):
            num = np.trapezoid(q ** n * np.exp(-q * q), q)
            assert abs(gaussian_moment(n) - num) < 1e-8

    def test_conjugate_symmetry(self):
        for seed in range(5):
            a = random_wavefunction(2, 4, 0, seed).components[0]
            b = random_wavefunction(2, 4, 0, 100 + seed).components[0]
            assert np.isclose(inner_product(a, b),
                              np.conjugate(inner_product(b, a)))

    def test_momentum_symmetric(self):
        # <P psi | phi> = <psi | P phi> on this domain
        for seed in range(5):
            a = random_wavefunction(1, 5, 0, seed)
            b = random_wavefunction(1, 5, 0, 50 + seed)
            lhs = inner_product(apply_P(a, 1), b)
            rhs = inner_product(a, apply_P(b, 1))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_spinor_sums_components(self):
        a = random_wavefunction(1, 3, 1, 0)
        total = sum((inner_product(c, c) for c in a.components), start=0j)
        assert np.isclose(inner_product(a, a), total)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            inner_product(gaussian(1), gaussian(2))


class TestRandomWavefunction:
    def test_spin_zero_single_component(self):
        psi = random_wavefunction(1, 4, 0, 9)
        assert len(psi.components) == 1

    def test_component_count(self):
        psi = random_wavefunction(2, 4, 2, 9)
        assert len(psi.components) == 9

    def test_degree_bound(self):
        psi = random_wavefunction(3, 4, 0, 2)
        for comp in psi.components:
            for mono in comp.coeffs:
                assert max(mono) <= 4

    def test_determinism_and_nonzero(self):
        a = random_wavefunction(2, 5, 1, 77)
        b = random_wavefunction(2, 5, 1, 77)
        assert a == b
        assert not a.is_zero()


class TestSpinorStructure:
    def test_component_count_enforced(self):
        with pytest.raises(ShapeError):
            SpinorWavefunction(2, 1, (gaussian(2),))

    def test_permute_slots_roundtrip(self):
        psi = random_wavefunction(3, 4, 1, 5)
        swapped = psi.permute_slots((2, 1, 3))
        assert swapped != psi
        assert swapped.permute_slots((2, 1, 3)) == psi
