import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from discernlab.errors import DegreeCapError, IndexRangeError, ShapeError
from discernlab.multiparticle import (
    ParticleSystem,
    Permutation,
    permutation_unitary,
)
from discernlab.schwartz import (
    DEGREE_CAP,
    SpinorWavefunction,
    apply_P,
    apply_Q,
    commutator_PQ_apply,
    draw_wavefunctions,
    random_wavefunction,
    symmetric_product_state,
)


def qc(re, im=0):
    """Gaussian-integer coefficient re + i im."""
    return (re, im)


def poly(n, coeffs):
    """Spin-0 wavefunction from {exponent tuple: coefficient}."""
    return SpinorWavefunction(
        n, 0, {tuple((0, e) for e in mono):
               qc(*c) if isinstance(c, tuple) else qc(c)
               for mono, c in coeffs.items()})


def gaussian(n):
    return poly(n, {(0,) * n: 1})


def exponents(psi):
    return [tuple(e for _, e in term) for term in psi.terms]


class TestQComplex:
    """Gaussian-integer coefficient arithmetic, on one-term wavefunctions."""

    def test_arithmetic(self):
        a, b = qc(1, 2), qc(3, -1)
        # the q_2 term of (a + b q_1)(a + b q_2) carries a * b
        product = symmetric_product_state({0: a, 1: b}, 2)
        assert product.terms[((0, 0), (0, 1))] == qc(5, 5)
        # a + b as a - (-b)
        assert poly(1, {(0,): a}) - poly(1, {(0,): (-3, 1)}) \
            == poly(1, {(0,): qc(4, 1)})
        assert poly(1, {(0,): a}).mul_minus_i() == poly(1, {(0,): (2, -1)})

    def test_exactness(self):
        # 1/3 + 1/3 + 1/3 = 1, scaled by 3
        third, minus_third = poly(1, {(0,): 1}), poly(1, {(0,): -1})
        assert third - minus_third - minus_third == poly(1, {(0,): 3})


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
        for mono in exponents(got):
            assert mono[1] == 3

    def test_slot_out_of_range(self):
        with pytest.raises(IndexRangeError):
            apply_P(gaussian(1), 2)

    def test_degree_cap(self):
        capped = poly(2, {(DEGREE_CAP, 0): 1})
        with pytest.raises(DegreeCapError):
            apply_P(capped, 1)
        assert apply_P(capped, 2) == poly(2, {(DEGREE_CAP, 1): (0, 1)})


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
        capped = poly(2, {(DEGREE_CAP, 0): 1})
        with pytest.raises(DegreeCapError):
            apply_Q(capped, 1)
        assert apply_Q(capped, 2) == poly(2, {(DEGREE_CAP, 1): 1})


class TestCommutator:
    def test_diagonal_is_minus_i(self):
        for seed in range(20):
            psi = random_wavefunction(2, 6, 1, seed)
            for a in (1, 2):
                assert commutator_PQ_apply(psi, a, a) == psi.mul_minus_i()

    def test_off_diagonal_is_zero(self):
        for seed in range(20):
            psi = random_wavefunction(3, 5, 0, seed)
            for a, b in [(1, 2), (2, 1), (1, 3), (3, 2)]:
                assert commutator_PQ_apply(psi, a, b).is_zero()

    def test_bosonic_product_state(self):
        phi = {0: qc(1), 1: qc(1, 1), 2: qc(-1, 0)}
        psi = symmetric_product_state(phi, 2)
        assert commutator_PQ_apply(psi, 1, 1) == psi.mul_minus_i()
        assert commutator_PQ_apply(psi, 2, 2) == psi.mul_minus_i()
        assert commutator_PQ_apply(psi, 1, 2).is_zero()

    def test_degree_raised_by_at_most_one(self):
        psi = poly(1, {(4,): 1})
        for op in (apply_P, apply_Q):
            out = op(psi, 1)
            assert max(m[0] for m in exponents(out)) <= 5


class TestRandomWavefunction:
    def test_spin_zero_single_component(self):
        psi = random_wavefunction(1, 4, 0, 9)
        assert {m for term in psi.terms for m, _ in term} == {0}

    def test_component_count(self):
        # at most four of the 9 spin configurations carry terms
        psi = random_wavefunction(2, 4, 2, 9)
        configs = {tuple(m for m, _ in term) for term in psi.terms}
        assert 1 <= len(configs) <= 4
        assert all(0 <= m <= 2 for config in configs for m in config)

    def test_degree_bound(self):
        psi = random_wavefunction(3, 4, 0, 2)
        for mono in exponents(psi):
            assert max(mono) <= 4

    def test_determinism_and_nonzero(self):
        a = random_wavefunction(2, 5, 1, 77)
        b = random_wavefunction(2, 5, 1, 77)
        assert a == b
        assert not a.is_zero()


class TestDrawWavefunctions:
    @pytest.mark.parametrize("n,two_s", [(2, 0), (3, 1), (3, 3), (8, 63)])
    def test_every_owner_is_a_nonzero_coprime_draw(self, n, two_s):
        batch = draw_wavefunctions(n, 5, two_s, 40, 7)
        assert batch.n_owners == 40 and batch.coeffs.dtype == np.int64
        assert batch.nonzero_owners().all()
        assert 0 <= batch.rows[1::2].min() <= batch.rows[1::2].max() \
            <= two_s
        assert 0 <= batch.rows[2::2].min() <= batch.rows[2::2].max() <= 5
        for psi in batch.unpack():
            # the unpacked terms pass the constructor's checks unchanged
            assert SpinorWavefunction(n, two_s, psi.terms) == psi
            configs = {tuple(m for m, _ in term) for term in psi.terms}
            assert 1 <= len(configs) <= 4
            assert math.gcd(*(x for c in psi.terms.values() for x in c)) == 1

    def test_same_seed_same_batch(self):
        a, b, c = (draw_wavefunctions(3, 4, 1, 30, seed)
                   for seed in (5, 5, 6))
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs[:, :10], c.coeffs[:, :10])

    def test_cancelled_draw_gets_the_constant_term(self):
        # found by search: at 2s = 0 and degree 0 every term of a draw is
        # the constant one, and the 4..16 drawn for owner 3 cancel.  The
        # raw sums are read from the generator as draw_wavefunctions
        # documents.
        count, seed = 500, 14887
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, 1]))
        rng.integers(0, 1, size=(4 * count, 1))  # spins
        per_owner = rng.integers(1, 5, size=(count, 4)).sum(axis=1)
        n_terms = int(per_owner.sum())
        rng.integers(0, 1, size=(n_terms, 1))  # exponents
        numerators = rng.integers(-9, 10, size=(n_terms, 2))
        parts = numerators * (2520 // rng.integers(1, 10, (n_terms, 1)))
        sums = np.add.reduceat(parts, np.cumsum(per_owner) - per_owner)
        assert np.flatnonzero(~sums.any(axis=1)).tolist() == [3]
        drawn = draw_wavefunctions(1, 0, 0, count, seed).unpack()
        assert drawn[3].terms == {((0, 0),): (1, 0)}
        assert not any(psi.is_zero() for psi in drawn)


class TestSpinorStructure:
    def test_component_count_enforced(self):
        # 2s = 1 allows spin indices 0 and 1 only
        with pytest.raises(ShapeError):
            SpinorWavefunction(2, 1, {((0, 0), (2, 0)): qc(1)})

    def test_arity_and_exponent_enforced(self):
        with pytest.raises(ShapeError):
            SpinorWavefunction(2, 1, {((0, 0),): qc(1)})
        with pytest.raises(ShapeError):
            SpinorWavefunction(1, 1, {((0, -1),): qc(1)})

    def test_exponent_cap_enforced(self):
        assert poly(1, {(DEGREE_CAP,): 1}).terms
        with pytest.raises(DegreeCapError):
            poly(1, {(DEGREE_CAP + 1,): 1})
        random_wavefunction(2, DEGREE_CAP, 0, 1)
        with pytest.raises(DegreeCapError):
            random_wavefunction(2, DEGREE_CAP + 1, 0, 1)

    def test_zero_coefficients_dropped(self):
        psi = SpinorWavefunction(1, 1, {((0, 1),): qc(0), ((1, 2),): qc(3)})
        assert psi.terms == {((1, 2),): qc(3)}

    def test_coefficients_are_integer_pairs(self):
        for c in ((1.0, 0), (1, 0, 0), 1, (True, 0), (1, Fraction(1, 2))):
            with pytest.raises(ShapeError):
                SpinorWavefunction(1, 0, {((0, 0),): c})

    def test_equality_is_not_projective(self):
        psi = random_wavefunction(2, 4, 1, 8)
        doubled = SpinorWavefunction(2, 1, {
            term: (2 * re, 2 * im) for term, (re, im) in psi.terms.items()})
        assert psi != doubled
        assert psi != psi.mul_minus_i()
        assert commutator_PQ_apply(psi, 1, 1) != psi

    def test_permute_slots_roundtrip(self):
        psi = random_wavefunction(3, 4, 1, 5)
        swapped = psi.permute_slots((2, 1, 3))
        assert swapped != psi
        assert swapped.permute_slots((2, 1, 3)) == psi


class TestPermuteSlots:
    def test_three_cycle_moves_whole_particles(self):
        # a distinct (m, e) per slot; slot 1 -> 2, slot 2 -> 3, slot 3 -> 1
        psi = SpinorWavefunction(3, 1, {((0, 1), (1, 2), (0, 3)): qc(2, 1)})
        assert psi.permute_slots((2, 3, 1)).terms == \
            {((0, 3), (0, 1), (1, 2)): qc(2, 1)}

    @pytest.mark.parametrize("sigma", list(itertools.permutations((1, 2, 3))))
    def test_composition_law(self, sigma):
        psi = random_wavefunction(3, 4, 1, 11)
        for pi in Permutation.all(3):
            pi_sigma = pi.compose(Permutation(sigma)).mapping
            assert psi.permute_slots(sigma).permute_slots(pi.mapping) \
                == psi.permute_slots(pi_sigma)

    def test_agrees_with_permutation_unitary(self):
        # spin-only terms: exponent 0 everywhere, so a wavefunction is a
        # vector over the d^N spin configurations, slot 1 most significant
        n, two_s = 3, 1
        d = two_s + 1
        system = ParticleSystem(n, d)
        configs = list(itertools.product(range(d), repeat=n))
        rng = np.random.default_rng(3)
        weights = rng.integers(-5, 6, size=len(configs))
        psi = SpinorWavefunction(n, two_s, {
            tuple((m, 0) for m in config): qc(int(w))
            for config, w in zip(configs, weights)})

        def vector(wf):
            return np.array([float(wf.terms.get(tuple((m, 0) for m in c),
                                                qc(0))[0])
                             for c in configs])

        for mapping in itertools.permutations(range(1, n + 1)):
            u = permutation_unitary(Permutation(mapping), system).entries
            assert np.array_equal(vector(psi.permute_slots(mapping)),
                                  (u @ vector(psi)).real)
