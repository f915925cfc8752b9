import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from discernlab import schwartz
from discernlab.discern import certify_C
from discernlab.errors import DegreeCapError, IndexRangeError, ShapeError
from discernlab.multiparticle import (
    ParticleSystem,
    Permutation,
    permutation_unitary,
)
from discernlab.schwartz import (
    _INT64_SAFE,
    DEGREE_CAP,
    SpinorWavefunction,
    TermBatch,
    _exact,
    draw_wavefunctions,
    pack,
    stack,
    symmetric_product_state,
)
from oracles import commutator_by_merge, compose, merged_by_dict


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


def one(batch):
    """The wavefunction of a batch of one."""
    [psi] = batch.unpack()
    return psi


def drawn(n, max_degree, two_s, seed):
    """The batch of one wavefunction that seed draws."""
    return draw_wavefunctions(n, max_degree, two_s, 1, seed)


class TestQComplex:
    """Gaussian-integer coefficient arithmetic, on one-term wavefunctions."""

    def test_arithmetic(self):
        a, b = qc(1, 2), qc(3, -1)
        # the q_2 term of (a + b q_1)(a + b q_2) carries a * b
        product = symmetric_product_state({0: a, 1: b}, 2)
        assert product.terms[((0, 0), (0, 1))] == qc(5, 5)
        # a + b as a - (-b)
        left = pack([poly(1, {(0,): a})])
        assert one(left.minus(pack([poly(1, {(0,): (-3, 1)})]))) \
            == poly(1, {(0,): qc(4, 1)})
        assert one(left.mul_minus_i()) == poly(1, {(0,): (2, -1)})

    def test_exactness(self):
        # 1/3 + 1/3 + 1/3 = 1, scaled by 3
        third, minus_third = pack([poly(1, {(0,): 1})]), \
            pack([poly(1, {(0,): -1})])
        assert one(third.minus(minus_third).minus(minus_third)) \
            == poly(1, {(0,): 3})


class TestApplyP:
    """TermBatch.p on batches of one, merged."""

    def test_pure_gaussian(self):
        # -i d/dq exp(-q^2/2) = i q exp(-q^2/2)
        got = one(pack([gaussian(1)]).p(1).merged())
        assert got == poly(1, {(1,): (0, 1)})

    def test_q_times_gaussian(self):
        # -i d/dq (q e^{-q^2/2}) = -i (1 - q^2) e^{-q^2/2}
        got = one(pack([poly(1, {(1,): 1})]).p(1).merged())
        assert got == poly(1, {(0,): (0, -1), (2,): (0, 1)})

    def test_disjoint_slot_untouched(self):
        # product p(q1) * q2^3: acting on slot 1 leaves the q2 factor alone
        psi = poly(2, {(2, 3): 1})
        got = one(pack([psi]).p(1).merged())
        for mono in exponents(got):
            assert mono[1] == 3

    def test_slot_out_of_range(self):
        with pytest.raises(IndexRangeError):
            pack([gaussian(1)]).p(2)

    def test_degree_cap(self):
        capped = pack([poly(2, {(DEGREE_CAP, 0): 1})])
        with pytest.raises(DegreeCapError):
            capped.p(1)
        assert one(capped.p(2).merged()) == \
            poly(2, {(DEGREE_CAP, 1): (0, 1)})


class TestApplyQ:
    """TermBatch.q on batches of one."""

    def test_pure_gaussian(self):
        assert one(pack([gaussian(1)]).q(1)) == poly(1, {(1,): 1})

    def test_composition(self):
        psi = poly(1, {(0,): (2, 3)})
        assert one(pack([psi]).q(1).q(1)) == poly(1, {(2,): (2, 3)})

    def test_distinct_slots_commute(self):
        batch = pack([poly(2, {(1, 0): (1, 1), (0, 2): 3})])
        assert one(batch.q(1).q(2)) == one(batch.q(2).q(1))

    def test_degree_cap(self):
        capped = pack([poly(2, {(DEGREE_CAP, 0): 1})])
        with pytest.raises(DegreeCapError):
            capped.q(1)
        assert one(capped.q(2)) == poly(2, {(DEGREE_CAP, 1): 1})


class TestCommutator:
    """TermBatch.commutator_PQ on batches of one."""

    def test_diagonal_is_minus_i(self):
        for seed in range(20):
            batch = drawn(2, 6, 1, seed)
            for a in (1, 2):
                assert one(batch.commutator_PQ(a, a)) == \
                    one(batch.mul_minus_i())

    def test_off_diagonal_is_zero(self):
        for seed in range(20):
            batch = drawn(3, 5, 0, seed)
            for a, b in [(1, 2), (2, 1), (1, 3), (3, 2)]:
                assert batch.commutator_PQ(a, b).is_zero()

    def test_bosonic_product_state(self):
        phi = {0: qc(1), 1: qc(1, 1), 2: qc(-1, 0)}
        batch = pack([symmetric_product_state(phi, 2)])
        target = one(batch.mul_minus_i())
        assert one(batch.commutator_PQ(1, 1)) == target
        assert one(batch.commutator_PQ(2, 2)) == target
        assert batch.commutator_PQ(1, 2).is_zero()

    def test_degree_raised_by_at_most_one(self):
        batch = pack([poly(1, {(4,): 1})])
        for out in (batch.p(1).merged(), batch.q(1)):
            assert max(m[0] for m in exponents(one(out))) <= 5


class TestRandomWavefunction:
    """draw_wavefunctions with a batch of one."""

    def test_spin_zero_single_component(self):
        psi = one(drawn(1, 4, 0, 9))
        assert {m for term in psi.terms for m, _ in term} == {0}

    def test_component_count(self):
        # at most four of the 9 spin configurations carry terms
        psi = one(drawn(2, 4, 2, 9))
        configs = {tuple(m for m, _ in term) for term in psi.terms}
        assert 1 <= len(configs) <= 4
        assert all(0 <= m <= 2 for config in configs for m in config)

    def test_degree_bound(self):
        psi = one(drawn(3, 4, 0, 2))
        for mono in exponents(psi):
            assert max(mono) <= 4

    def test_determinism_and_nonzero(self):
        a = one(drawn(2, 5, 1, 77))
        b = one(drawn(2, 5, 1, 77))
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
        drawn(2, DEGREE_CAP, 0, 1)
        with pytest.raises(DegreeCapError):
            drawn(2, DEGREE_CAP + 1, 0, 1)

    def test_zero_coefficients_dropped(self):
        psi = SpinorWavefunction(1, 1, {((0, 1),): qc(0), ((1, 2),): qc(3)})
        assert psi.terms == {((1, 2),): qc(3)}

    def test_coefficients_are_integer_pairs(self):
        for c in ((1.0, 0), (1, 0, 0), 1, (True, 0), (1, Fraction(1, 2))):
            with pytest.raises(ShapeError):
                SpinorWavefunction(1, 0, {((0, 0),): c})

    def test_equality_is_not_projective(self):
        batch = drawn(2, 4, 1, 8)
        psi = one(batch)
        doubled = SpinorWavefunction(2, 1, {
            term: (2 * re, 2 * im) for term, (re, im) in psi.terms.items()})
        assert psi != doubled
        assert psi != one(batch.mul_minus_i())
        assert one(batch.commutator_PQ(1, 1)) != psi

    def test_permute_slots_roundtrip(self):
        batch = drawn(3, 4, 1, 5)
        swapped = batch.permute_slots((2, 1, 3))
        assert one(swapped) != one(batch)
        assert one(swapped.permute_slots((2, 1, 3))) == one(batch)


class TestPermuteSlots:
    """TermBatch.permute_slots on batches of one."""

    def test_three_cycle_moves_whole_particles(self):
        # a distinct (m, e) per slot; slot 1 -> 2, slot 2 -> 3, slot 3 -> 1
        psi = SpinorWavefunction(3, 1, {((0, 1), (1, 2), (0, 3)): qc(2, 1)})
        assert one(pack([psi]).permute_slots((2, 3, 1))).terms == \
            {((0, 3), (0, 1), (1, 2)): qc(2, 1)}

    @pytest.mark.parametrize("sigma", list(itertools.permutations((1, 2, 3))))
    def test_composition_law(self, sigma):
        batch = drawn(3, 4, 1, 11)
        for pi in Permutation.all(3):
            pi_sigma = compose(pi, Permutation(sigma)).mapping
            assert one(batch.permute_slots(sigma).permute_slots(pi.mapping)) \
                == one(batch.permute_slots(pi_sigma))

    def test_agrees_with_permutation_unitary(self):
        # spin-only terms: exponent 0 everywhere, so a wavefunction is a
        # vector over the d^N spin configurations, slot 1 most significant
        n, two_s = 3, 1
        d = two_s + 1
        system = ParticleSystem(n, d)
        configs = list(itertools.product(range(d), repeat=n))
        rng = np.random.default_rng(3)
        weights = rng.integers(-5, 6, size=len(configs))
        batch = pack([SpinorWavefunction(n, two_s, {
            tuple((m, 0) for m in config): qc(int(w))
            for config, w in zip(configs, weights)})])

        def vector(wf):
            return np.array([float(wf.terms.get(tuple((m, 0) for m in c),
                                                qc(0))[0])
                             for c in configs])

        for mapping in itertools.permutations(range(1, n + 1)):
            u = permutation_unitary(Permutation(mapping), system).entries
            assert np.array_equal(vector(one(batch.permute_slots(mapping))),
                                  (u @ vector(one(batch))).real)


def same_terms(x, y):
    """Whether two batches hold the same terms in the same order: the same
    rows and coefficients, column for column."""
    return (x.n_owners, x.n_particles) == (y.n_owners, y.n_particles) \
        and np.array_equal(x.rows, y.rows) \
        and np.array_equal(x.coeffs, y.coeffs)


def same_batch(x, y):
    """same_terms, and the same coefficient dtype."""
    return same_terms(x, y) and x.coeffs.dtype == y.coeffs.dtype


class TestSlotLocalPass:
    """ccr_residuals and lift against the full-row kernel."""

    @staticmethod
    def sampled(n, two_s, degree, count, seed):
        """Drawn wavefunctions, then the first 3 under the N-cycle, as
        certify_C's batch carries them (not merged into key order)."""
        batch = draw_wavefunctions(n, degree, two_s, count, seed)
        cycle = tuple(range(2, n + 1)) + (1,)
        return stack([batch, batch.head(3).permute_slots(cycle)])

    @staticmethod
    def colliding():
        """Terms x and x + 2 e_a, and x and x + 2 e_b, in one wavefunction
        (two pairs with equal coefficients), and a spin-1 wavefunction with
        repeated slots."""
        first = SpinorWavefunction(3, 2, {
            ((0, 1), (1, 2), (2, 0)): (3, 1),
            ((0, 3), (1, 2), (2, 0)): (3, 1),
            ((0, 1), (1, 4), (2, 0)): (-2, 5),
            ((0, 1), (1, 2), (2, 2)): (-2, 5),
            ((0, 5), (1, 2), (2, 0)): (7, 0)})
        second = SpinorWavefunction(3, 2, {
            ((1, 0), (1, 0), (1, 0)): (1, 0),
            ((1, 2), (1, 0), (1, 2)): (0, -4),
            ((1, 2), (1, 2), (1, 0)): (6, 6)})
        return stack([pack([first, second]), pack([second])])

    @staticmethod
    def images(batch, pairs, per_pass):
        """Each pair's image from the slot-local passes, merged: -i psi
        plus the residual on the diagonal, the residual off it."""
        target, out = batch.mul_minus_i(), []
        for start in range(0, len(pairs), per_pass):
            chunk = pairs[start:start + per_pass]
            for (a, b), residual in zip(chunk, batch.ccr_residuals(chunk)):
                out.append(target.plus(residual) if a == b else residual)
        return out

    def assert_images_match(self, batch):
        n = batch.n_particles
        slots = range(1, n + 1)
        for diagonal in (True, False):
            pairs = [(a, b) for a in slots for b in slots
                     if (a == b) == diagonal]
            for per_pass in (1, 2, len(pairs)):
                for (a, b), image in zip(pairs,
                                         self.images(batch, pairs, per_pass)):
                    assert same_terms(image, batch.commutator_PQ(a, b)), \
                        (a, b, per_pass)

    @pytest.mark.parametrize("n,two_s,degree,count", [
        (2, 0, 8, 20), (2, 1, 6, 20), (3, 0, 8, 20), (3, 3, 8, 20),
        (4, 1, 4, 10), (4, 2, 6, 20),
        # the multi-word key layout, as in CI's N=8 2s=63 run
        (8, 63, 4, 20)])
    def test_images_equal_the_full_kernel(self, n, two_s, degree, count):
        batch = self.sampled(n, two_s, degree, count, seed=n + two_s)
        self.assert_images_match(batch)
        slots = range(1, n + 1)
        for diagonal in (True, False):
            pairs = [(a, b) for a in slots for b in slots
                     if (a == b) == diagonal]
            assert all(r.is_zero() for r in batch.ccr_residuals(pairs))

    @pytest.mark.parametrize("huge", [False, True])
    def test_empty_residuals_are_the_full_kernels(self, huge):
        # no term to lift: each pair gets the full-row residual, empty,
        # with the batch's owners and the coefficient dtype
        batch = self.sampled(3, 1, 6, 10, seed=2)
        if huge:
            batch = batch._with(batch.rows, batch.coeffs.astype(object) << 70)
        target = batch.mul_minus_i()
        for pairs in ([(1, 1), (3, 3)], [(1, 2), (3, 1)]):
            for (a, b), residual in zip(pairs, batch.ccr_residuals(pairs)):
                full = batch.commutator_PQ(a, b)
                if a == b:
                    full = full.minus(target)
                assert residual.is_zero() and same_batch(residual, full)
                assert residual.rows.dtype == full.rows.dtype

    @staticmethod
    def skewed(monkeypatch):
        """The one P (``_momentum``) with its raised terms times e + 1 and
        its lowered terms times 2: the residual of [P_a, Q_a] on x is
        i x + 2 e_a - i x, which meets that of x + 2 e_a on x + 2 e_a."""
        momentum = schwartz._momentum

        def wrong(rows, coeffs, row, slot):
            out_rows, out = momentum(rows, coeffs, row, slot)
            n = rows.shape[1]
            out[:, :n] *= rows[row] + 1
            out[:, n:] *= 2
            return out_rows, out

        monkeypatch.setattr(schwartz, "_momentum", wrong)

    def test_colliding_residuals_are_lifted_and_merged(self, monkeypatch):
        self.skewed(monkeypatch)
        batch = self.colliding()
        target = batch.mul_minus_i()
        pairs = [(1, 1), (2, 2), (3, 3)]
        residuals = batch.ccr_residuals(pairs)
        for (a, b), residual in zip(pairs, residuals):
            full = batch.commutator_PQ(a, b).minus(target)
            assert not residual.is_zero()
            assert same_terms(residual, full)
            assert same_terms(residual,
                              commutator_by_merge(batch, a, b).minus(target))
        # x + 2 e_1 cancels: the residuals of x and x + 2 e_1 meet there
        # with opposite coefficients, and the lifted merge drops the term
        first = residuals[0].unpack()[0].terms
        assert ((0, 3), (1, 2), (2, 0)) not in first
        self.assert_images_match(batch)

    @classmethod
    def kinds(cls):
        """Batches of every kind the pass meets, by name."""
        drawn = draw_wavefunctions(3, 6, 2, 12, seed=9)
        n = drawn.rows.shape[1]
        again = np.r_[np.arange(n), 0:7]  # the first 7 terms repeated
        rows = drawn.rows.copy()
        rows[2::2, ::3] = DEGREE_CAP - 2  # the products reach DEGREE_CAP
        return {
            "drawn": drawn,
            "colliding": cls.colliding(),
            "unmerged": drawn._with(drawn.rows.take(again, axis=1),
                                    drawn.coeffs.take(again, axis=1)),
            "object": drawn._with(drawn.rows,
                                  drawn.coeffs.astype(object) << 70),
            "at_cap": drawn._with(rows, drawn.coeffs)}

    @pytest.mark.parametrize("kind", ["drawn", "colliding", "unmerged",
                                      "object", "at_cap"])
    def test_pass_equals_the_full_row_kernel_and_the_merge(self, kind):
        batch = self.kinds()[kind]
        target = batch.mul_minus_i()
        slots = range(1, batch.n_particles + 1)
        for diagonal in (True, False):
            pairs = [(a, b) for a in slots for b in slots
                     if (a == b) == diagonal]
            for (a, b), residual in zip(pairs, batch.ccr_residuals(pairs)):
                full = batch.commutator_PQ(a, b)
                merge = commutator_by_merge(batch, a, b)
                if a == b:
                    full, merge = full.minus(target), merge.minus(target)
                assert same_batch(residual, full), (a, b)
                assert same_terms(residual, merge), (a, b)
                assert residual.is_zero()

    def test_lift_inverts_the_view(self):
        # any slot-local product on the view, lifted, is the full one
        momentum, position = schwartz._momentum, schwartz._position
        for batch in (self.colliding(), self.sampled(4, 2, 6, 5, 1)):
            n = batch.n_particles
            pairs = [(a, b) for a in range(1, n + 1)
                     for b in range(1, n + 1) if a != b]
            rows, coeffs = batch.slot_view(pairs)
            assert rows.shape == (3, len(pairs) * batch.rows.shape[1])
            rows, coeffs = momentum(rows, coeffs, 1, 1)
            rows, coeffs = momentum(position(rows, 2, 2), coeffs, 2, 2)
            lifted = batch.lift(rows, coeffs, pairs)
            o = batch.n_owners
            for k, (a, b) in enumerate(pairs):
                assert same_terms(lifted.owners(k * o, (k + 1) * o),
                                  batch.p(a).q(b).p(b).merged())
            one = pairs[-1:]
            assert same_terms(batch.lift(*batch.slot_view(one), one),
                              batch.merged())
            with pytest.raises(ShapeError):
                batch.lift(rows, coeffs, one)

    def test_slot_view_rejects_mixed_or_bad_pairs(self):
        batch = self.colliding()
        with pytest.raises(ShapeError):
            batch.slot_view([(1, 1), (1, 2)])
        with pytest.raises(ShapeError):
            batch.slot_view([])
        with pytest.raises(IndexRangeError):
            batch.slot_view([(1, 4)])
        with pytest.raises(IndexRangeError):
            batch.slot_view([(0, 0)])


class TestJoined:
    """plus and minus, against the sort-merge of both batches' columns."""

    @staticmethod
    def by_sort(x, y, sign):
        """x + sign * y: every column of both, merged by the sort."""
        return x._with(np.concatenate([x.rows, y.rows], axis=1),
                       np.concatenate([_exact(x.coeffs),
                                       sign * _exact(y.coeffs)], axis=1)
                       ).merged()

    def assert_joined(self, x, y):
        for sign, joined in ((1, x.plus(y)), (-1, x.minus(y))):
            want = self.by_sort(x, y, sign)
            assert same_terms(joined, want), sign
            assert joined.coeffs.dtype == want.coeffs.dtype, sign

    @staticmethod
    def batch():
        return draw_wavefunctions(3, 6, 1, 10, seed=4)

    @staticmethod
    def recoefficient(x, coeffs):
        return x._with(x.rows.copy(), np.asarray(coeffs))

    def test_aligned_rows(self):
        x = self.batch()
        rng = np.random.default_rng(0)
        y = self.recoefficient(x, rng.integers(-5, 6, x.coeffs.shape))
        self.assert_joined(x, y)
        assert not x.minus(y).is_zero()

    def test_some_and_all_columns_cancel(self):
        x = self.batch()
        coeffs = x.coeffs * 2
        coeffs[:, ::3] = x.coeffs[:, ::3]  # these cancel in x - y
        y = self.recoefficient(x, coeffs)
        self.assert_joined(x, y)
        left = x.minus(y)
        assert 0 < left.rows.shape[1] < x.rows.shape[1]
        self.assert_joined(x, x)
        assert x.minus(x).is_zero()
        negated = self.recoefficient(x, -x.coeffs)
        self.assert_joined(x, negated)
        assert x.plus(negated).is_zero()

    def test_unmerged_input_repeats_a_term(self):
        x = self.batch()
        twice = x._with(np.concatenate([x.rows, x.rows[:, :7]], axis=1),
                        np.concatenate([x.coeffs, x.coeffs[:, :7]], axis=1))
        # in twice - y the two columns of a repeated term c are 2c and
        # -2c, which cancel only in the merge
        coeffs = twice.coeffs.copy()
        coeffs[:, :7] *= -1
        coeffs[:, x.rows.shape[1]:] *= 3
        y = self.recoefficient(twice, coeffs)
        self.assert_joined(twice, y)
        self.assert_joined(twice, twice)
        self.assert_joined(twice, self.recoefficient(twice, -twice.coeffs))

    @pytest.mark.parametrize("huge", ["object", "int64"])
    def test_coefficients_above_the_int64_bound(self, huge):
        x = self.batch()
        if huge == "object":
            big = x._with(x.rows, x.coeffs.astype(object) * 2 ** 70)
        else:  # int64 parts past _INT64_SAFE, which _exact widens
            big = x._with(x.rows, x.coeffs * 0 + (_INT64_SAFE + 1))
        assert big.plus(x).coeffs.dtype == object
        self.assert_joined(big, x)
        self.assert_joined(x, big)
        self.assert_joined(big, big)

    def test_zero_column_batches(self):
        x = self.batch()
        empty = x._with(x.rows[:, :0], x.coeffs[:, :0])  # x's owners, no term
        self.assert_joined(empty, empty)
        assert empty.minus(empty).is_zero()
        self.assert_joined(x, empty)
        self.assert_joined(empty, x)

    def test_rows_not_aligned(self):
        x = self.batch()
        turned = x._with(x.rows[:, ::-1].copy(), x.coeffs[:, ::-1].copy())
        self.assert_joined(x, turned)
        assert x.minus(turned).is_zero()
        self.assert_joined(x, x._with(x.rows[:, 1:], x.coeffs[:, 1:]))
        self.assert_joined(x, x.q(1))

    def test_off_diagonal_commutator_merges_no_column(self, monkeypatch):
        sizes = []
        merged = TermBatch.merged

        def recording(self):
            sizes.append(self.rows.shape[1])
            return merged(self)

        monkeypatch.setattr(TermBatch, "merged", recording)
        batch = draw_wavefunctions(3, 6, 2, 20, seed=7)
        for a, b in ((1, 2), (3, 1)):
            sizes.clear()
            assert batch.commutator_PQ(a, b).is_zero()
            # P_a Q_b psi and Q_b P_a psi hold about 4T columns between
            # them, and the positional sum leaves none to sort
            assert sizes == [0]


def count_lexsorts(monkeypatch) -> list:
    """Every np.lexsort call that schwartz makes, recorded in the list
    returned: schwartz's numpy, and only its, is wrapped."""
    calls = []

    class Numpy(types.ModuleType):
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def lexsort(keys, *args, **kwargs):
            calls.append(len(keys[0]))
            return np.lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(schwartz, "np", Numpy("numpy"))
    return calls


class TestMerged:
    """merged against the plain-Python merge, on every kind of key."""

    @staticmethod
    def batch(n=3, two_s=1):
        return draw_wavefunctions(n, 6, two_s, 10, seed=5)

    @staticmethod
    def columns(x, order):
        return x._with(x.rows.take(order, axis=1),
                       x.coeffs.take(order, axis=1))

    def assert_merged(self, x):
        assert same_batch(x.merged(), merged_by_dict(x))

    def test_strictly_increasing_key_is_not_sorted(self, monkeypatch):
        x = self.batch()  # merged by the draw: its key strictly increases
        coeffs = x.coeffs.copy()
        coeffs[:, ::4] = 0  # dropped with no sort
        for y in (x, x._with(x.rows, coeffs),
                  x._with(x.rows, x.coeffs.astype(object) * 2 ** 70)):
            sorts = count_lexsorts(monkeypatch)
            self.assert_merged(y)
            assert sorts == []
        assert x.merged().rows.shape[1] == x.rows.shape[1]

    def test_repeated_and_unsorted_keys_are_sorted(self, monkeypatch):
        x = self.batch()
        n = x.rows.shape[1]
        repeated = self.columns(x, np.repeat(np.arange(n), 2))
        cancelling = x._with(repeated.rows, repeated.coeffs.copy())
        cancelling.coeffs[:, 1::2] *= -1  # every term cancels
        unsorted = self.columns(x, np.random.default_rng(1).permutation(n))
        for y in (repeated, cancelling, unsorted):
            sorts = count_lexsorts(monkeypatch)
            self.assert_merged(y)
            assert sorts == [y.rows.shape[1]]
        assert cancelling.merged().is_zero()

    def test_multi_word_keys(self):
        # 8 slots at 2s = 63: the key takes two int64 words
        x = self.batch(8, 63)
        assert len(schwartz._key_layout(x.n_owners, 8, 63)) > 1
        n = x.rows.shape[1]
        for order in (np.arange(n), np.arange(n)[::-1],
                      np.repeat(np.arange(n), 2)):
            self.assert_merged(self.columns(x, order))

    def test_zero_columns(self):
        x = self.batch()
        self.assert_merged(x._with(x.rows[:, :0], x.coeffs[:, :0]))


class TestDiagonalCommutator:
    """commutator_PQ against the concatenate-and-merge formula."""

    def assert_oracle(self, batch, pairs=None):
        n = batch.n_particles
        slots = range(1, n + 1)
        for a, b in pairs or [(a, b) for a in slots for b in slots]:
            assert same_batch(batch.commutator_PQ(a, b),
                              commutator_by_merge(batch, a, b)), (a, b)

    @pytest.mark.parametrize("n,two_s", [(1, 0), (2, 1), (3, 3), (8, 63)])
    def test_drawn_batches(self, n, two_s):
        batch = draw_wavefunctions(n, 6, two_s, 12, seed=n)
        # columns with e_a = 0 are in Q_a P_a psi's gap
        assert (batch.rows[2::2] == 0).any(axis=1).all()
        self.assert_oracle(batch)

    def test_unmerged_input_repeats_a_term(self):
        x = draw_wavefunctions(3, 6, 1, 10, seed=4)
        for order in (np.r_[np.arange(x.rows.shape[1]), 0:7],
                      np.arange(x.rows.shape[1])[::-1]):
            self.assert_oracle(x._with(x.rows.take(order, axis=1),
                                       x.coeffs.take(order, axis=1)))

    @pytest.mark.parametrize("huge", ["object", "int64"])
    def test_coefficients_above_the_int64_bound(self, huge):
        x = draw_wavefunctions(2, 6, 1, 10, seed=4)
        if huge == "object":
            big = x._with(x.rows, x.coeffs.astype(object) * 2 ** 70)
        else:  # int64 parts past _INT64_SAFE, which _exact widens
            big = x._with(x.rows, x.coeffs * 0 + (_INT64_SAFE + 1))
        assert big.commutator_PQ(1, 1).coeffs.dtype == object
        self.assert_oracle(big)

    def test_zero_column_batch(self):
        x = draw_wavefunctions(2, 6, 1, 10, seed=4)
        empty = x._with(x.rows[:, :0], x.coeffs[:, :0])
        self.assert_oracle(empty)
        assert empty.commutator_PQ(1, 1).n_owners == x.n_owners

    def test_exponents_at_the_degree_cap(self):
        x = draw_wavefunctions(2, 6, 1, 10, seed=4)
        rows = x.rows.copy()
        rows[2, ::3] = DEGREE_CAP - 2  # the products reach DEGREE_CAP
        at_cap = x._with(rows, x.coeffs)
        self.assert_oracle(at_cap, [(1, 1), (2, 1), (1, 2)])
        assert at_cap.commutator_PQ(1, 1).rows[2].max() == DEGREE_CAP - 2
        rows = rows.copy()
        rows[2, 0] = DEGREE_CAP - 1
        with pytest.raises(DegreeCapError):
            x._with(rows, x.coeffs).commutator_PQ(1, 1)

    @pytest.mark.parametrize("lowered", ["dropped", "doubled"])
    def test_products_that_do_not_line_up(self, monkeypatch, lowered):
        # a wrong P (the one ``_momentum``) whose products are not placed
        # as the true P's on the diagonal: the pass and commutator_PQ fall
        # back to merging every column, and give the exact residual
        momentum = schwartz._momentum

        def wrong(rows, coeffs, row, slot):
            out_rows, out = momentum(rows, coeffs, row, slot)
            n = rows.shape[1]
            if lowered == "dropped":
                return out_rows[:, :n], out[:, :n]
            return (np.concatenate([out_rows, out_rows[:, n:]], 1),
                    np.concatenate([out, out[:, n:]], 1))

        monkeypatch.setattr(schwartz, "_momentum", wrong)
        x = draw_wavefunctions(3, 6, 1, 10, seed=4)
        self.assert_oracle(x)
        target = x.mul_minus_i()
        assert not x.commutator_PQ(1, 1).minus(target).is_zero()
        for pairs in ([(1, 1), (2, 2), (3, 3)], [(1, 2), (3, 1)]):
            for (a, b), residual in zip(pairs, x.ccr_residuals(pairs)):
                want = commutator_by_merge(x, a, b)
                if a == b:
                    want = want.minus(target)
                assert same_terms(residual, want), (a, b)
                assert residual.is_zero() == (a != b)

    def test_products_of_a_wrong_Q_do_not_line_up(self, monkeypatch):
        # a Q (the one ``_position``) that raises the first column only:
        # the two products carry different exponents of slot b, off the
        # diagonal too, and a pass of one pair, whose view lists the
        # terms in the batch's order, gives the exact residual
        def wrong(rows, row, slot):
            rows = rows.copy()
            rows[row, :1] += 1
            return rows

        monkeypatch.setattr(schwartz, "_position", wrong)
        x = draw_wavefunctions(3, 6, 1, 10, seed=4)
        target = x.mul_minus_i()
        broken = []
        for a in range(1, 4):
            for b in range(1, 4):
                [residual] = x.ccr_residuals([(a, b)])
                want = commutator_by_merge(x, a, b)
                if a == b:
                    want = want.minus(target)
                assert same_terms(residual, want), (a, b)
                broken.append(not want.is_zero())
        assert all(broken[::4]) and any(broken)

    def test_cap_message_is_unchanged(self):
        # an exponent at DEGREE_CAP - 1 on the diagonal: [P_a, Q_a]'s
        # P_a Q_a reaches past the cap.  The full-row form names the
        # slot, the pass its view's slot 1, as they did
        x = draw_wavefunctions(2, 6, 1, 10, seed=4)
        rows = x.rows.copy()
        rows[4, 0] = DEGREE_CAP - 1
        x = x._with(rows, x.coeffs)
        with pytest.raises(DegreeCapError, match=(
                f"^exponent of slot 2 exceeds cap {DEGREE_CAP}$")):
            x.commutator_PQ(2, 2)
        with pytest.raises(DegreeCapError, match=(
                f"^exponent of slot 1 exceeds cap {DEGREE_CAP}$")):
            x.ccr_residuals([(2, 2)])
        # off the diagonal P_a Q_b raises e_b to DEGREE_CAP, within the cap
        assert x.commutator_PQ(1, 2).is_zero()
        assert x.ccr_residuals([(1, 2)])[0].is_zero()

    def test_diagonal_sorts_nothing(self, monkeypatch):
        x = draw_wavefunctions(3, 6, 1, 10, seed=4)
        sorts = count_lexsorts(monkeypatch)
        image = x.commutator_PQ(2, 2)
        assert sorts == []
        assert same_batch(image, x.mul_minus_i())


def test_certified_C_cell_sorts_only_its_draw(monkeypatch):
    # the draw's merge is the one sort: every pass of a certified cell,
    # and both monomial proofs, subtract by position
    sorts = count_lexsorts(monkeypatch)
    report = certify_C(3, 1, 200, 8, 3)
    assert report.verdict == "weakly_discerning"
    assert len(sorts) == 1
