import math

import numpy as np
import pytest

from discernlab.errors import (
    DimensionCapError,
    EmptySectorError,
    IndexRangeError,
    RankError,
)
from discernlab.multiparticle import (
    ParticleSystem,
    Permutation,
    SlotOperator,
    fold,
    sample_states,
    sector_dimension,
    unfold,
)
from discernlab.spin import SpinLabel, pair_operator
from oracles import (
    all_permutations,
    commutator,
    compose,
    embed_at_slot,
    permutation_unitary,
    product_amplitudes,
    random_mixed_state,
    random_pure_state,
    sector_basis,
    sign,
    slot_apply,
    symmetrizer,
)

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_sign_of_transposition(self):
        assert sign(Permutation((2, 1))) == -1
        assert sign(Permutation((1, 2, 3))) == 1
        assert sign(Permutation((2, 3, 1))) == 1
        assert sign(Permutation((2, 1, 3))) == -1

    def test_inverse(self):
        pi = Permutation((3, 1, 2))
        assert compose(pi, pi.inverse()).mapping == (1, 2, 3)
        assert compose(pi.inverse(), pi).mapping == (1, 2, 3)

    def test_generators_are_swap_and_cycle(self):
        assert [g.mapping for g in Permutation.generators(4)] == \
            [(2, 1, 3, 4), (2, 3, 4, 1)]
        assert [g.mapping for g in Permutation.generators(2)] == [(2, 1)]
        assert Permutation.generators(1) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_generators_close_to_s_n(self, n):
        gens = Permutation.generators(n)
        group = {Permutation(tuple(range(1, n + 1)))}
        frontier = list(group)
        while frontier:
            frontier = [compose(g, p) for p in frontier for g in gens]
            frontier = [p for p in frontier if p not in group]
            group.update(frontier)
        assert len(group) == math.factorial(n)


class TestEmbed:
    def test_slot_one_is_left_factor(self):
        system = ParticleSystem(2, 2)
        got = embed_at_slot(SIGMA_Z, 1, system)
        assert np.array_equal(got, np.kron(SIGMA_Z, np.eye(2)))

    def test_disjoint_slots_commute(self):
        system = ParticleSystem(2, 2)
        a = embed_at_slot(random_hermitian(2, 1), 1, system)
        b = embed_at_slot(random_hermitian(2, 2), 2, system)
        assert np.abs(commutator(a, b)).max() < 1e-14

    def test_identity_embeds_to_identity(self):
        system = ParticleSystem(3, 2)
        for slot in (1, 2, 3):
            got = embed_at_slot(np.eye(2), slot, system)
            assert np.array_equal(got, np.eye(8))

    def test_slot_out_of_range(self):
        # the certifier places a block on slots by pair_operator
        with pytest.raises(IndexRangeError):
            pair_operator(SpinLabel(1), 3, 1, ParticleSystem(2, 2))


class TestPermutationUnitary:
    def test_identity_permutation(self):
        system = ParticleSystem(2, 3)
        got = permutation_unitary(Permutation((1, 2)), system)
        assert np.array_equal(got, np.eye(9))

    def test_swap_on_product_vector(self):
        system = ParticleSystem(2, 2)
        u = permutation_unitary(Permutation((2, 1)), system)
        phi = np.array([1, 2], dtype=complex)
        chi = np.array([3, 5], dtype=complex)
        assert np.array_equal(u @ np.kron(phi, chi), np.kron(chi, phi))

    def test_composition_law_s3_exhaustive(self):
        system = ParticleSystem(3, 2)
        perms = list(all_permutations(3))
        mats = {p.mapping: permutation_unitary(p, system) for p in perms}
        for pi in perms:
            for sigma in perms:
                prod = mats[pi.mapping] @ mats[sigma.mapping]
                assert np.array_equal(prod, mats[compose(pi, sigma).mapping])

    def test_unitary(self):
        system = ParticleSystem(3, 3)
        for pi in all_permutations(3):
            u = permutation_unitary(pi, system)
            assert np.array_equal(u @ u.conj().T, np.eye(27))

    def test_conjugation_moves_slots(self):
        # U_pi embed(A, j) U_pi^dagger = embed(A, pi(j))
        system = ParticleSystem(3, 2)
        a = random_hermitian(2, 9)
        for pi in all_permutations(3):
            u = permutation_unitary(pi, system)
            for j in (1, 2, 3):
                lhs = u @ embed_at_slot(a, j, system) @ u.conj().T
                rhs = embed_at_slot(a, pi(j), system)
                assert np.abs(lhs - rhs).max() < 1e-12


class TestSymmetrizer:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4)])
    @pytest.mark.parametrize("parity", ["+", "-"])
    def test_projector_properties(self, n, d, parity):
        p = symmetrizer(ParticleSystem(n, d), parity)
        assert np.abs(p @ p - p).max() <= 1e-10
        assert np.abs(p - p.conj().T).max() <= 1e-10

    def test_two_particle_closed_form(self):
        system = ParticleSystem(2, 3)
        swap = permutation_unitary(Permutation((2, 1)), system)
        assert np.allclose(symmetrizer(system, "+"), (np.eye(9) + swap) / 2)
        assert np.allclose(symmetrizer(system, "-"), (np.eye(9) - swap) / 2)

    def test_plus_minus_complete_only_for_two(self):
        for d in (2, 3):
            sys2 = ParticleSystem(2, d)
            total = symmetrizer(sys2, "+") + symmetrizer(sys2, "-")
            assert np.abs(total - np.eye(d * d)).max() <= 1e-12
        sys3 = ParticleSystem(3, 2)
        total = symmetrizer(sys3, "+") + symmetrizer(sys3, "-")
        assert np.abs(total - np.eye(8)).max() > 0.1

    def test_fermi_rank_vanishes_when_overfilled(self):
        # C(2, 3) = 0: three fermions cannot fit in two levels
        assert sector_dimension(ParticleSystem(3, 2), "-") == 0

    def test_commutes_with_symmetric_sums(self):
        for n, d in [(2, 2), (3, 2), (3, 3)]:
            system = ParticleSystem(n, d)
            a = random_hermitian(d, 100 + n * d)
            total = sum(embed_at_slot(a, j, system) for j in range(1, n + 1))
            for parity in ("+", "-"):
                proj = symmetrizer(system, parity)
                assert np.abs(commutator(proj, total)).max() <= 1e-12


class TestSectorDimension:
    @pytest.mark.parametrize("n,d,parity,expected", [
        (2, 2, "-", 1), (2, 2, "+", 3), (3, 3, "-", 1),
        (2, 3, "+", 6), (3, 2, "+", 4), (4, 4, "-", 1),
    ])
    def test_matches_binomials(self, n, d, parity, expected):
        got = sector_dimension(ParticleSystem(n, d), parity)
        assert got == expected
        # the trace of the N!-term symmetrizer is the oracle
        proj = symmetrizer(ParticleSystem(n, d), parity)
        assert got == round(np.trace(proj).real)
        sector = "bose" if parity == "+" else "fermi"
        assert sector_dimension(ParticleSystem(n, d, sector)) == expected


class TestRandomStates:
    def test_fermi_pair_is_singlet_ray(self):
        psi = random_pure_state(ParticleSystem(2, 2, "fermi"), seed=42)
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        overlap = abs(singlet.conj() @ psi)
        assert abs(overlap - 1.0) < 1e-12

    def test_unit_norm_and_determinism(self):
        system = ParticleSystem(3, 2, "bose")
        a = random_pure_state(system, seed=7)
        b = random_pure_state(system, seed=7)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_state_lies_in_sector(self):
        system = ParticleSystem(3, 3, "fermi")
        psi = random_pure_state(system, seed=5)
        proj = symmetrizer(system, "-")
        assert np.linalg.norm(proj @ psi - psi) <= 1e-10

    def test_empty_sector_raises(self):
        with pytest.raises(EmptySectorError):
            random_pure_state(ParticleSystem(3, 2, "fermi"), seed=1)

    def test_mixed_rank_one_is_projector(self):
        w = random_mixed_state(ParticleSystem(2, 2), rank=1, seed=3)
        assert np.abs(w @ w - w).max() < 1e-10

    def test_mixed_state_invariants(self):
        w = random_mixed_state(ParticleSystem(2, 3, "bose"), rank=3, seed=9)
        assert abs(np.trace(w).real - 1.0) < 1e-10
        assert np.abs(w - w.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(w).min() >= -1e-12

    def test_mixed_rank_error(self):
        with pytest.raises(RankError):
            random_mixed_state(ParticleSystem(2, 2, "fermi"), rank=2, seed=1)

    def test_mixed_draws_weights_then_components_from_one_stream(self):
        system = ParticleSystem(2, 3, "bose")
        w = random_mixed_state(system, 2, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        weights = rng.random(2) + 1e-6
        weights /= weights.sum()
        psis = [random_pure_state(system, rng) for _ in range(2)]
        want = sum(wk * np.outer(p, p.conj()) for wk, p in zip(weights, psis))
        assert np.abs(w - want).max() <= 1e-15


SECTOR_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
                 (4, 4)]


class TestSectorBasis:
    @staticmethod
    def matrix(system):
        support, column, coef = sector_basis(system)
        basis = np.zeros((system.total_dim, sector_dimension(system)))
        basis[support, column] = coef
        return basis

    @pytest.mark.parametrize("n,d", SECTOR_SHAPES)
    @pytest.mark.parametrize("sector,parity", [("bose", "+"), ("fermi", "-")])
    def test_orthonormal_basis_of_the_symmetrizer_range(self, n, d, sector,
                                                        parity):
        system = ParticleSystem(n, d, sector)
        support, column, _ = sector_basis(system)
        sdim = sector_dimension(system)
        # every column is used: the basis has sector_dimension vectors
        assert sorted(set(column.tolist())) == list(range(sdim))
        assert len(set(support.tolist())) == len(support)
        basis = self.matrix(system)
        assert np.abs(basis.T @ basis - np.eye(sdim)).max(initial=0) <= 1e-12
        # its span is the range of the N!-term symmetrizer
        proj = symmetrizer(ParticleSystem(n, d), parity)
        assert np.abs(basis @ basis.T - proj).max() <= 1e-12

    def test_fermi_pair_basis_is_the_singlet(self):
        basis = self.matrix(ParticleSystem(2, 2, "fermi"))
        assert np.allclose(basis[:, 0], [0, 1, -1, 0] / np.sqrt(2))

    @pytest.mark.parametrize("n,d,sector", [
        (n, d, sector) for n, d in SECTOR_SHAPES for sector in ("bose", "fermi")
        if sector == "bose" or d >= n])
    def test_draws_are_symmetric_under_both_generators(self, n, d, sector):
        system = ParticleSystem(n, d, sector)
        pure = sample_states(system, 4, 7)
        mixed = sample_states(system, 3, 8, rank=min(2, sector_dimension(system)))
        for batch in (pure, mixed):
            states = product_amplitudes(system, batch.flat).reshape(
                -1, system.total_dim)
            for g in Permutation.generators(n):
                u = permutation_unitary(g, ParticleSystem(n, d))
                parity = sign(g) if sector == "fermi" else 1
                moved = states @ u.T  # U_pi psi for each row psi
                assert np.abs(moved - parity * states).max() <= 1e-12


class TestSampler:
    def test_full_sector_batch_equals_sequential_draws(self):
        system = ParticleSystem(3, 3)
        batch = sample_states(system, 5, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for row in batch.flat[:, 0]:
            v = rng.standard_normal(27) + 1j * rng.standard_normal(27)
            assert np.abs(row - v / np.linalg.norm(v)).max() <= 1e-15

    def test_mixed_batch_draws_weights_then_components(self):
        system = ParticleSystem(2, 2)
        batch = sample_states(system, 3, np.random.default_rng(5), rank=2)
        rng = np.random.default_rng(5)
        # all weights first, then all components, mixture by mixture
        for w in batch.weights:
            weights = rng.random(2) + 1e-6
            assert np.array_equal(w, weights / weights.sum())
        for f in batch.flat:
            for row in f:
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                assert np.abs(row - v / np.linalg.norm(v)).max() <= 1e-15

    @pytest.mark.parametrize("sector,d", [("full", 3), ("bose", 3),
                                          ("fermi", 4)])
    @pytest.mark.parametrize("rank", [None, 1, 2])
    def test_draws_keep_their_bits(self, sector, d, rank):
        # the draw before the real and imaginary parts were written in
        # place: normals[:, :, 1] * 1j + normals[:, :, 0], normalized
        system = ParticleSystem(3, d, sector)
        batch = sample_states(system, 6, np.random.default_rng(11), rank)
        rng = np.random.default_rng(11)
        if rank is None:
            weights = np.ones((6, 1))
        else:
            weights = rng.random((6, rank)) + 1e-6
            weights /= weights.sum(axis=1, keepdims=True)
        normals = rng.standard_normal(
            weights.shape + (2, sector_dimension(system)))
        vectors = normals[:, :, 1] * 1j
        vectors += normals[:, :, 0]
        squares = vectors.view(float)
        vectors /= np.sqrt(np.einsum("mki,mki->mk", squares,
                                     squares))[..., None]
        assert batch.flat.tobytes() == vectors.tobytes()
        assert batch.weights.tobytes() == weights.tobytes()

    def test_split_keeps_order_and_bounds_size(self):
        batch = sample_states(ParticleSystem(3, 2), 10, 0, rank=2)
        pieces = batch.split(40)  # 16 amplitudes per state: 2 per piece
        assert [len(p.weights) for p in pieces] == [2] * 5
        assert np.array_equal(np.concatenate([p.factors for p in pieces]),
                              batch.factors)
        assert len(batch.split(1)) == 10


class TestSlotOperator:
    @pytest.mark.parametrize("slots", [(1,), (3,), (1, 2), (3, 1), (2, 4)])
    def test_apply_equals_dense_embedding(self, slots):
        n, d = 4, 2
        system = ParticleSystem(n, d)
        rng = np.random.default_rng(len(slots) * 10 + slots[0])
        k = len(slots)
        block = rng.standard_normal((d ** k, d ** k)) \
            + 1j * rng.standard_normal((d ** k, d ** k))
        # dense oracle: block (x) 1 moved onto the slots by U_sigma
        rest = tuple(j for j in range(1, n + 1) if j not in slots)
        u = permutation_unitary(Permutation(slots + rest), system)
        want = u @ np.kron(block, np.eye(d ** (n - k))) @ u.conj().T
        states = rng.standard_normal((3,) + (d,) * n) + 0j
        got = slot_apply(SlotOperator(block, slots), states).reshape(3, -1)
        assert np.abs(got - states.reshape(3, -1) @ want.T).max() <= 1e-12

    @pytest.mark.parametrize("slots", [(1,), (3,), (1, 2), (3, 1), (2, 4)])
    def test_image_on_the_unfolding_equals_apply(self, slots):
        n, d, k = 4, 3, len(slots)
        rng = np.random.default_rng(7)
        block = rng.standard_normal((d ** k, d ** k)) + 0j
        states = rng.standard_normal((5,) + (d,) * n) + 0j
        op = SlotOperator(block, slots)
        image = op.image(unfold(states, slots))
        assert image.shape == (5, d ** (n - k), d ** k)
        want = slot_apply(op, states)
        assert np.abs(fold(image, slots, states.shape) - want).max() <= 1e-12
        assert np.array_equal(fold(unfold(states, slots), slots,
                                   states.shape), states)


    def test_unfoldings_on_several_slots_are_stacked(self):
        # tuple p's unfoldings after tuple p-1's, the Gram matrix and
        # trace repeated per tuple
        batch = sample_states(ParticleSystem(4, 3), 3, 2, rank=2)
        for tuples in [((1, 2), (3, 1), (2, 4)), ((1,), (4,))]:
            stacked = batch.unfold(*tuples)
            parts = [batch.unfold(slots) for slots in tuples]
            for name in ("factors", "weights", "gram", "trace"):
                assert np.array_equal(getattr(stacked, name), np.concatenate(
                    [getattr(part, name) for part in parts]))


class TestSectorCoordinates:
    def test_cap_bounds_the_sector_dimension(self):
        # 2^100 product amplitudes, 101 bose coordinates
        assert sector_dimension(ParticleSystem(100, 2, "bose")) == 101
        with pytest.raises(DimensionCapError):
            ParticleSystem(100, 2)
        with pytest.raises(DimensionCapError, match="bose sector dimension"):
            ParticleSystem(30, 4, "bose")  # C(33, 3) = 5456

    @pytest.mark.parametrize("n,d,sector", [(3, 2, "bose"), (4, 3, "bose"),
                                            (3, 4, "fermi")])
    def test_draws_keep_the_stream(self, n, d, sector):
        # the normals of the full-sector draw, as sector coordinates
        system = ParticleSystem(n, d, sector)
        batch = sample_states(system, 5, np.random.default_rng(3))
        sdim = sector_dimension(system)
        assert batch.factors.shape == (5, 1, sdim)
        normals = np.random.default_rng(3).standard_normal((5, 1, 2, sdim))
        v = normals[:, :, 0] + 1j * normals[:, :, 1]
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        assert np.abs(batch.factors - v).max() <= 1e-15

    @pytest.mark.parametrize("n,d,sector", [(3, 2, "bose"), (4, 3, "bose"),
                                            (3, 3, "fermi"), (4, 5, "fermi")])
    def test_unfoldings_are_those_of_the_embedding(self, n, d, sector):
        # rows in the (N-k)-particle basis, embedded, give the unfolding of
        # the embedded state on slots 1..k
        system = ParticleSystem(n, d, sector)
        batch = sample_states(system, 3, 5)
        dense = product_amplitudes(system, batch.vectors).reshape(
            (3,) + (d,) * n)
        for slots in ((1,), (1, 2)):
            rest = ParticleSystem(n - len(slots), d, sector)
            got = product_amplitudes(
                rest, batch.unfold(slots).vectors.swapaxes(1, 2))
            want = unfold(dense, slots).swapaxes(1, 2)
            assert np.abs(got - want).max() <= 1e-15
