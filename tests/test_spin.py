import numpy as np
import pytest

from discernlab.discern import TOL_ABS
from discernlab.errors import DomainError
from discernlab.multiparticle import ParticleSystem
from discernlab.spin import SpinLabel, pair_bands, pair_levels, pair_operator
from oracles import (
    casimir,
    clebsch_gordan,
    clebsch_gordan_matrix,
    commutator,
    embed_at_slot,
    is_scalar_identity,
    pair_total_spin_squared,
    spin_operators,
)

SQRT2 = np.sqrt(2)


def total_sz(label, system):
    """Sum of z-components over all slots."""
    sz = spin_operators(label)[2]
    return sum(embed_at_slot(sz, j, system)
               for j in range(1, system.n_particles + 1))


def coupled_basis(two_s):
    """The Racah columns |s; S, M>, keyed by (2S, 2M)."""
    labels, m = clebsch_gordan_matrix(SpinLabel(two_s))
    return dict(zip(labels, m.T))


class TestSpinOperators:
    def test_half_spin_is_half_pauli(self):
        sx, sy, sz = spin_operators(SpinLabel(1))
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(sz, [[0.5, 0], [0, -0.5]])

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_su2_algebra(self, two_s):
        # oracle: direct matrix multiplication of the commutators
        sx, sy, sz = spin_operators(SpinLabel(two_s))
        assert np.abs(commutator(sx, sy) - 1j * sz).max() < 1e-12
        assert np.abs(commutator(sy, sz) - 1j * sx).max() < 1e-12
        assert np.abs(commutator(sz, sx) - 1j * sy).max() < 1e-12

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_sz_eigenvalues(self, two_s):
        _, _, sz = spin_operators(SpinLabel(two_s))
        s = two_s / 2
        expected = [s - k for k in range(two_s + 1)]
        assert np.allclose(np.diag(sz).real, expected)

    def test_self_adjoint(self):
        for m in spin_operators(SpinLabel(3)):
            assert np.abs(m - m.conj().T).max() <= TOL_ABS


class TestCasimir:
    @pytest.mark.parametrize("two_s,value", [(1, 0.75), (2, 2.0), (3, 3.75)])
    def test_scalar_value(self, two_s, value):
        assert is_scalar_identity(casimir(SpinLabel(two_s)), value, 1e-10)

    def test_spinless_case(self):
        assert np.abs(casimir(SpinLabel(0))).max() == 0

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5])
    def test_commutes_with_components(self, two_s):
        c = casimir(SpinLabel(two_s))
        for w in spin_operators(SpinLabel(two_s)):
            assert np.abs(commutator(c, w)).max() <= 1e-10


class TestPairTotalSpin:
    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_diagonal_is_scalar(self, two_s):
        label = SpinLabel(two_s)
        system = ParticleSystem(2, label.dim)
        k = pair_total_spin_squared(label, 1, 1, system)
        assert is_scalar_identity(k, float(4 * label.casimir_value()), 1e-9)

    def test_half_spin_pair_spectrum(self):
        # frozen from the 4x4 eigendecomposition oracle: {0, 2, 2, 2}
        label = SpinLabel(1)
        k = pair_total_spin_squared(label, 1, 2, ParticleSystem(2, 2))
        assert np.allclose(np.linalg.eigvalsh(k), [0.0, 2.0, 2.0, 2.0])

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5])
    def test_max_eigenvalue_strictly_below_diagonal_value(self, two_s):
        label = SpinLabel(two_s)
        k = pair_total_spin_squared(label, 1, 2, ParticleSystem(2, label.dim))
        top = np.linalg.eigvalsh(k).max()
        assert abs(top - two_s * (two_s + 1)) < 1e-8
        # gap 4s(s+1) - 2s(2s+1) = 2s > 0, exact on the doubled integer
        assert two_s * (two_s + 2) - two_s * (two_s + 1) == two_s
        assert top < float(4 * label.casimir_value())

    def test_commuting_set(self):
        # {S_1^2, S_2^2, (S_1+S_2)^2, total S_z} pairwise commutes
        for two_s in (1, 2, 3):
            label = SpinLabel(two_s)
            system = ParticleSystem(2, label.dim)
            ops = [
                pair_total_spin_squared(label, 1, 1, system),
                pair_total_spin_squared(label, 2, 2, system),
                pair_total_spin_squared(label, 1, 2, system),
                total_sz(label, system),
            ]
            for i in range(len(ops)):
                for j in range(i + 1, len(ops)):
                    assert np.abs(commutator(ops[i], ops[j])).max() <= 1e-10


class TestPairCertificate:
    """The integer bands, the blocks built from them, and their spectra.

    The float eigh of the dense oracle stays here, as a cross-check of
    the integer certificate that certify_T decides on.
    """

    @pytest.mark.parametrize("two_s", range(1, 13))
    def test_levels_match_eigh_of_the_dense_oracle(self, two_s):
        label = SpinLabel(two_s)
        system = ParticleSystem(2, label.dim)
        single, levels = pair_levels(two_s)
        want = np.linalg.eigvalsh(pair_total_spin_squared(label, 1, 2, system))
        assert np.abs(np.repeat(*zip(*levels)) - want).max() <= 1e-8
        assert levels == [(S * (S + 1), 2 * S + 1) for S in range(two_s + 1)]
        assert single == [(two_s * (two_s + 2), label.dim)]
        assert all(type(x) is int for level in single + levels for x in level)

    @pytest.mark.parametrize("two_s", range(1, 13))
    def test_blocks_match_the_dense_oracle(self, two_s):
        label = SpinLabel(two_s)
        one, two = ParticleSystem(1, label.dim), ParticleSystem(2, label.dim)
        for (a, b), system in (((1, 1), one), ((1, 2), two)):
            got = pair_operator(label, a, b, system).block
            want = pair_total_spin_squared(label, a, b, system)
            assert np.abs(got - want).max() <= 1e-12

    def test_band_products_are_the_squared_ladder_entries(self):
        # 4 K_12 on (m1, m2) = (1/2, -1/2) and (-1/2, 1/2) is [[4, 4], [4, 4]]
        single, diagonal, products = pair_bands(1)
        assert single.tolist() == [3, 3]
        assert diagonal.tolist() == [8, 4, 4, 8]
        assert products.tolist() == [0, 16, 0]

    def test_one_block_per_label(self):
        label = SpinLabel(2)
        system = ParticleSystem(3, label.dim)
        blocks = {id(pair_operator(label, a, b, system).block)
                  for a in (1, 2, 3) for b in (1, 2, 3)}
        assert len(blocks) == 2
        assert not pair_operator(label, 1, 2, system).block.flags.writeable

    @pytest.mark.parametrize("band,index", [
        (1, 4),  # a diagonal entry of 4 K_12
        (2, 1),  # a product linking two states of 2M = 2
        (2, 3),  # a product at k = 0 mod d, which links no two states
    ])
    def test_one_wrong_entry_is_refused(self, monkeypatch, band, index):
        import discernlab.spin as spin
        bands = spin.pair_bands

        def wrong(two_s):
            out = bands(two_s)
            out[band][index] += 1
            return out

        monkeypatch.setattr(spin, "pair_bands", wrong)
        single, levels = pair_levels(2)
        assert single == [(8, 3)] and levels is None

    def test_negative_product_is_refused(self, monkeypatch):
        # 4 K_12 on 2M = 0 with diagonal (9, -1) and product -9 has the
        # characteristic polynomial x(x - 8), the right roots, but no
        # real symmetric block has these bands
        import discernlab.spin as spin
        bands = spin.pair_bands

        def indefinite(two_s):
            single, diagonal, products = bands(two_s)
            diagonal[1:3] = 9, -1
            products[1] = -9
            return single, diagonal, products

        monkeypatch.setattr(spin, "pair_bands", indefinite)
        assert pair_levels(1)[1] is None


class TestCoupledBasis:
    """The coupled basis, as the Racah oracle's columns, against the
    certifier's pair block and its integer certificate."""

    def test_singlet_for_half_spin(self):
        expected = np.array([0, 1, -1, 0]) / SQRT2
        assert np.allclose(coupled_basis(1)[0, 0], expected)

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_counting(self, two_s):
        vecs = coupled_basis(two_s)
        assert len(vecs) == (two_s + 1) ** 2
        # 2S + 1 states per S, the multiplicities of pair_levels
        counts = [sum(S == two_S for two_S, _ in vecs)
                  for S in range(0, 2 * two_s + 1, 2)]
        assert counts == [m for _, m in pair_levels(two_s)[1]]

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_simultaneous_eigenvectors(self, two_s):
        label = SpinLabel(two_s)
        k12 = label.pair_blocks[1]
        sz = total_sz(label, ParticleSystem(2, label.dim))
        for (two_S, two_M), vec in coupled_basis(two_s).items():
            S = two_S / 2
            assert np.linalg.norm(k12 @ vec - S * (S + 1) * vec) < 1e-9
            assert np.linalg.norm(sz @ vec - (two_M / 2) * vec) < 1e-9

    def test_orthonormal(self):
        _, mat = clebsch_gordan_matrix(SpinLabel(3))
        assert np.abs(mat.T @ mat - np.eye(16)).max() < 1e-10


class TestClebschGordan:
    def test_half_up_half_down_triplet(self):
        assert np.isclose(clebsch_gordan(SpinLabel(1), 2, 0, 1, -1), 1 / SQRT2)

    def test_top_state_is_product_state(self):
        for two_s in (1, 2, 3):
            got = clebsch_gordan(SpinLabel(two_s), 2 * two_s, 2 * two_s,
                                 two_s, two_s)
            assert np.isclose(got, 1.0)

    def test_selection_rule(self):
        assert clebsch_gordan(SpinLabel(2), 2, 2, 2, -2) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(DomainError):
            clebsch_gordan(SpinLabel(1), 4, 0, 1, -1)
        with pytest.raises(DomainError):
            clebsch_gordan(SpinLabel(1), 2, 0, 3, -3)

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_matches_coupled_basis_oracle(self, two_s):
        # Condon-Shortley phases: each top state M = S is positive at
        # (m1, m2) = (s, S - s), and the total lowering operator takes
        # |S, M> to sqrt(S(S+1) - M(M-1)) |S, M-1>
        label = SpinLabel(two_s)
        system = ParticleSystem(2, label.dim)
        sx, sy, _ = spin_operators(label)
        lowering = sum(embed_at_slot(sx - 1j * sy, j, system) for j in (1, 2))
        vecs = coupled_basis(two_s)
        for (two_S, two_M), vec in vecs.items():
            S, M = two_S / 2, two_M / 2
            if two_M == two_S:
                assert vec[two_s - two_S // 2] > 1e-8
            if two_M > -two_S:
                want = np.sqrt(S * (S + 1) - M * (M - 1)) \
                    * vecs[two_S, two_M - 2]
                assert np.abs(lowering @ vec - want).max() < 1e-8

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_coefficient_matrix_orthogonal(self, two_s):
        _, m = clebsch_gordan_matrix(SpinLabel(two_s))
        assert np.abs(m @ m.T - np.eye(m.shape[0])).max() < 1e-9
