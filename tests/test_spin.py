import numpy as np
import pytest

from discernlab.errors import DomainError
from discernlab.matrix_core import Operator, TOL_ABS, eigenvalue_levels
from discernlab.multiparticle import ParticleSystem
from discernlab.spin import (
    SpinLabel,
    clebsch_gordan,
    clebsch_gordan_matrix,
    coupled_basis,
    pair_bands,
    pair_levels,
    pair_operator,
    pair_total_spin_squared,
    spin_operators,
    total_sz,
)
from oracles import casimir, commutator, is_scalar_identity

SQRT2 = np.sqrt(2)


class TestSpinOperators:
    def test_half_spin_is_half_pauli(self):
        sx, sy, sz = spin_operators(SpinLabel(1))
        assert np.allclose(sx.entries, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy.entries, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(sz.entries, [[0.5, 0], [0, -0.5]])

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_su2_algebra(self, two_s):
        # oracle: direct matrix multiplication of the commutators
        sx, sy, sz = spin_operators(SpinLabel(two_s))
        assert np.abs(commutator(sx, sy).entries - 1j * sz.entries).max() < 1e-12
        assert np.abs(commutator(sy, sz).entries - 1j * sx.entries).max() < 1e-12
        assert np.abs(commutator(sz, sx).entries - 1j * sy.entries).max() < 1e-12

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_sz_eigenvalues(self, two_s):
        _, _, sz = spin_operators(SpinLabel(two_s))
        s = two_s / 2
        expected = [s - k for k in range(two_s + 1)]
        assert np.allclose(np.diag(sz.entries).real, expected)

    def test_self_adjoint(self):
        for op in spin_operators(SpinLabel(3)):
            m = op.entries
            assert np.abs(m - m.conj().T).max() <= TOL_ABS

    def test_hbar_unit_exponent(self):
        sx, _, _ = spin_operators(SpinLabel(1))
        assert sx.hbar_power == 1
        assert casimir(SpinLabel(1)).hbar_power == 2


class TestCasimir:
    @pytest.mark.parametrize("two_s,value", [(1, 0.75), (2, 2.0), (3, 3.75)])
    def test_scalar_value(self, two_s, value):
        assert is_scalar_identity(casimir(SpinLabel(two_s)), value, 1e-10)

    def test_spinless_case(self):
        assert casimir(SpinLabel(0)).max_norm() == 0

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5])
    def test_commutes_with_components(self, two_s):
        c = casimir(SpinLabel(two_s))
        for w in spin_operators(SpinLabel(two_s)):
            assert commutator(c, w).max_norm() <= 1e-10


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
        assert np.allclose(np.linalg.eigvalsh(k.entries), [0.0, 2.0, 2.0, 2.0])

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5])
    def test_max_eigenvalue_strictly_below_diagonal_value(self, two_s):
        label = SpinLabel(two_s)
        k = pair_total_spin_squared(label, 1, 2, ParticleSystem(2, label.dim))
        top = np.linalg.eigvalsh(k.entries).max()
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
                    assert commutator(ops[i], ops[j]).max_norm() <= 1e-10


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
        want = eigenvalue_levels(pair_total_spin_squared(label, 1, 2, system))
        assert [m for _, m in levels] == [m for _, m in want]
        for (lam, _), (lam_e, _) in zip(levels, want):
            assert abs(lam - lam_e) <= 1e-8
        assert levels == [(S * (S + 1), 2 * S + 1) for S in range(two_s + 1)]
        assert single == [(two_s * (two_s + 2), label.dim)]
        assert all(type(x) is int for level in single + levels for x in level)

    @pytest.mark.parametrize("two_s", range(1, 13))
    def test_blocks_match_the_dense_oracle(self, two_s):
        label = SpinLabel(two_s)
        one, two = ParticleSystem(1, label.dim), ParticleSystem(2, label.dim)
        for (a, b), system in (((1, 1), one), ((1, 2), two)):
            got = pair_operator(label, a, b, system).block
            want = pair_total_spin_squared(label, a, b, system).entries
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
    def test_singlet_for_half_spin(self):
        vecs = coupled_basis(SpinLabel(1))
        singlet = [v for v in vecs if v.two_S == 0][0]
        expected = np.array([0, 1, -1, 0]) / SQRT2
        assert np.allclose(singlet.vector.amplitudes, expected)

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_counting(self, two_s):
        vecs = coupled_basis(SpinLabel(two_s))
        assert len(vecs) == (two_s + 1) ** 2
        for two_S in range(0, 2 * two_s + 1, 2):
            members = [v for v in vecs if v.two_S == two_S]
            assert len(members) == two_S + 1

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_simultaneous_eigenvectors(self, two_s):
        label = SpinLabel(two_s)
        system = ParticleSystem(2, label.dim)
        s2 = pair_total_spin_squared(label, 1, 2, system).entries
        sz = total_sz(label, system).entries
        for v in coupled_basis(label):
            vec = v.vector.amplitudes
            S = v.two_S / 2
            assert np.linalg.norm(s2 @ vec - S * (S + 1) * vec) < 1e-9
            assert np.linalg.norm(sz @ vec - (v.two_M / 2) * vec) < 1e-9

    def test_orthonormal(self):
        vecs = coupled_basis(SpinLabel(3))
        mat = np.column_stack([v.vector.amplitudes for v in vecs])
        assert np.abs(mat.conj().T @ mat - np.eye(16)).max() < 1e-10


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
        label = SpinLabel(two_s)
        d = label.dim
        for v in coupled_basis(label):
            for i1 in range(d):
                for i2 in range(d):
                    proj = v.vector.amplitudes[i1 * d + i2]
                    got = clebsch_gordan(label, v.two_S, v.two_M,
                                         two_s - 2 * i1, two_s - 2 * i2)
                    assert abs(proj - got) < 1e-8

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_coefficient_matrix_orthogonal(self, two_s):
        m = clebsch_gordan_matrix(SpinLabel(two_s))
        assert np.abs(m @ m.T - np.eye(m.shape[0])).max() < 1e-9
