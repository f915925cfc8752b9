import numpy as np
import pytest

from discernlab.discern import (
    ALL_STATES,
    DiscernibilityReport,
    ccr_identity_on_monomials,
    certify_C,
    certify_relation,
    certify_T,
    certify_weak_discernibility,
    decide_C,
    decide_T,
    eigenproperty,
    permutation_invariance_check,
    relation_C_holds,
    relation_T_holds,
)
from discernlab.errors import ArityError, DegenerateSpinError
from discernlab.matrix_core import (
    MixedState,
    Operator,
    PureState,
    identity,
    is_scalar_identity,
)
from discernlab.multiparticle import (
    ParticleSystem,
    Permutation,
    embed_at_slot,
    permutation_unitary,
    random_pure_state,
)
from discernlab.schwartz import random_wavefunction
from discernlab.spin import (
    SpinLabel,
    casimir,
    coupled_basis,
    pair_total_spin_squared,
)


def singlet():
    return PureState(np.array([0, 1, -1, 0]) / np.sqrt(2))


def invariant_on_all_of_s_n(family, system, tol):
    """The oracle: dense U_pi K_ab U_pi^dagger over all N! permutations."""
    n = system.n_particles
    for pi in Permutation.all(n):
        u = permutation_unitary(pi, system).entries
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                img = u @ family(a, b).entries @ u.conj().T
                want = family(pi(a), pi(b)).entries
                if np.abs(img - want).max() > tol:
                    return False
    return True


class TestEigenproperty:
    def test_identity_always_one(self):
        psi = random_pure_state(ParticleSystem(2, 2), seed=4)
        assert np.isclose(eigenproperty(identity(4), psi), 1.0)

    def test_singlet_total_spin_zero(self):
        k = pair_total_spin_squared(SpinLabel(1), 1, 2, ParticleSystem(2, 2))
        assert abs(eigenproperty(k, singlet(), 1e-8)) < 1e-10

    def test_cross_sector_superposition_has_no_property(self):
        vecs = coupled_basis(SpinLabel(1))
        v00 = [v for v in vecs if (v.two_S, v.two_M) == (0, 0)][0]
        v10 = [v for v in vecs if (v.two_S, v.two_M) == (2, 0)][0]
        psi = PureState((v00.vector.amplitudes + v10.vector.amplitudes)
                        / np.sqrt(2))
        k = pair_total_spin_squared(SpinLabel(1), 1, 2, ParticleSystem(2, 2))
        assert eigenproperty(k, psi, 1e-8) is None

    def test_mixed_state(self):
        w = MixedState(np.outer(singlet().amplitudes,
                                singlet().amplitudes.conj()))
        k = pair_total_spin_squared(SpinLabel(1), 1, 2, ParticleSystem(2, 2))
        assert abs(eigenproperty(k, w, 1e-8)) < 1e-10

    def test_pure_state_and_its_projector_agree(self):
        # a tol between the max-entry and the Frobenius residual of the
        # projector: one norm gives one decision for both forms
        psi = random_pure_state(ParticleSystem(2, 2), seed=4)
        amps = psi.amplitudes
        w = MixedState(np.outer(amps, amps.conj()))
        k = pair_total_spin_squared(SpinLabel(1), 1, 2, ParticleSystem(2, 2))
        v = amps.conj() @ k.entries @ amps
        residual = k.entries @ w.entries - v * w.entries
        max_entry = float(np.abs(residual).max())
        frobenius = float(np.linalg.norm(residual))
        assert max_entry < frobenius
        tol = (max_entry + frobenius) / 2
        assert eigenproperty(k, psi, tol) is None
        assert eigenproperty(k, w, tol) is None
        tol = 1.01 * frobenius
        assert np.isclose(eigenproperty(k, psi, tol), v)
        assert np.isclose(eigenproperty(k, w, tol), v)

    def test_single_valued(self):
        # calling twice never yields two distinct values for one pair
        k = pair_total_spin_squared(SpinLabel(1), 1, 2, ParticleSystem(2, 2))
        assert eigenproperty(k, singlet(), 1e-8) == \
            eigenproperty(k, singlet(), 1e-8)


class TestRelationT:
    def test_reflexive_all_modes(self):
        label, system = SpinLabel(1), ParticleSystem(2, 2)
        assert relation_T_holds(1, 1, ALL_STATES, label, system)
        assert relation_T_holds(2, 2, singlet(), label, system)
        w = MixedState(np.eye(4) / 4)
        assert relation_T_holds(1, 1, w, label, system)

    def test_fails_on_singlet(self):
        label, system = SpinLabel(1), ParticleSystem(2, 2)
        assert not relation_T_holds(1, 2, singlet(), label, system)
        assert not relation_T_holds(1, 2, ALL_STATES, label, system)

    def test_fails_on_sampled_mixed_states(self):
        label, system = SpinLabel(1), ParticleSystem(2, 2)
        for seed in range(5):
            from discernlab.multiparticle import random_mixed_state
            w = random_mixed_state(system, rank=2, seed=seed)
            assert not relation_T_holds(1, 2, w, label, system)

    def test_spin_zero_raises(self):
        with pytest.raises(DegenerateSpinError):
            relation_T_holds(1, 2, ALL_STATES, SpinLabel(0),
                             ParticleSystem(2, 1))

    def test_sector_independent_failure(self):
        # N=3, s=1/2: off-diagonal failure in full, bose and fermi... the
        # fermi sector is empty for d=2, so use d=2 bose/full and d=3 fermi
        label = SpinLabel(1)
        for sector in ("full", "bose"):
            system = ParticleSystem(3, 2, sector)
            psi = random_pure_state(system, seed=11)
            assert not relation_T_holds(1, 2, psi, label, system)
            assert not relation_T_holds(2, 3, psi, label, system)


class TestRelationC:
    def test_reflexive_on_samples(self):
        samples = [random_wavefunction(2, 6, 0, k) for k in range(30)]
        assert relation_C_holds(1, 1, samples)
        assert relation_C_holds(2, 2, samples)

    def test_off_diagonal_fails_for_any_nonzero(self):
        for seed in range(10):
            psi = random_wavefunction(2, 6, 1, seed)
            assert not relation_C_holds(1, 2, psi)

    def test_monomial_basis_identity(self):
        assert ccr_identity_on_monomials(2, 6, 1, 1)
        assert ccr_identity_on_monomials(2, 6, 1, 2)
        assert ccr_identity_on_monomials(3, 4, 2, 3)

    def test_decide_C_branches(self):
        wf = random_wavefunction(2, 4, 1, 3)
        assert decide_C(1, 1, wf, wf.mul_minus_i()) == (True, None)
        assert decide_C(1, 2, wf, wf.mul_minus_i()) == \
            (False, "commutator_zero")
        # against a wrong target (psi instead of -i psi)
        assert decide_C(1, 1, wf, wf) == (False, "commutator_other")


class TestPermutationInvariance:
    def test_pair_operator_family(self):
        label = SpinLabel(1)
        for d in (2,):
            system = ParticleSystem(3, label.dim)
            family = {}
            for a in range(1, 4):
                for b in range(1, 4):
                    family[(a, b)] = pair_total_spin_squared(
                        label, a, b, system)
            for pi in Permutation.all(3):
                assert permutation_invariance_check(
                    lambda a, b: family[(a, b)], pi, system, 1e-10)

    def test_three_cycle_maps_pairs(self):
        # conjugation oracle: the 3-cycle sends (S_1+S_2)^2 to (S_2+S_3)^2
        from discernlab.multiparticle import permutation_unitary
        label = SpinLabel(1)
        system = ParticleSystem(3, 2)
        pi = Permutation((2, 3, 1))
        u = permutation_unitary(pi, system).entries
        k12 = pair_total_spin_squared(label, 1, 2, system).entries
        k23 = pair_total_spin_squared(label, 2, 3, system).entries
        assert np.abs(u @ k12 @ u.conj().T - k23).max() < 1e-12

    def test_identity_permutation(self):
        label = SpinLabel(1)
        system = ParticleSystem(2, 2)
        family = lambda a, b: pair_total_spin_squared(label, a, b, system)
        assert permutation_invariance_check(
            family, Permutation((1, 2)), system)

    @pytest.mark.parametrize("n", [3, 4])
    def test_generator_verdict_equals_all_permutations(self, n):
        label = SpinLabel(1)
        system = ParticleSystem(n, label.dim)
        report = certify_T(n, 1, n_pure_samples=2, n_mixed_samples=1,
                           mixed_rank=1, seed=0)
        family = lambda a, b: pair_total_spin_squared(label, a, b, system)
        assert report.permutation_invariant
        assert invariant_on_all_of_s_n(family, system, 1e-8)


class TestCertify:
    def test_T_small_full_pipeline(self):
        report = certify_T(2, 1, "full", n_pure_samples=50,
                           n_mixed_samples=10, mixed_rank=2, seed=0)
        assert report.verdict == "weakly_discerning"
        assert report.permutation_invariant
        assert all(p["off_diagonal_fails"] for p in report.pairs
                   if p["a"] != p["b"])
        # spectrum frozen from the 4x4 oracle
        assert [tuple(x) for x in report.spectrum] == [(0.0, 1), (2.0, 3)]

    def test_T_three_particles_sectors(self):
        for sector in ("full", "bose", "fermi"):
            d_needed = 3 if sector == "fermi" else 2
            two_s = d_needed - 1
            report = certify_T(3, two_s, sector, n_pure_samples=30,
                               n_mixed_samples=5, mixed_rank=1, seed=2)
            assert report.verdict == "weakly_discerning", sector

    def test_C_symbolic_pipeline(self):
        report = certify_C(3, 2, n_samples=25, max_degree=5, seed=1)
        assert report.verdict == "weakly_discerning"
        assert report.tolerances["tol"] == 0.0
        assert report.mode == "symbolic_exact"

    def test_C_off_diagonal_witnesses(self):
        for two_s in (0, 1):
            report = certify_C(3, two_s, n_samples=5, max_degree=4, seed=2)
            off = [p for p in report.pairs if p["a"] != p["b"]]
            assert len(off) == 6
            assert all(p["witness"] == "wavefunction[0]:commutator_zero"
                       for p in off)
            assert all(p["witness"] is None
                       for p in report.pairs if p["a"] == p["b"])

    def test_arity_error(self):
        with pytest.raises(ArityError):
            certify_T(1, 1)
        with pytest.raises(ArityError):
            certify_C(1)

    def test_spin_zero_T_error(self):
        with pytest.raises(DegenerateSpinError):
            certify_T(2, 0)

    def test_dispatch(self):
        report = certify_weak_discernibility(
            "T", n_particles=2, two_s=1, n_pure_samples=5,
            n_mixed_samples=2, seed=1)
        assert report.relation == "T"
        with pytest.raises(ValueError):
            certify_weak_discernibility("X")

    def test_report_shape_is_weak_discernibility_pattern(self):
        report = certify_T(3, 1, "full", n_pure_samples=10,
                           n_mixed_samples=2, mixed_rank=1, seed=5)
        diag = [p for p in report.pairs if p["a"] == p["b"]]
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert len(diag) == 3 and all(p["reflexive"] for p in diag)
        assert len(off) == 6 and all(p["off_diagonal_fails"] for p in off)
        assert all(p["witness"] for p in off)


class TestNegativeControls:
    """Relations that must not certify, run through the engine.

    A relation that holds between distinct particles, or one that is not
    permutation invariant, must come out violated; otherwise the verdict
    would be vacuous (Huggett & Norton, BJPS 65, 2014).
    """

    label = SpinLabel(1)
    system = ParticleSystem(3, 2)
    tol = 1e-8

    def certify(self, family, target):
        def operator_route(a, b):
            scalar = is_scalar_identity(family(a, b), target, self.tol)
            return scalar if a == b else not scalar

        report = DiscernibilityReport(
            relation="control", mode="mixed_sampling", n_particles=3,
            two_s=1, sector="full", samples={}, seed=0, tolerances={})
        samples = [(f"pure[{k}]", random_pure_state(self.system, k))
                   for k in range(5)]
        return certify_relation(
            report, samples, operator_route,
            lambda a, b: lambda st: decide_T(family(a, b), st, target,
                                             self.tol),
            lambda pi: permutation_invariance_check(
                family, pi, self.system, self.tol))

    def shifted_T(self, shifted):
        """T with the off-diagonal value lowered by 1 on the shifted pairs."""
        def family(a, b):
            k = pair_total_spin_squared(self.label, a, b, self.system)
            shift = 1 if a != b and shifted(a, b) else 0
            return k - Operator(shift * np.eye(k.dim), hbar_power=2)
        return family

    def assert_only_invariance_fails(self, family):
        report = self.certify(family, float(4 * self.label.casimir_value()))
        assert all(p["reflexive"] for p in report.pairs if p["a"] == p["b"])
        assert all(p["off_diagonal_fails"] for p in report.pairs
                   if p["a"] != p["b"])
        assert not report.permutation_invariant
        assert report.verdict == "violated"
        assert not invariant_on_all_of_s_n(family, self.system, self.tol)

    def generator_verdicts(self, family):
        return [permutation_invariance_check(family, g, self.system, self.tol)
                for g in Permutation.generators(3)]

    def test_monadic_relation_holds_off_diagonal(self):
        # S_a^2 + S_b^2 = 2 s(s+1) hbar^2 for every pair, a == b or not
        c = casimir(self.label)

        def family(a, b):
            return embed_at_slot(c, a, self.system) \
                + embed_at_slot(c, b, self.system)

        report = self.certify(family, float(2 * self.label.casimir_value()))
        assert report.verdict == "violated"
        assert report.permutation_invariant
        assert invariant_on_all_of_s_n(family, self.system, self.tol)
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert off and not any(p["off_diagonal_fails"] for p in off)

    def test_label_dependent_relation_is_not_invariant(self):
        # T with the off-diagonal value shifted by the first label: the
        # weak-discernibility pattern holds, but only through the labels
        def family(a, b):
            k = pair_total_spin_squared(self.label, a, b, self.system)
            shift = 0 if a == b else a - 1
            return k - Operator(shift * np.eye(k.dim), hbar_power=2)

        self.assert_only_invariance_fails(family)

    def test_swap_invariant_only(self):
        # shifted on {a, b} = {1, 2}: fixed by (1 2), moved by (1 2 3)
        family = self.shifted_T(lambda a, b: {a, b} == {1, 2})
        assert self.generator_verdicts(family) == [True, False]
        self.assert_only_invariance_fails(family)

    def test_cycle_invariant_only(self):
        # shifted on cyclic successors b = a + 1 mod N: fixed by (1 2 3),
        # while (1 2) sends the successor pair (1, 2) to (2, 1)
        family = self.shifted_T(lambda a, b: b == a % 3 + 1)
        assert self.generator_verdicts(family) == [False, True]
        self.assert_only_invariance_fails(family)
