import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from discernlab.discern import (
    ALL_STATES,
    DiscernibilityReport,
    block_kernel,
    ccr_identity_on_monomials,
    certify_C,
    certify_relation,
    certify_T,
    decide_C,
    eigen_residuals,
    eigenproperty,
    is_scalar,
    is_swap_symmetric,
    passes,
    permutation_invariance_check,
    relation_C_holds,
    relation_T_holds,
    sampled_route_T,
    summarize,
)
from discernlab.errors import ArityError, ConfigError, DegenerateSpinError
from discernlab.multiparticle import (
    ParticleSystem,
    Permutation,
    SlotOperator,
    StateBatch,
    sample_states,
    sector_dimension,
)
from discernlab import schwartz
from discernlab.schwartz import (
    SpinorWavefunction,
    TermBatch,
    draw_wavefunctions,
    pack,
    stack,
)
from discernlab.spin import SpinLabel, pair_operator
from oracles import (
    all_permutations,
    casimir,
    clebsch_gordan_matrix,
    commutator_by_merge,
    dense,
    is_scalar_identity,
    pair_total_spin_squared,
    permutation_unitary,
    product_amplitudes,
    random_mixed_state,
    random_pure_state,
    slot_apply,
)

SINGLET = np.array([0, 1, -1, 0]) / np.sqrt(2)


def pure(amplitudes, n=2, d=2):
    """One full-sector pure state, given as d^N amplitudes, as a batch."""
    return StateBatch(np.asarray(amplitudes, complex).reshape(
        (1, 1) + (d,) * n), np.ones((1, 1)))


def mixed(entries, n=2, d=2):
    """One full-sector statistical operator, factored by eigh, as a batch."""
    w, v = np.linalg.eigh(entries)
    return StateBatch(v.T.reshape((1, -1) + (d,) * n), w[None])


def k12(label=SpinLabel(1), system=ParticleSystem(2, 2)):
    return pair_operator(label, 1, 2, system)


def invariant_on_all_of_s_n(family, system, tol):
    """The oracle: dense U_pi K_ab U_pi^dagger over all N! permutations.

    family gives SlotOperators or dense N-body matrices."""
    n = system.n_particles

    def matrix(op):
        return dense(op, system) if isinstance(op, SlotOperator) else op

    for pi in all_permutations(n):
        u = permutation_unitary(pi, system)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                img = u @ matrix(family(a, b)) @ u.conj().T
                want = matrix(family(pi(a), pi(b)))
                if np.abs(img - want).max() > tol:
                    return False
    return True


class TestEigenproperty:
    def test_identity_always_one(self):
        psi = random_pure_state(ParticleSystem(2, 2), seed=4)
        [value] = eigenproperty(SlotOperator(np.eye(4), (1, 2)), pure(psi))
        assert np.isclose(value, 1.0)

    def test_singlet_total_spin_zero(self):
        [value] = eigenproperty(k12(), pure(SINGLET), 1e-8)
        assert abs(value) < 1e-10

    def test_cross_sector_superposition_has_no_property(self):
        # (|0,0> + |1,0>)/sqrt(2), from the Racah columns: |up, down>
        labels, m = clebsch_gordan_matrix(SpinLabel(1))
        psi = (m[:, labels.index((0, 0))] + m[:, labels.index((2, 0))]) \
            / np.sqrt(2)
        assert np.abs(psi - [0, 1, 0, 0]).max() <= 1e-15
        assert eigenproperty(k12(), pure(psi), 1e-8) == [None]

    def test_mixed_state(self):
        [value] = eigenproperty(k12(), mixed(np.outer(SINGLET, SINGLET)),
                                1e-8)
        assert abs(value) < 1e-10

    def test_pure_state_and_its_projector_agree(self):
        # a tol between the max-entry and the Frobenius residual of the
        # projector: one norm gives one decision for both forms
        amps = random_pure_state(ParticleSystem(2, 2), seed=4)
        w = np.outer(amps, amps.conj())
        k = pair_total_spin_squared(SpinLabel(1), 1, 2, ParticleSystem(2, 2))
        v = amps.conj() @ k @ amps
        residual = k @ w - v * w
        max_entry = float(np.abs(residual).max())
        frobenius = float(np.linalg.norm(residual))
        assert max_entry < frobenius
        tol = (max_entry + frobenius) / 2
        assert eigenproperty(k12(), pure(amps), tol) == [None]
        assert eigenproperty(k12(), mixed(w), tol) == [None]
        tol = 1.01 * frobenius
        assert np.isclose(eigenproperty(k12(), pure(amps), tol)[0], v)
        assert np.isclose(eigenproperty(k12(), mixed(w), tol)[0], v)

    def test_single_valued(self):
        # calling twice never yields two distinct values for one pair
        assert eigenproperty(k12(), pure(SINGLET), 1e-8) == \
            eigenproperty(k12(), pure(SINGLET), 1e-8)

    def test_reads_the_block_on_its_own_slots(self):
        # |up> (x) singlet on slots 2, 3: an eigenstate of K_23 and K_11,
        # none of K_12 or K_13
        label, system = SpinLabel(1), ParticleSystem(3, 2)
        batch = pure(np.kron([1, 0], SINGLET), n=3)
        values = {(a, b): eigenproperty(pair_operator(label, a, b, system),
                                        batch, 1e-8)[0]
                  for a, b in ((2, 3), (1, 1), (1, 2), (1, 3))}
        assert abs(values[2, 3]) < 1e-10 and np.isclose(values[1, 1], 3)
        assert values[1, 2] is None and values[1, 3] is None

    def test_one_value_per_state_of_a_sector_batch(self):
        # every bose state of two spin-1/2 particles is a triplet state
        system = ParticleSystem(2, 2, "bose")
        batch = sample_states(system, 3, 0, rank=2)
        values = eigenproperty(k12(system=system), batch, 1e-8)
        assert len(values) == 3 and np.allclose(values, 2.0)


class TestRelationT:
    def test_reflexive_all_modes(self):
        label, system = SpinLabel(1), ParticleSystem(2, 2)
        assert relation_T_holds(1, 1, ALL_STATES, label, system)
        assert relation_T_holds(2, 2, pure(SINGLET), label, system)
        assert relation_T_holds(1, 1, mixed(np.eye(4) / 4), label, system)

    def test_fails_on_singlet(self):
        label, system = SpinLabel(1), ParticleSystem(2, 2)
        assert not relation_T_holds(1, 2, pure(SINGLET), label, system)
        assert not relation_T_holds(1, 2, ALL_STATES, label, system)

    def test_fails_on_sampled_mixed_states(self):
        label, system = SpinLabel(1), ParticleSystem(2, 2)
        for seed in range(5):
            w = random_mixed_state(system, rank=2, seed=seed)
            assert not relation_T_holds(1, 2, mixed(w), label, system)

    def test_spin_zero_raises(self):
        with pytest.raises(DegenerateSpinError):
            relation_T_holds(1, 2, ALL_STATES, SpinLabel(0),
                             ParticleSystem(2, 1))

    def test_all_states_decides_without_the_float_blocks(self, monkeypatch):
        def banned(self):
            raise AssertionError("float pair block built")

        monkeypatch.setattr(SpinLabel, "pair_blocks", property(banned))
        label, system = SpinLabel(63), ParticleSystem(2, 64)
        assert relation_T_holds(1, 1, ALL_STATES, label, system)
        assert not relation_T_holds(1, 2, ALL_STATES, label, system)

    def test_sector_independent_failure(self):
        # N=3, s=1/2: off-diagonal failure in full, bose and fermi... the
        # fermi sector is empty for d=2, so use d=2 bose/full and d=3 fermi
        for sector, two_s in (("full", 1), ("bose", 1), ("fermi", 2)):
            label = SpinLabel(two_s)
            system = ParticleSystem(3, label.dim, sector)
            batch = sample_states(system, 1, 11)
            assert relation_T_holds(3, 3, batch, label, system)
            assert not relation_T_holds(1, 2, batch, label, system)
            assert not relation_T_holds(2, 3, batch, label, system)

    @pytest.mark.parametrize("n,two_s,sector", [
        (2, 1, "full"), (3, 2, "full"), (2, 1, "bose"), (3, 2, "bose"),
        (4, 1, "bose"), (2, 2, "fermi"), (3, 2, "fermi"), (3, 3, "fermi")])
    def test_predicates_decide_as_certify_T_on_its_draws(self, n, two_s,
                                                         sector):
        # certify_T's draws, decided state by state by the predicates,
        # give every pair entry of its report: reflexive, off-diagonal
        # failure and the first witness with its branch
        n_pure, n_mixed, seed = 4, 3, n + two_s
        report = certify_T(n, two_s, sector, n_pure, n_mixed, 2, seed)
        label = SpinLabel(two_s)
        system = ParticleSystem(n, label.dim, sector)
        rng = np.random.default_rng(np.random.SeedSequence([seed, two_s, n]))
        drawn = [sample_states(system, n_pure, rng),
                 sample_states(system, n_mixed, rng,
                               report.samples["mixed_rank"])]
        states = [(f"{kind}[{i}]", StateBatch(batch.factors[i:i + 1],
                                              batch.weights[i:i + 1]))
                  for kind, batch in zip(("pure", "mixed"), drawn)
                  for i in range(len(batch.weights))]
        for pair in report.pairs:
            a, b = pair["a"], pair["b"]
            holds = [relation_T_holds(a, b, state, label, system)
                     for _, state in states]
            assert relation_T_holds(a, b, drawn[0], label, system) \
                == all(holds[:n_pure])
            if a == b:
                assert pair["reflexive"] == all(holds)
                continue
            assert pair["off_diagonal_fails"] == (not any(holds))
            name, state = states[holds.index(False)]
            [value] = eigenproperty(pair_operator(label, a, b, system),
                                    StateBatch(state.factors, state.weights,
                                               system.unfoldings), 1e-8)
            branch = "absent" if value is None else f"value={value.real:.6g}"
            assert pair["witness"] == f"{name}:{branch}"
        assert report.verdict == "weakly_discerning"


class TestRelationC:
    def test_reflexive_on_samples(self):
        samples = [psi for k in range(30)
                   for psi in draw_wavefunctions(2, 6, 0, 1, k).unpack()]
        assert relation_C_holds(1, 1, samples)
        assert relation_C_holds(2, 2, samples)

    def test_off_diagonal_fails_for_any_nonzero(self):
        for seed in range(10):
            [psi] = draw_wavefunctions(2, 6, 1, 1, seed).unpack()
            assert not relation_C_holds(1, 2, psi)

    def test_decides_on_one_slot_local_pass(self, monkeypatch):
        # certify_C's pass: one kernel call, on the owner and exponent rows
        # of the view of slots a and b, not on the full rows of the batch
        seen = []
        kernel = schwartz._commutator

        def recorded(rows, coeffs, slots, minus_i):
            seen.append(rows.shape)
            return kernel(rows, coeffs, slots, minus_i)

        monkeypatch.setattr(schwartz, "_commutator", recorded)
        psi = draw_wavefunctions(4, 4, 1, 5, 2).unpack()
        terms = pack(psi).rows.shape[1]
        for (a, b), want in (((3, 3), True), ((2, 4), False)):
            seen.clear()
            assert relation_C_holds(a, b, psi) == want
            assert seen == [(2 if a == b else 3, terms)]

    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_the_full_row_decision(self, monkeypatch, n, flipped):
        if flipped:
            momentum = schwartz._momentum

            def wrong(rows, coeffs, row, slot):  # the lowered sign flipped
                out_rows, out = momentum(rows, coeffs, row, slot)
                out[:, rows.shape[1]:] *= -1
                return out_rows, out

            monkeypatch.setattr(schwartz, "_momentum", wrong)
        drawn = draw_wavefunctions(n, 4, n % 3, 4, n).unpack()
        zero = SpinorWavefunction(n, n % 3, {})
        slots = range(1, n + 1)
        for psi in [drawn, [zero], drawn + [zero]] + [[x] for x in drawn]:
            batch = pack(psi)
            for a in slots:
                for b in slots:
                    want = all(decide_C(batch.commutator_PQ(a, b),
                                        batch.mul_minus_i())[0])
                    assert want == all(decide_C(
                        commutator_by_merge(batch, a, b),
                        batch.mul_minus_i())[0])
                    assert relation_C_holds(a, b, psi) == want, (a, b)
        # the flipped sign gives [P_a, Q_a] = +i: no drawn psi holds
        assert relation_C_holds(1, 1, drawn) == (not flipped)
        assert relation_C_holds(1, 1, [zero])

    def test_monomial_basis_identity(self):
        assert ccr_identity_on_monomials(2, 6, 1, 1)
        assert ccr_identity_on_monomials(2, 6, 1, 2)
        assert ccr_identity_on_monomials(3, 4, 2, 3)

    def test_decide_C_branches(self):
        # a random wavefunction and the zero one, which holds on every pair
        batch = stack([draw_wavefunctions(2, 4, 1, 1, 3),
                       pack([SpinorWavefunction(2, 1, {})])])
        target = batch.mul_minus_i()
        diagonal = batch.commutator_PQ(1, 1)
        holds, _ = decide_C(diagonal, target)
        assert list(holds) == [True, True]
        holds, branch = decide_C(batch.commutator_PQ(1, 2), target)
        assert list(holds) == [False, True]
        assert branch(0) == "commutator_zero"
        # against a wrong target (psi instead of -i psi)
        holds, branch = decide_C(diagonal, batch)
        assert list(holds) == [False, True]
        assert branch(0) == "commutator_other"

    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 0), (3, 2)])
    def test_decide_C_on_an_empty_image_equals_the_merge(self, n, two_s):
        # drawn wavefunctions around the zero one, which holds on every pair
        batch = stack([draw_wavefunctions(n, 4, two_s, 4, 0),
                       pack([SpinorWavefunction(n, two_s, {})]),
                       draw_wavefunctions(n, 4, two_s, 3, 1)])
        want = [False] * 4 + [True] + [False] * 3
        for target in (batch.mul_minus_i(), batch):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    image = batch.commutator_PQ(a, b)
                    assert image.is_zero() == (a != b)
                    holds, branch = decide_C(image, target)
                    merge = ~image.minus(target).nonzero_owners()
                    assert list(holds) == list(merge)
                    if a != b:
                        assert list(holds) == want
                        assert branch(0) == "commutator_zero"


class TestPermutationInvariance:
    def test_pair_operator_family(self):
        label = SpinLabel(1)
        system = ParticleSystem(3, label.dim)
        family = {(a, b): pair_operator(label, a, b, system)
                  for a in range(1, 4) for b in range(1, 4)}
        states = sample_states(system, 8, 0).vectors
        for pi in all_permutations(3):
            for (a, b), k in family.items():
                assert permutation_invariance_check(
                    family[pi(a), pi(b)], pi, states, slot_apply(k, states),
                    1e-10)

    def test_three_cycle_maps_pairs(self):
        # conjugation oracle: the 3-cycle sends (S_1+S_2)^2 to (S_2+S_3)^2
        label = SpinLabel(1)
        system = ParticleSystem(3, 2)
        pi = Permutation((2, 3, 1))
        u = permutation_unitary(pi, system)
        k12 = pair_total_spin_squared(label, 1, 2, system)
        k23 = pair_total_spin_squared(label, 2, 3, system)
        assert np.abs(u @ k12 @ u.conj().T - k23).max() < 1e-12

    def test_identity_permutation(self):
        label = SpinLabel(1)
        system = ParticleSystem(2, 2)
        states = sample_states(system, 4, 1).vectors
        for a in (1, 2):
            for b in (1, 2):
                k = pair_operator(label, a, b, system)
                assert permutation_invariance_check(
                    k, Permutation((1, 2)), states, slot_apply(k, states))

    def test_dense_oracle_matches_pair_operators(self):
        # the test helper dense() against the embed-built operators
        label = SpinLabel(2)
        system = ParticleSystem(3, label.dim)
        for a in range(1, 4):
            for b in range(1, 4):
                got = dense(pair_operator(label, a, b, system), system)
                want = pair_total_spin_squared(label, a, b, system)
                assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_generator_verdict_equals_all_permutations(self, n):
        label = SpinLabel(1)
        system = ParticleSystem(n, label.dim)
        report = certify_T(n, 1, n_pure_samples=2, n_mixed_samples=1,
                           mixed_rank=1, seed=0)
        family = lambda a, b: pair_total_spin_squared(label, a, b, system)
        assert report.permutation_invariant
        assert invariant_on_all_of_s_n(family, system, 1e-8)

    @pytest.mark.parametrize("two_s", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_skipped_products_hold_on_sampled_states(self, n, two_s):
        # the pipeline skips K_{pi(a) pi(b)} U_pi psi for its own family,
        # whose moved operator is K_ab's block on pi's image of its slots;
        # the state check, computed anyway, holds on every pair
        label = SpinLabel(two_s)
        system = ParticleSystem(n, label.dim)
        states = np.concatenate([sample_states(system, 3, 0).vectors,
                                 sample_states(system, 2, 1, 2).vectors])
        slots = range(1, n + 1)
        family = {(a, b): pair_operator(label, a, b, system)
                  for a in slots for b in slots}
        for pi in Permutation.generators(n):
            for (a, b), k in family.items():
                moved = family[pi(a), pi(b)]
                assert moved.block is k.block
                assert moved.slots == tuple(pi(s) for s in k.slots)
                assert permutation_invariance_check(moved, pi, states,
                                                    slot_apply(k, states))
        # K_ab plus S_z on slot a, misplaced on (1, 2), fails under (1 2)
        build = TestInvarianceIsNotVacuous().asymmetric(swap_pair=(1, 2))
        wrong = {(a, b): build(label, a, b, system)
                 for a, b in ((1, 2), (2, 1))}
        swap = Permutation.generators(n)[0]
        for a, b in wrong:
            assert not permutation_invariance_check(
                wrong[b, a], swap, states, slot_apply(wrong[a, b], states))


class TestCertify:
    def test_T_small_full_pipeline(self):
        report = certify_T(2, 1, "full", n_pure_samples=50,
                           n_mixed_samples=10, mixed_rank=2, seed=0)
        assert report.verdict == "weakly_discerning"
        assert report.permutation_invariant
        assert all(p["off_diagonal_fails"] for p in report.pairs
                   if p["a"] != p["b"])
        # spectrum frozen from the 4x4 oracle, as exact ints
        assert report.spectrum == [[0, 1], [2, 3]]
        assert all(type(x) is int for level in report.spectrum for x in level)

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

    # perfbench's warmup cell is (N=2, 2s=1, 2 wavefunctions, degree 2)
    @pytest.mark.parametrize("n_samples", [1, 2])
    @pytest.mark.parametrize("n,two_s,degree", [
        (2, 0, 2), (3, 0, 4), (2, 1, 2), (3, 2, 4), (4, 1, 3)])
    def test_C_small_batches(self, n, two_s, degree, n_samples):
        # fewer owners than the 3 the S_N check reads: at 2s = 0 the
        # product state is appended, so 2 or 3 owners, otherwise 1 or 2
        report = certify_C(n, two_s, n_samples, degree, seed=3)
        assert report.verdict == "weakly_discerning"
        assert report.permutation_invariant
        assert report.pairs == [
            {"a": a, "b": b, "reflexive": True if a == b else None,
             "off_diagonal_fails": None if a == b else True,
             "witness": None if a == b
             else "wavefunction[0]:commutator_zero"}
            for a in range(1, n + 1) for b in range(1, n + 1)]

    # the six c-exact cells and the n-scale C cell of perfbench/run.py
    @pytest.mark.parametrize("n,two_s,samples,degree", [
        (2, 0, 200, 8), (2, 1, 200, 8), (2, 3, 200, 8), (3, 0, 200, 8),
        (3, 1, 200, 8), (3, 3, 200, 8), (4, 1, 10, 4)])
    def test_C_report_does_not_depend_on_the_draws(self, n, two_s, samples,
                                                   degree):
        # every draw is nonzero, so every off-diagonal witness is the first
        # wavefunction with a zero commutator, whatever was drawn: changing
        # the sampler's random stream changes no report byte
        def report(seed):
            out = asdict(certify_C(n, two_s, samples, degree, seed))
            del out["seed"]
            return out

        assert report(1) == report(999)

    @pytest.mark.parametrize("n,two_s,samples,degree", [
        (2, 0, 20, 8), (3, 1, 20, 8), (3, 3, 50, 8), (4, 1, 10, 4),
        (5, 2, 6, 3), (8, 63, 5, 4)])
    def test_C_report_does_not_depend_on_the_budget(
            self, monkeypatch, n, two_s, samples, degree):
        import discernlab.discern as discern

        def report():
            return json.dumps(asdict(certify_C(n, two_s, samples, degree, 2)))

        full = report()
        monkeypatch.setattr(discern, "BATCH_TERMS", 1)  # one pair per pass
        assert report() == full

    def test_no_sample_is_refused_before_any_draw(self, monkeypatch):
        import discernlab.discern as discern

        def no_draw(*args, **kwargs):
            raise AssertionError("drawn")

        monkeypatch.setattr(discern, "sample_states", no_draw)
        monkeypatch.setattr(discern, "draw_wavefunctions", no_draw)
        with pytest.raises(ConfigError):
            certify_T(2, 1, "full", 0, 0)
        with pytest.raises(ConfigError):
            certify_T(3, 1, "bose", 0, 0)
        for two_s in (1, 3):
            with pytest.raises(ConfigError):
                certify_C(2, two_s, 0, 4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_C_product_state_alone_is_a_sample(self, n):
        # at 2s = 0 the product state is owner 0 when nothing is drawn
        report = certify_C(n, 0, 0, 4, seed=1)
        assert report.verdict == "weakly_discerning"
        assert report.permutation_invariant
        assert {p["witness"] for p in report.pairs if p["a"] != p["b"]} \
            == {"wavefunction[0]:commutator_zero"}

    def test_T_sample_names(self, monkeypatch):
        import discernlab.discern as discern
        names = []

        def recorded(family, batches, target, tol, name):
            names.extend(name(i) for i in range(5))
            return sampled_route_T(family, batches, target, tol, name)

        monkeypatch.setattr(discern, "sampled_route_T", recorded)
        certify_T(2, 1, "full", 3, 2, 2)
        assert names == ["pure[0]", "pure[1]", "pure[2]", "mixed[0]",
                         "mixed[1]"]

    def test_T_mixed_witness_names(self):
        # with no pure sample the witnesses are mixed states, named from 0
        report = certify_T(3, 1, "full", 0, 3, 2, seed=4)
        pairs, _, _ = dense_certify_T(3, 1, "full", 0, 3, 2, seed=4)
        assert report.pairs == pairs
        assert {p["witness"].split(":")[0] for p in report.pairs
                if p["a"] != p["b"]} == {"mixed[0]"}

    def test_holds_as_list_or_array_give_identical_pairs(self):
        # per pair (a, b): the operator route's answer and holds; an empty
        # holds is reflexive and fails off the diagonal
        table = {(1, 1): (True, [True, True]), (2, 2): (True, []),
                 (3, 3): (True, [True, False]),
                 (1, 2): (True, [False, False]), (1, 3): (True, [True]),
                 (2, 1): (True, []), (2, 3): (True, [False, True]),
                 (3, 1): (False, [False, False]), (3, 2): (True, [False])}

        def certify(holds_of):
            report = DiscernibilityReport(
                relation="control", mode="mixed_sampling", n_particles=3,
                two_s=1, sector="full", samples={}, seed=0, tolerances={})
            return certify_relation(
                report, lambda a, b: table[a, b][0],
                lambda pairs, generators: ([summarize(
                    (holds_of(a, b), lambda i: f"b{a}{b}{i}"),
                    lambda i: f"s[{i}]") for a, b in pairs], True)).pairs

        want = [{"a": a, "b": b,
                 "reflexive": bool(proved and all(holds)) if a == b
                 else None,
                 "off_diagonal_fails": None if a == b
                 else bool(proved and not any(holds)),
                 "witness": None if a == b or all(holds)
                 else f"s[{holds.index(False)}]:b{a}{b}{holds.index(False)}"}
                for (a, b), (proved, holds) in sorted(table.items())]
        shared = {}  # one array per distinct holds, shared by its pairs

        def shared_array(a, b):
            holds = tuple(table[a, b][1])
            return shared.setdefault(holds, np.array(holds, dtype=bool))

        assert certify(lambda a, b: table[a, b][1]) == want
        assert certify(lambda a, b: np.array(table[a, b][1], bool)) == want
        assert certify(shared_array) == want

    def test_arity_error(self):
        with pytest.raises(ArityError):
            certify_T(1, 1)
        with pytest.raises(ArityError):
            certify_C(1)

    def test_spin_zero_T_error(self):
        with pytest.raises(DegenerateSpinError):
            certify_T(2, 0)

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

    def certify(self, family, target, operator_route=None):
        def dense_route(a, b):
            scalar = is_scalar_identity(family(a, b).block, target, self.tol)
            return scalar if a == b else not scalar

        report = DiscernibilityReport(
            relation="control", mode="mixed_sampling", n_particles=3,
            two_s=1, sector="full", samples={}, seed=0, tolerances={})
        batch = sample_states(self.system, 5, 0)
        return certify_relation(
            report, operator_route or dense_route,
            sampled_route_T(family, [batch], target, self.tol,
                            lambda k: f"pure[{k}]"))

    def shifted_T(self, shifted):
        """T with the off-diagonal value lowered by 1 on the shifted pairs."""
        def family(a, b):
            k = pair_operator(self.label, a, b, self.system)
            shift = 1 if a != b and shifted(a, b) else 0
            return SlotOperator(k.block - shift * np.eye(len(k.block)),
                                k.slots)
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
        route = sampled_route_T(
            family, [sample_states(self.system, 5, 0)],
            float(4 * self.label.casimir_value()), self.tol, str)
        pairs = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        return [route(pairs, [g])[1] for g in Permutation.generators(3)]

    def test_monadic_relation_holds_off_diagonal(self):
        # S_a^2 + S_b^2 = 2 s(s+1) hbar^2 for every pair, a == b or not
        c = casimir(self.label)
        eye = np.eye(self.label.dim)

        def family(a, b):
            if a == b:
                return SlotOperator(2 * c, (a,))
            return SlotOperator(np.kron(c, eye) + np.kron(eye, c), (a, b))

        report = self.certify(family, float(2 * self.label.casimir_value()))
        assert report.verdict == "violated"
        assert report.permutation_invariant
        assert invariant_on_all_of_s_n(family, self.system, self.tol)
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert off and not any(p["off_diagonal_fails"] for p in off)

    def test_scalar_relation_holds_off_diagonal(self, monkeypatch):
        # c 1 on every pair, a == b or not, as one block object per slot
        # count: the same operator on any slots, so each block's pairs
        # share one key and one decision, and the relation still holds
        # between distinct particles
        import discernlab.discern as discern
        value = float(2 * self.label.casimir_value())
        d = self.label.dim
        single, pair = value * np.eye(d), value * np.eye(d * d)

        def family(a, b):
            if a == b:
                return SlotOperator(single, (a,))
            return SlotOperator(pair, (a, b))

        decisions = []
        decide_T = discern.decide_T
        monkeypatch.setattr(discern, "decide_T", lambda *args: (
            decisions.append(args) or decide_T(*args)))
        report = self.certify(family, value)
        assert report.verdict == "violated"
        assert report.permutation_invariant
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert off and not any(p["off_diagonal_fails"] for p in off)
        assert all(p["reflexive"] for p in report.pairs if p["a"] == p["b"])
        assert len(decisions) == 2

    def test_scalar_off_the_target_is_not_reflexive(self):
        # T with 4 S^2 replaced by (target + 1) 1: still c 1, so decided
        # on the samples themselves, and the value must be read, not
        # assumed.  The operator route claims everything, so only the
        # sampled route can refuse reflexivity
        target = float(4 * self.label.casimir_value())
        single = (target + 1) * np.eye(self.label.dim, dtype=complex)

        def family(a, b):
            if a == b:
                return SlotOperator(single, (a,))
            return pair_operator(self.label, a, b, self.system)

        report = self.certify(family, target, lambda a, b: True)
        assert not any(p["reflexive"] for p in report.pairs
                       if p["a"] == p["b"])
        assert all(p["off_diagonal_fails"] for p in report.pairs
                   if p["a"] != p["b"])
        assert report.permutation_invariant
        assert report.verdict == "violated"
        [(every, some, witness)], _ = sampled_route_T(
            family, [sample_states(self.system, 5, 0)], target,
            self.tol, lambda i: f"pure[{i}]")([(2, 2)], [])
        assert not every and not some
        assert witness == f"pure[0]:value={target + 1:.6g}"

    def test_label_dependent_relation_is_not_invariant(self):
        # T with the off-diagonal value shifted by the first label: the
        # weak-discernibility pattern holds, but only through the labels
        def family(a, b):
            k = pair_operator(self.label, a, b, self.system)
            shift = 0 if a == b else a - 1
            return SlotOperator(k.block - shift * np.eye(len(k.block)),
                                k.slots)

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


class TestWrongMomentumIsCaught:
    """Relation C with a wrong P_a must not certify."""

    @staticmethod
    def momentum(lowering):
        """The one P (``schwartz._momentum``) with its lowering block
        dropped (None), with factor e + lowering in place of e (0 is the
        true operator), or with its sign flipped ("flipped")."""
        def p(rows, coeffs, row, slot):
            re, im = coeffs
            up = rows.copy()
            up[row] += 1
            out_rows, out = [up], [np.stack([-im, re])]
            lower = rows[row] > 0
            if lowering is not None:
                down = rows[:, lower]
                down[row] -= 1
                f = down[row] + 1
                f = -f if lowering == "flipped" else f + lowering
                out_rows.append(down)
                out.append(np.stack([f * im[lower], -f * re[lower]]))
            return (np.concatenate(out_rows, axis=1),
                    np.concatenate(out, axis=1))
        return p

    @pytest.mark.parametrize("lowering, branch", [
        (0, None),
        # the raised rows cancel in [P_a, Q_a]: the image is zero
        (None, "commutator_zero"),
        # terms with e_a = 0 come out as -2i c, not -i c
        (1, "commutator_other"),
        # [P_a, Q_a] = +i
        ("flipped", "commutator_other"),
    ])
    def test_reflexivity_fails(self, monkeypatch, lowering, branch):
        monkeypatch.setattr(schwartz, "_momentum", self.momentum(lowering))
        report = certify_C(2, 1, 5, 4, 0)
        diagonal = [p["reflexive"] for p in report.pairs if p["a"] == p["b"]]
        assert all(p["off_diagonal_fails"] for p in report.pairs
                   if p["a"] != p["b"])
        batch = draw_wavefunctions(2, 4, 1, 5, 0)  # certify_C's draws
        holds, why = decide_C(batch.commutator_PQ(1, 1), batch.mul_minus_i())
        failed = [i for i, h in enumerate(holds) if not h]
        if branch is None:
            assert report.verdict == "weakly_discerning"
            assert all(diagonal) and not failed
        else:
            assert report.verdict == "violated"
            assert not any(diagonal)
            assert failed and {why(i) for i in failed} == {branch}
        # the public predicate runs the same pass
        for a in (1, 2):
            assert relation_C_holds(a, a, batch.unpack()) == (branch is None)
        # the patched P reaches each route on its own: the once-per-class
        # monomial proof, and the sampled route's slot views
        assert ccr_identity_on_monomials(1, 4, 1, 1) == (branch is None)
        import discernlab.discern as discern
        monkeypatch.setattr(discern, "ccr_identity_on_monomials",
                            lambda *args: True)
        sampled = certify_C(2, 1, 5, 4, 0)
        assert [p["reflexive"] for p in sampled.pairs if p["a"] == p["b"]] \
            == [branch is None] * 2


def dense_certify_T(n, two_s, sector, n_pure, n_mixed, rank, seed, tol=1e-8):
    """The dense route: N-body operators, dense states, all N! permutations.

    Draws the same states as certify_T, then decides every pair on the
    dense (S_a + S_b)^2 and the dense statistical operators.  Returns
    (pairs, permutation_invariant, spectrum) in the report's form.
    """
    label = SpinLabel(two_s)
    system = ParticleSystem(n, label.dim, sector)
    target = float(4 * label.casimir_value())
    slots = range(1, n + 1)
    ops = {(a, b): pair_total_spin_squared(label, a, b, system)
           for a in slots for b in slots}
    rng = np.random.default_rng(np.random.SeedSequence([seed, two_s, n]))
    pure = product_amplitudes(system, sample_states(system, n_pure, rng).flat)
    mixed = sample_states(system, n_mixed, rng, rank)
    states = [(f"pure[{i}]", np.outer(v, v.conj()), v)
              for i, v in enumerate(pure[:, 0])]
    mixed_flat = product_amplitudes(system, mixed.flat)
    for i, (f, w) in enumerate(zip(mixed_flat, mixed.weights)):
        states.append((f"mixed[{i}]", (f.T * w) @ f.conj(), None))

    def decide(k, w, psi):
        if psi is not None:
            kx = k @ psi
            value = psi.conj() @ kx
            residual = np.linalg.norm(kx - value * psi)
        else:
            kw = k @ w
            value = np.trace(kw) / np.trace(w)
            residual = np.linalg.norm(kw - value * w)
        if residual > tol:
            return False, "absent"
        if abs(value - target) <= tol * max(1.0, target):
            return True, None
        return False, f"value={value.real:.6g}"

    pairs = []
    for (a, b), k in ops.items():
        outcomes = [decide(k, w, psi) for _, w, psi in states]
        scalar = np.abs(k - target * np.eye(len(k))).max() <= tol
        pair = {"a": a, "b": b, "reflexive": None,
                "off_diagonal_fails": None, "witness": None}
        if a == b:
            pair["reflexive"] = bool(scalar and all(h for h, _ in outcomes))
        else:
            top = np.linalg.eigvalsh(k)[-1]
            proved = not scalar and top <= two_s * (two_s + 1) + tol \
                and top < target - tol
            pair["off_diagonal_fails"] = bool(
                proved and not any(h for h, _ in outcomes))
            pair["witness"] = next(
                (f"{name}:{branch}" for (name, _, _), (h, branch)
                 in zip(states, outcomes) if not h), None)
        pairs.append(pair)
    invariant = invariant_on_all_of_s_n(lambda a, b: ops[a, b], system, tol)
    evals = np.linalg.eigvalsh(ops[1, 2])
    levels = np.unique(np.round(evals, 6), return_counts=True)
    spectrum = [[float(evals[np.isclose(evals, lam, atol=1e-6)].mean()), int(c)]
                for lam, c in zip(*levels)]
    return pairs, invariant, spectrum


class TestBlockRouteOracle:
    """certify_T on pair blocks against the dense route, for N <= 5."""

    @pytest.mark.parametrize("n,two_s,sector", [
        (2, 1, "full"), (2, 1, "bose"), (2, 1, "fermi"), (2, 2, "fermi"),
        (3, 1, "full"), (3, 1, "bose"), (3, 2, "bose"), (3, 2, "fermi"),
        (4, 1, "full"), (4, 1, "bose"), (5, 1, "full"), (5, 1, "bose"),
    ])
    def test_pairs_witnesses_and_spectrum_match_dense_route(
            self, n, two_s, sector):
        report = certify_T(n, two_s, sector, n_pure_samples=6,
                           n_mixed_samples=3, mixed_rank=2, seed=n + two_s)
        rank = report.samples["mixed_rank"]
        pairs, invariant, spectrum = dense_certify_T(
            n, two_s, sector, 6, 3, rank, seed=n + two_s)
        assert report.pairs == pairs
        assert report.permutation_invariant == invariant is True
        assert [m for _, m in report.spectrum] == [m for _, m in spectrum]
        for (lam, _), (want, _) in zip(report.spectrum, spectrum):
            assert abs(lam - want) <= 1e-12
        assert report.verdict == "weakly_discerning"

    def test_eigenstate_witness_reads_its_value(self):
        # every bose state of two spin-1/2 particles is a triplet state
        pairs, _, _ = dense_certify_T(2, 1, "bose", 4, 2, 2, seed=0)
        report = certify_T(2, 1, "bose", 4, 2, 2, seed=0)
        assert report.pairs[1]["witness"] == pairs[1]["witness"] \
            == "pure[0]:value=2"


class TestOneImagePerPair:
    """The sampled route and the S_N check read one image per pair."""

    @staticmethod
    def count_block_products(monkeypatch):
        """Every block times unfolded samples, as (slots, shape) entries."""
        calls = []
        image = SlotOperator.image

        def counted(self, unfolded):
            calls.append((self.slots, unfolded.shape))
            return image(self, unfolded)

        monkeypatch.setattr(SlotOperator, "image", counted)
        return calls

    def test_T_applies_each_block_once_per_pair(self, monkeypatch):
        calls = self.count_block_products(monkeypatch)
        # 5 pure states of 3 spin-1/2 particles: 40 amplitudes, one piece
        report = certify_T(3, 1, n_pure_samples=5, n_mixed_samples=0)
        assert report.verdict == "weakly_discerning"
        assert report.permutation_invariant
        # one product, K_12's on the unfoldings of its class keys
        # stacked: K_12 is swap symmetric, so (a, b) and (b, a) share one
        # key, and the 3 unordered pairs are stacked.  4 S^2 is scalar,
        # so the 3 diagonal pairs share one key, decided as c psi on the
        # samples themselves, with no product.  K_{pi(a) pi(b)} is K_ab's
        # block on pi's image of its slots, so U_pi makes the S_N check
        # hold with no product
        assert calls == [((1, 2), (3 * 5, 2, 4))]

    def test_T_applies_distinct_blocks_once_per_generator(self, monkeypatch):
        import discernlab.discern as discern
        monkeypatch.setattr(discern, "pair_operator",
                            TestInvarianceIsNotVacuous().asymmetric(
                                swap_pair=None))
        calls = self.count_block_products(monkeypatch)
        report = certify_T(3, 1, n_pure_samples=5, n_mixed_samples=0)
        assert report.permutation_invariant
        # a block object per off-diagonal pair, so a key each: 6 passes
        # of one key.  The one key of the 3 diagonal pairs, whose block
        # 4 S^2 is scalar, takes no product, for the relation or the
        # check.  The rule cannot settle an off-diagonal pair, so its S_N
        # check forms K_ab psi once more and applies K_{pi(a) pi(b)} to
        # the unfolding of U_pi psi per generator
        assert len(calls) == 6 + 6 * (1 + 2)
        assert all(len(slots) == 2 for slots, _ in calls)

    @pytest.mark.parametrize("n,two_s,sector", [
        (2, 1, "bose"), (3, 1, "bose"), (4, 3, "fermi"), (12, 1, "bose")])
    def test_bose_and_fermi_apply_each_block_once_per_piece(
            self, monkeypatch, n, two_s, sector):
        calls = self.count_block_products(monkeypatch)
        # the pure and the mixed draw are one piece each
        report = certify_T(n, two_s, sector, n_pure_samples=5,
                           n_mixed_samples=2, mixed_rank=2)
        assert report.verdict == "weakly_discerning"
        # one K_12 product per piece; the scalar 4 S^2 is decided on the
        # sector coordinates themselves, and the S_N check takes none
        assert sorted(len(slots) for slots, _ in calls) == [2, 2]

    @staticmethod
    def count_C_kernel_calls(monkeypatch):
        """Every commutator kernel call, on a slot view whose owners are
        one term each, as (slots of the view, owners, terms, a, b)."""
        calls = []
        kernel = schwartz._commutator

        def counted(rows, coeffs, slots, minus_i):
            calls.append((len(rows) - 1, rows.shape[1], rows.shape[1])
                         + tuple(slots))
            return kernel(rows, coeffs, slots, minus_i)

        monkeypatch.setattr(schwartz, "_commutator", counted)
        return calls

    # certify_C(3, 0, 4, 3, seed=1)'s batch: 4 drawn wavefunctions and the
    # bosonic product state, then U_pi psi of the first 3 for each of the
    # 2 generators, 11 owners in all
    @staticmethod
    def batch_terms():
        batch = draw_wavefunctions(3, 3, 0, 4, 1)
        product = 2 ** 3  # (2 + q)^3 over the three slots
        return batch.rows.shape[1] + product + 2 * batch.head(3).rows.shape[1]

    def test_C_applies_the_kernel_once_per_pair(self, monkeypatch):
        calls = self.count_C_kernel_calls(monkeypatch)
        report = certify_C(3, 0, n_samples=4, max_degree=3, seed=1)
        assert report.verdict == "weakly_discerning"
        terms = self.batch_terms()
        # one pass for the 6 off-diagonal pairs on the 2-slot view, one
        # for the 3 diagonal pairs on the 1-slot view, each on every term
        # of the batch, the moved owners included; and the monomial proof
        # once per class, on the 16 or 4 monomials in q_1, q_2 of degree
        # at most 3: 2 passes and 2 proofs, not 9 and 9
        assert sorted(calls) == sorted([
            (2, 6 * terms, 6 * terms, 1, 2), (1, 3 * terms, 3 * terms, 1, 1),
            (2, 16, 16, 1, 2), (1, 4, 4, 1, 1)])

    @pytest.mark.parametrize("pairs_per_pass, off, diagonal", [
        (1, [1] * 6, [1] * 3), (2, [2] * 3, [2, 1]), (4, [4, 2], [3])])
    def test_C_passes_follow_the_budget(self, monkeypatch, pairs_per_pass,
                                        off, diagonal):
        import discernlab.discern as discern
        terms = self.batch_terms()
        monkeypatch.setattr(discern, "BATCH_TERMS",
                            pairs_per_pass * terms + terms - 1)
        calls = self.count_C_kernel_calls(monkeypatch)
        certify_C(3, 0, n_samples=4, max_degree=3, seed=1)
        # (slots of the view, pairs in the pass), per pass
        passes = [(n, owners // terms) for n, owners, _, _, _ in calls
                  if owners >= terms]
        assert sorted(passes) == sorted([(1, k) for k in diagonal]
                                        + [(2, k) for k in off])
        assert len(calls) == len(passes) + 2

    # the c-exact cell of 3 particles (about 2000 terms, one pair per
    # pass), the n-scale C cell (all pairs of a class in one pass), and
    # that cell at 5 pairs per pass, whose off-diagonal passes interleave
    # with the diagonal one
    @pytest.mark.parametrize("n,samples,degree,pairs_per_pass,sizes", [
        (3, 200, 8, None, [1] * 9), (4, 10, 4, None, [4, 12]),
        (4, 10, 4, 5, [4, 5, 5, 2])])
    def test_C_reads_each_pass_before_the_next(
            self, monkeypatch, n, samples, degree, pairs_per_pass, sizes):
        import discernlab.discern as discern
        # ("pass", its pairs, ids of its residuals) or ("read", an id)
        events, held, terms = [], [], []
        ccr_residuals, is_zero = TermBatch.ccr_residuals, TermBatch.is_zero

        def recorded(self, pairs):
            residuals = ccr_residuals(self, pairs)
            if self.two_s:  # the monomial proofs are spin 0
                terms.append(self.rows.shape[1])
                held.extend(residuals)  # so that no id is reused
                events.append(("pass", list(pairs),
                               {id(r) for r in residuals}))
            return residuals

        def read(self):
            events.append(("read", id(self), None))
            return is_zero(self)

        monkeypatch.setattr(TermBatch, "ccr_residuals", recorded)
        monkeypatch.setattr(TermBatch, "is_zero", read)
        if pairs_per_pass:
            batch = draw_wavefunctions(n, degree, 1, samples, 3)
            size = batch.rows.shape[1] + 2 * batch.head(3).rows.shape[1]
            monkeypatch.setattr(discern, "BATCH_TERMS",
                                pairs_per_pass * size)
        report = certify_C(n, 1, samples, degree, 3)
        assert report.verdict == "weakly_discerning"
        per_pass = max(1, discern.BATCH_TERMS // terms[0])
        chunks = [pairs for kind, pairs, _ in events if kind == "pass"]
        slots = range(1, n + 1)
        for diagonal in (True, False):
            mine = [c for c in chunks if (c[0][0] == c[0][1]) == diagonal]
            # pair order within the class, per_pass pairs a pass
            assert [pair for c in mine for pair in c] == [
                (a, b) for a in slots for b in slots if (a == b) == diagonal]
            assert all(len(c) == per_pass for c in mine[:-1])
            assert 1 <= len(mine[-1]) <= per_pass
        # passes in the order of their first pairs
        assert [c[0] for c in chunks] == sorted(c[0] for c in chunks)
        # every residual of a pass is read before the next pass runs, and
        # none of an earlier pass after it
        ran, unread = set(), set()
        for kind, what, residuals in events:
            if kind == "pass":
                assert not unread
                ran |= residuals
                unread, current = set(residuals), residuals
            elif what in ran:
                assert what in current
                unread.discard(what)
        assert not unread
        assert [len(c) for c in chunks] == sizes


class TestPasses:
    """The one pass planner of both routes."""

    def test_groups_fill_in_key_order(self):
        keys = ["a1", "b1", "a2", "a3", "b2", "a4", "b3"]
        assert passes(keys, lambda key: key[0], 2) == [
            ["a1", "a2"], ["b1", "b2"], ["a3", "a4"], ["b3"]]

    def test_one_key_per_pass_keeps_key_order(self):
        keys = [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert passes(keys, lambda pair: pair[0] == pair[1], 1) == [
            [(1, 1)], [(1, 2)], [(2, 1)], [(2, 2)]]

    def test_no_keys_no_passes(self):
        assert passes([], len, 4) == []


class TestClassPass:
    """Relation T decided per class key, many keys of a block per pass."""

    @staticmethod
    def pieces(system, seed, entries):
        """certify_T's draws: pure, then rank-2 mixed, split into pieces."""
        rng = np.random.default_rng(seed)
        rank = min(2, sector_dimension(system))
        drawn = [sample_states(system, 7, rng),
                 sample_states(system, 5, rng, rank)]
        return [piece for batch in drawn for piece in batch.split(entries)]

    # fermi needs d = 2s + 1 > N for more than one state
    @pytest.mark.parametrize("sector", ["full", "bose", "fermi"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("entries", [1, 200, 4096])
    def test_every_pair_reads_its_own_kernel(self, monkeypatch, sector, n,
                                             entries):
        import discernlab.discern as discern
        two_s = n if sector == "fermi" else 1
        label = SpinLabel(two_s)
        system = ParticleSystem(n, label.dim, sector)
        monkeypatch.setattr(discern, "BATCH_ENTRIES", entries)
        batches = self.pieces(system, n, entries)
        # the pass's value and residual per pair, in place of a summary
        monkeypatch.setattr(discern, "decide_T",
                            lambda value, residual, target, tol:
                            (value, residual))
        monkeypatch.setattr(discern, "summarize",
                            lambda decision, name: decision)
        family = lambda a, b: pair_operator(label, a, b, system)  # noqa: E731
        route = sampled_route_T(family, batches, 0.0, 1e-8, str)

        def kernel(k, unfolded=False):
            """value and residual of k on every piece, one at a time: of
            a c 1 block as c psi on the piece itself, unless unfolded."""
            want = [eigen_residuals(k.block[0, 0] * piece.flat, piece)
                    if is_scalar(k.block) and not unfolded
                    else block_kernel(k, piece.unfold(k.slots))
                    for piece in batches]
            return (np.concatenate([v for v, _ in want]),
                    np.concatenate([r for _, r in want]))

        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
        decided, invariant = route(pairs, Permutation.generators(n))
        assert invariant
        for (a, b), (value, residual) in zip(pairs, decided, strict=True):
            # the full sector reads its key's first pair: (1, 1) for the
            # scalar 4 S^2, (min, max) for the swap-symmetric K_12.  A
            # bose or fermi pair's unfolding is every pair's.  4 S^2 is
            # read as c psi on the samples in every sector
            first = family(*((1, 1) if a == b else sorted((a, b)))) \
                if sector == "full" else family(a, b)
            want_value, want_residual = kernel(first)
            assert np.array_equal(value, want_value)
            assert np.array_equal(residual, want_residual)
            own_value, own_residual = kernel(family(a, b), True)
            scale = 1e-12 * np.maximum(1.0, np.abs(own_value))
            assert np.all(np.abs(value - own_value) <= scale)
            assert np.all(np.abs(residual - own_residual) <= scale)

    @pytest.mark.parametrize("n,two_s,sector", [
        (2, 1, "full"), (3, 1, "full"), (4, 2, "full"), (6, 1, "full"),
        (3, 1, "bose"), (6, 1, "bose"), (4, 3, "fermi")])
    def test_reports_do_not_depend_on_the_budget(self, monkeypatch, n,
                                                 two_s, sector):
        import discernlab.discern as discern

        def report():
            return json.dumps(asdict(certify_T(
                n, two_s, sector, n_pure_samples=9, n_mixed_samples=4,
                mixed_rank=2, seed=n)), sort_keys=True)

        want = report()
        for entries in (1, 2 ** 16):
            monkeypatch.setattr(discern, "BATCH_ENTRIES", entries)
            assert report() == want

    # 5 pure states of 3 spin-1/2 particles: 40 amplitudes, one piece
    # (all keys of a block in one pass: TestOneImagePerPair).  A block's
    # keys are passed in the order of their first pairs, in
    # certify_relation's order: the first pass holds the keys {1, 2}
    # and {1, 3}, which (2, 1) and (3, 1) read too, and the next the key
    # {2, 3}.  The one key of the diagonal pairs, first at (1, 1), is
    # scalar and takes no product
    @pytest.mark.parametrize("entries, passes", [
        (40, [(2, 1)] * 3),
        (80, [(2, 2), (2, 1)])])
    def test_passes_follow_the_budget(self, monkeypatch, entries, passes):
        import discernlab.discern as discern
        monkeypatch.setattr(discern, "BATCH_ENTRIES", entries)
        calls = TestOneImagePerPair.count_block_products(monkeypatch)
        report = certify_T(3, 1, n_pure_samples=5, n_mixed_samples=0)
        assert report.verdict == "weakly_discerning"
        # (slots of the block, keys in the pass), per pass
        assert [(len(slots), shape[0] // 5) for slots, shape in calls] \
            == passes


class TestClassKey:
    """A pair's class key names its N-body operator; tested in place."""

    def test_certifier_blocks(self):
        for two_s in range(1, 21):
            single, k12 = SpinLabel(two_s).pair_blocks
            assert is_scalar(single)
            assert is_swap_symmetric(k12)
            assert not is_scalar(k12)

    def test_scalar_needs_equal_diagonal_and_nothing_off_it(self):
        assert is_scalar(np.zeros((4, 4), complex))
        assert is_scalar(np.eye(1) * 3)
        block = 3 * np.eye(4, dtype=complex)
        assert is_scalar(block)
        nudged = block.copy()
        nudged[2, 2] = np.nextafter(3.0, 4.0)
        assert not is_scalar(nudged)
        off = block.copy()
        off[0, 3] = 1e-300
        assert not is_scalar(off)

    def test_swap_symmetry_is_exact(self):
        _, k12 = SpinLabel(2).pair_blocks
        # row 1 is (m1, m2) = (1, 0) and row 3 its swap (0, 1): one ulp apart
        nudged = k12.copy()
        nudged[1, 1] = np.nextafter(nudged[1, 1].real, 9.0)
        assert not is_swap_symmetric(nudged)
        # the same block in column-major memory
        assert is_swap_symmetric(np.asfortranarray(k12))
        sz = np.diag([1.0, 0.0, -1.0])
        assert not is_swap_symmetric(k12 + np.kron(sz, np.eye(3)))
        assert is_swap_symmetric(k12 + np.kron(sz, sz))

    def test_2s_63_is_tested_with_no_copy_of_the_block(self):
        # K_12 at 2s = 63 holds 256 MiB; a swapped copy would double it
        single, k12 = SpinLabel(63).pair_blocks
        tracemalloc.start()
        try:
            assert is_swap_symmetric(k12)
            assert not is_scalar(k12)
            assert is_scalar(single)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k12.nbytes // 256  # 1 MiB

    @staticmethod
    def decisions(monkeypatch, family):
        """The summary each pair of 3 particles reads, on 5 pure states
        in one piece, and the block products made."""
        calls = TestOneImagePerPair.count_block_products(monkeypatch)
        route = sampled_route_T(
            family, [sample_states(ParticleSystem(3, 2), 5, 0)], 3.0, 1e-8,
            str)
        pairs = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        decided, _ = route(pairs, Permutation.generators(3))
        return dict(zip(pairs, decided, strict=True)), calls

    @staticmethod
    def family(single, k12):
        """The certifier's family of spin-1/2 particles on these blocks."""
        return lambda a, b: (SlotOperator(single, (a,)) if a == b
                             else SlotOperator(k12, (a, b)))

    def test_certifier_family_shares_decisions(self, monkeypatch):
        single, k12 = SpinLabel(1).pair_blocks
        decided, calls = self.decisions(monkeypatch,
                                        self.family(single, k12))
        assert all(decided[a, a] is decided[1, 1] for a in (2, 3))
        assert all(decided[b, a] is decided[a, b]
                   for a, b in ((1, 2), (1, 3), (2, 3)))
        assert len({id(d) for d in decided.values()}) == 1 + 3
        assert calls == [((1, 2), (3 * 5, 2, 4))]

    def test_asymmetric_block_decides_each_ordered_pair(self, monkeypatch):
        single, k12 = SpinLabel(1).pair_blocks
        nudged = k12.copy()  # (+, -) at row 1, (-, +) at row 2
        nudged[1, 1] = np.nextafter(nudged[1, 1].real, 2.0)
        decided, calls = self.decisions(monkeypatch,
                                        self.family(single, nudged))
        assert len({id(decided[a, b]) for a in (1, 2, 3)
                    for b in (1, 2, 3) if a != b}) == 6
        assert all(decided[a, a] is decided[1, 1] for a in (2, 3))
        # one pass of the 6 ordered pairs' unfoldings, each its own key
        assert calls == [((1, 2), (6 * 5, 2, 4))]

    def test_non_scalar_diagonal_decides_each_slot(self, monkeypatch):
        single, k12 = SpinLabel(1).pair_blocks
        nudged = single.copy()
        nudged[1, 1] = np.nextafter(nudged[1, 1].real, 4.0)
        decided, calls = self.decisions(monkeypatch,
                                        self.family(nudged, k12))
        assert len({id(decided[a, a]) for a in (1, 2, 3)}) == 3
        assert sorted(calls) == [((1,), (3 * 5, 4, 2)),
                                 ((1, 2), (3 * 5, 2, 4))]

    # fermi needs d = 2s + 1 > N for more than one state
    @pytest.mark.parametrize("sector,two_s", [("full", 1), ("bose", 1),
                                              ("fermi", 3)])
    def test_scalar_key_makes_no_unfolding_and_no_product(
            self, monkeypatch, sector, two_s):
        # 4 S^2 is c 1: its pairs are decided on the samples' own
        # coordinates, as c psi
        label = SpinLabel(two_s)
        system = ParticleSystem(3, label.dim, sector)
        calls = TestOneImagePerPair.count_block_products(monkeypatch)
        unfold = StateBatch.unfold

        def counted(self, *slots):
            calls.append(("unfold", slots))
            return unfold(self, *slots)

        monkeypatch.setattr(StateBatch, "unfold", counted)
        route = sampled_route_T(
            lambda a, b: pair_operator(label, a, b, system),
            [sample_states(system, 5, 0)], 3.0, 1e-8, str)
        generators = Permutation.generators(3)
        route([(a, a) for a in range(1, 4)], generators)
        assert calls == []
        route([(1, 2)], generators)  # K_12 is unfolded and applied
        assert [len(call) for call in calls] == [2, 2]

    @pytest.mark.parametrize("sector,two_s", [("bose", 1), ("fermi", 3)])
    def test_non_scalar_diagonal_takes_the_product_in_sectors(
            self, monkeypatch, sector, two_s):
        # one ulp off c 1: unfolded on one slot and applied, one product
        # and one decision for every slot, as the unfolding is every slot's
        label = SpinLabel(two_s)
        system = ParticleSystem(3, label.dim, sector)
        single, k12 = label.pair_blocks
        nudged = single.copy()
        nudged[1, 1] = np.nextafter(nudged[1, 1].real, np.inf)
        calls = TestOneImagePerPair.count_block_products(monkeypatch)
        route = sampled_route_T(
            self.family(nudged, k12), [sample_states(system, 5, 0)],
            float(4 * label.casimir_value()), 1e-8, str)
        decided, _ = route([(a, a) for a in range(1, 4)],
                           Permutation.generators(3))
        assert all(d is decided[0] for d in decided)
        rest = sector_dimension(system, n_particles=2)
        assert calls == [((1,), (5, rest, label.dim))]
        assert decided[0] == (True, True, None)

    def test_decision_is_freed_once_summarized(self, monkeypatch):
        # each Decision, with the value and residual it reads, is gone
        # before the next one is made, and the pass's arrays they view by
        # the time the route returns; only summaries are kept
        import discernlab.discern as discern
        made = []  # per Decision, weak references to what it holds
        decide_T = discern.decide_T

        def recorded(value, residual, target, tol):
            assert all(ref() is None for refs in made for ref in refs[:4])
            decision = decide_T(value, residual, target, tol)
            made.append([weakref.ref(x) for x in (
                *decision, value, residual, value.base, residual.base)])
            return decision

        monkeypatch.setattr(discern, "decide_T", recorded)
        single, k12 = SpinLabel(1).pair_blocks
        route = sampled_route_T(
            self.family(single, k12),
            [sample_states(ParticleSystem(3, 2), 5, 0)], 3.0, 1e-8, str)
        pairs = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        summaries, _ = route(pairs, Permutation.generators(3))
        assert [summary[0] for summary in summaries] == [
            a == b for a, b in pairs]
        assert all(ref() is None for refs in made for ref in refs)
        assert len(made) == 1 + 3

    @staticmethod
    def report(route):
        report = DiscernibilityReport(
            relation="T", mode="mixed_sampling", n_particles=3, two_s=1,
            sector="full", samples={}, seed=0, tolerances={})
        return certify_relation(report, lambda a, b: True, route)

    def test_witnesses_equal_a_run_that_keeps_every_decision(
            self, monkeypatch):
        # full sector: (1, 2) and (2, 1) read one summary, (1, 3) and
        # (3, 1) another.  Keeping every Decision alive changes no pair
        import discernlab.discern as discern
        single, k12 = SpinLabel(1).pair_blocks

        def report():
            return self.report(sampled_route_T(
                self.family(single, k12),
                [sample_states(ParticleSystem(3, 2), 5, 0)], 3.0, 1e-8,
                lambda i: f"pure[{i}]"))

        freed = report()
        assert freed.verdict == "weakly_discerning"
        kept = []
        decide_T = discern.decide_T
        monkeypatch.setattr(discern, "decide_T", lambda *args: (
            kept.append(decide_T(*args)) or kept[-1]))
        assert report().pairs == freed.pairs
        assert len(kept) == 1 + 3

    def test_a_reused_id_never_reads_another_decision(self):
        # every pair gets a fresh Decision, dropped once summarized, so
        # later ones may reuse its ids: each witness must be its own
        def decide(a, b):
            holds = np.array([a == b, a == b, (a, b) == (1, 2)])
            return summarize((holds, lambda i: f"{a}{b}"),
                             lambda i: f"pure[{i}]")

        report = self.report(lambda pairs, generators: (
            [decide(a, b) for a, b in pairs], True))
        assert [p["witness"] for p in report.pairs if p["a"] != p["b"]] == [
            f"pure[0]:{a}{b}" for a in range(1, 4) for b in range(1, 4)
            if a != b]
        assert [p["off_diagonal_fails"] for p in report.pairs
                if p["a"] != p["b"]] == [False] + [True] * 5

    # fermi needs d = 2s + 1 > N for more than one state
    @pytest.mark.parametrize("sector,two_s,made", [
        ("full", 1, 1 + 3), ("bose", 1, 2), ("fermi", 3, 2)])
    def test_each_decision_is_summarized_once(self, monkeypatch, sector,
                                              two_s, made):
        # one Decision per class key of a cell, pure and mixed draws
        # alike, and each summarized exactly once
        import discernlab.discern as discern
        decisions, summarized = [], []
        decide_T, summarize_ = discern.decide_T, discern.summarize
        monkeypatch.setattr(discern, "decide_T", lambda *args: (
            decisions.append(decide_T(*args)) or decisions[-1]))
        monkeypatch.setattr(discern, "summarize", lambda decision, name: (
            summarized.append(decision) or summarize_(decision, name)))
        report = certify_T(3, two_s, sector, n_pure_samples=5,
                           n_mixed_samples=3)
        assert report.verdict == "weakly_discerning"
        assert len(decisions) == made
        assert len(summarized) == made
        assert all(s is d for s, d in zip(summarized, decisions))

    def test_six_particles_make_16_decisions_per_piece(self, monkeypatch):
        import discernlab.discern as discern
        decided, rows = [], []
        decide_T, residuals = discern.decide_T, discern.eigen_residuals
        monkeypatch.setattr(discern, "decide_T", lambda *args: (
            decided.append(args) or decide_T(*args)))
        monkeypatch.setattr(discern, "eigen_residuals", lambda image, phi: (
            rows.append(len(phi.weights)) or residuals(image, phi)))
        # 64 amplitudes a state: 100 pure states in 2 pieces, 20 mixed
        # rank-2 ones in 1, each piece its own pass per key
        report = certify_T(6, 1, "full", seed=1)
        assert report.verdict == "weakly_discerning"
        assert len(decided) == 1 + 6 * 5 // 2
        assert sorted(rows) == sorted([64] * 16 + [36] * 16 + [20] * 16)


class TestCertificateIsNotVacuous:
    """certify_T's operator route reads the integer bands, and no eigh."""

    @staticmethod
    def corrupt(monkeypatch, band, index):
        """pair_bands with entry index of one band off by one."""
        import discernlab.spin as spin
        bands = spin.pair_bands

        def wrong(two_s):
            out = bands(two_s)
            out[band][index] += 1
            return out
        monkeypatch.setattr(spin, "pair_bands", wrong)

    # band 1 is 4 K_12's diagonal, band 2 its off-diagonal products
    @pytest.mark.parametrize("band,index", [(1, 4), (2, 1)])
    def test_wrong_pair_band_is_violated(self, monkeypatch, band, index):
        self.corrupt(monkeypatch, band, index)
        report = certify_T(3, 2, n_pure_samples=3, n_mixed_samples=1)
        assert report.verdict == "violated"
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert len(off) == 6 and not any(p["off_diagonal_fails"] for p in off)
        assert all(p["reflexive"] for p in report.pairs if p["a"] == p["b"])
        assert report.spectrum == []
        assert relation_T_holds(1, 1, ALL_STATES, SpinLabel(2),
                                ParticleSystem(3, 3))

    def test_wrong_single_band_is_not_reflexive(self, monkeypatch):
        self.corrupt(monkeypatch, 0, 1)
        report = certify_T(3, 2, n_pure_samples=3, n_mixed_samples=1)
        assert report.verdict == "violated"
        assert not any(p["reflexive"] for p in report.pairs
                       if p["a"] == p["b"])
        assert not relation_T_holds(1, 1, ALL_STATES, SpinLabel(2),
                                    ParticleSystem(3, 3))

    def test_no_lapack_call_decides_T(self, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("LAPACK eigensolver called")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, banned)
        for n, two_s, sector in ((2, 1, "full"), (3, 2, "bose"),
                                 (4, 3, "fermi")):
            report = certify_T(n, two_s, sector, n_pure_samples=3,
                               n_mixed_samples=2, mixed_rank=2)
            assert report.verdict == "weakly_discerning"
        label, system = SpinLabel(1), ParticleSystem(2, 2)
        assert relation_T_holds(1, 1, ALL_STATES, label, system)
        assert not relation_T_holds(1, 2, ALL_STATES, label, system)


class TestInvarianceIsNotVacuous:
    """The state check catches a block applied on the wrong slots."""

    def asymmetric(self, swap_pair):
        """K_ab plus S_z on slot a only, optionally misplaced on one pair."""
        def build(lab, a, b, system):
            k = pair_operator(lab, a, b, system)
            if a == b:
                return k
            sz = np.diag(lab.two_s / 2 - np.arange(lab.dim))
            block = k.block + np.kron(sz, np.eye(lab.dim))
            slots = (b, a) if (a, b) == swap_pair else (a, b)
            return SlotOperator(block, slots)
        return build

    def test_misplaced_asymmetric_block_breaks_invariance(self, monkeypatch):
        import discernlab.discern as discern
        monkeypatch.setattr(discern, "pair_operator",
                            self.asymmetric(swap_pair=(1, 2)))
        for n in (2, 3, 4):
            report = certify_T(n, 1, n_pure_samples=3, n_mixed_samples=1)
            assert not report.permutation_invariant
            assert report.verdict == "violated"

    def test_correctly_placed_asymmetric_block_is_invariant(self, monkeypatch):
        import discernlab.discern as discern
        monkeypatch.setattr(discern, "pair_operator",
                            self.asymmetric(swap_pair=None))
        for n in (2, 3, 4):
            report = certify_T(n, 1, n_pure_samples=3, n_mixed_samples=1)
            assert report.permutation_invariant


    # (N, 2s) per sector: fermi needs d = 2s + 1 >= N
    @pytest.mark.parametrize("sector,two_s", [("bose", 1), ("fermi", 3)])
    def test_misplaced_block_breaks_invariance_in_sectors(
            self, monkeypatch, sector, two_s):
        import discernlab.discern as discern
        monkeypatch.setattr(discern, "pair_operator",
                            self.asymmetric(swap_pair=(1, 2)))
        for n in (2, 3, 4):
            report = certify_T(n, two_s, sector, n_pure_samples=3,
                               n_mixed_samples=1)
            assert not report.permutation_invariant
            assert report.verdict == "violated"

    @pytest.mark.parametrize("sector,two_s", [("bose", 1), ("fermi", 3)])
    def test_correctly_placed_block_is_invariant_in_sectors(
            self, monkeypatch, sector, two_s):
        import discernlab.discern as discern
        monkeypatch.setattr(discern, "pair_operator",
                            self.asymmetric(swap_pair=None))
        for n in (2, 3, 4):
            report = certify_T(n, two_s, sector, n_pure_samples=3,
                               n_mixed_samples=1)
            assert report.permutation_invariant


    @pytest.mark.parametrize("sector,two_s", [
        ("full", 1), ("bose", 1), ("fermi", 3)])
    def test_block_on_another_pair_breaks_invariance(self, monkeypatch,
                                                     sector, two_s):
        # K_12 placed on slots (1, 3): the right block, the wrong pair
        import discernlab.discern as discern

        def build(lab, a, b, system):
            k = pair_operator(lab, a, b, system)
            return SlotOperator(k.block, (1, 3)) if (a, b) == (1, 2) else k

        monkeypatch.setattr(discern, "pair_operator", build)
        report = certify_T(3, two_s, sector, n_pure_samples=3,
                           n_mixed_samples=1)
        assert not report.permutation_invariant
        assert report.verdict == "violated"

    @pytest.mark.parametrize("sector,two_s", [
        ("full", 1), ("bose", 1), ("fermi", 3)])
    def test_rule_reads_the_block_s_own_slots(self, sector, two_s):
        # K_12 on slots (1, 3): (1 2) moves it to (2, 3), and K_21 is the
        # same block object on (2, 1), pi's image of the requested pair
        # but not of the block's slots, so the rule must not settle it
        label = SpinLabel(two_s)
        system = ParticleSystem(3, label.dim, sector)

        def family(a, b):
            k = pair_operator(label, a, b, system)
            return SlotOperator(k.block, (1, 3)) if (a, b) == (1, 2) else k

        batch = sample_states(system, 3, 0)
        route = sampled_route_T(family, [batch], 2.0, 1e-8, str)
        swap, _ = Permutation.generators(3)
        assert family(2, 1).block is family(1, 2).block
        assert not route([(1, 2)], [swap])[1]


class TestCInvarianceIsNotVacuous:
    """Relation C's S_N check compares two different pairs' images."""

    @staticmethod
    def on_passes(monkeypatch, fault):
        """Each pair's residual from the sampled batch's slot-local passes
        (``TermBatch.ccr_residuals``) replaced by fault(source, (a, b),
        residual), with residual the true one.  The monomial proofs,
        whose batches are spin 0, are left alone."""
        passes = TermBatch.ccr_residuals

        def wrong(self, pairs):
            residuals = passes(self, pairs)
            if self.two_s == 0:
                return residuals
            return [fault(self, pair, residual)
                    for pair, residual in zip(pairs, residuals)]

        monkeypatch.setattr(TermBatch, "ccr_residuals", wrong)

    @staticmethod
    def select(batch, keep):
        """The terms of batch where keep is true."""
        return TermBatch(batch.n_particles, batch.two_s, batch.n_owners,
                         batch.rows[:, keep], batch.coeffs[:, keep])

    def plus_psi(self, monkeypatch, pairs):
        """[P_a, Q_b] psi + psi on the given pairs."""
        def fault(source, pair, residual):
            return residual.plus(source) if pair in pairs else residual

        self.on_passes(monkeypatch, fault)

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_pair_set_breaks_invariance(self, monkeypatch, n):
        self.plus_psi(monkeypatch, {(1, 2), (2, 1)})
        report = certify_C(n, 1, n_samples=5, max_degree=4, seed=0)
        assert all(p["reflexive"] for p in report.pairs if p["a"] == p["b"])
        assert all(p["off_diagonal_fails"] for p in report.pairs
                   if p["a"] != p["b"])
        # the fault reaches (1, 2) and (2, 1) alone, whatever pass they
        # share with other pairs
        assert [p["witness"] for p in report.pairs if p["a"] != p["b"]] == [
            "wavefunction[0]:commutator_" +
            ("other" if {p["a"], p["b"]} == {1, 2} else "zero")
            for p in report.pairs if p["a"] != p["b"]]
        assert not report.permutation_invariant
        assert report.verdict == "violated"

    @pytest.mark.parametrize("pairs,made", [
        (set(), 2), ({(1, 2), (2, 1)}, 2 + 2), ({(1, 1)}, 2 + 1),
        ({(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}, 9)])
    def test_each_decision_is_summarized_once(self, monkeypatch, pairs,
                                              made):
        # one Decision per class whose image some pair has, plus one per
        # pair with a residual, each summarized once
        import discernlab.discern as discern
        self.plus_psi(monkeypatch, pairs)
        decisions, summarized = [], []
        decide_C, summarize_ = discern.decide_C, discern.summarize
        monkeypatch.setattr(discern, "decide_C", lambda *args: (
            decisions.append(decide_C(*args)) or decisions[-1]))
        monkeypatch.setattr(discern, "summarize", lambda decision, name: (
            summarized.append(decision) or summarize_(decision, name)))
        certify_C(3, 1, n_samples=5, max_degree=4, seed=0)
        assert len(decisions) == len(summarized) == made
        assert all(s[1] is d[1] for s, d in zip(summarized, decisions))

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_diagonal_pair_breaks_invariance(self, monkeypatch, n):
        # the S_N check reads a diagonal pair's own image, not -i psi
        self.plus_psi(monkeypatch, {(1, 1)})
        report = certify_C(n, 1, n_samples=5, max_degree=4, seed=0)
        assert [p["reflexive"] for p in report.pairs if p["a"] == p["b"]] \
            == [False] + [True] * (n - 1)
        assert not report.permutation_invariant

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_pair_alike_stays_invariant(self, monkeypatch, n):
        self.plus_psi(monkeypatch, {(a, b) for a in range(1, n + 1)
                                    for b in range(1, n + 1) if a != b})
        report = certify_C(n, 1, n_samples=5, max_degree=4, seed=0)
        assert report.permutation_invariant
        assert report.verdict == "weakly_discerning"

    def test_moved_owners_are_not_samples(self, monkeypatch):
        # on the 4 drawn and 2 * 3 moved owners, the moved owners' images
        # fail C on the diagonal and satisfy it off it: only the S_N check
        # reads them
        def fault(source, pair, residual):
            drawn = self.select(residual, residual.rows[0] < 4)
            minus_i_psi = self.select(source, source.rows[0] >= 4) \
                .mul_minus_i()
            if pair[0] == pair[1]:  # their images dropped: not -i psi
                return drawn.minus(minus_i_psi)
            return drawn.plus(minus_i_psi)  # their images -i psi

        self.on_passes(monkeypatch, fault)
        report = certify_C(3, 1, n_samples=4, max_degree=3, seed=1)
        assert all(p["reflexive"] for p in report.pairs if p["a"] == p["b"])
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert all(p["off_diagonal_fails"] for p in off)
        assert {p["witness"] for p in off} == \
            {"wavefunction[0]:commutator_zero"}
        assert not report.permutation_invariant


    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unmoved_owners_break_invariance(self, monkeypatch, n):
        # the owners meant to be U_pi psi left as psi: every image is its
        # class's image, and the diagonal class's two sides differ
        import discernlab.discern as discern

        def unmoved(batches):
            if len(batches) == 1 + len(Permutation.generators(n)):
                batches = [batches[0]] + [batches[0].head(
                    batches[1].n_owners)] * (len(batches) - 1)
            return stack(batches)

        monkeypatch.setattr(discern, "stack", unmoved)
        report = certify_C(n, 1, n_samples=4, max_degree=3, seed=1)
        assert all(p["reflexive"] for p in report.pairs if p["a"] == p["b"])
        assert all(p["off_diagonal_fails"] for p in report.pairs
                   if p["a"] != p["b"])
        assert not report.permutation_invariant
        assert report.verdict == "violated"


class TestNegativeControlsInSectors(TestNegativeControls):
    """The same controls on bose and fermi states of three particles.

    The sampled route decides on sector coordinates; the dense oracle
    still checks the families on the whole tensor space.
    """

    @pytest.fixture(autouse=True, params=[("bose", 1), ("fermi", 3)],
                    ids=["bose", "fermi"])
    def sector(self, request):
        sector, two_s = request.param
        self.label = SpinLabel(two_s)
        self.system = ParticleSystem(3, two_s + 1, sector)


SECTOR_SHAPES = [(3, 1, "bose"), (5, 1, "bose"), (4, 2, "bose"),
                 (6, 2, "bose"), (3, 3, "fermi"), (4, 4, "fermi"),
                 (4, 5, "fermi")]


class TestSectorKernelOracle:
    """The kernel on sector unfoldings against the d^N embedding."""

    @pytest.mark.parametrize("n,two_s,sector", SECTOR_SHAPES)
    @pytest.mark.parametrize("rank", [None, 3])
    def test_values_and_residuals_match_the_embedding(self, n, two_s, sector,
                                                      rank):
        label = SpinLabel(two_s)
        system = ParticleSystem(n, label.dim, sector)
        batch = sample_states(system, 4, n + two_s, rank)
        dense = StateBatch(product_amplitudes(system, batch.factors).reshape(
            batch.weights.shape + (label.dim,) * n), batch.weights)
        rng = np.random.default_rng(n + two_s)
        other = rng.standard_normal((label.dim ** 2,) * 2) + 0j
        # K_ab on ascending and descending slots, 4 S_a^2, and a block
        # with no symmetry under the swap of its slots
        for k in (pair_operator(label, 1, 2, system),
                  pair_operator(label, n, 1, system),
                  pair_operator(label, 2, 2, system),
                  SlotOperator(other, (n, 2)), SlotOperator(other, (1, n))):
            value, residual = block_kernel(k, batch.unfold(k.slots))
            want_value, want_residual = eigen_residuals(
                slot_apply(k, dense.vectors), dense)
            assert np.abs(value - want_value).max() <= 1e-12
            assert np.abs(residual - want_residual).max() <= 1e-12


class TestEigenResiduals:
    """The rank-one path, the general path and the dense oracle agree."""

    @staticmethod
    def dense(k, f, w):
        """value and residual of K on W = sum_k w_k |f_k><f_k|, from the
        statistical operator W / tr W, whose residual is tr W times less."""
        entries = sum(wk * np.outer(fk, fk.conj()) for wk, fk in zip(w, f))
        trace = np.trace(entries).real
        state = entries / trace
        kw = k @ state
        value = np.trace(kw)
        return value, trace * np.linalg.norm(kw - value * state)

    @pytest.mark.parametrize("weight", [1.0, 0.7, 2.5])
    def test_rank_one_equals_the_general_path_and_the_dense_oracle(
            self, weight):
        rng = np.random.default_rng(int(weight * 10))
        n, m = 9, 6
        # a block with complex values, and factors of any length
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = rng.standard_normal((m, 1, n)) + 1j * rng.standard_normal((m, 1, n))
        w = np.full((m, 1), weight)
        value, residual = eigen_residuals(f @ k.T, StateBatch(f, w))
        # the same states as rank 2, padded with a zero factor
        padded = StateBatch(np.concatenate([f, np.zeros_like(f)], axis=1),
                            np.concatenate([w, w / 2], axis=1))
        general = eigen_residuals(padded.factors @ k.T, padded)
        scale = 1e-12 * np.maximum(1.0, np.abs(value))
        assert np.all(np.abs(value - general[0]) <= scale)
        assert np.all(np.abs(residual - general[1]) <= scale)
        for i in range(m):
            want_value, want_residual = self.dense(k, f[i], w[i])
            assert abs(value[i] - want_value) <= scale[i]
            assert abs(residual[i] - want_residual) <= scale[i]

    @pytest.mark.parametrize("rank", [2, 3])
    def test_higher_ranks_equal_the_dense_oracle(self, rank):
        system = ParticleSystem(2, 3)
        batch = sample_states(system, 4, rank, rank)
        k = pair_operator(SpinLabel(2), 1, 2, system)
        value, residual = block_kernel(k, batch.unfold(k.slots))
        for i in range(4):
            want_value, want_residual = self.dense(
                k.block, batch.flat[i], batch.weights[i])
            assert abs(value[i] - want_value) <= 1e-12 * max(1, abs(value[i]))
            assert abs(residual[i] - want_residual) <= 1e-12

    def test_the_image_becomes_the_residual_factors(self):
        rng = np.random.default_rng(5)
        k = rng.standard_normal((4, 4)) + 0j
        f = rng.standard_normal((3, 1, 4)) + 1j * rng.standard_normal((3, 1, 4))
        image = f @ k.T
        value, _ = eigen_residuals(image, StateBatch(f, np.ones((3, 1))))
        assert np.abs(image - (f @ k.T - value[:, None, None] * f)).max() \
            <= 1e-12

    @pytest.mark.parametrize("rank", [1, 2])
    def test_a_batch_of_no_states(self, rank):
        batch = StateBatch(np.zeros((0, rank, 4), complex), np.ones((0, rank)))
        value, residual = eigen_residuals(np.zeros((0, rank, 4), complex),
                                          batch)
        assert value.shape == residual.shape == (0,)

    @pytest.mark.parametrize("sector,two_s", [("full", 1), ("bose", 1),
                                              ("fermi", 3)])
    def test_no_pure_samples_make_an_empty_piece(self, monkeypatch, sector,
                                                 two_s):
        import discernlab.discern as discern
        rows = []
        residuals = discern.eigen_residuals
        monkeypatch.setattr(discern, "eigen_residuals", lambda image, phi: (
            rows.append(len(phi.weights)) or residuals(image, phi)))
        report = certify_T(3, two_s, sector, n_pure_samples=0,
                           n_mixed_samples=3, mixed_rank=1)
        assert report.verdict == "weakly_discerning"
        assert 0 in rows


class TestSpinHalfBose:
    """A symmetric pair of spin-1/2 particles is a triplet, S = 1."""

    @pytest.mark.parametrize("n", [2, 3, 6, 40])
    def test_every_off_diagonal_witness_reads_value_2(self, n):
        report = certify_T(n, 1, "bose", n_pure_samples=6, n_mixed_samples=3,
                           seed=n)
        assert report.verdict == "weakly_discerning"
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert len(off) == n * (n - 1)
        assert {p["witness"] for p in off} == {"pure[0]:value=2"}
        # every sample, pure and mixed, is an eigenstate of K_ab with value 2
        label, system = SpinLabel(1), ParticleSystem(n, 2, "bose")
        for rank in (None, 2):
            batch = sample_states(system, 5, n, rank)
            k = pair_operator(label, n, 1, system)
            value, residual = block_kernel(k, batch.unfold(k.slots))
            assert np.abs(value - 2).max() <= 1e-12
            assert residual.max() <= 1e-12


class TestScale:
    @pytest.mark.parametrize("sector", ["full", "bose"])
    def test_twelve_spin_half_particles(self, sector):
        # dim 2^12 = 4096, the default dimension cap
        report = certify_T(12, 1, sector, n_pure_samples=4,
                           n_mixed_samples=2, mixed_rank=2, seed=1)
        assert report.verdict == "weakly_discerning"
        assert report.spectrum == [[0, 1024], [2, 3 * 1024]]
        assert all(type(x) is int for level in report.spectrum for x in level)
        off = [p for p in report.pairs if p["a"] != p["b"]]
        assert len(off) == 132 and all(p["off_diagonal_fails"] for p in off)

    def test_certify_T_builds_no_dense_operator(self, tmp_path):
        # in a fresh interpreter, so that no test's import counts: verify
        # for relation T in every sector and for relation C loads no
        # module that holds a dense d^N constructor
        import discernlab
        script = """if True:
            import sys
            from discernlab import cli
            runs = [["T", "--sector", sector, "--two-s", "2",
                     "--mixed-samples", "2"]
                    for sector in ("full", "bose", "fermi")]
            runs.append(["C", "--two-s", "1", "--max-degree", "4"])
            for i, run in enumerate(runs):
                code = cli.main(["verify", "--relation", *run,
                                 "--particles", "3", "--pure-samples", "5",
                                 "--out", f"run{i}.json"])
                assert code == cli.EXIT_OK, (run, code)
            assert "discernlab.matrix_core" not in sys.modules
            dense = ("Operator", "PureState", "MixedState", "kron",
                     "hermitian_eigensystem", "eigenvalue_levels",
                     "embed_at_slot", "permutation_unitary", "symmetrizer",
                     "spin_operators", "pair_total_spin_squared", "total_sz",
                     "coupled_basis", "clebsch_gordan")
            found = [f"{name}.{attr}" for name, module in sys.modules.items()
                     if name.split(".")[0] == "discernlab"
                     for attr in dense if hasattr(module, attr)]
            assert not found, found
        """
        src = str(Path(discernlab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_certify_T_never_embeds_sector_states(self, monkeypatch):
        import oracles

        def banned(*args, **kwargs):
            raise AssertionError("d^N oracle called")

        # the d^N oracles live in tests/oracles.py, out of the library's
        # reach; the library keeps no second route to a dense state
        for name in ("sector_basis", "product_amplitudes", "slot_apply"):
            monkeypatch.setattr(oracles, name, banned)
        from discernlab import multiparticle
        for name in ("sector_basis", "product_amplitudes"):
            assert not hasattr(multiparticle, name)
        assert not hasattr(SlotOperator, "apply")
        # 2^100 and 12^6 product amplitudes; 101 and 924 sector coordinates
        for n, two_s, sector in ((3, 1, "full"), (3, 1, "bose"),
                                 (3, 2, "fermi"), (100, 1, "bose"),
                                 (6, 11, "fermi")):
            report = certify_T(n, two_s, sector, n_pure_samples=3,
                               n_mixed_samples=2, mixed_rank=2)
            assert report.verdict == "weakly_discerning"
            assert report.spectrum[-1] == [two_s * (two_s + 1),
                                           (2 * two_s + 1) * (two_s + 1)
                                           ** (n - 2)]
