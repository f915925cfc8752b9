"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every criterion checks the certifier's own code: the pair blocks and the
integer certificate that certify_T decides on, the sampler, and the
public predicates on a StateBatch.  The dense constructions of
tests/oracles.py are only what it is compared against.
"""

import time

import numpy as np

from discernlab.cli import EXIT_OK, main
from discernlab.discern import eigenproperty, relation_T_holds
from discernlab.multiparticle import (
    ParticleSystem,
    StateBatch,
    sample_states,
    sector_dimension,
)
from discernlab.schwartz import (
    draw_wavefunctions,
    pack,
    symmetric_product_state,
)
from discernlab.spin import SpinLabel, pair_levels, pair_operator
from oracles import (
    all_permutations,
    clebsch_gordan_matrix,
    dense,
    embed_at_slot,
    pair_total_spin_squared,
    permutation_unitary,
    product_amplitudes,
    symmetrizer,
)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_reflexive_T_identity():
    t0 = time.time()
    ok = True
    for two_s in (1, 2, 3, 4):
        label = SpinLabel(two_s)
        system = ParticleSystem(2, label.dim)
        exact = two_s * (two_s + 2)  # 4 s(s+1)
        ok = ok and pair_levels(two_s)[0] == [(exact, label.dim)]
        for a in (1, 2):
            block = pair_operator(label, a, a, system).block
            ok = ok and np.array_equal(block, exact * np.eye(label.dim))
            want = pair_total_spin_squared(label, a, a, system)
            ok = ok and np.abs(embed_at_slot(block, a, system)
                               - want).max() <= 1e-9
    ok = ok and (time.time() - t0) < 1.0
    report("1 reflexive T identity", ok)


def test_criterion_2_off_diagonal_T_spectrum():
    t0 = time.time()
    ok = True
    for two_s in (1, 2, 3, 4):
        levels = pair_levels(two_s)[1]
        expected = [(S * (S + 1), 2 * S + 1) for S in range(two_s + 1)]
        ok = ok and levels == expected
        ok = ok and levels[-1][0] < two_s * (two_s + 2)  # 4 s(s+1)
        evals = np.linalg.eigvalsh(SpinLabel(two_s).pair_blocks[1])
        ok = ok and np.abs(evals - np.repeat(*zip(*expected))).max() <= 1e-8
    ok = ok and (time.time() - t0) < 5.0
    report("2 off-diagonal T spectrum", ok)


def test_criterion_3_full_T_certification(tmp_path):
    t0 = time.time()
    ok = True
    for n in (2, 3):
        for two_s in (1, 2):
            for sector in ("full", "bose", "fermi"):
                d = two_s + 1
                if sector == "fermi" and d < n:
                    continue  # empty sector, nothing to certify
                out = tmp_path / f"T_{n}_{two_s}_{sector}.json"
                code = main([
                    "verify", "--relation", "T",
                    "--particles", str(n), "--two-s", str(two_s),
                    "--sector", sector,
                    "--pure-samples", "1000", "--mixed-samples", "200",
                    "--mixed-rank", "1", "--seed", "17",
                    "--out", str(out)])
                ok = ok and code == EXIT_OK
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(f"3 full T certification ({elapsed:.1f}s)", ok)


def test_criterion_4_exact_C_certification():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        for two_s in (0, 1, 3):
            batches = [draw_wavefunctions(n, 8, two_s, 200, 1000)]
            if two_s == 0:
                # phi = 1 + q/3, scaled by 3
                batches.append(pack([symmetric_product_state(
                    {0: (3, 0), 1: (1, 0)}, n)]))
            for batch in batches:
                targets = batch.mul_minus_i().unpack()
                for a in range(1, n + 1):
                    if batch.commutator_PQ(a, a).unpack() != targets:
                        ok = False
                for a, b in ((1, 2), (2, 1), (1, n), (n, 1)):
                    if a == b:
                        continue
                    if not all(psi.is_zero() for psi
                               in batch.commutator_PQ(a, b).unpack()):
                        ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    report(f"4 exact C certification ({elapsed:.1f}s)", ok)


def test_criterion_5_clebsch_gordan_oracle():
    ok = True
    for two_s in (1, 2, 3, 5):
        label = SpinLabel(two_s)
        k12 = label.pair_blocks[1]
        labels, m = clebsch_gordan_matrix(label)
        for (two_S, _), column in zip(labels, m.T):
            S = two_S // 2
            ok = ok and np.linalg.norm(k12 @ column
                                       - S * (S + 1) * column) <= 1e-8
        ok = ok and np.abs(m.T @ m - np.eye(len(m))).max() <= 1e-9
    report("5 Clebsch-Gordan oracle equivalence", ok)


def test_criterion_6_symmetrizer_suite():
    ok = True
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            for sector, parity in (("bose", "+"), ("fermi", "-")):
                p = symmetrizer(ParticleSystem(n, d), parity)
                ok = ok and np.abs(p @ p - p).max() <= 1e-10
                ok = ok and np.abs(p - p.conj().T).max() <= 1e-10
                system = ParticleSystem(n, d, sector)
                sdim = sector_dimension(system)
                ok = ok and round(np.trace(p).real) == sdim
                for rank in (None, min(2, sdim)) if sdim else ():
                    batch = sample_states(system, 3, n * d, rank)
                    psi = product_amplitudes(system, batch.vectors)
                    ok = ok and np.abs(psi @ p.T - psi).max() <= 1e-10
    report("6 symmetrizer suite", ok)


def test_criterion_7_strpp_branch():
    label = SpinLabel(1)
    system = ParticleSystem(2, 2)
    # (|0,0> + |1,0>)/sqrt(2) from the Racah columns: the product |up, down>
    labels, m = clebsch_gordan_matrix(label)
    psi = (m[:, labels.index((0, 0))] + m[:, labels.index((2, 0))]) \
        / np.sqrt(2)
    batch = StateBatch(psi.reshape(1, 1, 2, 2) + 0j, np.ones((1, 1)))
    k = pair_operator(label, 1, 2, system)
    ok = eigenproperty(k, batch, 1e-8) == [None]
    ok = ok and not relation_T_holds(1, 2, batch, label, system)
    report("7 StrPP branch", ok)


def test_criterion_8_permutation_invariance():
    ok = True
    for d in (2, 3):
        label = SpinLabel(d - 1)
        system = ParticleSystem(3, d)
        ops = {(a, b): dense(pair_operator(label, a, b, system), system)
               for a in range(1, 4) for b in range(1, 4)}
        for pi in all_permutations(3):
            u = permutation_unitary(pi, system)
            for (a, b), k in ops.items():
                ok = ok and np.abs(
                    u @ k @ u.conj().T - ops[pi(a), pi(b)]).max() <= 1e-10
    report("8 permutation invariance", ok)
