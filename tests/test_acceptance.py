"""Acceptance suite: one test per criterion, one printed pass/fail line each."""

import math
import time

import numpy as np

from discernlab.cli import EXIT_OK, main
from discernlab.discern import eigenproperty, relation_T_holds
from discernlab.matrix_core import eigenvalue_levels
from discernlab.multiparticle import ParticleSystem, Permutation, \
    permutation_unitary, symmetrizer
from discernlab.schwartz import (
    draw_wavefunctions,
    pack,
    symmetric_product_state,
)
from discernlab.spin import (
    SpinLabel,
    clebsch_gordan,
    clebsch_gordan_matrix,
    coupled_basis,
    pair_total_spin_squared,
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
        k = pair_total_spin_squared(label, 1, 1, system)
        target = float(4 * label.casimir_value())
        diff = np.abs(k.entries - target * np.eye(k.dim)).max()
        ok = ok and diff <= 1e-9
    ok = ok and (time.time() - t0) < 1.0
    report("1 reflexive T identity", ok)


def test_criterion_2_off_diagonal_T_spectrum():
    t0 = time.time()
    ok = True
    for two_s in (1, 2, 3, 4):
        label = SpinLabel(two_s)
        system = ParticleSystem(2, label.dim)
        k = pair_total_spin_squared(label, 1, 2, system)
        levels = eigenvalue_levels(k)
        expected = [(S * (S + 1), 2 * S + 1) for S in range(two_s + 1)]
        ok = ok and len(levels) == len(expected)
        for (lam, mult), (lam_e, mult_e) in zip(levels, expected):
            ok = ok and abs(lam - lam_e) <= 1e-8 and mult == mult_e
        top = levels[-1][0]
        ok = ok and abs(top - two_s * (two_s + 1)) <= 1e-8
        ok = ok and top < float(4 * label.casimir_value())
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
    for two_s in (1, 2, 3):
        label = SpinLabel(two_s)
        d = label.dim
        for v in coupled_basis(label):
            for i1 in range(d):
                for i2 in range(d):
                    proj = v.vector.amplitudes[i1 * d + i2]
                    cg = clebsch_gordan(label, v.two_S, v.two_M,
                                        two_s - 2 * i1, two_s - 2 * i2)
                    ok = ok and abs(proj - cg) <= 1e-8
        m = clebsch_gordan_matrix(label)
        ok = ok and np.abs(m @ m.T - np.eye(d * d)).max() <= 1e-9
    report("5 Clebsch-Gordan oracle equivalence", ok)


def test_criterion_6_symmetrizer_suite():
    ok = True
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            system = ParticleSystem(n, d)
            for parity, count in (("+", math.comb(d + n - 1, n)),
                                  ("-", math.comb(d, n))):
                p = symmetrizer(system, parity).entries
                ok = ok and np.abs(p @ p - p).max() <= 1e-10
                ok = ok and np.abs(p - p.conj().T).max() <= 1e-10
                ok = ok and round(np.trace(p).real) == count
    for d in (2, 3):
        sys2 = ParticleSystem(2, d)
        total = symmetrizer(sys2, "+").entries + symmetrizer(sys2, "-").entries
        ok = ok and np.abs(total - np.eye(d * d)).max() <= 1e-10
    for d in (2, 3):
        sys3 = ParticleSystem(3, d)
        total = symmetrizer(sys3, "+").entries + symmetrizer(sys3, "-").entries
        ok = ok and np.abs(total - np.eye(d ** 3)).max() > 1e-6
    report("6 symmetrizer suite", ok)


def test_criterion_7_strpp_branch():
    label = SpinLabel(1)
    system = ParticleSystem(2, 2)
    vecs = coupled_basis(label)
    v00 = [v for v in vecs if (v.two_S, v.two_M) == (0, 0)][0]
    v10 = [v for v in vecs if (v.two_S, v.two_M) == (2, 0)][0]
    from discernlab.matrix_core import PureState
    psi = PureState((v00.vector.amplitudes + v10.vector.amplitudes)
                    / np.sqrt(2))
    k = pair_total_spin_squared(label, 1, 2, system)
    ok = eigenproperty(k, psi, 1e-8) is None
    ok = ok and not relation_T_holds(1, 2, psi, label, system)
    report("7 StrPP branch", ok)


def test_criterion_8_permutation_invariance():
    ok = True
    for d in (2, 3):
        label = SpinLabel(d - 1)
        system = ParticleSystem(3, d)
        ops = {}
        for a in range(1, 4):
            for b in range(1, 4):
                ops[(a, b)] = pair_total_spin_squared(label, a, b, system)
        for pi in Permutation.all(3):
            u = permutation_unitary(pi, system).entries
            for (a, b), k in ops.items():
                img = ops[(pi(a), pi(b))].entries
                ok = ok and np.abs(
                    u @ k.entries @ u.conj().T - img).max() <= 1e-10
    report("8 permutation invariance", ok)
