"""Executable discernibility predicates and certification.

Relation T: for all states, (S_a + S_b)^2 equals 4 s(s+1) hbar^2.
Relation C: for all wavefunctions, [P_a, Q_b] psi equals -i hbar psi.

Both are reflexive and fail between distinct particles, which is the
weak-discernibility pattern: the complement is irreflexive and
symmetric on distinct pairs.

One engine, ``certify_relation``, checks that pattern for either
relation.  Each universally quantified relation is decided two ways:
exactly, on the defining operator (scalar-identity / spectral check for
T, monomial basis check for C), and empirically, by seeded state
sampling that produces witness states.  Reports record both routes.
The per-sample decisions ``decide_T`` and ``decide_C`` are the ones the
public predicates ``relation_T_holds`` and ``relation_C_holds`` run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ArityError, DegenerateSpinError, EmptySectorError, ShapeError
from .matrix_core import (
    MixedState,
    Operator,
    PureState,
    TOL_ABS,
    eigenvalue_levels,
    is_scalar_identity,
)
from .multiparticle import (
    ParticleSystem,
    Permutation,
    conjugate_by_permutation,
    random_mixed_state,
    random_pure_state,
    sector_dimension,
)
from .schwartz import (
    SpinorWavefunction,
    commutator_PQ_apply,
    random_wavefunction,
    symmetric_product_state,
)
from .spin import SpinLabel, pair_total_spin_squared

ALL_STATES = "all"

VERDICT_PASS = "weakly_discerning"
VERDICT_FAIL = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

#: a relation decided on one sample: (holds, failure branch or None)
Decision = tuple[bool, Optional[str]]


def eigenproperty(a: Operator, state, tol: float = TOL_ABS) -> Optional[complex]:
    """The possessed value of magnitude A in the given state, if any.

    A pure state possesses <A, v> iff it is an eigenstate: the candidate
    value is the expectation and possession requires ||A psi - v psi||
    <= tol.  Mixed states analogously with A W = v W, in the Frobenius
    norm, which on a projector |psi><psi| equals the pure-state norm.
    Returns None when the state is no eigenstate (no eigenstate, no
    property).
    """
    if not isinstance(state, (PureState, MixedState)):
        raise ShapeError(f"unsupported state type {type(state)!r}")
    if a.dim != state.dim:
        raise ShapeError(f"dim mismatch {a.dim} vs {state.dim}")
    pure = isinstance(state, PureState)
    x = state.amplitudes if pure else state.entries
    ax = a.entries @ x
    v = complex(x.conj() @ ax) if pure else complex(np.trace(ax) / np.trace(x))
    # the 2-norm of a vector, the Frobenius norm of a matrix
    if np.linalg.norm(ax - v * x) <= tol:
        return v
    return None


def decide_T(k: Operator, state, target: float, tol: float) -> Decision:
    """Relation T on one state, for the pair operator k: (holds, branch).

    T holds when the state possesses a value of k within
    tol * max(1, target) of the target.  On failure the branch says why:
    "absent" when the state has no eigenproperty (the converse
    possession principle), otherwise "value=..." with the possessed value.
    """
    v = eigenproperty(k, state, tol)
    if v is None:
        return False, "absent"
    if abs(v - target) <= tol * max(1.0, target):
        return True, None
    return False, f"value={v.real:.6g}"


def relation_T_holds(a: int, b: int, state, label: SpinLabel,
                     system: ParticleSystem, tol: float = 1e-8) -> bool:
    """The total-spin relation at the target value 4 s(s+1) hbar^2.

    state may be a PureState, a MixedState, or ALL_STATES for the
    operator-level decision.  A state with no eigenproperty at all
    counts as failing (the converse possession principle), as does a
    present value differing from the target.
    """
    if label.two_s == 0:
        raise DegenerateSpinError("relation T is undefined for spin 0")
    k = pair_total_spin_squared(label, a, b, system)
    target = float(4 * label.casimir_value())
    if state == ALL_STATES:
        return is_scalar_identity(k, target, tol)
    return decide_T(k, state, target, tol)[0]


def decide_C(a: int, b: int, wf: SpinorWavefunction,
             target: SpinorWavefunction) -> Decision:
    """Relation C on one wavefunction: (holds, branch).

    target is -i wf, passed in so that a caller deciding many pairs on
    one wavefunction computes it once.  Exact, zero tolerance.
    """
    comm = commutator_PQ_apply(wf, a, b)
    if comm == target:
        return True, None
    return False, "commutator_zero" if comm.is_zero() else "commutator_other"


def relation_C_holds(a: int, b: int, psi) -> bool:
    """The commutator relation [P_a, Q_b] psi = -i hbar psi, exactly.

    psi may be a single spinor wavefunction or an iterable of them; the
    relation must hold for every member.  Decided in exact Gaussian-integer
    arithmetic, zero tolerance.
    """
    if isinstance(psi, SpinorWavefunction):
        psi = [psi]
    return all(decide_C(a, b, wf, wf.mul_minus_i())[0] for wf in psi)


def ccr_identity_on_monomials(n_particles: int, max_degree: int,
                              a: int, b: int) -> bool:
    """Prove the commutator identity on the degree-capped class.

    [P_a, Q_b] only touches the variables q_a and q_b and acts slotwise,
    so by linearity and factorization over untouched variables it
    suffices to check every monomial in q_a, q_b alone up to max_degree.
    Verifies [P_a, Q_a] m = -i m and [P_a, Q_b] m = 0 for a != b.
    """
    slots = sorted({a, b})
    for exps in np.ndindex(*([max_degree + 1] * len(slots))):
        mono = [0] * n_particles
        for slot, e in zip(slots, exps):
            mono[slot - 1] = e
        wf = SpinorWavefunction(n_particles, 0,
                                {tuple((0, e) for e in mono): (1, 0)})
        got = commutator_PQ_apply(wf, a, b)
        if not (got == wf.mul_minus_i() if a == b else got.is_zero()):
            return False
    return True


def permutation_invariance_check(op_family, pi: Permutation,
                                 system: ParticleSystem,
                                 tol: float = TOL_ABS) -> bool:
    """U_pi K_ab U_pi^dagger = K_{pi(a) pi(b)} for every ordered pair.

    The conjugation is a transpose of K_ab's slot axes, so it adds no
    rounding to the comparison.
    """
    n = system.n_particles
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            k_img = conjugate_by_permutation(op_family(a, b), pi, system)
            k_want = op_family(pi(a), pi(b)).entries
            if float(np.abs(k_img.entries - k_want).max()) > tol:
                return False
    return True


@dataclass
class DiscernibilityReport:
    """Certification verdict with per-pair evidence."""

    relation: str
    mode: str
    n_particles: int
    two_s: int
    sector: str
    samples: dict
    seed: int
    tolerances: dict
    pairs: list = field(default_factory=list)
    permutation_invariant: bool = False
    spectrum: list = field(default_factory=list)
    verdict: str = VERDICT_INCONCLUSIVE

    def compute_verdict(self) -> str:
        reflexive_ok = all(p["reflexive"] for p in self.pairs if p["a"] == p["b"])
        off_diag = [p for p in self.pairs if p["a"] != p["b"]]
        off_ok = bool(off_diag) and all(p["off_diagonal_fails"] for p in off_diag)
        if reflexive_ok and off_ok and self.permutation_invariant:
            self.verdict = VERDICT_PASS
        else:
            self.verdict = VERDICT_FAIL
        return self.verdict

    def to_dict(self) -> dict:
        return asdict(self)


def certify_relation(
        report: DiscernibilityReport, samples: list,
        operator_route: Callable[[int, int], bool],
        pair_check: Callable[[int, int], Callable[[object], Decision]],
        invariant: Callable[[Permutation], bool]) -> DiscernibilityReport:
    """Check one relation for the weak-discernibility pattern; fill report.

    The relation is given by three callables:

    * operator_route(a, b): for a == b, whether the operator route proves
      the relation on every state; for a != b, whether it proves that
      the relation fails on every state;
    * pair_check(a, b): the per-sample decision for the pair, a function
      from one sample to (holds, failure branch);
    * invariant(pi): whether the relation is invariant under pi.

    samples are (name, sample) pairs.  A diagonal pair is reflexive when
    both routes say the relation holds; an off-diagonal pair fails when
    the operator route proves it and no sample satisfies the relation.
    Its witness is the first sample on which the relation fails.

    Permutation invariance is checked on the two generators of S_N
    (``Permutation.generators``): the transposition (1 2) and the N-cycle
    (1 2 ... N), not all N! elements.  pi acts through a representation,
    U_pi on the tensor space for T and slot relabeling for C, so
    invariance is closed under composition: if it holds for sigma and
    for pi, then U_pi U_sigma K_ab U_sigma^dagger U_pi^dagger =
    U_pi K_{sigma(a) sigma(b)} U_pi^dagger = K_{pi sigma(a), pi sigma(b)}.
    Every element of S_N is a word in the two generators, so the two
    checks cover S_N; a word of length L deviates by at most L * tol.
    For C the check samples the operator identity on a few
    wavefunctions; the monomial route proves [P_a, Q_b] itself exactly.
    """
    n = report.n_particles
    names = [name for name, _ in samples]
    states = [sample for _, sample in samples]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            proved = operator_route(a, b)
            check = pair_check(a, b)
            outcomes = [check(sample) for sample in states]
            pair = {"a": a, "b": b, "reflexive": None,
                    "off_diagonal_fails": None, "witness": None}
            if a == b:
                pair["reflexive"] = bool(
                    proved and all(holds for holds, _ in outcomes))
            else:
                pair["off_diagonal_fails"] = bool(
                    proved and not any(holds for holds, _ in outcomes))
                pair["witness"] = next(
                    (f"{name}:{branch}"
                     for name, (holds, branch) in zip(names, outcomes)
                     if not holds), None)
            report.pairs.append(pair)
    report.permutation_invariant = all(
        invariant(pi) for pi in Permutation.generators(n))
    report.compute_verdict()
    return report


def certify_T(n_particles: int, two_s: int, sector: str = "full",
              n_pure_samples: int = 100, n_mixed_samples: int = 20,
              mixed_rank: int = 2, seed: int = 0,
              tol: float = 1e-8) -> DiscernibilityReport:
    """Full weak-discernibility certification of the total-spin relation."""
    if n_particles < 2:
        raise ArityError("need at least two particles to discern")
    if two_s < 1:
        raise DegenerateSpinError("relation T is undefined for spin 0")
    label = SpinLabel(two_s)
    system = ParticleSystem(n_particles, label.dim, sector)
    sdim = sector_dimension(system)
    if sdim < 1:
        raise EmptySectorError(
            f"the {sector} sector of {n_particles} particles with "
            f"2s={two_s} is empty")
    target = float(4 * label.casimir_value())
    # largest eigenvalue off-diagonal: S(S+1) at S = 2s, exactly 2s(2s+1)
    max_allowed = float(two_s * (two_s + 1))
    rank = min(mixed_rank, sdim)

    report = DiscernibilityReport(
        relation="T",
        mode="mixed_sampling",
        n_particles=n_particles,
        two_s=two_s,
        sector=sector,
        samples={"pure": n_pure_samples, "mixed": n_mixed_samples,
                 "mixed_rank": rank},
        seed=seed,
        tolerances={"tol": tol, "tol_abs": TOL_ABS},
    )

    operators = {(a, b): pair_total_spin_squared(label, a, b, system)
                 for a in range(1, n_particles + 1)
                 for b in range(1, n_particles + 1)}
    rng = np.random.default_rng(np.random.SeedSequence([seed, two_s, n_particles]))
    samples = [(f"pure[{i}]", random_pure_state(system, rng))
               for i in range(n_pure_samples)]
    samples += [(f"mixed[{i}]", random_mixed_state(system, rank, rng))
                for i in range(n_mixed_samples)]

    def operator_route(a: int, b: int) -> bool:
        k = operators[(a, b)]
        if a == b:
            return is_scalar_identity(k, target, tol)
        # not a scalar, and spectrally bounded away from the target
        top = eigenvalue_levels(k)[-1][0]
        return not is_scalar_identity(k, target, tol) \
            and top <= max_allowed + tol and top < target - tol

    def pair_check(a: int, b: int):
        k = operators[(a, b)]
        return lambda state: decide_T(k, state, target, tol)

    def family(a: int, b: int) -> Operator:
        return operators[(a, b)]

    certify_relation(
        report, samples, operator_route, pair_check,
        lambda pi: permutation_invariance_check(family, pi, system, tol))
    report.spectrum = [[lam, mult]
                       for lam, mult in eigenvalue_levels(operators[(1, 2)])]
    return report


def certify_C(n_particles: int, two_s: int = 0, n_samples: int = 200,
              max_degree: int = 8, seed: int = 0) -> DiscernibilityReport:
    """Exact symbolic certification of the commutator relation."""
    if n_particles < 2:
        raise ArityError("need at least two particles to discern")
    report = DiscernibilityReport(
        relation="C",
        mode="symbolic_exact",
        n_particles=n_particles,
        two_s=two_s,
        sector="full",
        samples={"wavefunctions": n_samples, "max_degree": max_degree},
        seed=seed,
        tolerances={"tol": 0.0},
    )
    wavefunctions = [random_wavefunction(n_particles, max_degree, two_s, seed + k)
                     for k in range(n_samples)]
    if two_s == 0:
        # the bosonic direct-product case phi(q_1)...phi(q_N), with
        # phi = 1 + q/2 scaled by 2
        wavefunctions.append(symmetric_product_state(
            {0: (2, 0), 1: (1, 0)}, n_particles))
    # -i psi once per wavefunction, not once per pair
    samples = [(f"wavefunction[{i}]", (wf, wf.mul_minus_i()))
               for i, wf in enumerate(wavefunctions)]
    slots = range(1, n_particles + 1)
    # [P_a, Q_b] psi on a few samples, computed once for every permutation
    images = [(wf, {(a, b): commutator_PQ_apply(wf, a, b)
                    for a in slots for b in slots})
              for wf in wavefunctions[:3]]

    def invariant(pi: Permutation) -> bool:
        """Symbolic invariance via slot relabeling on a few samples."""
        for wf, comm in images:
            moved = wf.permute_slots(pi.mapping)
            if not all(image.permute_slots(pi.mapping)
                       == commutator_PQ_apply(moved, pi(a), pi(b))
                       for (a, b), image in comm.items()):
                return False
        return True

    return certify_relation(
        report, samples,
        # the identity proves [P_a,Q_a] = -i and [P_a,Q_b] = 0 != -i
        lambda a, b: ccr_identity_on_monomials(n_particles, max_degree, a, b),
        lambda a, b: lambda sample: decide_C(a, b, *sample), invariant)


def certify_weak_discernibility(relation: str, **config) -> DiscernibilityReport:
    """Dispatch to the T (finite spin) or C (symbolic) pipeline."""
    if relation == "T":
        return certify_T(**config)
    if relation == "C":
        return certify_C(**config)
    raise ValueError(f"unknown relation {relation!r}")
