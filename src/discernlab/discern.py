"""Executable discernibility predicates and certification.

Relation T: for all states, (S_a + S_b)^2 equals 4 s(s+1) hbar^2.
Relation C: for all wavefunctions, [P_a, Q_b] psi equals -i hbar psi.

Both are reflexive and fail between distinct particles, which is the
weak-discernibility pattern: the complement is irreflexive and
symmetric on distinct pairs.

One engine, ``certify_relation``, checks that pattern for either
relation.  Each universally quantified relation is decided two ways:
exactly, on the defining operator (an integer spectral certificate for
T, monomial basis check for C), and empirically, by seeded state
sampling that produces witness states.  Reports record both routes.
The engine lists the N^2 pairs once and calls the sampled route once,
route(pairs, generators) -> (summaries, invariant).  Both routes plan
their kernel calls with one planner, ``passes``: relation T's class
keys grouped by block, relation C's pairs grouped by a == b.  The
decisions ``decide_T`` and ``decide_C`` are the ones the public
predicates ``relation_T_holds`` and ``relation_C_holds`` run; the route
that makes a decision reduces it at once (``summarize``), and every
pair that shares it reads that summary.
Relation T never forms an N-body operator: K_ab is one two-slot block
placed on slots (a, b) (``pair_operator``).  One kernel
(``block_kernel``) serves every sector: the samples are unfolded on the
block's slots into d^k x rest matrices Phi, one matrix product gives
K Phi for all of them, and value and residual are read off Phi and
K Phi, once per class key, which names a pair's N-body operator
(``sampled_route_T``).
Relation C applies [P_a, Q_b] to all sampled wavefunctions together, as
one ``TermBatch`` that also carries U_pi psi of the first few, so that
one image per pair serves both the relation and the S_N check.  Each
pass is one slot-local commutator call (``TermBatch.ccr_residuals``)
for all its pairs, and only the terms that break the relation are
lifted back to full terms.  The monomial proof runs once per pair
class, on that local operator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ArityError,
    ConfigError,
    DegenerateSpinError,
    DegreeCapError,
    DimensionCapError,
    EmptySectorError,
    ShapeError,
)
from .multiparticle import (
    ParticleSystem,
    Permutation,
    SlotOperator,
    StateBatch,
    dimension_cap,
    fold,
    sample_states,
    sector_dimension,
    slot_axes,
    unfold,
)
from .schwartz import (
    DEGREE_CAP,
    SpinorWavefunction,
    TermBatch,
    draw_wavefunctions,
    monomials,
    pack,
    stack,
    symmetric_product_state,
)
from .spin import SpinLabel, check_pair, pair_levels, pair_operator


class _AllStates:
    """``relation_T_holds``'s operator-level request: a sentinel, tested
    by identity, so that no string or array stands for it."""

    def __repr__(self) -> str:
        return "ALL_STATES"


ALL_STATES = _AllStates()
#: absolute tolerance, reported as tolerances.tol_abs: the default of
#: the S_N check and of eigenproperty, and the slack of a state's weights
TOL_ABS = 1e-10

VERDICT_PASS = "weakly_discerning"
VERDICT_FAIL = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

#: amplitudes of the pair unfoldings per product of a block, which bounds
#: the temporaries of one application whatever the numbers of samples and
#: pairs: ``certify_T`` splits its samples into pieces of about this many,
#: and a full-sector pass of relation T stacks the unfoldings of
#: max(1, BATCH_ENTRIES // amplitudes of the largest piece) class keys of
#: one block, each read by all the pairs whose operator it names: one key
#: when the pieces are of this size.  Kept small for the reason
#: BATCH_TERMS is.  Measured with ``getrusage`` on
#: 1000 pure full-sector states, N = 3 and 2s = 2: ``block_kernel`` of
#: K_12 takes 0.83 ms on all of them in pieces of this size, with about
#: one minor page fault, and 7.7 ms and 288 faults on one piece of 27,000
BATCH_ENTRIES = 4096
#: terms of the sampled batch times pairs per slot-local pass of relation
#: C (at least one pair), which bounds the temporaries of one commutator
#: call whatever the number of pairs: a pass on a 200-wavefunction batch
#: (about 2000 terms) holds one pair.  Larger passes are slower, not
#: faster.  Measured with ``getrusage`` on that batch at N = 3 (2 cores,
#: numpy 2.4), for all 6 off-diagonal pairs: passes of 1 pair take
#: 0.62 ms in all with no minor page fault, of 2 pairs 0.85 ms and 308
#: faults, one pass of 6 pairs 0.95 ms and 489 faults; for the 3 diagonal
#: pairs, 0.37 ms, 0.32 ms and 0.49 ms with 176 faults.  Most likely each
#: temporary above about 128 KiB (glibc's mmap threshold) gets fresh pages
#: on every allocation
BATCH_TERMS = 2048

#: a relation decided on every sample: (holds per sample, branch), with
#: branch(i) the reason it fails on sample i; the routes reduce each one
#: with ``summarize`` as soon as it is made
Decision = tuple[Sequence[bool], Callable[[int], str]]


def summarize(decision: Decision, name: Callable[[int], str]) -> tuple:
    """(holds on every sample, holds on some sample, witness): the
    witness is "name(i):branch(i)" of the first sample i on which the
    relation fails, formatted once, or None when it fails on none."""
    holds, branch = decision
    fails = np.flatnonzero(~np.asarray(holds, dtype=bool))
    if not len(fails):
        return True, len(holds) > 0, None
    first = int(fails[0])
    return False, len(fails) < len(holds), f"{name(first)}:{branch(first)}"


def checked_states(states, system: Optional[ParticleSystem] = None
                   ) -> StateBatch:
    """states, refused (``ShapeError``) unless it is a ``StateBatch`` of
    statistical operators: real weights, none below -TOL_ABS, so that
    each state sum_k w_k |f_k><f_k| is self-adjoint and positive, and a
    trace within 1e-8 of 1 per state.  Given a system, its factors must
    also have the shape of that system's sector, (d,) * N in the full
    sector and (D,) in bose and fermi, and it is returned with that
    sector's unfoldings."""
    if not isinstance(states, StateBatch):
        raise ShapeError(f"unsupported state type {type(states)!r}")
    if system is not None:
        shape = ((system.single_dim,) * system.n_particles
                 if system.sector == "full" else (sector_dimension(system),))
        if states.factors.shape[2:] != shape \
                or states.weights.shape != states.factors.shape[:2]:
            raise ShapeError(
                f"factors {states.factors.shape} and weights "
                f"{states.weights.shape} do not hold states of the "
                f"{system.sector} sector's shape {shape}")
        states = StateBatch(states.factors, states.weights, system.unfoldings)
    if np.iscomplexobj(states.weights) or (states.weights < -TOL_ABS).any():
        raise ShapeError("weights must be real and nonnegative")
    off = np.abs(states.trace - 1.0).max(initial=0.0)
    if off > 1e-8:
        raise ShapeError(f"a state's trace is {off} off 1")
    return states


def eigen_residuals(image: np.ndarray,
                    batch: StateBatch) -> tuple[np.ndarray, np.ndarray]:
    """Candidate value and eigen-residual of K on every state of a batch.

    image is K applied to ``batch.vectors``, and is overwritten with the
    residual factors.  For W = F D F^dagger: v = tr(D F^dagger K F) /
    tr(D F^dagger F), and the Frobenius residual ||K W - v W|| =
    ||R D F^dagger|| with R = K F - v F, whose square
    tr(D R^dagger R D F^dagger F) takes only r x r products; at r = 1 it
    is w^2 ||r||^2 ||f||^2.  On a pure state it is the 2-norm
    ||K psi - v psi||.  The factors may be unfoldings Phi, whose inner
    products are those of the states.
    """
    w, f = batch.weights, batch.flat
    r = image.reshape(f.shape)
    inner = np.einsum("mki,mki->mk", batch.flat_conj, r)  # <f_k, K f_k>
    value = np.einsum("mk,mk->m", w, inner) / batch.trace
    r -= value[:, None, None] * f
    if f.shape[1] == 1:
        floats = r.view(float)
        square = (np.einsum("mki,mki->m", floats, floats) * w[:, 0] ** 2
                  * batch.gram[:, 0, 0].real)
    else:
        rr = np.einsum("mji,mki->mjk", r.conj(), r)
        square = np.einsum("mj,mjk,mk,mkj->m", w, rr, w, batch.gram).real
    return value, np.sqrt(np.maximum(square, 0.0))


def eigenproperty(k: SlotOperator, batch: StateBatch,
                  tol: float = TOL_ABS) -> list[Optional[complex]]:
    """The possessed value of magnitude K in each state of a batch, if any.

    A pure state possesses <K, v> iff it is an eigenstate: the candidate
    value is the expectation and possession requires ||K psi - v psi||
    <= tol.  Mixed states analogously with K W = v W, in the Frobenius
    norm, which on a projector |psi><psi| equals the pure-state norm.
    None for a state that is no eigenstate (no eigenstate, no property).
    batch is as ``sample_states`` draws it, in any sector, and is read
    by the kernel of relation T, ``block_kernel``, unfolded on K's slots.
    It is refused (``ShapeError``) unless K's slots, distinct, fit it: a
    full-sector batch needs an axis per slot of K, whose sizes multiply
    to K's dimension, d^k for k slots; a bose or fermi batch, whose
    unfolding is one matrix for any k slots, needs one on k slots that
    is d^k wide.  A sector batch that lacks its unfoldings is read as
    full, one axis of D coordinates, and so is refused.
    """
    batch = checked_states(batch)
    if batch.unfoldings:
        fits = (len(k.slots) <= len(batch.unfoldings) and
                batch.unfoldings[len(k.slots) - 1][0].shape[1] == len(k.block))
    else:
        axes = batch.factors.shape[2:]
        fits = (all(1 <= s <= len(axes) for s in k.slots)
                and math.prod(axes[s - 1] for s in k.slots) == len(k.block))
    if not fits or len(set(k.slots)) != len(k.slots):
        raise ShapeError(
            f"a {len(k.block)}-dimensional block on slots {k.slots} does "
            f"not fit states of shape {batch.factors.shape[2:]}")
    value, residual = block_kernel(k, batch.unfold(k.slots))
    return [complex(v) if r <= tol else None for v, r in zip(value, residual)]


def block_kernel(k: SlotOperator, phi: StateBatch):
    """(value, residual) on samples unfolded on K's slots.

    One matmul gives K Phi; ``eigen_residuals`` reads the value
    tr(D Phi^dagger K Phi) / tr(D Phi^dagger Phi) and the residual
    ||K Phi - v Phi||_F off Phi and K Phi, never as <K^2> - <K>^2,
    forming K Phi - v Phi in K Phi's array.
    """
    return eigen_residuals(k.image(phi.vectors), phi)


def decide_T(value: np.ndarray, residual: np.ndarray, target: float,
             tol: float) -> Decision:
    """Relation T on every state, from the ``eigen_residuals`` of its K.

    T holds on a state when it possesses a value of K within
    tol * max(1, target) of the target.  On failure the branch says why:
    "absent" when the state has no eigenproperty (the converse
    possession principle), otherwise "value=..." with the possessed value.
    """
    present = residual <= tol
    holds = present & (np.abs(value - target) <= tol * max(1.0, target))
    return holds, lambda i: (f"value={value[i].real:.6g}" if present[i]
                             else "absent")


def relation_T_holds(a: int, b: int, states, label: SpinLabel,
                     system: ParticleSystem, tol: float = 1e-8) -> bool:
    """The total-spin relation at the target value 4 s(s+1) hbar^2.

    states is a ``StateBatch`` of the system's sector, as ``sample_states``
    draws it (``checked_states``), on every state of which the relation
    must hold, or the sentinel ALL_STATES (no string stands for it) for
    the operator-level decision (``pair_levels``, as in ``certify_T``).
    A batch is decided as ``certify_T``'s sampled route decides it: K_ab's
    block applied to the batch unfolded on its slots (``block_kernel``),
    read by ``decide_T``.
    A state with no eigenproperty at all counts as failing (the converse
    possession principle), as does a present value off the target.
    """
    if label.two_s == 0:
        raise DegenerateSpinError("relation T is undefined for spin 0")
    target = float(4 * label.casimir_value())
    if states is ALL_STATES:
        # T holds on every state iff K_ab has the one level target
        check_pair(label, a, b, system)
        levels = pair_levels(label.two_s)[a != b] or []
        return [lam for lam, _ in levels] == [target]
    k = pair_operator(label, a, b, system)
    batch = checked_states(states, system)
    value, residual = block_kernel(k, batch.unfold(k.slots))
    return bool(np.all(decide_T(value, residual, target, tol)[0]))


def decide_C(image: TermBatch, target: TermBatch,
             residual: TermBatch | None = None) -> Decision:
    """Relation C on every wavefunction psi of a batch.

    image is [P_a, Q_b] psi, merged, and target is -i psi, merged, passed
    in so that a caller deciding many pairs on one batch computes it once.
    Exact, zero tolerance: C holds on psi when the residual image -
    target, merged, leaves no term of psi.  A caller that has the
    residual passes it (``certify_C`` on the diagonal); on an empty image
    (a != b) it is -target, already merged, so no merge runs.  On failure
    the branch is "commutator_zero" when the image of psi is zero,
    otherwise "commutator_other".
    """
    if residual is None:
        residual = target if image.is_zero() else image.minus(target)
    holds = ~residual.nonzero_owners()
    nonzero = image.nonzero_owners()
    return holds, lambda i: ("commutator_other" if nonzero[i]
                             else "commutator_zero")


def relation_C_holds(a: int, b: int, psi) -> bool:
    """The commutator relation [P_a, Q_b] psi = -i hbar psi, exactly.

    psi may be a single spinor wavefunction or an iterable of them; the
    relation must hold for every member.  Decided in exact Gaussian-integer
    arithmetic, zero tolerance, on all of them at once by the pass that
    ``certify_C`` runs: one slot-local ``TermBatch.ccr_residuals`` call,
    whose residual ``decide_C`` reads as ``certify_C`` does.
    """
    psi = [psi] if isinstance(psi, SpinorWavefunction) else list(psi)
    if not psi:
        return True
    batch = pack(psi)
    residual = batch.ccr_residuals([(a, b)])[0]
    target = batch.mul_minus_i()
    if a == b:  # image - target is the residual
        image = target if residual.is_zero() else target.plus(residual)
        return bool(all(decide_C(image, target, residual)[0]))
    return bool(all(decide_C(residual, target)[0]))  # the image


def ccr_identity_on_monomials(n_particles: int, max_degree: int,
                              a: int, b: int) -> bool:
    """Prove the commutator identity on the degree-capped class.

    [P_a, Q_b] only touches the variables q_a and q_b and acts slotwise,
    so by linearity and factorization over untouched variables it
    suffices to check every monomial in q_a, q_b alone up to max_degree:
    [P_a, Q_a] m = -i m and [P_a, Q_b] m = 0 for a != b.  A monomial is
    one term, so the pass ``certify_C`` runs (``TermBatch.ccr_residuals``)
    proves it on all of them at once when it leaves no residual.  The
    result depends only on whether a == b: on 1 particle with (1, 1) and
    on 2 with (1, 2) it proves the pass's local operator, which every
    pair of that class applies, so ``certify_C`` runs it twice per cell.
    """
    batch = monomials(n_particles, sorted({a, b}), max_degree)
    return batch.ccr_residuals([(a, b)])[0].is_zero()


def permutation_invariance_check(k: SlotOperator, pi: Permutation,
                                 states: np.ndarray, image: np.ndarray,
                                 tol: float = TOL_ABS) -> bool:
    """K_{pi(a) pi(b)} U_pi psi = U_pi (K_ab psi) for every state psi.

    k is K_{pi(a) pi(b)}, states a batch shaped (count, d, ..., d), image
    the sampled route's K_ab applied to it, and U_pi the exact transpose
    of the slot axes.  Both sides are compared unfolded on k's slots, k
    applied by one matmul.  The full sector's check when k is not K_ab's
    block on pi's image of its slots (``sampled_route_T``), and the
    oracle of the identity that makes that case hold with no product.
    """
    axes = (0,) + tuple(1 + j for j in slot_axes(pi))
    diff = k.image(unfold(states.transpose(axes), k.slots))
    diff -= unfold(image.transpose(axes), k.slots)
    return float(np.abs(diff).max(initial=0.0)) <= tol


def swapped(k: SlotOperator) -> SlotOperator:
    """K with its two slots exchanged: the same operator, block P K P."""
    d = math.isqrt(len(k.block))
    block = k.block.reshape(d, d, d, d).transpose(1, 0, 3, 2)
    return SlotOperator(block.reshape(d * d, d * d), k.slots[::-1])


def is_scalar(block: np.ndarray) -> bool:
    """Whether block is exactly c 1, read in place: its diagonal entries
    are equal, and no entry off its diagonal is nonzero."""
    diagonal = np.diagonal(block)
    return (bool((diagonal == diagonal[0]).all())
            and np.count_nonzero(block) == np.count_nonzero(diagonal))


def is_swap_symmetric(block: np.ndarray) -> bool:
    """Whether a two-slot block equals P block P exactly, P the slot swap.

    Compared one first index at a time on views of the block, so that no
    temporary holds more than d^3 booleans: K_12 at 2s = 63 has 256 MiB
    of entries, and a swapped copy would double that.
    """
    d = math.isqrt(len(block))
    view = block.reshape(d, d, d, d)
    return all(np.array_equal(view[i], view[:, i].transpose(0, 2, 1))
               for i in range(d))


def passes(keys: Iterable, group: Callable, per_pass: int) -> list[list]:
    """keys, distinct, in their order as passes: a pass holds up to
    per_pass keys of one group(key), and a new pass starts at the first
    key that its group's last pass has no room for.

    Each route reads a pass as soon as it has run it, before the next
    one runs.  Measured with ``getrusage`` on N = 3 c-exact cells (2
    cores, numpy 2.4): running every relation C pass before the first
    read takes 44 to 50 minor page faults on a fresh process's first
    cell and 3 to 8 per cell in repeated passes, against 3 and 0.
    """
    planned, last = [], {}  # group -> its last pass
    for key in keys:
        chunk = last.get(group(key))
        if chunk is None or len(chunk) == per_pass:
            chunk = last[group(key)] = []
            planned.append(chunk)
        chunk.append(key)
    return planned


def sampled_route_T(family: Callable[[int, int], SlotOperator],
                    batches: list[StateBatch], target: float, tol: float,
                    name: Callable[[int], str]):
    """Relation T's sampled route for ``certify_relation``.

    route(pairs, generators) gives every pair a class key that names its
    N-body operator K_ab = family(a, b), and decides relation T once per
    key: K_ab applied to the batch pieces unfolded on its slots
    (``block_kernel``), read by one ``decide_T`` and summarized at once
    (``summarize``, name(i) the name of sample i) for every pair of the
    key.  A block that is exactly c 1 (``is_scalar``, tested once per
    block object) is read on each piece itself: its image is c psi, and
    an unfolding keeps inner products.  The key is the block object and
    the slots that decide the operator:

    * bose and fermi unfold every pair to one matrix Phi, up to a fermi
      sign that value, residual and the S_N check do not see, so the key
      is the block alone.
    * in the full sector the key is the block and its slots, sorted when
      the block equals its slot swap P B P exactly (K_ba is then K_ab),
      and dropped when it is c 1, both tested in place
      (``is_swap_symmetric``, ``is_scalar``).  The certifier's own
      family has one key for the N pairs (a, a), as 4 S^2 is scalar, and
      one per unordered pair, as K_12 is swap symmetric: 1 + N(N-1)/2
      decisions, not N^2.

    ``passes`` plans the keys, grouped by block, up to max(1,
    BATCH_ENTRIES // amplitudes of the largest piece) per pass.  A pass
    stacks the unfoldings of its keys, each on the slots of its first
    pair (``StateBatch.unfold``), and takes one product and one
    ``eigen_residuals`` per piece.

    One S_N rule serves every sector, decided per pair and generator
    until one fails.  U_pi transposes slot axes, so U_pi K U_pi^dagger
    is K's block on the slots pi(s), s in K's slots: when
    K_{pi(a) pi(b)} is that block object on those slots, the check holds
    with no product.  Any other block is applied on every piece: the
    full sector compares states (``permutation_invariance_check``)
    against K_ab's image, formed again; bose and fermi, where U_pi psi =
    +-psi, compare K_{pi(a) pi(b)} Phi with K_ab Phi on (pi(a), pi(b)) in
    K_ab's slot order, with (P K_ab P) Phi on them reversed (P the slot
    swap), and fail on any other slots.
    """
    full = not batches[0].unfoldings
    per_pass = max(1, BATCH_ENTRIES // max(p.vectors.size for p in batches))

    def commutes(piece: StateBatch, k: SlotOperator, image: np.ndarray,
                 pi: Permutation, moved: SlotOperator) -> bool:
        """The S_N check by products on one piece; image is K_ab Phi."""
        if full:
            states = piece.vectors
            return permutation_invariance_check(
                moved, pi, states, fold(image, k.slots, states.shape), tol)
        slots = tuple(pi(s) for s in k.slots)
        if moved.slots != slots:
            if moved.slots != slots[::-1] or len(slots) != 2:
                return False
            k = swapped(k)
            image = k.image(piece.unfold(k.slots).vectors)
        diff = moved.image(piece.unfold(moved.slots).vectors) - image
        return float(np.abs(diff).max(initial=0.0)) <= tol

    def route(pairs: list[tuple[int, int]], generators: list[Permutation]):
        kinds = {}  # id(block) -> (whether it is c 1, swap symmetric)
        # key -> K of its first pair, which keeps the block and so its id
        first = {}
        firsts = []  # per pair, K of its key's first pair: a shared reference
        for a, b in pairs:
            k = family(a, b)
            if id(k.block) not in kinds:
                scalar = is_scalar(k.block)
                kinds[id(k.block)] = scalar, (
                    full and not scalar and len(k.slots) == 2
                    and is_swap_symmetric(k.block))
            scalar, symmetric = kinds[id(k.block)]
            slots = (() if scalar or not full else tuple(sorted(k.slots))
                     if symmetric else k.slots)
            firsts.append(first.setdefault((id(k.block), slots), k))
        decided = {}  # id(K of a key's first pair) -> summary of its Decision
        for chunk in passes(first, lambda key: key[0], per_pass):
            k, (scalar, _) = first[chunk[0]], kinds[chunk[0][0]]
            slots = [first[key].slots for key in chunk]
            values, residuals = [], []
            for piece in batches:
                if scalar:  # one key, read as c psi on the piece itself
                    value, residual = eigen_residuals(
                        k.block[0, 0] * piece.flat, piece)
                else:
                    value, residual = block_kernel(k, piece.unfold(*slots))
                values.append(value.reshape(len(slots), -1))
                residuals.append(residual.reshape(len(slots), -1))
            decided.update(zip((id(first[key]) for key in chunk), (
                summarize(decide_T(value, residual, target, tol), name)
                for value, residual in zip(np.concatenate(values, axis=1),
                                           np.concatenate(residuals, axis=1)))))

        def invariant(a: int, b: int) -> bool:
            k = family(a, b)
            failing = []  # (pi, K_{pi(a) pi(b)}) that the rule does not settle
            for pi in generators:
                moved = family(pi(a), pi(b))
                if moved.block is not k.block \
                        or moved.slots != tuple(map(pi, k.slots)):
                    failing.append((pi, moved))
            for piece in batches if failing else ():
                image = k.image(piece.unfold(k.slots).vectors)
                if not all(commutes(piece, k, image, pi, moved)
                           for pi, moved in failing):
                    return False
            return True
        return ([decided[id(k)] for k in firsts],
                all(invariant(a, b) for a, b in pairs))
    return route


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


def certify_relation(
        report: DiscernibilityReport,
        operator_route: Callable[[int, int], bool],
        route: Callable[[list[tuple[int, int]], list[Permutation]],
                        tuple[list[tuple], bool]]) -> DiscernibilityReport:
    """Check one relation for the weak-discernibility pattern; fill report.

    The relation is given by two callables:

    * operator_route(a, b): for a == b, whether the operator route proves
      the relation on every state; for a != b, whether it proves that
      the relation fails on every state;
    * route(pairs, generators), the sampled route, called once with all
      N^2 pairs (a, b) in row order: per pair, the relation on every
      sample, as the ``summarize`` of its ``Decision``, and whether
      K_{pi(a) pi(b)} U_pi psi = U_pi (K_ab psi) holds for every pair and
      every pi in generators on the samples it checks.  Both routes plan
      their kernel calls over all pairs at once (``passes``) and may hand
      several pairs one summary: T one per class key, C one per pair
      class for the pairs whose image is the class's.  T's check takes
      no product when K_{pi(a) pi(b)} is K_ab's block moved by pi, and
      C's reads the images it already has.

    A diagonal pair is reflexive when both routes say the relation
    holds; an off-diagonal pair fails when the operator route proves it
    and no sample satisfies the relation.  Its witness is the first
    sample on which the relation fails.

    Permutation invariance is checked on the two generators of S_N
    (``Permutation.generators``): the transposition (1 2) and the N-cycle
    (1 2 ... N), not all N! elements.  pi acts through a representation,
    U_pi on the tensor space for T and slot relabeling for C, so
    K_{pi(a) pi(b)} U_pi = U_pi K_ab over all pairs is closed under
    composition: from sigma and pi, K_{pi sigma(a), pi sigma(b)} U_pi
    U_sigma = U_pi K_{sigma(a) sigma(b)} U_sigma = U_pi U_sigma K_ab.
    Every element of S_N is a word in the two generators; a word of
    length L deviates by at most L * tol.  Both relations check the
    identity on samples: T on every sampled state (the operator identity
    once they span the sector), C on a few wavefunctions.
    """
    n = report.n_particles
    slots = range(1, n + 1)
    # the list of pairs is dropped once the route returns, before the
    # report's entries are built: at N = 400 it holds about 11 MB
    summaries, invariant = route([(a, b) for a in slots for b in slots],
                                 Permutation.generators(n))
    for (a, b), (every, some, witness) in zip(
            itertools.product(slots, repeat=2), summaries):
        proved = operator_route(a, b)
        pair = {"a": a, "b": b, "reflexive": None,
                "off_diagonal_fails": None, "witness": None}
        if a == b:
            pair["reflexive"] = bool(proved and every)
        else:
            pair["off_diagonal_fails"] = bool(proved and not some)
            pair["witness"] = witness
        report.pairs.append(pair)
    report.permutation_invariant = bool(invariant)
    report.compute_verdict()
    return report


def certify_T(n_particles: int, two_s: int, sector: str = "full",
              n_pure_samples: int = 100, n_mixed_samples: int = 20,
              mixed_rank: int = 2, seed: int = 0,
              tol: float = 1e-8) -> DiscernibilityReport:
    """Full weak-discernibility certification of the total-spin relation.

    Both routes read ``pair_bands``: the operator route decides on the
    exact spectra of 4 S^2 and K_12, the sampled route
    (``sampled_route_T``) applies each block, built once from them, to
    every sample at once, once per class key of the pairs on it: one
    per block in bose and fermi, and in the full sector one for the N
    pairs (a, a), as 4 S^2 is scalar, and one per unordered pair, as
    K_12 is swap symmetric.  4 S^2 takes no product: it is read as
    c psi on the samples themselves.  No N-body operator, and no d^N
    vector in the bose and fermi sectors.

    Refused before any block or draw (``DimensionCapError``): samples
    whose pair unfoldings hold more than DISCERNLAB_DIM_CAP^2 amplitudes,
    and a dense K_12 of more than that many entries, d^4.  At the default
    cap the second refuses only N = 2 bose at 2s = 64..89 and N = 2
    fermi at 2s = 64..90, whose D_2 passes the cap.
    """
    if n_particles < 2:
        raise ArityError("need at least two particles to discern")
    if two_s < 1:
        raise DegenerateSpinError("relation T is undefined for spin 0")
    if n_pure_samples + n_mixed_samples < 1:  # refused before any draw
        raise ConfigError("relation T needs at least one pure or mixed "
                          "sample to decide on")
    label = SpinLabel(two_s)
    system = ParticleSystem(n_particles, label.dim, sector)
    sdim = sector_dimension(system)
    if sdim < 1:
        raise EmptySectorError(
            f"the {sector} sector of {n_particles} particles with "
            f"2s={two_s} is empty")
    target = float(4 * label.casimir_value())
    rank = min(mixed_rank, sdim)
    # refused before any draw: the samples unfolded on a pair, d^2 D_{N-2}
    # amplitudes each (d^N in the full sector), may hold as many amplitudes
    # as one d^N x d^N operator at the cap, and no more
    unfolded = label.dim ** 2 * sector_dimension(
        system, n_particles=n_particles - 2)
    amplitudes = (n_pure_samples + n_mixed_samples * rank) * unfolded
    if amplitudes > dimension_cap() ** 2:
        raise DimensionCapError(
            f"{amplitudes} sample amplitudes exceed the budget "
            f"{dimension_cap() ** 2} (DISCERNLAB_DIM_CAP squared)")
    # and the dense pair block K_12, d^2 x d^2, no more entries than that
    # operator: in bose and fermi D_N may be at the cap while d^4 is not
    if label.dim ** 4 > dimension_cap() ** 2:
        raise DimensionCapError(
            f"the pair block of 2s={two_s} holds {label.dim ** 4} entries, "
            f"above the budget {dimension_cap() ** 2} (DISCERNLAB_DIM_CAP "
            f"squared)")

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

    slots = range(1, n_particles + 1)
    operators = {(a, b): pair_operator(label, a, b, system)
                 for a in slots for b in slots}
    rng = np.random.default_rng(np.random.SeedSequence([seed, two_s, n_particles]))
    drawn = [sample_states(system, n_pure_samples, rng)]
    if n_mixed_samples:
        drawn.append(sample_states(system, n_mixed_samples, rng, rank))
    batches = [piece for batch in drawn for piece in batch.split(BATCH_ENTRIES)]

    single, levels = pair_levels(two_s)  # of 4 S^2 and K_12, exact ints
    exact = two_s * (two_s + 2)  # the target 4 s(s+1)
    reflexive = [lam for lam, _ in single] == [exact]
    off_diagonal_fails = levels is not None and levels[-1][0] < exact
    certify_relation(
        report, lambda a, b: reflexive if a == b else off_diagonal_fails,
        sampled_route_T(lambda a, b: operators[a, b], batches, target, tol,
                        lambda i: f"pure[{i}]" if i < n_pure_samples
                        else f"mixed[{i - n_pure_samples}]"))
    # K_ab is K_12 (x) 1 on the other N-2 slots, up to a slot relabeling
    report.spectrum = [[lam, mult * label.dim ** (n_particles - 2)]
                       for lam, mult in levels or []]
    return report


def certify_C(n_particles: int, two_s: int = 0, n_samples: int = 200,
              max_degree: int = 8, seed: int = 0) -> DiscernibilityReport:
    """Exact symbolic certification of the commutator relation.

    After the drawn wavefunctions (and the product state at 2s = 0) the
    batch carries U_pi psi of the first h = min(3, owners) of them, one
    block of h owners per generator pi.  image(a, b) = [P_a, Q_b] on the
    whole batch is read once per pair: the drawn owners decide the
    relation, and the S_N check compares U_pi applied to the first h
    owners of image(a, b) with the pi block of image(pi(a), pi(b)), once
    every pair's sides are read.

    ``passes`` plans the pairs, grouped by a == b, as many per pass as
    fit BATCH_TERMS source terms, and each pass is one slot-local
    commutator call (``TermBatch.ccr_residuals``) whose pairs are read
    right after it.  image(a, b) is -i psi (a == b) or zero (a != b),
    plus the pair's lifted residual, exactly.  A pair with no residual
    has its class's image, so its decision and S_N sides are read once
    per class, and two such pairs' sides compare by identity.  The
    monomial proof runs once per class: 2 proofs per cell, not N^2.

    The product state at 2s = 0 is a nonzero wavefunction checked on
    every pair like a drawn one, so it alone is a sample to decide on:
    n_samples = 0 is accepted there and refused at 2s > 0.
    """
    if n_particles < 2:
        raise ArityError("need at least two particles to discern")
    if max_degree + 2 > DEGREE_CAP:  # refused before any draw
        raise DegreeCapError(
            f"max_degree {max_degree} plus the 2 that [P_a, Q_b] adds "
            f"exceeds cap {DEGREE_CAP}")
    if n_samples < (0 if two_s == 0 else 1):
        raise ConfigError("relation C needs at least one wavefunction to "
                          "decide on")
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
    batch = draw_wavefunctions(n_particles, max_degree, two_s, n_samples,
                               seed)
    if two_s == 0:
        # the bosonic direct-product case phi(q_1)...phi(q_N), with
        # phi = 1 + q/2 scaled by 2, as owner n_samples
        batch = stack([batch, pack([symmetric_product_state(
            {0: (2, 0), 1: (1, 0)}, n_particles)])])
    owners = batch.n_owners
    h = min(3, owners)
    first = batch.head(h)
    # one block per generator, in the order certify_relation passes them
    batch = stack([batch] + [first.permute_slots(pi.mapping)
                             for pi in Permutation.generators(n_particles)])
    # -i psi once per batch, not once per pair
    target = batch.mul_minus_i()
    per_pass = max(1, BATCH_TERMS // batch.rows.shape[1])

    # with no residual, image(a, b) is its class's image: -i psi on the
    # diagonal, no term off it.  Its summary and sides are read once per
    # class, the two sides of a generator kept as one object where they
    # are equal, so that two such pairs compare by identity
    shared = {}  # a == b -> (summary, sides)

    def read(residual, diagonal, generators):
        """The summary of decide_C on image(a, b), and per generator pi
        its S_N sides: U_pi of its first h owners, and its pi block."""
        plain = residual.is_zero()
        if plain and diagonal in shared:
            return shared[diagonal]
        if diagonal:  # image - target is the residual
            image = target if plain else target.plus(residual)
        else:
            image, residual = residual, None
        head = image.head(h)
        holds, branch = decide_C(image, target, residual)
        summary = summarize((holds[:owners], branch),
                            lambda i: f"wavefunction[{i}]")
        sides = [(head.permute_slots(pi.mapping),
                  image.owners(owners + j * h, owners + (j + 1) * h))
                 for j, pi in enumerate(generators)]
        if plain:
            sides = [(turned, turned if turned.minus(moved).is_zero()
                      else moved) for turned, moved in sides]
            shared[diagonal] = summary, sides
        return summary, sides

    def route(pairs: list[tuple[int, int]], generators: list[Permutation]):
        summaries, sides = {}, {}  # per pair
        for chunk in passes(pairs, lambda pair: pair[0] == pair[1],
                            per_pass):
            for pair, residual in zip(chunk, batch.ccr_residuals(chunk)):
                summaries[pair], sides[pair] = read(
                    residual, pair[0] == pair[1], generators)
        # U_pi [P_a, Q_b] psi = [P_c, Q_d] U_pi psi, (c, d) = (pi(a), pi(b)):
        # U_pi of image(a, b)'s first h owners against image(c, d)'s pi block
        invariant = all(
            turned is moved or turned.minus(moved).is_zero()
            for j, pi in enumerate(generators) for a, b in pairs
            for turned, moved in [(sides[a, b][j][0],
                                   sides[pi(a), pi(b)][j][1])])
        return [summaries[pair] for pair in pairs], invariant

    # the identity on the 1- and the 2-slot view: [P_a, Q_a] = -i and
    # [P_a, Q_b] = 0 != -i, for every pair of the class
    proved = {True: ccr_identity_on_monomials(1, max_degree, 1, 1),
              False: ccr_identity_on_monomials(2, max_degree, 1, 2)}
    return certify_relation(report, lambda a, b: proved[a == b], route)
