"""Dense reference code that only the tests run.

The certifier never forms a d^N vector of a bose or fermi state, never
builds an N-body operator, never contracts a block with slot axes and
never multiplies two permutations, so the constructions that do live
here, on plain numpy arrays, as the oracles its kernels are checked
against:

* the d^N embedding of sector coordinates (``sector_basis``,
  ``product_amplitudes``) and the dense states drawn through it
  (``random_pure_state``, ``random_mixed_state``), the oracles of the
  sector route and of the one sampler, ``sample_states``;
* ``slot_apply``, the tensordot contraction of a ``SlotOperator``'s block
  with the slot axes of its states, the oracle of ``SlotOperator.image``,
  and ``dense``, its N-body matrix;
* the spin matrices (``spin_operators``), tensor products (``kron``),
  slot embeddings (``embed_at_slot``) and the dense (S_a + S_b)^2
  (``pair_total_spin_squared``), the oracles of ``pair_operator``, and
  the Racah Clebsch-Gordan coefficients (``clebsch_gordan``), whose
  columns are the pair block's eigenvectors;
* the permutation unitaries U_pi (``permutation_unitary``), ``sign`` and
  the N!-term (anti)symmetrizer (``symmetrizer``), the oracles of the
  S_N check and of the sector dimensions;
* small dense helpers: ``compose`` of two permutations, ``commutator``,
  ``is_scalar_identity`` and the spin ``casimir``;
* the term-batch merge in plain Python (``merged_by_dict``) and
  ``commutator_by_merge``, the concatenate-and-merge formula of
  [P_a, Q_b], the oracles of ``TermBatch.merged`` and of its positional
  ``commutator_PQ``.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from discernlab.discern import TOL_ABS
from discernlab.errors import DomainError, ShapeError
from discernlab.multiparticle import (
    ParticleSystem,
    Permutation,
    SlotOperator,
    sample_states,
    slot_axes,
)
from discernlab.schwartz import TermBatch, _exact
from discernlab.spin import SpinLabel, check_pair


def compose(pi: Permutation, sigma: Permutation) -> Permutation:
    """pi o sigma: first apply sigma, then pi."""
    return Permutation(tuple(pi(sigma(k)) for k in range(1, pi.n + 1)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a


def is_scalar_identity(a: np.ndarray, c: complex,
                       tol: float = TOL_ABS) -> bool:
    """True iff A equals c * identity within tol in max-entry norm.

    This decides "A psi = c psi for every psi" exactly: the operator
    equation holds iff the eigenvalue equation holds on all states.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return float(np.abs(a - c * np.eye(len(a))).max()) <= tol


def spin_operators(label: SpinLabel) -> tuple[np.ndarray, ...]:
    """(Sx, Sy, Sz) on C^(2s+1), in units of hbar.

    Basis ordering is m = s, s-1, ..., -s, so Sz = diag(s, ..., -s).
    S+ takes index k to k-1 with sqrt(s(s+1) - m(m+1)), m = s - k.
    """
    s = label.two_s / 2
    m = s - np.arange(label.dim)
    sp = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1) + 0j
    return (sp + sp.T) / 2, (sp - sp.T) / 2j, np.diag(m) + 0j


def casimir(label: SpinLabel) -> np.ndarray:
    """Sx^2 + Sy^2 + Sz^2 = s(s+1) hbar^2 * identity."""
    return sum(w @ w for w in spin_operators(label))


def kron(*factors: np.ndarray) -> np.ndarray:
    """The tensor product of the factors, in order."""
    return functools.reduce(np.kron, factors)


def embed_at_slot(a: np.ndarray, slot: int,
                  system: ParticleSystem) -> np.ndarray:
    """1 (x) ... (x) A (x) ... (x) 1, A on the given slot."""
    d, n = system.single_dim, system.n_particles
    return kron(np.eye(d ** (slot - 1)), a, np.eye(d ** (n - slot)))


def pair_total_spin_squared(label: SpinLabel, a: int, b: int,
                            system: ParticleSystem) -> np.ndarray:
    """(S_a + S_b)^2 on the N-particle space, hbar^2 units: 4 S_a^2 for
    a == b."""
    check_pair(label, a, b, system)
    comps = [embed_at_slot(w, a, system) + embed_at_slot(w, b, system)
             for w in spin_operators(label)]
    return sum(c @ c for c in comps)


def clebsch_gordan(label: SpinLabel, two_S: int, two_M: int,
                   two_m1: int, two_m2: int) -> float:
    """<s m1; s m2 | S M> for two equal spins, Condon-Shortley phases,
    by the Racah sum over exact factorial ratios."""
    j = label.two_s  # every argument is doubled
    if not 0 <= two_S <= 2 * j:
        raise DomainError(f"2S={two_S} out of range 0..{2 * j}")
    if abs(two_M) > two_S or (two_S - two_M) % 2:
        raise DomainError(f"2M={two_M} invalid for 2S={two_S}")
    for two_m in (two_m1, two_m2):
        if abs(two_m) > j or (j - two_m) % 2:
            raise DomainError(f"2m={two_m} invalid for 2s={j}")
    if two_m1 + two_m2 != two_M:
        return 0.0

    def fact(*two_x):
        return math.prod(math.factorial(x // 2) for x in two_x)

    pref = Fraction((two_S + 1) * fact(two_S, two_S, 2 * j - two_S),
                    fact(2 * j + two_S + 2)) * fact(
        two_S + two_M, two_S - two_M, j - two_m1, j + two_m1,
        j - two_m2, j + two_m2)
    total = Fraction(0)
    for k in range(j + 1):
        args = (2 * k, 2 * j - two_S - 2 * k, j - two_m1 - 2 * k,
                j + two_m2 - 2 * k, two_S - j - two_m2 + 2 * k,
                two_S - j + two_m1 + 2 * k)
        if min(args) >= 0:
            total += Fraction((-1) ** k, fact(*args))
    return math.sqrt(pref) * float(total)


def clebsch_gordan_matrix(label: SpinLabel):
    """(labels, matrix): the coupled states (2S, 2M) in ascending order,
    and the (2s+1)^2-square matrix whose column for (S, M) holds its
    coefficients on the product states (m1, m2), in the operator basis
    ordering."""
    j = label.two_s
    labels = [(two_S, two_M) for two_S in range(0, 2 * j + 1, 2)
              for two_M in range(-two_S, two_S + 1, 2)]
    m = range(j, -j - 1, -2)
    return labels, np.array([[clebsch_gordan(label, *sm, m1, m2)
                              for sm in labels]
                             for m1, m2 in itertools.product(m, m)])


def sign(pi: Permutation) -> int:
    """The parity of pi, (-1)^(number of inversions)."""
    return (-1) ** sum(x > y for x, y in
                       itertools.combinations(pi.mapping, 2))


def all_permutations(n: int) -> list[Permutation]:
    """The N! elements of S_N."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def permutation_unitary(pi: Permutation,
                        system: ParticleSystem) -> np.ndarray:
    """U_pi on the N-fold tensor space: the identity with its row axes
    transposed by slot_axes(pi), so column j is basis vector j moved."""
    d, n, dim = system.single_dim, system.n_particles, system.total_dim
    rows = np.eye(dim, dtype=complex).reshape((d,) * n + (dim,))
    return rows.transpose(slot_axes(pi) + (n,)).reshape(dim, dim)


def symmetrizer(system: ParticleSystem, parity: str) -> np.ndarray:
    """Orthogonal projector Pi+/- = (1/N!) sum_pi [sign(pi)] U_pi."""
    n = system.n_particles
    return sum((sign(pi) if parity == "-" else 1)
               * permutation_unitary(pi, system)
               for pi in all_permutations(n)) / math.factorial(n)


def dense(op: SlotOperator, system: ParticleSystem) -> np.ndarray:
    """The N-body matrix of a SlotOperator, built without slot_apply: the
    block times the identity on the other slots, with the block's slots
    moved to op.slots by a permutation unitary."""
    n, d, k = system.n_particles, system.single_dim, len(op.slots)
    rest = tuple(j for j in range(1, n + 1) if j not in op.slots)
    # sigma moves slot j to op.slots[j-1] for j <= k
    u = permutation_unitary(Permutation(tuple(op.slots) + rest), system)
    return u @ kron(op.block, np.eye(d ** (n - k))) @ u.conj().T


def slot_apply(op: SlotOperator, states: np.ndarray) -> np.ndarray:
    """op on a batch shaped (count, d, ..., d): its block contracted with
    the axes of op.slots, which stay where they were."""
    k, d = len(op.slots), states.shape[1]
    out = np.tensordot(states, op.block.reshape((d,) * (2 * k)),
                       axes=(op.slots, tuple(range(k, 2 * k))))
    return np.moveaxis(out, tuple(range(-k, 0)), op.slots)


def sector_basis(system: ParticleSystem) -> tuple[np.ndarray, ...]:
    """Orthonormal bose or fermi basis (support, column, coef) in C^(d^N).

    Basis vector column[k] has entry coef[k] at product index support[k].
    Product indices are grouped by their sorted slot tuple: every group
    for bose (occupation-number multisets), the groups of N distinct
    levels for fermi (Slater determinants, signed by the parity of the
    sorting permutation).  O(dim * N * d) work and no N!-term sum.  The
    columns are in the order of the sampler's sector coordinates.
    """
    d, n, dim = system.single_dim, system.n_particles, system.total_dim
    digits = np.indices((d,) * n).reshape(n, -1).T  # index -> slot tuple
    occupation = (digits[:, :, None] == np.arange(d)).sum(axis=1)
    filled = occupation.cumsum(axis=1)
    # the group is the product index of the sorted slot tuple, whose j-th
    # entry counts the levels l with at most j slots at levels <= l
    group = sum((filled <= j).sum(axis=1) * d ** (n - 1 - j) for j in range(n))
    support, sign = np.arange(dim), 1.0
    if system.sector == "fermi":
        keep = (occupation <= 1).all(axis=1)
        support, digits, group = support[keep], digits[keep], group[keep]
        inversions = sum(digits[:, i] > digits[:, j]
                         for i in range(n) for j in range(i + 1, n))
        sign = 1.0 - 2.0 * (np.asarray(inversions) % 2)
    used = np.zeros(dim, dtype=bool)
    used[group] = True
    column = np.cumsum(used)[group] - 1  # groups in ascending order
    return support, column, sign / np.sqrt(np.bincount(group)[group])


def product_amplitudes(system: ParticleSystem,
                       coords: np.ndarray) -> np.ndarray:
    """Sector coordinates (..., D) as d^N product amplitudes (..., d^N).

    The identity in the full sector, the ``sector_basis`` embedding in
    bose and fermi.
    """
    if system.sector == "full":
        return coords
    support, column, coef = sector_basis(system)
    out = np.zeros(coords.shape[:-1] + (system.total_dim,), complex)
    out[..., support] = coords[..., column] * coef
    return out


def random_pure_state(system: ParticleSystem, seed) -> np.ndarray:
    """Haar-uniform ray inside the system's sector (``sample_states``), as
    d^N amplitudes."""
    batch = sample_states(system, 1, seed)
    return product_amplitudes(system, batch.flat[0, 0])


def random_mixed_state(system: ParticleSystem, rank: int, seed) -> np.ndarray:
    """One rank-r ``sample_states`` draw as a dense statistical operator."""
    batch = sample_states(system, 1, seed, rank)
    f = product_amplitudes(system, batch.flat[0])
    return (f.T * batch.weights[0]) @ f.conj()


def merged_by_dict(batch: TermBatch) -> TermBatch:
    """Like terms of each owner summed in Python ints, zero sums dropped,
    columns in lexicographic order of (owner, m_1, e_1, ..., m_N, e_N):
    the order of the packed key that ``TermBatch.merged`` sorts on."""
    sums = {}
    for column, re, im in zip(batch.rows.T.tolist(), *batch.coeffs.tolist()):
        x, y = sums.get(tuple(column), (0, 0))
        sums[tuple(column)] = (x + re, y + im)
    kept = sorted(t for t, c in sums.items() if c != (0, 0))
    rows = np.array(kept, dtype=batch.rows.dtype).reshape(
        len(kept), batch.rows.shape[0]).T
    coeffs = np.array([sums[t] for t in kept], dtype=batch.coeffs.dtype)
    return batch._with(np.ascontiguousarray(rows),
                       np.ascontiguousarray(coeffs.reshape(-1, 2).T))


def commutator_by_merge(batch: TermBatch, a: int, b: int) -> TermBatch:
    """[P_a, Q_b] psi on every psi: every column of P_a Q_b psi and of
    -Q_b P_a psi, merged (``merged_by_dict``), with no positional sum."""
    pq, qp = batch.q(b).p(a), batch.p(a).q(b)
    return merged_by_dict(pq._with(
        np.concatenate([pq.rows, qp.rows], axis=1),
        np.concatenate([_exact(pq.coeffs), -_exact(qp.coeffs)], axis=1)))
