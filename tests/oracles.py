"""Dense reference code that only the tests run.

The certifier never forms a d^N vector of a bose or fermi state, never
contracts a block with slot axes and never multiplies two permutations,
so the constructions that do live here, as the oracles its kernels are
checked against:

* the d^N embedding of sector coordinates (``sector_basis``,
  ``product_amplitudes``) and the dense states drawn through it
  (``random_pure_state``, ``random_mixed_state``), the oracles of the
  sector route and of the one sampler, ``sample_states``;
* ``slot_apply``, the tensordot contraction of a ``SlotOperator``'s block
  with the slot axes of its states, the oracle of ``SlotOperator.image``;
* small dense helpers: ``compose`` of two permutations, ``commutator``,
  ``is_scalar_identity`` and the spin ``casimir``;
* the term-batch merge in plain Python (``merged_by_dict``) and
  ``commutator_by_merge``, the concatenate-and-merge formula of
  [P_a, Q_b], the oracles of ``TermBatch.merged`` and of its positional
  ``commutator_PQ``.
"""

import numpy as np

from discernlab.errors import ShapeError
from discernlab.matrix_core import TOL_ABS, MixedState, Operator, PureState
from discernlab.multiparticle import (
    ParticleSystem,
    Permutation,
    SlotOperator,
    sample_states,
)
from discernlab.schwartz import TermBatch, _exact
from discernlab.spin import SpinLabel, spin_operators


def compose(pi: Permutation, sigma: Permutation) -> Permutation:
    """pi o sigma: first apply sigma, then pi."""
    return Permutation(tuple(pi(sigma(k)) for k in range(1, pi.n + 1)))


def commutator(a: Operator, b: Operator) -> Operator:
    """AB - BA."""
    if a.dim != b.dim:
        raise ShapeError(f"dim mismatch {a.dim} vs {b.dim}")
    return Operator(a.entries @ b.entries - b.entries @ a.entries,
                    a.hbar_power + b.hbar_power)


def is_scalar_identity(a: Operator, c: complex, tol: float = TOL_ABS) -> bool:
    """True iff A equals c * identity within tol in max-entry norm.

    This decides "A psi = c psi for every psi" exactly: the operator
    equation holds iff the eigenvalue equation holds on all states.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    diff = a.entries - c * np.eye(a.dim)
    return float(np.abs(diff).max()) <= tol


def casimir(label: SpinLabel) -> Operator:
    """Sx^2 + Sy^2 + Sz^2 = s(s+1) hbar^2 * identity."""
    sx, sy, sz = spin_operators(label)
    return sx @ sx + sy @ sy + sz @ sz


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


def random_pure_state(system: ParticleSystem, seed) -> PureState:
    """Haar-uniform ray inside the system's sector (``sample_states``)."""
    batch = sample_states(system, 1, seed)
    return PureState(product_amplitudes(system, batch.flat[0, 0]))


def random_mixed_state(system: ParticleSystem, rank: int, seed) -> MixedState:
    """One rank-r ``sample_states`` draw as a dense statistical operator."""
    batch = sample_states(system, 1, seed, rank)
    f = product_amplitudes(system, batch.flat[0])
    w = (f.T * batch.weights[0]) @ f.conj()
    # symmetrize away float round-off before the invariant check
    return MixedState((w + w.conj().T) / 2)


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
