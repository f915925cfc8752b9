"""Exact symbolic model of the infinite-dimensional case.

A wavefunction is a finite sum of terms.  Each term is a product over
particles k of a spin basis vector |m_k>, a power q_k^e_k of the
particle's coordinate and an implicit Gaussian factor exp(-q_k^2 / 2),
with a Gaussian-integer coefficient re + i im.  The class is closed
under position multiplication and -i hbar differentiation: d/dq
multiplies a coefficient by an integer exponent and -i swaps its two
parts, so the canonical commutator is an exact coefficient-level
identity here, with no tolerances anywhere in this module's verdicts.
[P_a, Q_b] is linear and homogeneous, so a rational wavefunction scaled
to coprime Gaussian integers, as the sampler below returns it, gets the
same verdict on every pair.

Configuration space is one-dimensional per particle, which makes the
commutator constant exactly -i hbar (hbar = 1).

P and Q have one implementation each, ``_momentum`` and ``_position``,
on the rows of a ``TermBatch``: the terms of many wavefunctions as
integer columns, one contiguous row per field (owner, then spin index
and exponent per slot) and one per coefficient part, with like terms
merged by sorting on a packed integer key.  The commutator has one
kernel, ``_commutator``: on a slot view, the owner and exponent rows of
the slots a pair acts on, it subtracts its two products by position
where they line up, and only the columns that do not cancel are lifted
back to full terms and merged.  ``TermBatch.ccr_residuals`` runs it on
many pairs at once, ``commutator_PQ`` on one; a single wavefunction is a
batch of one (``pack``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegreeCapError, IndexRangeError, ShapeError

#: largest exponent of any q_k that a wavefunction may carry
DEGREE_CAP = 32
#: dtype of TermBatch.rows; ``pack`` reads spin indices and exponents with
#: np.fromiter, which refuses a value past int32 rather than wrap it
_ROW_DTYPE = np.int32
#: radix of an exponent digit in a packed term key: exponents run 0..DEGREE_CAP
_EXPONENT_RADIX = DEGREE_CAP + 1
#: bound on any sum or product one kernel step takes of its parts (``_exact``)
_INT64_FACTOR = 4 * (DEGREE_CAP + 1)
#: largest coefficient part the kernel computes with in int64
_INT64_SAFE = np.iinfo(np.int64).max // _INT64_FACTOR
#: lcm(1, ..., 9), a multiple of every denominator draw_wavefunctions draws
_DRAW_LCM = 2520

#: per-particle (spin index m_k, exponent e_k) pairs, slot 1 first
Term = tuple[tuple[int, int], ...]
#: exact Gaussian-integer coefficient re + i im, as (re, im)
Coeff = tuple[int, int]


@dataclass(frozen=True)
class SpinorWavefunction:
    """Sum over terms of coefficient * prod_k |m_k> q_k^e_k exp(-q_k^2/2).

    ``terms`` maps each term, the tuple of per-particle (m_k, e_k) pairs
    with spin index 0 <= m_k <= 2s, to its (re, im) coefficient, a pair
    of ints.  Zero coefficients are dropped.  Equality is exact equality
    of the coefficient vectors: psi and 2 psi compare unequal.
    """

    n_particles: int
    two_s: int
    terms: dict[Term, Coeff]

    def __post_init__(self):
        for term, c in self.terms.items():
            if len(term) != self.n_particles:
                raise ShapeError(f"term {term} has wrong arity")
            for m, e in term:
                if not 0 <= m <= self.two_s:
                    raise ShapeError(
                        f"spin index in {term} out of range 0..{self.two_s}")
                if e < 0:
                    raise ShapeError(f"negative exponent in {term}")
                if e > DEGREE_CAP:
                    raise DegreeCapError(
                        f"exponent in {term} exceeds cap {DEGREE_CAP}")
            if not (type(c) is tuple and len(c) == 2
                    and type(c[0]) is type(c[1]) is int):
                raise ShapeError(f"coefficient {c!r} of {term} is not an "
                                 "(re, im) pair of ints")
        object.__setattr__(self, "terms", _nonzero(self.terms))

    def is_zero(self) -> bool:
        return not self.terms


def _nonzero(terms: dict[Term, Coeff]) -> dict[Term, Coeff]:
    return {term: c for term, c in terms.items() if c != (0, 0)}


def _exact(coeffs: np.ndarray) -> np.ndarray:
    """coeffs, as Python ints when int64 could overflow in a kernel step.

    ``_momentum``, the one step that multiplies, and ``plus`` and
    ``minus`` bound their operands here before any arithmetic.  From
    parts at most _INT64_SAFE no result reaches int64's limit: P
    multiplies a part by an exponent of at most DEGREE_CAP,
    ``_commutator`` sums at most four parts of P's products and psi into
    one term, and plus and minus sum two terms, all within _INT64_FACTOR
    times the largest part.
    Larger parts run the same code on ``dtype=object`` arrays, which
    numpy sums and multiplies as Python ints.
    """
    if coeffs.dtype == object or \
            int(np.abs(coeffs).max(initial=0)) <= _INT64_SAFE:
        return coeffs
    return coeffs.astype(object)


@functools.lru_cache(maxsize=64)
def _key_layout(n_owners: int, n_particles: int,
                two_s: int) -> list[list[tuple[int, int]]]:
    """Per key word, the (row, radix) of each ``TermBatch`` row it packs.

    Digits are the owner, then (m_k, e_k) per slot, with radix n_owners,
    2s + 1 and _EXPONENT_RADIX; a word takes digits while their radices
    multiply to at most 2^63, so it holds in int64.  A digit of radix 1
    is always 0 and is left out.  A word is built by Horner's rule: its
    first row, then times each next radix plus that row.
    """
    radices = [n_owners] + [two_s + 1, _EXPONENT_RADIX] * n_particles
    words, size = [[]], 1
    for row, radix in enumerate(radices):
        if size * radix > 2 ** 63:
            words.append([])
            size = 1
        size *= radix
        if radix > 1:
            words[-1].append((row, radix))
    return [word for word in words if word]


def _exponent_row(n_particles: int, slot: int) -> int:
    """Row of a 1-based slot's exponents in a ``TermBatch``."""
    if not 1 <= slot <= n_particles:
        raise IndexRangeError(f"slot {slot} out of range 1..{n_particles}")
    return 2 * slot


def _position(rows: np.ndarray, row: int, slot: int) -> np.ndarray:
    """Q_slot on a batch's rows, whose exponents of slot are rows[row]: a
    copy with that row raised by 1."""
    if rows[row].max(initial=0) >= DEGREE_CAP:
        raise DegreeCapError(
            f"exponent of slot {slot} exceeds cap {DEGREE_CAP}")
    rows = rows.copy()
    rows[row] += 1
    return rows


def _momentum(rows: np.ndarray, coeffs: np.ndarray, row: int,
              slot: int) -> tuple[np.ndarray, np.ndarray]:
    """P_slot on a batch's rows and coefficients, e = rows[row].

    On q^e exp(-q^2/2) the derivative is (e q^(e-1) - q^(e+1))
    exp(-q^2/2), so c q^e maps to i c q^(e+1) - i e c q^(e-1): the
    raised block, every column with coefficient (-im, re), then the
    lowered block, the columns where e > 0 with (e im, -e re).
    """
    up = _position(rows, row, slot)
    lower = np.flatnonzero(rows[row])
    down = rows.take(lower, axis=1)
    minus_e = -down[row]
    down[row] -= 1
    re, im = _exact(coeffs)
    out = np.empty((2, len(re) + len(lower)), dtype=re.dtype)
    raised = out[:, :len(re)]
    np.negative(im, out=raised[0])
    raised[1] = re
    np.multiply(raised.take(lower, axis=1), minus_e, out=out[:, len(re):])
    return np.concatenate([up, down], axis=1), out


def _commutator(rows: np.ndarray, coeffs: np.ndarray,
                slots: tuple[int, int], minus_i: bool
                ) -> tuple[np.ndarray, np.ndarray]:
    """[P_a, Q_b] on a slot view, (a, b) = slots, less -i psi on the
    diagonal when minus_i: the columns of the result that do not cancel,
    unmerged, as (rows, coefficients).

    rows is (owner, e_a) or (owner, e_a, e_b), every owner one term
    (``TermBatch.slot_view``).  P_a Q_b psi and Q_b P_a psi are each
    formed by ``_momentum`` and ``_position``.  They line up when Q_b
    P_a psi lists the terms of P_a Q_b psi where a true P and Q place
    them: all of them, in order, off the diagonal; on it the raised
    block, then the lowered one's columns with e_a > 0, and psi's own
    terms in that lowered block, where -i psi is taken.  Then the
    coefficients subtract by position.  Otherwise every column of both
    and of i psi is kept, for the merge to sum.
    """
    b = len(rows) - 1  # the row of e_b: e_a's on the diagonal
    pq_rows, pq = _momentum(_position(rows, b, slots[1]), coeffs, 1,
                            slots[0])
    qp_rows, qp = _momentum(rows, coeffs, 1, slots[0])
    qp_rows = _position(qp_rows, b, slots[1])
    n = rows.shape[1]
    if b == 1:
        at = np.flatnonzero(rows[1])
        aligned = pq_rows.shape[1] == 2 * n \
            and qp_rows.shape[1] == n + len(at) \
            and np.array_equal(pq_rows[:, :n], qp_rows[:, :n]) \
            and np.array_equal(pq_rows[:, n:], rows) \
            and np.array_equal(rows.take(at, axis=1), qp_rows[:, n:])
    else:
        aligned = np.array_equal(pq_rows, qp_rows)
    target = minus_i and b == 1
    if not aligned:
        re, im = _exact(coeffs)
        parts = [(pq_rows, _exact(pq)), (qp_rows, -_exact(qp))]
        if target:
            parts.append((rows, np.stack([-im, re])))
        return (np.concatenate([r for r, _ in parts], axis=1),
                np.concatenate([c for _, c in parts], axis=1))
    out = pq.astype(np.result_type(pq, qp))  # a copy
    if b == 1:
        out[:, :n] -= qp[:, :n]
        for total, part in zip(out[:, n:], qp[:, n:]):  # 1-d is faster
            total[at] -= part
        if target:  # - (-i psi) = (-im, re), on psi's own terms
            re, im = coeffs.astype(out.dtype, copy=False)
            out[0, n:] -= im
            out[1, n:] += re
    else:
        out -= qp
    if not out.any():
        return pq_rows[:, :0], out[:, :0]
    left = np.flatnonzero((out[0] != 0) | (out[1] != 0))
    return pq_rows.take(left, axis=1), out.take(left, axis=1)


@dataclass(eq=False)
class TermBatch:
    """The terms of many wavefunctions, as integer columns: one exact kernel.

    Term t is column t of ``rows``, (owner, m_1, e_1, ..., m_N, e_N): the
    index of the wavefunction it belongs to, then the spin index and the
    exponent of each slot.  ``rows`` is (2N + 1, n_terms) and ``coeffs``
    (2, n_terms), coeffs[0] the real and coeffs[1] the imaginary parts,
    int64, or Python ints (``dtype=object``) when int64 could overflow
    (``_exact``).  Every row is contiguous, so gathers, masks and segment
    sums run over one row at a time.  The operators return batches in
    which a term may repeat; ``merged`` sums like terms and drops zeros.
    ``plus`` and ``minus`` add the coefficients of two batches that list
    the same terms by position, and merge only the columns that do not
    cancel.  No float enters any operation.
    """

    n_particles: int
    two_s: int
    n_owners: int
    rows: np.ndarray
    coeffs: np.ndarray

    def _with(self, rows: np.ndarray, coeffs: np.ndarray,
              n_owners: int | None = None) -> "TermBatch":
        return TermBatch(self.n_particles, self.two_s,
                         self.n_owners if n_owners is None else n_owners,
                         rows, coeffs)

    def q(self, slot: int) -> "TermBatch":
        """Position operator: multiply every wavefunction by q_slot
        (``_position`` on the batch's rows)."""
        return self._with(_position(
            self.rows, _exponent_row(self.n_particles, slot), slot),
            self.coeffs)

    def p(self, slot: int) -> "TermBatch":
        """Momentum operator -i hbar d/dq_slot (``_momentum`` on the
        batch's rows): the raised terms, then the lowered ones."""
        return self._with(*_momentum(
            self.rows, self.coeffs, _exponent_row(self.n_particles, slot),
            slot))

    def commutator_PQ(self, a: int, b: int) -> "TermBatch":
        """[P_a, Q_b] psi = P_a Q_b psi - Q_b P_a psi on every psi, merged:
        ``ccr_residuals``' kernel on the one pair, with no -i psi taken.

        Equals -i hbar psi coefficient-for-coefficient when a == b and the
        zero wavefunction when a != b.
        """
        pairs = [(a, b)]
        return self.lift(*_commutator(*self.slot_view(pairs), (a, b), False),
                         pairs)

    def slot_view(self, pairs: Sequence[tuple[int, int]]
                  ) -> tuple[np.ndarray, np.ndarray]:
        """The operand of [P_a, Q_b] for all the pairs (a, b) at once, as
        (rows, coefficients).

        The pairs are all diagonal or all off-diagonal.  With T terms,
        owner p T + t of the view is term t as pairs[p] sees it, with term
        t's coefficient: rows (owner, e_a) when a == b and (owner, e_a,
        e_b) otherwise.  P and Q read and write these alone; the spin
        indices and the other exponents are term t's, so ``lift`` takes
        them from the owner.
        """
        diagonal = {a == b for a, b in pairs}
        if len(diagonal) != 1:
            raise ShapeError("a slot view takes one or more pairs, all "
                             "diagonal or all off-diagonal")
        if not all(1 <= slot <= self.n_particles for pair in pairs
                   for slot in pair):
            raise IndexRangeError(
                f"slot out of range 1..{self.n_particles} in {pairs}")
        slots = np.array(pairs).T[:1 if diagonal.pop() else 2]
        count = len(pairs) * self.rows.shape[1]
        rows = np.empty((1 + len(slots), count), dtype=_ROW_DTYPE)
        rows[0] = np.arange(count)
        rows[1:] = self.rows[2 * slots].reshape(len(slots), count)
        return rows, np.tile(self.coeffs, len(pairs))

    def lift(self, rows: np.ndarray, coeffs: np.ndarray,
             pairs: Sequence[tuple[int, int]]) -> "TermBatch":
        """Terms on ``slot_view(pairs)``'s rows, back on full terms, merged.

        A term of view owner p T + t becomes term t of self with the
        view's exponents on slots pairs[p], owned by p O + (term t's
        owner), O = n_owners: pair p's terms are owners p O .. (p + 1) O
        - 1.
        """
        n_terms = self.rows.shape[1]
        if rows[0].max(initial=-1) >= len(pairs) * n_terms:
            raise ShapeError("not a slot view of this batch for these pairs")
        pair, term = np.divmod(rows[0], n_terms)
        lifted = self.rows.take(term, axis=1)
        lifted[0] += pair * self.n_owners
        columns = np.arange(len(term))
        for k, slots in enumerate(np.array(pairs).T[:len(rows) - 1]):
            lifted[2 * slots.take(pair), columns] = rows[k + 1]
        return self._with(lifted, coeffs, len(pairs) * self.n_owners).merged()

    def ccr_residuals(
            self, pairs: Sequence[tuple[int, int]]) -> list["TermBatch"]:
        """[P_a, Q_b] psi - delta_ab (-i psi) on every psi, merged, for
        each pair (a, b): one slot-local pass for all of them.

        The pairs are all diagonal or all off-diagonal.  ``_commutator``
        runs once, on ``slot_view(pairs)``'s exponent and coefficient
        rows, and keeps the columns that do not cancel.  Only those are
        lifted to full terms and merged per pair (``lift``), so each
        residual equals the full-row ``commutator_PQ``'s, term for term.
        When none is left, each pair gets an empty batch of self's owners.
        """
        rows, coeffs = self.slot_view(pairs)
        rows, coeffs = _commutator(rows, coeffs, (1, len(rows) - 1), True)
        if not rows.shape[1]:
            return [self._with(self.rows[:, :0].copy(), coeffs)
                    for _ in pairs]
        lifted = self.lift(rows, coeffs, pairs)
        return [lifted.owners(p * self.n_owners, (p + 1) * self.n_owners)
                for p in range(len(pairs))]

    def mul_minus_i(self) -> "TermBatch":
        """-i psi on every psi: (re + i im)(-i) = im - i re."""
        re, im = self.coeffs
        return self._with(self.rows, np.stack([im, -re]))

    def _joined(self, other: "TermBatch", sign: int) -> "TermBatch":
        """self + sign * other, owner by owner, merged.

        When other lists self's terms in self's order, its coefficients
        add by position and only the columns that do not cancel are
        merged; otherwise both batches' columns are.  Either way every
        term's sum is the same.
        """
        if (other.n_particles, other.two_s, other.n_owners) != \
                (self.n_particles, self.two_s, self.n_owners):
            raise ShapeError("term batch shape mismatch")
        mine, theirs = _exact(self.coeffs), sign * _exact(other.coeffs)
        if np.array_equal(self.rows, other.rows):
            coeffs = mine + theirs
            left = np.flatnonzero((coeffs[0] != 0) | (coeffs[1] != 0))
            return self._with(self.rows.take(left, axis=1),
                              coeffs.take(left, axis=1)).merged()
        return self._with(np.concatenate([self.rows, other.rows], axis=1),
                          np.concatenate([mine, theirs], axis=1)).merged()

    def plus(self, other: "TermBatch") -> "TermBatch":
        """self + other, owner by owner, merged."""
        return self._joined(other, 1)

    def minus(self, other: "TermBatch") -> "TermBatch":
        """self - other, owner by owner, merged."""
        return self._joined(other, -1)

    def owners(self, start: int, stop: int) -> "TermBatch":
        """The terms of wavefunctions start..stop-1, renumbered from 0."""
        keep = np.flatnonzero((self.rows[0] >= start)
                              & (self.rows[0] < stop))
        rows = self.rows.take(keep, axis=1)
        rows[0] -= start
        return self._with(rows, self.coeffs.take(keep, axis=1),
                          max(0, min(stop, self.n_owners) - start))

    def head(self, count: int) -> "TermBatch":
        """The terms of the first count wavefunctions."""
        return self.owners(0, count)

    def permute_slots(self, mapping: tuple[int, ...]) -> "TermBatch":
        """Permute particles: slot k's (m_k, e_k) moves to slot mapping[k]."""
        source = [0] * self.n_particles
        for k, target in enumerate(mapping):
            source[target - 1] = k
        rows = [0] + [2 * k + j for k in source for j in (1, 2)]
        return self._with(self.rows.take(rows, axis=0), self.coeffs)

    def nonzero_owners(self) -> np.ndarray:
        """Per wavefunction, whether it has a term (on a merged batch: is
        nonzero)."""
        found = np.zeros(self.n_owners, dtype=bool)
        found[self.rows[0]] = True
        return found

    def is_zero(self) -> bool:
        return not self.rows.shape[1]

    def merged(self) -> "TermBatch":
        """Like terms of each owner summed, zero coefficients dropped.

        Sorts on the packed key words and adds every coefficient into
        the sum of its run of equal keys (``np.add.at``).  A batch whose
        first key word strictly increases lists distinct terms in key
        order already: it only drops its zero coefficients, with no sort.
        """
        n_terms = self.rows.shape[1]
        if not n_terms:
            return self
        # owner and term packed into int64 words: equal in every word means
        # the same owner and term
        words = []
        for (first, _), *digits in _key_layout(
                self.n_owners, self.n_particles, self.two_s):
            word = self.rows[first].astype(np.int64)
            for row, radix in digits:
                word *= radix
                word += self.rows[row]
            words.append(word)
        if (words[0][1:] > words[0][:-1]).all():
            keep = np.flatnonzero((self.coeffs[0] != 0)
                                  | (self.coeffs[1] != 0))
            return self._with(self.rows.take(keep, axis=1),
                              self.coeffs.take(keep, axis=1))
        order = np.lexsort(words[::-1])
        fresh = np.zeros(n_terms, dtype=bool)  # sorted term i starts a run
        fresh[0] = True
        for word in words:
            word = word.take(order)
            fresh[1:] |= word[1:] != word[:-1]
        del words, word  # freed before the sums, where memory peaks
        run = np.cumsum(fresh) - 1  # the run of each sorted term
        sums = np.zeros((2, run[-1] + 1), dtype=self.coeffs.dtype)
        for total, part in zip(sums, self.coeffs):
            np.add.at(total, run, part.take(order))
        keep = np.flatnonzero((sums[0] != 0) | (sums[1] != 0))
        kept = order.take(np.flatnonzero(fresh).take(keep))
        return self._with(self.rows.take(kept, axis=1),
                          sums.take(keep, axis=1))

    def unpack(self) -> list[SpinorWavefunction]:
        """One wavefunction per owner, from a batch with no repeated term.

        The kernel keeps arity, spin range, sign of exponents and the
        degree cap, so the results skip ``__post_init__``.
        """
        terms: list[dict[Term, Coeff]] = [{} for _ in range(self.n_owners)]
        re, im = self.coeffs.tolist()
        for row, c in zip(self.rows.T.tolist(), zip(re, im)):
            terms[row[0]][tuple(zip(row[1::2], row[2::2]))] = c
        out = [object.__new__(SpinorWavefunction) for _ in terms]
        for wf, t in zip(out, terms):
            wf.__dict__.update(n_particles=self.n_particles,
                               two_s=self.two_s, terms=_nonzero(t))
        return out


def pack(wavefunctions: Sequence[SpinorWavefunction]) -> TermBatch:
    """Every term of every wavefunction as one batch; owner i is the i-th."""
    n, two_s = wavefunctions[0].n_particles, wavefunctions[0].two_s
    if any((wf.n_particles, wf.two_s) != (n, two_s) for wf in wavefunctions):
        raise ShapeError("spinor shape mismatch")
    count = sum(len(wf.terms) for wf in wavefunctions)
    rows = np.empty((2 * n + 1, count), dtype=_ROW_DTYPE)
    rows[0] = np.repeat(np.arange(len(wavefunctions)),
                        [len(wf.terms) for wf in wavefunctions])
    flat = itertools.chain.from_iterable
    rows[1:] = np.fromiter(
        flat(flat(flat(wf.terms for wf in wavefunctions))),
        dtype=_ROW_DTYPE, count=count * 2 * n).reshape(count, 2 * n).T

    def parts():
        return flat(flat(wf.terms.values() for wf in wavefunctions))
    dtype = np.int64 if max(map(abs, parts()), default=0) <= _INT64_SAFE \
        else object
    coeffs = np.fromiter(parts(), dtype=dtype, count=2 * count)
    return TermBatch(n, two_s, len(wavefunctions), rows,
                     np.stack([coeffs[0::2], coeffs[1::2]]))


def stack(batches: Sequence[TermBatch]) -> TermBatch:
    """One batch of every batch's wavefunctions, in order: the owners of
    batches[k] follow those of batches[k - 1]."""
    first = batches[0]
    if any((b.n_particles, b.two_s) != (first.n_particles, first.two_s)
           for b in batches):
        raise ShapeError("term batch shape mismatch")
    offsets = np.cumsum([0] + [b.n_owners for b in batches])
    rows = np.concatenate([b.rows for b in batches], axis=1)
    rows[0] += np.repeat(offsets[:-1].astype(_ROW_DTYPE),
                         [b.rows.shape[1] for b in batches])
    return first._with(rows, np.concatenate([b.coeffs for b in batches],
                                            axis=1), int(offsets[-1]))


def monomials(n_particles: int, slots: Sequence[int],
              max_degree: int) -> TermBatch:
    """Every spin-0 monomial in the given slots up to max_degree, one per
    owner, each with coefficient 1."""
    if max_degree > DEGREE_CAP:
        raise DegreeCapError(
            f"max_degree {max_degree} exceeds cap {DEGREE_CAP}")
    exponent_rows = [_exponent_row(n_particles, slot) for slot in slots]
    exps = np.indices([max_degree + 1] * len(slots)).reshape(len(slots), -1)
    count = exps.shape[1]
    rows = np.zeros((2 * n_particles + 1, count), dtype=_ROW_DTYPE)
    rows[0] = np.arange(count)
    rows[exponent_rows] = exps
    coeffs = np.zeros((2, count), dtype=np.int64)
    coeffs[0] = 1
    return TermBatch(n_particles, 0, count, rows, coeffs)


def draw_wavefunctions(n_particles: int, max_degree: int, two_s: int,
                       count: int, seed: int) -> TermBatch:
    """count seeded random spinor wavefunctions, as one merged batch.

    Each is nonzero on up to four spin configurations, drawn slot by slot
    (a repeated one merges), and carries 1..4 monomials on each, with
    per-variable degree at most max_degree and coefficient
    (re + i im) / den, re and im in -9..9 and den in 1..9.  One numpy
    Generator, seeded by SeedSequence([seed, two_s, n_particles]), draws
    the spins (count * 4, N), the monomial counts (count * 4), the
    exponents (terms, N), the numerators (terms, 2) and the denominators
    (terms), in that order.  A wavefunction whose terms all cancel
    gets the constant term with every spin index 0, so none is zero: the
    zero wavefunction would satisfy relation C on every pair.  Each is
    returned scaled to coprime Gaussian integers.
    """
    if max_degree > DEGREE_CAP:
        raise DegreeCapError(
            f"max_degree {max_degree} exceeds cap {DEGREE_CAP}")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, two_s, n_particles]))
    spins = rng.integers(0, two_s + 1, size=(4 * count, n_particles))
    per_config = rng.integers(1, 5, size=4 * count)
    n_terms = int(per_config.sum())
    rows = np.empty((2 * n_particles + 1, n_terms), dtype=_ROW_DTYPE)
    rows[0] = np.repeat(np.arange(4 * count) // 4, per_config)
    rows[1::2] = np.repeat(spins.T, per_config, axis=1)
    rows[2::2] = rng.integers(0, max_degree + 1,
                              size=(n_terms, n_particles)).T
    # coefficients are held exactly as numerators over _DRAW_LCM
    numerators = rng.integers(-9, 10, size=(n_terms, 2))
    scale = _DRAW_LCM // rng.integers(1, 10, n_terms)
    coeffs = np.stack([numerators[:, 0], numerators[:, 1]]) * scale
    batch = TermBatch(n_particles, two_s, count, rows, coeffs).merged()
    rows, coeffs = batch.rows, batch.coeffs
    # terms are sorted by owner, and an owner left with none gets its
    # constant term in its place
    empty = np.flatnonzero(~batch.nonzero_owners())
    if len(empty):
        at = np.searchsorted(rows[0], empty)
        constant = np.zeros((2 * n_particles + 1, len(empty)),
                            dtype=_ROW_DTYPE)
        constant[0] = empty
        rows = np.insert(rows, at, constant, axis=1)
        coeffs = np.insert(coeffs, at, [[1], [0]], axis=1)
    starts = np.searchsorted(rows[0], np.arange(count))
    g = np.gcd.reduceat(np.gcd(coeffs[0], coeffs[1]), starts)
    return batch._with(rows, coeffs // g.take(rows[0]))


def symmetric_product_state(phi_coeffs: dict[int, Coeff], n_particles: int):
    """phi(q_1) ... phi(q_N) from a single-variable polynomial phi.

    The bosonic direct-product case: a spin-0 wavefunction.  phi maps
    exponents to Gaussian-integer coefficients; for a rational phi, pass
    it times the LCM L of its denominators, which gives L^N times the
    rational product, the same ray.
    """
    terms: dict[Term, Coeff] = {(): (1, 0)}
    for _ in range(n_particles):
        terms = {term + ((0, e),): (x * u - y * v, x * v + y * u)
                 for term, (x, y) in terms.items()
                 for e, (u, v) in phi_coeffs.items()}
    return SpinorWavefunction(n_particles, 0, terms)
