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

P, Q and the commutator have one implementation, ``TermBatch``: the
terms of many wavefunctions as rows of integers, with like terms merged
by sorting on a packed integer key.  ``apply_P``, ``apply_Q`` and
``commutator_PQ_apply`` run it on a batch of one.
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
#: dtype of TermBatch rows; ``pack`` reads spin indices and exponents with
#: np.fromiter, which refuses a value past int32 rather than wrap it
_ROW_DTYPE = np.int32
#: radix of an exponent digit in a packed term key: exponents run 0..DEGREE_CAP
_EXPONENT_RADIX = DEGREE_CAP + 1
#: bound on any sum or product one kernel step takes of its parts (``_exact``)
_INT64_FACTOR = 4 * (DEGREE_CAP + 1)
#: largest coefficient part the kernel computes with in int64
_INT64_SAFE = np.iinfo(np.int64).max // _INT64_FACTOR
#: i (re + i im) = -im + i re and -i (re + i im) = im - i re, as factors
#: of the swapped parts (im, re)
_TIMES_I = np.array([-1, 1], dtype=np.int64)
_TIMES_MINUS_I = np.array([1, -1], dtype=np.int64)
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

    # the operations below run the TermBatch kernel on a batch of one

    def __sub__(self, other: "SpinorWavefunction") -> "SpinorWavefunction":
        return pack([self]).minus(pack([other])).unpack()[0]

    def mul_minus_i(self) -> "SpinorWavefunction":
        """-i psi, the target of [P_a, Q_a] psi: (re + i im)(-i) = im - i re."""
        return pack([self]).mul_minus_i().unpack()[0]

    def is_zero(self) -> bool:
        return not self.terms

    def permute_slots(self, mapping: tuple[int, ...]) -> "SpinorWavefunction":
        """Permute particles: slot k's (m_k, e_k) moves to slot mapping[k]."""
        return pack([self]).permute_slots(mapping).unpack()[0]

    def __hash__(self):
        return hash((self.n_particles, self.two_s,
                     frozenset(self.terms.items())))


def _nonzero(terms: dict[Term, Coeff]) -> dict[Term, Coeff]:
    return {term: c for term, c in terms.items() if c != (0, 0)}


def _exact(coeffs: np.ndarray) -> np.ndarray:
    """coeffs, as Python ints when int64 could overflow in a kernel step.

    ``p``, the one step that multiplies, and ``minus`` bound their
    operands here before any arithmetic.  From parts at most _INT64_SAFE
    no result reaches int64's limit: p multiplies a part by an exponent
    of at most DEGREE_CAP, [P_a, Q_b] sums at most four products of p
    into one term, and minus sums two terms, all within _INT64_FACTOR
    times the largest part.  Larger parts run the same code on
    ``dtype=object`` arrays, which numpy sums and multiplies as Python
    ints.
    """
    if coeffs.dtype == object or \
            int(np.abs(coeffs).max(initial=0)) <= _INT64_SAFE:
        return coeffs
    return coeffs.astype(object)


@functools.lru_cache(maxsize=64)
def _key_layout(n_owners: int, n_particles: int,
                two_s: int) -> list[tuple[slice, np.ndarray]]:
    """The run of row columns each key word packs, and their place values.

    Digits are the owner, then (m_k, e_k) per slot, with radix n_owners,
    2s + 1 and _EXPONENT_RADIX; a word takes digits while their radices
    multiply to at most 2^63, so it holds in int64.
    """
    radices = [n_owners] + [two_s + 1, _EXPONENT_RADIX] * n_particles
    words, start, size = [], 0, 1
    # a radix past 2^63 at the end closes the last word
    for col, radix in enumerate(radices + [2 ** 63 + 1]):
        if size * radix > 2 ** 63 and col > start:
            weights = [math.prod(radices[c + 1:col])
                       for c in range(start, col)]
            words.append((slice(start, col),
                          np.array(weights, dtype=np.int64)))
            start, size = col, 1
        size *= radix
    return words


def _exponent_column(n_particles: int, slot: int) -> int:
    """Column of a 1-based slot's exponent in a ``TermBatch`` row."""
    if not 1 <= slot <= n_particles:
        raise IndexRangeError(f"slot {slot} out of range 1..{n_particles}")
    return 2 * slot


@dataclass(eq=False)
class TermBatch:
    """The terms of many wavefunctions, as integer rows: one exact kernel.

    Row t is (owner, m_1, e_1, ..., m_N, e_N): the index of the
    wavefunction it belongs to, then the spin index and the exponent of
    each slot.  coeffs[t] is its (re, im) coefficient, int64, or Python
    ints (``dtype=object``) when int64 could overflow (``_exact``).  The
    operators return row sets in which a term may repeat; ``merged`` sums
    like terms and drops zeros.  No float enters any operation.
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

    def _raised(self, slot: int) -> tuple[int, np.ndarray]:
        """The exponent column of slot, and the rows with it raised by 1."""
        col = _exponent_column(self.n_particles, slot)
        if self.rows[:, col].max(initial=0) >= DEGREE_CAP:
            raise DegreeCapError(
                f"exponent of slot {slot} exceeds cap {DEGREE_CAP}")
        rows = self.rows.copy()
        rows[:, col] += 1
        return col, rows

    def q(self, slot: int) -> "TermBatch":
        """Position operator: multiply every wavefunction by q_slot."""
        return self._with(self._raised(slot)[1], self.coeffs)

    def p(self, slot: int) -> "TermBatch":
        """Momentum operator -i hbar d/dq_slot, acting through the Gaussian.

        On q^e exp(-q^2/2) the derivative is (e q^(e-1) - q^(e+1))
        exp(-q^2/2), so c q^e maps to i c q^(e+1) - i e c q^(e-1): the
        raised row with coefficient (-im, re) and, where e > 0, the
        lowered row with (e im, -e re).
        """
        col, up = self._raised(slot)
        lower = self.rows[:, col] > 0
        down = self.rows[lower]
        e = down[:, col:col + 1].copy()
        down[:, col] -= 1
        swapped = _exact(self.coeffs)[:, ::-1]  # (im, re)
        return self._with(
            np.concatenate([up, down]),
            np.concatenate([swapped * _TIMES_I,
                            swapped[lower] * e * _TIMES_MINUS_I]))

    def commutator_PQ(self, a: int, b: int) -> "TermBatch":
        """[P_a, Q_b] psi = P_a Q_b psi - Q_b P_a psi on every psi, merged.

        Equals -i hbar psi coefficient-for-coefficient when a == b and the
        zero wavefunction when a != b.
        """
        pq, qp = self.q(b).p(a), self.p(a).q(b)
        both = self._with(np.concatenate([pq.rows, qp.rows]),
                          np.concatenate([pq.coeffs, -qp.coeffs]))
        del pq, qp  # freed before the merge, where memory peaks
        return both.merged()

    def mul_minus_i(self) -> "TermBatch":
        """-i psi on every psi: (re + i im)(-i) = im - i re."""
        return self._with(self.rows, self.coeffs[:, ::-1] * _TIMES_MINUS_I)

    def minus(self, other: "TermBatch") -> "TermBatch":
        """self - other, owner by owner, merged."""
        if (other.n_particles, other.two_s, other.n_owners) != \
                (self.n_particles, self.two_s, self.n_owners):
            raise ShapeError("term batch shape mismatch")
        return self._with(
            np.concatenate([self.rows, other.rows]),
            np.concatenate([_exact(self.coeffs), -_exact(other.coeffs)]),
        ).merged()

    def head(self, count: int) -> "TermBatch":
        """The rows of the first count wavefunctions."""
        keep = self.rows[:, 0] < count
        return self._with(self.rows[keep], self.coeffs[keep],
                          min(count, self.n_owners))

    def permute_slots(self, mapping: tuple[int, ...]) -> "TermBatch":
        """Permute particles: slot k's (m_k, e_k) moves to slot mapping[k]."""
        source = [0] * self.n_particles
        for k, target in enumerate(mapping):
            source[target - 1] = k
        columns = [0] + [2 * k + j for k in source for j in (1, 2)]
        return self._with(self.rows[:, columns], self.coeffs)

    def nonzero_owners(self) -> np.ndarray:
        """Per wavefunction, whether it has a row (on a merged batch: is
        nonzero)."""
        found = np.zeros(self.n_owners, dtype=bool)
        found[self.rows[:, 0]] = True
        return found

    def is_zero(self) -> bool:
        return not len(self.rows)

    def merged(self) -> "TermBatch":
        """Like terms of each owner summed, zero coefficients dropped.

        Sorts on the packed key words, sums each run of equal keys with
        ``np.add.reduceat``.
        """
        if not len(self.rows):
            return self
        # owner and term packed into int64 words: equal in every word means
        # the same owner and term
        words = [np.einsum("ij,j->i", self.rows[:, cols], weights)
                 for cols, weights
                 in _key_layout(self.n_owners, self.n_particles, self.two_s)]
        order = np.lexsort(words[::-1])
        same = np.ones(len(order) - 1, dtype=bool)  # row i + 1 repeats row i
        for word in words:
            word = word[order]
            same &= word[1:] == word[:-1]
        starts = np.flatnonzero(np.concatenate([[True], ~same]))
        coeffs = np.add.reduceat(self.coeffs[order], starts, axis=0)
        keep = (coeffs != 0).any(axis=1)
        return self._with(self.rows[order[starts[keep]]], coeffs[keep])

    def unpack(self) -> list[SpinorWavefunction]:
        """One wavefunction per owner, from a batch with no repeated term.

        The kernel keeps arity, spin range, sign of exponents and the
        degree cap, so the results skip ``__post_init__``.
        """
        terms: list[dict[Term, Coeff]] = [{} for _ in range(self.n_owners)]
        for row, (re, im) in zip(self.rows.tolist(), self.coeffs.tolist()):
            terms[row[0]][tuple(zip(row[1::2], row[2::2]))] = (re, im)
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
    rows = np.empty((count, 2 * n + 1), dtype=_ROW_DTYPE)
    rows[:, 0] = np.repeat(np.arange(len(wavefunctions)),
                           [len(wf.terms) for wf in wavefunctions])
    flat = itertools.chain.from_iterable
    rows[:, 1:] = np.fromiter(
        flat(flat(flat(wf.terms for wf in wavefunctions))),
        dtype=_ROW_DTYPE, count=count * 2 * n).reshape(count, 2 * n)

    def parts():
        return flat(flat(wf.terms.values() for wf in wavefunctions))
    dtype = np.int64 if max(map(abs, parts()), default=0) <= _INT64_SAFE \
        else object
    coeffs = np.fromiter(parts(), dtype=dtype, count=2 * count)
    return TermBatch(n, two_s, len(wavefunctions), rows,
                     coeffs.reshape(count, 2))


def monomials(n_particles: int, slots: Sequence[int],
              max_degree: int) -> TermBatch:
    """Every spin-0 monomial in the given slots up to max_degree, one per
    owner, each with coefficient 1."""
    if max_degree > DEGREE_CAP:
        raise DegreeCapError(
            f"max_degree {max_degree} exceeds cap {DEGREE_CAP}")
    cols = [_exponent_column(n_particles, slot) for slot in slots]
    exps = np.indices([max_degree + 1] * len(cols)).reshape(len(cols), -1)
    count = exps.shape[1]
    rows = np.zeros((count, 2 * n_particles + 1), dtype=_ROW_DTYPE)
    rows[:, 0] = np.arange(count)
    rows[:, cols] = exps.T
    return TermBatch(n_particles, 0, count, rows,
                     np.tile(np.array([1, 0], np.int64), (count, 1)))


def apply_Q(psi: SpinorWavefunction, slot: int) -> SpinorWavefunction:
    """Position operator: multiply by q_slot (the kernel on a batch of one)."""
    return pack([psi]).q(slot).unpack()[0]


def apply_P(psi: SpinorWavefunction, slot: int) -> SpinorWavefunction:
    """Momentum operator -i hbar d/dq_slot (the kernel on a batch of one)."""
    return pack([psi]).p(slot).merged().unpack()[0]


def commutator_PQ_apply(psi: SpinorWavefunction, a: int,
                        b: int) -> SpinorWavefunction:
    """[P_a, Q_b] psi, exactly (the kernel on a batch of one).

    Equals -i hbar psi coefficient-for-coefficient when a == b and the
    zero wavefunction when a != b.
    """
    return pack([psi]).commutator_PQ(a, b).unpack()[0]


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
    (terms, 1), in that order.  A wavefunction whose terms all cancel
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
    rows = np.empty((n_terms, 2 * n_particles + 1), dtype=_ROW_DTYPE)
    rows[:, 0] = np.repeat(np.arange(4 * count) // 4, per_config)
    rows[:, 1::2] = np.repeat(spins, per_config, axis=0)
    rows[:, 2::2] = rng.integers(0, max_degree + 1,
                                 size=(n_terms, n_particles))
    # coefficients are held exactly as numerators over _DRAW_LCM
    numerators = rng.integers(-9, 10, size=(n_terms, 2))
    coeffs = numerators * (_DRAW_LCM // rng.integers(1, 10, (n_terms, 1)))
    batch = TermBatch(n_particles, two_s, count, rows, coeffs).merged()
    # rows are sorted by owner, and an owner left with none gets its
    # constant term in its place
    empty = np.flatnonzero(~batch.nonzero_owners())
    at = np.searchsorted(batch.rows[:, 0], empty)
    constant = np.zeros((len(empty), 2 * n_particles + 1), dtype=_ROW_DTYPE)
    constant[:, 0] = empty
    rows = np.insert(batch.rows, at, constant, axis=0)
    coeffs = np.insert(batch.coeffs, at, [1, 0], axis=0)
    starts = np.searchsorted(rows[:, 0], np.arange(count))
    g = np.gcd.reduceat(np.gcd(coeffs[:, 0], coeffs[:, 1]), starts)
    return batch._with(rows, coeffs // g[rows[:, 0], None])


def random_wavefunction(n_particles: int, max_degree: int, spin_two_s: int,
                        seed: int) -> SpinorWavefunction:
    """One seeded random spinor wavefunction (``draw_wavefunctions``)."""
    return draw_wavefunctions(n_particles, max_degree, spin_two_s, 1,
                              seed).unpack()[0]


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
