"""Exact symbolic model of the infinite-dimensional case.

A wavefunction is a finite sum of terms.  Each term is a product over
particles k of a spin basis vector |m_k>, a power q_k^e_k of the
particle's coordinate and an implicit Gaussian factor exp(-q_k^2 / 2),
with a complex-rational coefficient.  The class is closed under position
multiplication and -i hbar differentiation, so the canonical commutator
is an exact coefficient-level identity here: no tolerances anywhere in
this module's verdicts.

Configuration space is one-dimensional per particle, which makes the
commutator constant exactly -i hbar (hbar = 1).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapError, IndexRangeError, ShapeError

DEFAULT_DEGREE_CAP = 32

#: per-particle (spin index m_k, exponent e_k) pairs, slot 1 first
Term = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class QComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def mul_minus_i(self) -> "QComplex":
        """(re + i im)(-i) = im - i re, without general multiplication."""
        return QComplex(self.im, -self.re)

    def scale(self, r: Fraction) -> "QComplex":
        return QComplex(self.re * r, self.im * r)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


QC_ZERO = QComplex()
QC_ONE = QComplex(Fraction(1))
#: -i, the commutator constant [P, Q] = -i hbar with hbar = 1
MINUS_I = QComplex(Fraction(0), Fraction(-1))


@dataclass(frozen=True)
class SpinorWavefunction:
    """Sum over terms of coefficient * prod_k |m_k> q_k^e_k exp(-q_k^2/2).

    ``terms`` maps each term, the tuple of per-particle (m_k, e_k) pairs
    with spin index 0 <= m_k <= 2s, to its coefficient.  Zero
    coefficients are dropped.
    """

    n_particles: int
    two_s: int
    terms: dict[Term, QComplex]
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        clean = {}
        for term, c in self.terms.items():
            if len(term) != self.n_particles:
                raise ShapeError(f"term {term} has wrong arity")
            for m, e in term:
                if not 0 <= m <= self.two_s:
                    raise ShapeError(
                        f"spin index in {term} out of range 0..{self.two_s}")
                if e < 0:
                    raise ShapeError(f"negative exponent in {term}")
                if e > self.degree_cap:
                    raise DegreeCapError(
                        f"exponent in {term} exceeds cap {self.degree_cap}")
            if not c.is_zero():
                clean[term] = c
        object.__setattr__(self, "terms", clean)

    def _with_terms(self, terms: dict[Term, QComplex]) -> "SpinorWavefunction":
        return SpinorWavefunction(self.n_particles, self.two_s, terms,
                                  self.degree_cap)

    def _combine(self, other: "SpinorWavefunction", op):
        if (other.n_particles, other.two_s) != (self.n_particles, self.two_s):
            raise ShapeError("spinor shape mismatch")
        out = dict(self.terms)
        for term, c in other.terms.items():
            out[term] = op(out.get(term, QC_ZERO), c)
        return self._with_terms(out)

    def __add__(self, other: "SpinorWavefunction") -> "SpinorWavefunction":
        return self._combine(other, operator.add)

    def __sub__(self, other: "SpinorWavefunction") -> "SpinorWavefunction":
        return self._combine(other, operator.sub)

    def scale(self, z: QComplex) -> "SpinorWavefunction":
        if z == MINUS_I:
            return self._with_terms(
                {term: c.mul_minus_i() for term, c in self.terms.items()})
        return self._with_terms(
            {term: c * z for term, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def permute_slots(self, mapping: tuple[int, ...]) -> "SpinorWavefunction":
        """Permute particles: slot k's (m_k, e_k) moves to slot mapping[k]."""
        source = [0] * self.n_particles
        for k, target in enumerate(mapping):
            source[target - 1] = k
        return self._with_terms(
            {tuple(term[k] for k in source): c
             for term, c in self.terms.items()})

    def _slot_index(self, slot: int) -> int:
        """0-based position of a 1-based slot within a term."""
        if not 1 <= slot <= self.n_particles:
            raise IndexRangeError(
                f"slot {slot} out of range 1..{self.n_particles}")
        return slot - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, SpinorWavefunction)
                and self.n_particles == other.n_particles
                and self.two_s == other.two_s
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_particles, self.two_s,
                     frozenset(self.terms.items())))


def _shift(term: Term, k: int, de: int) -> Term:
    """term with the exponent of position k raised by de."""
    m, e = term[k]
    return term[:k] + ((m, e + de),) + term[k + 1:]


def apply_Q(psi: SpinorWavefunction, slot: int) -> SpinorWavefunction:
    """Position operator: multiply by q_slot."""
    k = psi._slot_index(slot)
    return psi._with_terms(
        {_shift(term, k, 1): c for term, c in psi.terms.items()})


def apply_P(psi: SpinorWavefunction, slot: int) -> SpinorWavefunction:
    """Momentum operator -i hbar d/dq_slot, acting through the Gaussian.

    On q^e exp(-q^2/2) the derivative is (e q^(e-1) - q^(e+1)) exp(-q^2/2).
    """
    k = psi._slot_index(slot)
    out: dict[Term, QComplex] = {}
    for term, c in psi.terms.items():
        c = c.mul_minus_i()
        up = _shift(term, k, 1)
        out[up] = out.get(up, QC_ZERO) - c
        e = term[k][1]
        if e:
            down = _shift(term, k, -1)
            out[down] = out.get(down, QC_ZERO) + c.scale(Fraction(e))
    return psi._with_terms(out)


def commutator_PQ_apply(psi: SpinorWavefunction, a: int,
                        b: int) -> SpinorWavefunction:
    """[P_a, Q_b] psi = P_a Q_b psi - Q_b P_a psi, exactly.

    Equals -i hbar psi coefficient-for-coefficient when a == b and the
    zero wavefunction when a != b.
    """
    return apply_P(apply_Q(psi, b), a) - apply_Q(apply_P(psi, a), b)


def random_wavefunction(n_particles: int, max_degree: int, spin_two_s: int,
                        seed: int,
                        degree_cap: int = DEFAULT_DEGREE_CAP) -> SpinorWavefunction:
    """Seeded random spinor wavefunction with sparse rational coefficients.

    Nonzero on up to four spin configurations, drawn by flat index over
    the (2s+1)^N configurations with slot 1 the most significant digit;
    each carries a handful of random monomials with per-variable degree
    at most max_degree.
    """
    if max_degree > degree_cap:
        raise DegreeCapError(f"max_degree {max_degree} exceeds cap {degree_cap}")
    rng = random.Random(seed)
    d = spin_two_s + 1
    n_configs = d ** n_particles
    active = rng.sample(range(n_configs), min(n_configs, 4))
    terms: dict[Term, QComplex] = {}
    for flat in sorted(active):
        spins = [flat // d ** (n_particles - 1 - k) % d
                 for k in range(n_particles)]
        part: dict[Term, QComplex] = {}
        for _ in range(rng.randint(1, 4)):
            term = tuple((m, rng.randint(0, max_degree)) for m in spins)
            num_re = rng.randint(-9, 9)
            num_im = rng.randint(-9, 9)
            den = rng.randint(1, 9)
            part[term] = part.get(term, QC_ZERO) + QComplex(
                Fraction(num_re, den), Fraction(num_im, den))
        if all(c.is_zero() for c in part.values()):
            part[tuple((m, 0) for m in spins)] = QC_ONE
        terms.update(part)
    return SpinorWavefunction(n_particles, spin_two_s, terms, degree_cap)


def symmetric_product_state(phi_coeffs: dict[int, QComplex], n_particles: int,
                            degree_cap: int = DEFAULT_DEGREE_CAP):
    """phi(q_1) ... phi(q_N) from a single-variable polynomial phi.

    The bosonic direct-product case: a spin-0 wavefunction.
    """
    terms: dict[Term, QComplex] = {(): QC_ONE}
    for _ in range(n_particles):
        terms = {term + ((0, e),): c * z
                 for term, c in terms.items() for e, z in phi_coeffs.items()}
    return SpinorWavefunction(n_particles, 0, terms, degree_cap)
