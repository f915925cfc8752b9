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
by the LCM of its denominators, as the samplers below return it, gets
the same verdict on every pair.

Configuration space is one-dimensional per particle, which makes the
commutator constant exactly -i hbar (hbar = 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DegreeCapError, IndexRangeError, ShapeError

#: largest exponent of any q_k that a wavefunction may carry
DEGREE_CAP = 32
#: lcm(1, ..., 9), a multiple of every denominator random_wavefunction draws
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

    def _derived(self, terms: dict[Term, Coeff],
                 raised: int | None = None) -> "SpinorWavefunction":
        """Trusted constructor for the results of this module's operations.

        It skips ``__post_init__``: the results keep arity, spin range and
        sign of exponents by construction, so only the exponent of slot
        position ``raised``, the one an operator raised, is checked
        against the degree cap.  Zero coefficients are dropped.
        """
        if raised is not None and any(
                term[raised][1] > DEGREE_CAP for term in terms):
            raise DegreeCapError(
                f"exponent of slot {raised + 1} exceeds cap {DEGREE_CAP}")
        out = object.__new__(SpinorWavefunction)
        out.__dict__.update(n_particles=self.n_particles, two_s=self.two_s,
                            terms=_nonzero(terms))
        return out

    def __sub__(self, other: "SpinorWavefunction") -> "SpinorWavefunction":
        if (other.n_particles, other.two_s) != (self.n_particles, self.two_s):
            raise ShapeError("spinor shape mismatch")
        out = dict(self.terms)
        for term, (re, im) in other.terms.items():
            x, y = out.get(term, (0, 0))
            out[term] = (x - re, y - im)
        return self._derived(out)

    def mul_minus_i(self) -> "SpinorWavefunction":
        """-i psi, the target of [P_a, Q_a] psi: (re + i im)(-i) = im - i re."""
        return self._derived(
            {term: (im, -re) for term, (re, im) in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def permute_slots(self, mapping: tuple[int, ...]) -> "SpinorWavefunction":
        """Permute particles: slot k's (m_k, e_k) moves to slot mapping[k]."""
        source = [0] * self.n_particles
        for k, target in enumerate(mapping):
            source[target - 1] = k
        return self._derived(
            {tuple(term[k] for k in source): c
             for term, c in self.terms.items()})

    def _slot_index(self, slot: int) -> int:
        """0-based position of a 1-based slot within a term."""
        if not 1 <= slot <= self.n_particles:
            raise IndexRangeError(
                f"slot {slot} out of range 1..{self.n_particles}")
        return slot - 1

    def __hash__(self):
        return hash((self.n_particles, self.two_s,
                     frozenset(self.terms.items())))


def _nonzero(terms: dict[Term, Coeff]) -> dict[Term, Coeff]:
    return {term: c for term, c in terms.items() if c != (0, 0)}


def apply_Q(psi: SpinorWavefunction, slot: int) -> SpinorWavefunction:
    """Position operator: multiply by q_slot."""
    k = psi._slot_index(slot)
    return psi._derived(
        {term[:k] + ((term[k][0], term[k][1] + 1),) + term[k + 1:]: c
         for term, c in psi.terms.items()}, raised=k)


def apply_P(psi: SpinorWavefunction, slot: int) -> SpinorWavefunction:
    """Momentum operator -i hbar d/dq_slot, acting through the Gaussian.

    On q^e exp(-q^2/2) the derivative is (e q^(e-1) - q^(e+1)) exp(-q^2/2),
    so c q^e maps to i c q^(e+1) - i e c q^(e-1).
    """
    k = psi._slot_index(slot)
    out: dict[Term, Coeff] = {}
    for term, (re, im) in psi.terms.items():
        head, (m, e), tail = term[:k], term[k], term[k + 1:]
        up = head + ((m, e + 1),) + tail
        x, y = out.get(up, (0, 0))
        out[up] = (x - im, y + re)
        if e:
            down = head + ((m, e - 1),) + tail
            x, y = out.get(down, (0, 0))
            out[down] = (x + e * im, y - e * re)
    return psi._derived(out, raised=k)


def commutator_PQ_apply(psi: SpinorWavefunction, a: int,
                        b: int) -> SpinorWavefunction:
    """[P_a, Q_b] psi = P_a Q_b psi - Q_b P_a psi, exactly.

    Equals -i hbar psi coefficient-for-coefficient when a == b and the
    zero wavefunction when a != b.
    """
    return apply_P(apply_Q(psi, b), a) - apply_Q(apply_P(psi, a), b)


def random_wavefunction(n_particles: int, max_degree: int, spin_two_s: int,
                        seed: int) -> SpinorWavefunction:
    """Seeded random spinor wavefunction with sparse coefficients.

    Nonzero on up to four spin configurations, drawn by flat index over
    the (2s+1)^N configurations with slot 1 the most significant digit;
    each carries a handful of random monomials with per-variable degree
    at most max_degree and coefficient (re + i im) / den, re and im in
    -9..9 and den in 1..9.  The rational wavefunction is returned
    multiplied by the LCM of the denominators of the real and imaginary
    parts of its coefficients, which makes them Gaussian integers.
    """
    if max_degree > DEGREE_CAP:
        raise DegreeCapError(
            f"max_degree {max_degree} exceeds cap {DEGREE_CAP}")
    rng = random.Random(seed)
    d = spin_two_s + 1
    n_configs = d ** n_particles
    active = rng.sample(range(n_configs), min(n_configs, 4))
    # coefficients are held exactly as numerators over _DRAW_LCM
    terms: dict[Term, Coeff] = {}
    for flat in sorted(active):
        spins = [flat // d ** (n_particles - 1 - k) % d
                 for k in range(n_particles)]
        part: dict[Term, Coeff] = {}
        for _ in range(rng.randint(1, 4)):
            term = tuple((m, rng.randint(0, max_degree)) for m in spins)
            num_re = rng.randint(-9, 9)
            num_im = rng.randint(-9, 9)
            scale = _DRAW_LCM // rng.randint(1, 9)
            x, y = part.get(term, (0, 0))
            part[term] = (x + num_re * scale, y + num_im * scale)
        if all(c == (0, 0) for c in part.values()):
            part[tuple((m, 0) for m in spins)] = (_DRAW_LCM, 0)
        terms.update(part)
    # x / _DRAW_LCM reduces to denominator _DRAW_LCM / gcd(x, _DRAW_LCM); the
    # LCM of those over every part x is _DRAW_LCM / g, g the gcd of
    # _DRAW_LCM and all x, so the wavefunction times that LCM has parts x / g
    g = math.gcd(_DRAW_LCM, *(x for c in terms.values() for x in c))
    return SpinorWavefunction(
        n_particles, spin_two_s,
        {term: (re // g, im // g) for term, (re, im) in terms.items()})


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
