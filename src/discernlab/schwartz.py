"""Exact symbolic model of the infinite-dimensional case.

Wavefunctions are multivariate polynomials in the particle coordinates
q_1 ... q_N with complex-rational coefficients, times an implicit
Gaussian factor exp(-q_j^2 / 2) per coordinate.  The class is closed
under position multiplication and -i hbar differentiation, so the
canonical commutator is an exact coefficient-level identity here: no
tolerances anywhere in this module's verdicts.

Configuration space is one-dimensional per particle, which makes the
commutator constant exactly -i hbar (hbar = 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapError, IndexRangeError, ShapeError

DEFAULT_DEGREE_CAP = 32

Monomial = tuple[int, ...]


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

    def __neg__(self) -> "QComplex":
        return QComplex(-self.re, -self.im)

    def conj(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def mul_minus_i(self) -> "QComplex":
        """(re + i im)(-i) = im - i re, without general multiplication."""
        return QComplex(self.im, -self.re)

    def scale(self, r: Fraction) -> "QComplex":
        return QComplex(self.re * r, self.im * r)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


QC_ZERO = QComplex()
QC_ONE = QComplex(Fraction(1))
#: -i, the commutator constant [P, Q] = -i hbar with hbar = 1
MINUS_I = QComplex(Fraction(0), Fraction(-1))


@dataclass(frozen=True)
class GaussianPolyWavefunction:
    """Polynomial p(q_1..q_N) times the product of Gaussians exp(-q_j^2/2).

    ``coeffs`` maps exponent tuples of length n_particles to nonzero
    complex-rational coefficients.
    """

    n_particles: int
    coeffs: dict[Monomial, QComplex]
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        clean = {}
        for mono, c in self.coeffs.items():
            if len(mono) != self.n_particles:
                raise ShapeError(f"monomial {mono} has wrong arity")
            if any(e < 0 for e in mono):
                raise ShapeError(f"negative exponent in {mono}")
            if any(e > self.degree_cap for e in mono):
                raise DegreeCapError(
                    f"exponent in {mono} exceeds cap {self.degree_cap}")
            if not c.is_zero():
                clean[tuple(mono)] = c
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GaussianPolyWavefunction"):
        if other.n_particles != self.n_particles:
            raise ShapeError("particle-number mismatch")
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, QC_ZERO) + c
        return GaussianPolyWavefunction(self.n_particles, out, self.degree_cap)

    def __sub__(self, other: "GaussianPolyWavefunction"):
        if other.n_particles != self.n_particles:
            raise ShapeError("particle-number mismatch")
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, QC_ZERO) - c
        return GaussianPolyWavefunction(self.n_particles, out, self.degree_cap)

    def scale(self, z: QComplex) -> "GaussianPolyWavefunction":
        if z == MINUS_I:
            return GaussianPolyWavefunction(
                self.n_particles,
                {mono: c.mul_minus_i() for mono, c in self.coeffs.items()},
                self.degree_cap)
        return GaussianPolyWavefunction(
            self.n_particles,
            {mono: c * z for mono, c in self.coeffs.items()},
            self.degree_cap)

    def times_q(self, slot: int) -> "GaussianPolyWavefunction":
        """Multiply the polynomial part by q_slot."""
        self._check_slot(slot)
        if not self.coeffs:
            return self
        out = {}
        for mono, c in self.coeffs.items():
            lifted = list(mono)
            lifted[slot - 1] += 1
            out[tuple(lifted)] = c
        return GaussianPolyWavefunction(self.n_particles, out, self.degree_cap)

    def diff_poly(self, slot: int) -> "GaussianPolyWavefunction":
        """d/dq_slot of the polynomial part only (not the Gaussian)."""
        self._check_slot(slot)
        if not self.coeffs:
            return self
        out: dict[Monomial, QComplex] = {}
        for mono, c in self.coeffs.items():
            e = mono[slot - 1]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[slot - 1] -= 1
            key = tuple(lowered)
            out[key] = out.get(key, QC_ZERO) + c.scale(Fraction(e))
        return GaussianPolyWavefunction(self.n_particles, out, self.degree_cap)

    def permute_slots(self, mapping: tuple[int, ...]) -> "GaussianPolyWavefunction":
        """Relabel variables: q_k -> q_{mapping(k)}."""
        out = {}
        for mono, c in self.coeffs.items():
            relabeled = [0] * self.n_particles
            for k in range(self.n_particles):
                relabeled[mapping[k] - 1] = mono[k]
            key = tuple(relabeled)
            out[key] = out.get(key, QC_ZERO) + c
        return GaussianPolyWavefunction(self.n_particles, out, self.degree_cap)

    def _check_slot(self, slot: int):
        if not 1 <= slot <= self.n_particles:
            raise IndexRangeError(
                f"slot {slot} out of range 1..{self.n_particles}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GaussianPolyWavefunction)
                and self.n_particles == other.n_particles
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n_particles, frozenset(self.coeffs.items())))


def gaussian(n_particles: int, degree_cap: int = DEFAULT_DEGREE_CAP):
    """The pure Gaussian: polynomial part 1."""
    return GaussianPolyWavefunction(
        n_particles, {(0,) * n_particles: QC_ONE}, degree_cap)


def zero_wavefunction(n_particles: int, degree_cap: int = DEFAULT_DEGREE_CAP):
    return GaussianPolyWavefunction(n_particles, {}, degree_cap)


@dataclass(frozen=True)
class SpinorWavefunction:
    """(2s+1)^N-component column of Gaussian-polynomial wavefunctions."""

    n_particles: int
    two_s: int
    components: tuple[GaussianPolyWavefunction, ...]

    def __post_init__(self):
        expected = (self.two_s + 1) ** self.n_particles
        if len(self.components) != expected:
            raise ShapeError(
                f"spinor needs {expected} components, got {len(self.components)}")
        for comp in self.components:
            if comp.n_particles != self.n_particles:
                raise ShapeError("component particle-number mismatch")
        object.__setattr__(self, "components", tuple(self.components))

    def map_components(self, f) -> "SpinorWavefunction":
        return SpinorWavefunction(self.n_particles, self.two_s,
                                  tuple(f(c) for c in self.components))

    def __add__(self, other: "SpinorWavefunction") -> "SpinorWavefunction":
        if (other.n_particles, other.two_s) != (self.n_particles, self.two_s):
            raise ShapeError("spinor shape mismatch")
        return SpinorWavefunction(
            self.n_particles, self.two_s,
            tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "SpinorWavefunction") -> "SpinorWavefunction":
        if (other.n_particles, other.two_s) != (self.n_particles, self.two_s):
            raise ShapeError("spinor shape mismatch")
        return SpinorWavefunction(
            self.n_particles, self.two_s,
            tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, z: QComplex) -> "SpinorWavefunction":
        return self.map_components(lambda c: c.scale(z))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def permute_slots(self, mapping: tuple[int, ...]) -> "SpinorWavefunction":
        """Permute particles: relabel coordinates and spin indices alike."""
        d = self.two_s + 1
        n = self.n_particles
        out = [None] * len(self.components)
        for flat, comp in enumerate(self.components):
            idx = []
            rem = flat
            for _ in range(n):
                idx.append(rem % d)
                rem //= d
            idx.reverse()  # idx[k] is the spin index of slot k+1
            moved = [0] * n
            for k in range(n):
                moved[mapping[k] - 1] = idx[k]
            new_flat = 0
            for i in moved:
                new_flat = new_flat * d + i
            out[new_flat] = comp.permute_slots(mapping)
        return SpinorWavefunction(n, self.two_s, tuple(out))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SpinorWavefunction)
                and self.n_particles == other.n_particles
                and self.two_s == other.two_s
                and self.components == other.components)

    def __hash__(self):
        return hash((self.n_particles, self.two_s, self.components))


def _lift(op, psi, slot: int):
    """Apply a per-component operation to either wavefunction flavor."""
    if isinstance(psi, SpinorWavefunction):
        return psi.map_components(lambda c: op(c, slot))
    return op(psi, slot)


def apply_Q(psi, slot: int):
    """Position operator: multiply by q_slot."""
    return _lift(lambda c, a: c.times_q(a), psi, slot)


def apply_P(psi, slot: int):
    """Momentum operator -i hbar d/dq_slot, acting through the Gaussian.

    On the polynomial part p the full derivative of p * exp(-q^2/2)
    is (dp/dq - q p) * exp(-q^2/2).
    """
    def op(c: GaussianPolyWavefunction, a: int):
        return (c.diff_poly(a) - c.times_q(a)).scale(MINUS_I)
    return _lift(op, psi, slot)


def _commutator_gpw(c: GaussianPolyWavefunction, a: int, b: int):
    if c.is_zero():
        return c
    qb = c.times_q(b)
    pq = (qb.diff_poly(a) - qb.times_q(a)).scale(MINUS_I)
    qp = (c.diff_poly(a) - c.times_q(a)).scale(MINUS_I).times_q(b)
    return pq - qp


def commutator_PQ_apply(psi, a: int, b: int):
    """[P_a, Q_b] psi = P_a Q_b psi - Q_b P_a psi, exactly.

    Equals -i hbar psi coefficient-for-coefficient when a == b and the
    zero wavefunction when a != b.
    """
    if isinstance(psi, SpinorWavefunction):
        return psi.map_components(lambda c: _commutator_gpw(c, a, b))
    return _commutator_gpw(psi, a, b)


_SQRT_PI = math.sqrt(math.pi)


def gaussian_moment(n: int) -> float:
    """Integral of q^n exp(-q^2) over the real line."""
    if n % 2 == 1:
        return 0.0
    # sqrt(pi) * (n-1)!! / 2^(n/2), double factorial exact
    acc = 1
    for k in range(1, n, 2):
        acc *= k
    return _SQRT_PI * acc / 2 ** (n // 2)


def inner_product(psi, phi) -> complex:
    """<psi|phi> with the Gaussian weight exp(-q_j^2) per coordinate.

    Spinors: sum of the component inner products.
    """
    if isinstance(psi, SpinorWavefunction) or isinstance(phi, SpinorWavefunction):
        if not (isinstance(psi, SpinorWavefunction)
                and isinstance(phi, SpinorWavefunction)):
            raise ShapeError("cannot pair spinor with scalar wavefunction")
        if (psi.n_particles, psi.two_s) != (phi.n_particles, phi.two_s):
            raise ShapeError("spinor shape mismatch")
        return sum((inner_product(a, b)
                    for a, b in zip(psi.components, phi.components)),
                   start=0j)
    if psi.n_particles != phi.n_particles:
        raise ShapeError("particle-number mismatch")
    total = 0j
    for mono1, c1 in psi.coeffs.items():
        z1 = complex(c1.conj())
        for mono2, c2 in phi.coeffs.items():
            weight = 1.0
            for e1, e2 in zip(mono1, mono2):
                weight *= gaussian_moment(e1 + e2)
                if weight == 0.0:
                    break
            if weight != 0.0:
                total += z1 * complex(c2) * weight
    return total


def random_wavefunction(n_particles: int, max_degree: int, spin_two_s: int,
                        seed: int,
                        degree_cap: int = DEFAULT_DEGREE_CAP) -> SpinorWavefunction:
    """Seeded random spinor wavefunction with sparse rational coefficients.

    Nonzero on a few spin components; each carries a handful of random
    monomials with per-variable degree at most max_degree.
    """
    if max_degree > degree_cap:
        raise DegreeCapError(f"max_degree {max_degree} exceeds cap {degree_cap}")
    rng = random.Random(seed)
    n_components = (spin_two_s + 1) ** n_particles
    n_active = min(n_components, 4)
    active = rng.sample(range(n_components), n_active)
    components = []
    for k in range(n_components):
        if k not in active:
            components.append(zero_wavefunction(n_particles, degree_cap))
            continue
        coeffs: dict[Monomial, QComplex] = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, max_degree) for _ in range(n_particles))
            num_re = rng.randint(-9, 9)
            num_im = rng.randint(-9, 9)
            den = rng.randint(1, 9)
            coeffs[mono] = coeffs.get(mono, QC_ZERO) + QComplex(
                Fraction(num_re, den), Fraction(num_im, den))
        if all(c.is_zero() for c in coeffs.values()):
            coeffs[(0,) * n_particles] = QC_ONE
        components.append(
            GaussianPolyWavefunction(n_particles, coeffs, degree_cap))
    psi = SpinorWavefunction(n_particles, spin_two_s, tuple(components))
    if psi.is_zero():
        psi = SpinorWavefunction(
            n_particles, spin_two_s,
            (gaussian(n_particles, degree_cap),)
            + tuple(zero_wavefunction(n_particles, degree_cap)
                    for _ in range(n_components - 1)))
    return psi


def symmetric_product_state(phi_coeffs: dict[int, QComplex], n_particles: int,
                            degree_cap: int = DEFAULT_DEGREE_CAP):
    """phi(q_1) ... phi(q_N) from a single-variable polynomial phi.

    The bosonic direct-product case: a spin-0 spinor with one component.
    """
    prod: dict[Monomial, QComplex] = {(0,) * n_particles: QC_ONE}
    for slot in range(1, n_particles + 1):
        nxt: dict[Monomial, QComplex] = {}
        for mono, c in prod.items():
            for e, z in phi_coeffs.items():
                lifted = list(mono)
                lifted[slot - 1] += e
                key = tuple(lifted)
                nxt[key] = nxt.get(key, QC_ZERO) + c * z
        prod = nxt
    poly = GaussianPolyWavefunction(n_particles, prod, degree_cap)
    return SpinorWavefunction(n_particles, 0, (poly,))
