"""su(2) spin operators, pair total-spin operators and coupled bases.

Spin magnitudes are stored as the doubled integer 2s throughout, so
half-integer spins never touch floating point.  hbar = 1; operators
carry their hbar unit exponent as metadata.

The squared total spin is the Casimir Sx^2 + Sy^2 + Sz^2, whose scalar
value on a spin-s irreducible space is s(s+1) hbar^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DiagonalizationError, DomainError, IndexRangeError
from .matrix_core import (
    LEVEL_TOL_REL,
    Operator,
    PureState,
    hermitian_eigensystem,
)
from .multiparticle import ParticleSystem, SlotOperator, embed_at_slot


@dataclass(frozen=True)
class SpinLabel:
    """Spin magnitude, stored exactly as 2s."""

    two_s: int

    def __post_init__(self):
        if self.two_s < 0:
            raise DomainError("2s must be nonnegative")

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def s(self) -> Fraction:
        return Fraction(self.two_s, 2)

    def casimir_value(self) -> Fraction:
        """s(s+1), exactly."""
        return self.s * (self.s + 1)

    @functools.cached_property
    def pair_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (4 S^2, K_12), built once from ``pair_bands``."""
        single, diagonal, products = pair_bands(self.two_s)
        k12 = np.diag((diagonal / 4).astype(complex))
        for band in (k12[:, self.two_s:], k12[self.two_s:]):  # offset d - 1
            np.fill_diagonal(band, np.sqrt(products) / 4)
        blocks = np.diag(single.astype(complex)), k12
        for block in blocks:
            block.setflags(write=False)
        return blocks


def spin_operators(label: SpinLabel) -> tuple[Operator, Operator, Operator]:
    """(Sx, Sy, Sz) on C^(2s+1), in units of hbar.

    Basis ordering is m = s, s-1, ..., -s, so Sz = diag(s, ..., -s).
    Ladder entries are sqrt(s(s+1) - m(m+1)).
    """
    d = label.dim
    s = float(label.s)
    m_values = [s - k for k in range(d)]
    sz = np.diag(np.array(m_values, dtype=complex))
    sp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        m = m_values[k]  # S+ raises m -> m+1, i.e. index k -> k-1
        sp[k - 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return (Operator(sx, hbar_power=1),
            Operator(sy, hbar_power=1),
            Operator(sz, hbar_power=1))


def check_pair(label: SpinLabel, a: int, b: int, system: ParticleSystem):
    """Raise IndexRangeError unless the system has d = 2s+1 and slots a, b."""
    if system.single_dim != label.dim:
        raise IndexRangeError(
            f"system single_dim {system.single_dim} != 2s+1 = {label.dim}")
    for slot in (a, b):
        if not 1 <= slot <= system.n_particles:
            raise IndexRangeError(f"slot {slot} out of range")


def pair_total_spin_squared(label: SpinLabel, a: int, b: int,
                            system: ParticleSystem) -> Operator:
    """(S_a + S_b)^2 on the N-particle space, hbar^2 units.

    For a == b this is 4 S_a^2 = 4 s(s+1) hbar^2 * identity.  The dense
    form of ``pair_operator``, kept as its oracle.
    """
    check_pair(label, a, b, system)
    total = None
    for w in spin_operators(label):
        comp = embed_at_slot(w, a, system) + embed_at_slot(w, b, system)
        sq = comp @ comp
        total = sq if total is None else total + sq
    return total


def pair_bands(two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer bands (single, diagonal, products) of 4 S^2 and 4 K_12.

    j = 2s; index i has 2m = j - 2i, index i1 d + i2 is (m1, m2).  The
    diagonals are j(j+2) and 2j(j+2) + 2(2m1)(2m2); products[k], which
    is (j - 2m1)(j + 2m1 + 2)(j + 2m2)(j - 2m2 + 2), links (m1, m2) at
    index k + d - 1 to (m1 + 1, m2 - 1) at k, by S+ (x) S- and S- (x) S+.
    """
    j, m = two_s, two_s - 2 * np.arange(two_s + 1)  # 2m per index
    up, down = (j - m) * (j + m + 2), (j + m) * (j - m + 2)  # 4 |S+-|^2
    return (m * m + (up + down) // 2,
            2 * j * (j + 2) + 2 * np.outer(m, m).ravel(),
            np.outer(up, down).ravel()[j:])  # from index d - 1 = j


def pair_levels(two_s: int) -> tuple[list, list | None]:
    """Exact (value, multiplicity) spectra of 4 S^2 and K_12, hbar^2 units.

    4 K_12 is tridiagonal on the 2s + 1 - |M| states of each total M.
    If p_k = (a_k - x) p_{k-1} - c_k p_{k-2} vanishes at each of as many
    candidates x = 4 S(S+1), S = |M|..2s, they are its spectrum.  None
    for K_12 if one is no root, or a product is negative, or one at
    k = 0 mod d, which links no two states of one M, is not 0.
    """
    j, d = two_s, two_s + 1
    single, diagonal, products = (band.tolist() for band in pair_bands(two_s))
    single = sorted((v, single.count(v)) for v in set(single))
    if min(products) < 0 or any(products[::d]):
        return single, None
    for t in range(2 * j + 1):  # the states i1 + i2 = t, of 2M = 2j - 2t
        rows = [i1 * d + t - i1 for i1 in range(max(0, t - j), min(j, t) + 1)]
        for x in [4 * S * (S + 1) for S in range(abs(j - t), j + 1)]:
            prev, p = 1, diagonal[rows[0]] - x
            for upper, row in zip(rows, rows[1:]):
                prev, p = p, (diagonal[row] - x) * p - products[upper] * prev
            if p:
                return single, None
    return single, [(S * (S + 1), 2 * S + 1) for S in range(j + 1)]


def pair_operator(label: SpinLabel, a: int, b: int,
                  system: ParticleSystem) -> SlotOperator:
    """(S_a + S_b)^2 as a block on slots (a, b), hbar^2 units.

    The block is (S_1 + S_2)^2 on C^d (x) C^d for every a != b, and the
    d x d block 4 S_a^2 = 4 s(s+1) hbar^2 on slot a for a == b.
    """
    check_pair(label, a, b, system)
    single, k12 = label.pair_blocks
    return SlotOperator(single, (a,)) if a == b else SlotOperator(k12, (a, b))


def total_sz(label: SpinLabel, system: ParticleSystem) -> Operator:
    """Sum of z-components over all slots."""
    _, _, sz = spin_operators(label)
    total = embed_at_slot(sz, 1, system)
    for j in range(2, system.n_particles + 1):
        total = total + embed_at_slot(sz, j, system)
    return total


@dataclass(frozen=True)
class CoupledBasisVector:
    """Simultaneous eigenvector |s; S, M> of the pair Casimir and total Sz."""

    two_S: int
    two_M: int
    vector: PureState


def _lowering_total(label: SpinLabel, system: ParticleSystem) -> np.ndarray:
    sx, sy, _ = spin_operators(label)
    sm = Operator(sx.entries - 1j * sy.entries, hbar_power=1)
    total = embed_at_slot(sm, 1, system)
    for j in range(2, system.n_particles + 1):
        total = total + embed_at_slot(sm, j, system)
    return total.entries


def coupled_basis(label: SpinLabel) -> list[CoupledBasisVector]:
    """The (2s+1)^2 coupled vectors |s; S, M> for two spin-s particles.

    Built by simultaneous diagonalization: total Sz is diagonalized
    within each eigenspace of the pair Casimir.  Phases follow the
    Condon-Shortley convention: the M = S component with product index
    (m1 = s, m2 = S - s) is positive, and each lower-M vector is the
    normalized image of its predecessor under the total lowering
    operator.
    """
    system = ParticleSystem(2, label.dim)
    s2 = pair_total_spin_squared(label, 1, 2, system)
    sz = total_sz(label, system)
    pairs = hermitian_eigensystem(s2)
    gap = LEVEL_TOL_REL * max(s2.max_norm(), 1.0)

    # group eigenvectors of S^2 into eigenspaces
    groups: list[tuple[float, list[np.ndarray]]] = []
    for lam, vec in pairs:
        if groups and abs(lam - groups[-1][0]) <= gap:
            groups[-1][1].append(vec.amplitudes)
        else:
            groups.append((lam, [vec.amplitudes]))

    lowering = _lowering_total(label, system)
    d = label.dim
    out: list[CoupledBasisVector] = []
    for lam, vecs in groups:
        # lam = S(S+1): recover the integer S
        two_S = round(-1 + math.sqrt(1 + 4 * lam))
        if abs(two_S * (two_S + 2) / 4 - lam) > 1e-6 * max(lam, 1.0):
            raise DiagonalizationError(f"eigenvalue {lam} is not S(S+1)")
        S = two_S // 2
        if len(vecs) != two_S + 1:
            raise DiagonalizationError(
                f"S={S} eigenspace has dim {len(vecs)}, expected {two_S + 1}")
        basis = np.column_stack(vecs)
        block = basis.conj().T @ sz.entries @ basis
        m_evals, m_evecs = np.linalg.eigh((block + block.conj().T) / 2)
        by_m = {}
        for k in range(len(vecs)):
            two_M = round(2 * m_evals[k])
            if two_M in by_m:
                raise DiagonalizationError(f"duplicate M within S={S}")
            by_m[two_M] = basis @ m_evecs[:, k]

        # Condon-Shortley phases: top state positive at (m1=s, m2=S-s),
        # lower states descend via the total lowering operator.
        top = by_m[two_S]
        i2 = label.two_s - S  # row index of m2 = S - s in the m-descending basis
        anchor = top[0 * d + i2]
        if abs(anchor) < 1e-8:
            raise DiagonalizationError("vanishing Condon-Shortley anchor")
        top = top * (abs(anchor) / anchor)
        out.append(CoupledBasisVector(two_S, two_S, PureState(top)))
        prev = top
        for two_M in range(two_S - 2, -two_S - 1, -2):
            target = lowering @ prev
            norm = np.linalg.norm(target)
            if norm < 1e-10:
                raise DiagonalizationError("lowering chain terminated early")
            vec = target / norm
            # sanity: must agree with the diagonalization result up to phase
            if abs(abs(by_m[two_M].conj() @ vec) - 1.0) > 1e-7:
                raise DiagonalizationError(
                    f"ladder and diagonalization disagree at S={S}, 2M={two_M}")
            out.append(CoupledBasisVector(two_S, two_M, PureState(vec)))
            prev = vec
    out.sort(key=lambda v: (v.two_S, v.two_M))
    return out


def clebsch_gordan(label: SpinLabel, two_S: int, two_M: int,
                   two_m1: int, two_m2: int) -> float:
    """<s m1; s m2 | S M> for two equal spins, Condon-Shortley phases.

    Closed-form Racah sum over exact rational factorial ratios;
    independent of the coupled-basis diagonalization, which serves as
    its oracle in the tests.
    """
    j = label.two_s  # doubled
    if not 0 <= two_S <= 2 * j:
        raise DomainError(f"2S={two_S} out of range 0..{2 * j}")
    if abs(two_M) > two_S or (two_S - two_M) % 2 != 0:
        raise DomainError(f"2M={two_M} invalid for 2S={two_S}")
    for two_m in (two_m1, two_m2):
        if abs(two_m) > j or (j - two_m) % 2 != 0:
            raise DomainError(f"2m={two_m} invalid for 2s={j}")
    if two_m1 + two_m2 != two_M:
        return 0.0

    def fact(two_x: int) -> int:
        if two_x % 2 != 0:
            raise DomainError(f"half-odd factorial argument {two_x}/2")
        if two_x < 0:
            raise DomainError("negative factorial argument")
        return math.factorial(two_x // 2)

    # prefactor (all arguments are doubled integers)
    pref = Fraction(
        (two_S + 1)
        * fact(two_S) * fact(two_S) * fact(2 * j - two_S),
        fact(2 * j + two_S + 2),
    ) * Fraction(
        fact(two_S + two_M) * fact(two_S - two_M)
        * fact(j - two_m1) * fact(j + two_m1)
        * fact(j - two_m2) * fact(j + two_m2),
        1,
    )
    total = Fraction(0)
    k = 0
    while True:
        args = (
            2 * k,
            2 * j - two_S - 2 * k,
            j - two_m1 - 2 * k,
            j + two_m2 - 2 * k,
            two_S - j - two_m2 + 2 * k,
            two_S - j + two_m1 + 2 * k,
        )
        if args[1] < 0 or args[2] < 0 or args[3] < 0:
            break
        if args[4] >= 0 and args[5] >= 0:
            denom = 1
            for a in args:
                denom *= fact(a)
            total += Fraction((-1) ** k, denom)
        k += 1
    return math.sqrt(float(pref)) * float(total)


def clebsch_gordan_matrix(label: SpinLabel) -> np.ndarray:
    """Full (2s+1)^2-square matrix of coefficients.

    Rows index product states (m1, m2) in the operator basis ordering,
    columns index coupled states (S, M) sorted ascending.
    """
    d = label.dim
    labels = []
    for two_S in range(0, 2 * label.two_s + 1, 2):
        for two_M in range(-two_S, two_S + 1, 2):
            labels.append((two_S, two_M))
    labels.sort()
    mat = np.zeros((d * d, d * d))
    for col, (two_S, two_M) in enumerate(labels):
        for i1 in range(d):
            for i2 in range(d):
                two_m1 = label.two_s - 2 * i1
                two_m2 = label.two_s - 2 * i2
                mat[i1 * d + i2, col] = clebsch_gordan(
                    label, two_S, two_M, two_m1, two_m2)
    return mat
