"""The spin label and the pair total-spin operator (S_a + S_b)^2.

Spin magnitudes are stored as the doubled integer 2s throughout, so
half-integer spins never touch floating point; hbar = 1.  The pair
operator is held as integer bands (``pair_bands``), whose exact spectra
the integer certificate gives (``pair_levels``), and as the float block
built from them (``pair_operator``).  The dense spin matrices, the
N-body (S_a + S_b)^2 and the Racah Clebsch-Gordan coefficients are the
tests' oracles (tests/oracles.py).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, IndexRangeError
from .multiparticle import ParticleSystem, SlotOperator


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


def check_pair(label: SpinLabel, a: int, b: int, system: ParticleSystem):
    """Raise IndexRangeError unless the system has d = 2s+1 and slots a, b."""
    if system.single_dim != label.dim:
        raise IndexRangeError(
            f"system single_dim {system.single_dim} != 2s+1 = {label.dim}")
    for slot in (a, b):
        if not 1 <= slot <= system.n_particles:
            raise IndexRangeError(f"slot {slot} out of range")


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
