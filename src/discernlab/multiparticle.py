"""N-fold tensor-product spaces.

Slot embeddings, operators that act on a few slots (``SlotOperator``),
permutation unitaries, symmetrizers / antisymmetrizers, orthonormal
sector bases and sector-constrained random state sampling.

Permutation convention: U_pi moves the content of slot k to slot pi(k),
i.e. on product vectors U_pi (phi_1 (x) ... (x) phi_N) =
phi_{pi^-1(1)} (x) ... (x) phi_{pi^-1(N)}.  On a vector reshaped to one
axis per slot that is a transpose of the axes (``slot_axes``), so U_pi
is an index permutation, with no arithmetic.  The composition law
U_pi U_sigma = U_{pi o sigma} is tested exhaustively for S_3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionCapError,
    EmptySectorError,
    IndexRangeError,
    RankError,
)
from .matrix_core import MixedState, Operator, PureState, dimension_cap, identity, kron

SECTORS = ("full", "bose", "fermi")
#: symmetrizer parity of each symmetry-restricted sector
_PARITY = {"bose": "+", "fermi": "-"}


@dataclass(frozen=True)
class ParticleSystem:
    """N similar particles, each with a d-dimensional state space."""

    n_particles: int
    single_dim: int
    sector: str = "full"

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.single_dim < 1:
            raise ValueError("single-particle dimension must be positive")
        if self.sector not in SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        if self.single_dim ** self.n_particles > dimension_cap():
            raise DimensionCapError(
                f"{self.single_dim}^{self.n_particles} exceeds cap {dimension_cap()}")

    @property
    def total_dim(self) -> int:
        return self.single_dim ** self.n_particles


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1, ..., N}, stored as the image tuple (1-based)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"{self.mapping} is not a permutation of 1..{n}")
        object.__setattr__(self, "mapping", tuple(self.mapping))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, k: int) -> int:
        return self.mapping[k - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, pk in enumerate(self.mapping, start=1):
            inv[pk - 1] = k
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other: first apply other, then self."""
        return Permutation(tuple(self(other(k)) for k in range(1, self.n + 1)))

    @property
    def sign(self) -> int:
        """Parity from the cycle decomposition."""
        seen = [False] * self.n
        sign = 1
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = self.mapping[k] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    @staticmethod
    def all(n: int):
        for perm in itertools.permutations(range(1, n + 1)):
            yield Permutation(perm)

    @staticmethod
    def generators(n: int) -> list["Permutation"]:
        """The transposition (1 2) and the N-cycle (1 2 ... N).

        Every element of S_N is a product of these two, so a property
        preserved under composition holds on S_N once it holds on them.
        For N = 2 they coincide; S_1 needs none.
        """
        if n < 2:
            return []
        swap = Permutation((2, 1) + tuple(range(3, n + 1)))
        cycle = Permutation(tuple(range(2, n + 1)) + (1,))
        return [swap] if n == 2 else [swap, cycle]


def slot_axes(pi: Permutation) -> tuple[int, ...]:
    """np.transpose axes that move axis k-1 to position pi(k)-1.

    Output axis j takes input axis pi^-1(j+1)-1: on a tensor with one
    axis per slot, the content of slot k goes to slot pi(k).
    """
    return tuple(k - 1 for k in pi.inverse().mapping)


def _check_slots(pi: Permutation, system: ParticleSystem):
    if pi.n != system.n_particles:
        raise IndexRangeError(f"permutation on {pi.n} slots, system has "
                              f"{system.n_particles}")


def embed_at_slot(a: Operator, slot: int, system: ParticleSystem) -> Operator:
    """Lift a single-particle operator to 1 (x)...(x) A (x)...(x) 1."""
    if a.dim != system.single_dim:
        raise IndexRangeError(
            f"operator dim {a.dim} != single-particle dim {system.single_dim}")
    if not 1 <= slot <= system.n_particles:
        raise IndexRangeError(f"slot {slot} out of range 1..{system.n_particles}")
    out = identity(1)
    for j in range(1, system.n_particles + 1):
        out = kron(out, a if j == slot else identity(system.single_dim))
    return Operator(out.entries, a.hbar_power)


def permutation_unitary(pi: Permutation, system: ParticleSystem) -> Operator:
    """Unitary representation of pi on the N-fold tensor space.

    Column j of U_pi is basis vector j with its slot axes transposed, so
    U_pi is the identity with its row axes transposed by slot_axes(pi).
    """
    _check_slots(pi, system)
    d, n, dim = system.single_dim, system.n_particles, system.total_dim
    rows = np.eye(dim, dtype=complex).reshape((d,) * n + (dim,))
    return Operator(rows.transpose(slot_axes(pi) + (n,)).reshape(dim, dim))


@dataclass(frozen=True)
class SlotOperator:
    """block (x) identity: a d^k x d^k block on the k slots in slots.

    ``apply`` acts on a batch shaped (count, d, ..., d), axis k being
    slot k, by contracting the block with those axes: no N-body matrix.
    """

    block: np.ndarray
    slots: tuple[int, ...]

    def apply(self, states: np.ndarray) -> np.ndarray:
        k, d = len(self.slots), states.shape[1]
        out = np.tensordot(states, self.block.reshape((d,) * (2 * k)),
                           axes=(self.slots, tuple(range(k, 2 * k))))
        return np.moveaxis(out, tuple(range(-k, 0)), self.slots)


def symmetrizer(system: ParticleSystem, parity: str) -> Operator:
    """Orthogonal projector Pi+/- = (1/N!) sum_pi [sign(pi)] U_pi."""
    if parity not in ("+", "-"):
        raise ValueError("parity must be '+' or '-'")
    n = system.n_particles
    acc = np.zeros((system.total_dim, system.total_dim), dtype=complex)
    for pi in Permutation.all(n):
        u = permutation_unitary(pi, system).entries
        acc += (pi.sign * u) if parity == "-" else u
    return Operator(acc / math.factorial(n))


def sector_dimension(system: ParticleSystem,
                     parity: Optional[str] = None) -> int:
    """dim of the symmetric (+) or antisymmetric (-) subspace.

    Closed forms: the stars-and-bars count C(d+N-1, N) for + and the
    subset count C(d, N) for -.  With no parity, the dimension of the
    system's own sector.
    """
    d, n = system.single_dim, system.n_particles
    if parity is None:
        if system.sector == "full":
            return system.total_dim
        parity = _PARITY[system.sector]
    if parity == "+":
        return math.comb(d + n - 1, n)
    if parity == "-":
        return math.comb(d, n)
    raise ValueError("parity must be '+' or '-'")


def sector_basis(system: ParticleSystem) -> tuple[np.ndarray, ...]:
    """Orthonormal bose or fermi basis (support, column, coef).

    Basis vector column[k] has entry coef[k] at product index support[k].
    Product indices are grouped by their sorted slot tuple: every group
    for bose (occupation-number multisets), the groups of N distinct
    levels for fermi (Slater determinants, signed by the parity of the
    sorting permutation).  O(dim * N * d) work and no N!-term sum.
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


@dataclass(frozen=True)
class StateBatch:
    """States as rank-r factors: state m is sum_k weights[m, k] |f_mk><f_mk|.

    factors has shape (states, r, d, ..., d), one axis per slot; weights
    has shape (states, r).  A pure state has r = 1 and weight 1.  The
    products that do not depend on an operator are cached.
    """

    factors: np.ndarray
    weights: np.ndarray

    @property
    def vectors(self) -> np.ndarray:
        """Every factor, as one batch shaped (states * r, d, ..., d)."""
        return self.factors.reshape((-1,) + self.factors.shape[2:])

    def split(self, entries: int) -> list["StateBatch"]:
        """Consecutive sub-batches of about entries amplitudes, at least one."""
        step = max(1, entries // max(1, self.factors[0:1].size))
        return [StateBatch(self.factors[i:i + step], self.weights[i:i + step])
                for i in range(0, max(len(self.weights), 1), step)]

    @cached_property
    def flat(self) -> np.ndarray:
        return self.factors.reshape(
            self.factors.shape[:2] + (math.prod(self.factors.shape[2:]),))

    @cached_property
    def flat_conj(self) -> np.ndarray:
        return self.flat.conj()

    @cached_property
    def gram(self) -> np.ndarray:
        """F^dagger F: entry (j, k) is <f_j, f_k>."""
        return np.einsum("mji,mki->mjk", self.flat_conj, self.flat)

    @cached_property
    def trace(self) -> np.ndarray:
        """tr(D F^dagger F)."""
        return np.einsum("mk,mkk->m", self.weights, self.gram)


def sample_states(system: ParticleSystem, count: int, seed,
                  rank: Optional[int] = None) -> StateBatch:
    """count Haar-random states of the sector: the one sampler.

    Pure states without a rank; with one, mixtures of rank pure states,
    each drawing its weights and then its components.  A pure state is a
    complex Gaussian in the coordinates of the sector's orthonormal basis
    (the product basis for full), normalized.  seed is an int or a numpy
    Generator, drawn from in place; one draw of count states equals count
    successive draws.
    """
    sdim = sector_dimension(system)
    if sdim < 1:
        raise EmptySectorError(f"{system.sector} sector of {system} is empty")
    if rank is not None and not 1 <= rank <= sdim:
        raise RankError(f"rank {rank} not in 1..{sdim} for {system.sector} sector")
    rng = np.random.default_rng(seed)
    if rank is None:
        weights = np.ones((count, 1))
        normals = rng.standard_normal((count, 1, 2, sdim))
    else:
        weights = np.empty((count, rank))
        normals = np.empty((count, rank, 2, sdim))
        for m in range(count):
            weights[m] = rng.random(rank) + 1e-6
            normals[m] = rng.standard_normal((rank, 2, sdim))
        weights /= weights.sum(axis=1, keepdims=True)
    vectors = normals[:, :, 1] * 1j
    vectors += normals[:, :, 0]
    if system.sector != "full":
        support, column, coef = sector_basis(system)
        coords = vectors[:, :, column] * coef
        vectors = np.zeros(coords.shape[:2] + (system.total_dim,), complex)
        vectors[:, :, support] = coords
    squares = vectors.view(float)
    vectors /= np.sqrt(np.einsum("mki,mki->mk", squares, squares))[..., None]
    return StateBatch(vectors.reshape(weights.shape + (system.single_dim,)
                                      * system.n_particles), weights)


def random_pure_state(system: ParticleSystem, seed) -> PureState:
    """Haar-uniform ray inside the system's sector (``sample_states``)."""
    return PureState(sample_states(system, 1, seed).factors.ravel())


def random_mixed_state(system: ParticleSystem, rank: int, seed) -> MixedState:
    """One rank-r ``sample_states`` draw as a dense statistical operator."""
    batch = sample_states(system, 1, seed, rank)
    f = batch.flat[0]
    w = (f.T * batch.weights[0]) @ f.conj()
    # symmetrize away float round-off before the invariant check
    return MixedState((w + w.conj().T) / 2)
