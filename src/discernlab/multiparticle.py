"""N-fold tensor-product spaces.

The particle system and its dimension cap, operators that act on a few
slots (``SlotOperator``), the generators of S_N and sector-constrained
random state sampling.

A full-sector state is held as d^N product amplitudes, one axis per
slot; a bose or fermi state as its D coordinates in the sector's
occupation-number basis, never as d^N amplitudes.  Either unfolds on k
slots into a d^k x rest matrix Phi (``StateBatch.unfold``), stored
transposed so that one matrix product applies a block to every state
(``SlotOperator.image``).  Its rows are the levels of the k slots; its
columns are the other slots' axes in the full sector, and in bose and
fermi the (N-k)-particle sector basis, with square-root occupation
factors or sorting signs (``ParticleSystem.unfoldings``).  No d^N
vector of a bose or fermi state is formed, and no N-body operator: the
d^N embedding of sector coordinates, slot embeddings, permutation
unitaries and the N!-term (anti)symmetrizers are the tests' oracles
(tests/oracles.py).

Permutation convention: U_pi moves the content of slot k to slot pi(k),
i.e. on product vectors U_pi (phi_1 (x) ... (x) phi_N) =
phi_{pi^-1(1)} (x) ... (x) phi_{pi^-1(N)}.  On a vector reshaped to one
axis per slot that is a transpose of the axes (``slot_axes``), so U_pi
is an index permutation, with no arithmetic.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DimensionCapError,
    EmptySectorError,
    RankError,
)

DEFAULT_DIM_CAP = 4096
SECTORS = ("full", "bose", "fermi")
#: symmetrizer parity of each symmetry-restricted sector
_PARITY = {"bose": "+", "fermi": "-"}


def dimension_cap() -> int:
    """Configured tensor-product dimension cap (env DISCERNLAB_DIM_CAP)."""
    raw = os.environ.get("DISCERNLAB_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(
            f"DISCERNLAB_DIM_CAP must be a positive integer, got {raw!r}")
    return cap


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
        # a state holds d^N amplitudes in the full sector, D in bose/fermi
        size = sector_dimension(self)
        if size > dimension_cap():
            held = (f"{self.single_dim}^{self.n_particles}"
                    if self.sector == "full"
                    else f"{self.sector} sector dimension {size}")
            raise DimensionCapError(f"{held} exceeds cap {dimension_cap()}")

    @property
    def total_dim(self) -> int:
        return self.single_dim ** self.n_particles

    @cached_property
    def unfoldings(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """How bose/fermi coordinates c unfold on k = 1, 2 slots; () for full.

        Entry k-1 is (index, amp), both D_{N-k} x d^k: the unfolding is
        Phi^T[m, i] = amp[m, i] c[index[m, i]], column i the levels of
        the k slots, row m the (N-k)-particle basis.  By symmetry it is
        the same matrix for any k slots (up to a fermi sign); these are
        slots 1..k.  Two slots compose one-slot maps: Phi_2[(i, j), m] =
        amp'[j, m] Phi_1[i, index'[j, m]].
        """
        if self.sector == "full":
            return ()
        d, n, fermi = self.single_dim, self.n_particles, self.sector == "fermi"
        index, amp = _lowering(n, d, fermi)
        maps = [(index, amp)]
        if n >= 2:
            rest, rest_amp = _lowering(n - 1, d, fermi)
            maps.append((index[:, rest].reshape(d * d, -1),
                         (amp[:, rest] * rest_amp).reshape(d * d, -1)))
        return tuple((i.T.copy(), a.T.copy()) for i, a in maps)


def _occupations(n: int, d: int, fermi: bool) -> np.ndarray:
    """Occupation numbers of the n-particle sector basis, one row each.

    Rows are in the order of the sector coordinates, ascending product
    index of the sorted slot tuple, which is descending lexicographic
    order of the rows.  Fermi rows are the n-subsets of the d levels;
    bose rows come from the (d-1)-subsets of n+d-1 places (stars and
    bars).
    """
    if fermi:
        levels = np.array(list(itertools.combinations(range(d), n)),
                          dtype=np.intp).reshape(math.comb(d, n), n)
        rows = np.zeros((len(levels), d), dtype=np.intp)
        rows[np.arange(len(levels))[:, None], levels] = 1
        return rows
    bars = np.array(list(itertools.combinations(range(n + d - 1), d - 1)),
                    dtype=np.intp).reshape(math.comb(n + d - 1, n), d - 1)
    edges = np.hstack([np.full((len(bars), 1), -1), bars[::-1],
                       np.full((len(bars), 1), n + d - 1)])
    return np.diff(edges, axis=1) - 1


def _lowering(n: int, d: int, fermi: bool) -> tuple[np.ndarray, np.ndarray]:
    """(index, amp), d x D_{n-1}: n-particle coordinates unfolded on a slot.

    phi[i, m] = <i| (x) <m| psi> for the (n-1)-particle basis vector m is
    c times sqrt((occupation of i in m + 1) / n) for bose, and
    (-1)^(levels below i occupied in m) / sqrt(n) for fermi, with c the
    coordinate of m plus one particle in level i.  Where that state does
    not exist (a fermi level taken twice), amp is 0.
    """
    upper, lower = _occupations(n, d, fermi), _occupations(n - 1, d, fermi)
    position = {row.tobytes(): k for k, row in enumerate(upper)}
    raised = lower + np.eye(d, dtype=lower.dtype)[:, None]  # level i added
    index = np.fromiter((position.get(row.tobytes(), -1)
                         for row in raised.reshape(-1, d)),
                        dtype=np.intp, count=d * len(lower)).reshape(d, -1)
    if fermi:
        amp = 1.0 - 2.0 * ((np.cumsum(lower, axis=1) - lower).T % 2)
    else:
        amp = np.sqrt(lower.T + 1.0)
    return np.maximum(index, 0), np.where(index < 0, 0.0, amp / math.sqrt(n))


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


def unfold(tensors: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """A batch (count, d, ..., d) unfolded on slots: (count, d^(N-k), d^k).

    Each state becomes Phi^T: rows run over the other slots in ascending
    order, columns over the k slots' axes in the order of slots.
    """
    d, k = tensors.shape[-1], len(slots)
    moved = tensors.transpose(_unfolding_axes(tensors.ndim, slots))
    return moved.reshape(len(tensors), math.prod(tensors.shape[1:]) // d ** k,
                         d ** k)


def fold(matrices: np.ndarray, slots: tuple[int, ...],
         shape: tuple[int, ...]) -> np.ndarray:
    """The inverse of ``unfold`` into a batch of the given shape, as a view."""
    axes = _unfolding_axes(len(shape), slots)
    moved = matrices.reshape(tuple(shape[j] for j in axes))
    return moved.transpose(np.argsort(axes))


def _unfolding_axes(ndim: int, slots: tuple[int, ...]) -> list[int]:
    """Axis 0, the other slots' axes in order, then the slots' axes."""
    return [0, *(j for j in range(1, ndim) if j not in slots), *slots]


@dataclass(frozen=True)
class SlotOperator:
    """block (x) identity: a d^k x d^k block on the k slots in slots.

    ``image`` applies it to states unfolded on those slots, all of them
    by one matrix product: no N-body matrix.
    """

    block: np.ndarray
    slots: tuple[int, ...]

    def image(self, unfolded: np.ndarray) -> np.ndarray:
        """K Phi for every Phi^T in unfolded (..., rest, d^k): Phi^T K^T."""
        rows = unfolded.reshape(-1, len(self.block))
        return (rows @ self.block.T).reshape(unfolded.shape)


def sector_dimension(system: ParticleSystem, parity: Optional[str] = None,
                     n_particles: Optional[int] = None) -> int:
    """dim of the symmetric (+) or antisymmetric (-) subspace.

    Closed forms: the stars-and-bars count C(d+N-1, N) for + and the
    subset count C(d, N) for -.  With no parity, the dimension of the
    system's own sector; d^N in the full sector.  N is n_particles when
    given, otherwise the system's.
    """
    d = system.single_dim
    n = system.n_particles if n_particles is None else n_particles
    if parity is None:
        if system.sector == "full":
            return d ** n
        parity = _PARITY[system.sector]
    if parity == "+":
        return math.comb(d + n - 1, n)
    if parity == "-":
        return math.comb(d, n)
    raise ValueError("parity must be '+' or '-'")


@dataclass(frozen=True)
class StateBatch:
    """States as rank-r factors: state m is sum_k weights[m, k] |f_mk><f_mk|.

    factors has shape (states, r, d, ..., d), one axis per slot, in the
    full sector, and (states, r, D) of sector coordinates in bose and
    fermi, which unfold by the system's ``unfoldings``; weights has shape
    (states, r).  A pure state has r = 1 and weight 1.  The products that
    do not depend on an operator are cached.
    """

    factors: np.ndarray
    weights: np.ndarray
    unfoldings: tuple = ()

    @property
    def vectors(self) -> np.ndarray:
        """Every factor, as one batch shaped (states * r, ...)."""
        return self.factors.reshape((-1,) + self.factors.shape[2:])

    def unfold(self, *slots: tuple[int, ...]) -> "StateBatch":
        """The factors unfolded on each k-tuple of slots, stacked.

        (P states, r, rest, d^k) matrices for P tuples, C-contiguous, so
        that the product's rows and ``flat`` are views: tuple p's block
        of states after tuple p-1's, so that one matrix product applies
        a block on k slots to all of them.  Full sector: ``unfold`` of
        the slot axes.  Bose and fermi: the unfolding on k slots, one
        matrix for any k slots, so they take a single tuple.  An
        unfolding keeps inner products, Phi^dagger Phi = F^dagger F, so
        it shares this batch's Gram matrix and trace, repeated per tuple.
        """
        count = len(slots)
        if self.unfoldings:
            assert count == 1, "one matrix serves any k slots"
            index, amp = self.unfoldings[len(slots[0]) - 1]
            phi = self.factors[..., index]
            phi *= amp
        else:
            phi = (np.ascontiguousarray(unfold(self.vectors, slots[0]))
                   if count == 1 else
                   np.concatenate([unfold(self.vectors, s) for s in slots]))
            phi = phi.reshape((-1,) + self.factors.shape[1:2] + phi.shape[1:])
        weights, gram, trace = self.weights, self.gram, self.trace
        if count > 1:
            weights, gram, trace = (np.concatenate([x] * count)
                                    for x in (weights, gram, trace))
        out = StateBatch(phi, weights)
        # prefill the cached products that an unfolding keeps
        out.__dict__.update(gram=gram, trace=trace)
        return out

    def split(self, entries: int) -> list["StateBatch"]:
        """Consecutive sub-batches whose pair unfoldings hold about entries
        amplitudes, at least one state each."""
        size = (self.unfoldings[-1][0].size if self.unfoldings
                else math.prod(self.factors.shape[2:]))
        step = max(1, entries // max(1, self.factors.shape[1] * size))
        return [StateBatch(self.factors[i:i + step], self.weights[i:i + step],
                           self.unfoldings)
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
    the weights of all count mixtures drawn first and then all their
    components.  A pure state is a complex Gaussian in the coordinates of
    the sector's orthonormal basis (the product basis for full),
    normalized, and is kept in those coordinates: D of them for bose and
    fermi, in ``_occupations``'s row order.  seed is an int or a numpy
    Generator, drawn from in place; one draw of count pure states equals
    count successive draws.
    """
    sdim = sector_dimension(system)
    if sdim < 1:
        raise EmptySectorError(f"{system.sector} sector of {system} is empty")
    if rank is not None and not 1 <= rank <= sdim:
        raise RankError(f"rank {rank} not in 1..{sdim} for {system.sector} sector")
    rng = np.random.default_rng(seed)
    if rank is None:
        weights = np.ones((count, 1))
    else:
        weights = rng.random((count, rank)) + 1e-6
        weights /= weights.sum(axis=1, keepdims=True)
    normals = rng.standard_normal(weights.shape + (2, sdim))
    vectors = np.empty(weights.shape + (sdim,), dtype=complex)
    vectors.real, vectors.imag = normals[:, :, 0], normals[:, :, 1]
    squares = vectors.view(float)
    vectors /= np.sqrt(np.einsum("mki,mki->mk", squares, squares))[..., None]
    if system.sector == "full":
        vectors = vectors.reshape(
            weights.shape + (system.single_dim,) * system.n_particles)
    return StateBatch(vectors, weights, system.unfoldings)
