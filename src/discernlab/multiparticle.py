"""N-fold tensor-product spaces.

Slot embeddings, permutation unitaries, symmetrizers / antisymmetrizers
and sector-constrained random state sampling.

Permutation convention: U_pi moves the content of slot k to slot pi(k),
i.e. on product vectors U_pi (phi_1 (x) ... (x) phi_N) =
phi_{pi^-1(1)} (x) ... (x) phi_{pi^-1(N)}.  On a vector reshaped to one
axis per slot that is a transpose of the axes (``slot_axes``), so U_pi
and the conjugation A -> U_pi A U_pi^dagger are index permutations, with
no arithmetic.  The composition law U_pi U_sigma = U_{pi o sigma} is
tested exhaustively for S_3.
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
    SamplingError,
)
from .matrix_core import MixedState, Operator, PureState, dimension_cap, identity, kron

SECTORS = ("full", "bose", "fermi")
#: symmetrizer parity of each symmetry-restricted sector
_PARITY = {"bose": "+", "fermi": "-"}

MAX_PROJECTION_RETRIES = 16


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

    @cached_property
    def projector(self) -> Operator:
        """The sector projector, built once per system."""
        return sector_projector(self)


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


def conjugate_by_permutation(a: Operator, pi: Permutation,
                             system: ParticleSystem) -> Operator:
    """U_pi A U_pi^dagger, by transposing A's row and column slot axes.

    An index permutation of A's entries: exact, and O(dim^2) instead of
    two dense dim^3 products.
    """
    _check_slots(pi, system)
    d, n = system.single_dim, system.n_particles
    axes = slot_axes(pi)
    entries = a.entries.reshape((d,) * (2 * n)).transpose(
        axes + tuple(n + k for k in axes))
    return Operator(entries.reshape(a.dim, a.dim), a.hbar_power)


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


def sector_projector(system: ParticleSystem) -> Operator:
    if system.sector == "full":
        return identity(system.total_dim)
    return symmetrizer(system, _PARITY[system.sector])


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


def random_pure_state(system: ParticleSystem, seed) -> PureState:
    """Haar-uniform ray inside the system's sector.

    seed is an int or a numpy Generator.  A Generator is drawn from in
    place, so successive calls on one generator give successive samples.
    """
    if sector_dimension(system) < 1:
        raise EmptySectorError(f"{system.sector} sector of {system} is empty")
    proj = system.projector.entries
    rng = np.random.default_rng(seed)
    for _ in range(MAX_PROJECTION_RETRIES):
        v = rng.standard_normal(system.total_dim) + 1j * rng.standard_normal(
            system.total_dim)
        v = proj @ v
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return PureState(v / norm)
    raise SamplingError("projection returned zero norm repeatedly")


def random_mixed_state(system: ParticleSystem, rank: int, seed) -> MixedState:
    """Convex mixture of rank sector-confined pure projectors.

    seed is an int or a numpy Generator.  The weights are drawn first,
    then the rank pure components, all from the one generator.
    """
    sdim = sector_dimension(system)
    if not 1 <= rank <= sdim:
        raise RankError(f"rank {rank} not in 1..{sdim} for {system.sector} sector")
    rng = np.random.default_rng(seed)
    weights = rng.random(rank) + 1e-6
    weights /= weights.sum()
    w = np.zeros((system.total_dim, system.total_dim), dtype=complex)
    for wk in weights:
        psi = random_pure_state(system, rng).amplitudes
        w += wk * np.outer(psi, psi.conj())
    # symmetrize away float round-off before the invariant check
    w = (w + w.conj().T) / 2
    return MixedState(w)
