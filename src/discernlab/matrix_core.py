"""Dense complex linear algebra kernel.

Operators, pure states and statistical operators as immutable wrappers
around numpy arrays, plus the handful of primitives everything else is
built from: tensor products and Hermitian eigensystems.

hbar is 1 internally.  Eigenvalue claims elsewhere are stated in units
of hbar or hbar^2 and carry their unit exponent as metadata, which
sums check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionCapError,
    HermiticityError,
    ShapeError,
    UnitError,
)

TOL_ABS = 1e-10
#: eigenvalues closer than this (relative to the operator norm) are one level
LEVEL_TOL_REL = 1e-7

DEFAULT_DIM_CAP = 4096


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
class Operator:
    """Square complex matrix with dimension metadata.

    ``hbar_power`` records the unit exponent of the entries (0 for
    dimensionless, 1 for operators linear in hbar, 2 for their squares).
    """

    entries: np.ndarray
    hbar_power: int = 0

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ShapeError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ShapeError(f"dim mismatch {self.dim} vs {other.dim}")
        return Operator(self.entries @ other.entries,
                        self.hbar_power + other.hbar_power)

    def __add__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ShapeError(f"dim mismatch {self.dim} vs {other.dim}")
        if self.hbar_power != other.hbar_power:
            raise UnitError(f"cannot add hbar^{self.hbar_power} "
                            f"and hbar^{other.hbar_power}")
        return Operator(self.entries + other.entries, self.hbar_power)

    def max_norm(self) -> float:
        return float(np.abs(self.entries).max()) if self.dim else 0.0


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class PureState:
    """Unit vector in a (tensor-product) Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > 1e-8:
            raise ShapeError(f"state norm {n} is not 1")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class MixedState:
    """Statistical operator: self-adjoint, positive, unit trace."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=complex)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ShapeError(f"statistical operator must be square, got {w.shape}")
        if float(np.abs(w - w.conj().T).max()) > TOL_ABS:
            raise HermiticityError("statistical operator is not self-adjoint")
        if abs(np.trace(w).real - 1.0) > 1e-8:
            raise ShapeError(f"trace {np.trace(w)} is not 1")
        evals = np.linalg.eigvalsh(w)
        if evals.min() < -TOL_ABS:
            raise ShapeError(f"negative eigenvalue {evals.min()}")
        w.setflags(write=False)
        object.__setattr__(self, "entries", w)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product A (x) B on the direct-product space."""
    if a.dim * b.dim > dimension_cap():
        raise DimensionCapError(
            f"{a.dim}*{b.dim} exceeds dimension cap {dimension_cap()}")
    return Operator(np.kron(a.entries, b.entries),
                    a.hbar_power + b.hbar_power)


def _hermitian_eigh(a: Operator) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of A, after checking that A is self-adjoint.

    Raises HermiticityError unless the input is self-adjoint within
    TOL_ABS relative to its norm.
    """
    scale = max(a.max_norm(), 1.0)
    if float(np.abs(a.entries - a.entries.conj().T).max()) > TOL_ABS * scale:
        raise HermiticityError("input is not self-adjoint")
    return np.linalg.eigh(a.entries)


def hermitian_eigensystem(a: Operator) -> list[tuple[float, PureState]]:
    """Ascending eigenvalues with orthonormal eigenvectors.

    Raises HermiticityError unless the input is self-adjoint.
    """
    evals, evecs = _hermitian_eigh(a)
    return [(float(evals[k]), PureState(evecs[:, k])) for k in range(a.dim)]


def eigenvalue_levels(a: Operator) -> list[tuple[float, int]]:
    """Distinct eigenvalues of a self-adjoint operator with multiplicities.

    Eigenvalues within LEVEL_TOL_REL * ||A|| of each other are one level.
    """
    evals, _ = _hermitian_eigh(a)
    gap = LEVEL_TOL_REL * max(a.max_norm(), 1.0)
    levels: list[list[float]] = []
    for lam in map(float, evals):
        if levels and abs(lam - levels[-1][-1]) <= gap:
            levels[-1].append(lam)
        else:
            levels.append([lam])
    return [(sum(lv) / len(lv), len(lv)) for lv in levels]
