"""Exception hierarchy shared by all discernlab modules."""


class DiscernlabError(Exception):
    """Base class for all discernlab errors."""


class ShapeError(DiscernlabError):
    """Operand dimensions do not match."""


class DimensionCapError(DiscernlabError):
    """A tensor-product dimension would exceed the configured cap."""


class HermiticityError(DiscernlabError):
    """An operator required to be self-adjoint is not."""


class IndexRangeError(DiscernlabError):
    """A particle slot index is out of range."""


class EmptySectorError(DiscernlabError):
    """The requested symmetry sector has dimension zero."""


class RankError(DiscernlabError):
    """Requested mixed-state rank exceeds the sector dimension."""


class DegreeCapError(DiscernlabError):
    """A polynomial operation would exceed the per-variable degree cap."""


class DomainError(DiscernlabError):
    """Quantum numbers out of their admissible range."""


class DiagonalizationError(DiscernlabError):
    """Simultaneous diagonalization failed to resolve a degeneracy."""


class DegenerateSpinError(DiscernlabError):
    """The total-spin relation is undefined for spin zero."""


class ArityError(DiscernlabError):
    """Fewer than two particles: nothing to discern."""


class UnitError(DiscernlabError):
    """Operands carry different powers of hbar."""


class ConfigError(DiscernlabError):
    """A run configuration is malformed or out of range."""
