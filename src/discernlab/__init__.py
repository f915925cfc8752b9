"""discernlab: mechanical certification of weak-discernibility relations.

Two certification routes:

* relation T (finite-dimensional spin spaces): (S_a + S_b)^2 equals
  4 s(s+1) hbar^2 exactly when a == b and is spectrally bounded below
  that value when a != b;
* relation C (exact symbolic wavefunctions): [P_a, Q_b] psi equals
  -i hbar psi exactly when a == b and vanishes when a != b.
"""

from .matrix_core import (
    MixedState,
    Operator,
    PureState,
    hermitian_eigensystem,
    kron,
)
from .multiparticle import (
    ParticleSystem,
    Permutation,
    embed_at_slot,
    permutation_unitary,
    sector_dimension,
    symmetrizer,
)
from .spin import (
    SpinLabel,
    clebsch_gordan,
    coupled_basis,
    pair_total_spin_squared,
    spin_operators,
)
from .schwartz import SpinorWavefunction
from .discern import (
    DiscernibilityReport,
    certify_C,
    certify_T,
    eigenproperty,
    permutation_invariance_check,
    relation_C_holds,
    relation_T_holds,
)

__version__ = "0.1.0"
