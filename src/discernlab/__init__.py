"""discernlab: mechanical certification of weak-discernibility relations.

Two certification routes:

* relation T (finite-dimensional spin spaces): (S_a + S_b)^2 equals
  4 s(s+1) hbar^2 exactly when a == b and is spectrally bounded below
  that value when a != b;
* relation C (exact symbolic wavefunctions): [P_a, Q_b] psi equals
  -i hbar psi exactly when a == b and vanishes when a != b.

The public predicates run the certifier's own kernels.  ``eigenproperty``
and ``relation_T_holds`` take a ``StateBatch`` of the system's sector,
as ``sample_states`` draws it (or ``ALL_STATES`` for the operator-level
decision), and ``relation_C_holds`` spinor wavefunctions.
"""

from .multiparticle import (
    ParticleSystem,
    Permutation,
    SlotOperator,
    StateBatch,
    sample_states,
    sector_dimension,
)
from .spin import SpinLabel, pair_operator
from .schwartz import SpinorWavefunction
from .discern import (
    ALL_STATES,
    DiscernibilityReport,
    certify_C,
    certify_T,
    eigenproperty,
    permutation_invariance_check,
    relation_C_holds,
    relation_T_holds,
)

__version__ = "0.1.0"
