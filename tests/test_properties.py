"""Property-based checks over randomly generated operators and wavefunctions."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from discernlab.matrix_core import Operator, commutator, hermitian_eigensystem
from discernlab.schwartz import (
    MINUS_I,
    QComplex,
    SpinorWavefunction,
    commutator_PQ_apply,
)

complex_entries = st.integers(-8, 8)


@st.composite
def square_matrices(draw, dim=3):
    data = draw(st.lists(
        st.tuples(complex_entries, complex_entries),
        min_size=dim * dim, max_size=dim * dim))
    m = np.array([complex(r, i) for r, i in data]).reshape(dim, dim)
    return Operator(m)


@st.composite
def rational_polys(draw, n_particles=2, max_degree=6):
    n_terms = draw(st.integers(1, 5))
    coeffs = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_degree))
                     for _ in range(n_particles))
        num_re = draw(st.integers(-9, 9))
        num_im = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        coeffs[tuple((0, e) for e in mono)] = QComplex(
            Fraction(num_re, den), Fraction(num_im, den))
    return SpinorWavefunction(n_particles, 0, coeffs)


@given(square_matrices(), square_matrices())
@settings(max_examples=50, deadline=None)
def test_commutator_antisymmetric(a, b):
    assert np.array_equal(commutator(a, b).entries, -commutator(b, a).entries)


@given(square_matrices())
@settings(max_examples=50, deadline=None)
def test_eigensystem_reconstructs_hermitian_part(a):
    h = Operator((a.entries + a.entries.conj().T) / 2)
    pairs = hermitian_eigensystem(h)
    v = np.column_stack([vec.amplitudes for _, vec in pairs])
    lam = np.diag([l for l, _ in pairs])
    assert np.abs(h.entries - v @ lam @ v.conj().T).max() \
        <= 1e-9 * max(h.max_norm(), 1.0)


@given(rational_polys())
@settings(max_examples=100, deadline=None)
def test_exact_ccr_on_random_polys(psi):
    for a in (1, 2):
        assert commutator_PQ_apply(psi, a, a) == psi.scale(MINUS_I)
    assert commutator_PQ_apply(psi, 1, 2).is_zero()
    assert commutator_PQ_apply(psi, 2, 1).is_zero()


@given(rational_polys(n_particles=3, max_degree=4))
@settings(max_examples=50, deadline=None)
def test_degree_growth_bounded(psi):
    before = max((e for term in psi.terms for _, e in term), default=0)
    out = commutator_PQ_apply(psi, 1, 2)
    after = max((e for term in out.terms for _, e in term), default=0)
    assert after <= before + 2
