"""Property-based checks over randomly generated operators and wavefunctions."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discernlab.discern import decide_C, eigen_residuals, eigenproperty
from discernlab.matrix_core import MixedState, Operator, hermitian_eigensystem
from discernlab.multiparticle import ParticleSystem, StateBatch
from discernlab.schwartz import SpinorWavefunction, draw_wavefunctions, pack
from discernlab.spin import SpinLabel, pair_operator, pair_total_spin_squared
from oracles import commutator, slot_apply

complex_entries = st.integers(-8, 8)


@st.composite
def square_matrices(draw, dim=3):
    data = draw(st.lists(
        st.tuples(complex_entries, complex_entries),
        min_size=dim * dim, max_size=dim * dim))
    m = np.array([complex(r, i) for r, i in data]).reshape(dim, dim)
    return Operator(m)


# Rational oracle: wavefunctions as {term: (re, im)} with Fraction parts,
# the coefficient arithmetic the integer kernel replaces.

def oracle_add(out, term, re, im):
    x, y = out.get(term, (Fraction(0), Fraction(0)))
    out[term] = (x + re, y + im)


def oracle_shift(term, k, de):
    m, e = term[k]
    return term[:k] + ((m, e + de),) + term[k + 1:]


def oracle_nonzero(terms):
    return {term: c for term, c in terms.items() if c != (0, 0)}


def oracle_apply_Q(terms, slot):
    return {oracle_shift(term, slot - 1, 1): c for term, c in terms.items()}


def oracle_apply_P(terms, slot):
    """-i d/dq on q^e exp(-q^2/2): -i (e q^(e-1) - q^(e+1)) exp(-q^2/2)."""
    k = slot - 1
    out = {}
    for term, (re, im) in terms.items():
        mre, mim = im, -re  # -i (re + i im)
        oracle_add(out, oracle_shift(term, k, 1), -mre, -mim)
        e = term[k][1]
        if e:
            oracle_add(out, oracle_shift(term, k, -1), e * mre, e * mim)
    return oracle_nonzero(out)


def oracle_commutator(terms, a, b):
    out = dict(oracle_apply_P(oracle_apply_Q(terms, b), a))
    for term, (re, im) in oracle_apply_Q(oracle_apply_P(terms, a), b).items():
        oracle_add(out, term, -re, -im)
    return oracle_nonzero(out)


def oracle_lcm(terms):
    """LCM of the denominators of every real and imaginary part."""
    return math.lcm(*(x.denominator for c in terms.values() for x in c))


def oracle_scaled(terms, factor):
    """{term: (re, im)} times factor, as ints; every part must become one."""
    out = {}
    for term, (re, im) in terms.items():
        re, im = re * factor, im * factor
        assert re.denominator == im.denominator == 1
        out[term] = (int(re), int(im))
    return out


def oracle_random_wavefunction(n_particles, max_degree, spin_two_s, seed):
    """The rational draw that draw_wavefunctions(..., 1, seed) scales to
    integers.

    Reads the numbers draw_wavefunctions draws for one wavefunction from
    the same generator, in the order it documents, and sums them one
    term at a time as Fractions.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, spin_two_s, n_particles]))
    spins = rng.integers(0, spin_two_s + 1, size=(4, n_particles)).tolist()
    per_config = rng.integers(1, 5, size=4).tolist()
    n_terms = sum(per_config)
    exponents = rng.integers(0, max_degree + 1,
                             size=(n_terms, n_particles)).tolist()
    numerators = rng.integers(-9, 10, size=(n_terms, 2)).tolist()
    denominators = rng.integers(1, 10, size=(n_terms, 1)).tolist()
    draws = iter(zip(exponents, numerators, denominators))
    terms = {}
    for config, count in zip(spins, per_config):
        for _ in range(count):
            exps, (num_re, num_im), (den,) = next(draws)
            oracle_add(terms, tuple(zip(config, exps)),
                       Fraction(num_re, den), Fraction(num_im, den))
    return oracle_nonzero(terms) or \
        {((0, 0),) * n_particles: (Fraction(1), Fraction(0))}


def oracle_coprime(terms):
    """{term: (re, im)} scaled to Gaussian integers with gcd 1."""
    scaled = oracle_scaled(terms, oracle_lcm(terms))
    g = math.gcd(*(x for c in scaled.values() for x in c))
    return {term: (re // g, im // g) for term, (re, im) in scaled.items()}


# denominators with shared factors, so the LCM is less than their product
shared_denominators = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 36])


@st.composite
def rational_terms(draw, n_particles=2, max_degree=6, two_s=0):
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        term = tuple((draw(st.integers(0, two_s)),
                      draw(st.integers(0, max_degree)))
                     for _ in range(n_particles))
        den = draw(shared_denominators)
        oracle_add(terms, term, Fraction(draw(st.integers(-9, 9)), den),
                   Fraction(draw(st.integers(-9, 9)), den))
    return oracle_nonzero(terms)


@st.composite
def rational_polys(draw, n_particles=2, max_degree=6):
    """A rational spin-0 wavefunction scaled by its LCM: the same ray."""
    terms = draw(rational_terms(n_particles, max_degree))
    return SpinorWavefunction(n_particles, 0,
                              oracle_scaled(terms, oracle_lcm(terms)))


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
    batch = pack([psi])
    for a in (1, 2):
        assert batch.commutator_PQ(a, a).unpack() == \
            batch.mul_minus_i().unpack()
    assert batch.commutator_PQ(1, 2).is_zero()
    assert batch.commutator_PQ(2, 1).is_zero()


@given(rational_polys(n_particles=3, max_degree=4))
@settings(max_examples=50, deadline=None)
def test_degree_growth_bounded(psi):
    before = max((e for term in psi.terms for _, e in term), default=0)
    out = pack([psi]).commutator_PQ(1, 2).unpack()[0]
    after = max((e for term in out.terms for _, e in term), default=0)
    assert after <= before + 2


@given(st.integers(2, 3), st.integers(0, 2), st.data())
@settings(max_examples=100, deadline=None)
def test_integer_kernel_matches_rational_oracle(n, two_s, data):
    terms = data.draw(rational_terms(n, max_degree=5, two_s=two_s))
    scale = oracle_lcm(terms)
    batch = pack([SpinorWavefunction(n, two_s, oracle_scaled(terms, scale))])
    for a in range(1, n + 1):
        assert batch.q(a).unpack()[0].terms == \
            oracle_scaled(oracle_apply_Q(terms, a), scale)
        assert batch.p(a).merged().unpack()[0].terms == \
            oracle_scaled(oracle_apply_P(terms, a), scale)
        for b in range(1, n + 1):
            assert batch.commutator_PQ(a, b).unpack()[0].terms == \
                oracle_scaled(oracle_commutator(terms, a, b), scale)


# (N, 2s): one key word, one word with spins, and a key of two words
@given(st.sampled_from([(2, 0), (3, 2), (8, 63)]), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_batch_kernel_matches_rational_oracle(shape, huge, data):
    """Owner by owner, one batch's image is the oracle's, scaled.

    The batch mixes term counts and includes the zero wavefunction, on
    which C holds for every pair.  huge scales every coefficient by 2^60,
    beyond what the kernel computes with in int64, and adds a term whose
    parts fit int64 but overflow it once P multiplies them by 21.
    """
    n, two_s = shape
    drawn = data.draw(st.lists(rational_terms(n, max_degree=5, two_s=two_s),
                               min_size=1, max_size=4)) + [{}]
    if huge:
        drawn.append({((0, 20),) * n: (Fraction(1), Fraction(-1))})
    scales = [oracle_lcm(terms) * (2 ** 60 if huge else 1) for terms in drawn]
    batch = pack([SpinorWavefunction(n, two_s, oracle_scaled(terms, scale))
                  for terms, scale in zip(drawn, scales)])
    assert (batch.coeffs.dtype == object) == huge
    target = batch.mul_minus_i()
    for a in {1, n}:
        # P alone: its results do not fit int64 where the commutator's do
        images = batch.p(a).merged().unpack()
        for terms, scale, got in zip(drawn, scales, images):
            assert got.terms == oracle_scaled(oracle_apply_P(terms, a), scale)
    for a, b in {(1, 1), (1, 2), (n, 1), (n, n)}:
        image = batch.commutator_PQ(a, b)
        for terms, scale, got in zip(drawn, scales, image.unpack()):
            assert got.terms == \
                oracle_scaled(oracle_commutator(terms, a, b), scale)
        holds, _ = decide_C(image, target)
        assert list(holds) == [a == b or not terms for terms in drawn]


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 8),
       st.integers(0, 10**6))
# a draw whose terms all cancel, found by search
@example(2, 0, 0, 994452)
@settings(max_examples=100, deadline=None)
def test_random_wavefunction_is_rational_draw_times_lcm(n, two_s, degree, seed):
    """The rational draw times the LCM of its denominators, over the gcd of
    the parts that gives."""
    [psi] = draw_wavefunctions(n, degree, two_s, 1, seed).unpack()
    assert psi.terms == \
        oracle_coprime(oracle_random_wavefunction(n, degree, two_s, seed))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.booleans())
@settings(max_examples=100, deadline=None)
def test_factor_kernel_matches_dense_mixed_state(seed, rank, eigen):
    """Value and residual from rank-r factors equal the dense Frobenius ones.

    K is (S_1 + S_2)^2 for two spin-1 particles (levels 0, 2, 6).  The
    factors are drawn inside its S = 2 eigenspace (an eigenstate with
    value 6) or anywhere (no eigenstate).
    """
    rng = np.random.default_rng(seed)
    label, system = SpinLabel(2), ParticleSystem(2, 3)
    k = pair_total_spin_squared(label, 1, 2, system).entries
    coords = rng.standard_normal((rank, 9)) + 1j * rng.standard_normal((rank, 9))
    if eigen:
        _, vecs = np.linalg.eigh(k)
        coords = coords[:, :5] @ vecs[:, 4:].T  # the five S = 2 vectors
    f = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    w = rng.random(rank) + 0.05
    w /= w.sum()
    batch = StateBatch(f.reshape(1, rank, 3, 3), w[None])
    image = slot_apply(pair_operator(label, 1, 2, system), batch.vectors)
    value, residual = eigen_residuals(image, batch)

    dense = MixedState(sum(wk * np.outer(fk, fk.conj()) for wk, fk in zip(w, f)))
    kw = k @ dense.entries
    want_value = np.trace(kw) / np.trace(dense.entries)
    want_residual = np.linalg.norm(kw - want_value * dense.entries)
    assert abs(value[0] - want_value) <= 1e-12
    assert abs(residual[0] - want_residual) <= 1e-12
    # the MixedState route factors W by eigh and runs the same kernel
    got = eigenproperty(Operator(k), dense, tol=1e-8)
    if eigen:
        assert residual[0] <= 1e-12 and abs(value[0] - 6) <= 1e-12
        assert abs(got - 6) <= 1e-12
    else:
        assert residual[0] > 1e-3 and got is None
