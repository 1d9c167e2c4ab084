"""Jet arithmetic and the jet-valued matrix exponential against oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momalg.algebra import MMap, convolve
from momalg.combinatorics import EMPTY, Multiset, multiset_lattice
from momalg.errors import CapExceededError, DomainError, NonInvertibleError
from momalg import jets
from momalg.jets import (
    Jet,
    JetMatrix,
    _block_products,
    _pair_table,
    _position,
    jet_matrix_exp,
)
from momalg.experiments import random_config
from momalg.quantum import coupled_generator
from momalg.weakvalues import WeakValueContext, _system_generator
from oracles import expm_mp

M = Multiset


def random_jet(rng, n, caps, const=None):
    coeffs = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for a in multiset_lattice(n, caps)}
    if const is not None:
        coeffs[EMPTY] = const
    return Jet(n, caps, coeffs)


def random_complex_matrix(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def test_multilinear_product_fixture():
    caps = (1, 1)
    g1 = Jet.variable(1, 2, caps)
    g2 = Jet.variable(2, 2, caps)
    p = (1 + g1) * (1 + g2)
    assert p.coefficient(EMPTY) == 1
    assert p.coefficient(M([1])) == 1
    assert p.coefficient(M([2])) == 1
    assert p.coefficient(M([1, 2])) == 1


def test_truncation_drops_over_cap():
    g = Jet.variable(1, 1, (2,))
    cube = g * g * g
    assert cube.coeffs == {}


def test_exp_taylor_fixture():
    g = Jet.variable(1, 1, (3,))
    e = g.exp()
    assert e.coefficient(EMPTY) == pytest.approx(1.0)
    assert e.coefficient(M([1])) == pytest.approx(1.0)
    assert e.coefficient(M([1, 1])) == pytest.approx(0.5)
    assert e.coefficient(M([1, 1, 1])) == pytest.approx(1 / 6)


def test_log_exp_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(10):
        j = random_jet(rng, 2, (2, 2), const=complex(1.3, 0.4))
        assert j.log().exp().allclose(j, 1e-12)
        assert j.exp().log().allclose(j, 1e-12)


def test_inverse_and_division():
    rng = np.random.default_rng(9)
    j = random_jet(rng, 2, (1, 2), const=0.8 - 0.3j)
    one = Jet.scalar(1.0, 2, (1, 2))
    assert (j * j.inverse()).allclose(one, 1e-12)
    k = random_jet(rng, 2, (1, 2), const=1.5)
    assert ((k / j) * j).allclose(k, 1e-12)


def test_zero_constant_guards():
    g = Jet.variable(1, 1, (2,))
    with pytest.raises(NonInvertibleError):
        g.log()
    with pytest.raises(NonInvertibleError):
        g.inverse()


def test_extract_coefficient_and_derivative():
    j = Jet(2, (1, 1), {M([1, 2]): 2.0, EMPTY: 1.0})
    assert j.coefficient(M([1, 2])) == 2.0
    assert j.coefficient(EMPTY) == 1.0
    sq = Jet(1, (2,), {M([1, 1]): 1.0})
    assert sq.derivative(M([1, 1])) == pytest.approx(2.0)   # 2! * 1
    with pytest.raises(CapExceededError):
        j.coefficient(M([1, 1]))


def test_multilinear_mul_is_convolution():
    rng = np.random.default_rng(10)
    caps = (1, 1, 1)
    for _ in range(10):
        x = random_jet(rng, 3, caps)
        y = random_jet(rng, 3, caps)
        via_jet = x * y
        fx = MMap(3, dict(x.coeffs), caps)
        fy = MMap(3, dict(y.coeffs), caps)
        via_conv = convolve(fx, fy)
        for a in fx.domain():
            assert abs(via_jet.coefficient(a) - via_conv(a)) < 1e-12


# ---------------------------------------------------------------------------
# jet matrix exponential


def test_jet_matrix_exp_constant_only_matches_dense():
    rng = np.random.default_rng(12)
    d = 5
    a = random_complex_matrix(rng, d)
    jm = JetMatrix.from_terms({(): a}, d, 2, (1, 1))
    got = jet_matrix_exp(jm)
    dense = expm_mp(a)
    assert np.max(np.abs(got.constant - dense)) < 1e-12
    for ms in multiset_lattice(2, (1, 1)):
        if not ms.is_empty:
            assert np.max(np.abs(got.blocks[_position(got.caps, ms)])) == 0.0


def test_jet_matrix_exp_scalar_first_order_closed_form():
    # 1x1 case: coefficient of gamma in exp(tau (y + gamma x)) is tau x e^{tau y}
    rng = np.random.default_rng(14)
    for _ in range(5):
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tau = rng.uniform(0.3, 2.0)
        jm = JetMatrix.from_terms(
            {(): tau * np.array([[y]]), (1,): tau * np.array([[x]])}, 1, 1, (1,))
        got = jet_matrix_exp(jm)
        expect = tau * x * np.exp(tau * y)
        assert abs(got.blocks[_position(got.caps, M([1]))][0, 0] - expect) < 1e-12


def test_jet_matrix_exp_first_order_vs_finite_differences():
    # central differences of the plain exponential, step 1e-5
    rng = np.random.default_rng(16)
    d = 4
    y = random_complex_matrix(rng, d, 0.8)
    xs = [random_complex_matrix(rng, d, 0.7) for _ in range(2)]
    jm = JetMatrix.from_terms({(): y, (1,): xs[0], (2,): xs[1]}, d, 2, (1, 1))
    got = jet_matrix_exp(jm)
    h = 1e-5
    for i, x in enumerate(xs, start=1):
        fd = (expm_mp(y + h * x) - expm_mp(y - h * x)) / (2 * h)
        block = got.blocks[_position(got.caps, M([i]))]
        assert np.max(np.abs(block - fd)) < 1e-8


def test_jet_matrix_exp_commuting_blocks_factorize():
    # exp(D + gamma N) with [D, N] = 0 equals exp(D) * exp(gamma N)
    rng = np.random.default_rng(18)
    d = 4
    diag = np.diag(rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
    poly = np.eye(d) * 0.3 + 0.5 * diag + 0.2 * diag @ diag   # commutes with diag
    jm = JetMatrix.from_terms({(): diag, (1,): poly}, d, 1, (1,))
    got = jet_matrix_exp(jm)
    ed = expm_mp(diag)
    assert np.max(np.abs(got.constant - ed)) < 1e-11
    block = got.blocks[_position(got.caps, M([1]))]
    assert np.max(np.abs(block - ed @ poly)) < 1e-11


def test_jet_matrix_exp_rejects_non_finite_blocks():
    for bad in (np.inf, np.nan):
        jm = JetMatrix.from_terms({(): np.eye(2), (1,): np.full((2, 2), bad)},
                                  2, 1, (1,))
        with pytest.raises(DomainError):
            jet_matrix_exp(jm)


def test_jet_matrix_exp_second_order_vs_monte_carlo_simplex():
    # coefficient of gamma1 gamma2 against direct sampling of the
    # permutation-summed simplex integral of the Dyson expansion
    rng = np.random.default_rng(20)
    d = 2
    tau = 1.0
    y = random_complex_matrix(rng, d, 0.6)
    x1 = random_complex_matrix(rng, d, 0.6)
    x2 = random_complex_matrix(rng, d, 0.6)
    jm = JetMatrix.from_terms(
        {(): tau * y, (1,): tau * x1, (2,): tau * x2}, d, 2, (1, 1))
    exp_jm = jet_matrix_exp(jm)
    block = exp_jm.blocks[_position(exp_jm.caps, M([1, 2]))]

    evals, vecs = np.linalg.eig(y)
    vinv = np.linalg.inv(vecs)

    def propagate(t):
        return vecs @ np.diag(np.exp(evals * t)) @ vinv

    nsamp = 100_000
    spacings = rng.exponential(1.0, (nsamp, 3))
    times = tau * spacings / spacings.sum(axis=1, keepdims=True)
    orders = rng.integers(0, 2, nsamp)
    samples = np.empty((nsamp, d, d), dtype=complex)
    for k in range(nsamp):
        t1, t2, t3 = times[k]
        first, second = (x1, x2) if orders[k] == 0 else (x2, x1)
        samples[k] = propagate(t3) @ second @ propagate(t2) @ first @ propagate(t1)
    # sum over the 2 orders integrates to tau^2 * mean over (order, times)
    mean = samples.mean(axis=0) * tau ** 2
    se = samples.std(axis=0) / math.sqrt(nsamp) * tau ** 2
    resid = np.abs(block - mean)
    assert np.all(resid <= 3.0 * np.abs(se) + 1e-12), (resid, se)


def test_jet_matrix_trace_and_bilinear():
    rng = np.random.default_rng(22)
    d = 3
    blocks = {(): random_complex_matrix(rng, d), (1,): random_complex_matrix(rng, d)}
    jm = JetMatrix.from_terms(blocks, d, 1, (1,))
    tr = jm.trace()
    assert tr.coefficient(EMPTY) == pytest.approx(np.trace(blocks[()]))
    assert tr.coefficient(M([1])) == pytest.approx(np.trace(blocks[(1,)]))
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    bl = jm.bilinear(u, v)
    assert bl.coefficient(M([1])) == pytest.approx(u.conj() @ blocks[(1,)] @ v)


# ---------------------------------------------------------------------------
# dense storage against dict/Multiset references kept only here

caps_strategy = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)
property_settings = settings(max_examples=40, deadline=None)


def reference_product(x, y):
    """The monomial-by-monomial product the dense pair-table product replaced."""
    out = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            s = a + b
            if s.fits(x.caps):
                out[s] = out.get(s, 0j) + ca * cb
    return out


def sparse_jet(rng, caps, const=None):
    """Random jet with about a third of its monomials exactly zero."""
    coeffs = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for a in multiset_lattice(len(caps), caps) if rng.uniform() < 0.7}
    if const is not None:
        coeffs[EMPTY] = const
    return Jet(len(caps), caps, coeffs)


@property_settings
@given(caps=caps_strategy, seed=st.integers(0, 2**32 - 1))
def test_dense_product_matches_reference_product(caps, seed):
    rng = np.random.default_rng(seed)
    x, y = sparse_jet(rng, caps), sparse_jet(rng, caps)
    ref = reference_product(x, y)
    got = x * y
    for a in multiset_lattice(len(caps), caps):
        assert abs(got.coefficient(a) - ref.get(a, 0j)) <= 1e-13
    assert set(got.coeffs) <= set(ref)


@property_settings
@given(caps=caps_strategy, seed=st.integers(0, 2**32 - 1))
def test_ring_laws(caps, seed):
    rng = np.random.default_rng(seed)
    x, y, z = (sparse_jet(rng, caps) for _ in range(3))
    one = Jet.scalar(1.0, len(caps), caps)
    assert ((x * y) * z).allclose(x * (y * z), 1e-12)
    assert (x * y).allclose(y * x, 1e-12)
    assert (x * (y + z)).allclose(x * y + x * z, 1e-12)
    assert (x * one).allclose(x, 0.0)
    assert (x - x).coeffs == {}
    assert (x * 2.5).allclose(x * Jet.scalar(2.5, len(caps), caps), 1e-15)


@property_settings
@given(caps=caps_strategy, seed=st.integers(0, 2**32 - 1))
def test_exp_log_and_inverse_roundtrips(caps, seed):
    rng = np.random.default_rng(seed)
    const = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
    j = sparse_jet(rng, caps, const=const)
    one = Jet.scalar(1.0, len(caps), caps)
    assert j.log().exp().allclose(j, 1e-12)
    assert (j * j.inverse()).allclose(one, 1e-12)


def evaluate(jet, gammas):
    """The jet as a polynomial, evaluated at the point gammas."""
    return sum(c * math.prod(gammas[j - 1] ** m for j, m in a.items)
               for a, c in jet.coeffs.items())


def random_labels(rng, n):
    return M([j for j in range(1, n + 1) if rng.uniform() < 0.5])


@property_settings
@given(caps=caps_strategy, seed=st.integers(0, 2**32 - 1))
def test_restrict_is_evaluation_with_outside_gammas_zero(caps, seed):
    rng = np.random.default_rng(seed)
    n = len(caps)
    x, a = sparse_jet(rng, caps), random_labels(rng, n)
    gammas = rng.uniform(-1, 1, n)
    zeroed = [g if j in a.support else 0.0 for j, g in enumerate(gammas, 1)]
    got = x.restrict(a)
    assert abs(evaluate(got, gammas) - evaluate(x, zeroed)) <= 1e-12
    for b in multiset_lattice(n, caps):
        inside = set(b.support) <= set(a.support)
        assert got.coefficient(b) == (x.coefficient(b) if inside else 0)


@property_settings
@given(caps=caps_strategy, seed=st.integers(0, 2**32 - 1))
def test_restrict_preserves_sums_products_inverse_and_log(caps, seed):
    rng = np.random.default_rng(seed)
    x, y = sparse_jet(rng, caps), sparse_jet(rng, caps)
    u = sparse_jet(rng, caps, const=complex(rng.uniform(0.5, 2.0),
                                            rng.uniform(-1, 1)))
    a = random_labels(rng, len(caps))

    def r(j):
        return j.restrict(a)

    assert r(x + y).allclose(r(x) + r(y), 0.0)
    assert r(x * y).allclose(r(x) * r(y), 1e-13)
    assert r(u.inverse()).allclose(r(u).inverse(), 1e-12)
    assert r(u.log()).allclose(r(u).log(), 1e-12)
    assert r(x / u).allclose(r(x) / r(u), 1e-12)


@property_settings
@given(caps=caps_strategy, seed=st.integers(0, 2**32 - 1))
def test_restrict_is_idempotent_and_the_full_set_is_the_identity(caps, seed):
    rng = np.random.default_rng(seed)
    n = len(caps)
    x, a = sparse_jet(rng, caps), random_labels(rng, n)
    assert x.restrict(a).restrict(a).allclose(x.restrict(a), 0.0)
    assert x.restrict(M(range(1, n + 1))).allclose(x, 0.0)
    assert x.restrict(EMPTY).coeffs == ({EMPTY: x.constant} if x.constant else {})


def test_coeffs_is_a_read_only_view_of_nonzero_monomials():
    j = Jet(2, (1, 1), {M([1]): 2.0, M([2]): 0.0})
    assert dict(j.coeffs) == {M([1]): 2.0}
    with pytest.raises(TypeError):
        j.coeffs[EMPTY] = 1.0


def explicit_matmul(x, y, caps):
    """Per-pair block products of two block stacks over every lattice pair,
    zero blocks included, at the storage positions of the lattice."""
    lattice = multiset_lattice(len(caps), caps)
    out = np.zeros((len(lattice), x.shape[1], y.shape[2]), dtype=complex)
    for a in sorted(lattice, key=lambda a: _position(caps, a)):
        for b in lattice:
            s = a + b
            if s.fits(caps):
                out[_position(caps, s)] += \
                    x[_position(caps, a)] @ y[_position(caps, b)]
    return out


def random_blocks(rng, shape, caps, zero_frac=0.4):
    """Random blocks, each set exactly to zero with probability zero_frac."""
    size = len(multiset_lattice(len(caps), caps))
    blocks = (rng.standard_normal((size, *shape))
              + 1j * rng.standard_normal((size, *shape)))
    blocks[rng.uniform(size=size) < zero_frac] = 0.0
    return blocks


def random_jet_matrix(rng, d, caps, zero_frac=0.4):
    return JetMatrix(len(caps), caps, random_blocks(rng, (d, d), caps, zero_frac))


@property_settings
@given(caps=caps_strategy, d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_jet_matrix_product_matches_explicit_loop_with_zero_blocks(
        caps, d, seed, rows, cols):
    rng = np.random.default_rng(seed)
    x, y = random_jet_matrix(rng, d, caps), random_jet_matrix(rng, d, caps)
    assert np.array_equal((x @ y).blocks, explicit_matmul(x.blocks, y.blocks, caps))
    # rectangular blocks, (lattice, rows, d) by (lattice, d, cols), as the
    # spectral exponential multiplies cluster sub-blocks
    a = random_blocks(rng, (rows, d), caps)
    b = random_blocks(rng, (d, cols), caps)
    out = np.zeros((len(a), rows, cols), dtype=complex)
    _block_products(_pair_table(caps), a, b, out)
    assert np.array_equal(out, explicit_matmul(a, b, caps))


# ---------------------------------------------------------------------------
# jet exponential against the regular representation of the jet ring


def regular_representation(terms, caps, d):
    """Left multiplication by sum_a terms[a] gamma^a on the jet ring, as an
    (L d) x (L d) block matrix: block (c, b) is terms[a] where a + b = c
    fits the caps.  Also returns the row-block position of each monomial."""
    lattice = multiset_lattice(len(caps), caps)
    pos = {a: i for i, a in enumerate(lattice)}
    rep = np.zeros((len(lattice) * d, len(lattice) * d), dtype=complex)
    for a, block in terms.items():
        for b in lattice:
            c = a + b
            if c.fits(caps):
                rep[pos[c] * d:(pos[c] + 1) * d, pos[b] * d:(pos[b] + 1) * d] += block
    return rep, pos


def hermitian(rng, d, norm):
    """Random Hermitian d x d matrix with matrix 1-norm `norm`."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = a + a.conj().T
    return h * (norm / np.linalg.norm(h, 1))


@st.composite
def exponential_cases(draw):
    caps = draw(caps_strategy)
    size = len(multiset_lattice(len(caps), caps))
    d = draw(st.integers(1, max(1, 12 // size)))
    return (caps, d, draw(st.sampled_from(["thermal", "evolution"])),
            draw(st.sampled_from([0.0, 0.3, 1.5, 3.0])),
            draw(st.floats(0.05, 60.0)), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None)
@given(case=exponential_cases())
def test_jet_matrix_exp_matches_regular_representation_oracle(case):
    # exp of the regular representation, taken by mpmath at 30 digits; its
    # block column at the constant monomial holds the jet exponential
    caps, d, kind, const_norm, coupling_norm, every_monomial, seed = case
    rng = np.random.default_rng(seed)
    n = len(caps)
    phase = -1.0 if kind == "thermal" else -1j     # Hermitian or anti-Hermitian
    terms = {EMPTY: phase * hermitian(rng, d, const_norm)}
    for a in multiset_lattice(n, caps):
        if a.size == 1 or (every_monomial and a.size > 1):
            terms[a] = phase * hermitian(rng, d, coupling_norm / a.size)
    got = jet_matrix_exp(JetMatrix.from_terms(terms, d, n, caps))
    assert_matches_oracle(got, terms, caps, d, case)


def assert_matches_oracle(got, terms, caps, d, case):
    """Each grade of `got` within 1e-13 of the 30-digit oracle, in units of
    the terms that make up that grade: the same grade of the exponential of
    the entrywise-absolute generator, which bounds every term of the series
    (the [t^g] e^P of the jet_matrix_exp docstring).  A grade whose terms
    cancel is then not held to a precision its terms never had."""
    rep, pos = regular_representation(terms, caps, d)
    size, _ = regular_representation({a: np.abs(t) for a, t in terms.items()},
                                     caps, d)
    unit = pos[EMPTY] * d
    column = expm_mp(rep)[:, unit:unit + d]
    scale = expm_mp(size)[:, unit:unit + d].real
    for g in {a.size for a in pos}:
        grade = [a for a in pos if a.size == g]
        want = np.stack([column[pos[a] * d:(pos[a] + 1) * d] for a in grade])
        bound = np.stack([scale[pos[a] * d:(pos[a] + 1) * d] for a in grade])
        diff = np.stack([got.blocks[_position(caps, a)] for a in grade]) - want
        assert np.abs(diff).max() <= 1e-13 * bound.max(), (g, case)


def is_hermitian(blocks):
    return np.array_equal(blocks, np.conj(blocks.transpose(0, 2, 1)))


@pytest.fixture
def squarings(monkeypatch):
    """The `hermitian` flag of every block product jet_matrix_exp makes."""
    flags, real = [], jets._block_products

    def spy(table, a, b, out, hermitian=False):
        flags.append(hermitian)
        real(table, a, b, out, hermitian)
    monkeypatch.setattr(jets, "_block_products", spy)
    return flags


@pytest.mark.parametrize("caps", [(1, 1, 1), (2, 1)])
@pytest.mark.parametrize("const_norm, coupling_norm", [(0.1, 0.05), (6.0, 2.0)])
def test_exp_of_a_hermitian_generator_has_exactly_hermitian_blocks(
        squarings, caps, const_norm, coupling_norm):
    # with no squaring (ring norm <= 0.5) and with several
    rng = np.random.default_rng(31)
    d, n = 4, len(caps)
    terms = {EMPTY: -hermitian(rng, d, const_norm)}
    for a in multiset_lattice(n, caps):
        if a.size == 1:
            terms[a] = -hermitian(rng, d, coupling_norm)
    got = jet_matrix_exp(JetMatrix.from_terms(terms, d, n, caps))
    assert is_hermitian(got.blocks)
    assert any(squarings)
    assert_matches_oracle(got, terms, caps, d, (caps, const_norm))


def test_one_non_hermitian_coupling_block_takes_the_general_path(squarings):
    rng = np.random.default_rng(32)
    d, caps = 3, (1, 1)
    terms = {EMPTY: -hermitian(rng, d, 2.0), M([1]): -hermitian(rng, d, 1.0),
             M([2]): random_complex_matrix(rng, d, 0.3)}
    got = jet_matrix_exp(JetMatrix.from_terms(terms, d, 2, caps))
    assert squarings and not any(squarings)
    assert_matches_oracle(got, terms, caps, d, "non-Hermitian coupling")


@pytest.mark.parametrize("caps", [(1, 1, 1), (2, 1)])
def test_hermitian_square_matches_the_full_pair_loop(caps):
    rng = np.random.default_rng(33)
    d, n = 5, len(caps)
    terms = {a: hermitian(rng, d, 1.0) for a in multiset_lattice(n, caps)}
    m = JetMatrix.from_terms(terms, d, n, caps)
    want = (m @ m).blocks
    got = np.zeros_like(want)
    _block_products(_pair_table(caps), m.blocks, m.blocks, got, hermitian=True)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert is_hermitian(got)


# ---------------------------------------------------------------------------
# the spectral route of the jet exponential


def spectral_exp(m):
    """jet_matrix_exp's spectral route, called directly at any block size."""
    w, u = np.linalg.eigh(m.constant)
    return jets._spectral_exp(m, _pair_table(m.caps), w, u, jets._clusters(w),
                              is_hermitian(m.blocks))


def unitary(rng, d):
    return np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))[0]


def spectral_terms(rng, caps, d, constant, couplings="hermitian"):
    """-constant plus coupling blocks on every monomial of grade 1 and, with
    caps (2, 1), the grade-2 monomial gamma_1^2."""
    terms = {EMPTY: -constant}
    for a in multiset_lattice(len(caps), caps):
        if a.size == 1 or a == M([1, 1]):
            if couplings == "hermitian":
                terms[a] = -hermitian(rng, d, 1.5 / a.size)
            else:
                terms[a] = random_complex_matrix(rng, d, 0.4)
    return terms


def clustered(rng, d, system):
    """A (x) 1 for a random Hermitian A on `system` dimensions: `system`
    eigenvalues, each d / system times."""
    return np.kron(hermitian(rng, system, 3.0), np.eye(d // system))


def near_degenerate(rng, d, gap):
    """Eigenvalue pairs `gap` apart, in a random basis (exactly Hermitian)."""
    w = np.repeat(rng.uniform(-2, 2, d // 2), 2) + np.tile([0.0, gap], d // 2)
    u = unitary(rng, d)
    h = (u * w) @ u.conj().T
    return (h + h.conj().T) / 2


SPECTRAL_CASES = {
    "A (x) 1_3, caps (1, 1)": ((1, 1), 6, lambda rng: clustered(rng, 6, 2)),
    "A (x) 1_2, A 3 x 3, caps (1, 1)":
        ((1, 1), 6, lambda rng: clustered(rng, 6, 3)),
    "A (x) 1_3, caps (1, 1), non-Hermitian couplings":
        ((1, 1), 6, lambda rng: clustered(rng, 6, 2), "complex"),
    "A (x) 1_2, caps (2, 1), grade-2 block":
        ((2, 1), 4, lambda rng: clustered(rng, 4, 2)),
    "A (x) 1_3, caps (1, 1, 1)":
        ((1, 1, 1), 3, lambda rng: clustered(rng, 3, 1)),
    "random Hermitian, caps (1, 1, 1)":
        ((1, 1, 1), 3, lambda rng: hermitian(rng, 3, 4.0)),
    "random Hermitian, caps (2, 1)":
        ((2, 1), 4, lambda rng: hermitian(rng, 4, 4.0)),
    "zero constant, caps (1, 1, 1)": ((1, 1, 1), 3, lambda rng: np.zeros((3, 3))),
    **{f"gaps {gap:g}, caps (1, 1)":
       ((1, 1), 4, lambda rng, gap=gap: near_degenerate(rng, 4, gap))
       for gap in (1e-15, 1e-13, 1e-11, 1e-9, 1e-7, 1e-4)},
}


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_route_matches_regular_representation_oracle(case):
    caps, d, constant, *couplings = SPECTRAL_CASES[case]
    rng = np.random.default_rng(41)
    terms = spectral_terms(rng, caps, d, constant(rng), *couplings)
    m = JetMatrix.from_terms(terms, d, len(caps), caps)
    got = spectral_exp(m)
    assert_matches_oracle(got, terms, caps, d, case)
    if is_hermitian(m.blocks):
        assert is_hermitian(got.blocks)


@pytest.mark.parametrize("count, top", [(1, 3), (2, 1), (2, 4), (3, 3)])
def test_opitz_matrix_matches_the_per_mid_loop(monkeypatch, count, top):
    # the block-diagonal J of all mids, set with one assignment per pattern,
    # equals the one built block by block, point by point and edge by edge
    lam = np.sort(np.random.default_rng(45).normal(size=count) * 3)
    mids = [mid for g in range(top) for mid in
            itertools.combinations_with_replacement(range(count), g)]
    seen, real = [], jets._taylor_exp

    def spy(m, *args):
        seen.append(m.blocks[0])
        return real(m, *args)

    monkeypatch.setattr(jets, "_taylor_exp", spy)
    jets._exp_divided_differences(lam, mids)
    mu = (lam.max() + lam.min()) / 2
    blocks = []
    for mid in mids:
        size = 2 * count + len(mid)
        block = np.zeros((size, size), dtype=complex)
        points = list(lam) + [lam[c] for c in mid] + list(lam)
        for i, x in enumerate(points):
            block[i, i] = x - mu
        heads = range(count)
        for nxt in [[count + i] for i in range(len(mid))] + [
                range(count + len(mid), size)]:
            for i, j in itertools.product(heads, nxt):
                block[i, j] = 1.0
            heads = nxt
        blocks.append(block)
    want = np.zeros((sum(map(len, blocks)),) * 2, dtype=complex)
    at = 0
    for block in blocks:
        want[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    assert np.array_equal(seen[0], want)


def test_clusters_split_at_eighs_backward_error():
    # gaps below 8 d eps max(1, |w|) join a cluster, wider ones split it
    tol = 8 * 4 * np.finfo(float).eps * 3.0
    w = np.array([-3.0, -3.0 + 0.5 * tol, 1.0, 1.0 + 2 * tol])
    assert jets._clusters(w).tolist() == [0, 2, 3, 4]
    assert jets._clusters(np.zeros(5)).tolist() == [0, 5]


def test_fewest_clusters_bounds_the_clusters_from_below():
    # the bound that lets routing skip eigh never exceeds the clusters eigh
    # and _clusters find, and sees the two energies of A (x) 1
    rng = np.random.default_rng(46)
    cases = [np.zeros((4, 4)), 3.7 * np.eye(5), clustered(rng, 8, 2),
             clustered(rng, 6, 3), hermitian(rng, 5, 2.0),
             *(near_degenerate(rng, 4, gap) for gap in (1e-15, 1e-12, 1e-9))]
    for const in cases:
        w = np.linalg.eigh(const)[0]
        assert jets._fewest_clusters(const) <= len(jets._clusters(w)) - 1
    assert jets._fewest_clusters(clustered(rng, 16, 2)) == 2
    near_scalar = np.eye(16) + 1e-16 * hermitian(rng, 16, 1.0)
    assert jets._fewest_clusters(near_scalar) == 1


def boltzmann(rng, d, caps, constant=None):
    """The thermal scenario's generator: -beta H_S (x) 1 on a d-dim joint
    space (a qubit system) and Hermitian couplings."""
    if constant is None:
        constant = clustered(rng, d, min(d, 2))
    return JetMatrix.from_terms(spectral_terms(rng, caps, d, constant), d,
                                len(caps), caps)


@pytest.fixture
def routes(monkeypatch):
    """The route of every exponential jet_matrix_exp takes, in call order
    (the spectral route's divided differences then add one Taylor call)."""
    taken = []
    for name in ("_taylor_exp", "_spectral_exp"):
        def spy(*args, _real=getattr(jets, name), _name=name):
            taken.append(_name)
            return _real(*args)
        monkeypatch.setattr(jets, name, spy)
    return taken


@pytest.mark.parametrize("d, caps, constant, route", [
    (128, (1, 1, 1), None, "_spectral_exp"),          # dense-hilbert's lhs
    (32, (1, 1, 1, 1), None, "_spectral_exp"),        # jet-ring's lhs
    (16, (1, 1, 1), None, "_taylor_exp"),             # thermal defaults
    (2, (1, 1, 1), None, "_taylor_exp"),              # a system side
    (128, (1, 1, 1), "anti-Hermitian", "_taylor_exp"),
    (128, (1, 1, 1), "non-Hermitian", "_taylor_exp"),
    (128, (1, 1, 1), "128 eigenvalues", "_taylor_exp"),
    (32, (1,), None, "_taylor_exp"),                  # one coupling
    (32, (1, 1, 1), "4 clusters", "_taylor_exp"),
    (8, (1, 1), None, "_taylor_exp"),                 # thermal, 2 pointers
    (2, (1,), None, "_taylor_exp"),                   # the other system
    (2, (1, 1), None, "_taylor_exp"),                 # sides of up to four
    (2, (1, 1, 1, 1), None, "_taylor_exp"),           # pointers
])
def test_route_choice(routes, d, caps, constant, route):
    rng = np.random.default_rng(42)
    made = {None: None,
            "anti-Hermitian": 1j * clustered(rng, d, 2),
            "non-Hermitian": clustered(rng, d, 2) + 0.1 * np.triu(np.ones((d, d)), 1),
            "128 eigenvalues": hermitian(rng, d, 3.0),
            "4 clusters": clustered(rng, d, 4)}[constant]
    jet_matrix_exp(boltzmann(rng, d, caps, made))
    assert routes[0] == route


def thermal_generator(n, sys_dim, pointer_dim, seed):
    """The generator of `verify thermal`'s Boltzmann jet on the joint space
    of n pointers of dimension pointer_dim, or with pointer_dim None that of
    its system-side partition jet."""
    cfg = random_config("thermal", seed, n_pointers=n, system_dim=sys_dim,
                        pointer_dim=pointer_dim or 2)
    if pointer_dim is None:
        ctx = WeakValueContext.thermal(cfg.hamiltonian, cfg.beta,
                                       cfg.observables)
        return _system_generator(ctx, (1,) * n, -ctx.beta, -1)
    return coupled_generator(cfg.hamiltonian, cfg.observables, cfg.pointers,
                             -cfg.beta, -1)


# (pointers, system dim, pointer dim) -> the route measured faster on the
# thermal generators of `verify thermal`, seeds 1-5, where the two differ by
# more than 10% (docstring of jet_matrix_exp, step 7); pointer dim None is
# the system-side partition jet
MEASURED_ROUTES = {
    (1, 2, 16): "_taylor_exp",     # 1.45
    (2, 2, 2): "_taylor_exp",      # 1.65, seed-sweep
    (3, 2, 2): "_taylor_exp",      # 1.07-1.24, thermal defaults
    (3, 4, 2): "_taylor_exp",      # 3.5-3.9
    (4, 2, 2): "_spectral_exp",    # 0.55-0.59, jet-ring
    (2, 4, 4): "_spectral_exp",    # 0.62-0.65
    (5, 2, 2): "_spectral_exp",    # 0.27
    (4, 4, 2): "_taylor_exp",      # 2.7-3.2
    (3, 2, 4): "_spectral_exp",    # 0.27, dense-hilbert
    **{(n, 2, None): "_taylor_exp" for n in (1, 2, 3, 4)},   # 1.1-2.1
}


@pytest.mark.parametrize("shape", MEASURED_ROUTES,
                         ids=lambda shape: "n{}-s{}-p{}".format(*shape))
def test_route_model_takes_the_measured_faster_route(routes, shape):
    for seed in range(1, 6):
        routes.clear()
        jet_matrix_exp(thermal_generator(*shape, seed))
        assert routes[0] == MEASURED_ROUTES[shape], seed


@pytest.mark.parametrize("n, pointer_dim", [(3, 2), (2, 2), (3, None),
                                            (4, None)])
def test_small_thermal_blocks_take_the_taylor_route_without_eigh(
        monkeypatch, n, pointer_dim):
    # the thermal defaults' 16-dim lhs, the 8-dim lhs of two pointers and
    # the 2-dim system sides lose on the spectral route's set-up alone or
    # with the two clusters their constant block must have, so routing
    # spends no eigendecomposition on them
    def no_eigh(*args):
        raise AssertionError("eigh taken for a block the model rejects")

    m = thermal_generator(n, 2, pointer_dim, 1)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    jet_matrix_exp(m)


@pytest.mark.parametrize("shift, route", [(0.1, "_taylor_exp"),
                                          (0.0, "_spectral_exp")])
def test_exponential_refuses_a_result_beyond_double_range(routes, shift,
                                                          route):
    # e^800 overflows: on either route a domain error that names it, not an
    # inf in the result, nor a FloatingPointError where numpy raises (a
    # constant block that is not Hermitian takes the Taylor route)
    rng = np.random.default_rng(44)
    d = 32
    energies = np.kron(np.diag([-800.0, 0.0]), np.eye(d // 2)) \
        + shift * np.triu(np.ones((d, d)), 1)
    m = boltzmann(rng, d, (1, 1, 1, 1), energies)
    for errors in ("ignore", "raise"):
        routes.clear()
        with np.errstate(all=errors, under="ignore"), \
                pytest.raises(DomainError, match="overflows"):
            jet_matrix_exp(m)
        assert routes[0] == route
    jet_matrix_exp(boltzmann(rng, d, (1, 1, 1, 1), energies / 4))   # e^200


def test_spectral_route_preflight_refuses_its_states():
    # 16 zero blocks of 512 x 512 (64 MiB, pages never touched), two
    # clusters, caps (1, 1, 1, 1): N, the sum and the result (48 blocks) and
    # the states of one and two middle clusters (2 x 11 and 3 x 5 blocks of
    # grades above 1 and 2) come to 85 blocks, 340 MiB, refused before any
    # is allocated
    caps = (1, 1, 1, 1)
    m = JetMatrix(4, caps, np.zeros((16, 512, 512), dtype=complex))
    with pytest.raises(DomainError, match="85 jet-matrix blocks of dimension 512 "
                       "held by the spectral exponential need about 340 MiB"):
        jets._spectral_exp(m, _pair_table(caps), np.zeros(512), np.eye(512),
                           np.array([0, 256, 512]), True)


def test_jet_matrix_preflight_refuses_huge_block_stacks():
    # 2^8 monomials of 512 x 512 complex blocks: 1 GiB, refused unallocated
    with pytest.raises(DomainError, match="1024 MiB"):
        JetMatrix.zeros(512, 8, (1,) * 8)
    with pytest.raises(DomainError, match="1024 MiB"):
        JetMatrix.from_terms({(): np.eye(512)}, 512, 8, (1,) * 8)


@pytest.mark.parametrize("caps", [(), (1,), (2,), (1, 1, 1), (2, 1, 3),
                                  (0, 2), (1,) * 5, (1, 2, 0, 1, 1)])
def test_pair_table_matches_multiset_loop(caps):
    # the lattice is multiset_lattice's, each monomial at its mixed-radix C
    # position (label 1 slowest); the table lists every pair of the double
    # loop over Multiset sums exactly once, each output's pairs in
    # increasing ia, the order in which products accumulate
    table = _pair_table(caps)
    lattice = jets._monomials(caps)
    assert set(lattice) == set(multiset_lattice(len(caps), caps))
    for i, a in enumerate(lattice):
        assert _position(caps, a) == i == sum(
            a.mult(j) * math.prod(c + 1 for c in caps[j:])
            for j in range(1, len(caps) + 1))
        assert table.grade[i] == a.size
        assert table.weight[i] == math.prod(math.factorial(m) for _, m in a.items)
    loop = {(i, j, lattice.index(a + b)) for i, a in enumerate(lattice)
            for j, b in enumerate(lattice) if (a + b).fits(caps)}
    got = list(zip(table.ia.tolist(), table.ib.tolist(), table.ic.tolist()))
    assert len(got) == len(set(got)) and set(got) == loop
    for c in range(len(lattice)):
        ia = table.ia[table.ic == c]
        assert np.all(np.diff(ia) > 0)


@pytest.mark.parametrize("caps", [(), (0,), (3,), (1, 0, 3), (3, 3),
                                  (2, 3, 0, 1), (0, 1, 2, 3), (1,) * 5])
def test_position_is_the_mixed_radix_index(caps):
    # every multiset within caps sits at np.ravel_multi_index of its
    # multiplicities over the shape (c_1 + 1, ..., c_n + 1), and
    # _monomials lists it there; a multiset over a cap is refused
    shape = tuple(c + 1 for c in caps)
    lattice = jets._monomials(caps)
    assert len(lattice) == math.prod(shape)
    for digits in itertools.product(*(range(s) for s in shape)):
        a = M([j for j, m in enumerate(digits, start=1) for _ in range(m)])
        at = int(np.ravel_multi_index(digits, shape))
        assert _position(caps, a) == at
        assert lattice[at] == a
    for j, c in enumerate(caps, start=1):
        with pytest.raises(CapExceededError):
            _position(caps, M([j] * (c + 1)))
    with pytest.raises(CapExceededError):
        _position(caps, M([len(caps) + 1]))


def test_pair_table_builds_no_multiset(monkeypatch):
    # a table is position arrays only: built cold with the name Multiset
    # gone from the module, it still matches its digit arithmetic
    monkeypatch.setattr(jets, "Multiset", None)
    _pair_table.cache_clear()
    table = _pair_table((1,) * 12)
    assert len(table.grade) == 2 ** 12 and len(table.ia) == 3 ** 12
    assert np.array_equal(table.ic, table.ia + table.ib)


def test_pair_table_preflight_refuses_huge_caps():
    with pytest.raises(DomainError, match="MiB"):
        Jet(20, (1,) * 20)
