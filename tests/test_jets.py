"""Jet arithmetic and the jet-valued matrix exponential against oracles."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    spectral_jet_matrix_exp,
)
from oracles import expm_mp, regular_representation

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


def explicit_matmul(x, y, caps, out=None):
    """Per-pair block products of two block stacks over every lattice pair,
    zero blocks included, at the storage positions of the lattice, added
    to a copy of `out` (to zeros if None)."""
    lattice = multiset_lattice(len(caps), caps)
    out = np.zeros((len(lattice), *np.matmul(x[0], y[0]).shape),
                   dtype=complex) if out is None else out.copy()
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


@property_settings
@given(caps=caps_strategy, d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_jet_matrix_product_matches_explicit_loop_with_zero_blocks(
        caps, d, seed, rows, cols):
    # d up to 9 puts square blocks on both sides of the batched path's work
    # bound, 8^3; zero blocks move the kept-triple count across its bound
    rng = np.random.default_rng(seed)
    x, y = (random_blocks(rng, (d, d), caps) for _ in range(2))
    out = np.zeros_like(x)
    _block_products(_pair_table(caps), x, y, out)
    assert np.array_equal(out, explicit_matmul(x, y, caps))
    # rectangular blocks, (lattice, rows, d) by (lattice, d, cols), as the
    # spectral exponential multiplies cluster sub-blocks
    a = random_blocks(rng, (rows, d), caps)
    b = random_blocks(rng, (d, cols), caps)
    out = np.zeros((len(a), rows, cols), dtype=complex)
    _block_products(_pair_table(caps), a, b, out)
    assert np.array_equal(out, explicit_matmul(a, b, caps))


# caps, the block shapes of a and b, the lattice positions of a and of b
# whose blocks are zero, and the path `_block_products` takes
BLOCK_PRODUCT_CASES = {
    "81 triples of 2 x 2": ((1, 1, 1, 1), (2, 2), (2, 2), (), (), "batched"),
    "at the work bound": ((2, 2), (8, 8), (8, 8), (), (), "batched"),
    "above the work bound": ((2, 2), (9, 8), (8, 8), (), (), "loop"),
    "6 triples": ((2,), (2, 2), (2, 2), (), (), "loop"),
    # at caps (1, 1), position 3 is gamma_1 gamma_2: one triple reads it
    "8 kept of 9 triples": ((1, 1), (2, 2), (2, 2), (3,), (), "batched"),
    "7 kept of 9 triples": ((1, 1), (2, 2), (2, 2), (3,), (3,), "loop"),
    # the spectral route's last level, (lattice, sys_dim, P, n_c) by
    # (lattice, sys_dim, n_c, P)
    "a batch axis": ((1, 1, 1), (2, 3, 2), (2, 2, 3), (), (), "batched"),
    "a batch axis above the work bound":
        ((1, 1, 1), (2, 8, 5), (2, 5, 8), (), (), "loop"),
}


@pytest.mark.parametrize("case", sorted(BLOCK_PRODUCT_CASES))
def test_block_products_paths_match_explicit_loop(monkeypatch, case):
    # a nonzero out accumulated over two calls, as the spectral route's
    # levels accumulate, on the path the shapes and kept triples pick
    caps, a_shape, b_shape, a_zero, b_zero, path = BLOCK_PRODUCT_CASES[case]
    batched = []
    real = jets._batched_products
    monkeypatch.setattr(jets, "_batched_products",
                        lambda *args: batched.append(1) or real(*args))
    rng = np.random.default_rng(61)
    table = _pair_table(caps)
    out = random_blocks(rng, np.matmul(np.ones(a_shape), np.ones(b_shape)
                                       ).shape, caps, zero_frac=0.0)
    want = out.copy()
    for _ in range(2):
        a = random_blocks(rng, a_shape, caps, zero_frac=0.0)
        b = random_blocks(rng, b_shape, caps, zero_frac=0.0)
        a[list(a_zero)] = 0.0
        b[list(b_zero)] = 0.0
        _block_products(table, a, b, out)
        want = explicit_matmul(a, b, caps, want)
    assert np.array_equal(out, want)
    assert len(batched) == (2 if path == "batched" else 0)


@pytest.mark.parametrize("triples", [1, 5])
def test_batched_block_products_match_explicit_loop_across_chunks(
        monkeypatch, triples):
    # a budget of one or five triples per chunk splits the 81 triples of
    # 2 x 2 blocks into chunks, the last one short
    per_triple = 16 * (4 + 4 + 4) + 8 * 4
    monkeypatch.setattr(jets, "_BATCH_BYTES", triples * per_triple + 1)
    rng = np.random.default_rng(62)
    caps = (1, 1, 1, 1)
    a, b, out = (random_blocks(rng, (2, 2), caps, zero_frac=0.0)
                 for _ in range(3))
    want = explicit_matmul(a, b, caps, out)
    _block_products(_pair_table(caps), a, b, out)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("limit", [2 ** 15, 0], ids=["kept", "afresh"])
@pytest.mark.parametrize("block, path", [(2, "batched"), (9, "loop")])
def test_block_products_keep_the_triples_of_each_zero_pattern(
        monkeypatch, block, path, limit):
    # one shape, a zero-block pattern that changes from call to call: a
    # block zero in one call and nonzero in the next gets the triples of
    # its own pattern, and a pattern seen before its kept triples again;
    # every call matches the explicit loop, and the kept arrays are
    # read-only.  Under a limit of 0 indices nothing is kept, and every
    # call selects its triples afresh, chunk by chunk
    monkeypatch.setattr(jets, "_KEPT_INDICES", limit)
    rng = np.random.default_rng(63)
    caps = (1, 1, 1, 1)
    table = _pair_table(caps)
    jets._kept_triples.cache_clear()
    patterns = [((), ()), ((3,), ()), ((), ()), ((3,), (5, 9)),
                ((), (5, 9)), ((3,), ())]
    for a_zero, b_zero in patterns:
        a, b, out = (random_blocks(rng, (block, block), caps, zero_frac=0.0)
                     for _ in range(3))
        a[list(a_zero)] = 0.0
        b[list(b_zero)] = 0.0
        want = explicit_matmul(a, b, caps, out)
        _block_products(table, a, b, out)
        assert np.array_equal(out, want), (a_zero, b_zero)
    info = jets._kept_triples.cache_info()
    assert (info.currsize, info.hits) == (4, 2)
    full = np.ones(16, dtype=bool).tobytes()
    kept = jets._kept_triples(caps, full, full, block * block,
                              4 if path == "batched" else 0)
    jets._kept_triples.cache_clear()
    if not limit:
        assert kept is None
        return
    chunks, *arrays = kept
    assert (chunks is not None) == (path == "batched")
    held = [*arrays, *(x for chunk in chunks or () for x in chunk)]
    assert held and not any(arr.flags.writeable for arr in held)


# ---------------------------------------------------------------------------
# jet exponential against the regular representation of the jet ring


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
@example(case=((2, 1), 2, "thermal", 0.3, 60.0, True, 11))
@example(case=((1, 1, 1), 1, "evolution", 0.3, 60.0, True, 12))
def test_jet_matrix_exp_matches_regular_representation_oracle(case):
    # exp of the regular representation, taken by mpmath at 30 digits; its
    # block column at the constant monomial holds the jet exponential.  The
    # two fixed cases put couplings of 1-norm 60 on a constant block of 0.3,
    # below theta: no squaring, however large the couplings
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


def traced(blocks, sys_dim):
    """A (k, d, d) stack traced over its first tensor factor, of dimension
    sys_dim: the (k, d / sys_dim, d / sys_dim) stack of partial traces."""
    k, d = len(blocks), blocks.shape[-1]
    part = d // sys_dim
    return np.trace(blocks.reshape(k, sys_dim, part, sys_dim, part),
                    axis1=1, axis2=3)


def assert_matches_oracle(got, terms, caps, d, case):
    """Each grade of `got` within 1e-13 of the 30-digit oracle, in units of
    the terms that make up that grade: the same grade of the exponential of
    the entrywise-absolute generator, which bounds every term of the series
    (the [t^g] e^P of the jet_matrix_exp docstring).  A grade whose terms
    cancel is then not held to a precision its terms never had.  `got` is
    one jet matrix, or {d_s: jet matrix} of results traced over a first
    tensor factor of dimension d_s, each checked against the oracle traced
    alike (its bound too, a sum of as many bounded entries)."""
    counts = {a: tuple(a.mult(j) for j in range(1, len(caps) + 1))
              for a in terms}
    rep, pos = regular_representation(
        {counts[a]: t for a, t in terms.items()}, caps, d)
    size, _ = regular_representation(
        {counts[a]: np.abs(t) for a, t in terms.items()}, caps, d)
    unit = pos[(0,) * len(caps)] * d
    column = expm_mp(rep)[:, unit:unit + d]
    scale = expm_mp(size)[:, unit:unit + d].real
    results = got if isinstance(got, dict) else {1: got}
    for sys_dim, result in results.items():
        for g in {sum(a) for a in pos}:
            grade = [a for a in pos if sum(a) == g]
            want, bound = (traced(np.stack(
                [x[pos[a] * d:(pos[a] + 1) * d] for a in grade]), sys_dim)
                for x in (column, scale))
            diff = np.stack([result.blocks[_position(caps, M.from_counts(
                dict(enumerate(a, start=1))))] for a in grade]) - want
            assert np.abs(diff).max() <= 1e-13 * bound.max(), (g, sys_dim,
                                                                case)


@pytest.mark.parametrize("caps", [(1, 1, 1), (2, 1)])
@pytest.mark.parametrize("const_norm, coupling_norm", [(0.1, 0.05), (6.0, 2.0)])
def test_exp_of_a_hermitian_generator_has_exactly_hermitian_blocks(
        caps, const_norm, coupling_norm):
    # a Hermitian generator, with no squaring (ring norm <= 0.5) and with
    # several, against the oracle: its blocks are Hermitian to rounding
    rng = np.random.default_rng(31)
    d, n = 4, len(caps)
    terms = {EMPTY: -hermitian(rng, d, const_norm)}
    for a in multiset_lattice(n, caps):
        if a.size == 1:
            terms[a] = -hermitian(rng, d, coupling_norm)
    got = jet_matrix_exp(JetMatrix.from_terms(terms, d, n, caps))
    assert_matches_oracle(got, terms, caps, d, (caps, const_norm))


def test_one_non_hermitian_coupling_block_takes_the_general_path():
    # Hermitian blocks but one, against the oracle: every generator's
    # products run through `_block_products`, whatever its symmetry
    rng = np.random.default_rng(32)
    d, caps = 3, (1, 1)
    terms = {EMPTY: -hermitian(rng, d, 2.0), M([1]): -hermitian(rng, d, 1.0),
             M([2]): random_complex_matrix(rng, d, 0.3)}
    got = jet_matrix_exp(JetMatrix.from_terms(terms, d, 2, caps))
    assert_matches_oracle(got, terms, caps, d, "non-Hermitian coupling")


def test_jet_matrix_exp_commutes_exactly_with_power_of_two_coupling_scaling():
    # gamma -> 2^j gamma multiplies each grade-g block by 2^(j g), exactly in
    # floating point; the squaring count reads the constant block alone, so
    # the exponential of the scaled generator is the scaled exponential, bit
    # for bit, over constant blocks of 1-norm 0..4 and coupling blocks of
    # standard normal entries scaled by 1e-2..60
    rng = np.random.default_rng(71)
    for _ in range(60):
        caps = tuple(int(c) for c in rng.integers(0, 3, rng.integers(1, 4)))
        d = int(rng.integers(1, 5))
        blocks = random_blocks(rng, (d, d), caps, zero_frac=0.2)
        blocks[0] = random_complex_matrix(rng, d)
        blocks[0] *= rng.uniform(0, 4) / np.linalg.norm(blocks[0], 1)
        blocks[1:] *= 10 ** rng.uniform(-2, 1.8)
        grade = _pair_table(caps).grade[:, None, None]
        got = jet_matrix_exp(JetMatrix(len(caps), caps, blocks)).blocks
        for j in (-2, 1, 3):
            scaled = jet_matrix_exp(JetMatrix(len(caps), caps,
                                              blocks * 2.0 ** (j * grade)))
            assert np.array_equal(scaled.blocks, got * 2.0 ** (j * grade)), \
                (caps, d, j)


# ---------------------------------------------------------------------------
# the spectral route of the jet exponential


def spectral_terms(rng, caps, d, constant, couplings="hermitian"):
    """The constant block `constant` plus coupling blocks on every monomial
    of grade 1: a generator linear in gamma."""
    terms = {EMPTY: constant}
    for a in multiset_lattice(len(caps), caps):
        if a.size == 1:
            if couplings == "hermitian":
                terms[a] = -hermitian(rng, d, 1.5)
            else:
                terms[a] = random_complex_matrix(rng, d, 0.4)
    return terms


def ascending(w):
    """diag(w) with w sorted: a constant block in its own eigenbasis."""
    return np.diag(np.sort(w))


def coupling_blocks(m):
    """The grade-1 blocks of a multilinear jet matrix, label 1 first."""
    return m.blocks[[_position(m.caps, [j]) for j in range(1, m.n + 1)]]


def spectral_exp(m, sys_dim):
    """The spectral entry on a multilinear jet matrix linear in gamma whose
    constant block is diag(w): its points w and its couplings."""
    return spectral_jet_matrix_exp(np.diagonal(m.constant).real,
                                   coupling_blocks(m), sys_dim)


def clustered(rng, d, system):
    """The spectrum of A (x) 1 for a random Hermitian A on `system`
    dimensions: `system` eigenvalues, each d / system times."""
    return ascending(np.repeat(np.linalg.eigvalsh(hermitian(rng, system, 3.0)),
                               d // system))


def spectrum(rng, d):
    """The spectrum of a random Hermitian d x d matrix."""
    return ascending(np.linalg.eigvalsh(hermitian(rng, d, 4.0)))


def near_degenerate(rng, d, gap):
    """Eigenvalue pairs `gap` apart."""
    return ascending(np.repeat(rng.uniform(-2, 2, d // 2), 2)
                     + np.tile([0.0, gap], d // 2))


def points(rng, sizes):
    """diag(w) for clusters of `sizes` equal points at ascending random
    values, which may cut the system blocks of a trace."""
    return ascending(np.repeat(np.sort(rng.uniform(-3, 3, len(sizes))),
                               sizes))


SPECTRAL_CASES = {
    "A (x) 1_3, caps (1, 1)": ((1, 1), 6, lambda rng: clustered(rng, 6, 2)),
    "A (x) 1_2, A 3 x 3, caps (1, 1)":
        ((1, 1), 6, lambda rng: clustered(rng, 6, 3)),
    "A (x) 1_3, caps (1, 1), non-Hermitian couplings":
        ((1, 1), 6, lambda rng: clustered(rng, 6, 2), "complex"),
    "A (x) 1_3, caps (1, 1, 1)":
        ((1, 1, 1), 3, lambda rng: clustered(rng, 3, 1)),
    "random Hermitian, caps (1, 1, 1)":
        ((1, 1, 1), 3, lambda rng: spectrum(rng, 3)),
    "zero constant, caps (1, 1, 1)": ((1, 1, 1), 3, lambda rng: np.zeros((3, 3))),
    **{f"gaps {gap:g}, caps (1, 1)":
       ((1, 1), 4, lambda rng, gap=gap: near_degenerate(rng, 4, gap))
       for gap in (1e-15, 1e-13, 1e-11, 1e-9, 1e-7, 1e-4)},
    # the last level, folded into its weights, at n = 1..4, d kept small by
    # the oracle's cost (2^n d rows): clusters (1, 4, 1) cut the blocks of
    # a trace over 2 at another offset in each block, and those over 3 in
    # the first and the last; (1, 3) cut the first block over 2 only; one
    # merged cluster, and one cluster per point
    **{f"clusters 1-4-1, caps {(1,) * n}":
       ((1,) * n, 6, lambda rng: points(rng, (1, 4, 1)), "complex")
       for n in (1, 2)},
    "clusters 1-3, caps (1, 1, 1)":
        ((1, 1, 1), 4, lambda rng: points(rng, (1, 3)), "complex"),
    **{f"{name}, caps {(1,) * n}":
       ((1,) * n, d, lambda rng, sizes=sizes: points(rng, sizes), "complex")
       for n, d in ((1, 6), (2, 6), (3, 4), (4, 2))
       for name, sizes in (("merged", (d,)), ("distinct", (1,) * d))},
}


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_route_matches_regular_representation_oracle(case):
    # traced over a first factor of every dimension d_s that divides d:
    # d_s = 1 traces nothing; a d_s whose blocks each lie in one cluster
    # (A (x) 1_3 traced over A's 2 dimensions, the thermal layout), and a
    # d_s whose blocks straddle clusters (a random spectrum, or A (x) 1_3
    # traced over 3 dimensions), where the weight of a block is a matrix.
    # At caps (1, 1, 1) grades 2 and 3 come from products of the couplings;
    # at every n >= 2 the top grade comes from the fold of the last level
    caps, d, constant, *couplings = SPECTRAL_CASES[case]
    rng = np.random.default_rng(41)
    terms = spectral_terms(rng, caps, d, constant(rng), *couplings)
    m = JetMatrix.from_terms(terms, d, len(caps), caps)
    got = {sys_dim: spectral_exp(m, sys_dim)
           for sys_dim in range(1, d + 1) if d % sys_dim == 0}
    assert got[d].blocks.shape[1:] == (1, 1)
    assert_matches_oracle(got, terms, caps, d, case)


@pytest.mark.parametrize("sizes, sys_dim", [((1, 4, 1), 2), ((1, 4, 1), 3),
                                            ((2, 1, 3), 2), ((6,), 3)])
def test_spectral_fold_at_four_couplings_matches_the_taylor_route(sizes,
                                                                  sys_dim):
    # at n = 4 the fold reads states of two middle clusters; where the
    # clusters cut the system blocks (or merge them) its traced top grade,
    # and every other grade, agree with the Taylor route's, traced, within
    # 1e-13 of the grade's largest entry
    rng = np.random.default_rng(60)
    caps = (1,) * 4
    const = points(rng, sizes)
    d = len(const)
    m = JetMatrix.from_terms(spectral_terms(rng, caps, d, const, "complex"),
                             d, 4, caps)
    got, want = spectral_exp(m, sys_dim).blocks, traced(
        jet_matrix_exp(m).blocks, sys_dim)
    for grade in range(5):
        at = [k for k, a in enumerate(m.lattice) if a.size == grade]
        scale = np.abs(want[at]).max()
        assert np.abs(got[at] - want[at]).max() <= 1e-13 * scale, grade


def opitz_blocks(lam, mids):
    """The block-bidiagonal J of each mid, built point by point and edge by
    edge, shifted by the mid-range of lam."""
    count, mu = len(lam), (lam.max() + lam.min()) / 2
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
    return blocks


def all_mids(count, top):
    return [mid for g in range(top) for mid in
            itertools.combinations_with_replacement(range(count), g)]


def divided_differences(lam, top):
    """The route's tables for every mid of all_mids(len(lam), top), in that
    order: those of top couplings over one-point clusters, untraced."""
    return jets._exp_divided_differences(
        lam, jets._spectral_plan(top, (1,) * len(lam), 1))


@pytest.mark.parametrize("count, top", [(1, 3), (2, 1), (2, 4), (3, 3)])
def test_opitz_matrix_matches_the_per_mid_loop(monkeypatch, count, top):
    # the one stack, set with one assignment per pattern and exponentiated
    # by one Taylor call, holds the J of each mid, built block by block,
    # point by point and edge by edge, in the order of the mids, zero-padded
    # to the largest size
    lam = np.sort(np.random.default_rng(45).normal(size=count) * 3)
    mids = all_mids(count, top)
    seen, real = [], jets._taylor_exp

    def spy(blocks, *args):
        seen.append(blocks[0])
        return real(blocks, *args)

    monkeypatch.setattr(jets, "_taylor_exp", spy)
    divided_differences(lam, top)
    blocks = opitz_blocks(lam, mids)
    assert len(seen) == 1
    stack = seen[0]
    assert stack.shape == (len(mids), *blocks[-1].shape)
    for padded, block in zip(stack, blocks):
        size = len(block)
        assert np.array_equal(padded[:size, :size], block)
        assert not padded[size:].any() and not padded[:, size:].any()


@pytest.mark.parametrize("count, top", [(1, 3), (2, 4), (3, 3), (4, 5)])
def test_batched_divided_differences_match_the_block_diagonal_exponential(
        count, top):
    # one Taylor exponential of the block-diagonal matrix of every J
    # gives the same tables, to 1e-14 of the largest entry of each
    lam = np.sort(np.random.default_rng(47).normal(size=count) * 3)
    mids = all_mids(count, top)
    blocks = opitz_blocks(lam, mids)
    total = sum(map(len, blocks))
    dense = np.zeros((total, total), dtype=complex)
    at = 0
    for block in blocks:
        dense[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    exp_dense = jet_matrix_exp(JetMatrix(0, (), dense[None])).constant.real \
        * np.exp((lam.max() + lam.min()) / 2)
    got = divided_differences(lam, top)
    at = 0
    for k, block in enumerate(blocks):
        size = len(block)
        want = exp_dense[at:at + count, at + size - count:at + size]
        at += size
        assert np.abs(got[k] - want).max() <= 1e-14 * np.abs(want).max()


def test_divided_differences_at_five_clusters_and_top_grade_six():
    # 252 mids: one block-diagonal J would be 3570 x 3570 and above the
    # dense size limit, while the largest stack is 126 J of 15 x 15.  A
    # table entry is the corner of the Opitz matrix of its sequence, taken
    # at 30 digits; every fourth mid is checked, at one pair (a, b) each
    lam = np.array([-4.0, -1.5, 0.0, 0.7, 2.5])
    mids = all_mids(5, 6)
    got = divided_differences(lam, 6)
    assert len(got) == 252
    for k, mid in enumerate(mids[::4]):
        a, b = k % 5, (3 * k + 1) % 5
        points = [lam[a], *lam[list(mid)], lam[b]]
        opitz = np.diag(points) + np.diag(np.ones(len(points) - 1), 1)
        want = expm_mp(opitz)[0, -1].real
        assert abs(got[4 * k][a, b] - want) <= 1e-13 * abs(want), mid


def test_clusters_are_runs_of_equal_points():
    # equal points form one cluster, and points one ulp apart two
    w = np.array([-3.0, -3.0, np.nextafter(-3.0, 0), 1.0, 1.0, 1.0,
                  np.nextafter(1.0, 2)])
    assert jets._clusters(w).tolist() == [0, 2, 3, 6, 7]
    assert jets._clusters(np.zeros(5)).tolist() == [0, 5]


def boltzmann(rng, d, caps, constant):
    """The thermal scenario's generator in the eigenbasis of H_S: the
    constant block -beta H_S (x) 1 and Hermitian couplings."""
    return JetMatrix.from_terms(spectral_terms(rng, caps, d, constant), d,
                                len(caps), caps)


@pytest.fixture
def routes(monkeypatch):
    """The route of every jet exponential taken, in call order (the spectral
    route's divided differences then add one Taylor call per size of their
    Opitz matrices)."""
    taken = []
    for name in ("_taylor_exp", "_spectral_exp"):
        def spy(*args, _real=getattr(jets, name), _name=name):
            taken.append(_name)
            return _real(*args)
        monkeypatch.setattr(jets, name, spy)
    return taken


@pytest.mark.parametrize("shift, route", [(0.1, "_taylor_exp"),
                                          (0.0, "_spectral_exp")])
def test_exponential_refuses_a_result_beyond_double_range(routes, shift,
                                                          route):
    # e^800 overflows: on either entry a domain error that names it, not an
    # inf in the result, nor a FloatingPointError where numpy raises (the
    # Taylor entry takes a constant block that is not diagonal)
    entry = {"_taylor_exp": jet_matrix_exp,
             "_spectral_exp": lambda m: spectral_exp(m, 2)}[route]
    rng = np.random.default_rng(44)
    d = 32
    constant = np.kron(np.diag([0.0, 800.0]), np.eye(d // 2)) \
        - shift * np.triu(np.ones((d, d)), 1)
    m = boltzmann(rng, d, (1, 1, 1, 1), constant)
    for errors in ("ignore", "raise"):
        routes.clear()
        with np.errstate(all=errors, under="ignore"), \
                pytest.raises(DomainError, match="overflows"):
            entry(m)
        assert routes[0] == route
    entry(boltzmann(rng, d, (1, 1, 1, 1), constant / 4))   # e^200


def test_spectral_entry_refuses_a_constant_block_that_is_not_real_diagonal_ascending(
        routes):
    # the entry expands about the diagonal whose points it is given, with no
    # eigh of its own and no fall back to the Taylor route: it refuses
    # complex points, points one 1e-300j off the real axis and points out
    # of order by one swap
    rng = np.random.default_rng(48)
    d = 8
    w = np.linalg.eigvalsh(hermitian(rng, d, 3.0))
    swapped = w.copy()
    swapped[[3, 4]] = w[[4, 3]]
    couplings = np.stack([hermitian(rng, d, 1.5) for _ in range(2)])
    for points in (1j * w, w + 1e-300j, swapped):
        with pytest.raises(DomainError, match="real, ascending points"):
            spectral_jet_matrix_exp(points, couplings, 1)
    assert routes == []


@pytest.mark.parametrize("sys_dim", [0, -2, 3, 16, 2.0, True])
def test_spectral_entry_refuses_a_system_dimension_that_does_not_divide(
        routes, sys_dim):
    # the trace runs over a first tensor factor of sys_dim dimensions, so
    # sys_dim must be a positive integer dividing the generator's dimension
    rng = np.random.default_rng(49)
    m = boltzmann(rng, 8, (1, 1), clustered(rng, 8, 2))
    with pytest.raises(DomainError, match="system dimension"):
        spectral_exp(m, sys_dim)
    assert routes == []


@pytest.mark.parametrize("w, couplings, match", [
    (np.zeros((8, 1)), np.zeros((2, 8, 8)), "D points and"),
    (np.zeros(8), np.zeros((2, 8, 7)), "D points and"),
    (np.zeros(8), np.zeros((8, 8)), "D points and"),
    (np.r_[np.nan, np.zeros(7)], np.zeros((2, 8, 8)), "finite"),
    (np.zeros(8), np.full((2, 8, 8), np.inf), "finite")],
    ids=["points-2d", "couplings-not-square", "couplings-2d", "points-nan",
         "couplings-inf"])
def test_spectral_entry_refuses_couplings_of_another_shape_or_not_finite(
        routes, w, couplings, match):
    # the generator is D points and n coupling blocks of D x D, all finite
    with pytest.raises(DomainError, match=match):
        spectral_jet_matrix_exp(w, couplings, 1)
    assert routes == []


def test_spectral_route_preflight_refuses_its_states():
    # 4 zero coupling blocks of 512 x 512 (16 MiB, pages never touched), a
    # generator over caps (1, 1, 1, 1), three clusters, traced over a
    # first factor of 1 and of 2 dimensions.  Untraced, in blocks of 512 x
    # 512: the sum (16), the states of one and two middle clusters (3 x 6
    # and 6 x 4 blocks of grades 2 and 3; the fold of grade 4, one block
    # of left factors and 6 x 512 weights, fits in the part of grade 2,
    # and its 4 products in level 1's), and the work (a product's block,
    # level 1's 4 diagonal blocks, the 3 weights, 6 sums and 6 gathered
    # result blocks of level 2, and one block for the 3 x 8192 entries of
    # np.einsum's buffers), 16 + 42 + 21 = 79 blocks, 316 MiB, are refused
    # before any is allocated.  Traced over 2, in blocks of 256 x 256, the
    # states hold 4 x 42 blocks, and the work 4 + 2 x 4, the 6 x 2
    # weights, 4 sums and 4 gathered result blocks of level 3 and one
    # block of buffers: 16 + 168 + 33 = 217 blocks, 217 MiB, are let
    # through
    couplings = np.zeros((4, 512, 512), dtype=complex)
    w = np.repeat([0.0, 1.0, 2.0], [128, 128, 256])
    with pytest.raises(DomainError, match="79 blocks of dimension 512 "
                       "held by the spectral exponential need about 316 MiB"):
        jets._spectral_exp(couplings, w, 1)
    assert jets._spectral_layout(4, 3, 2, 256)[2] == 217


def test_spectral_route_peak_stays_within_its_block_count():
    # the traced peak of the route, its result included, at three thermal
    # layouts: three clusters on a 3 x 32 joint space with caps (1, 1, 1),
    # two on 2 x 64 with caps (1, 1, 1, 1), where the states of grades 2
    # and 3 are the largest pair of levels, and dense-hilbert's two on
    # 2 x 64 with caps (1, 1, 1), where the fold of grade 3 sits beside
    # the states of grade 2
    for caps, sys_dim, part in (((1, 1, 1), 3, 32), ((1,) * 4, 2, 64),
                                ((1, 1, 1), 2, 64)):
        rng = np.random.default_rng(53)
        d = sys_dim * part
        m = boltzmann(rng, d, caps, clustered(rng, d, sys_dim))
        w = np.diagonal(m.constant).real
        args = (coupling_blocks(m), w, sys_dim)
        jets._spectral_exp(*args)                  # caches warm
        jets._WORKSPACE.arrays.clear()             # the work arrays counted
        tracemalloc.start()
        try:
            jets._spectral_exp(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        *_, count = jets._spectral_layout(
            len(caps), len(jets._clusters(w)) - 1, sys_dim, part)
        assert peak <= count * 16 * part * part, (caps, peak, count)


def test_spectral_route_takes_one_workspace_array_of_its_layout(
        monkeypatch):
    # every work array of the route is a part of one workspace array, of
    # the size its layout gives, so the preflight counts what is held
    calls, workspace = [], jets._workspace

    def spy(role, shape, what):
        calls.append((role, shape))
        return workspace(role, shape, what)

    monkeypatch.setattr(jets, "_workspace", spy)
    for caps, sys_dim, part in (((1,), 1, 4), ((1, 1), 2, 3),
                                ((1, 1, 1), 3, 4), ((1,) * 4, 2, 8)):
        rng = np.random.default_rng(55)
        w, couplings, _ = spectral_args(rng, caps, sys_dim, part)
        calls.clear()
        jets._spectral_exp(couplings, w, sys_dim)
        _, parts, _ = jets._spectral_layout(
            len(caps), len(jets._clusters(w)) - 1, sys_dim, part)
        assert calls == [("spectral work", (sum(parts),))], caps


def test_workspace_holds_one_array_per_role_and_thread():
    # an array is handed out again while its shape repeats, and replaced,
    # not joined, at another shape; another thread has its own; one above
    # the size limit is refused before it is allocated
    first = jets._workspace("test", (3, 4), "rows")
    assert first.dtype == complex \
        and jets._workspace("test", (3, 4), "rows") is first
    second = jets._workspace("test", (5,), "rows")
    assert second.shape == (5,) and jets._WORKSPACE.arrays["test"] is second
    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(jets._workspace("test", (5,), "rows")))
    thread.start()
    thread.join()
    assert seen[0] is not second and jets._WORKSPACE.arrays["test"] is second
    with pytest.raises(DomainError, match="1024 rows need about 4096 MiB"):
        jets._workspace("test", (1024, 512, 512), "rows")
    assert "test" not in jets._WORKSPACE.arrays


def spectral_args(rng, caps, sys_dim, part):
    """Points, couplings and sys_dim of a thermal-layout generator."""
    d = sys_dim * part
    m = boltzmann(rng, d, caps, clustered(rng, d, sys_dim))
    return np.diagonal(m.constant).real, coupling_blocks(m), sys_dim


def test_spectral_plan_prices_its_opitz_stack_before_building_it():
    # 48 distinct points at sys_dim 1 and n = 3 make 1225 Opitz matrices of
    # dimension 98, 180 MiB, and with the fewest powers its Taylor batch
    # holds three more: refused before the plan allocates any of it, and
    # not cached, so the next call prices it again
    rng = np.random.default_rng(64)
    w = np.sort(rng.standard_normal(48))
    couplings = np.array([hermitian(rng, 48, 1.0) for _ in range(3)])
    before = jets._spectral_plan.cache_info().currsize
    tracemalloc.start()
    try:
        for _ in range(2):
            with pytest.raises(DomainError, match="4900 Opitz matrices of "
                               "dimension 98 .* need about 718.1 MiB"):
                spectral_jet_matrix_exp(w, couplings, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert jets._spectral_plan.cache_info().currsize == before


def test_spectral_plan_is_keyed_by_the_cluster_sizes():
    # one plan per (n, cluster sizes, sys_dim): shapes that share n, D and
    # sys_dim but not their clusters (two against one merged, as with
    # --hs zero; at sys_dim 1, (2, 4) against (4, 2)), run interleaved and
    # back to each earlier shape, each return what the same call returns
    # on a cleared plan cache, bit for bit; the plans' arrays are read-only
    rng = np.random.default_rng(57)
    cases = {"two": ((-1.0, 0.5), (3, 3), 2), "merged": ((0.0,), (6,), 2),
             "three": ((-1.0, 0.0, 1.0), (2, 2, 2), 3),
             "sys1-2-4": ((-0.3, 0.7), (2, 4), 1),
             "sys1-4-2": ((-0.3, 0.7), (4, 2), 1)}
    args = {name: (np.repeat(points, sizes),
                   np.array([-hermitian(rng, 6, 1.5) for _ in range(3)]),
                   sys_dim)
            for name, (points, sizes, sys_dim) in cases.items()}
    fresh = {}
    for name, a in args.items():
        jets._spectral_plan.cache_clear()
        fresh[name] = spectral_jet_matrix_exp(*a).blocks.tobytes()
    jets._spectral_plan.cache_clear()
    for name in ("two", "merged", "two", "three", "merged", "sys1-2-4",
                 "three", "sys1-4-2", "two", "sys1-2-4", "merged",
                 "sys1-4-2"):
        assert spectral_jet_matrix_exp(*args[name]).blocks.tobytes() \
            == fresh[name], name
    assert jets._spectral_plan.cache_info().currsize == len(cases)

    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (tuple, list)):
            for y in x:
                yield from arrays(y)

    for _, sizes, sys_dim in cases.values():
        held = list(arrays(jets._spectral_plan(3, sizes, sys_dim)))
        assert held and not any(arr.flags.writeable for arr in held)


def test_held_spectral_results_survive_a_later_call_at_their_shape():
    # the route's states and products live in the workspace, its result
    # does not: two results held across a third call at the same shape
    # keep the values their own calls returned
    rng = np.random.default_rng(54)
    args = [spectral_args(rng, (1, 1, 1), 2, 8) for _ in range(3)]
    serial = [spectral_jet_matrix_exp(*a).blocks.copy() for a in args[:2]]
    held = [spectral_jet_matrix_exp(*a) for a in args[:2]]
    spectral_jet_matrix_exp(*args[2])
    assert not np.shares_memory(held[0].blocks, held[1].blocks)
    for got, want in zip(held, serial):
        assert np.array_equal(got.blocks, want)


def test_spectral_route_in_threads_at_two_shapes_matches_serial_calls():
    # each thread holds its own work arrays: four threads, two at each of
    # two shapes, started together with a short switch interval and run
    # 10 times each, return what one call at a time returns, bit for bit
    rng = np.random.default_rng(55)
    args = [spectral_args(rng, (1, 1, 1), 2, 16),
            spectral_args(rng, (1,) * 4, 3, 4)]
    serial = [spectral_jet_matrix_exp(*a).blocks for a in args]
    start, got = threading.Barrier(4), [[] for _ in range(4)]

    def run(k):
        start.wait()
        for _ in range(10):
            got[k].append(spectral_jet_matrix_exp(*args[k % 2]).blocks)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, results in enumerate(got):
        assert len(results) == 10
        assert all(np.array_equal(blocks, serial[k % 2]) for blocks in results)


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
    # position (label 1 slowest), with its grade and, built from the caps
    # alone, its weight prod(mult!); the table lists every pair of the double
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
        assert jets._weights(caps)[i] == math.prod(
            math.factorial(m) for _, m in a.items)
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
    # a jet is sized from its caps: Jet(20) holds 16 MiB of coefficients and
    # is built, and its product prices the pair table (3^20 pairs) and is
    # refused; Jet(40) would hold 16 TiB and is refused before it allocates
    big = Jet(20, (1,) * 20)
    with pytest.raises(DomainError, match="MiB"):
        big * big
    with pytest.raises(DomainError, match="MiB"):
        Jet(40, (1,) * 40)


def test_lattice_storage_is_sized_from_the_caps():
    # 2^15 monomials, 512 KiB of coefficients: built without a pair table.
    # A log, exp or inverse prices the table of all labels but the first
    # (3^14 pairs, 328 MiB), the first that does not fit
    caps = (1,) * 15
    assert not Jet(15, caps).coeffs
    assert JetMatrix(15, caps, np.zeros((2 ** 15, 1, 1))).trace().caps == caps
    assert JetMatrix.zeros(1, 15, caps).blocks.shape == (2 ** 15, 1, 1)
    with pytest.raises(DomainError, match="328.4 MiB"):
        Jet.scalar(1.0, 15, caps).log()


@pytest.mark.parametrize("build", [
    lambda: Jet(1, (-1,)), lambda: Jet(3, (1, 1)),
    lambda: JetMatrix(1, (-1,), np.zeros((1, 2, 2))),
    lambda: JetMatrix(3, (1, 1), np.zeros((4, 2, 2))),
    lambda: JetMatrix.zeros(2, 1, (-1,)), lambda: JetMatrix.zeros(2, 3, (1, 1))],
    ids=["jet-negative", "jet-length", "matrix-negative", "matrix-length",
         "zeros-negative", "zeros-length"])
def test_caps_are_nonnegative_one_per_variable(build):
    # a jet or jet matrix over n variables has n caps, none negative
    with pytest.raises(DomainError, match="caps"):
        build()
