"""Star-operation tests: printed fixtures, algebra laws, ring genericity."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momalg.algebra import (
    MMap,
    apply_fstar,
    bipartition_convolve,
    convolve,
    exp_star,
    identity_mmap,
    inverse_star,
    is_factorizing,
    log1p_series,
    log_star,
    partition_fstar,
    raise_label,
    scalar_mmap,
)
from momalg.combinatorics import EMPTY, Multiset, multiset_lattice
from momalg.errors import (
    NonInvertibleError,
    NotBipartitionError,
    SeriesDivergenceError,
    ShapeMismatchError,
)
from momalg.jets import Jet

M = Multiset


def random_mmap(rng, n, caps=None, spread=0.5):
    """Random complex M-map with f(empty) within `spread` of 1."""
    caps = caps or (1,) * n
    entries = {}
    for a in multiset_lattice(n, caps):
        entries[a] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    entries[EMPTY] = 1.0 + complex(rng.uniform(-spread, spread),
                                   rng.uniform(-spread, spread))
    return MMap(n, entries, caps)


def random_jet_mmap(rng, n, caps=None):
    """Same but with multilinear jet values (shared variable space)."""
    caps = caps or (1,) * n
    jcaps = (1, 1)

    def rand_jet():
        coeffs = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for a in multiset_lattice(2, jcaps)}
        return Jet(2, jcaps, coeffs)

    entries = {a: rand_jet() for a in multiset_lattice(n, caps)}
    entries[EMPTY] = Jet.scalar(1.0, 2, jcaps) + entries[EMPTY] * 0.3
    return MMap(n, entries, caps)


def mmap_from_values(n, values, caps=None):
    return MMap(n, {M(k): v for k, v in values.items()}, caps)


# ---------------------------------------------------------------------------
# printed fixtures


def test_identity_and_scalar():
    one = identity_mmap(2)
    assert one(EMPTY) == 1.0
    assert one(M([1])) == 0.0

    rng = np.random.default_rng(7)
    f = random_mmap(rng, 2)
    assert convolve(f, one).allclose(f, 1e-14)
    assert convolve(one, f).allclose(f, 1e-14)

    three = scalar_mmap(3.0, 1)
    g = random_mmap(rng, 1)
    scaled = convolve(three, g)
    for a in g.domain():
        assert abs(scaled(a) - 3.0 * g(a)) < 1e-14

    zero = scalar_mmap(0.0, 2)
    for a in f.domain():
        assert abs(convolve(zero, f)(a)) == 0.0


def test_convolve_pair_fixture():
    f = mmap_from_values(2, {(): 1.0, (1,): 2.0, (2,): 0.0, (1, 2): 5.0})
    g = mmap_from_values(2, {(): 1.0, (1,): 0.0, (2,): 3.0, (1, 2): 7.0})
    # f(12)g() + f(1)g(2) + f(2)g(1) + f()g(12) = 5 + 6 + 0 + 7
    assert convolve(f, g)(M([1, 2])) == pytest.approx(18.0, abs=1e-14)


def test_log_star_fixtures():
    f = mmap_from_values(2, {(): 1.0, (1,): 2.0, (2,): 3.0, (1, 2): 10.0})
    lf = log_star(f)
    assert lf(EMPTY) == pytest.approx(0.0, abs=1e-14)
    assert lf(M([1])) == pytest.approx(2.0, abs=1e-14)          # f(1)/f()
    assert lf(M([1, 2])) == pytest.approx(4.0, abs=1e-14)       # 10 - 2*3


def test_log_star_kappa3():
    # moments of a single variable as a multiset map: f({1^k}) = <X^k>
    moments = [1.0, 0.4, 1.1, 0.25]
    f = MMap(1, {M([1] * k): moments[k] for k in range(4)}, caps=(3,))
    k3 = log_star(f)(M([1, 1, 1]))
    expected = moments[3] - 3 * moments[2] * moments[1] + 2 * moments[1] ** 3
    assert k3 == pytest.approx(expected, abs=1e-13)
    k2 = log_star(f)(M([1, 1]))
    assert k2 == pytest.approx(moments[2] - moments[1] ** 2, abs=1e-13)


def test_inverse_star_fixtures():
    rng = np.random.default_rng(3)
    f = random_mmap(rng, 2)
    inv = inverse_star(f)
    c = f(EMPTY)
    assert inv(M([1])) == pytest.approx(-f(M([1])) / c ** 2, abs=1e-13)
    expected = -f(M([1, 2])) / c ** 2 + 2 * f(M([1])) * f(M([2])) / c ** 3
    assert inv(M([1, 2])) == pytest.approx(expected, abs=1e-13)
    assert convolve(f, inv).allclose(identity_mmap(2), 1e-12)


def test_exp_star_pair_fixture():
    a, b, c = 0.3 - 0.2j, 1.1 + 0.4j, -0.7 + 0.1j
    f = mmap_from_values(2, {(): 0.0, (1,): a, (2,): b, (1, 2): c})
    ef = exp_star(f)
    assert ef(M([1, 2])) == pytest.approx(c + a * b, abs=1e-14)
    assert ef(EMPTY) == pytest.approx(1.0, abs=1e-14)


def test_exp_star_of_zero_is_identity():
    zero = MMap(3)
    assert exp_star(zero).allclose(identity_mmap(3), 1e-14)


def test_fstar_square_fixture():
    f = mmap_from_values(2, {(): 1.0, (1,): 2.0, (2,): 3.0, (1, 2): 0.0})

    def derivs(k, x):
        return [x * x, 2 * x, 2.0][k] if k <= 2 else 0.0

    sq = apply_fstar(derivs, f)
    # formal (f^2)'' = 2 f f'' + 2 f' f' -> 2*1*0 + 2*2*3
    assert sq(M([1, 2])) == pytest.approx(12.0, abs=1e-14)
    assert sq(EMPTY) == pytest.approx(1.0, abs=1e-14)


def test_fstar_matches_dedicated_log_and_exp():
    rng = np.random.default_rng(11)
    f = random_mmap(rng, 3)

    def log_derivs(k, x):
        if k == 0:
            return cmath.log(x)
        return math.factorial(k - 1) * (-1) ** (k - 1) / x ** k

    assert apply_fstar(log_derivs, f).allclose(log_star(f), 1e-12)

    def exp_derivs(k, x):
        return cmath.exp(x)

    assert apply_fstar(exp_derivs, f).allclose(exp_star(f), 1e-12)


def test_fstar_composition_roundtrip():
    rng = np.random.default_rng(5)
    f = random_mmap(rng, 3)
    assert exp_star(log_star(f)).allclose(f, 1e-12)
    g = random_mmap(rng, 3, spread=0.3)
    assert log_star(exp_star(g)).allclose(g, 1e-12)


def test_log_star_requires_invertible_constant():
    f = mmap_from_values(1, {(): 0.0, (1,): 1.0})
    with pytest.raises(NonInvertibleError):
        log_star(f)
    with pytest.raises(NonInvertibleError):
        inverse_star(f)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatchError):
        convolve(MMap(2), MMap(3))


# ---------------------------------------------------------------------------
# laws on random maps


def test_convolution_commutes_and_associates():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        f, g, h = (random_mmap(rng, n) for _ in range(3))
        assert convolve(f, g).allclose(convolve(g, f), 1e-12)
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        assert lhs.allclose(rhs, 1e-12)


def test_log_star_turns_convolution_into_sum():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        f, g = random_mmap(rng, n), random_mmap(rng, n)
        lhs = log_star(convolve(f, g))
        rhs_f, rhs_g = log_star(f), log_star(g)
        for a in f.domain():
            assert abs(lhs(a) - (rhs_f(a) + rhs_g(a))) < 1e-11


def test_log_star_of_inverse_is_negated():
    rng = np.random.default_rng(55)
    f = random_mmap(rng, 3)
    li = log_star(inverse_star(f))
    lf = log_star(f)
    for a in f.domain():
        assert abs(li(a) + lf(a)) < 1e-11


def test_scale_invariance_of_cumulant():
    rng = np.random.default_rng(60)
    f = random_mmap(rng, 3)
    alpha = 0.7 - 0.4j
    scaled = convolve(f, scalar_mmap(alpha, 3))
    lf, ls = log_star(f), log_star(scaled)
    for a in f.domain():
        if a.is_empty:
            assert abs(ls(a) - lf(a) - cmath.log(alpha)) < 1e-12
        else:
            assert abs(ls(a) - lf(a)) < 1e-11


def test_multiset_laws_hold_with_caps():
    rng = np.random.default_rng(501)
    caps = (2, 1, 2)
    for _ in range(8):
        f = random_mmap(rng, 3, caps=caps)
        g = random_mmap(rng, 3, caps=caps)
        assert convolve(f, g).allclose(convolve(g, f), 1e-12)
        assert exp_star(log_star(f)).allclose(f, 1e-11)
        lhs = log_star(convolve(f, g))
        assert lhs.max_abs_diff(
            MMap(3, {a: log_star(f)(a) + log_star(g)(a) for a in f.domain()},
                 caps)) < 1e-10


def test_laws_hold_with_jet_coefficients():
    rng = np.random.default_rng(77)
    f = random_jet_mmap(rng, 2)
    g = random_jet_mmap(rng, 2)
    assert convolve(f, g).allclose(convolve(g, f), 1e-12)
    assert exp_star(log_star(f)).allclose(f, 1e-11)
    assert convolve(f, inverse_star(f)).allclose(
        MMap(2, {EMPTY: Jet.scalar(1.0, 2, (1, 1))}), 1e-11)
    lfg = log_star(convolve(f, g))
    lf, lg = log_star(f), log_star(g)
    for a in f.domain():
        assert (lfg(a) - (lf(a) + lg(a))).max_abs_diff(
            Jet(2, (1, 1))) < 1e-10


# ---------------------------------------------------------------------------
# power series


def test_log1p_series_scalar_entry():
    f = MMap(1, {EMPTY: 0.5})
    got = log1p_series(f, depth=40)(EMPTY)
    assert got == pytest.approx(math.log(1.5), abs=1e-9)


def test_log1p_series_closed_form_on_pair():
    rng = np.random.default_rng(13)
    f = random_mmap(rng, 2, spread=0.0)
    f = f.replace(EMPTY, 0.35 - 0.1j)   # |f(empty)| < 1
    c = f(EMPTY)
    series = log1p_series(f, depth=120)
    expected = f(M([1, 2])) / (1 + c) - f(M([1])) * f(M([2])) / (1 + c) ** 2
    assert series(M([1, 2])) == pytest.approx(expected, abs=1e-10)
    one_plus = identity_mmap(2).replace(EMPTY, 1 + c) \
        .replace(M([1]), f(M([1]))).replace(M([2]), f(M([2]))) \
        .replace(M([1, 2]), f(M([1, 2])))
    assert series.allclose(log_star(one_plus), 1e-10)


def test_log1p_series_zero_map():
    zero = MMap(2)
    assert log1p_series(zero, depth=5).allclose(zero, 0.0)


def test_log1p_series_divergence_guard():
    f = MMap(1, {EMPTY: 1.2})
    with pytest.raises(SeriesDivergenceError):
        log1p_series(f, depth=10)


def test_log1p_series_reports_truncation_deltas():
    f = MMap(1, {EMPTY: 0.5, M([1]): 0.3})
    _, deltas = log1p_series(f, depth=12, with_deltas=True)
    assert set(deltas) == set(f.domain())
    assert all(d >= 0 for d in deltas.values())
    _, later = log1p_series(f, depth=30, with_deltas=True)
    assert later[EMPTY] < deltas[EMPTY]


# ---------------------------------------------------------------------------
# raising operator and factorization


def test_raise_label_reads():
    rng = np.random.default_rng(21)
    f = random_mmap(rng, 2)
    g = raise_label(f, 1)
    assert g(EMPTY) == f(M([1]))
    assert g(M([2])) == f(M([1, 2]))


def test_raise_label_derivation_identity():
    # d_i* log* f = (d_i* f) * f^{-1*}, away from the cap boundary
    rng = np.random.default_rng(23)
    f = random_mmap(rng, 3, caps=(2, 1, 1))
    lhs = raise_label(log_star(f), 1)
    rhs = convolve(raise_label(f, 1), inverse_star(f))
    for a in f.domain():
        if a.mult(1) < 2:
            assert abs(lhs(a) - rhs(a)) < 1e-10


def test_factorizing_construction():
    # factorizing maps necessarily have f(empty) = 1, so normalize the factors
    rng = np.random.default_rng(31)
    fa = random_mmap(rng, 4).replace(EMPTY, 1.0)
    fb = random_mmap(rng, 4).replace(EMPTY, 1.0)
    part_a, part_b = {1, 2}, {3, 4}
    fa = MMap(4, {a: fa(a) for a in fa.domain() if set(a.support) <= part_a})
    fb = MMap(4, {a: fb(a) for a in fb.domain() if set(a.support) <= part_b})
    f = convolve(fa, fb)
    assert is_factorizing(f, part_a, part_b, 1e-10)
    lf = log_star(f)
    for c in f.domain():
        s = set(c.support)
        if s & part_a and s & part_b:
            assert abs(lf(c)) < 1e-10


def test_independent_random_variables_factorize():
    # outer-product joint pmf of two independent discrete variables
    rng = np.random.default_rng(41)
    xs = rng.uniform(-1, 1, 3)
    ys = rng.uniform(-1, 1, 3)
    px = rng.dirichlet(np.ones(3))
    py = rng.dirichlet(np.ones(3))

    def moment(a):
        out = 0.0
        for i, (x, wx) in enumerate(zip(xs, px)):
            for j, (y, wy) in enumerate(zip(ys, py)):
                term = wx * wy
                term *= x ** a.mult(1)
                term *= y ** a.mult(2)
                out += term
        return out

    f = MMap.from_function(2, moment, caps=(2, 2))
    assert is_factorizing(f, {1}, {2}, 1e-12)
    lf = log_star(f)
    for c in f.domain():
        if c.mult(1) and c.mult(2):
            assert abs(lf(c)) < 1e-10


def test_generic_map_does_not_factorize():
    rng = np.random.default_rng(43)
    f = random_mmap(rng, 3)
    assert not is_factorizing(f, {1}, {2, 3}, 1e-10)


def test_factorizing_validates_bipartition():
    f = MMap(3)
    with pytest.raises(NotBipartitionError):
        is_factorizing(f, {1, 2}, {2, 3})


# ---------------------------------------------------------------------------
# independent oracles for the multiset formulas


def test_multiset_convolution_matches_polynomial_product_oracle():
    # treat f as the derivative table of F(x) = sum f(a) x^a / a!; then
    # (f*g) must be the derivative table of F*G.  The oracle multiplies
    # coefficient tensors with explicit loops, no algebra code involved.
    rng = np.random.default_rng(61)
    caps = (2, 2)
    f = random_mmap(rng, 2, caps=caps)
    g = random_mmap(rng, 2, caps=caps)

    def fact(m):
        out = 1
        for _, k in m.items:
            out *= math.factorial(k)
        return out

    def tensor(h):
        t = np.zeros((caps[0] + 1, caps[1] + 1), dtype=complex)
        for a in h.domain():
            t[a.mult(1), a.mult(2)] = h(a) / fact(a)
        return t

    tf, tg = tensor(f), tensor(g)
    prod = np.zeros_like(tf)
    for i in range(tf.shape[0]):
        for j in range(tf.shape[1]):
            for k in range(tg.shape[0]):
                for l in range(tg.shape[1]):
                    if i + k <= caps[0] and j + l <= caps[1]:
                        prod[i + k, j + l] += tf[i, j] * tg[k, l]

    got = convolve(f, g)
    for a in f.domain():
        expected = prod[a.mult(1), a.mult(2)] * fact(a)
        assert abs(got(a) - expected) < 1e-12


def test_star_operations_match_sympy_formal_derivatives():
    # independent route: build F(x1, x2) with the map's values as Taylor
    # coefficients (derivative convention), apply log/1/F/exp with sympy,
    # and read the mixed derivatives back off the series
    import sympy as sp

    rng = np.random.default_rng(62)
    caps = (2, 1)
    f = random_mmap(rng, 2, caps=caps)
    x1, x2 = sp.symbols("x1 x2")

    def fact(m):
        out = 1
        for _, k in m.items:
            out *= math.factorial(k)
        return out

    series = sum((complex(f(a)).real + sp.I * complex(f(a)).imag)
                 * x1 ** a.mult(1) * x2 ** a.mult(2) / fact(a)
                 for a in f.domain())

    def read_table(expr):
        table = {}
        for a in f.domain():
            d = sp.diff(expr, x1, a.mult(1), x2, a.mult(2))
            table[a] = complex(d.subs({x1: 0, x2: 0}))
        return table

    for op, sym_expr in ((log_star, sp.log(series)),
                         (inverse_star, 1 / series),
                         (exp_star, sp.exp(series))):
        got = op(f)
        want = read_table(sym_expr)
        for a in f.domain():
            assert abs(got(a) - want[a]) < 1e-9, (op.__name__, str(a))


# ---------------------------------------------------------------------------
# the dense ring against the reference partition sums


EPS = 2.0 ** -53


def exact_derivs(name):
    """F^(k)(x) for exact rational x; log's k = 0 term is checked apart."""
    if name == "log":
        return lambda k, x: Fraction(0) if k == 0 else \
            Fraction((-1) ** (k - 1) * math.factorial(k - 1)) / x ** k
    if name == "inverse":
        return lambda k, x: Fraction((-1) ** k * math.factorial(k)) / x ** (k + 1)
    return lambda k, x: Fraction(1)                 # exp, at f(empty) = 0


@pytest.mark.parametrize("n,caps", [(k, (1,) * k) for k in range(1, 7)]
                         + [(3, (2, 2, 2))])
def test_star_operations_match_exact_rational_partition_sums(n, caps):
    # Values are exact binary fractions, so the oracle sees the same input
    # as the ring.  M(a) is the partition sum of absolute values, the scale
    # every rounding error of the ring is measured against; the measured
    # worst case is about 5 eps M(a), asserted with room: 2 (G + 2) eps M(a),
    # G the total degree sum(caps).
    rng = np.random.default_rng(100 + n + sum(caps))
    bound = 2 * (sum(caps) + 2) * EPS
    for _ in range(3):
        values = {a: float(np.round(rng.uniform(-1, 1), 6))
                  for a in multiset_lattice(n, caps)}
        for name, op in (("log", log_star), ("inverse", inverse_star),
                         ("exp", exp_star)):
            values[EMPTY] = 0.0 if name == "exp" else \
                1.0 + float(np.round(rng.uniform(-0.5, 0.5), 6))
            f = MMap(n, values, caps)
            got = op(f)
            exact = {a: Fraction(v) for a, v in values.items()}
            d = exact_derivs(name)
            want = partition_fstar(d, exact.get, f.domain())
            scale = partition_fstar(lambda k, x: abs(d(k, x)),
                                    lambda a: abs(exact[a]), f.domain())
            for a in f.domain():
                if a.is_empty and name == "log":
                    assert abs(got(a) - cmath.log(values[EMPTY])) <= 2 * EPS
                    continue
                err = abs(Fraction(got(a).real) - want[a]) + abs(got(a).imag)
                assert err <= Fraction(bound) * scale[a], (name, str(a))


def test_convolution_matches_bipartition_reference():
    rng = np.random.default_rng(70)
    for n, caps in ((3, (1, 1, 1)), (3, (2, 1, 2)), (2, (3, 2))):
        f = random_mmap(rng, n, caps)
        g = random_mmap(rng, n, caps)
        want = bipartition_convolve(f, g, f.domain())
        got = convolve(f, g)
        assert max(abs(got(a) - want[a]) for a in f.domain()) < 1e-13


def jet_log_derivs(k, x):
    """log derivatives at a jet x, by jet arithmetic."""
    if k == 0:
        return x.log()
    inv = x.inverse()
    out = inv
    for _ in range(k - 1):
        out = out * inv
    return out * ((-1) ** (k - 1) * math.factorial(k - 1))


def test_jet_valued_maps_match_reference():
    rng = np.random.default_rng(79)
    for caps in ((1, 1, 1), (2, 1)):
        f = random_jet_mmap(rng, len(caps), caps)
        g = random_jet_mmap(rng, len(caps), caps)
        want = partition_fstar(jet_log_derivs, f, f.domain())
        got = log_star(f)
        conv = bipartition_convolve(f, g, f.domain())
        fg = convolve(f, g)
        for a in f.domain():
            assert got(a).max_abs_diff(want[a]) < 1e-11
            assert fg(a).max_abs_diff(conv[a]) < 1e-12


@given(caps=st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_mmap_and_jet_rings_are_isomorphic(caps, seed):
    # f(a) / a! are the coefficients of a jet J, and every star operation on
    # f is the jet operation on J read back by derivative
    rng = np.random.default_rng(seed)
    n = len(caps)
    f, g = random_mmap(rng, n, caps), random_mmap(rng, n, caps)

    def jet(h):
        return Jet(n, caps, {a: h(a) / math.prod(math.factorial(m)
                                                  for _, m in a.items)
                             for a in h.domain()})

    jf, jg = jet(f), jet(g)
    for star, ring in ((log_star(f), jf.log()), (exp_star(f), jf.exp()),
                       (inverse_star(f), jf.inverse()),
                       (convolve(f, g), jf * jg)):
        for a in f.domain():
            assert abs(star(a) - ring.derivative(a)) < 1e-9


@given(caps=st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
       jet_caps=st.lists(st.integers(1, 2), min_size=1, max_size=2).map(tuple),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_jet_valued_map_is_the_jet_over_the_joined_caps(caps, jet_caps, seed):
    # a jet-valued map's raveled array is the jet over caps + jet caps, so
    # every star operation is that jet's ring operation, bit for bit
    rng = np.random.default_rng(seed)
    n, joined = len(caps), caps + jet_caps

    def random_map():
        entries = {a: Jet(len(jet_caps), jet_caps, {
            b: complex(*rng.uniform(-1, 1, 2))
            for b in multiset_lattice(len(jet_caps), jet_caps)})
            for a in multiset_lattice(n, caps)}
        entries[EMPTY] = entries[EMPTY] + 2.0
        return MMap(n, entries, caps)

    f, g = random_map(), random_map()
    jf, jg = (Jet._dense(len(joined), joined, h._data.ravel()) for h in (f, g))
    for star, ring in ((log_star(f), jf.log()), (exp_star(f), jf.exp()),
                       (inverse_star(f), jf.inverse()),
                       (convolve(f, g), jf * jg)):
        assert star.jet_caps == jet_caps
        assert np.array_equal(star._data.ravel(), ring._vec)


def add(f, g):
    return MMap(f.n, {a: f(a) + g(a) for a in f.domain()}, f.caps)


@given(caps=st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple),
       jets=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mmap_ring_laws(caps, jets, seed):
    rng = np.random.default_rng(seed)
    n = len(caps)
    make = random_jet_mmap if jets else random_mmap
    f, g, h = (make(rng, n, caps) for _ in range(3))
    one = MMap(n, {EMPTY: Jet.scalar(1.0, 2, (1, 1)) if jets else 1.0}, caps)
    assert convolve(f, one).allclose(f, 1e-13)
    assert convolve(f, g).allclose(convolve(g, f), 1e-12)
    assert convolve(convolve(f, g), h).allclose(convolve(f, convolve(g, h)),
                                                1e-10)
    assert convolve(f, add(g, h)).allclose(
        add(convolve(f, g), convolve(f, h)), 1e-11)
    assert convolve(f, inverse_star(f)).allclose(one, 1e-9)
    assert exp_star(log_star(f)).allclose(f, 1e-9)
    assert log_star(convolve(f, g)).allclose(add(log_star(f), log_star(g)),
                                             1e-9)


def test_fstar_composition_law():
    # (F o G)* = F* G* for F(x) = x^2, G = exp (F o G = e^{2x}) and for
    # F = log, G = exp (F o G the identity), on scalar and jet values
    def square(k, x):
        return [x * x, 2 * x, 2.0][k] if k <= 2 else 0.0

    def exp_d(k, x):
        return cmath.exp(x)

    def exp2(k, x):
        return 2.0 ** k * cmath.exp(2 * x)

    def ident(k, x):
        return [x, 1.0][k] if k <= 1 else 0.0

    def log_d(k, x):
        return cmath.log(x) if k == 0 else \
            (-1) ** (k - 1) * math.factorial(k - 1) / x ** k

    rng = np.random.default_rng(90)
    for f in (random_mmap(rng, 3, (2, 1, 1), spread=0.3),
              random_jet_mmap(rng, 2)):
        assert apply_fstar(square, apply_fstar(exp_d, f)).allclose(
            apply_fstar(exp2, f), 1e-10)
        assert apply_fstar(log_d, apply_fstar(exp_d, f)).allclose(
            apply_fstar(ident, f), 1e-10)


def test_corrupted_ring_product_fails_the_oracle_verifiers(monkeypatch):
    # genfun and thermal compare the ring against partition sums that share
    # no ring code; a wrong ring product must make both FAIL
    from momalg import jets as jets_module
    from momalg import algebra as algebra_module
    from momalg.experiments import random_config, run_verification

    configs = [random_config("genfun", 1, n_vars=2),
               random_config("thermal", 1, n_pointers=3)]
    assert all(run_verification(c).passed for c in configs)
    real = jets_module._ring_product

    def corrupted(table, x, y):
        out = real(table, x, y)
        out[1:] *= 1.001
        return out

    monkeypatch.setattr(jets_module, "_ring_product", corrupted)
    monkeypatch.setattr(algebra_module, "_ring_product", corrupted)
    for c in configs:
        assert run_verification(c).passed is False, c.scenario
