"""Hilbert-space machinery and the postselected pointer state."""

from functools import reduce

import numpy as np
import pytest

from momalg import jets
from momalg.combinatorics import EMPTY, Multiset
from momalg.errors import (
    DomainError,
    ShapeMismatchError,
    SingularPostselectionError,
)
from momalg.jets import Jet, JetMatrix, _monomials, _position, jet_matrix_exp
from momalg.quantum import (
    PointerSpec,
    checked_operator,
    coupled_generator,
    postselected_pointer_state,
    random_hermitian,
    random_pointer,
    random_state,
    random_unitary,
    readout_moments,
    unit_vector,
)
from oracles import embed, kron, kron_chain, postselected_pointer_jet

M = Multiset
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def dense_exp(a):
    """exp(a) as the constant-only jet exponential (no variables)."""
    a = np.asarray(a, dtype=complex)
    return jet_matrix_exp(JetMatrix.from_terms({(): a}, a.shape[0], 0, ())).constant


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_dagger_and_embed():
    e = embed(SX, [2, 2, 2], 1)
    assert e.shape == (8, 8)
    assert np.allclose(e, kron(np.eye(2), SX, np.eye(2)))


@pytest.mark.parametrize("dims", [(3,), (2, 3), (4, 2, 3), (2, 3, 4, 2),
                                  (3, 1, 1, 2), (1, 1, 4), (1, 1, 1)])
def test_kron_and_embed_match_the_np_kron_chain_bit_for_bit(dims):
    # one outer-product chain forms the same products, in the same
    # association, as np.kron factor by factor, 1-dim factors included
    rng = np.random.default_rng(sum(dims) * 7 + len(dims))
    ops = [random_hermitian(rng, d) + 1j * random_hermitian(rng, d)
           for d in dims]
    vecs = [random_state(rng, d) for d in dims]
    assert np.array_equal(kron(*ops), kron_chain(*ops))
    assert np.array_equal(kron(*vecs), kron_chain(*vecs))
    last = len(dims) - 1
    coupling = [ops[0] if k == 0 else ops[k] if k == last else np.eye(d)
                for k, d in enumerate(dims)]
    assert np.array_equal(embed(ops[0], dims, 0, (ops[last], last)),
                          kron_chain(*coupling))
    single = [ops[k] if k == last else np.eye(d) for k, d in enumerate(dims)]
    assert np.array_equal(embed(ops[last], dims, last), kron_chain(*single))


def test_kron_refuses_mixed_vectors_and_operators():
    with pytest.raises(ShapeMismatchError):
        kron(np.ones(2), np.eye(2))
    with pytest.raises(DomainError):
        kron()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_pointer_xi_factors_are_the_per_element_expressions(dim):
    # each factor is computed once per pointer and cached, bit-equal to
    # the expression xi_thermal and xi_thermal_literal evaluated per element
    rng = np.random.default_rng(dim)
    p = random_pointer(rng, dim)
    d = p.dim
    rs = np.trace(np.asarray(p.r) @ np.asarray(p.s))
    mixed = rs / d - np.trace(p.r) / d * np.trace(p.s) / d
    raw = rs - np.trace(p.r) * np.trace(p.s)
    phi = np.asarray(p.phi)
    sandwich = lambda op: complex(np.vdot(phi, op @ phi))
    covariance = sandwich(p.r @ p.s) - sandwich(p.r) * sandwich(p.s)
    for _ in range(2):
        assert p.mixed_covariance == mixed
        assert p.trace_covariance == raw
        assert p.rs_covariance == covariance
    assert "mixed_covariance" in vars(p)


def test_matrix_exp_basics():
    assert np.allclose(dense_exp(np.zeros((3, 3))), np.eye(3))
    # exp(-i pi sx / 2) = -i sx
    got = dense_exp(-1j * np.pi / 2 * SX)
    assert np.max(np.abs(got - (-1j) * SX)) < 1e-12


def test_matrix_exp_thermal_trace_matches_eigensolve():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 6)
    beta = 0.8
    got = np.trace(dense_exp(-beta * h)).real
    evals = np.linalg.eigvalsh(h)
    assert got == pytest.approx(np.sum(np.exp(-beta * evals)), abs=1e-10)


def test_matrix_exp_of_hermitian_is_unitary():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 5)
    u = dense_exp(-1j * 0.7 * h)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10


def test_random_instance_is_deterministic_and_flagged():
    def instance(seed, dims):
        """One state, hermitian and unitary per dimension, in that order,
        from one seeded generator."""
        rng = np.random.default_rng(seed)
        return ([random_state(rng, d) for d in dims],
                [random_hermitian(rng, d) for d in dims],
                [random_unitary(rng, d) for d in dims])

    states, hermitians, unitaries = instance(42, [2, 3])
    again = instance(42, [2, 3])
    for x, y in zip(states + hermitians + unitaries, sum(again, [])):
        assert np.array_equal(x, y)
    for h in hermitians:
        checked_operator(h, hermitian=True)
    for u in unitaries:
        checked_operator(u, unitary=True)
    for s in states:
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


def test_unit_vector_and_checked_operator_validation():
    assert np.allclose(unit_vector([1, 1j]), np.array([1, 1j]) / np.sqrt(2))
    with pytest.raises(DomainError):
        unit_vector([0, 0])
    with pytest.raises(DomainError):
        checked_operator(np.array([[0, 1], [0, 0]]), hermitian=True)
    with pytest.raises(DomainError):
        checked_operator(np.array([[1, 1], [0, 1]]), unitary=True)
    with pytest.raises(ShapeMismatchError):
        checked_operator(np.ones((2, 3)))


@pytest.mark.parametrize("dim", [1, 2, 3, 16, 128])
def test_unit_vector_keeps_a_vector_that_is_unit_to_rounding(dim):
    # a normalised state comes back bit for bit, so that a state read back
    # from a config is the one written; one a few ulps further off is
    # normalised again
    for seed in range(50):
        v = random_state(np.random.default_rng([seed, dim]), dim)
        assert np.array_equal(unit_vector(v), v)
    eps = np.finfo(float).eps
    off = random_state(np.random.default_rng(dim), dim) * (1 + 4 * dim * eps)
    assert not np.array_equal(unit_vector(off), off)
    assert abs(np.linalg.norm(unit_vector(off)) - 1) <= (dim + 2) * eps


# ---------------------------------------------------------------------------
# postselected pointer state


def _trivial_context(rng, d_sys=2, n_pointers=2):
    psi = random_state(rng, d_sys)
    unitaries = [np.eye(d_sys)] * (n_pointers + 1)
    pointers = [random_pointer(rng) for _ in range(n_pointers)]
    observables = [random_hermitian(rng, d_sys) for _ in range(n_pointers)]
    return psi, unitaries, pointers, observables


def test_uncoupled_pointer_state_is_product_state():
    # s_j = 0: every kick is the identity, so no block depends on gamma
    rng = np.random.default_rng(6)
    psi, unitaries, pointers, observables = _trivial_context(rng)
    pointers = [PointerSpec(phi=p.phi, s=np.zeros((p.dim, p.dim)), r=p.r)
                for p in pointers]
    eta = postselected_pointer_state(psi, psi, unitaries, pointers,
                                     observables)
    product = kron(pointers[0].phi, pointers[1].phi)
    expected = JetMatrix.from_terms({(): np.outer(product, product.conj())},
                                    4, 2, (1, 1))
    assert np.max(np.abs(eta - expected.blocks)) < 1e-12


def test_eta_constant_part_is_valid_state():
    rng = np.random.default_rng(7)
    psi_i = random_state(rng, 3)
    psi_f = random_state(rng, 3)
    unitaries = [random_unitary(rng, 3) for _ in range(3)]
    pointers = [random_pointer(rng) for _ in range(2)]
    observables = [random_hermitian(rng, 3) for _ in range(2)]
    eta = postselected_pointer_state(psi_i, psi_f, unitaries, pointers,
                                     observables)
    # unnormalised: the trace is the postselection probability
    c = eta[0]
    amp = np.vdot(psi_f, unitaries[2] @ unitaries[1] @ unitaries[0] @ psi_i)
    assert np.trace(c).real == pytest.approx(abs(amp) ** 2, abs=1e-10)
    assert abs(np.trace(c).imag) < 1e-12
    assert np.max(np.abs(c - c.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh((c + c.conj().T) / 2)) > -1e-10


def test_eta_first_order_reproduces_weak_value_formula():
    # <r> = <r>_phi + gamma Re(xi A_w), xi = -2i (<rs> - <r><s>)
    rng = np.random.default_rng(8)
    for _ in range(5):
        psi_i = random_state(rng, 2)
        psi_f = random_state(rng, 2)
        pointer = random_pointer(rng, 2)
        a_op = random_hermitian(rng, 2)
        unitaries = [np.eye(2), np.eye(2)]
        eta = postselected_pointer_state(psi_i, psi_f, unitaries, [pointer],
                                         [a_op])
        # rows: the jets tr(eta) and tr(eta r), then <r> = tr(eta r) / tr(eta)
        trace, raw = (Jet(1, (1,), {(): row[0], (1,): row[1]})
                      for row in readout_moments(eta, [pointer.r]))
        moment = raw / trace
        a_w = (psi_f.conj() @ a_op @ psi_i) / (psi_f.conj() @ psi_i)
        xi = -2j * pointer.rs_covariance
        got = moment.coefficient(M([1]))
        assert got.real == pytest.approx((xi * a_w).real, abs=1e-10)
        assert abs(got.imag) < 1e-10
        assert moment.coefficient(EMPTY) == pytest.approx(
            pointer.expect(pointer.r), abs=1e-12)


def test_jet_valued_eta_constant_matches_plain_computation():
    # independent dense path at gamma = 0: standard postselected state
    rng = np.random.default_rng(9)
    psi_i = random_state(rng, 2)
    psi_f = random_state(rng, 2)
    unitaries = [random_unitary(rng, 2) for _ in range(3)]
    pointers = [random_pointer(rng) for _ in range(2)]
    observables = [random_hermitian(rng, 2) for _ in range(2)]
    eta = postselected_pointer_state(psi_i, psi_f, unitaries, pointers,
                                     observables)

    chain = unitaries[2] @ unitaries[1] @ unitaries[0]
    amp = psi_f.conj() @ chain @ psi_i
    pointer_state = kron(pointers[0].phi, pointers[1].phi)
    plain = np.outer(pointer_state, pointer_state.conj()) * abs(amp) ** 2
    assert np.max(np.abs(eta[0] - plain)) < 1e-12


def test_singular_postselection_raises():
    rng = np.random.default_rng(10)
    psi_i = np.array([1, 0], dtype=complex)
    psi_f = np.array([0, 1], dtype=complex)
    pointers = [random_pointer(rng)]
    observables = [random_hermitian(rng, 2)]
    with pytest.raises(SingularPostselectionError):
        postselected_pointer_state(psi_i, psi_f, [np.eye(2)] * 2, pointers,
                                   observables)
    assert np.vdot(psi_f, psi_i) == 0


@pytest.mark.parametrize("d_sys", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_postselected_pointer_state_matches_joint_density_oracle(n, d_sys):
    # the pure jet-vector pipeline against the joint density evaluated at
    # gamma in {-1, 0, 1}^n (tests/oracles.py), pointers of dimension 2 and 3
    rng = np.random.default_rng(100 + 10 * n + d_sys)
    psi_i = random_state(rng, d_sys)
    psi_f = random_state(rng, d_sys)
    unitaries = [random_unitary(rng, d_sys) for _ in range(n + 1)]
    pointers = [random_pointer(rng, 2 + j % 2) for j in range(n)]
    observables = [random_hermitian(rng, d_sys) for _ in range(n)]
    eta = postselected_pointer_state(psi_i, psi_f, unitaries, pointers,
                                     observables)
    want = postselected_pointer_jet(psi_i, psi_f, unitaries, pointers,
                                    observables)
    assert len(want) == len(eta) == 2 ** n
    for a, block in want.items():
        got = eta[_position((1,) * n, M(a))]
        assert np.max(np.abs(got - block)) <= 1e-12 * max(1.0, np.max(np.abs(block)))


@pytest.mark.parametrize("pointer_dims", [(), (3,), (2, 3), (2, 3, 2), (1,),
                                          (1, 1), (1, 2)])
@pytest.mark.parametrize("sys_dim", [1, 2, 3])
def test_readout_moments_match_kronecker_readouts(sys_dim, pointer_dims):
    # oracle: tr(B (1_sys (x) f_1 (x) ... (x) f_n)), f_j = r_j on the subset
    # and 1 elsewhere, one Kronecker product per subset, on joint-space
    # blocks; the reader takes them traced over the system, as the
    # spectral exponential hands the thermal Boltzmann jet over (its own
    # trace is checked in tests/test_jets.py).  Non-Hermitian blocks and
    # readouts, and 3 blocks, so that no transposition or axis mix-up
    # cancels; pointers of one dimension, whose contraction doubles the
    # stack, too
    rng = np.random.default_rng(17 * sys_dim + len(pointer_dims))
    n = len(pointer_dims)
    part = int(np.prod(pointer_dims))
    dim = sys_dim * part
    blocks = rng.standard_normal((3, dim, dim)) + \
        1j * rng.standard_normal((3, dim, dim))
    readouts = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in pointer_dims]
    pointer_blocks = np.trace(blocks.reshape(3, sys_dim, part, sys_dim, part),
                              axis1=1, axis2=3)
    got = readout_moments(pointer_blocks, readouts)
    lattice = _monomials((1,) * n)     # rows in storage order
    assert got.shape == (len(lattice), len(blocks))
    for row, a in zip(got, lattice):
        readout = reduce(np.kron, [r if j in a.support else np.eye(len(r))
                                   for j, r in enumerate(readouts, start=1)],
                         np.eye(sys_dim))
        want = np.trace(blocks @ readout, axis1=1, axis2=2)
        assert np.max(np.abs(row - want)) <= 1e-12 * max(1, np.max(np.abs(want)))


@pytest.mark.parametrize("pointer_dims", [(3,), (2, 3), (4, 4, 4), (1,),
                                          (1, 2), (2, 1, 2)])
def test_readout_moments_are_plain_tensordots_in_a_fresh_array(pointer_dims):
    # the first operand is copied into the workspace instead of by
    # np.tensordot, which then runs the same np.dot: bit for bit the plain
    # pointer-by-pointer np.tensordot.  The result shares no memory with
    # the workspace, and a later call at the same shape leaves it as it was
    rng = np.random.default_rng(29 + len(pointer_dims))
    n, part = len(pointer_dims), int(np.prod(pointer_dims))
    stacks = [rng.standard_normal((2 ** n, part, part))
              + 1j * rng.standard_normal((2 ** n, part, part))
              for _ in range(2)]
    readouts = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in pointer_dims]
    want = []
    for blocks in stacks:
        x = blocks.reshape(len(blocks), *pointer_dims, *pointer_dims)
        for left, r in zip(range(n, 0, -1), readouts):
            pair = np.stack([np.eye(len(r)), np.transpose(r)])
            x = np.tensordot(x, pair, axes=([1, 1 + left], [1, 2]))
        want.append(x.reshape(len(blocks), -1).T)
    first = readout_moments(stacks[0], readouts)
    assert np.array_equal(first, want[0])
    assert not np.shares_memory(first, jets._WORKSPACE.arrays["readout"])
    assert np.array_equal(readout_moments(stacks[1], readouts), want[1])
    assert np.array_equal(first, want[0])


def test_coupled_generator_fills_out_or_returns_a_fresh_array():
    # without out, every call returns a new array; with out, the blocks
    # are written into it and it is returned; an out of another shape (the
    # n + 1 blocks of a constant c against n) is refused
    rng = np.random.default_rng(61)
    pointers = [random_pointer(rng, 2) for _ in range(2)]
    h = random_hermitian(rng, 2)
    observables = [random_hermitian(rng, 2) for _ in range(2)]
    first = coupled_generator(h, observables, pointers, None, -1)
    second = coupled_generator(h, observables, pointers, None, -1)
    assert first.shape == (2, 8, 8) and not np.shares_memory(first, second)
    assert np.array_equal(first, second)
    out = np.full((2, 8, 8), np.nan, dtype=complex)
    assert coupled_generator(h, observables, pointers, None, -1, out=out) \
        is out
    assert np.array_equal(out, first)
    with pytest.raises(ShapeMismatchError, match="shape"):
        coupled_generator(h, observables, pointers, 1.0, -1, out=out)


@pytest.mark.parametrize("sys_dim", [1, 3])
@pytest.mark.parametrize("pointer_dim", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coupled_generator_writes_the_blocks_of_the_kronecker_chain(
        sys_dim, pointer_dim, n):
    # each block, written in place through a strided view, holds the values
    # of scale * embed(...), the chain of np.kron over every tensor slot:
    # the window's constant c H_S (x) 1 and couplings, and the thermal
    # couplings without a constant.  An out full of NaN is overwritten in
    # every entry, the zeros of the identity slots included
    rng = np.random.default_rng(62 + 10 * sys_dim + pointer_dim + 100 * n)
    pointers = [random_pointer(rng, pointer_dim) for _ in range(n)]
    h = random_hermitian(rng, sys_dim)
    observables = [random_hermitian(rng, sys_dim) for _ in range(n)]
    dims = [sys_dim] + [pointer_dim] * n
    couplings = [embed(a, dims, 0, (p.s, j))
                 for j, (a, p) in enumerate(zip(observables, pointers), 1)]
    for c, k in ((-0.7j, -1j), (None, -1), (1.5 - 0.5j, 0.25 + 2j)):
        want = [np.multiply(k, block) for block in couplings]
        if c is not None:
            want.insert(0, np.multiply(c, embed(h, dims, 0)))
        dim = sys_dim * pointer_dim ** n
        out = np.full((len(want), dim, dim), np.nan, dtype=complex)
        got = coupled_generator(h, observables, pointers, c, k, out=out)
        assert got is out and np.array_equal(out, np.array(want)), c
