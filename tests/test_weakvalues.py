"""Weak-value builders against duplicate implementations and oracles."""

import functools

import numpy as np
import pytest

from momalg.combinatorics import EMPTY, Multiset
from momalg.errors import DomainError, SingularPostselectionError
from momalg.quantum import random_hermitian, random_state, random_unitary
from momalg.weakvalues import (
    WeakValueContext,
    evolution_weak_value,
    free_energy_jet,
    free_energy_susceptibility,
    script_D,
    script_D_monte_carlo,
    sequential_weak_value,
    sequential_weak_value_mmap,
    simultaneous_weak_value,
    thermal_E,
    thermal_E_mmap,
    thermal_partition_jet,
)
from momalg.algebra import log_star
from oracles import (
    expm_eigh,
    imaginary_time_weak_value,
    thermal_E_monte_carlo,
)

M = Multiset


def random_sequential_ctx(rng, d=2, n=2):
    return WeakValueContext.sequential(
        psi_i=random_state(rng, d),
        psi_f=random_state(rng, d),
        unitaries=[random_unitary(rng, d) for _ in range(n + 1)],
        observables=[random_hermitian(rng, d) for _ in range(n)],
    )


def oracle_sequential(ctx, a):
    """Independently coded: assemble the full operator chain by reduce."""
    mats = []
    for j in range(1, ctx.n + 1):
        mats.append(ctx.unitaries[j - 1])
        if a.mult(j):
            mats.append(ctx.observables[j - 1])
    mats.append(ctx.unitaries[ctx.n])
    chain = functools.reduce(lambda acc, m: m @ acc, mats, np.eye(ctx.dim))
    den = functools.reduce(lambda acc, m: m @ acc, ctx.unitaries, np.eye(ctx.dim))
    return (ctx.psi_f.conj() @ chain @ ctx.psi_i) / \
        (ctx.psi_f.conj() @ den @ ctx.psi_i)


def test_sequential_insertion_structure():
    rng = np.random.default_rng(100)
    ctx = random_sequential_ctx(rng, d=3, n=4)
    # a = {2, 4}: U5 A4 U4 U3 A2 U2 U1
    u = ctx.unitaries
    a_ops = ctx.observables
    num = u[4] @ a_ops[3] @ u[3] @ u[2] @ a_ops[1] @ u[1] @ u[0]
    den = u[4] @ u[3] @ u[2] @ u[1] @ u[0]
    expected = (ctx.psi_f.conj() @ num @ ctx.psi_i) / \
        (ctx.psi_f.conj() @ den @ ctx.psi_i)
    assert sequential_weak_value(ctx, M([2, 4])) == pytest.approx(expected)


def test_sequential_eigenstate_gives_one():
    rng = np.random.default_rng(101)
    psi_i = random_state(rng, 2)
    psi_f = random_state(rng, 2)
    proj = np.outer(psi_i, psi_i.conj())
    ctx = WeakValueContext.sequential(psi_i, psi_f,
                                      [np.eye(2)] * 2, [proj])
    assert sequential_weak_value(ctx, M([1])) == pytest.approx(1.0)


def test_sequential_matches_reduce_oracle():
    rng = np.random.default_rng(102)
    for _ in range(5):
        ctx = random_sequential_ctx(rng, d=2, n=2)
        got = sequential_weak_value(ctx, M([1, 2]))
        assert got == pytest.approx(oracle_sequential(ctx, M([1, 2])), abs=1e-12)


def test_sequential_mmap_and_identity_insertion():
    rng = np.random.default_rng(103)
    ctx = random_sequential_ctx(rng, d=2, n=3)
    amap = sequential_weak_value_mmap(ctx)
    assert amap(EMPTY) == pytest.approx(1.0)
    # A_j = identity inserts for free
    ctx_id = WeakValueContext.sequential(
        ctx.psi_i, ctx.psi_f, ctx.unitaries,
        [ctx.observables[0], np.eye(2), ctx.observables[2]])
    amap_id = sequential_weak_value_mmap(ctx_id)
    assert amap_id(M([1, 2])) == pytest.approx(amap_id(M([1])), abs=1e-12)
    assert amap_id(M([2, 3])) == pytest.approx(amap_id(M([3])), abs=1e-12)


def test_sequential_rejects_repeats_and_singular():
    rng = np.random.default_rng(104)
    ctx = random_sequential_ctx(rng)
    with pytest.raises(DomainError):
        sequential_weak_value(ctx, M([1, 1]))
    bad = WeakValueContext.sequential(
        np.array([1, 0]), np.array([0, 1]), [np.eye(2)] * 2,
        [random_hermitian(rng, 2)])
    with pytest.raises(SingularPostselectionError):
        sequential_weak_value(bad, M([1]))


def test_simultaneous_commuting_equals_sequential():
    rng = np.random.default_rng(105)
    psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
    base = random_hermitian(rng, 3)
    obs = [base, base @ base]        # commuting pair
    ctx = WeakValueContext.sequential(psi_i, psi_f, [np.eye(3)] * 3, obs)
    sim = simultaneous_weak_value(ctx, M([1, 2]))
    seq = sequential_weak_value(ctx, M([1, 2]))
    assert sim == pytest.approx(seq, abs=1e-12)


def test_simultaneous_singleton_is_plain_weak_value():
    rng = np.random.default_rng(106)
    psi_i, psi_f = random_state(rng, 2), random_state(rng, 2)
    a_op = random_hermitian(rng, 2)
    ctx = WeakValueContext.sequential(psi_i, psi_f, [np.eye(2)] * 2, [a_op])
    expected = (psi_f.conj() @ a_op @ psi_i) / (psi_f.conj() @ psi_i)
    assert simultaneous_weak_value(ctx, M([1])) == pytest.approx(expected)


def test_simultaneous_multiset_gives_power_weak_value():
    rng = np.random.default_rng(107)
    psi_i, psi_f = random_state(rng, 2), random_state(rng, 2)
    a_op = random_hermitian(rng, 2)
    ctx = WeakValueContext.sequential(psi_i, psi_f, [np.eye(2)] * 2, [a_op])
    expected = (psi_f.conj() @ a_op @ a_op @ psi_i) / (psi_f.conj() @ psi_i)
    assert simultaneous_weak_value(ctx, M([1, 1])) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# script D


def random_evolution_ctx(rng, d=2, n=2, tau=1.0):
    return WeakValueContext.evolution(
        psi_i=random_state(rng, d),
        psi_f=random_state(rng, d),
        hamiltonian=random_hermitian(rng, d),
        tau=tau,
        observables=[random_hermitian(rng, d) for _ in range(n)],
    )


def test_script_d_reduces_to_simultaneous_at_zero_hamiltonian():
    rng = np.random.default_rng(108)
    for a in [M([1]), M([2]), M([1, 2])]:
        ctx = random_evolution_ctx(rng)
        ctx = WeakValueContext.evolution(ctx.psi_i, ctx.psi_f,
                                         np.zeros((2, 2)), ctx.tau,
                                         ctx.observables)
        got = script_D(ctx, a)
        want = simultaneous_weak_value(ctx, a)
        assert got == pytest.approx(want, abs=1e-10)


def test_script_d_singleton_vs_simpson_quadrature():
    # (1/tau) integral of the weak value of the Heisenberg-evolved A
    rng = np.random.default_rng(109)
    ctx = random_evolution_ctx(rng, d=3, n=1, tau=1.3)
    got = script_D(ctx, M([1]))

    nodes = 1001
    ts = np.linspace(0.0, ctx.tau, nodes)
    vals = np.array([
        evolution_weak_value(ctx, [1], [t, ctx.tau - t]) for t in ts
    ])
    h = ts[1] - ts[0]
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    simpson = (h / 3) * np.sum(weights * vals)
    assert abs(got - simpson / ctx.tau) < 1e-8


def test_script_d_pair_vs_monte_carlo():
    rng = np.random.default_rng(110)
    ctx = random_evolution_ctx(rng, d=2, n=2, tau=0.9)
    exact = script_D(ctx, M([1, 2]))
    est, se = script_D_monte_carlo(ctx, M([1, 2]), samples=100_000, seed=5)
    assert abs(est - exact) <= 3 * se + 1e-12


def test_script_d_monte_carlo_zero_hamiltonian_zero_variance():
    rng = np.random.default_rng(111)
    psi_i, psi_f = random_state(rng, 2), random_state(rng, 2)
    a_op = random_hermitian(rng, 2)
    ctx = WeakValueContext.evolution(psi_i, psi_f, np.zeros((2, 2)), 1.0,
                                     [a_op])
    est, se = script_D_monte_carlo(ctx, M([1]), samples=500, seed=3)
    assert se < 1e-14
    assert est == pytest.approx(simultaneous_weak_value(ctx, M([1])))


def test_script_d_monte_carlo_error_shrinks_like_root_n():
    rng = np.random.default_rng(112)
    ctx = random_evolution_ctx(rng, d=2, n=1, tau=1.0)
    _, se_small = script_D_monte_carlo(ctx, M([1]), samples=10_000, seed=7)
    _, se_big = script_D_monte_carlo(ctx, M([1]), samples=1_000_000, seed=7)
    assert se_big < se_small
    assert se_small / se_big == pytest.approx(10.0, rel=0.35)


def test_script_d_symmetric_under_relabeling():
    rng = np.random.default_rng(113)
    ctx = random_evolution_ctx(rng, d=2, n=2, tau=1.1)
    swapped = WeakValueContext.evolution(
        ctx.psi_i, ctx.psi_f, ctx.hamiltonian, ctx.tau,
        [ctx.observables[1], ctx.observables[0]])
    assert script_D(ctx, M([1, 2])) == pytest.approx(
        script_D(swapped, M([1, 2])), abs=1e-12)


def test_script_d_invariant_under_global_phases():
    rng = np.random.default_rng(114)
    ctx = random_evolution_ctx(rng, d=2, n=2, tau=0.8)
    phased = WeakValueContext.evolution(
        np.exp(0.7j) * ctx.psi_i, np.exp(-1.1j) * ctx.psi_f,
        ctx.hamiltonian, ctx.tau, ctx.observables)
    for a in [M([1]), M([1, 2])]:
        assert script_D(ctx, a) == pytest.approx(script_D(phased, a), abs=1e-12)


# ---------------------------------------------------------------------------
# thermal maps


def random_thermal_ctx(rng, d=3, n=2, beta=0.7):
    return WeakValueContext.thermal(
        hamiltonian=random_hermitian(rng, d),
        beta=beta,
        observables=[random_hermitian(rng, d) for _ in range(n)],
    )


def test_thermal_singleton_commuting_closed_form():
    # A = polynomial of H commutes; eigendecomposition oracle
    rng = np.random.default_rng(115)
    h = random_hermitian(rng, 4)
    a_op = 0.4 * h @ h - 0.2 * h + 0.3 * np.eye(4)
    beta = 1.1
    ctx = WeakValueContext.thermal(h, beta, [a_op])
    evals, vecs = np.linalg.eigh(h)
    a_diag = np.real(np.diag(vecs.conj().T @ a_op @ vecs))
    weights = np.exp(-beta * evals)
    expected = -np.sum(a_diag * weights) / np.sum(weights)
    assert thermal_E(ctx, M([1])) == pytest.approx(expected, abs=1e-10)


def test_thermal_cumulant_is_minus_beta_susceptibility():
    # log* E(a) = -beta dF/dgamma_a via two independent jet pipelines
    rng = np.random.default_rng(116)
    for _ in range(5):
        ctx = random_thermal_ctx(rng)
        emap = thermal_E_mmap(thermal_partition_jet(ctx, (1, 1)))
        le = log_star(emap)
        for a in [M([1]), M([2]), M([1, 2])]:
            susc = free_energy_susceptibility(ctx, a)
            assert abs(le(a) - (-ctx.beta * susc)) < 1e-9


def test_free_energy_jet_on_full_caps_matches_per_multiset_reads():
    # truncating to the caps of `a` is a ring homomorphism
    rng = np.random.default_rng(119)
    ctx = random_thermal_ctx(rng, d=3, n=3)
    f_jet = free_energy_jet(thermal_partition_jet(ctx, (2, 1, 1)), ctx.beta)
    for a in [M([1]), M([3]), M([1, 1]), M([1, 2]), M([1, 1, 2, 3])]:
        assert abs(f_jet.derivative(a) - free_energy_susceptibility(ctx, a)) < 1e-12


def test_thermal_cumulant_identity_with_repeated_labels():
    rng = np.random.default_rng(117)
    ctx = random_thermal_ctx(rng, d=3, n=1, beta=0.9)
    emap = thermal_E_mmap(thermal_partition_jet(ctx, (2,)))
    le = log_star(emap)
    a = M([1, 1])
    assert abs(le(a) - (-ctx.beta * free_energy_susceptibility(ctx, a))) < 1e-9


def test_thermal_E_values_are_real_for_hermitian_inputs():
    rng = np.random.default_rng(118)
    ctx = random_thermal_ctx(rng)
    for a in [M([1]), M([1, 2])]:
        assert abs(thermal_E(ctx, a).imag) < 1e-12


def test_thermal_monte_carlo_oracle():
    rng = np.random.default_rng(119)
    ctx = random_thermal_ctx(rng, d=2, n=2, beta=0.8)
    for a in [M([1]), M([1, 2])]:
        exact = thermal_E(ctx, a)
        est, se = thermal_E_monte_carlo(ctx.hamiltonian, ctx.beta,
                                        ctx.observables, a.elements(),
                                        samples=60_000, seed=11)
        assert abs(est - exact) <= 3 * se + 1e-12


def test_imaginary_time_weak_value_matches_dense():
    rng = np.random.default_rng(120)
    ctx = random_thermal_ctx(rng, d=3, n=2, beta=1.2)
    taus = [0.3, 0.5, 0.4]
    got = imaginary_time_weak_value(ctx.hamiltonian, ctx.beta,
                                    ctx.observables, [2, 1], taus)
    e1 = expm_eigh(ctx.hamiltonian, -taus[0])
    e2 = expm_eigh(ctx.hamiltonian, -taus[1])
    e3 = expm_eigh(ctx.hamiltonian, -taus[2])
    num = np.trace(e3 @ ctx.observables[0] @ e2 @ ctx.observables[1] @ e1)
    den = np.trace(expm_eigh(ctx.hamiltonian, -ctx.beta))
    assert got == pytest.approx(num / den, abs=1e-10)


def test_beta_must_be_positive():
    with pytest.raises(DomainError):
        WeakValueContext.thermal(np.eye(2), 0.0, [np.eye(2)])
