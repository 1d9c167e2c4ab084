"""Scenario verifiers: structure checks, invariances, edge constructions."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momalg import algebra, experiments, jets, quantum, weakvalues
from momalg.algebra import MMap, convolve, log_star, scalar_mmap, value_allclose
from momalg.combinatorics import EMPTY, Multiset, multiset_lattice
from momalg.errors import DomainError
from momalg.experiments import (
    SCENARIOS,
    ExperimentConfig,
    all_coupled_moment_mmap,
    per_subset_moment_mmap,
    random_config,
    run_verification,
    thermal_moment_mmap,
    xi_thermal,
    xi_thermal_literal,
)
from momalg.jets import Jet, _monomials
from momalg.quantum import PointerSpec
from momalg.serialization import REPORT_CSV_COLUMNS, report_rows_from_json
from oracles import (
    expm_mp,
    kron_chain,
    outcome_generating_jet,
    per_draw_instance,
    regular_representation,
)

M = Multiset


def test_theorem1_small_batch():
    for seed in (1, 2, 3):
        rep = run_verification(random_config("sequential-per-subset", seed,
                                             n_pointers=2, system_dim=3))
        assert rep.passed
        assert rep.max_abs_error <= 1e-9


def test_theorem1_singleton_reduces_to_first_order_formula():
    cfg = random_config("sequential-per-subset", 7, n_pointers=1,
                        system_dim=2)
    rep = run_verification(cfg)
    assert rep.passed and len(rep.records) == 1
    assert rep.records[0].subset == "[1]"


def test_theorem1_trivial_coupling_operators_vanish():
    # every s_j = identity: the kicks act on the system alone and cancel
    # between numerator and normalization, and xi = 0 on every subset
    cfg = random_config("sequential-per-subset", 11, n_pointers=2,
                        system_dim=2)
    cfg.pointers = tuple(PointerSpec(phi=p.phi, s=np.eye(2), r=p.r)
                         for p in cfg.pointers)
    rep = run_verification(cfg)
    assert rep.passed
    for rec in rep.records:
        assert abs(rec.xi) < 1e-14
        assert abs(rec.lhs) < 1e-10
        assert abs(rec.rhs) < 1e-10


def test_theorem3_batch_and_sub_support_structure():
    for seed in (4, 5):
        rep = run_verification(random_config("sequential-all-coupled", seed,
                                             n_pointers=3, system_dim=2))
        assert rep.passed
        assert rep.metadata["max_sub_support_coeff"] <= 1e-10


def test_theorem3_singleton_xi_matches_theorem1():
    cfg = random_config("sequential-all-coupled", 9, n_pointers=2,
                        system_dim=2)
    rep1 = run_verification(ExperimentConfig(
        scenario="sequential-per-subset", pointers=cfg.pointers,
        observables=cfg.observables, psi_i=cfg.psi_i, psi_f=cfg.psi_f,
        unitaries=cfg.unitaries, seed=cfg.seed, tolerance=cfg.tolerance))
    rep3 = run_verification(cfg)
    for r1, r3 in zip(rep1.records, rep3.records):
        if len(M.parse(r1.subset).elements()) == 1:
            assert r1.rhs == pytest.approx(r3.rhs, abs=1e-12)
            assert r1.lhs == pytest.approx(r3.lhs, abs=1e-12)


def test_theorem3_zero_covariance_pointer_kills_subsets():
    # r, s commuting diagonal with a basis-state pointer: <rs> = <r><s>
    cfg = random_config("sequential-all-coupled", 13, n_pointers=2,
                        system_dim=2)
    phi = np.array([1.0, 0.0], dtype=complex)
    quiet = PointerSpec(phi=phi, s=np.diag([0.7, -0.2]),
                        r=np.diag([1.3, 0.4]))
    cfg.pointers = (quiet, cfg.pointers[1])
    rep = run_verification(cfg)
    assert rep.passed
    for rec in rep.records:
        if M.parse(rec.subset).mult(1):
            assert abs(rec.xi) < 1e-14
            assert abs(rec.lhs) < 1e-10


def test_per_subset_and_all_coupled_agree_on_full_set():
    # independent route for every subset a: the all-coupled pipeline on a
    # copy whose pointers outside a have s_j = 0, so their kicks are the
    # identity and only the pointers in a couple
    cfg = random_config("sequential-per-subset", 17, n_pointers=3,
                        system_dim=2)
    z = per_subset_moment_mmap(cfg)
    for a in multiset_lattice(3, (1, 1, 1)):
        quiet = ExperimentConfig(
            scenario=cfg.scenario, observables=cfg.observables,
            psi_i=cfg.psi_i, psi_f=cfg.psi_f, unitaries=cfg.unitaries,
            pointers=tuple(p if a.mult(j) else PointerSpec(
                phi=p.phi, s=np.zeros((p.dim, p.dim)), r=p.r)
                for j, p in enumerate(cfg.pointers, start=1)))
        assert value_allclose(z(a), all_coupled_moment_mmap(quiet)(a), 1e-12)
    full = M([1, 2, 3])
    assert value_allclose(z(full), all_coupled_moment_mmap(cfg)(full), 1e-12)


def restricted_entry_by_entry(moments):
    """The per-subset map by its definition: entry a restricted to the
    labels of a, one Jet.restrict per entry."""
    return MMap(moments.n, {a: moments(a).restrict(a)
                            for a in moments.domain()}, moments.caps)


def pair_moments(seed):
    """The multiset scenario's pair: one pointer twice, through one
    observable, coupled simultaneously with H_S = 0."""
    cfg = random_config("multiset", seed)
    d = cfg.system_dim
    return experiments.sigma_moment_mmap(replace(
        cfg, scenario="simultaneous-evolution", pointers=cfg.pointers[:1] * 2,
        observables=cfg.observables[:1] * 2, hamiltonian=np.zeros((d, d))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, "pair"])
def test_per_subset_mask_equals_restricting_every_entry(n):
    # bit for bit, on dense random jet rows (every monomial nonzero) and on
    # the multiset scenario's pair moments
    if n == "pair":
        maps = [pair_moments(seed) for seed in (1, 2)]
    else:
        rng = np.random.default_rng(70 + n)
        caps = (1,) * n
        maps = [MMap._over(n, Jet._dense(2 * n, caps + caps,
                                         rng.standard_normal(4 ** n)
                                         + 1j * rng.standard_normal(4 ** n)))
                for _ in range(3)]
    for moments in maps:
        got = experiments._per_subset(moments)
        want = restricted_entry_by_entry(moments)
        assert got.jet_caps == want.jet_caps == moments.caps
        assert np.array_equal(got.jet._vec, want.jet._vec)


@pytest.mark.parametrize("n, seeds", [(1, (1, 2)), (2, (3, 4)), (3, (5, 6)),
                                      (4, (7,))])
def test_max_sub_support_coeff_equals_the_double_loop(n, seeds):
    # reference: for each target a, the largest |coefficient| of the
    # centered cumulant jet lc(a) over the monomials b that miss a label of
    # a, by a double loop over Multisets; it must match bit for bit
    for seed in seeds:
        cfg = random_config("sequential-all-coupled", seed, n_pointers=n)
        rep = run_verification(cfg)
        lc = log_star(experiments._moment_mmap(
            experiments._sequential_state(cfg),
            [np.asarray(p.r) - p.expect(p.r) * np.eye(p.dim)
             for p in cfg.pointers]))
        lattice = multiset_lattice(n, (1,) * n)
        for rec in rep.records:
            a = M.parse(rec.subset)
            want = max((abs(lc(a).coefficient(b)) for b in lattice
                        if any(a.mult(j) > b.mult(j) for j in a.support)),
                       default=0.0)
            assert rec.extras["max_sub_support_coeff"] == want
        assert rep.metadata["max_sub_support_coeff"] == max(
            r.extras["max_sub_support_coeff"] for r in rep.records)


def test_uncoupled_moments_are_pointer_products():
    cfg = random_config("sequential-all-coupled", 19, n_pointers=2,
                        system_dim=2)
    m = all_coupled_moment_mmap(cfg)
    for a in m.domain():
        jet = Jet.ensure(m(a), 2, (1, 1))
        expected = 1.0
        for j in a.elements():
            p = cfg.pointers[j - 1]
            expected *= p.expect(p.r)
        assert abs(jet.coefficient(EMPTY) - expected) < 1e-10


def test_mean_shift_invariance_of_multi_element_cumulants():
    cfg = random_config("sequential-all-coupled", 23, n_pointers=2,
                        system_dim=2)
    shifted_pointers = tuple(
        PointerSpec(phi=p.phi, s=p.s,
                    r=np.asarray(p.r) - p.expect(p.r) * np.eye(p.dim))
        for p in cfg.pointers)
    shifted = ExperimentConfig(
        scenario=cfg.scenario, pointers=shifted_pointers,
        observables=cfg.observables, psi_i=cfg.psi_i, psi_f=cfg.psi_f,
        unitaries=cfg.unitaries, seed=cfg.seed, tolerance=cfg.tolerance)
    lm = log_star(all_coupled_moment_mmap(cfg))
    lms = log_star(all_coupled_moment_mmap(shifted))
    for a in lm.domain():
        if a.size >= 2:
            assert value_allclose(lm(a), lms(a), 1e-10)


def test_scalar_mmap_scaling_leaves_cumulants_alone():
    cfg = random_config("sequential-all-coupled", 29, n_pointers=2,
                        system_dim=2)
    moments = all_coupled_moment_mmap(cfg)
    scaled = convolve(moments, scalar_mmap(
        Jet.scalar(0.6 - 0.2j, 2, (1, 1)), 2))
    lm, lms = log_star(moments), log_star(scaled)
    for a in moments.domain():
        if not a.is_empty:
            assert value_allclose(lm(a), lms(a), 1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moment_normaliser_equals_the_scalar_map_convolution(monkeypatch, n):
    # _moment_mmap divides every raw moment row by the empty-subset row;
    # bit for bit, that is the convolution with the scalar map of the
    # inverse empty-subset jet, on random multilinear jet rows
    caps = (1,) * n
    lattice = _monomials(caps)     # the rows' storage order
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        rows = rng.standard_normal((2 ** n, 2 ** n)) + \
            1j * rng.standard_normal((2 ** n, 2 ** n))
        monkeypatch.setattr(experiments, "readout_moments",
                            lambda *_, rows=rows: rows.copy())
        got = experiments._moment_mmap(None, [None] * n)
        raw = MMap(n, {a: Jet(n, caps, dict(zip(lattice, row)))
                       for a, row in zip(lattice, rows)}, caps)
        want = convolve(raw, scalar_mmap(raw(EMPTY).inverse(), n))
        assert got.jet_caps == want.jet_caps == caps
        assert np.array_equal(got.jet._vec, want.jet._vec)


def test_postselection_phase_leaves_report_unchanged():
    cfg = random_config("sequential-all-coupled", 31, n_pointers=2,
                        system_dim=2)
    rep = run_verification(cfg)
    phased = ExperimentConfig(
        scenario=cfg.scenario, pointers=cfg.pointers,
        observables=cfg.observables, psi_i=cfg.psi_i,
        psi_f=np.exp(1.3j) * cfg.psi_f, unitaries=cfg.unitaries,
        seed=cfg.seed, tolerance=cfg.tolerance)
    rep2 = run_verification(phased)
    for r1, r2 in zip(rep.records, rep2.records):
        assert r1.lhs == pytest.approx(r2.lhs, abs=1e-11)
        assert r1.rhs == pytest.approx(r2.rhs, abs=1e-11)


def test_singular_postselection_is_skipped_not_raised():
    cfg = random_config("sequential-per-subset", 37, n_pointers=2,
                        system_dim=2)
    cfg.psi_f = np.array([cfg.psi_i[1].conjugate(),
                          -cfg.psi_i[0].conjugate()])  # orthogonal to psi_i
    cfg.unitaries = (np.eye(2),) * 3
    rep = run_verification(cfg)
    assert rep.status == "singular-postselection"
    assert rep.passed is None
    assert rep.records == []
    rep3 = run_verification(replace(cfg, scenario="sequential-all-coupled"))
    assert rep3.status == "singular-postselection"


def test_theorem4_batch_and_theorem2_regime():
    for seed in (6, 7):
        rep = run_verification(random_config("simultaneous-evolution", seed,
                                             n_pointers=2, system_dim=2,
                                             tau=0.8))
        assert rep.passed and rep.max_abs_error < 1e-8
    rep0 = run_verification(random_config("simultaneous-evolution", 8,
                                         n_pointers=2, system_dim=2,
                                         zero_hamiltonian=True))
    assert rep0.passed
    assert rep0.metadata["theorem2_regime"] is True
    for rec in rep0.records:
        assert rec.extras["d_vs_symmetrized"] <= 1e-10


def test_theorem4_includes_mc_cross_check_when_asked():
    cfg = random_config("simultaneous-evolution", 10, n_pointers=2,
                        system_dim=2, tau=1.0, mc_samples=20_000)
    rep = run_verification(cfg)
    assert rep.passed
    checked = [r for r in rep.records if "mc_estimate" in r.extras]
    assert checked
    assert all(r.extras["mc_within_3se"] for r in checked)


def test_thermal_batch_two_rhs_forms_and_ratio_surfaced():
    for seed in (12, 14):
        for beta in (0.3, 3.0):
            rep = run_verification(random_config("thermal", seed,
                                                 n_pointers=2, system_dim=3,
                                                 beta=beta))
            assert rep.passed
            assert rep.metadata["max_mutual_error"] <= 1e-10
            for rec in rep.records:
                assert "xi_literal" in rec.extras
                assert "rhs_with_literal_xi" in rec.extras


def test_thermal_traceless_pointers_show_systematic_dimension_ratio():
    # with traceless r, s the printed raw-trace xi exceeds the normalized
    # one by exactly prod d_j, so the surfaced ratio is the dimension count
    cfg = random_config("thermal", 16, n_pointers=2, system_dim=2, beta=0.8)
    traceless = []
    for p in cfg.pointers:
        r = np.asarray(p.r) - np.trace(p.r) / p.dim * np.eye(p.dim)
        s = np.asarray(p.s) - np.trace(p.s) / p.dim * np.eye(p.dim)
        traceless.append(PointerSpec(phi=p.phi, s=s, r=r))
    cfg.pointers = tuple(traceless)
    rep = run_verification(cfg)
    assert rep.passed
    for rec in rep.records:
        a = M.parse(rec.subset)
        dims = np.prod([cfg.pointers[j - 1].dim for j in a.elements()])
        lit = xi_thermal_literal(cfg.pointers, a)
        norm = xi_thermal(cfg.pointers, a)
        assert lit / norm == pytest.approx(dims, rel=1e-12)
        if abs(rec.lhs) > 1e-12:
            assert rec.extras["literal_over_lhs_ratio"] == pytest.approx(
                dims, rel=1e-6)


def test_thermal_gamma_free_moments_are_maximally_mixed():
    cfg = random_config("thermal", 18, n_pointers=2, system_dim=2, beta=1.0)
    m = thermal_moment_mmap(cfg)
    for a in m.domain():
        jet = Jet.ensure(m(a), 2, (1, 1))
        expected = 1.0
        for j in a.elements():
            p = cfg.pointers[j - 1]
            expected *= np.trace(p.r) / p.dim
        assert abs(jet.coefficient(EMPTY) - expected) < 1e-12


def oracle_thermal_moments(cfg):
    """The moment jets of `thermal_moment_mmap`, {(subset, monomial):
    coefficient}, both tuples of multiplicities: the Boltzmann jet is the
    block column at the constant monomial of the 30-digit exponential of
    the regular representation of -beta H_S (x) 1 - sum_j gamma_j A_j (x)
    s_j, in the basis the config gives; each moment jet tr(B (1 (x) R_a))
    is divided by tr B through the regular representation of that scalar
    jet."""
    n, d_s = cfg.n_pointers, cfg.system_dim
    eyes = [np.eye(p.dim) for p in cfg.pointers]
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    d = d_s * int(np.prod([p.dim for p in cfg.pointers]))
    terms = {(0,) * n: -cfg.beta * kron_chain(cfg.hamiltonian, *eyes)}
    for j, (a, p) in enumerate(zip(cfg.observables, cfg.pointers)):
        terms[unit[j]] = -kron_chain(a, *[p.s if k == j else e
                                          for k, e in enumerate(eyes)])
    rep, pos = regular_representation(terms, (1,) * n, d)
    at = pos[(0,) * n] * d
    column = expm_mp(rep)[:, at:at + d]
    raw = {a: np.array([np.trace(
        column[pos[b] * d:(pos[b] + 1) * d] @ kron_chain(np.eye(d_s), *[
            p.r if bit else e for bit, p, e in zip(a, cfg.pointers, eyes)]))
        for b in pos]) for a in pos}
    den, _ = regular_representation(
        {b: [[raw[(0,) * n][i]]] for b, i in pos.items()}, (1,) * n, 1)
    return {(a, b): value for a in pos
            for b, value in zip(pos, np.linalg.solve(den, raw[a]))}


def gapped(rng, d_s, gap):
    """A Hermitian H_S with two eigenvalues `gap` apart, in a random
    basis."""
    w = rng.uniform(-2, 2, d_s)
    w[1] = w[0] + gap
    u = np.linalg.qr(rng.standard_normal((d_s, d_s))
                     + 1j * rng.standard_normal((d_s, d_s)))[0]
    h = (u * w) @ u.conj().T
    return (h + h.conj().T) / 2


@pytest.mark.parametrize("d_s", [2, 3])
@pytest.mark.parametrize("hs", ["random", "zero", "gap 1e-12"])
def test_thermal_moments_match_the_regular_representation_oracle(d_s, hs):
    # thermal_moment_mmap builds its generator in the eigenbasis of H_S and
    # reads the moments off it with no change back; the oracle exponentiates
    # the generator in the config's basis.  Every moment jet coefficient
    # agrees to 1e-13 in units of max(1, |value|): with one cluster (H_S =
    # 0), with two eigenvalues 1e-12 apart, and at random
    rng = np.random.default_rng(61 + d_s)
    cfg = random_config("thermal", 5, n_pointers=2, system_dim=d_s)
    if hs != "random":
        cfg = replace(cfg, hamiltonian=np.zeros((d_s, d_s)) if hs == "zero"
                      else gapped(rng, d_s, 1e-12))
    got = thermal_moment_mmap(cfg)
    for (a, b), want in oracle_thermal_moments(cfg).items():
        value = Jet.ensure(got(M.from_counts(dict(enumerate(a, 1)))), 2,
                           (1, 1)).coefficient(M.from_counts(
                               dict(enumerate(b, 1))))
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), (a, b)


def test_multiset_pair_variance_and_susceptibility():
    for seed in (20, 22):
        rep = run_verification(random_config("multiset", seed, system_dim=2,
                                             beta=0.9))
        assert rep.passed
        labels = {r.label for r in rep.records}
        assert labels == {"pair-variance", "pair-variance-per-subset",
                          "thermal-susceptibility"}


def test_multiset_eigenstate_projector_gives_zero_weak_variance():
    cfg = random_config("multiset", 24, system_dim=2, beta=0.9)
    proj = np.outer(cfg.psi_i, cfg.psi_i.conj())
    cfg.observables = (proj,)
    rep = run_verification(cfg)
    assert rep.passed
    pair = [r for r in rep.records if r.label == "pair-variance"][0]
    assert abs(pair.extras["kappa2_weak"]) < 1e-12
    assert abs(pair.lhs) < 1e-10


def test_multiset_three_copies_susceptibility():
    cfg = random_config("multiset", 26, system_dim=2, beta=0.7,
                        copies=(3,))
    rep = run_verification(cfg)
    assert rep.passed
    rec = [r for r in rep.records if r.label == "thermal-susceptibility"][0]
    assert rec.extras["collapsed_multiset"] == "[1,1,1]"


def test_genfun_independent_variables_have_zero_joint_cumulant():
    rng = np.random.default_rng(33)
    xs = rng.uniform(-1, 1, 2)
    ys = rng.uniform(-1, 1, 3)
    px = rng.dirichlet(np.ones(2))
    py = rng.dirichlet(np.ones(3))
    probs = np.outer(px, py).reshape(-1)
    cfg = ExperimentConfig(scenario="genfun", outcome_values=(xs, ys),
                           probabilities=probs, seed=0, tolerance=1e-10,
                           targets=(M([1, 2]), M([1, 1, 2])))
    rep = run_verification(cfg)
    assert rep.passed
    for rec in rep.records:
        if rec.label == "":
            assert abs(rec.lhs) < 1e-12
            assert abs(rec.rhs) < 1e-12


def test_genfun_two_point_correlated_distribution():
    # two perfectly correlated +-1 variables
    vals = (np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    probs = np.array([0.5, 0.0, 0.0, 0.5])
    cfg = ExperimentConfig(scenario="genfun", outcome_values=vals,
                           probabilities=probs, seed=0, tolerance=1e-10,
                           targets=(M([1, 2]),))
    rep = run_verification(cfg)
    assert rep.passed
    main = [r for r in rep.records if r.label == ""][0]
    assert main.lhs == pytest.approx(1.0, abs=1e-12)   # <XY> - <X><Y> = 1


def test_genfun_random_batch_with_multisets():
    for seed in (40, 41, 42):
        rep = run_verification(random_config("genfun", seed, n_vars=3))
        assert rep.passed
        subsets = {r.subset for r in rep.records}
        assert "[1,1,2]" in subsets


@pytest.mark.parametrize("seed, n_vars, copies", [
    (seed, n_vars, copies) for seed in (1, 2, 3) for n_vars in (1, 2, 3)
    for copies in (None, (3, 1, 2)[:n_vars])])
def test_generating_jet_matches_one_jet_exponential_per_outcome(
        seed, n_vars, copies):
    # the pmf contracted with x^m / m! along each variable's axis against
    # the sum of one Jet.exp per joint outcome, at the default caps (2 per
    # variable) and at mixed caps, to a few units of rounding of the
    # coefficients, which are at most 1 in modulus
    cfg = random_config("genfun", seed, n_vars=n_vars)
    caps = copies or (2,) * n_vars
    got = experiments._generating_jet(cfg.outcome_values,
                                      cfg.probabilities, caps)
    want = outcome_generating_jet(cfg.outcome_values, cfg.probabilities,
                                  caps)
    assert got.caps == caps and got.max_abs_diff(want) <= 8 * 2.0 ** -52


def test_genfun_rejects_bad_probabilities():
    cfg = ExperimentConfig(scenario="genfun",
                           outcome_values=(np.array([0.0, 1.0]),),
                           probabilities=np.array([0.5, 0.6]), seed=0)
    with pytest.raises(DomainError):
        run_verification(cfg)


def test_genfun_config_is_priced_before_its_pmf_is_drawn():
    # the caps-(2,)*(n - 1) pair table of the jet log does not fit from 10
    # variables on, and at 41 the outcome count would wrap np.prod past
    # 2^63.  Both are refused between the draws of the sizes and of the
    # pmf, so an accepted config keeps its random stream
    with pytest.raises(DomainError, match="lattice pairs"):
        random_config("genfun", 1, n_vars=41)
    with pytest.raises(DomainError, match="10077696 lattice pairs"):
        random_config("genfun", 1, n_vars=10)
    cfg = random_config("genfun", 5, n_vars=4)
    rng = np.random.default_rng([5, 4])
    sizes = [int(rng.integers(2, 4)) for _ in range(4)]
    for got, size in zip(cfg.outcome_values, sizes):
        assert np.array_equal(got, rng.uniform(-1, 1, size))
    assert np.array_equal(cfg.probabilities,
                          rng.dirichlet(np.ones(int(np.prod(sizes)))))


@pytest.mark.parametrize("scenario", sorted(set(SCENARIOS) - {"genfun"}))
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_random_config_draws_each_stream_as_the_per_draw_instance(
        scenario, dim):
    # one standard_normal call per stream, sliced in order, gives every
    # field of the object-by-object draw exactly, at every dimension and
    # with H_S = 0 (no Hamiltonian drawn); genfun draws no normals
    for seed, zero_h in ((1, False), (2, False), (3, True)):
        cfg = random_config(scenario, seed, n_pointers=3, system_dim=dim,
                            pointer_dim=dim, zero_hamiltonian=zero_h)
        want = per_draw_instance(scenario, seed, 3, dim, dim, zero_h)
        assert len(cfg.pointers) == len(want["pointers"]) > 0
        for p, (phi, s, r) in zip(cfg.pointers, want.pop("pointers")):
            for got, exp in ((p.phi, phi), (p.s, s), (p.r, r)):
                assert np.array_equal(got, exp)
        for name, exp in want.items():
            got = getattr(cfg, name)
            assert len(got) == len(exp) and all(
                np.array_equal(x, y) for x, y in zip(got, exp)), name
        assert not [name for name in ("psi_i", "psi_f", "hamiltonian")
                    if name not in want and getattr(cfg, name) is not None]
        assert bool(cfg.unitaries) == ("unitaries" in want)


def test_same_shape_caches_in_threads_match_serial_calls():
    # the per-shape caches (partition plans, lattice positions, kept
    # triples, spectral plans) filled by four threads at once, two at each
    # of two sets of shapes, with a short switch interval, hold what serial
    # calls on cleared caches compute: every report is the serial one, bit
    # for bit
    runs = {"a": [random_config("thermal", s, n_pointers=3) for s in (1, 2)]
            + [random_config("genfun", 1, n_vars=2)],
            "b": [random_config("thermal", s, n_pointers=4) for s in (1, 2)]
            + [random_config("multiset", 1)]}
    caches = (algebra._partition_plan, jets._lattice_position,
              jets._kept_triples, jets._spectral_plan)

    def reports(configs):
        out = []
        for cfg in configs * 2:
            rep = run_verification(cfg).to_json_dict()
            rep.pop("runtime_s")
            out.append(rep)
        return out

    serial = {}
    for name, configs in runs.items():
        for cache in caches:
            cache.cache_clear()
        serial[name] = reports(configs)
    for cache in caches:
        cache.cache_clear()
    names = [*runs, *runs]
    got, start = [None] * len(names), threading.Barrier(len(names))

    def work(k):
        start.wait()
        got[k] = reports(runs[names[k]])

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(len(names))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [serial[name] for name in names]


def test_reports_are_deterministic_in_the_seed():
    rep1 = run_verification(random_config("thermal", 44, n_pointers=2,
                                          system_dim=2, beta=1.0))
    rep2 = run_verification(random_config("thermal", 44, n_pointers=2,
                                          system_dim=2, beta=1.0))
    for r1, r2 in zip(rep1.records, rep2.records):
        assert r1.lhs == r2.lhs
        assert r1.rhs == r2.rhs
        assert r1.abs_error == r2.abs_error


def test_report_json_projection_roundtrip():
    rep = run_verification(random_config("genfun", 48, n_vars=2))
    payload = rep.to_json_dict()
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert len(payload["records"]) == len(rep.records)
    rows = [dict(zip(REPORT_CSV_COLUMNS, r))
            for r in report_rows_from_json(payload)]
    assert len(rows) == len(rep.records)
    assert all(set(r) >= {"scenario", "subset", "abs_error"} for r in rows)


def test_thermal_passes_with_a_double_system_eigenvalue(monkeypatch):
    # H_S = U diag(1, 1, 2.5) U^H on 3 dimensions, 3 pointers: eigh returns
    # the double eigenvalue as two points a few ulps apart, which the
    # spectral route keeps as two clusters, with no tolerance to join
    # them.  Every seed passes
    real, counts = jets._clusters, []

    def spy(w):
        bounds = real(w)
        counts.append(len(bounds) - 1)
        return bounds

    monkeypatch.setattr(jets, "_clusters", spy)
    for seed in range(1, 21):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
        h = (u * [1.0, 1.0, 2.5]) @ u.conj().T
        cfg = replace(random_config("thermal", seed, n_pointers=3,
                                    system_dim=3),
                      hamiltonian=(h + h.conj().T) / 2)
        assert run_verification(cfg).passed, seed
    assert len(counts) == 20 and 3 in counts


# ---------------------------------------------------------------------------
# relations that hold exactly in the model, at any n, with no oracle: each
# side alone is checked far below the verify gate.  Bounds are in units of
# max(1, |v|); over thermal seeds 1-80 at n = 5 the measured gaps were at
# most 1.6e-14 (relabeling) and 9.8e-15 (decoupled pointer), and a 1e-9
# scale of the label-1 coupling block, which verify passes, moves the
# relabeling gap to 7e-10 and more


def _label_tensor(m: MMap) -> np.ndarray:
    # a multilinear jet-valued map over n subsets and n couplings: one axis
    # per label, subset labels first
    return m.jet._vec.reshape((2,) * (2 * m.n))


@given(seed=st.integers(1, 2 ** 16), perm=st.permutations(range(5)))
@settings(max_examples=12, deadline=None)
def test_relabeling_pointers_permutes_every_subset_and_coupling_label(seed,
                                                                     perm):
    # pointer i of the relabeled instance is pointer perm[i] of the first,
    # with its observable, so every label of its moments and cumulants is
    # moved the same way
    n = len(perm)
    cfg = random_config("thermal", seed, n_pointers=n)
    moved = replace(cfg, pointers=tuple(cfg.pointers[i] for i in perm),
                    observables=tuple(cfg.observables[i] for i in perm))
    axes = [*perm, *(n + np.array(perm))]
    first, second = thermal_moment_mmap(cfg), thermal_moment_mmap(moved)
    for got, want in ((second, first), (log_star(second), log_star(first))):
        want = np.transpose(_label_tensor(want), axes)
        assert np.max(np.abs(_label_tensor(got) - want)
                      / np.maximum(1.0, np.abs(want))) <= 1e-13


@given(seed=st.integers(1, 2 ** 16), j=st.integers(0, 4))
@settings(max_examples=12, deadline=None)
def test_a_decoupled_pointer_has_no_joint_cumulant(seed, j):
    # with s_j = 0 pointer j never sees the system, so the cumulant of every
    # subset that holds j and another label vanishes, each jet coefficient
    n = 5
    cfg = random_config("thermal", seed, n_pointers=n)
    pointers = list(cfg.pointers)
    pointers[j] = replace(pointers[j], s=0 * pointers[j].s)
    cumulant = np.moveaxis(_label_tensor(log_star(thermal_moment_mmap(
        replace(cfg, pointers=tuple(pointers))))), j, 0)[1]
    joint = cumulant.reshape(2 ** (n - 1), -1)[1:]
    assert np.max(np.abs(joint)) <= 1e-13


# ---------------------------------------------------------------------------
# a 1e-6 relative defect in any numeric kernel (1e-3 in the spectral fold,
# whose one block enters only the top record) FAILs every scenario that runs
# it, so no kernel is shared by both sides of a claim unchecked


def _nonconstant_ring_product(real, table, x, y):
    # every coefficient of each product but its constant one
    out = real(table, x, y)
    out[..., 1:] *= 1 + 1e-6
    return out


def _second_derivative(real, caps, vec, derivs):
    # F'' of every lifted F: exp*, log*, inverse* and apply_fstar alike
    return real(caps, vec,
                lambda k: derivs(k) * (1 + 1e-6) if k == 2 else derivs(k))


def _nonempty_moments(real, blocks, readouts):
    # every moment row but the empty subset's, tr B, the normaliser
    rows = real(blocks, readouts)
    rows[1:] *= 1 + 1e-6
    return rows


def _taylor_times_generator(real, blocks, product, schedule):
    # exp(X) (1 + 1e-6 X)
    out = real(blocks, product, schedule)
    return out + 1e-6 * product(out, blocks.astype(complex))


def _spectral_couplings(real, couplings, w, sys_dim):
    # every block of grade >= 1 of the traced Boltzmann jet
    out = real(couplings, w, sys_dim)
    out[1:] *= 1 + 1e-6
    return out


def _folded_top(real, states, couplings, tables, plan, pool, products, out):
    # the top-grade block of the traced Boltzmann jet, the one block that
    # the fold writes, off by 1e-3 of itself.  It reaches the lhs divided
    # by the partition function, only in the top record, where at n = 4 a
    # defect of 1e-4 of the block moves thermal seed 3's lhs by 8e-9, under
    # the 1e-8 gate, and one of 1e-6 passes three seeds of five
    real(states, couplings, tables, plan, pool, products, out)
    out *= 1 + 1e-3


def _generator_block(real, block, dims, scale, *ops):
    # every block that the generator writer places, constant or coupling
    real(block, dims, scale, *ops)
    block *= 1 + 1e-6


def _nonconstant_block_products(real, table, a, b, out):
    # the products added into every lattice position but the constant one
    before = out[1:].copy()
    real(table, a, b, out)
    out[1:] += 1e-6 * (out[1:] - before)


def _nonempty_partition_sums(real, derivs, f, at):
    return {a: v if a.is_empty else v * (1 + 1e-6)
            for a, v in real(derivs, f, at).items()}


KERNEL_DEFECTS = {
    "_ring_product": (jets, _nonconstant_ring_product),
    "_fstar": (jets, _second_derivative),
    "readout_moments": (quantum, _nonempty_moments),
    "_taylor_exp": (jets, _taylor_times_generator),
    "_spectral_exp": (jets, _spectral_couplings),
    "_spectral_fold": (jets, _folded_top),
    "_place": (quantum, _generator_block),
    "_block_products": (jets, _nonconstant_block_products),
    "partition_fstar": (algebra, _nonempty_partition_sums),
}
DEFECT_SCENARIOS = {
    "thm1": ("sequential-per-subset", {"n_pointers": 4}),
    "thm3": ("sequential-all-coupled", {"n_pointers": 4}),
    "thm4": ("simultaneous-evolution", {"n_pointers": 3}),
    "thermal": ("thermal", {"n_pointers": 4, "system_dim": 2,
                            "pointer_dim": 2}),
    "multiset": ("multiset", {}),
    "genfun": ("genfun", {}),
}
# The scenarios that run each kernel and FAIL under its defect.  One gap is
# known and kept apart in KNOWN_GAPS: both sides of thm4 take the Taylor
# exponential, and exp(X) (1 + 1e-6 X), which is exp((1 + 1e-6) X) to first
# order, a rescaling of tau and the couplings that both sides make alike,
# passes every thm4 seed; so does a 1e-6 scale of every _block_products
# output.  Both FAIL every thermal and multiset seed.  A uniform scale of
# every block product is also divided out of thm1 and thm3 by the moment
# normaliser, so the block-product defect above leaves the constant
# position alone.  The spectral route of the thermal lhs runs its own
# products, so thermal runs _block_products only through the Taylor
# exponential of its right-hand side, and multiset through that and the
# postselection of its window states.
KERNEL_SCENARIOS = {
    "_ring_product": list(DEFECT_SCENARIOS),
    "_fstar": list(DEFECT_SCENARIOS),
    "readout_moments": ["thm1", "thm3", "thm4", "thermal", "multiset"],
    "_taylor_exp": ["thermal", "multiset"],
    "_spectral_exp": ["thermal", "multiset"],
    "_spectral_fold": ["thermal", "multiset"],
    "_place": ["thm4", "thermal", "multiset"],
    "_block_products": ["thm1", "thm3", "thm4", "thermal", "multiset"],
    "partition_fstar": list(DEFECT_SCENARIOS),
}
KNOWN_GAPS = {"_taylor_exp": ["thm4"]}


def _replace_kernel(monkeypatch, kernel, wrap) -> list:
    """Replace `kernel` by wrap(real, *args) in every module that imported
    it; returns the list each call appends the kernel's name to."""
    module, _ = KERNEL_DEFECTS[kernel]
    real, calls = getattr(module, kernel), []

    def replaced(*args):
        calls.append(kernel)
        return wrap(real, *args)

    for holder in (jets, quantum, algebra, experiments, weakvalues):
        if getattr(holder, kernel, None) is real:
            monkeypatch.setattr(holder, kernel, replaced)
    return calls


@pytest.mark.parametrize("kernel", sorted(KERNEL_SCENARIOS))
def test_the_kernel_table_lists_every_scenario_that_runs_the_kernel(
        monkeypatch, kernel):
    calls = _replace_kernel(monkeypatch, kernel, lambda real, *args: real(*args))
    running = []
    for scenario, (name, shape) in DEFECT_SCENARIOS.items():
        calls.clear()
        run_verification(random_config(name, 1, **shape))
        if calls:
            running.append(scenario)
    assert running == [s for s in DEFECT_SCENARIOS if s in
                       KERNEL_SCENARIOS[kernel] + KNOWN_GAPS.get(kernel, [])]


@pytest.mark.parametrize("kernel, scenario", [
    (kernel, scenario) for kernel, scenarios in KERNEL_SCENARIOS.items()
    for scenario in scenarios])
def test_a_kernel_defect_fails_every_scenario_that_runs_it(monkeypatch,
                                                          kernel, scenario):
    name, shape = DEFECT_SCENARIOS[scenario]
    configs = [random_config(name, seed, **shape) for seed in range(1, 6)]
    assert all(run_verification(cfg).passed for cfg in configs)
    calls = _replace_kernel(monkeypatch, kernel, KERNEL_DEFECTS[kernel][1])
    for cfg in configs:
        assert run_verification(cfg).passed is False, cfg.seed
    assert calls
