"""Scenario verifiers: structure checks, invariances, edge constructions."""

from dataclasses import replace

import numpy as np
import pytest

from momalg import experiments
from momalg.algebra import MMap, convolve, log_star, scalar_mmap, value_allclose
from momalg.combinatorics import EMPTY, Multiset, multiset_lattice
from momalg.errors import DomainError
from momalg.experiments import (
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
from momalg.serialization import report_rows_from_json

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
        maps = [MMap._dense(n, caps, caps, rng.standard_normal((2 ** n, 2 ** n))
                            + 1j * rng.standard_normal((2 ** n, 2 ** n)))
                for _ in range(3)]
    for moments in maps:
        got = experiments._per_subset(moments)
        want = restricted_entry_by_entry(moments)
        assert got.jet_caps == want.jet_caps == moments.caps
        assert np.array_equal(got._data, want._data)


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
        assert np.array_equal(got._data, want._data)


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


def test_genfun_rejects_bad_probabilities():
    cfg = ExperimentConfig(scenario="genfun",
                           outcome_values=(np.array([0.0, 1.0]),),
                           probabilities=np.array([0.5, 0.6]), seed=0)
    with pytest.raises(DomainError):
        run_verification(cfg)


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
    rows = list(report_rows_from_json(payload))
    assert len(rows) == len(rep.records)
    assert all(set(r) >= {"scenario", "subset", "abs_error"} for r in rows)
