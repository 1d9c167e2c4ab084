"""Acceptance suite: one test per criterion, each with its pinned tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion, or `python tests/test_acceptance.py` for the standalone runner.
All expected values are either printed fixtures evaluated by hand, or
recomputed by independent oracles (Bell recurrence, finite differences of
a 30-digit mpmath exponential, eigendecomposition, Simpson quadrature,
Monte-Carlo simplex sampling) inside this module or `oracles.py`.
"""

import time

import numpy as np

from momalg.algebra import (
    MMap,
    convolve,
    exp_star,
    identity_mmap,
    inverse_star,
    log1p_series,
    log_star,
)
from momalg.combinatorics import EMPTY, Multiset, multiset_lattice
from momalg.experiments import (
    ExperimentConfig,
    random_config,
    run_verification,
)
from momalg.jets import JetMatrix, _position, jet_matrix_exp
from momalg.quantum import random_hermitian
from momalg.weakvalues import (
    script_D,
    script_D_monte_carlo,
)
from oracles import evolution_weak_value, expm_mp

M = Multiset


def _report(number, name, detail):
    print(f"[PASS] criterion {number:2d}: {name} ({detail})")


def _random_mmap(rng, n):
    entries = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for a in multiset_lattice(n, (1,) * n)}
    entries[EMPTY] = 1.0 + complex(rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.5, 0.5))
    while abs(entries[EMPTY] - 1.0) > 0.5:
        entries[EMPTY] = 1.0 + complex(rng.uniform(-0.5, 0.5),
                                       rng.uniform(-0.5, 0.5))
    return MMap(n, entries)


def test_criterion_01_algebra_laws():
    tol = 1e-10
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 4
        f, g, h = (_random_mmap(rng, n) for _ in range(3))
        worst = max(worst, convolve(f, g).max_abs_diff(convolve(g, f)))
        worst = max(worst, convolve(convolve(f, g), h).max_abs_diff(
            convolve(f, convolve(g, h))))
        worst = max(worst, convolve(f, inverse_star(f)).max_abs_diff(
            identity_mmap(n)))
        worst = max(worst, exp_star(log_star(f)).max_abs_diff(f))
        lfg = log_star(convolve(f, g))
        lf, lg = log_star(f), log_star(g)
        summed = MMap(n, {a: lf(a) + lg(a) for a in f.domain()})
        worst = max(worst, lfg.max_abs_diff(summed))
    elapsed = time.perf_counter() - t0
    assert worst <= tol, f"worst algebra-law residual {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    _report(1, "algebra laws on 200 random M-maps",
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_printed_fixtures():
    tol = 1e-12
    # convolution of the worked pair example
    f = MMap(2, {M([]): 1.0, M([1]): 2.0, M([2]): 0.0, M([1, 2]): 5.0})
    g = MMap(2, {M([]): 1.0, M([1]): 0.0, M([2]): 3.0, M([1, 2]): 7.0})
    assert abs(convolve(f, g)(M([1, 2])) - 18.0) <= tol

    # inverse at the pair with dyadic entries: -f12/c^2 + 2 f1 f2 / c^3
    finv = MMap(2, {M([]): 1.0, M([1]): 0.5, M([2]): 0.25, M([1, 2]): 0.125})
    assert abs(inverse_star(finv)(M([1, 2])) - 0.125) <= tol

    # cumulant at the pair: f12/c - f1 f2 / c^2
    flog = MMap(2, {M([]): 1.0, M([1]): 2.0, M([2]): 3.0, M([1, 2]): 10.0})
    assert abs(log_star(flog)(M([1, 2])) - 4.0) <= tol

    # third classical cumulant from the multiset map (dyadic moments)
    moments = [1.0, 0.5, 1.25, 0.75]
    fk = MMap(1, {M([1] * k): moments[k] for k in range(4)}, caps=(3,))
    kappa3 = moments[3] - 3 * moments[2] * moments[1] + 2 * moments[1] ** 3
    assert kappa3 == -0.875
    assert abs(log_star(fk)(M([1, 1, 1])) - kappa3) <= tol

    # closed form of the log(1+f) series at the pair
    fs = MMap(2, {M([]): 0.25, M([1]): 0.5, M([2]): -0.75, M([1, 2]): 0.375})
    series = log1p_series(fs, depth=80)
    c = fs(M([]))
    closed = fs(M([1, 2])) / (1 + c) - fs(M([1])) * fs(M([2])) / (1 + c) ** 2
    assert abs(series(M([1, 2])) - closed) <= tol
    _report(2, "printed fixtures (product, inverse, cumulant, kappa3, series)",
            "all within 1e-12")


def test_criterion_03_factorization():
    tol = 1e-10
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(50):
        n = 2 + trial % 3
        cut = 1 + trial % (n - 1) if n > 1 else 1
        part_a = set(range(1, cut + 1))
        values = [rng.uniform(-1, 1, 3) for _ in range(n)]
        weights = [rng.dirichlet(np.ones(3)) for _ in range(n)]

        def moment(a):
            out = 1.0
            for j in range(1, n + 1):
                if a.mult(j):
                    out *= float(np.sum(weights[j - 1]
                                        * values[j - 1] ** a.mult(j)))
            return out

        fmap = MMap.from_function(n, moment)
        lf = log_star(fmap)
        for c in fmap.domain():
            s = set(c.support)
            if s & part_a and s - part_a:
                worst = max(worst, abs(lf(c)))
    assert worst <= tol, f"worst straddling cumulant {worst:.3e}"
    _report(3, "cumulants vanish across independence cuts (50 instances)",
            f"max straddling value {worst:.2e}")


def test_criterion_04_theorem1():
    tol = 1e-8
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1, 21):
        cfg = random_config("sequential-per-subset", seed,
                            n_pointers=2 + seed % 2,
                            system_dim=2 + (seed // 2) % 2,
                            tolerance=tol)
        rep = run_verification(cfg)
        assert rep.status == "ok", f"seed {seed} skipped: {rep.metadata}"
        assert rep.passed, f"seed {seed} residual {rep.max_abs_error:.3e}"
        worst = max(worst, rep.max_abs_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    _report(4, "theorem 1 (per-subset coupling), 20 seeds",
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_theorem3():
    tol = 1e-8
    sub_tol = 1e-10
    worst = worst_sub = 0.0
    for seed in range(1, 21):
        cfg = random_config("sequential-all-coupled", seed, n_pointers=3,
                            system_dim=2 + seed % 2, tolerance=tol)
        rep = run_verification(cfg)
        assert rep.status == "ok"
        assert rep.passed, f"seed {seed} residual {rep.max_abs_error:.3e}"
        assert rep.metadata["max_sub_support_coeff"] <= sub_tol
        worst = max(worst, rep.max_abs_error)
        worst_sub = max(worst_sub, rep.metadata["max_sub_support_coeff"])
    _report(5, "theorem 3 (all coupled, all subsets of 3 pointers), 20 seeds",
            f"max residual {worst:.2e}, sub-support {worst_sub:.2e}")


def test_criterion_06_theorem4():
    tol = 1e-7
    worst = 0.0
    for seed in range(1, 11):
        for tau in (0.5, 1.0, 2.0):
            cfg = random_config("simultaneous-evolution", seed,
                                n_pointers=2, system_dim=2, tau=tau,
                                tolerance=tol)
            rep = run_verification(cfg)
            assert rep.status == "ok"
            assert rep.passed, \
                f"seed {seed} tau {tau} residual {rep.max_abs_error:.3e}"
            worst = max(worst, rep.max_abs_error)
    # zero-Hamiltonian regime: theorem 2, D equals the symmetrized value
    worst_sym = 0.0
    for seed in (1, 2, 3):
        cfg = random_config("simultaneous-evolution", seed, n_pointers=2,
                            system_dim=2, zero_hamiltonian=True,
                            tolerance=tol)
        rep = run_verification(cfg)
        assert rep.passed and rep.metadata["theorem2_regime"]
        for rec in rep.records:
            assert rec.extras["d_vs_symmetrized"] <= 1e-10
            worst_sym = max(worst_sym, rec.extras["d_vs_symmetrized"])
    _report(6, "theorem 4 (evolution window), 10 seeds x 3 windows",
            f"max residual {worst:.2e}, symmetrized check {worst_sym:.2e}")


def test_criterion_07_script_d_oracles():
    mc_samples = 100_000
    quad_tol = 1e-7
    rng = np.random.default_rng(707)
    worst_quad = 0.0
    checked = 0
    for seed in range(10):
        d = 2 + seed % 2
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ctx = ExperimentConfig(
            "simultaneous-evolution", psi_i=psi / np.linalg.norm(psi),
            psi_f=phi / np.linalg.norm(phi),
            hamiltonian=random_hermitian(rng, d), tau=0.7 + 0.1 * seed,
            observables=tuple(random_hermitian(rng, d) for _ in range(2)))
        for a in (M([1]), M([1, 2])):
            exact = script_D(ctx, a)
            est, se = script_D_monte_carlo(ctx, a, mc_samples, seed=seed + 1)
            assert abs(est - exact) <= 3 * se + 1e-12, \
                f"seed {seed} {a}: |{est - exact:.3e}| > 3x{se:.3e}"
            checked += 1
        # deterministic Simpson quadrature for |a| = 1
        exact = script_D(ctx, M([1]))
        nodes = 1001
        ts = np.linspace(0.0, ctx.tau, nodes)
        vals = np.array([evolution_weak_value(ctx, [1], [t, ctx.tau - t])
                         for t in ts])
        h = ts[1] - ts[0]
        w = np.ones(nodes)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        quad = (h / 3) * np.sum(w * vals) / ctx.tau
        worst_quad = max(worst_quad, abs(exact - quad))
        assert abs(exact - quad) <= quad_tol
    _report(7, "evolution-average oracles (Monte Carlo + quadrature)",
            f"{checked} MC checks within 3 SE, quadrature {worst_quad:.2e}")


def test_criterion_08_thermal():
    tol = 1e-8
    mutual_tol = 1e-10
    worst = worst_mutual = 0.0
    for seed in range(1, 21):
        beta = (0.3, 1.0, 3.0)[seed % 3]
        cfg = random_config("thermal", seed, n_pointers=2,
                            system_dim=2 + seed % 2, beta=beta,
                            tolerance=tol)
        rep = run_verification(cfg)
        assert rep.passed, \
            f"seed {seed} beta {beta} residual {rep.max_abs_error:.3e}"
        assert rep.metadata["max_mutual_error"] <= mutual_tol
        for rec in rep.records:
            assert abs(rec.lhs - rec.rhs) <= tol          # xi log* E route
            assert rec.alt_error <= tol                   # -beta xi dF route
            assert "rhs_with_literal_xi" in rec.extras    # ratio surfaced
        worst = max(worst, rep.max_abs_error)
        worst_mutual = max(worst_mutual, rep.metadata["max_mutual_error"])
    _report(8, "theorem 5 (thermal), 20 seeds x beta in {0.3,1,3}",
            f"max residual {worst:.2e}, RHS mutual {worst_mutual:.2e}, "
            "raw-trace ratio reported per record")


def test_criterion_09_multiset():
    tol = 1e-8
    worst_pair = worst_susc = 0.0
    for seed in range(1, 11):
        cfg = random_config("multiset", seed, system_dim=2, beta=0.9,
                            tolerance=tol)
        rep = run_verification(cfg)
        assert rep.status == "ok"
        assert rep.passed, f"seed {seed} residual {rep.max_abs_error:.3e}"
        for rec in rep.records:
            if rec.label.startswith("pair-variance"):
                worst_pair = max(worst_pair, rec.abs_error)
            if rec.label == "thermal-susceptibility":
                worst_susc = max(worst_susc, rec.abs_error, rec.alt_error)
    assert worst_pair <= tol and worst_susc <= tol
    _report(9, "repeated-pointer identities, 10 seeds",
            f"pair variance {worst_pair:.2e}, susceptibility {worst_susc:.2e}")


def test_criterion_10_generating_function():
    tol = 1e-10
    worst = 0.0
    order4 = 0
    for seed in range(1, 51):
        cfg = random_config("genfun", seed, n_vars=2 + seed % 2,
                            tolerance=tol)
        rep = run_verification(cfg)
        assert rep.passed, f"seed {seed} residual {rep.max_abs_error:.3e}"
        worst = max(worst, rep.max_abs_error)
        order4 += sum(1 for r in rep.records
                      if len(M.parse(r.subset).elements()) == 4)
    assert order4 > 0, "no total-order-4 multisets exercised"
    _report(10, "partition-sum vs generating-function cumulants, 50 tables",
            f"max residual {worst:.2e}, {order4} order-4 multiset checks")


def test_criterion_11_numerical_kernels():
    fd_tol = 1e-8
    eig_tol = 1e-10
    rng = np.random.default_rng(1111)
    # first-order jet blocks vs central finite differences, random 4x4
    worst_fd = 0.0
    for _ in range(3):
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        xs = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
              for _ in range(2)]
        jm = JetMatrix.from_terms({(): y, (1,): xs[0], (2,): xs[1]},
                                  4, 2, (1, 1))
        got = jet_matrix_exp(jm)
        step = 1e-5
        for i, x in enumerate(xs, start=1):
            fd = (expm_mp(y + step * x) - expm_mp(y - step * x)) \
                / (2 * step)
            block = got.blocks[_position(got.caps, M([i]))]
            worst_fd = max(worst_fd, float(np.max(np.abs(block - fd))))
    assert worst_fd <= fd_tol, f"finite-difference residual {worst_fd:.3e}"

    # constant-only jet exponential vs eigendecomposition, hermitian 8x8
    worst_eig = 0.0
    for _ in range(3):
        h = random_hermitian(rng, 8)
        evals, vecs = np.linalg.eigh(h)
        for t in (-0.8, -1j * 1.3):
            direct = jet_matrix_exp(
                JetMatrix.from_terms({(): t * h}, 8, 0, ())).constant
            via_eig = vecs @ np.diag(np.exp(t * evals)) @ vecs.conj().T
            worst_eig = max(worst_eig,
                            float(np.max(np.abs(direct - via_eig))))
    assert worst_eig <= eig_tol, f"eigendecomposition residual {worst_eig:.3e}"
    _report(11, "matrix-exponential kernels vs FD and eigensolve oracles",
            f"jet blocks {worst_fd:.2e}, dense exp {worst_eig:.2e}")


CRITERIA = [
    test_criterion_01_algebra_laws,
    test_criterion_02_printed_fixtures,
    test_criterion_03_factorization,
    test_criterion_04_theorem1,
    test_criterion_05_theorem3,
    test_criterion_06_theorem4,
    test_criterion_07_script_d_oracles,
    test_criterion_08_thermal,
    test_criterion_09_multiset,
    test_criterion_10_generating_function,
    test_criterion_11_numerical_kernels,
]


def main():
    failures = 0
    for k, fn in enumerate(CRITERIA, start=1):
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"[FAIL] criterion {k:2d}: {exc}")
    if failures:
        raise SystemExit(f"{failures} criterion(s) failed")
    print("all acceptance criteria passed")


if __name__ == "__main__":
    main()
