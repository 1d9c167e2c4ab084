"""End-to-end verification of the weak-measurement cumulant identities.

Each verifier builds one scenario, computes the pointer-moment M-map with
jet-valued entries, takes its cumulant by the ring log* (jet division
included), extracts the lowest-joint-order coefficient, and compares it
with the identity's right-hand side.  Where a right-hand side is itself a
cumulant map (thermal E, the multiset copies, the generating function), it
is taken by the reference partition sum, so the two sides share no ring
code.  No small-coupling limit is ever taken numerically: the theorems are
statements about a single Taylor coefficient and jets produce that
coefficient exactly.

There is one state pipeline per coupling kind (sequential kicks, finite
window, thermal), and it always couples every pointer.  Per-subset
coupling (the moment of a measured with only the pointers in a coupled)
is not a separate pipeline: "pointer j uncoupled" is gamma_j = 0, a ring
homomorphism, so that moment is the all-coupled one restricted to the
monomials inside a (Jet.restrict).

Verifiers never raise on a tolerance miss; misses land in the report.
Singular-postselection instances are reported with a distinct status and
skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import MMap, log_derivative, log_star, partition_fstar
from .combinatorics import Multiset, multiset_lattice
from .errors import DomainError, SingularPostselectionError
from .jets import Jet, JetMatrix, jet_matrix_exp
from .quantum import (
    PointerSpec,
    embed,
    embed_two,
    kron,
    postselect_pointers,
    postselected_pointer_state,
    random_hermitian,
    random_pointer,
    random_state,
    random_unitary,
)
from .weakvalues import (
    WeakValueContext,
    free_energy_jet,
    script_D_mmap,
    script_D_monte_carlo,
    sequential_weak_value_mmap,
    simultaneous_weak_value,
    thermal_E_mmap,
    thermal_partition_jet,
)

M = Multiset

SCENARIOS = (
    "sequential-per-subset",      # CLI alias thm1
    "sequential-all-coupled",     # CLI alias thm3
    "simultaneous-evolution",     # CLI aliases thm4, thm2 (zero Hamiltonian)
    "thermal",                    # CLI alias thermal
    "multiset",                   # repeated-pointer identities
    "genfun",                     # generating-function equivalence
)


@dataclass
class ExperimentConfig:
    """Full description of one verification scenario."""

    scenario: str
    pointers: tuple = ()
    observables: tuple = ()
    psi_i: np.ndarray | None = None
    psi_f: np.ndarray | None = None
    unitaries: tuple = ()
    hamiltonian: np.ndarray | None = None
    tau: float | None = None
    beta: float | None = None
    copies: tuple = ()                  # multiset scenario: m_j per observable
    # genfun scenario: per-variable outcome values and the flat joint pmf
    outcome_values: tuple = ()
    probabilities: np.ndarray | None = None
    targets: tuple = ()                 # multisets to verify (default: all)
    seed: int | None = None
    tolerance: float = 1e-8
    mutual_tolerance: float = 1e-10
    floor: float = 1e-8
    mc_samples: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise DomainError(f"unknown scenario {self.scenario!r}")

    @property
    def n_pointers(self) -> int:
        return len(self.pointers)

    @property
    def system_dim(self) -> int:
        if self.hamiltonian is not None:
            return self.hamiltonian.shape[0]
        return self.psi_i.shape[0]


DEFAULT_TOLERANCES = {
    "sequential-per-subset": 1e-8,
    "sequential-all-coupled": 1e-8,
    "simultaneous-evolution": 1e-7,
    "thermal": 1e-8,
    "multiset": 1e-8,
    "genfun": 1e-10,
}

# substream ids for deriving every random object from the run seed
_STREAM_STATES = 0
_STREAM_UNITARIES = 1
_STREAM_OBSERVABLES = 2
_STREAM_POINTERS = 3
_STREAM_DISTRIBUTION = 4


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([seed, which])


def random_config(scenario: str, seed: int, n_pointers: int = 3,
                  system_dim: int = 2, pointer_dim: int = 2,
                  tau: float = 1.0, beta: float = 1.0,
                  zero_hamiltonian: bool = False, copies: tuple = (2,),
                  n_vars: int = 3, tolerance: float | None = None,
                  mc_samples: int = 0) -> ExperimentConfig:
    """Deterministic scenario instance; substreams keyed by (seed, role)."""
    tol = DEFAULT_TOLERANCES[scenario] if tolerance is None else tolerance
    if scenario == "genfun":
        rng = _stream(seed, _STREAM_DISTRIBUTION)
        sizes = [int(rng.integers(2, 4)) for _ in range(n_vars)]
        values = tuple(rng.uniform(-1, 1, s) for s in sizes)
        probs = rng.dirichlet(np.ones(int(np.prod(sizes))))
        return ExperimentConfig(
            scenario=scenario, outcome_values=values, probabilities=probs,
            seed=seed, tolerance=tol)

    st = _stream(seed, _STREAM_STATES)
    ob = _stream(seed, _STREAM_OBSERVABLES)
    pt = _stream(seed, _STREAM_POINTERS)

    if scenario == "thermal":
        return ExperimentConfig(
            scenario=scenario,
            pointers=tuple(random_pointer(pt, pointer_dim)
                           for _ in range(n_pointers)),
            observables=tuple(random_hermitian(ob, system_dim)
                              for _ in range(n_pointers)),
            hamiltonian=random_hermitian(st, system_dim),
            beta=beta, seed=seed, tolerance=tol)

    if scenario == "multiset":
        pointer = random_pointer(pt, pointer_dim)
        base_obs = tuple(random_hermitian(ob, system_dim)
                         for _ in range(len(copies)))
        return ExperimentConfig(
            scenario=scenario,
            pointers=(pointer,) * sum(copies),
            observables=base_obs,
            psi_i=random_state(st, system_dim),
            psi_f=random_state(st, system_dim),
            hamiltonian=random_hermitian(st, system_dim),
            tau=tau, beta=beta, copies=tuple(copies),
            seed=seed, tolerance=tol)

    psi_i = random_state(st, system_dim)
    psi_f = random_state(st, system_dim)
    pointers = tuple(random_pointer(pt, pointer_dim) for _ in range(n_pointers))
    observables = tuple(random_hermitian(ob, system_dim)
                        for _ in range(n_pointers))
    if scenario == "simultaneous-evolution":
        ham = np.zeros((system_dim, system_dim)) if zero_hamiltonian \
            else random_hermitian(st, system_dim)
        return ExperimentConfig(
            scenario=scenario, pointers=pointers, observables=observables,
            psi_i=psi_i, psi_f=psi_f, hamiltonian=ham, tau=tau,
            seed=seed, tolerance=tol, mc_samples=mc_samples)

    un = _stream(seed, _STREAM_UNITARIES)
    unitaries = tuple(random_unitary(un, system_dim)
                      for _ in range(n_pointers + 1))
    return ExperimentConfig(
        scenario=scenario, pointers=pointers, observables=observables,
        psi_i=psi_i, psi_f=psi_f, unitaries=unitaries,
        seed=seed, tolerance=tol)


# ---------------------------------------------------------------------------
# xi factors


def xi_difference_of_products(pointers, a: Multiset) -> complex:
    """2 (-i)^|a| (prod <r_j s_j> - prod <r_j><s_j>), per-subset coupling."""
    prod_rs, prod_sep = 1.0 + 0j, 1.0 + 0j
    for j in a.elements():
        p = pointers[j - 1]
        prod_rs *= p.expect(np.asarray(p.r) @ np.asarray(p.s))
        prod_sep *= p.expect(p.r) * p.expect(p.s)
    return 2 * (-1j) ** a.size * (prod_rs - prod_sep)


def xi_product_of_differences(pointers, a: Multiset) -> complex:
    """2 (-i)^|a| prod (<r_j s_j> - <r_j><s_j>), all pointers coupled."""
    out = 2 * (-1j) ** a.size
    for j in a.elements():
        out *= pointers[j - 1].rs_covariance
    return out


def xi_thermal(pointers, a: Multiset) -> complex:
    """Product of pointer covariances under the maximally mixed state,
    the gamma = 0 thermal pointer state (normalized traces)."""
    out = 1.0 + 0j
    for j in a.elements():
        p = pointers[j - 1]
        d = p.dim
        rs = np.trace(np.asarray(p.r) @ np.asarray(p.s)) / d
        out *= rs - np.trace(p.r) / d * np.trace(p.s) / d
    return complex(out)


def xi_thermal_literal(pointers, a: Multiset) -> complex:
    """The same factor with raw (unnormalized) traces, as printed."""
    out = 1.0 + 0j
    for j in a.elements():
        p = pointers[j - 1]
        out *= np.trace(np.asarray(p.r) @ np.asarray(p.s)) - \
            np.trace(p.r) * np.trace(p.s)
    return complex(out)


# ---------------------------------------------------------------------------
# moment-map pipelines: one state per coupling kind (sequential kicks,
# finite window, thermal), every pointer coupled


def _readout(pointers, labels, sys_dim: int = 1) -> np.ndarray:
    """prod_{j in labels} r_j on 1_sys (x) pointers, built as the one
    Kronecker product 1_sys (x) f_1 (x) ... (x) f_n, f_j = r_j or 1."""
    return kron(np.eye(sys_dim), *[p.r if j in labels else np.eye(p.dim)
                                   for j, p in enumerate(pointers, start=1)])


def _pointer_space_moments(eta: JetMatrix, pointers, n: int, caps) -> MMap:
    return MMap(n, {a: eta.trace_with(_readout(pointers, a.support))
                    for a in multiset_lattice(n, caps)}, caps)


def _per_subset(moments: MMap) -> MMap:
    """Entry a at gamma_j = 0 for every j outside a: the moment of the
    experiment that couples only the pointers in a.  Zeroing couplings is a
    ring homomorphism, so it commutes with the products, traces and jet
    division that built each entry."""
    return MMap(moments.n, {a: moments(a).restrict(a)
                            for a in moments.domain()}, moments.caps)


def all_coupled_moment_mmap(config: ExperimentConfig) -> MMap:
    """<prod_{j in a} r_j> under the single all-pointers-coupled state eta
    (the thm3 scenario)."""
    n = config.n_pointers
    eta = postselected_pointer_state(
        config.psi_i, config.psi_f, config.unitaries, config.pointers,
        config.observables, floor=config.floor)
    return _pointer_space_moments(eta, config.pointers, n, (1,) * n)


def per_subset_moment_mmap(config: ExperimentConfig) -> MMap:
    """z(a) with only the pointers in `a` coupled (the thm1 scenario), read
    from the all-coupled moments by restriction."""
    return _per_subset(all_coupled_moment_mmap(config))


def _sigma_state(config: ExperimentConfig) -> JetMatrix:
    """Postselected pointer state for the finite-window coupling
    H = 1 (x) H_S + sum gamma_k (s_k / tau) (x) A_k over a window tau."""
    n = config.n_pointers
    caps = (1,) * n
    dims = [config.system_dim] + [p.dim for p in config.pointers]
    terms = {(): -1j * config.tau * embed(config.hamiltonian, dims, 0)}
    for j in range(1, n + 1):
        terms[(j,)] = -1j * embed_two(
            np.asarray(config.observables[j - 1]), 0,
            np.asarray(config.pointers[j - 1].s), j, dims)
    full_dim = int(np.prod(dims))
    evol = jet_matrix_exp(JetMatrix.from_terms(terms, full_dim, n, caps))
    psi0 = kron(config.psi_i, *[np.asarray(p.phi) for p in config.pointers])
    rho0 = JetMatrix.from_terms({(): np.outer(psi0, psi0.conj())},
                                full_dim, n, caps)
    rho = evol @ rho0 @ evol.dagger()
    return postselect_pointers(rho, config.psi_f, dims,
                               min_probability=config.floor ** 2)


def sigma_moment_mmap(config: ExperimentConfig) -> MMap:
    n = config.n_pointers
    sigma = _sigma_state(config)
    return _pointer_space_moments(sigma, config.pointers, n, (1,) * n)


def thermal_moment_mmap(config: ExperimentConfig) -> MMap:
    """<prod r_j> under rho = e^{-beta H}/tr e^{-beta H},
    H = 1 (x) H_S + sum gamma_j (s_j / beta) (x) A_j."""
    n = config.n_pointers
    caps = (1,) * n
    dims = [config.system_dim] + [p.dim for p in config.pointers]
    terms = {(): -config.beta * embed(config.hamiltonian, dims, 0)}
    for j in range(1, n + 1):
        terms[(j,)] = -embed_two(
            np.asarray(config.observables[j - 1]), 0,
            np.asarray(config.pointers[j - 1].s), j, dims)
    full_dim = int(np.prod(dims))
    boltz = jet_matrix_exp(JetMatrix.from_terms(terms, full_dim, n, caps))
    z_inv = boltz.trace().inverse()
    entries = {a: boltz.trace_with(_readout(config.pointers, a.support,
                                            config.system_dim)) * z_inv
               for a in multiset_lattice(n, caps)}
    return MMap(n, entries, caps)


def pointer_moment_mmap(config: ExperimentConfig) -> MMap:
    """Scenario dispatch for the pointer-moment map."""
    if config.scenario == "sequential-per-subset":
        return per_subset_moment_mmap(config)
    if config.scenario == "sequential-all-coupled":
        return all_coupled_moment_mmap(config)
    if config.scenario == "simultaneous-evolution":
        return sigma_moment_mmap(config)
    if config.scenario in ("thermal", "multiset"):
        return thermal_moment_mmap(config)
    raise DomainError(f"no pointer pipeline for scenario {config.scenario!r}")


# ---------------------------------------------------------------------------
# reports


@dataclass
class SubsetRecord:
    subset: str
    lhs: complex
    rhs: complex
    abs_error: float
    rel_error: float
    passed: bool
    xi: complex | None = None
    rhs_alt: complex | None = None
    alt_error: float | None = None
    label: str = ""
    extras: dict = field(default_factory=dict)

    def core_fields(self) -> dict:
        """The fields every report format carries, in report-JSON order."""
        return {"subset": self.subset, "label": self.label,
                "lhs_re": self.lhs.real, "lhs_im": self.lhs.imag,
                "rhs_re": self.rhs.real, "rhs_im": self.rhs.imag,
                "abs_error": self.abs_error, "rel_error": self.rel_error,
                "passed": self.passed}


@dataclass
class VerificationReport:
    scenario: str
    seed: int | None
    passed: bool | None
    max_abs_error: float
    records: list
    metadata: dict
    runtime_s: float
    status: str = "ok"

    def to_json_dict(self) -> dict:
        recs = []
        for r in self.records:
            item = r.core_fields()
            if r.xi is not None:
                item["xi_re"], item["xi_im"] = r.xi.real, r.xi.imag
            if r.rhs_alt is not None:
                item["rhs_alt_re"] = r.rhs_alt.real
                item["rhs_alt_im"] = r.rhs_alt.imag
                item["alt_error"] = r.alt_error
            if r.extras:
                item["extras"] = {k: _jsonable(v) for k, v in r.extras.items()}
            recs.append(item)
        return {
            "schema": 1,
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.status,
            "passed": self.passed,
            "max_abs_error": self.max_abs_error,
            "runtime_s": self.runtime_s,
            "metadata": {k: _jsonable(v) for k, v in self.metadata.items()},
            "records": recs,
        }

    def csv_rows(self):
        for r in self.records:
            yield {"scenario": self.scenario,
                   "seed": "" if self.seed is None else self.seed,
                   **r.core_fields()}


def _jsonable(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _record(a, lhs: complex, rhs: complex, tol: float, **kw) -> SubsetRecord:
    err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    return SubsetRecord(
        subset=str(a), lhs=lhs, rhs=rhs, abs_error=err,
        rel_error=err / scale if scale > 0 else 0.0,
        passed=err <= tol, **kw)


def _finish(scenario, seed, records, metadata, t0,
            status: str = "ok") -> VerificationReport:
    max_err = max((r.abs_error for r in records), default=0.0)
    all_ok = all(r.passed for r in records) if records else status == "ok"
    return VerificationReport(
        scenario=scenario, seed=seed,
        passed=None if status != "ok" else all_ok,
        max_abs_error=max_err, records=records, metadata=metadata,
        runtime_s=time.perf_counter() - t0, status=status)


def _targets(config: ExperimentConfig):
    if config.targets:
        return [t if isinstance(t, Multiset) else M(t) for t in config.targets]
    n = config.n_pointers
    return [a for a in multiset_lattice(n, (1,) * n) if not a.is_empty]


# ---------------------------------------------------------------------------
# verifiers


def verify_theorem1(config: ExperimentConfig) -> VerificationReport:
    """Per-subset coupling: the prod-gamma coefficient of log* z against
    Re{xi log* A_w(a)} with the difference-of-products xi."""
    t0 = time.perf_counter()
    meta = _base_metadata(config)
    try:
        z = per_subset_moment_mmap(config)
    except SingularPostselectionError as exc:
        return _finish(config.scenario, config.seed, [], meta | {
            "reason": str(exc)}, t0, status="singular-postselection")
    lz = log_star(z)
    ctx = WeakValueContext.sequential(config.psi_i, config.psi_f,
                                      config.unitaries, config.observables,
                                      floor=config.floor)
    law = log_star(sequential_weak_value_mmap(ctx))
    records = []
    for a in _targets(config):
        lhs = lz(a).coefficient(a)
        xi = xi_difference_of_products(config.pointers, a)
        rhs = complex((xi * law(a)).real)
        records.append(_record(a, lhs, rhs, config.tolerance, xi=xi))
    return _finish(config.scenario, config.seed, records, meta, t0)


def verify_theorem3(config: ExperimentConfig) -> VerificationReport:
    """All pointers coupled: cumulants of every subset of the single eta,
    with the product-of-differences xi.

    Also asserts the expansion structure on the mean-shifted readouts
    r_j - <r_j> (the proof's centered map, whose cumulant the raw one
    equals at top order): every jet coefficient of the cumulant whose
    support misses part of `a` must vanish.
    """
    t0 = time.perf_counter()
    meta = _base_metadata(config)
    n = config.n_pointers
    caps = (1,) * n
    try:
        eta = postselected_pointer_state(
            config.psi_i, config.psi_f, config.unitaries, config.pointers,
            config.observables, floor=config.floor)
    except SingularPostselectionError as exc:
        return _finish(config.scenario, config.seed, [], meta | {
            "reason": str(exc)}, t0, status="singular-postselection")
    moments = _pointer_space_moments(eta, config.pointers, n, caps)
    centered_pointers = tuple(
        PointerSpec(phi=p.phi, s=p.s,
                    r=np.asarray(p.r) - p.expect(p.r) * np.eye(p.dim))
        for p in config.pointers)
    centered = _pointer_space_moments(eta, centered_pointers, n, caps)
    lm = log_star(moments)
    lc = log_star(centered)
    ctx = WeakValueContext.sequential(config.psi_i, config.psi_f,
                                      config.unitaries, config.observables,
                                      floor=config.floor)
    law = log_star(sequential_weak_value_mmap(ctx))
    records = []
    worst_sub = 0.0
    for a in _targets(config):
        lhs = lm(a).coefficient(a)
        xi = xi_product_of_differences(config.pointers, a)
        rhs = complex((xi * law(a)).real)
        cum_centered = lc(a)
        sub = max((abs(cum_centered.coefficient(b))
                   for b in multiset_lattice(n, caps)
                   if any(a.mult(j) > b.mult(j) for j in a.support)),
                  default=0.0)
        worst_sub = max(worst_sub, sub)
        rec = _record(a, lhs, rhs, config.tolerance, xi=xi)
        rec.extras["max_sub_support_coeff"] = sub
        records.append(rec)
    meta["max_sub_support_coeff"] = worst_sub
    return _finish(config.scenario, config.seed, records, meta, t0)


def verify_theorem4(config: ExperimentConfig) -> VerificationReport:
    """Simultaneous coupling over a window with system evolution: cumulants
    of sigma against Re{xi log* D(a)}; H_S = 0 reproduces the plain
    simultaneous theorem and D collapses to the symmetrized weak value."""
    t0 = time.perf_counter()
    meta = _base_metadata(config)
    ctx = WeakValueContext.evolution(config.psi_i, config.psi_f,
                                     config.hamiltonian, config.tau,
                                     config.observables, floor=config.floor)
    try:
        moments = sigma_moment_mmap(config)
        dmap = script_D_mmap(ctx)
    except SingularPostselectionError as exc:
        return _finish(config.scenario, config.seed, [], meta | {
            "reason": str(exc)}, t0, status="singular-postselection")
    lm = log_star(moments)
    ld = log_star(dmap)
    zero_h = bool(np.max(np.abs(config.hamiltonian)) == 0)
    meta["theorem2_regime"] = zero_h
    records = []
    for a in _targets(config):
        lhs = lm(a).coefficient(a)
        xi = xi_product_of_differences(config.pointers, a)
        rhs = complex((xi * ld(a)).real)
        rec = _record(a, lhs, rhs, config.tolerance, xi=xi)
        if zero_h:
            sym = simultaneous_weak_value(ctx, a)
            rec.extras["symmetrized_weak_value"] = sym
            rec.extras["d_vs_symmetrized"] = abs(dmap(a) - sym)
        if config.mc_samples and a.size <= 2:
            est, se = script_D_monte_carlo(ctx, a, config.mc_samples,
                                           seed=(config.seed or 0) + 1)
            rec.extras["mc_estimate"] = est
            rec.extras["mc_se"] = se
            rec.extras["mc_within_3se"] = bool(abs(dmap(a) - est) <= 3 * se + 1e-12)
        records.append(rec)
    return _finish(config.scenario, config.seed, records, meta, t0)


def verify_thermal(config: ExperimentConfig) -> VerificationReport:
    """Thermal equilibrium: pointer cumulant coefficients against both
    xi log* E(a) (partition-sum route) and -beta xi dF (jet-log route).

    xi uses normalized pointer traces (the gamma = 0 pointer state is
    maximally mixed); the raw-trace variant of the printed factor is
    reported alongside with its ratio to the computed value.
    """
    t0 = time.perf_counter()
    meta = _base_metadata(config)
    moments = thermal_moment_mmap(config)
    lm = log_star(moments)
    ctx = WeakValueContext.thermal(config.hamiltonian, config.beta,
                                   config.observables)
    n = config.n_pointers
    caps = (1,) * n
    # one partition jet feeds both routes: the reference partition sum of
    # its derivative map and the jet logarithm (free energy)
    z = thermal_partition_jet(ctx, caps)
    targets = _targets(config)
    le = partition_fstar(log_derivative, thermal_E_mmap(z), targets)
    f_jet = free_energy_jet(z, ctx.beta)
    records = []
    mutual_worst = 0.0
    for a in targets:
        lhs = lm(a).coefficient(a)
        xi = xi_thermal(config.pointers, a)
        rhs_e = complex(xi * le[a])                      # no real part taken
        susc = f_jet.derivative(a)
        rhs_f = complex(-config.beta * xi * susc)
        mutual = abs(rhs_e - rhs_f)
        mutual_worst = max(mutual_worst, mutual)
        rec = _record(a, lhs, rhs_e, config.tolerance, xi=xi,
                      rhs_alt=rhs_f, alt_error=abs(lhs - rhs_f))
        rec.passed = rec.passed and abs(lhs - rhs_f) <= config.tolerance \
            and mutual <= config.mutual_tolerance
        xi_lit = xi_thermal_literal(config.pointers, a)
        rec.extras["xi_literal"] = xi_lit
        rec.extras["rhs_with_literal_xi"] = complex(xi_lit * le[a])
        if abs(lhs) > 0:
            rec.extras["literal_over_lhs_ratio"] = complex(xi_lit * le[a]) / lhs
        rec.extras["mutual_error"] = mutual
        records.append(rec)
    meta["max_mutual_error"] = mutual_worst
    meta["pointer_dims"] = [p.dim for p in config.pointers]
    return _finish(config.scenario, config.seed, records, meta, t0)


def verify_multiset(config: ExperimentConfig) -> VerificationReport:
    """Repeated-pointer identities: the pair variance check (two identical
    pointers coupled through the same observable, simultaneous coupling)
    and the thermal second-order susceptibility with m copies."""
    t0 = time.perf_counter()
    meta = _base_metadata(config)
    records = []
    tol = config.tolerance
    pointer = config.pointers[0]
    a_op = config.observables[0]
    d_sys = config.system_dim

    # (i) simultaneous pair: <r1 r2> - <r1><r2> = gamma^2 Re{xi kappa2_w}
    pair_cfg = ExperimentConfig(
        scenario="simultaneous-evolution",
        pointers=(pointer, pointer), observables=(a_op, a_op),
        psi_i=config.psi_i, psi_f=config.psi_f,
        hamiltonian=np.zeros((d_sys, d_sys)), tau=config.tau or 1.0,
        seed=config.seed, tolerance=tol, floor=config.floor)
    try:
        moments = sigma_moment_mmap(pair_cfg)
        lm = log_star(moments)
        wv_ctx = WeakValueContext.sequential(
            config.psi_i, config.psi_f,
            [np.eye(d_sys)] * 2, [a_op], floor=config.floor)
        kappa2 = simultaneous_weak_value(wv_ctx, M([1, 1])) - \
            simultaneous_weak_value(wv_ctx, M([1])) ** 2
        pair = M([1, 2])
        lhs = lm(pair).coefficient(pair)
        xi = xi_product_of_differences(pair_cfg.pointers, pair)
        rhs = complex((xi * kappa2).real)
        rec = _record(pair, lhs, rhs, tol, xi=xi, label="pair-variance")
        rec.extras["kappa2_weak"] = kappa2
        records.append(rec)

        # same display from per-subset coupling with the
        # difference-of-products xi (both readings of the printed identity)
        per_lhs = log_star(_per_subset(moments))(pair).coefficient(pair)
        xi_ps = xi_difference_of_products(pair_cfg.pointers, pair)
        rhs_ps = complex((xi_ps * kappa2).real)
        records.append(_record(pair, per_lhs, rhs_ps, tol, xi=xi_ps,
                               label="pair-variance-per-subset"))
    except SingularPostselectionError as exc:
        return _finish(config.scenario, config.seed, [], meta | {
            "reason": str(exc)}, t0, status="singular-postselection")

    # (ii) thermal copies: cumulant of m identical pointers vs d^m F
    if config.beta:
        copies = config.copies or (2,)
        expanded_obs = []
        for base, m in zip(config.observables, copies):
            expanded_obs.extend([base] * m)
        thermal_cfg = ExperimentConfig(
            scenario="thermal",
            pointers=(pointer,) * len(expanded_obs),
            observables=tuple(expanded_obs),
            hamiltonian=config.hamiltonian, beta=config.beta,
            seed=config.seed, tolerance=tol)
        lm_t = log_star(thermal_moment_mmap(thermal_cfg))
        n_exp = len(expanded_obs)
        full = M(range(1, n_exp + 1))
        lhs_t = lm_t(full).coefficient(full)
        xi_t = xi_thermal(thermal_cfg.pointers, full)
        collapsed = M([j for j, m in enumerate(copies, start=1)
                       for _ in range(m)])
        base_ctx = WeakValueContext.thermal(config.hamiltonian, config.beta,
                                            config.observables)
        z = thermal_partition_jet(base_ctx, tuple(copies))
        susc = free_energy_jet(z, base_ctx.beta).derivative(collapsed)
        rhs_t = complex(-config.beta * xi_t * susc)
        rec = _record(full, lhs_t, rhs_t, tol, xi=xi_t,
                      label="thermal-susceptibility")
        le_multi = partition_fstar(log_derivative, thermal_E_mmap(z),
                                   [collapsed])
        rec.rhs_alt = complex(xi_t * le_multi[collapsed])
        rec.alt_error = abs(lhs_t - rec.rhs_alt)
        rec.passed = rec.passed and rec.alt_error <= tol
        rec.extras["collapsed_multiset"] = str(collapsed)
        records.append(rec)

    return _finish(config.scenario, config.seed, records, meta, t0)


def verify_generating_function(config: ExperimentConfig) -> VerificationReport:
    """Partition-sum cumulants of a finite discrete joint distribution
    against jet differentiation of the log moment generating function."""
    t0 = time.perf_counter()
    values = config.outcome_values
    probs = np.asarray(config.probabilities, dtype=float).reshape(-1)
    n = len(values)
    sizes = [len(v) for v in values]
    if probs.shape[0] != int(np.prod(sizes)):
        raise DomainError("probability table does not match outcome grid")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise DomainError("probabilities must sum to 1 within 1e-12")
    meta = _base_metadata(config)
    meta["n_vars"] = n

    caps = tuple(config.copies) if config.copies else (2,) * n
    grid = np.array(np.meshgrid(*values, indexing="ij")).reshape(n, -1)

    def moment(a: Multiset) -> float:
        prod = np.ones_like(probs)
        for j in range(1, n + 1):
            if a.mult(j):
                prod = prod * grid[j - 1] ** a.mult(j)
        return float(np.sum(probs * prod))

    # independent route: jet-log of the moment generating function
    h = Jet(n, caps)
    for idx in range(probs.shape[0]):
        lin = Jet(n, caps, {M([j]): grid[j - 1][idx] for j in range(1, n + 1)})
        h = h + lin.exp() * probs[idx]
    lh = h.log()

    targets = [t if isinstance(t, Multiset) else M(t) for t in config.targets] \
        if config.targets else \
        [a for a in multiset_lattice(n, caps) if not a.is_empty and a.size <= 4]
    lf = partition_fstar(log_derivative, moment, targets)
    records = []
    for a in targets:
        lhs = complex(lf[a])
        rhs = lh.derivative(a)
        records.append(_record(a, lhs, rhs, config.tolerance))

    # two-variable expansion coefficients of the generating function
    if n >= 2:
        pair = M([1, 2])
        classical = moment(pair) - moment(M([1])) * moment(M([2]))
        records.append(_record(pair, lh.coefficient(pair), complex(classical),
                               config.tolerance, label="standard-expansion"))
        var1 = moment(M([1, 1])) - moment(M([1])) ** 2
        records.append(_record(M([1, 1]), lh.coefficient(M([1, 1])),
                               complex(var1 / 2), config.tolerance,
                               label="standard-expansion"))
    return _finish(config.scenario, config.seed, records, meta, t0)


def _base_metadata(config: ExperimentConfig) -> dict:
    meta = {
        "system_dim": config.system_dim if (
            config.psi_i is not None or config.hamiltonian is not None) else None,
        "n_pointers": config.n_pointers,
        "tolerance": config.tolerance,
    }
    if config.tau is not None:
        meta["tau"] = config.tau
    if config.beta is not None:
        meta["beta"] = config.beta
    return meta


VERIFIERS = {
    "sequential-per-subset": verify_theorem1,
    "sequential-all-coupled": verify_theorem3,
    "simultaneous-evolution": verify_theorem4,
    "thermal": verify_thermal,
    "multiset": verify_multiset,
    "genfun": verify_generating_function,
}


def run_verification(config: ExperimentConfig) -> VerificationReport:
    return VERIFIERS[config.scenario](config)
