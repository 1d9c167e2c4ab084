"""End-to-end verification of the weak-measurement cumulant identities.

Every theorem makes one claim: the lowest-joint-order coefficient of the
pointers' cumulant, the ring log* (jet division included) of their
jet-valued moment M-map, equals a factor xi times a weak-value cumulant.
`run_verification` is the one skeleton that checks it for every scenario:
it builds the scenario's claims, walks their targets and records each
comparison.  What differs between scenarios is one row of the table
`SCENARIOS`: the CLI aliases, the default tolerance, the claims builder
(moment map, weak-value cumulant, xi, whether the real part is taken,
side checks and report metadata) and the CLI sweep axis.  Every
right-hand weak-value cumulant (log* A_w of thm1 and thm3, log* D of thm4,
log* E of thermal and the multiset copies, the generating function's) is
taken by the reference partition sum `algebra.partition_fstar`, so the two
sides share no ring code: the ring log* reads only moment maps, apart from
the free-energy jet logarithm, the paper's second statement of the thermal
identity.  No small-coupling limit is ever taken
numerically: the theorems are statements about a single Taylor
coefficient and jets produce that coefficient exactly.

There is one state pipeline per coupling kind (sequential kicks, finite
window, thermal), and it always couples every pointer.  The kick chain
and the window start from a pure product state, so both carry the pure
joint jet vector (the chain kick by kick, the window as e^X applied to the
initial vector) and postselect it with `quantum.postselect_pointers`; no
joint density is formed.  The window and thermal generators come from
`quantum.coupled_generator` as their n + 1 dense blocks: the window places
them in the lattice stack its Taylor exponential takes, and the thermal
lhs takes only the n couplings, its constant being a diagonal it passes
as points.  Every pipeline reads its pointer moments
with the one reader `quantum.readout_moments`, off an unnormalised
pointer-space block stack: the postselected pointer state of the chain and
the window, the thermal Boltzmann jet traced over the system (the spectral
exponential returns it so).  `_moment_mmap` then divides every moment by the
empty-subset one, the trace (the postselection probability or the
partition function), in the jet ring; scaling by a scalar changes log*
only at the empty set, so this is the one normalisation.  This module
never sees the joint-space tensor layout.  Before the kick chain builds
its state, the largest pair table that the cumulant of its moments takes,
over all but the first label of the jet-valued ring (`jets._fstar`), is
checked against the dense size limit.  Per-subset coupling (the moment of
a measured with only the pointers in a coupled) is not a separate
pipeline: "pointer j uncoupled" is gamma_j = 0, a ring homomorphism, so
that moment is the all-coupled one restricted to the monomials inside a.
On multilinear caps a storage position is the bit set of its labels, so
that restriction is one mask over (subset, monomial) positions, as is the
sub-support read of thm3.

A tolerance miss never raises; misses land in the report.
Singular-postselection instances are reported with a distinct status and
skipped.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .algebra import MMap, log_derivative, log_star, partition_fstar
from .combinatorics import Multiset, multiset_lattice
from .errors import DEFAULT_FLOOR, DomainError, SingularPostselectionError
from .jets import (
    _PAIR_BYTES,
    Jet,
    JetMatrix,
    _check_size,
    _pair_table,
    _position,
    _ring_product,
    _workspace,
    jet_matrix_exp,
    spectral_jet_matrix_exp,
)
from .quantum import (
    _draw,
    _hermitian,
    _pointer,
    _state,
    _unitary,
    coupled_generator,
    postselect_pointers,
    postselected_pointer_state,
    product_state,
    readout_moments,
)
from .weakvalues import (
    free_energy_jet,
    script_D_mmap,
    script_D_monte_carlo,
    sequential_weak_value_mmap,
    simultaneous_weak_value,
    thermal_E_mmap,
    thermal_partition_jet,
)

M = Multiset


@dataclass
class ExperimentConfig:
    """Full description of one verification scenario.  Without pointers,
    the same fields describe the weak-value context of a query: the
    builders of `momalg.weakvalues` read psi_i, psi_f, unitaries,
    hamiltonian, tau, beta, floor and the observables."""

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
    floor: float = DEFAULT_FLOOR
    mc_samples: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise DomainError(f"unknown scenario {self.scenario!r}")
        if self.outcome_values and self.probabilities is None:
            raise DomainError("outcome values without probabilities")

    @property
    def n_pointers(self) -> int:
        return len(self.pointers)

    @property
    def system_dim(self) -> int:
        if self.hamiltonian is not None:
            return self.hamiltonian.shape[0]
        return self.psi_i.shape[0]


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
    """Deterministic scenario instance; substreams keyed by (seed, role).
    zero_hamiltonian sets H_S = 0 in every scenario that has one (window,
    thermal, multiset)."""
    cfg = ExperimentConfig(scenario=scenario, seed=seed, tolerance=(
        SCENARIOS[scenario].tolerance if tolerance is None else tolerance))
    if scenario == "genfun":
        rng = _stream(seed, _STREAM_DISTRIBUTION)
        sizes = [int(rng.integers(2, 4)) for _ in range(n_vars)]
        # the largest pair table of the jet log (`jets._fstar`), caps
        # (2,)*(n - 1), 6^(n - 1) pairs, costs more than the joint pmf (at
        # most 3^n doubles): priced before either
        _check_size("lattice pairs", 6 ** (n_vars - 1), _PAIR_BYTES)
        cfg.outcome_values = tuple(rng.uniform(-1, 1, s) for s in sizes)
        cfg.probabilities = rng.dirichlet(np.ones(math.prod(sizes)))
        return cfg

    # each stream's objects from one draw of its normals (`quantum._draw`)
    st = _stream(seed, _STREAM_STATES)
    ob = _stream(seed, _STREAM_OBSERVABLES)
    pt = _stream(seed, _STREAM_POINTERS)
    if scenario == "multiset":
        # one pointer, copied m_j times for observable j
        cfg.pointers = tuple(_draw(pt, [_pointer], pointer_dim)) * sum(copies)
        cfg.copies, cfg.tau, n_pointers = tuple(copies), tau, len(copies)
    else:
        cfg.pointers = tuple(_draw(pt, [_pointer] * n_pointers, pointer_dim))
    cfg.observables = tuple(_draw(ob, [_hermitian] * n_pointers, system_dim))
    kinds = [] if scenario == "thermal" else [_state, _state]
    has_h = scenario in ("thermal", "multiset", "simultaneous-evolution")
    if has_h and not zero_hamiltonian:
        kinds.append(_hermitian)
    drawn = _draw(st, kinds, system_dim)
    if scenario != "thermal":
        cfg.psi_i, cfg.psi_f = drawn[:2]
    if has_h:
        cfg.hamiltonian = np.zeros((system_dim, system_dim)) \
            if zero_hamiltonian else drawn[-1]
    if scenario in ("thermal", "multiset"):
        cfg.beta = beta
    elif scenario == "simultaneous-evolution":
        cfg.tau, cfg.mc_samples = tau, mc_samples
    else:
        cfg.unitaries = tuple(_draw(_stream(seed, _STREAM_UNITARIES),
                                    [_unitary] * (n_pointers + 1), system_dim))
    return cfg


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
        out *= pointers[j - 1].mixed_covariance
    return complex(out)


def xi_thermal_literal(pointers, a: Multiset) -> complex:
    """The same factor with raw (unnormalized) traces, as printed."""
    out = 1.0 + 0j
    for j in a.elements():
        out *= pointers[j - 1].trace_covariance
    return complex(out)


# ---------------------------------------------------------------------------
# moment-map pipelines: one state per coupling kind (sequential kicks,
# finite window, thermal), every pointer coupled


def _moment_mmap(blocks: np.ndarray, readouts) -> MMap:
    """a -> tr(B prod_{j in a} r_j) / tr B for every subset a of the
    pointers, B the unnormalised pointer state held in the (lattice, D_p,
    D_p) block stack `blocks`: an M-map of multilinear jets.  The raw moment
    rows come from quantum.readout_moments; each is divided by the
    empty-subset row, tr B, in the jet ring (its inverse, then one truncated
    product per row), the one place where a state is normalised."""
    n = len(readouts)
    caps = (1,) * n
    rows = readout_moments(blocks, readouts)
    return MMap._over(n, Jet._dense(2 * n, caps + caps, _ring_product(
        _pair_table(caps), rows, Jet._dense(n, caps, rows[0]).inverse()._vec
    ).ravel()))


def _per_subset(moments: MMap) -> MMap:
    """Entry a at gamma_j = 0 for every j outside a: the moment of the
    experiment that couples only the pointers in a.  Zeroing couplings is a
    ring homomorphism, so it commutes with the products, traces and jet
    division that built each entry.  The map is multilinear in both its
    subsets and its jets, so a position is the bit set of its labels and
    entry a keeps the monomial b iff pos_b & ~pos_a == 0 (Jet.restrict on
    every entry at once)."""
    pos = np.arange(2 ** moments.n)
    keep = (pos & ~pos[:, None]) == 0            # [a, b]: b inside a
    rows = moments.jet._vec.reshape(keep.shape)
    return MMap._over(moments.n, moments.jet._like(
        np.where(keep, rows, 0).ravel()))


def _sequential_state(config: ExperimentConfig) -> np.ndarray:
    """The unnormalised postselected pointer state of the kick chain, every
    pointer coupled, as a block stack.  First, before any state is built,
    the largest pair table that the cumulant of its moments takes, over
    all but one of the 2n labels of the jet-valued ring (`jets._fstar`),
    is refused if it would not fit in MAX_DENSE_BYTES (jets._pair_table
    raises DomainError)."""
    _pair_table((1,) * (2 * config.n_pointers - 1))
    return postselected_pointer_state(
        config.psi_i, config.psi_f, config.unitaries, config.pointers,
        config.observables, floor=config.floor)


def all_coupled_moment_mmap(config: ExperimentConfig) -> MMap:
    """<prod_{j in a} r_j> under the single all-pointers-coupled state eta
    (the thm3 scenario)."""
    return _moment_mmap(_sequential_state(config),
                        [p.r for p in config.pointers])


def per_subset_moment_mmap(config: ExperimentConfig) -> MMap:
    """z(a) with only the pointers in `a` coupled (the thm1 scenario), read
    from the all-coupled moments by restriction."""
    return _per_subset(all_coupled_moment_mmap(config))


def _sigma_state(config: ExperimentConfig) -> np.ndarray:
    """Unnormalised postselected pointer state (a block stack) for the
    finite-window coupling H = H_S (x) 1 + sum gamma_k A_k (x) (s_k / tau)
    over a window tau: the pure joint jet vector e^{-i tau H} |psi_i,
    phi_1, ..., phi_n>, postselected on psi_f."""
    n = config.n_pointers
    blocks = coupled_generator(config.hamiltonian, config.observables,
                               config.pointers, -1j * config.tau, -1j)
    evol = jet_matrix_exp(JetMatrix.from_terms(
        {(j,) if j else (): block for j, block in enumerate(blocks)},
        blocks.shape[1], n, (1,) * n))
    psi0 = product_state(config.psi_i, config.pointers).reshape(-1)
    return postselect_pointers(evol.blocks @ psi0, config.psi_f,
                               n, config.floor)


def sigma_moment_mmap(config: ExperimentConfig) -> MMap:
    return _moment_mmap(_sigma_state(config), [p.r for p in config.pointers])


def thermal_moment_mmap(config: ExperimentConfig) -> MMap:
    """<prod r_j> under rho = e^{-beta H}/tr e^{-beta H},
    H = H_S (x) 1 + sum gamma_j A_j (x) (s_j / beta), read off the
    Boltzmann jet e^{-beta H}.  The jet takes the spectral route, and the
    system-side partition jet of the right-hand sides the Taylor route, so
    that the two sides share no exponential algorithm.

    The spectral route expands about a diagonal constant block, so H is
    built in the eigenbasis of H_S: H_S = U diag(w) U^H by eigh at the
    system's size, U made unitary to working precision by one Newton-Schulz
    step, U <- U (3 - U^H U) / 2, and w ordered so that -beta w ascends
    (beta > 0, checked first).  The constant block -beta diag(w) (x) 1 is
    passed as its points, each -beta w_s repeated once per pointer-space
    dimension, and is never built; only the couplings are, from the
    observables U^H A_j U, Hermitian to rounding; nothing relies on more,
    since the Boltzmann jet is only traced against 1 (x) R.  They are
    written into this thread's workspace array for them (`jets`), which
    the next run at the same shape reuses.  The Boltzmann
    jet is then (U (x) 1)^H e^{-beta H} (U (x) 1), and every moment
    tr(B (1 (x) R)) is read straight off it: conjugating B by U (x) 1
    leaves a trace against 1 (x) R unchanged, so nothing is changed back.
    The spectral route is given the system's dimension and returns B traced
    over the system, tr_S B, a pointer-space block stack, since
    tr(B (1 (x) R)) = tr(tr_S(B) R): the same reader and normaliser then
    serve it as serve the postselected pointer states."""
    if not config.beta > 0:
        raise DomainError("beta must be positive")
    w, u = np.linalg.eigh(config.hamiltonian)
    u = u @ (1.5 * np.eye(len(w)) - 0.5 * (u.conj().T @ u))
    w, u = w[::-1], u[:, ::-1]                 # -beta w ascending
    observables = [u.conj().T @ a @ u for a in config.observables]
    dim = len(w) * math.prod(p.dim for p in config.pointers)
    couplings = coupled_generator(
        config.hamiltonian, observables, config.pointers, None, -1,
        out=_workspace("thermal couplings", (config.n_pointers, dim, dim),
                       f"generator blocks of dimension {dim}"))
    points = np.repeat(-config.beta * w, couplings.shape[1] // len(w))
    boltz = spectral_jet_matrix_exp(points, couplings, config.system_dim)
    return _moment_mmap(boltz.blocks, [p.r for p in config.pointers])


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
            item = {"subset": r.subset, "label": r.label,
                    "lhs_re": r.lhs.real, "lhs_im": r.lhs.imag,
                    "rhs_re": r.rhs.real, "rhs_im": r.rhs.imag,
                    "abs_error": r.abs_error, "rel_error": r.rel_error,
                    "passed": r.passed}
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


def _finish(config: ExperimentConfig, records, metadata, t0,
            status: str = "ok") -> VerificationReport:
    return VerificationReport(
        scenario=config.scenario, seed=config.seed,
        passed=all(r.passed for r in records) if status == "ok" else None,
        max_abs_error=max((r.abs_error for r in records), default=0.0),
        records=records, metadata=metadata,
        runtime_s=time.perf_counter() - t0, status=status)


def _targets(config: ExperimentConfig):
    if config.targets:
        return [t if isinstance(t, Multiset) else M(t) for t in config.targets]
    n = config.n_pointers
    return [a for a in multiset_lattice(n, (1,) * n) if not a.is_empty]


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


# ---------------------------------------------------------------------------
# claims: what each scenario checks


class Claim(NamedTuple):
    """lhs(a) = rhs(a, xi(a)) on every target a, xi(a) the pointer factor
    (None where the identity has none).  alt(a, xi) is a second route to the
    right-hand side that must agree too; extras(record, a) then adds side
    checks to the record."""

    targets: list
    lhs: Callable
    rhs: Callable
    xi: Callable | None = None
    label: str = ""
    alt: Callable | None = None
    extras: Callable | None = None


def _lowest_order(moments: MMap, config: ExperimentConfig, xi, kappa,
                  real_part: bool = True, targets=None, **kw) -> Claim:
    """The theorems' claim: the coefficient of the monomial a in
    [log* moments](a) equals xi(config.pointers, a) kappa(a), kappa a
    weak-value cumulant, real part taken except for the thermal identity."""
    cumulant = log_star(moments)
    part = (lambda v: complex(v.real)) if real_part else complex
    return Claim(_targets(config) if targets is None else targets,
                 lambda a: cumulant(a).coefficient(a),
                 lambda a, x: part(x * kappa(a)),
                 lambda a: xi(config.pointers, a), **kw)


def _cumulant(weak: MMap, config: ExperimentConfig) -> Callable:
    """a -> log* weak(a) on the claim targets, by the reference partition
    sum: the weak-value cumulant of a right-hand side, taken without the
    ring log* of its left-hand side."""
    return partition_fstar(log_derivative, weak, _targets(config)).__getitem__


def _per_subset_claims(config: ExperimentConfig, meta: dict) -> list:
    """Per-subset coupling (thm1): Re{xi log* A_w(a)} with the
    difference-of-products xi."""
    moments = per_subset_moment_mmap(config)
    return [_lowest_order(moments, config, xi_difference_of_products, _cumulant(
        sequential_weak_value_mmap(config), config))]


def _all_coupled_claims(config: ExperimentConfig, meta: dict) -> list:
    """All pointers coupled (thm3): cumulants of every subset of the single
    eta, with the product-of-differences xi.

    Also asserts the expansion structure on the mean-shifted readouts
    r_j - <r_j> (the proof's centered map, whose cumulant the raw one
    equals at top order): every jet coefficient of the cumulant whose
    support misses part of `a` must vanish.
    """
    eta = _sequential_state(config)
    moments = _moment_mmap(eta, [p.r for p in config.pointers])
    lc = log_star(_moment_mmap(eta, [
        np.asarray(p.r) - p.expect(p.r) * np.eye(p.dim)
        for p in config.pointers]))
    pos = np.arange(2 ** lc.n)
    rows = lc.jet._vec.reshape(len(pos), -1)

    def sub_support(rec, a):
        # row a of the multilinear map is the jet lc(a); positions are label
        # bit sets, so the monomials b that miss a label of a are those
        # with pos_a & ~pos_b != 0 (Python abs: numpy's rounds differently)
        at = _position(lc.caps, a)
        sub = max(map(abs, rows[at, (at & ~pos) != 0].tolist()),
                  default=0.0)
        meta["max_sub_support_coeff"] = max(meta["max_sub_support_coeff"], sub)
        rec.extras["max_sub_support_coeff"] = sub

    claim = _lowest_order(moments, config, xi_product_of_differences, _cumulant(
        sequential_weak_value_mmap(config), config), extras=sub_support)
    meta["max_sub_support_coeff"] = 0.0
    return [claim]


def _window_claims(config: ExperimentConfig, meta: dict) -> list:
    """Simultaneous coupling over a window with system evolution (thm4):
    Re{xi log* D(a)}; H_S = 0 reproduces the plain simultaneous theorem
    (thm2) and D collapses to the symmetrized weak value."""
    moments = sigma_moment_mmap(config)
    dmap = script_D_mmap(config)
    zero_h = meta["theorem2_regime"] = \
        bool(np.max(np.abs(config.hamiltonian)) == 0)

    def cross_checks(rec, a):
        if zero_h:
            sym = simultaneous_weak_value(config, a)
            rec.extras["symmetrized_weak_value"] = sym
            rec.extras["d_vs_symmetrized"] = abs(dmap(a) - sym)
        if config.mc_samples and a.size <= 2:
            est, se = script_D_monte_carlo(config, a, config.mc_samples,
                                           seed=(config.seed or 0) + 1)
            rec.extras["mc_estimate"] = est
            rec.extras["mc_se"] = se
            rec.extras["mc_within_3se"] = bool(abs(dmap(a) - est) <= 3 * se + 1e-12)

    return [_lowest_order(moments, config, xi_product_of_differences,
                          _cumulant(dmap, config), extras=cross_checks)]


def _thermal_claims(config: ExperimentConfig, meta: dict) -> list:
    """Thermal equilibrium: pointer cumulant coefficients against both
    xi log* E(a) (partition-sum route) and -beta xi dF (jet-log route).

    xi uses normalized pointer traces (the gamma = 0 pointer state is
    maximally mixed); the raw-trace variant of the printed factor is
    reported alongside with its ratio to the computed value.
    """
    moments = thermal_moment_mmap(config)
    targets = _targets(config)
    le, f_jet = _thermal_routes(config, (1,) * config.n_pointers, targets)
    meta["max_mutual_error"] = 0.0
    meta["pointer_dims"] = [p.dim for p in config.pointers]

    def literal_xi(rec, a):
        mutual = abs(rec.rhs - rec.rhs_alt)
        meta["max_mutual_error"] = max(meta["max_mutual_error"], mutual)
        rec.passed = rec.passed and mutual <= config.mutual_tolerance
        xi_lit = rec.extras["xi_literal"] = xi_thermal_literal(config.pointers, a)
        lit = rec.extras["rhs_with_literal_xi"] = complex(xi_lit * le[a])
        if abs(rec.lhs) > 0:
            rec.extras["literal_over_lhs_ratio"] = lit / rec.lhs
        rec.extras["mutual_error"] = mutual

    return [_lowest_order(
        moments, config, xi_thermal, le.__getitem__, real_part=False,
        targets=targets, extras=literal_xi,
        alt=lambda a, xi: complex(-config.beta * xi * f_jet.derivative(a)))]


def _thermal_routes(config: ExperimentConfig, caps, at) -> tuple:
    """The two routes to the thermal weak-value cumulants, fed by one
    partition jet on `caps`: the reference partition sum log* E at the
    multisets `at`, and the free-energy jet (the jet logarithm)."""
    z = thermal_partition_jet(config, caps)
    return (partition_fstar(log_derivative, thermal_E_mmap(z), at),
            free_energy_jet(z, config.beta))


def _multiset_claims(config: ExperimentConfig, meta: dict) -> list:
    """Repeated-pointer identities: the pair variance check (two identical
    pointers coupled through the same observable, simultaneous coupling)
    and the thermal second-order susceptibility with m copies."""
    pointer = config.pointers[0]
    a_op = config.observables[0]
    d_sys = config.system_dim

    # (i) simultaneous pair: <r1 r2> - <r1><r2> = gamma^2 Re{xi kappa2_w}
    pair_cfg = replace(config, scenario="simultaneous-evolution",
                       pointers=(pointer, pointer), observables=(a_op, a_op),
                       hamiltonian=np.zeros((d_sys, d_sys)),
                       tau=config.tau or 1.0)
    moments = sigma_moment_mmap(pair_cfg)
    kappa2 = simultaneous_weak_value(config, M([1, 1])) - \
        simultaneous_weak_value(config, M([1])) ** 2
    pair = [M([1, 2])]
    claims = [
        _lowest_order(moments, pair_cfg, xi_product_of_differences,
                      lambda a: kappa2, targets=pair, label="pair-variance",
                      extras=lambda rec, a: rec.extras.update(kappa2_weak=kappa2)),
        # same display from per-subset coupling with the
        # difference-of-products xi (both readings of the printed identity)
        _lowest_order(_per_subset(moments), pair_cfg, xi_difference_of_products,
                      lambda a: kappa2, targets=pair,
                      label="pair-variance-per-subset")]
    if not config.beta:
        return claims

    # (ii) thermal copies: cumulant of m identical pointers vs d^m F
    copies = config.copies or (2,)
    expanded_obs = tuple(base for base, m in zip(config.observables, copies)
                         for _ in range(m))
    thermal_cfg = replace(config, scenario="thermal", observables=expanded_obs,
                          pointers=(pointer,) * len(expanded_obs))
    lm_t = log_star(thermal_moment_mmap(thermal_cfg))
    collapsed = M([j for j, m in enumerate(copies, start=1)
                   for _ in range(m)])
    le_multi, f_jet = _thermal_routes(config, tuple(copies), [collapsed])
    susc = f_jet.derivative(collapsed)
    claims.append(Claim(
        [M(range(1, thermal_cfg.n_pointers + 1))],
        lambda a: lm_t(a).coefficient(a),
        lambda a, xi: complex(-config.beta * xi * susc),
        lambda a: xi_thermal(thermal_cfg.pointers, a),
        "thermal-susceptibility",
        alt=lambda a, xi: complex(xi * le_multi[collapsed]),
        extras=lambda rec, a: rec.extras.update(
            collapsed_multiset=str(collapsed))))
    return claims


def _generating_jet(values, probs: np.ndarray, caps: tuple) -> Jet:
    """E[exp(sum_j gamma_j x_j)] for the joint pmf `probs` (C order) on the
    grid of the outcome values `values`, truncated at the caps.  Each
    factor exp(gamma_j x_j) is sum_{m <= c_j} x_j^m gamma_j^m / m!, so the
    coefficient tensor is the pmf contracted along each variable's axis
    with its table x^m / m!, which appends that variable's multiplicity
    axis: the storage order, label 1 slowest.  The jet's coefficients are
    priced before the first contraction."""
    _check_size("jet coefficients", math.prod(c + 1 for c in caps), 16)
    h = probs.reshape([len(v) for v in values])
    for v, cap in zip(values, caps):
        h = np.tensordot(h, np.power.outer(v, np.arange(cap + 1)) / [
            math.factorial(m) for m in range(cap + 1)], axes=(0, 0))
    return Jet._dense(len(values), caps, h.ravel().astype(complex))


def _genfun_claims(config: ExperimentConfig, meta: dict) -> list:
    """Partition-sum cumulants of a finite discrete joint distribution
    against jet differentiation of the log moment generating function."""
    values = config.outcome_values
    probs = np.asarray(config.probabilities, dtype=float).reshape(-1)
    n = len(values)
    if probs.shape[0] != math.prod(len(v) for v in values):
        raise DomainError("probability table does not match outcome grid")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise DomainError("probabilities must sum to 1 within 1e-12")
    meta["n_vars"] = n

    caps = tuple(config.copies) if config.copies else (2,) * n
    grid = np.array(np.meshgrid(*values, indexing="ij")).reshape(n, -1)

    def moment(a: Multiset) -> float:
        prod = np.ones_like(probs)
        for j in a.support:
            prod = prod * grid[j - 1] ** a.mult(j)
        return float(np.sum(probs * prod))

    # independent route: jet-log of the moment generating function
    lh = _generating_jet(values, probs, caps).log()

    targets = _targets(config) if config.targets else \
        [a for a in multiset_lattice(n, caps) if not a.is_empty and a.size <= 4]
    lf = partition_fstar(log_derivative, moment, targets)
    claims = [Claim(targets, lambda a: complex(lf[a]),
                    lambda a, _: lh.derivative(a))]

    # two-variable expansion coefficients of the generating function
    if n >= 2:
        pair, square = M([1, 2]), M([1, 1])
        classical = {pair: moment(pair) - moment(M([1])) * moment(M([2])),
                     square: (moment(square) - moment(M([1])) ** 2) / 2}
        claims.append(Claim([pair, square], lh.coefficient,
                            lambda a, _: complex(classical[a]),
                            label="standard-expansion"))
    return claims


# ---------------------------------------------------------------------------
# the scenario table and the one verification skeleton


class Scenario(NamedTuple):
    """A row of the scenario table: what differs between scenarios."""

    aliases: tuple                   # CLI names
    tolerance: float                 # default comparison tolerance
    claims: Callable                 # (config, metadata) -> [Claim]
    sweep: str | None = None         # CLI axis swept for each seed


SCENARIOS = {
    "sequential-per-subset": Scenario(("thm1",), 1e-8, _per_subset_claims),
    "sequential-all-coupled": Scenario(("thm3",), 1e-8, _all_coupled_claims),
    "simultaneous-evolution": Scenario(          # thm2: thm4 at H_S = 0
        ("thm4", "thm2"), 1e-7, _window_claims, sweep="tau"),
    "thermal": Scenario(("thermal",), 1e-8, _thermal_claims, sweep="beta"),
    "multiset": Scenario(                        # repeated-pointer identities
        ("multiset",), 1e-8, _multiset_claims),
    "genfun": Scenario(("genfun",), 1e-10, _genfun_claims),
}


def run_verification(config: ExperimentConfig) -> VerificationReport:
    """Build the scenario's claims, then check each on its targets.  Claims
    builders add report metadata only after their last state build."""
    t0 = time.perf_counter()
    meta = _base_metadata(config)
    try:
        claims = SCENARIOS[config.scenario].claims(config, meta)
    except SingularPostselectionError as exc:
        return _finish(config, [], meta | {"reason": str(exc)}, t0,
                       status="singular-postselection")
    records = []
    for claim in claims:
        for a in claim.targets:
            xi = claim.xi(a) if claim.xi else None
            rec = _record(a, claim.lhs(a), claim.rhs(a, xi), config.tolerance,
                          xi=xi, label=claim.label)
            if claim.alt:
                rec.rhs_alt = claim.alt(a, xi)
                rec.alt_error = abs(rec.lhs - rec.rhs_alt)
                rec.passed = rec.passed and rec.alt_error <= config.tolerance
            if claim.extras:
                claim.extras(rec, a)
            records.append(rec)
    return _finish(config, records, meta, t0)
