"""Weak-value quantities as M-map builders.

Sequential and simultaneous weak values are direct matrix-element ratios.
The evolution-weighted average D(a) and the thermal Taylor-coefficient map
E(a) are computed exactly through jets: the Dyson-series lemma makes the
mixed gamma-derivative of a matrix exponential equal to the permutation-
summed simplex integral, so extracting a jet coefficient IS evaluating
that integral, with no sampling noise.  The Monte-Carlo sampler of D's
simplex integral is kept as an independent cross-check (`momalg verify
--samples`), never the production path.

Conventions fixed here (and exercised by the tests):

* D(a) = i^|a| * d^gamma_a <psi_f| exp(-i tau H - i sum gamma_j A_j)
  |psi_i> / <psi_f| e^{-i tau H} |psi_i>, derivatives at gamma = 0.
* E(a) = d^gamma_a tr exp(-beta H - sum gamma_j A_j) / tr e^{-beta H},
  where gamma_j = beta * (field strength j).  With this scaling
  log* E(a) = -beta * d^gamma_a F exactly, F the free energy; no extra
  beta^|a| division is applied.
* Repeated labels in `a` use the derivative convention (monomial
  coefficient times multiplicity factorials).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import MMap
from .combinatorics import EMPTY, Multiset
from .errors import (
    DEFAULT_FLOOR,
    DomainError,
    ShapeMismatchError,
    SingularPostselectionError,
)
from .jets import Jet, JetMatrix, _pair_table, jet_matrix_exp

_I_POWERS = np.array([1, 1j, -1, -1j])    # i^k at k mod 4, exactly


@dataclass(frozen=True)
class WeakValueContext:
    """System-side data for one weak-value family.

    kind 'sequential' uses unitaries U_1..U_{n+1} between couplings;
    'evolution' uses a Hamiltonian over a window tau; 'thermal' uses a
    Hamiltonian and an inverse temperature (no pre/postselection).
    """

    kind: str
    observables: tuple
    psi_i: np.ndarray | None = None
    psi_f: np.ndarray | None = None
    unitaries: tuple = ()
    hamiltonian: np.ndarray | None = None
    tau: float | None = None
    beta: float | None = None
    floor: float = DEFAULT_FLOOR

    @classmethod
    def sequential(cls, psi_i, psi_f, unitaries, observables,
                   floor: float = DEFAULT_FLOOR) -> "WeakValueContext":
        observables = tuple(np.asarray(a, dtype=complex) for a in observables)
        unitaries = tuple(np.asarray(u, dtype=complex) for u in unitaries)
        if len(unitaries) != len(observables) + 1:
            raise ShapeMismatchError("need n+1 unitaries for n observables")
        return cls("sequential", observables,
                   psi_i=np.asarray(psi_i, dtype=complex),
                   psi_f=np.asarray(psi_f, dtype=complex),
                   unitaries=unitaries, floor=floor)

    @classmethod
    def evolution(cls, psi_i, psi_f, hamiltonian, tau, observables,
                  floor: float = DEFAULT_FLOOR) -> "WeakValueContext":
        return cls("evolution",
                   tuple(np.asarray(a, dtype=complex) for a in observables),
                   psi_i=np.asarray(psi_i, dtype=complex),
                   psi_f=np.asarray(psi_f, dtype=complex),
                   hamiltonian=np.asarray(hamiltonian, dtype=complex),
                   tau=float(tau), floor=floor)

    @classmethod
    def thermal(cls, hamiltonian, beta, observables,
                floor: float = DEFAULT_FLOOR) -> "WeakValueContext":
        if beta <= 0:
            raise DomainError("beta must be positive")
        return cls("thermal",
                   tuple(np.asarray(a, dtype=complex) for a in observables),
                   hamiltonian=np.asarray(hamiltonian, dtype=complex),
                   beta=float(beta), floor=floor)

    @property
    def n(self) -> int:
        return len(self.observables)

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0] if self.observables else \
            self.hamiltonian.shape[0]

    def caps_for(self, a: Multiset) -> tuple[int, ...]:
        return tuple(a.mult(j) for j in range(1, self.n + 1))


# ---------------------------------------------------------------------------
# sequential and simultaneous weak values


def _sequential_numerator(ctx: WeakValueContext, a: Multiset) -> complex:
    v = ctx.psi_i
    for j in range(1, ctx.n + 1):
        v = ctx.unitaries[j - 1] @ v
        if a.mult(j):
            if a.mult(j) > 1:
                raise DomainError("sequential weak values take subsets, "
                                  "not repeated labels")
            v = ctx.observables[j - 1] @ v
    v = ctx.unitaries[ctx.n] @ v
    return complex(np.vdot(ctx.psi_f, v))


def sequential_weak_value(ctx: WeakValueContext, a: Multiset) -> complex:
    """A_w(a): insert A_j between the unitaries exactly when j is in a."""
    den = _sequential_numerator(ctx, EMPTY)
    if abs(den) <= ctx.floor:
        raise SingularPostselectionError(
            f"postselection amplitude {abs(den):.3e} below floor")
    return _sequential_numerator(ctx, a) / den


def sequential_weak_value_mmap(ctx: WeakValueContext) -> MMap:
    """The subset map a -> A_w(a); A_w(empty) = 1."""
    return MMap.from_function(ctx.n, lambda a: sequential_weak_value(ctx, a))


def simultaneous_weak_value(ctx: WeakValueContext, a: Multiset) -> complex:
    """(1/k!) sum over orderings of <psi_f| A ... A |psi_i> / <psi_f|psi_i>.

    Repeated labels are allowed; the permutation sum runs over the
    expanded element list, which reproduces for instance (A^2)_w at {j,j}.
    """
    den = complex(np.vdot(ctx.psi_f, ctx.psi_i))
    if abs(den) <= ctx.floor:
        raise SingularPostselectionError(
            f"overlap {abs(den):.3e} below floor")
    elements = a.elements()
    if not elements:
        return 1.0
    total = 0j
    count = 0
    for order in itertools.permutations(elements):
        v = ctx.psi_i
        for lab in order:
            v = ctx.observables[lab - 1] @ v
        total += complex(np.vdot(ctx.psi_f, v))
        count += 1
    return total / (count * den)


# ---------------------------------------------------------------------------
# evolution-weighted weak values (jets + oracles)


def evolution_weak_value(ctx: WeakValueContext, order, taus) -> complex:
    """(A_{o_k}, ..., A_{o_1})_w[tau_{k+1}, ..., tau_1]: alternate
    e^{-i H tau} episodes with observable insertions; o_1 acts first."""
    taus = list(taus)
    order = list(order)
    if len(taus) != len(order) + 1:
        raise ShapeMismatchError("need k+1 episode lengths for k insertions")
    w, vecs = np.linalg.eigh(ctx.hamiltonian)

    def evolve(v, t):
        return vecs @ (np.exp(-1j * w * t) * (vecs.conj().T @ v))

    v = evolve(ctx.psi_i, taus[0])
    for lab, t in zip(order, taus[1:]):
        v = ctx.observables[lab - 1] @ v
        v = evolve(v, t)
    den = complex(np.vdot(ctx.psi_f, evolve(ctx.psi_i, sum(taus))))
    if abs(den) <= ctx.floor:
        raise SingularPostselectionError("postselection amplitude below floor")
    return complex(np.vdot(ctx.psi_f, v)) / den


def _system_generator(ctx: WeakValueContext, caps, c: complex,
                      k: complex) -> JetMatrix:
    """The system-space jet {(): c H, (j,): k A_j for every j with cap_j >=
    1}: the generator of the D map and of the partition jet."""
    terms = {(j,): k * ctx.observables[j - 1]
             for j, cap in enumerate(caps, start=1) if cap}
    terms[()] = c * ctx.hamiltonian
    return JetMatrix.from_terms(terms, ctx.dim, len(caps), tuple(caps))


def _evolution_generating_jet(ctx: WeakValueContext, caps) -> Jet:
    """<psi_f| exp(-i tau H - i sum gamma_j A_j) |psi_i> as a jet."""
    return jet_matrix_exp(_system_generator(ctx, caps, -1j * ctx.tau, -1j)
                          ).bilinear(ctx.psi_f, ctx.psi_i)


def script_D(ctx: WeakValueContext, a: Multiset) -> complex:
    """The time-and-permutation averaged sequential weak value, exactly.

    Computed as i^|a| times the gamma-derivative of the generating matrix
    element, normalized by the free amplitude; by the Dyson-series lemma
    this equals the simplex integral definition.
    """
    return 1.0 if a.is_empty else script_D_mmap(ctx, ctx.caps_for(a))(a)


def script_D_mmap(ctx: WeakValueContext, caps=None) -> MMap:
    """D over the whole lattice from a single jet exponential: the jet of
    the generating matrix element, monomial a scaled by i^|a| and by the
    free amplitude, is the map's normalised array."""
    caps = tuple(caps) if caps is not None else (1,) * ctx.n
    gen = _evolution_generating_jet(ctx, caps)
    den = gen.constant
    if abs(den) <= ctx.floor:
        raise SingularPostselectionError(
            f"postselection amplitude {abs(den):.3e} below floor")
    phases = _I_POWERS[_pair_table(caps).grade % 4]
    return MMap._dense(ctx.n, caps, (), (phases * gen._vec / den)[:, None])


def _dirichlet_times(rng, total, parts, samples):
    """Uniform simplex samples via exponential spacings."""
    spacings = rng.exponential(1.0, (samples, parts))
    return total * spacings / spacings.sum(axis=1, keepdims=True)


def script_D_monte_carlo(ctx: WeakValueContext, a: Multiset, samples: int,
                         seed: int) -> tuple[complex, float]:
    """Direct sampling of the simplex-integral definition of D(a).

    Uniform permutations of the (expanded) element list and uniform
    Dirichlet splits of the window; the 1/tau^k prefactor cancels the
    simplex volume tau^k/k! against the k! permutations, so the estimator
    is the plain sample mean of evolution-weighted weak values.  Returns
    (estimate, standard error).
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    elements = a.elements()
    k = len(elements)
    w, vecs = np.linalg.eigh(ctx.hamiltonian)
    den = complex(np.vdot(ctx.psi_f,
                          vecs @ (np.exp(-1j * w * ctx.tau)
                                  * (vecs.conj().T @ ctx.psi_i))))
    if abs(den) <= ctx.floor:
        raise SingularPostselectionError("postselection amplitude below floor")
    if k == 0:
        return 1.0, 0.0

    rng = np.random.default_rng(seed)
    times = _dirichlet_times(rng, ctx.tau, k + 1, samples)
    orders = list(itertools.permutations(elements))
    order_idx = rng.integers(0, len(orders), samples)

    vals = np.empty(samples, dtype=complex)
    for oi, order in enumerate(orders):
        mask = order_idx == oi
        m = int(mask.sum())
        if m == 0:
            continue
        t = times[mask]
        cur = np.broadcast_to(ctx.psi_i, (m, ctx.dim)).copy()
        for step in range(k + 1):
            coeff = cur @ vecs.conj()
            coeff = coeff * np.exp(-1j * np.outer(t[:, step], w))
            cur = coeff @ vecs.T
            if step < k:
                cur = cur @ ctx.observables[order[step] - 1].T
        vals[mask] = cur @ ctx.psi_f.conj()
    vals = vals / den
    est = complex(vals.mean())
    if samples == 1:
        return est, 0.0
    var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
    return est, math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# thermal maps


def thermal_partition_jet(ctx: WeakValueContext, caps) -> Jet:
    """tr exp(-beta H - sum gamma_j A_j) as a jet in the gammas."""
    return jet_matrix_exp(_system_generator(ctx, caps, -ctx.beta, -1)).trace()


def thermal_E(ctx: WeakValueContext, a: Multiset) -> complex:
    """Normalized Taylor coefficient of the partition function at `a`."""
    if a.is_empty:
        return 1.0
    z = thermal_partition_jet(ctx, ctx.caps_for(a))
    return z.derivative(a) / z.coefficient(EMPTY)


def thermal_E_mmap(z: Jet) -> MMap:
    """E over the whole lattice of the partition jet `z`
    (`thermal_partition_jet`): z scaled by its constant is the map's
    normalised array."""
    return MMap._dense(z.n, z.caps, (), (z._vec / z.constant)[:, None])


def free_energy_jet(z: Jet, beta: float) -> Jet:
    """F = -(1/beta) log tr e^{-beta H_C} as a jet in the gammas, by the jet
    logarithm of the partition jet `z` (`thermal_partition_jet`).  Every
    susceptibility whose multiset fits the caps of `z` is one derivative
    read of it: truncating to smaller caps is a ring homomorphism, so the
    coefficients do not depend on the caps."""
    return z.log() * (-1.0 / beta)


def free_energy_susceptibility(ctx: WeakValueContext, a: Multiset) -> complex:
    """d^gamma_a F at gamma = 0, read from `free_energy_jet` on the caps
    of `a`."""
    z = thermal_partition_jet(ctx, ctx.caps_for(a))
    return free_energy_jet(z, ctx.beta).derivative(a)
