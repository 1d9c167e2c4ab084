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

Every builder takes the `ExperimentConfig` of the instance, the one the
simulator of `momalg.experiments` reads, and reads only its weak-value
fields: psi_i, psi_f, unitaries (n + 1 of them), hamiltonian, tau, beta,
floor and the observables.  n is the number of observables, and the
system dimension `config.system_dim`.  A weak-value context of a query is
read as such a config (`serialization.context_from_dict`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import MMap
from .combinatorics import EMPTY, Multiset
from .errors import DomainError, SingularPostselectionError
from .jets import Jet, JetMatrix, _check_size, _pair_table, jet_matrix_exp

_I_POWERS = np.array([1, 1j, -1, -1j])    # i^k at k mod 4, exactly


def _caps(config, a: Multiset) -> tuple[int, ...]:
    """The caps of the lattice of `a`, one per observable of `config`."""
    return tuple(a.mult(j) for j in range(1, len(config.observables) + 1))


# ---------------------------------------------------------------------------
# sequential and simultaneous weak values


def _sequential_numerator(config, a: Multiset) -> complex:
    n = len(config.observables)
    v = config.psi_i
    for j in range(1, n + 1):
        v = config.unitaries[j - 1] @ v
        if a.mult(j):
            if a.mult(j) > 1:
                raise DomainError("sequential weak values take subsets, "
                                  "not repeated labels")
            v = config.observables[j - 1] @ v
    v = config.unitaries[n] @ v
    return complex(np.vdot(config.psi_f, v))


def sequential_weak_value(config, a: Multiset) -> complex:
    """A_w(a): insert A_j between the unitaries exactly when j is in a."""
    den = _sequential_numerator(config, EMPTY)
    if abs(den) <= config.floor:
        raise SingularPostselectionError(
            f"postselection amplitude {abs(den):.3e} below floor")
    return _sequential_numerator(config, a) / den


def sequential_weak_value_mmap(config) -> MMap:
    """The subset map a -> A_w(a); A_w(empty) = 1."""
    return MMap.from_function(len(config.observables),
                              lambda a: sequential_weak_value(config, a))


def simultaneous_weak_value(config, a: Multiset) -> complex:
    """(1/k!) sum over orderings of <psi_f| A ... A |psi_i> / <psi_f|psi_i>.

    Repeated labels are allowed; the permutation sum runs over the
    expanded element list, which reproduces for instance (A^2)_w at {j,j}.
    """
    den = complex(np.vdot(config.psi_f, config.psi_i))
    if abs(den) <= config.floor:
        raise SingularPostselectionError(
            f"overlap {abs(den):.3e} below floor")
    elements = a.elements()
    if not elements:
        return 1.0
    total = 0j
    count = 0
    for order in itertools.permutations(elements):
        v = config.psi_i
        for lab in order:
            v = config.observables[lab - 1] @ v
        total += complex(np.vdot(config.psi_f, v))
        count += 1
    return total / (count * den)


# ---------------------------------------------------------------------------
# evolution-weighted weak values (jets)


def _system_generator(config, caps, c: complex,
                      k: complex) -> JetMatrix:
    """The system-space jet {(): c H, (j,): k A_j for every j with cap_j >=
    1}: the generator of the D map and of the partition jet."""
    terms = {(j,): k * config.observables[j - 1]
             for j, cap in enumerate(caps, start=1) if cap}
    terms[()] = c * config.hamiltonian
    return JetMatrix.from_terms(terms, config.system_dim, len(caps), tuple(caps))


def _evolution_generating_jet(config, caps) -> Jet:
    """<psi_f| exp(-i tau H - i sum gamma_j A_j) |psi_i> as a jet."""
    return jet_matrix_exp(_system_generator(config, caps, -1j * config.tau, -1j)
                          ).bilinear(config.psi_f, config.psi_i)


def script_D(config, a: Multiset) -> complex:
    """The time-and-permutation averaged sequential weak value, exactly.

    Computed as i^|a| times the gamma-derivative of the generating matrix
    element, normalized by the free amplitude; by the Dyson-series lemma
    this equals the simplex integral definition.
    """
    return 1.0 if a.is_empty else script_D_mmap(config, _caps(config, a))(a)


def script_D_mmap(config, caps=None) -> MMap:
    """D over the whole lattice from a single jet exponential: the jet of
    the generating matrix element, monomial a scaled by i^|a| and by the
    free amplitude, is the map's jet."""
    caps = tuple(caps) if caps is not None else (1,) * len(config.observables)
    gen = _evolution_generating_jet(config, caps)
    den = gen.constant
    if abs(den) <= config.floor:
        raise SingularPostselectionError(
            f"postselection amplitude {abs(den):.3e} below floor")
    phases = _I_POWERS[_pair_table(caps).grade % 4]
    return MMap._over(gen.n, gen._like(phases * gen._vec / den))


def _dirichlet_times(rng, total, parts, samples):
    """Uniform simplex samples via exponential spacings."""
    spacings = rng.exponential(1.0, (samples, parts))
    return total * spacings / spacings.sum(axis=1, keepdims=True)


def script_D_monte_carlo(config, a: Multiset, samples: int,
                         seed: int) -> tuple[complex, float]:
    """Direct sampling of the simplex-integral definition of D(a).

    Uniform permutations of the (expanded) element list and uniform
    Dirichlet splits of the window; the 1/tau^k prefactor cancels the
    simplex volume tau^k/k! against the k! permutations, so the estimator
    is the plain sample mean of evolution-weighted weak values.  Returns
    (estimate, standard error).  A sample count whose arrays, together with
    the list of the k! orderings, would not fit in MAX_DENSE_BYTES is
    refused with a DomainError before any ordering is listed or sample
    drawn: per sample, the times and their spacings and one order's copy
    of them (k + 1 doubles each), an order index, a value, a mask byte, and
    four system-dimension complex rows of one order's states; per ordering,
    a tuple of k labels and its list slot.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    elements = a.elements()
    k = len(elements)
    w, vecs = np.linalg.eigh(config.hamiltonian)
    den = complex(np.vdot(config.psi_f,
                          vecs @ (np.exp(-1j * w * config.tau)
                                  * (vecs.conj().T @ config.psi_i))))
    if abs(den) <= config.floor:
        raise SingularPostselectionError("postselection amplitude below floor")
    if k == 0:
        return 1.0, 0.0
    orderings = math.factorial(k)
    listed = orderings * (48 + 8 * k)      # bytes, spread over the samples
    _check_size(f"Monte-Carlo samples over {orderings} orderings", samples,
                24 * (k + 1) + 25 + 64 * config.system_dim
                + -(-listed // samples))

    rng = np.random.default_rng(seed)
    times = _dirichlet_times(rng, config.tau, k + 1, samples)
    orders = list(itertools.permutations(elements))
    order_idx = rng.integers(0, len(orders), samples)

    vals = np.empty(samples, dtype=complex)
    for oi, order in enumerate(orders):
        mask = order_idx == oi
        m = int(mask.sum())
        if m == 0:
            continue
        t = times[mask]
        cur = np.broadcast_to(config.psi_i, (m, config.system_dim)).copy()
        for step in range(k + 1):
            coeff = cur @ vecs.conj()
            coeff = coeff * np.exp(-1j * np.outer(t[:, step], w))
            cur = coeff @ vecs.T
            if step < k:
                cur = cur @ config.observables[order[step] - 1].T
        vals[mask] = cur @ config.psi_f.conj()
    vals = vals / den
    est = complex(vals.mean())
    if samples == 1:
        return est, 0.0
    var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
    return est, math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# thermal maps


def thermal_partition_jet(config, caps) -> Jet:
    """tr exp(-beta H - sum gamma_j A_j) as a jet in the gammas; beta > 0
    is checked first."""
    if not config.beta > 0:
        raise DomainError("beta must be positive")
    return jet_matrix_exp(_system_generator(config, caps, -config.beta, -1)
                          ).trace()


def thermal_E(config, a: Multiset) -> complex:
    """Normalized Taylor coefficient of the partition function at `a`."""
    if a.is_empty:
        return 1.0
    z = thermal_partition_jet(config, _caps(config, a))
    return z.derivative(a) / z.coefficient(EMPTY)


def thermal_E_mmap(z: Jet) -> MMap:
    """E over the whole lattice of the partition jet `z`
    (`thermal_partition_jet`): z scaled by its constant is the map's jet."""
    return MMap._over(z.n, z._like(z._vec / z.constant))


def free_energy_jet(z: Jet, beta: float) -> Jet:
    """F = -(1/beta) log tr e^{-beta H_C} as a jet in the gammas, by the jet
    logarithm of the partition jet `z` (`thermal_partition_jet`).  Every
    susceptibility whose multiset fits the caps of `z` is one derivative
    read of it: truncating to smaller caps is a ring homomorphism, so the
    coefficients do not depend on the caps.  A beta so small that F
    leaves the double range is refused with a DomainError."""
    log = z.log()
    with np.errstate(over="ignore", invalid="ignore"):
        f = log * (-1.0 / beta)
    if not np.isfinite(f._vec).all():
        raise DomainError(
            f"beta {beta!r} is too small: the free energy -log Z / beta "
            f"leaves the double range (|x| <= {np.finfo(float).max:.3g})")
    return f

