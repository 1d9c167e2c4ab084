"""Oracles that share no code with momalg.

`expm_eigh` exponentiates Hermitian and anti-Hermitian matrices through an
eigendecomposition; `expm_mp` exponentiates any matrix with mpmath at 30
significant digits and rounds the result to complex doubles.
`regular_representation` writes multiplication by a matrix-valued
truncated polynomial as one block matrix, whose exponential holds the jet
exponential.
`postselected_pointer_jet` takes the kick chain's postselected pointer
state by the joint-density route, in numpy alone.
`kron_chain` is the tensor product as a left-to-right chain of np.kron;
`kron` forms the same entries from one outer-product chain, and `embed`
places operators at tensor slots with the identity elsewhere, the
construction that `quantum.coupled_generator`'s in-place writer is
checked against.
`imaginary_time_weak_value` evaluates one imaginary-time ordered trace by
eigendecomposition, and `thermal_E_monte_carlo` samples the thermal
E(a) from its imaginary-time simplex expansion.
`ordered_bipartitions_of` lists the ordered splits of a multiset with
their binomial weights, and `bipartition_convolve` sums the convolution
over them, against which the jet product of `momalg.algebra.convolve` is
checked.  `evolution_weak_value` evaluates one time-ordered weak value by
eigendecomposition.
Three oracles call momalg: `outcome_generating_jet` sums the moment
generating function as one `Jet.exp` per joint outcome, against which the
contraction of `experiments._generating_jet` is checked,
`free_energy_susceptibility` reads one derivative of the free-energy jet
on the caps of its multiset alone, and `partition_fstar_loop` walks
`combinatorics.partitions_of` once per call and target, reading f through
a memo, the loop that the planned `algebra.partition_fstar` must match bit
for bit.
`per_draw_instance` draws a seeded verify instance object by object, one
standard_normal call per real or imaginary part, as the instance
generator `experiments.random_config` must match.
"""

import itertools
import math
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, NamedTuple

import mpmath
import numpy as np

from momalg.combinatorics import EMPTY, Multiset, partitions_of
from momalg.errors import (DomainError, ShapeMismatchError,
                           SingularPostselectionError)
from momalg.jets import Jet
from momalg.weakvalues import _caps, free_energy_jet, thermal_partition_jet


def expm_eigh(h, t=1.0) -> np.ndarray:
    """exp(t h) for Hermitian h and real or imaginary t."""
    evals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (vecs * np.exp(t * evals)) @ vecs.conj().T


def expm_mp(a) -> np.ndarray:
    """exp(a) at 30 digits, for any square matrix."""
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(np.asarray(a, dtype=complex).tolist()))
        return np.array(e.tolist(), dtype=complex)


def regular_representation(terms, caps, d):
    """Left multiplication by sum_a terms[a] gamma^a on the truncated
    polynomial ring of the caps, as an (L d) x (L d) block matrix.  A
    monomial is its tuple of multiplicities (m_1, ..., m_n); block (c, b)
    is terms[a] where a + b = c fits the caps.  Also returns the row-block
    position of each monomial."""
    lattice = list(itertools.product(*(range(c + 1) for c in caps)))
    pos = {a: i for i, a in enumerate(lattice)}
    rep = np.zeros((len(lattice) * d, len(lattice) * d), dtype=complex)
    for a, block in terms.items():
        for b in lattice:
            c = tuple(x + y for x, y in zip(a, b))
            if c in pos:
                rep[pos[c] * d:(pos[c] + 1) * d,
                    pos[b] * d:(pos[b] + 1) * d] += block
    return rep, pos


def kron_chain(*factors) -> np.ndarray:
    """f_1 (x) f_2 (x) ... (x) f_n as ((f_1 (x) f_2) (x) ...) (x) f_n."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def kron(*factors) -> np.ndarray:
    """Tensor product of operators or of state vectors, left to right.

    One outer-product chain, then one transpose (row axes first) and
    reshape: every entry is the product reduce(np.kron) forms, in the same
    association, without its n - 1 intermediate matrices."""
    arrays = [np.asarray(f, dtype=complex) for f in factors]
    if not arrays:
        raise DomainError("kron of nothing")
    ndim = arrays[0].ndim
    if ndim not in (1, 2) or any(a.ndim != ndim for a in arrays):
        raise ShapeMismatchError("kron takes all state vectors or all "
                                 "operators")
    out = reduce(_outer, arrays)
    if ndim == 1:
        return out.reshape(-1)
    rows = [a.shape[0] for a in arrays]
    out = out.transpose([*range(0, out.ndim, 2), *range(1, out.ndim, 2)])
    return out.reshape(int(np.prod(rows)), -1)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.multiply.outer(a, b) with both operands at the result's rank, as
    np.kron multiplies them: numpy then picks np.kron's multiply loop, which
    rounds a product of two 1-entry factors differently from the mixed-rank
    broadcast of np.multiply.outer."""
    return (a.reshape(a.shape + (1,) * b.ndim)
            * b.reshape((1,) * a.ndim + b.shape))


def embed(op: np.ndarray, dims, site: int, *more) -> np.ndarray:
    """Place `op` at tensor slot `site`, and each further (op, site) pair of
    `more` at its slot, identity elsewhere."""
    factors = [np.eye(d, dtype=complex) for d in dims]
    for factor, slot in ((op, site), *more):
        factors[slot] = np.asarray(factor, dtype=complex)
    return kron(*factors)


def outcome_generating_jet(values, probs, caps) -> Jet:
    """E[exp(sum_j gamma_j x_j)] over the joint pmf `probs` (C order) on the
    grid of the outcome values `values`, truncated at the caps: the jet
    exponential of sum_j x_j gamma_j at each outcome, weighted by its
    probability and summed."""
    n = len(values)
    grid = np.array(np.meshgrid(*values, indexing="ij")).reshape(n, -1)
    h = Jet(n, caps)
    for idx, p in enumerate(np.asarray(probs).reshape(-1)):
        lin = Jet(n, caps, {Multiset([j]): grid[j - 1][idx]
                            for j in range(1, n + 1)})
        h = h + lin.exp() * p
    return h


def postselected_pointer_jet(psi_i, psi_f, unitaries, pointers,
                             observables) -> dict:
    """The multilinear jet in gamma of the unnormalised postselected
    pointer state, {sorted tuple of pointer labels: coefficient matrix}.

    The joint density rho(gamma) is evolved at every gamma in {-1, 0, 1}^n
    through the system unitaries and the truncated kicks 1 - i gamma_j
    A_j (x) s_j (the exact kicks differ only at gamma_j^2), projected on
    |psi_f> and partial-traced over the system.  gamma_j enters through
    K_j and K_j^dagger only, so the result is a polynomial of degree at
    most 2 in each gamma_j, and the 3-point stencil p(0) and
    (p(1) - p(-1)) / 2 reads its constant and linear parts exactly.
    """
    n = len(pointers)
    dims = [len(psi_i)] + [len(p.phi) for p in pointers]
    d_sys, d_ptr = dims[0], int(np.prod(dims[1:]))

    def full(op, site):
        out = np.eye(1)
        for k, d in enumerate(dims):
            out = np.kron(out, op if k == site else np.eye(d))
        return out

    psi0 = np.asarray(psi_i, dtype=complex)
    for p in pointers:
        psi0 = np.kron(psi0, p.phi)
    rho0 = np.outer(psi0, psi0.conj())
    steps = [full(u, 0) for u in unitaries]
    couplings = [full(a, 0) @ full(p.s, j)
                 for j, (a, p) in enumerate(zip(observables, pointers), start=1)]
    projector = full(np.outer(psi_f, np.conj(psi_f)), 0)

    def eta(gamma):
        rho = rho0
        for u, h, g in zip(steps, couplings, gamma):
            kick = (np.eye(len(psi0)) - 1j * g * h) @ u
            rho = kick @ rho @ kick.conj().T
        rho = steps[n] @ rho @ steps[n].conj().T
        t = (projector @ rho).reshape(d_sys, d_ptr, d_sys, d_ptr)
        return np.einsum("ipiq->pq", t)

    values = {g: eta(g) for g in itertools.product((-1, 0, 1), repeat=n)}
    subsets = [a for k in range(n + 1)
               for a in itertools.combinations(range(1, n + 1), k)]
    coeff = {}
    for a in subsets:
        total = 0
        for signs in itertools.product((1, -1), repeat=len(a)):
            gamma = [0] * n
            for j, sign in zip(a, signs):
                gamma[j - 1] = sign
            total = total + np.prod(signs) / 2 ** len(a) * values[tuple(gamma)]
        coeff[a] = total
    return coeff


def imaginary_time_weak_value(hamiltonian, beta, observables, order,
                              taus) -> complex:
    """tr[e^{-tau_{k+1} H} A_{o_k} ... A_{o_1} e^{-tau_1 H}] / tr e^{-beta H}."""
    w, vecs = np.linalg.eigh(hamiltonian)
    z = np.sum(np.exp(-beta * w))
    herm_obs = [vecs.conj().T @ a @ vecs for a in observables]
    mat = np.diag(np.exp(-w * taus[0]))
    for lab, t in zip(order, taus[1:]):
        mat = herm_obs[lab - 1] @ mat
        mat = np.exp(-w * t)[:, None] * mat
    return complex(np.trace(mat) / z)


def _dirichlet_times(rng, total, parts, samples):
    """Uniform simplex samples via exponential spacings."""
    spacings = rng.exponential(1.0, (samples, parts))
    return total * spacings / spacings.sum(axis=1, keepdims=True)


def thermal_E_monte_carlo(hamiltonian, beta, observables, elements,
                          samples: int, seed: int) -> tuple[complex, float]:
    """Estimate E(a), a the multiset of labels `elements` (repeated labels
    listed once per copy), by sampling the imaginary-time simplex expansion.

    The sampled average of tr[e^{-tau H} A ... A e^{-tau H}]/Z carries one
    (-1) per insertion relative to the -A_j couplings in the partition
    function, so the estimator multiplies the sample mean by (-1)^|a|.
    Returns (estimate, standard error).
    """
    k = len(elements)
    if k == 0:
        return 1.0, 0.0
    rng = np.random.default_rng(seed)
    w, vecs = np.linalg.eigh(hamiltonian)
    z = np.sum(np.exp(-beta * w))
    herm_obs = [vecs.conj().T @ ob @ vecs for ob in observables]
    d = len(w)

    times = _dirichlet_times(rng, beta, k + 1, samples)
    orders = list(itertools.permutations(elements))
    order_idx = rng.integers(0, len(orders), samples)

    vals = np.empty(samples, dtype=complex)
    eye_idx = np.arange(d)
    for oi, order in enumerate(orders):
        mask = order_idx == oi
        m = int(mask.sum())
        if m == 0:
            continue
        t = times[mask]
        mats = np.zeros((m, d, d), dtype=complex)
        mats[:, eye_idx, eye_idx] = np.exp(-np.outer(t[:, 0], w))
        for step in range(k):
            mats = np.einsum("ij,njk->nik", herm_obs[order[step] - 1], mats)
            mats = np.exp(-np.outer(t[:, step + 1], w))[:, :, None] * mats
        vals[mask] = np.einsum("nii->n", mats) / z
    vals = vals * ((-1.0) ** k)
    est = complex(vals.mean())
    if samples == 1:
        return est, 0.0
    var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
    return est, math.sqrt(var / samples)


class OrderedBipartition(NamedTuple):
    """Ordered split a = first + second with the per-label binomial weight."""

    first: Multiset
    second: Multiset
    weight: int


@lru_cache(maxsize=None)
def _bipartitions_cached(a: Multiset) -> tuple[OrderedBipartition, ...]:
    items = a.items
    out = []
    for choice in itertools.product(*(range(m + 1) for _, m in items)):
        first = Multiset.from_counts(
            {lab: j for (lab, _), j in zip(items, choice) if j}
        )
        second = Multiset.from_counts(
            {lab: m - j for (lab, m), j in zip(items, choice) if m - j}
        )
        weight = 1
        for (_, m), j in zip(items, choice):
            weight *= math.comb(m, j)
        out.append(OrderedBipartition(first, second, weight))
    out.sort(key=lambda bp: bp.first.sort_key)
    return tuple(out)


def ordered_bipartitions_of(a: Multiset) -> Iterator[OrderedBipartition]:
    """All ordered splits (a1, a2) of `a`, including (empty, a) and
    (a, empty) as distinct entries.

    The weight is the product over labels of binomial(m, m1); it is 1
    whenever all multiplicities are 1, and is exactly the coefficient the
    formal product rule assigns to repeated variables.
    """
    yield from _bipartitions_cached(a)


def bipartition_convolve(f: Callable, g: Callable,
                         at: Iterable[Multiset]) -> dict:
    """Reference convolution: (f*g)(a) = sum over ordered bipartitions
    (a1, a2) of a of the binomial weight times f(a1) g(a2)."""
    return {a: sum(bp.weight * f(bp.first) * g(bp.second)
                   for bp in ordered_bipartitions_of(a))
            for a in at}


def evolution_weak_value(config, order, taus) -> complex:
    """(A_{o_k}, ..., A_{o_1})_w[tau_{k+1}, ..., tau_1]: alternate
    e^{-i H tau} episodes with observable insertions; o_1 acts first."""
    taus = list(taus)
    order = list(order)
    if len(taus) != len(order) + 1:
        raise ShapeMismatchError("need k+1 episode lengths for k insertions")
    w, vecs = np.linalg.eigh(config.hamiltonian)

    def evolve(v, t):
        return vecs @ (np.exp(-1j * w * t) * (vecs.conj().T @ v))

    v = evolve(config.psi_i, taus[0])
    for lab, t in zip(order, taus[1:]):
        v = config.observables[lab - 1] @ v
        v = evolve(v, t)
    den = complex(np.vdot(config.psi_f, evolve(config.psi_i, sum(taus))))
    if abs(den) <= config.floor:
        raise SingularPostselectionError("postselection amplitude below floor")
    return complex(np.vdot(config.psi_f, v)) / den


def free_energy_susceptibility(config, a: Multiset) -> complex:
    """d^gamma_a F at gamma = 0, read from `free_energy_jet` on the caps
    of `a`."""
    z = thermal_partition_jet(config, _caps(config, a))
    return free_energy_jet(z, config.beta).derivative(a)


def partition_fstar_loop(derivs: Callable, f: Callable,
                         at: Iterable[Multiset]) -> dict:
    """(F*f)(a) = sum over partitions p of a of coeff(p) F^(|p|)(f(empty))
    prod_{b in p} f(b), one pass over the partitions of each target, each
    block read once through a memo."""
    f = lru_cache(maxsize=None)(f)
    c = f(EMPTY)
    return {a: derivs(0, c) if a.is_empty else
            sum(coeff * derivs(part.part_count, c) * math.prod(map(f, part.blocks))
                for part, coeff in partitions_of(a))
            for a in at}


def per_draw_instance(scenario: str, seed: int, n_pointers: int,
                      system_dim: int, pointer_dim: int,
                      zero_hamiltonian: bool = False, copies=(2,)) -> dict:
    """The random fields of a verify instance (all but genfun), drawn from
    the substreams default_rng([seed, role]) of `random_config` object by
    object: a state as real then imaginary normals, a Hermitian or a
    unitary as a real then an imaginary normal matrix, a pointer as phi,
    s, r."""
    def state(rng, d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    def hermitian(rng, d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / 2.0

    def unitary(rng, d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    def pointer(rng, d):
        return state(rng, d), hermitian(rng, d), hermitian(rng, d)

    st, un, ob, pt = (np.random.default_rng([seed, k]) for k in range(4))
    out = {}
    if scenario == "multiset":
        out["pointers"] = [pointer(pt, pointer_dim)] * sum(copies)
        n_pointers = len(copies)
    else:
        out["pointers"] = [pointer(pt, pointer_dim) for _ in range(n_pointers)]
    out["observables"] = [hermitian(ob, system_dim) for _ in range(n_pointers)]
    if scenario != "thermal":
        out["psi_i"], out["psi_f"] = state(st, system_dim), state(st, system_dim)
    if scenario in ("thermal", "multiset", "simultaneous-evolution"):
        out["hamiltonian"] = np.zeros((system_dim, system_dim)) \
            if zero_hamiltonian else hermitian(st, system_dim)
    if scenario in ("sequential-per-subset", "sequential-all-coupled"):
        out["unitaries"] = [unitary(un, system_dim)
                            for _ in range(n_pointers + 1)]
    return out
