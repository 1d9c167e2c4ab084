"""Oracles that share no code with momalg.

`expm_eigh` exponentiates Hermitian and anti-Hermitian matrices through an
eigendecomposition; `expm_mp` exponentiates any matrix with mpmath at 30
significant digits and rounds the result to complex doubles.
`postselected_pointer_jet` takes the kick chain's postselected pointer
state by the joint-density route, in numpy alone.
`kron_chain` is the tensor product as a left-to-right chain of np.kron.
`imaginary_time_weak_value` evaluates one imaginary-time ordered trace by
eigendecomposition, and `thermal_E_monte_carlo` samples the thermal
E(a) from its imaginary-time simplex expansion.
"""

import itertools
import math

import mpmath
import numpy as np


def expm_eigh(h, t=1.0) -> np.ndarray:
    """exp(t h) for Hermitian h and real or imaginary t."""
    evals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (vecs * np.exp(t * evals)) @ vecs.conj().T


def expm_mp(a) -> np.ndarray:
    """exp(a) at 30 digits, for any square matrix."""
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(np.asarray(a, dtype=complex).tolist()))
        return np.array(e.tolist(), dtype=complex)


def kron_chain(*factors) -> np.ndarray:
    """f_1 (x) f_2 (x) ... (x) f_n as ((f_1 (x) f_2) (x) ...) (x) f_n."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


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
