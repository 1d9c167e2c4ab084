"""Oracles that share no code with momalg.

`expm_eigh` exponentiates Hermitian and anti-Hermitian matrices through an
eigendecomposition; `expm_mp` exponentiates any matrix with mpmath at 30
significant digits and rounds the result to complex doubles.
`postselected_pointer_jet` takes the kick chain's postselected pointer
state by the joint-density route, in numpy alone.
"""

import itertools

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


def postselected_pointer_jet(psi_i, psi_f, unitaries, pointers,
                             observables) -> dict:
    """The multilinear jet in gamma of the postselected pointer state,
    {sorted tuple of pointer labels: coefficient matrix}, unit trace.

    The joint density rho(gamma) is evolved at every gamma in {-1, 0, 1}^n
    through the system unitaries and the truncated kicks 1 - i gamma_j
    A_j (x) s_j (the exact kicks differ only at gamma_j^2), projected on
    |psi_f> and partial-traced over the system.  gamma_j enters through
    K_j and K_j^dagger only, so the result is a polynomial of degree at
    most 2 in each gamma_j, and the 3-point stencil p(0) and
    (p(1) - p(-1)) / 2 reads its constant and linear parts exactly.  The
    unit-trace jet N solves N tr(eta) = eta subset by subset.
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
    trace = {a: np.trace(c) for a, c in coeff.items()}
    state = {}
    for a in subsets:
        rest = coeff[a] - sum(
            (state[b] * trace[tuple(j for j in a if j not in b)]
             for k in range(len(a))
             for b in itertools.combinations(a, k)), np.zeros_like(coeff[a]))
        state[a] = rest / trace[()]
    return state
