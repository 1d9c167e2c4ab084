"""Dense finite-dimensional Hilbert-space machinery.

States, observables, tensor products, random states and operators, the
sequential weak-measurement pipeline, and the postselection that turns a
joint density into the pointer state (jet-valued in the coupling
strengths).  The full space is ordered system first, then the pointers in
label order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ShapeMismatchError, SingularPostselectionError
from .jets import JetMatrix

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DEFAULT_FLOOR = 1e-8


def _as_array(x) -> np.ndarray:
    if isinstance(x, (QState, QOperator)):
        return x.array
    return np.asarray(x, dtype=complex)


class QState:
    """Normalized complex state vector."""

    __slots__ = ("array",)

    def __init__(self, vec):
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise DomainError("cannot normalize the zero vector")
        self.array = vec / norm

    @property
    def dim(self) -> int:
        return self.array.shape[0]


class QOperator:
    """Dense complex matrix with hermitian / unitary flags checked on entry."""

    __slots__ = ("array", "hermitian", "unitary")

    def __init__(self, mat, hermitian: bool = False, unitary: bool = False):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatchError("operators must be square matrices")
        if hermitian and np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise DomainError("matrix fails the hermitian check")
        if unitary:
            gram = mat.conj().T @ mat
            if np.max(np.abs(gram - np.eye(mat.shape[0]))) > UNITARY_TOL:
                raise DomainError("matrix fails the unitary check")
        self.array = mat
        self.hermitian = hermitian
        self.unitary = unitary

    @property
    def dim(self) -> int:
        return self.array.shape[0]


def kron(*factors) -> np.ndarray:
    """Tensor product of operators and/or state vectors, left to right."""
    arrays = [_as_array(f) for f in factors]
    if not arrays:
        raise DomainError("kron of nothing")
    return reduce(np.kron, arrays)


def dagger(m) -> np.ndarray:
    return _as_array(m).conj().T


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in `keep` (indices into dims)."""
    rho = _as_array(rho)
    dims = list(dims)
    k = len(dims)
    if rho.shape != (int(np.prod(dims)),) * 2:
        raise ShapeMismatchError("density matrix does not match dims")
    keep = sorted(keep)
    t = rho.reshape(dims + dims)
    traced = 0
    for site in range(k):
        if site in keep:
            continue
        axis = site - traced
        ndim = t.ndim // 2
        t = np.trace(t, axis1=axis, axis2=axis + ndim)
        traced += 1
    d_keep = int(np.prod([dims[s] for s in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


# ---------------------------------------------------------------------------
# seeded random instances

def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# pointers and the sequential pipeline

@dataclass(frozen=True)
class PointerSpec:
    """One pointer: initial state phi, coupling operator s, readout r."""

    phi: np.ndarray
    s: np.ndarray
    r: np.ndarray

    @property
    def dim(self) -> int:
        return int(np.asarray(self.phi).shape[0])

    def expect(self, op: np.ndarray) -> complex:
        phi = np.asarray(self.phi, dtype=complex)
        return complex(np.vdot(phi, np.asarray(op) @ phi))

    @property
    def rs_covariance(self) -> complex:
        """<r s>_phi - <r>_phi <s>_phi, the xi factor of one pointer."""
        return self.expect(np.asarray(self.r) @ np.asarray(self.s)) - \
            self.expect(self.r) * self.expect(self.s)


def random_pointer(rng: np.random.Generator, dim: int = 2) -> PointerSpec:
    return PointerSpec(
        phi=random_state(rng, dim),
        s=random_hermitian(rng, dim),
        r=random_hermitian(rng, dim),
    )


def embed(op: np.ndarray, dims, site: int) -> np.ndarray:
    """Place `op` at tensor slot `site`, identity elsewhere."""
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[site] = np.asarray(op, dtype=complex)
    return kron(*factors)


def embed_two(op_a: np.ndarray, site_a: int, op_b: np.ndarray, site_b: int,
              dims) -> np.ndarray:
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[site_a] = np.asarray(op_a, dtype=complex)
    factors[site_b] = np.asarray(op_b, dtype=complex)
    return kron(*factors)


def coupling_kick(h_full: np.ndarray, var: int, n: int,
                  caps: tuple[int, ...]) -> JetMatrix:
    """exp(-i gamma_var H) truncated at the variable's cap (exact)."""
    dim = h_full.shape[0]
    cap = caps[var - 1]
    terms = {(): np.eye(dim, dtype=complex)}
    power = np.eye(dim, dtype=complex)
    for p in range(1, cap + 1):
        power = power @ h_full
        terms[tuple([var] * p)] = ((-1j) ** p / math.factorial(p)) * power
    return JetMatrix.from_terms(terms, dim, n, caps)


def chain_amplitude(psi_i, psi_f, unitaries) -> complex:
    amp = _as_array(psi_i)
    for u in unitaries:
        amp = _as_array(u) @ amp
    return complex(np.vdot(_as_array(psi_f), amp))


def evolved_joint_state(psi_i, unitaries, pointers, observables) -> JetMatrix:
    """Evolve |psi_i><psi_i| (x) prod |phi><phi| through the kick chain.

    Step j applies unitaries[j-1] on the system and then the impulsive kick
    exp(-i gamma_j s_j (x) A_j), A_j = observables[j-1], with gamma_j as
    jet variable j (multilinear caps); unitaries[n] closes the chain.
    Returns the full-space jet density (system tensor factor first).
    """
    psi_i = _as_array(psi_i)
    n = len(pointers)
    if len(unitaries) != n + 1:
        raise ShapeMismatchError("need n+1 unitaries for n pointers")
    caps = (1,) * n
    dims = [psi_i.shape[0]] + [p.dim for p in pointers]

    psi0 = kron(psi_i, *[np.asarray(p.phi, dtype=complex) for p in pointers])
    rho = JetMatrix.from_terms({(): np.outer(psi0, psi0.conj())},
                               psi0.shape[0], n, caps)
    for j, pointer in enumerate(pointers, start=1):
        u_full = embed(unitaries[j - 1], dims, 0)
        u_jet = JetMatrix.from_terms({(): u_full}, u_full.shape[0], n, caps)
        rho = u_jet @ rho @ u_jet.dagger()
        h_full = embed_two(np.asarray(observables[j - 1]), 0,
                           np.asarray(pointer.s), j, dims)
        kick = coupling_kick(h_full, j, n, caps)
        rho = kick @ rho @ kick.dagger()
    u_last = embed(unitaries[n], dims, 0)
    u_jet = JetMatrix.from_terms({(): u_last}, u_last.shape[0], n, caps)
    return u_jet @ rho @ u_jet.dagger()


def postselect_pointers(rho: JetMatrix, psi_f, dims,
                        min_probability: float = 0.0) -> JetMatrix:
    """Pointer state of the joint jet density `rho` (tensor factors `dims`,
    system first) postselected on |psi_f>: project on |psi_f><psi_f| (x) 1,
    trace out the system, normalise to unit trace.  Raises
    SingularPostselectionError when the gamma = 0 postselection
    probability is at or below `min_probability`."""
    psi_f = _as_array(psi_f)
    pf = embed(np.outer(psi_f, psi_f.conj()), dims, 0)
    pf_jet = JetMatrix.from_terms({(): pf}, pf.shape[0], rho.n, rho.caps)
    projected = pf_jet @ rho
    eta_blocks = np.stack([
        partial_trace(block, dims, keep=list(range(1, len(dims))))
        for block in projected.blocks
    ])
    eta = JetMatrix(rho.n, rho.caps, eta_blocks)
    norm = eta.trace()
    if abs(norm.constant) <= min_probability:
        raise SingularPostselectionError(
            f"postselection probability {abs(norm.constant):.3e} at or "
            f"below {min_probability:.3e}")
    return eta.scale_by_jet(norm.inverse())


def postselected_pointer_state(psi_i, psi_f, unitaries, pointers, observables,
                               floor: float = DEFAULT_FLOOR) -> JetMatrix:
    """Pointer-space density operator after interaction and postselection.

    Pointer j couples through H_j = s_j (x) A_j (A_j = observables[j-1])
    as an exact impulsive kick, with gamma_j as jet variable j; a pointer
    left uncoupled is gamma_j = 0 (see Jet.restrict).  The result has unit
    trace at gamma = 0.  Raises SingularPostselectionError when the
    amplitude <psi_f|U_{n+1}...U_1|psi_i> is at or below the floor.
    """
    psi_i = _as_array(psi_i)
    amp = chain_amplitude(psi_i, psi_f, unitaries)
    if abs(amp) <= floor:
        raise SingularPostselectionError(
            f"postselection amplitude {abs(amp):.3e} at or below floor {floor:.3e}")

    rho = evolved_joint_state(psi_i, unitaries, pointers, observables)
    dims = [psi_i.shape[0]] + [p.dim for p in pointers]
    return postselect_pointers(rho, psi_f, dims)
