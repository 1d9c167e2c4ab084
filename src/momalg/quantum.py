"""Dense finite-dimensional Hilbert-space machinery.

States, observables, tensor products, random states and operators, the
joint-space pieces every pipeline starts from (the product state and the
window and thermal generator), the sequential weak-measurement pipeline,
the postselection that turns a pure joint state into the pointer state
(jet-valued in the coupling strengths), and the one reader of pointer
moments.  The full space is ordered system first, then the pointers in
label order; this module is the only one that knows that layout.

System and pointers start in a pure product state and every step is a
unitary that depends on the gammas, so the joint state is a pure jet
vector psi(gamma), a (lattice, d_sys, d_1, ..., d_n) stack of coefficient
tensors; no joint density is formed.  Postselecting on |psi_f> contracts
<psi_f| with the system axis, chi = (<psi_f| (x) 1) psi, and the pointer
state is the block stack of eta = chi chi^dagger, left unnormalised: its
trace, the postselection probability, is divided out of the moments, not
out of the state.  `readout_moments` reads tr(rho (1_sys (x) prod_{j in a}
r_j)) for every subset a off a block stack by contracting the tensor axes
pointer by pointer, without forming any readout on the full space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DEFAULT_FLOOR,
    DomainError,
    ShapeMismatchError,
    SingularPostselectionError,
)
from .jets import JetMatrix, _block_products, _pair_table, _position

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10


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
    """Tensor product of operators or of state vectors, left to right.

    One outer-product chain, then one transpose (row axes first) and
    reshape: every entry is the product reduce(np.kron) forms, in the same
    association, without its n - 1 intermediate matrices."""
    arrays = [_as_array(f) for f in factors]
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

    # The xi factors of one pointer, computed once per pointer: the arrays
    # of a PointerSpec are never changed in place.

    @cached_property
    def rs_covariance(self) -> complex:
        """<r s>_phi - <r>_phi <s>_phi, the xi factor of one pointer."""
        return self.expect(np.asarray(self.r) @ np.asarray(self.s)) - \
            self.expect(self.r) * self.expect(self.s)

    @cached_property
    def mixed_covariance(self) -> complex:
        """tr(r s)/d - tr(r)/d tr(s)/d: the covariance under the maximally
        mixed state, the thermal xi factor of one pointer."""
        d = self.dim
        rs = np.trace(np.asarray(self.r) @ np.asarray(self.s)) / d
        return rs - np.trace(self.r) / d * np.trace(self.s) / d

    @cached_property
    def trace_covariance(self) -> complex:
        """tr(r s) - tr(r) tr(s), the thermal xi factor with raw traces."""
        return np.trace(np.asarray(self.r) @ np.asarray(self.s)) - \
            np.trace(self.r) * np.trace(self.s)


def random_pointer(rng: np.random.Generator, dim: int = 2) -> PointerSpec:
    return PointerSpec(
        phi=random_state(rng, dim),
        s=random_hermitian(rng, dim),
        r=random_hermitian(rng, dim),
    )


def embed(op: np.ndarray, dims, site: int, *more) -> np.ndarray:
    """Place `op` at tensor slot `site`, and each further (op, site) pair of
    `more` at its slot, identity elsewhere."""
    factors = [np.eye(d, dtype=complex) for d in dims]
    for factor, slot in ((op, site), *more):
        factors[slot] = np.asarray(factor, dtype=complex)
    return kron(*factors)


def product_state(psi_i, pointers) -> np.ndarray:
    """|psi_i> (x) |phi_1> (x) ... (x) |phi_n> as a (d_sys, d_1, ..., d_n)
    tensor."""
    return reduce(np.multiply.outer, [_as_array(psi_i)] + [
        np.asarray(p.phi, dtype=complex) for p in pointers])


def coupled_generator(hamiltonian, observables, pointers, c: complex,
                      k: complex) -> JetMatrix:
    """The joint-space jet {(): c H_S (x) 1, (j,): k A_j (x) s_j}, A_j =
    observables[j-1]: the generator of the window and thermal states."""
    n = len(pointers)
    dims = [np.shape(hamiltonian)[0]] + [p.dim for p in pointers]
    terms = {(j,): k * embed(observables[j - 1], dims, 0, (p.s, j))
             for j, p in enumerate(pointers, start=1)}
    terms[()] = c * embed(hamiltonian, dims, 0)
    return JetMatrix.from_terms(terms, int(np.prod(dims)), n, (1,) * n)


def readout_moments(blocks: np.ndarray, sys_dim: int, readouts) -> np.ndarray:
    """tr(B (1_sys (x) f_1 (x) ... (x) f_n)), f_j = r_j for j in a and 1
    otherwise, for every block B of the (L, D, D) stack `blocks` (system
    first, then the pointers of `readouts` = (r_1, ..., r_n), D = sys_dim
    d_1 ... d_n) and every subset a.  Returns a (2^n, L) array: row k holds
    the moment jet of the k-th subset in the storage order of caps (1,) * n.

    The stack is viewed as (L, d_s, d_1..d_n, d_s, d_1..d_n) and the system
    axis pair traced; then each pointer's (row, column) axes are contracted
    with the stack [1, r_j^T], which appends that pointer's subset bit.  The
    bits come out with pointer 1 slowest, which is the storage order."""
    n = len(readouts)
    dims = [sys_dim] + [np.shape(r)[0] for r in readouts]
    x = np.trace(blocks.reshape(len(blocks), *dims, *dims),
                 axis1=1, axis2=n + 2)
    for left, r in zip(range(n, 0, -1), readouts):
        pair = np.stack([np.eye(len(r)), np.transpose(r)])
        x = np.tensordot(x, pair, axes=([1, 1 + left], [1, 2]))
    return x.reshape(len(blocks), -1).T


def _on_axis(op, psi: np.ndarray, axis: int) -> np.ndarray:
    """The matrix `op` applied to tensor axis `axis` of `psi`."""
    return np.moveaxis(np.tensordot(_as_array(op), psi, axes=(1, axis)), 0, axis)


def evolved_joint_state(psi_i, unitaries, pointers, observables) -> np.ndarray:
    """Evolve |psi_i> (x) |phi_1> (x) ... (x) |phi_n> through the kick chain.

    Step j applies unitaries[j-1] on the system and then the impulsive kick
    exp(-i gamma_j A_j (x) s_j), A_j = observables[j-1], with gamma_j as jet
    variable j; unitaries[n] closes the chain.  At multilinear caps the kick
    is exactly 1 - i gamma_j A_j (x) s_j: it adds -i (A_j (x) s_j) psi_c to
    row c + {j} for every monomial c without j, the (c, {j}) pairs of the
    pair table.  Returns the pure joint jet vector, a (lattice, d_sys, d_1,
    ..., d_n) stack of coefficient tensors in the storage order of caps
    (1,) * n.
    """
    n = len(pointers)
    if len(unitaries) != n + 1:
        raise ShapeMismatchError("need n+1 unitaries for n pointers")
    caps = (1,) * n
    table = _pair_table(caps)
    psi0 = product_state(psi_i, pointers)
    psi = np.zeros((len(table.grade), *psi0.shape), dtype=complex)
    psi[0] = psi0
    for j, pointer in enumerate(pointers, start=1):
        psi = _on_axis(unitaries[j - 1], psi, 1)
        kick = table.ib == _position(caps, [j])
        ia, ic = table.ia[kick], table.ic[kick]
        psi[ic] += -1j * _on_axis(pointer.s, _on_axis(observables[j - 1],
                                                       psi[ia], 1), j + 1)
    return _on_axis(unitaries[n], psi, 1)


def postselect_pointers(psi: np.ndarray, psi_f, n: int,
                        floor: float) -> np.ndarray:
    """Pointer state of the pure joint jet vector `psi` (storage order of
    caps (1,) * n, system tensor factor first, pointers flattened or not)
    postselected on |psi_f>: chi = (<psi_f| (x) 1) psi, then eta = chi
    chi^dagger as one jet product, returned as its (lattice, D_p, D_p) block
    stack, unnormalised: its trace is the postselection probability.
    Raises SingularPostselectionError, before eta is formed, when the gamma
    = 0 probability |chi_0|^2 is at or below floor^2.  For normalised
    pointer states |chi_0| = |<psi_f|U|psi_i>|, U the uncoupled system
    evolution, so `floor` bounds the postselection amplitude."""
    psi_f = _as_array(psi_f)
    chi = psi_f.conj() @ psi.reshape(len(psi), psi_f.shape[0], -1)
    probability = np.vdot(chi[0], chi[0]).real
    if probability <= floor ** 2:
        raise SingularPostselectionError(
            f"postselection probability {probability:.3e} at or below "
            f"floor^2 = {floor ** 2:.3e}")
    eta = JetMatrix.zeros(chi.shape[1], n, (1,) * n).blocks
    _block_products(_pair_table((1,) * n), chi[:, :, None],
                    chi.conj()[:, None, :], eta)
    return eta


def postselected_pointer_state(psi_i, psi_f, unitaries, pointers, observables,
                               floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Pointer-space density operator after interaction and postselection,
    unnormalised, as the block stack of `postselect_pointers`.

    Pointer j couples through H_j = A_j (x) s_j (A_j = observables[j-1])
    as an exact impulsive kick, with gamma_j as jet variable j; a pointer
    left uncoupled is gamma_j = 0 (see Jet.restrict).  Raises
    SingularPostselectionError when the amplitude <psi_f|U_{n+1}...U_1|psi_i>
    is at or below the floor (`postselect_pointers`).
    """
    psi = evolved_joint_state(psi_i, unitaries, pointers, observables)
    return postselect_pointers(psi, psi_f, len(pointers), floor)
