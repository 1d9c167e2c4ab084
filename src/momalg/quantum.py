"""Dense finite-dimensional Hilbert-space machinery.

States, observables, random states and operators, the joint-space pieces
every pipeline starts from (the product state and the window and thermal
generator, as the n + 1 dense blocks it holds, priced before any is
written and each written in place), the sequential weak-measurement
pipeline, the postselection that turns a pure joint state into the
pointer state (jet-valued in the coupling strengths), and the one reader
of pointer moments.  The full space is ordered system first, then the pointers in
label order.  This module builds that layout; the one other place that
reads it is the thermal Boltzmann jet, which `jets.spectral_jet_matrix_exp`
returns traced over its first tensor factor, the system.

System and pointers start in a pure product state and every step is a
unitary that depends on the gammas, so the joint state is a pure jet
vector psi(gamma), a (lattice, d_sys, d_1, ..., d_n) stack of coefficient
tensors; no joint density is formed.  Postselecting on |psi_f> contracts
<psi_f| with the system axis, chi = (<psi_f| (x) 1) psi, and the pointer
state is the block stack of eta = chi chi^dagger, left unnormalised: its
trace, the postselection probability, is divided out of the moments, not
out of the state.  `readout_moments` reads tr(rho prod_{j in a} r_j) for
every subset a off a pointer-space block stack (the postselected state, or
the system-traced Boltzmann jet) by contracting the tensor axes pointer by
pointer, without forming any readout on the full space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DEFAULT_FLOOR,
    DomainError,
    ShapeMismatchError,
    SingularPostselectionError,
)
from .jets import (JetMatrix, _block_products, _check_size, _pair_table,
                   _position, _workspace)

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10


def unit_vector(vec) -> np.ndarray:
    """vec as a complex unit vector, divided by its norm.  A vector whose
    norm is already 1 within (dim + 2) eps, the rounding of a norm taken in
    floating point, is returned unchanged, so that a state read back from
    a file is the one written.  The zero vector is refused."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise DomainError("cannot normalize the zero vector")
    if abs(norm - 1) <= (len(vec) + 2) * np.finfo(float).eps:
        return vec
    return vec / norm


def checked_operator(mat, hermitian: bool = False,
                     unitary: bool = False) -> np.ndarray:
    """mat as a square complex matrix, checked Hermitian (within
    HERMITIAN_TOL) and unitary (within UNITARY_TOL) where the flags ask."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatchError("operators must be square matrices")
    if hermitian and np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
        raise DomainError("matrix fails the hermitian check")
    if unitary and np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat)))) \
            > UNITARY_TOL:
        raise DomainError("matrix fails the unitary check")
    return mat


# ---------------------------------------------------------------------------
# seeded random instances
#
# Each kind of random object has one construction, from its standard
# normals: `_state`, `_hermitian`, `_unitary` and `_pointer`.  `_draw` builds
# a list of objects from one standard_normal call, sliced in the order of
# the list: a Generator's normals do not depend on how they are batched (k
# normals and then m more are the k + m of one call), so that is the same
# as drawing object by object, one or two calls per object.

def _state(g: np.ndarray, dim: int) -> np.ndarray:
    v = g[:dim] + 1j * g[dim:]
    return v / np.linalg.norm(v)


def _hermitian(g: np.ndarray, dim: int, scale: float = 1.0) -> np.ndarray:
    g = g[:dim * dim].reshape(dim, dim) + 1j * g[dim * dim:].reshape(dim, dim)
    return scale * (g + g.conj().T) / 2.0


def _unitary(g: np.ndarray, dim: int) -> np.ndarray:
    g = g[:dim * dim].reshape(dim, dim) + 1j * g[dim * dim:].reshape(dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _pointer(g: np.ndarray, dim: int) -> "PointerSpec":
    """phi, then s, then r, from 2 dim + 4 dim^2 normals."""
    return PointerSpec(phi=_state(g[:2 * dim], dim),
                       s=_hermitian(g[2 * dim:2 * dim * (1 + dim)], dim),
                       r=_hermitian(g[2 * dim * (1 + dim):], dim))


_NORMALS = {_state: lambda d: 2 * d, _hermitian: lambda d: 2 * d * d,
            _unitary: lambda d: 2 * d * d,
            _pointer: lambda d: 2 * d + 4 * d * d}


def _draw(rng: np.random.Generator, kinds, dim: int) -> list:
    """One object of each kind in `kinds`, of dimension `dim`, in order,
    from one draw of rng's standard normals."""
    sizes = [_NORMALS[kind](dim) for kind in kinds]
    g, lo, out = rng.standard_normal(sum(sizes)), 0, []
    for kind, size in zip(kinds, sizes):
        out.append(kind(g[lo:lo + size], dim))
        lo += size
    return out


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _draw(rng, [_state], dim)[0]


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    return _hermitian(rng.standard_normal(2 * dim * dim), dim, scale)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _draw(rng, [_unitary], dim)[0]


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
    return _draw(rng, [_pointer], dim)[0]


def product_state(psi_i, pointers) -> np.ndarray:
    """|psi_i> (x) |phi_1> (x) ... (x) |phi_n> as a (d_sys, d_1, ..., d_n)
    tensor."""
    return reduce(np.multiply.outer, [np.asarray(psi_i, dtype=complex)] + [
        np.asarray(p.phi, dtype=complex) for p in pointers])


def coupled_generator(hamiltonian, observables, pointers, c: complex | None,
                      k: complex, out: np.ndarray | None = None) -> np.ndarray:
    """The joint-space generator c H_S (x) 1 + sum_j gamma_j k A_j (x) s_j,
    A_j = observables[j-1], of the window and thermal states, as the n + 1
    dense blocks it holds: an (n + 1, D, D) array, the constant c H_S (x) 1
    first, then the coupling k A_j (x) s_j of each gamma_j in label order.
    Every other block of its multilinear lattice is zero and is not
    stored.  A c of None leaves the constant out, (n, D, D), for a caller
    that holds it in another form: the thermal lhs, as its diagonal.  The
    blocks are priced against MAX_DENSE_BYTES before any is written.  They
    are written into `out`, a complex array of that shape, and returned,
    or without `out` into a new array.  Each block is written in place by
    `_place`, with no joint-space temporary."""
    dims = [np.shape(hamiltonian)[0]] + [p.dim for p in pointers]
    terms = [(k, (observables[j - 1], 0), (p.s, j))
             for j, p in enumerate(pointers, start=1)]
    if c is not None:
        terms.insert(0, (c, (hamiltonian, 0)))
    dim = math.prod(dims)
    _check_size(f"generator blocks of dimension {dim}", len(terms),
                16 * dim * dim)
    if out is None:
        out = np.empty((len(terms), dim, dim), dtype=complex)
    elif out.shape != (len(terms), dim, dim) or out.dtype != complex:
        raise ShapeMismatchError(f"the generator blocks need a complex "
                                 f"array of shape {(len(terms), dim, dim)}")
    for block, (scale, *ops) in zip(out, terms):
        _place(block, dims, scale, *ops)
    return out


def _place(block: np.ndarray, dims: list, scale: complex, *ops) -> None:
    """Write scale (f_0 (x) f_1 (x) ... (x) f_n) into the contiguous
    complex (D, D) `block`, D = prod(dims), f_t the operator of the
    (operator, slot t) pairs of `ops`, in ascending slots, and the identity
    at every other slot.  The block is zeroed; then the products of the
    placed operators' entries, times scale, d_s^2 d_j^2 of them for a
    coupling, are assigned through one strided view of the block, which
    has a row and a column axis per placed slot and one axis per identity
    slot, running along its diagonal: the only entries that the identity
    leaves nonzero.  Each product is formed as the Kronecker chain forms
    it, times each identity entry 1 aside, so the values are those of the
    chain; only a zero may differ from it in sign."""
    block.fill(0)
    rows, cols = block.strides
    placed = {slot for _, slot in ops}
    shape, strides, free = [], [], []
    for slot, d in enumerate(dims):
        unit = math.prod(dims[slot + 1:])
        if slot in placed:
            shape += [d, d]
            strides += [unit * rows, unit * cols]
        else:
            free.append((d, unit * (rows + cols)))
    products = np.asarray(ops[0][0], dtype=complex)
    for op, _ in ops[1:]:
        op = np.asarray(op, dtype=complex)
        products = products.reshape(products.shape + (1,) * op.ndim) \
            * op.reshape((1,) * products.ndim + op.shape)
    view = np.lib.stride_tricks.as_strided(
        block, (*shape, *(d for d, _ in free)),
        (*strides, *(s for _, s in free)))
    view[...] = np.multiply(scale, products).reshape(
        products.shape + (1,) * len(free))


def readout_moments(blocks: np.ndarray, readouts) -> np.ndarray:
    """tr(B (f_1 (x) ... (x) f_n)), f_j = r_j for j in a and 1 otherwise,
    for every block B of the (L, D_p, D_p) pointer-space stack `blocks`
    (the pointers of `readouts` = (r_1, ..., r_n) in label order, D_p =
    d_1 ... d_n) and every subset a.  Returns a (2^n, L) array: row k holds
    the moment jet of the k-th subset in the storage order of caps (1,) * n.

    The stack is viewed as (L, d_1..d_n, d_1..d_n); then each pointer's
    (row, column) axes are contracted with the stack [1, r_j^T], which
    appends that pointer's subset bit.  The bits come out with pointer 1
    slowest, which is the storage order.  np.tensordot copies its operand
    with the contracted axes last; the first operand, as large as the
    stack, is copied so instead into this thread's workspace array for it
    (`jets._workspace`), and np.tensordot runs the same np.dot on it
    without a copy of its own.  The result is a new array."""
    n = len(readouts)
    dims = [np.shape(r)[0] for r in readouts]
    x = blocks.reshape(len(blocks), *dims, *dims)
    for left, r in zip(range(n, 0, -1), readouts):
        pair = np.stack([np.eye(len(r)), np.transpose(r)])
        axes = [1, 1 + left]
        if left == n:
            moved = np.moveaxis(x, axes, (-2, -1))
            x = _workspace("readout", (x.size,), "entries read out").reshape(
                moved.shape)
            np.copyto(x, moved)
            axes = [x.ndim - 2, x.ndim - 1]
        x = np.tensordot(x, pair, axes=(axes, [1, 2]))
    return x.reshape(len(blocks), -1).T


def _on_axis(op, psi: np.ndarray, axis: int) -> np.ndarray:
    """The matrix `op` applied to tensor axis `axis` of `psi`."""
    return np.moveaxis(np.tensordot(np.asarray(op, dtype=complex), psi,
                                    axes=(1, axis)), 0, axis)


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
    psi_f = np.asarray(psi_f, dtype=complex)
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
