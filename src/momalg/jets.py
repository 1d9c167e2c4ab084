"""Truncated multivariate polynomials (jets) in the coupling strengths.

A jet holds the monomial coefficients of a polynomial in gamma_1..gamma_n
truncated by per-variable degree caps; products drop any monomial that
exceeds a cap.  Mixed partial derivatives at gamma = 0 are then exact ring
reads: the derivative equals the monomial coefficient times the product of
multiplicity factorials.  Multilinear jets (all caps 1) multiply exactly
like moment-algebra convolution of their coefficient maps.

Storage is dense: one complex vector over the multiset lattice of the caps,
in mixed-radix C order with label 1 slowest, so a jet over caps is the
raveled C-order tensor of shape (c_1 + 1, ..., c_n + 1) indexed by the
multiplicities, the empty monomial (the constant part) first.  Every
lattice-indexed array of the package is stored in this one order, so a
position is digit arithmetic: `_position` is the one map from a multiset
to its position, and `_monomials` lists the multisets in storage order for
the readers that hand out Multiset keys (`Jet.coeffs`, the reprs,
`JetMatrix.lattice`).  Every (a, b) pair of lattice monomials whose sum
stays within the caps is listed once per caps, by digit arithmetic, in
position arrays (ia, ib, ic), each output's pairs in increasing ia; a
table holds no Multiset.  A product is then the gather x[ia] * y[ib]
scattered onto ic in that order, and sums and scalings are vector
operations.  exp, log and inverse are one construction, the lift F*(P) =
sum_k F^(k)(c)/k! (P - c)^k from a table of F's derivatives at the
constant c (`_fstar`), which `momalg.algebra.apply_fstar` also takes: it
splits off one label at a time, so each of its products is over all
labels but the first at most, and it never builds the pair table of all
the labels.  A jet's vector is sized from its caps alone; only a product,
log, exp or inverse builds (and prices) a pair table.  An M-map
(`momalg.algebra`) is a view of one jet: a map over caps with jet values
over jet caps is the jet over caps + jet caps, so the star operations are
this ring's.  `Jet.coeffs` is a read-only view of the nonzero monomial
coefficients, in storage order.

JetMatrix holds a square matrix with jet entries as a stack of dense
complex coefficient blocks in the same lattice order, so matrix products
reduce to one BLAS product per pair-table triple whose blocks are both
nonzero.  `_block_products` runs them on one of two paths with the same
bits: a loop of one product and one add per triple, or, for many
products of small blocks (at least 8 triples of at most 8^3 complex
multiply-adds), one stacked product of the gathered blocks added into
place by one np.add.at, where the loop's interpreter cost per triple
would dominate; the triples each pair of zero-block patterns keeps, and
their chunks, are cached per shape (`_kept_triples`).  The exponential in
this ring has two entries, one per algorithm; its multilinear coefficient
of prod_{j in a} gamma_j equals the permutation-summed simplex integral of
the Dyson expansion, which is what every 'lowest joint order' statement
consumes.  `jet_matrix_exp` takes the
Taylor route: it scales and squares, with the squaring count and the
Taylor degree chosen from the norm of the constant block alone, since the
couplings are nilpotent in the ring (Higham, SIAM J. Matrix Anal. Appl.
26, 2005), evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973)
over one stack of the powers Y..Y^q.  Its products run through
`_block_products`, whatever the symmetry of the generator: a Hermitian one
gives a result that is Hermitian to rounding, not exactly.  On a lattice
of one monomial, a plain batch of matrices, they are plain np.matmul
calls.  `spectral_jet_matrix_exp` takes the spectral route, for a
multilinear generator linear in gamma whose constant block is already
diagonal, as the thermal -beta H_S (x) 1 is in the eigenbasis of H_S,
which its caller takes at the system's size.  It is given only what such
a generator holds: the real ascending points w of that diagonal and the
n dense coupling blocks N_j of gamma_j.  There, the Dyson expansion ends
after n factors of the couplings and is summed with divided differences
of exp at the runs of equal diagonal points, taken from Opitz matrices,
which are zero-padded to one size and exponentiated by the Taylor route
in one batch.  Its contract is the traced one: it takes the dimension d_s
of the first tensor factor and returns the result traced over that
factor, as (lattice, D / d_s, D / d_s) blocks, which is all that the
thermal check reads of its Boltzmann jet, tr(B (1 (x) R)) =
tr(tr_1(B) R).  Inside, each state of the expansion is held only at its
one grade, each weighted state enters the sum only through its
system-diagonal blocks, and the last level is never formed: its weights
are folded into the left factors of its products, which then write the
traced top block directly (`_spectral_fold`).  Its products are its own
loop of one BLAS product per pair of a level's product list, and one
batch per label for the fold, not `_block_products`.  What depends only
on the shape, (n, the cluster sizes, sys_dim), is planned once per shape
and cached (`_spectral_plan`, like `_pair_table`: read-only, shared by
threads): the layout and its pricing, each level's positions, multisets
and product list, the fold's regions and weight offsets, and the
Opitz matrices' pattern, so a run of same-shape calls does only the
data's work: the products, the weighted sums and one Taylor batch of
Opitz matrices.  No change of basis
runs: a trace against 1 (x) R is the same in any basis U (x) 1.  A caller
picks the entry by its role, not by cost: the thermal check's lhs, the
joint-space Boltzmann jet, is the one spectral caller, and every other
exponential (the system-side partition jet of its rhs, the window, the D
map) takes the Taylor route, so the two sides of the thermal identity
share neither an exponential algorithm nor a product function.  Each
entry refuses, with a DomainError, a result that overflows the double
range.

The thermal lhs's large work arrays, which a run at one shape would
otherwise allocate, fault in page by page and hand back to the system
every time, are kept in a private per-thread workspace (`_workspace`):
the spectral route's one work array, which `_spectral_layout` sizes,
prices and cuts into its states, the fold's left factors and weights in
place of the last level's, one product's output, level 1's
system-diagonal blocks, whose part the fold's products take over, and a
level's weights and sums; the lhs's coupling blocks, which
`quantum.coupled_generator` writes in place; and the moment reader's copy
of the stack that it reads
(`quantum.readout_moments`).  That copy, the size of the route's fresh
result, would otherwise sit on the heap beside it, and the two with the
allocator's top padding came above its trim threshold, so that the heap
was cut back and faulted in afresh at each run.  A thread holds one
array per role and reuses it while the shape repeats; a call at another
shape prices and allocates its replacement, and the arrays stay held
between calls.  No function returns a workspace array or a view of one:
every result, the spectral route's included, is a new array.
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading
from functools import lru_cache, partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .combinatorics import EMPTY, Multiset, _monomials
from .errors import CapExceededError, DomainError, NonInvertibleError

_THETA = 0.5               # 1-norm bound of the scaled constant block
_UNIT_ROUNDOFF = 2.0 ** -53
MAX_DENSE_BYTES = 2 ** 28  # largest dense lattice array or pair table built
_PAIR_BYTES = 72           # per pair: 3 index arrays, 3 complex temporaries
_SCATTER_PAIRS = 256       # `_ring_product`: np.add.at below, bincounts above
# the batched block products (`_block_products`): at least this many kept
# triples, each of at most this many complex multiply-adds, in chunks of at
# most this many bytes
_BATCH_COUNT = 8
_BATCH_WORK = 8 ** 3
_BATCH_BYTES = 2 ** 20
_KEPT_INDICES = 2 ** 15    # the most indices one `_kept_triples` entry holds


class _PairTable(NamedTuple):
    """The total degree |a| of each monomial of a caps lattice, in storage
    order, and every pair (ia, ib) -> ic of positions whose monomial sum
    a + b = c stays within caps."""

    grade: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
    caps: tuple


@lru_cache(maxsize=None)
def _pair_table(caps: tuple[int, ...]) -> _PairTable:
    """The storage order is mixed-radix C order, label 1 slowest: the
    monomial of multiplicities (m_1, ..., m_n) sits at the C-order position
    of (m_1, ..., m_n) in a tensor of shape (c_1 + 1, ..., c_n + 1)
    (`_position`), so the empty monomial comes first.  A sum of monomials
    within caps adds their digits without carries, so the table of several
    labels is the product of the tables of its two halves, built by digit
    arithmetic: a position is (left position) * (right size) + (right
    position), and a pair is a left pair with a right pair.  The pairs of
    each output then come in increasing ia, the order in which products
    accumulate."""
    _check_size("lattice pairs",
                math.prod((c + 1) * (c + 2) // 2 for c in caps), _PAIR_BYTES)
    if len(caps) > 1:
        return _joined(_pair_table(caps[:len(caps) // 2]),
                       _pair_table(caps[len(caps) // 2:]))
    cap = caps[0] if caps else 0
    ia, ib = (np.array(x, dtype=np.intp) for x in zip(
        *[(d, e) for d in range(cap + 1) for e in range(cap + 1 - d)]))
    return _frozen(caps, np.arange(cap + 1), ia, ib, ia + ib)


def _joined(left: _PairTable, right: _PairTable) -> _PairTable:
    """The table of the labels of `left` followed by those of `right`."""
    width = len(right.grade)
    return _frozen(
        left.caps + right.caps, np.add.outer(left.grade, right.grade).ravel(),
        *(np.add.outer(x * width, y).ravel()
          for x, y in ((left.ia, right.ia), (left.ib, right.ib),
                       (left.ic, right.ic))))


def _frozen(caps: tuple[int, ...], *arrays) -> _PairTable:
    # shared by every caller through the cache; ic stays writeable, because
    # np.bincount copies a read-only index array on every call
    for arr in arrays[:-1]:
        arr.setflags(write=False)
    return _PairTable(*arrays, caps)


def _position(caps: tuple[int, ...], a) -> int:
    """The storage position of the monomial `a` (a Multiset or its labels):
    its multiplicities read as the digits of a mixed-radix number, label 1
    slowest (`_lattice_position`).  A multiset that does not fit the caps
    is refused."""
    a = a if isinstance(a, Multiset) else Multiset(a)
    pos = _lattice_position(caps, a)
    if pos < 0:
        raise CapExceededError(f"multiset {a} exceeds caps {caps}")
    return pos


@lru_cache(maxsize=2 ** 14)
def _lattice_position(caps: tuple[int, ...], a: Multiset) -> int:
    """The position of `_position`, or -1 for a multiset that does not fit
    the caps, memoized per (caps, multiset): every read of a map or a jet
    by multiset (`MMap.__call__`, `Jet.coefficient`, `Jet.derivative`)
    takes it, and a run of same-shape calls reads the same ones."""
    strides, pos = _strides(caps), 0
    for label, mult in a.items:
        if label > len(caps) or mult > caps[label - 1]:
            return -1
        pos += mult * strides[label - 1]
    return pos


@lru_cache(maxsize=64)
def _strides(caps: tuple[int, ...]) -> tuple[int, ...]:
    """The position step of one more of each label: the product of (c + 1)
    over the caps of the labels after it."""
    return tuple(math.prod(c + 1 for c in caps[j:])
                 for j in range(1, len(caps) + 1))


@lru_cache(maxsize=None)
def _weights(caps: tuple[int, ...]) -> np.ndarray:
    """prod(mult!) of each monomial of the caps lattice, in storage order:
    the outer product of each label's factorials 0!..c!, read-only.  It is
    sized like a jet over the caps, with no pair table."""
    out = np.ones(1)
    for cap in caps:
        out = np.multiply.outer(out, [math.factorial(m)
                                      for m in range(cap + 1)]).ravel()
    out.setflags(write=False)
    return out


def _lattice_size(n: int, caps: tuple[int, ...]) -> int:
    """The number of monomials of the caps lattice over n variables; caps
    of another length than n, or with a negative cap, are refused."""
    if len(caps) != n:
        raise DomainError("caps length must equal number of variables")
    if min(caps, default=0) < 0:
        raise DomainError(f"caps must be >= 0, got {caps}")
    return math.prod(c + 1 for c in caps)


def _check_size(what: str, count: int, nbytes_each: int) -> None:
    """Refuse, before allocating, `count` items of `nbytes_each` bytes."""
    if count * nbytes_each > MAX_DENSE_BYTES:
        raise DomainError(
            f"{count} {what} need about {count * nbytes_each / 2 ** 20:.4g} "
            f"MiB, above the {MAX_DENSE_BYTES / 2 ** 20:.0f} MiB size limit")


def _ring_product(table, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Truncated product of two coefficient vectors ordered like the
    (ia, ib, ic) pair arrays of `table`; a (k, size) stack x gives the k
    products of its rows with y.  Each coefficient sums its pair products
    in the order of the pair arrays, so a row of a stack has the bits of
    its own product.  A stack over fewer than _SCATTER_PAIRS pairs is
    scattered by one np.add.at, whose cost per call is lower; a larger one
    by one bincount per row, whose cost per pair is lower.  Over no labels
    the product is that of scalars."""
    if len(y) == 1:
        return x * y
    prod = x[..., table.ia]
    prod *= y[table.ib]
    if x.ndim == 2 and len(table.ic) < _SCATTER_PAIRS:
        out = np.zeros((x.shape[1], len(x)), dtype=complex)
        np.add.at(out, table.ic, prod.T)
        return out.T
    out = np.empty(x.shape, dtype=complex)
    for row, terms in zip(out.reshape(-1, len(y)),
                          prod.reshape(-1, len(table.ic))):
        row.real = np.bincount(table.ic, terms.real, len(y))
        row.imag = np.bincount(table.ic, terms.imag, len(y))
    return out


def _fstar(caps: tuple[int, ...], vec: np.ndarray, derivs) -> np.ndarray:
    """F*(P) = sum_k F^(k)(c) / k! (P - c)^k for the coefficient vector P
    over caps, c its constant, with F^(k)(c) = derivs(k) for k up to
    sum(caps); P's constant itself is never read.

    One label at a time, the last first.  With every earlier label at
    multiplicity 0, P over labels l..N is the head of the vector; split off
    label l, of cap c_l, as P = P_0 + D, D = sum_{1 <= m <= c_l} x^m P_m,
    each P_m over labels l+1..N (row m of that head).  Then F^(k)*(P) =
    sum_{j <= c_l} F^(k+j)*(P_0) D^j / j!, so the stack F^(0..K)* over
    labels l+1..N gives the stack F^(0..K-c_l)* over labels l..N, its
    row at x^m sum_j F^(k+j)*(P_0) [x^m] D^j / j!.  The chain starts from
    the scalars F^(k)(c), k <= sum(caps), and ends at F* over every label.
    Each product is over labels l+1..N, at most N - 1 of them; their
    suffix tables are fetched, and priced, first and largest first."""
    tables = [_pair_table(caps[at + 1:]) for at in range(len(caps))]
    stack = np.array([[derivs(k)] for k in range(sum(caps) + 1)],
                     dtype=complex)
    size = 1
    for cap, table in zip(reversed(caps), reversed(tables)):
        rows = vec[:size * (cap + 1)].reshape(cap + 1, size)
        height = len(stack) - cap
        out = np.empty((height, cap + 1, size), dtype=complex)
        out[:, 0] = stack[:height]
        powers = [rows[1:]]      # powers[j - 1][m - j] = [x^m] D^j / j!
        for j in range(2, cap + 1):
            powers.append([sum(_ring_product(table, powers[-1][i],
                                             rows[m + 1 - j - i])
                               for i in range(m + 1 - j)) / j
                           for m in range(j, cap + 1)])
        for m in range(1, cap + 1):
            out[:, m] = _ring_product(table, stack[1:1 + height], rows[m])
            for j in range(2, m + 1):
                out[:, m] += _ring_product(table, stack[j:j + height],
                                           powers[j - 1][m - j])
        stack = out.reshape(height, -1)
        size *= cap + 1
    return stack[0]


def _invertible(vec: np.ndarray) -> complex:
    """The constant part, which must be nonzero for log and inverse."""
    if vec[0] == 0:
        raise NonInvertibleError("zero constant part: not invertible")
    return complex(vec[0])


def _unit(size: int, value=1.0) -> np.ndarray:
    vec = np.zeros(size, dtype=complex)
    vec[0] = value
    return vec


class Jet:
    """Truncated polynomial; coefficients are monomial-convention complex."""

    __slots__ = ("n", "caps", "_vec")

    def __init__(self, n: int, caps: tuple[int, ...], coeffs=None):
        self.n = int(n)
        self.caps = tuple(caps)
        size = _lattice_size(self.n, self.caps)
        _check_size("jet coefficients", size, 16)
        self._vec = np.zeros(size, dtype=complex)
        for a, c in dict(coeffs or {}).items():
            self._vec[_position(self.caps, a)] = complex(c)

    @classmethod
    def _dense(cls, n: int, caps: tuple[int, ...], vec: np.ndarray) -> "Jet":
        """Wrap a lattice-ordered complex vector; no copy, no checks."""
        out = cls.__new__(cls)
        out.n, out.caps, out._vec = n, caps, vec
        return out

    def _like(self, vec: np.ndarray) -> "Jet":
        return Jet._dense(self.n, self.caps, vec)

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, value, n: int, caps: tuple[int, ...]) -> "Jet":
        return cls(n, caps, {EMPTY: value})

    @classmethod
    def variable(cls, i: int, n: int, caps: tuple[int, ...], scale=1.0) -> "Jet":
        if not (1 <= i <= n) or caps[i - 1] < 1:
            raise CapExceededError(f"no variable slot for gamma_{i}")
        return cls(n, caps, {Multiset([i]): scale})

    @classmethod
    def ensure(cls, value, n: int, caps: tuple[int, ...]) -> "Jet":
        if isinstance(value, Jet):
            return value
        return cls.scalar(value, n, caps)

    # -- reads -------------------------------------------------------------

    @property
    def coeffs(self):
        """Read-only {monomial: coefficient} of the nonzero coefficients."""
        lattice = _monomials(self.caps)
        return MappingProxyType({lattice[i]: complex(self._vec[i])
                                 for i in np.flatnonzero(self._vec)})

    @property
    def constant(self) -> complex:
        return complex(self._vec[0])

    def coefficient(self, a: Multiset) -> complex:
        """Monomial coefficient of prod gamma^mult."""
        return complex(self._vec[_position(self.caps, a)])

    def derivative(self, a: Multiset) -> complex:
        """Mixed partial at gamma = 0: coefficient times prod(mult!)."""
        pos = _position(self.caps, a)
        return complex(self._vec[pos]) * _weights(self.caps)[pos]

    def restrict(self, a: Multiset) -> "Jet":
        """This jet at gamma_j = 0 for every label j outside `a`: monomials
        whose labels all lie in `a` are kept, every other one is zeroed.

        Setting variables to zero is a ring homomorphism, so restriction
        commutes with sums, products, inverse, exp and log (jet division
        included).  On a multilinear jet it keeps exactly the monomials
        contained in `a`.  In the tensor of the storage order that is the
        slice at multiplicity 0 along every axis outside `a`.
        """
        shape = tuple(c + 1 for c in self.caps)
        kept = tuple(slice(None) if j in a.support else 0
                     for j in range(1, self.n + 1))
        vec = np.zeros_like(self._vec)
        vec.reshape(shape)[kept] = self._vec.reshape(shape)[kept]
        return self._like(vec)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Jet") -> None:
        if other.caps != self.caps:
            raise DomainError("jet shape mismatch")

    def _operand(self, other) -> np.ndarray | None:
        """Coefficient vector of a jet or scalar operand, None otherwise."""
        if isinstance(other, Jet):
            self._check(other)
            return other._vec
        if isinstance(other, (int, float, complex)):
            return _unit(len(self._vec), other)
        return None

    def __add__(self, other):
        vec = self._operand(other)
        if vec is None:
            return NotImplemented
        return self._like(self._vec + vec)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self._vec)

    def __sub__(self, other):
        vec = self._operand(other)
        if vec is None:
            return NotImplemented
        return self._like(self._vec - vec)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._like(self._vec * other)
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return self._like(_ring_product(_pair_table(self.caps), self._vec,
                                        other._vec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        vec = self._operand(other)
        if vec is None:
            return NotImplemented
        return self * self._like(vec).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- transcendental ----------------------------------------------------

    def _lift(self, derivs, over: complex = 1.0) -> "Jet":
        """F* of this jet scaled by `over` (`_fstar`), derivs(k) = F^(k)
        at the scaled constant.  log and inverse scale by 1/c, so that no
        table holds c^-k."""
        return self._like(_fstar(self.caps, self._vec * over, derivs))

    def exp(self) -> "Jet":
        """exp(c + N) = e^c sum_k N^k / k!: e^c at every order."""
        scale = cmath.exp(self._vec[0])
        return self._lift(lambda k: scale)

    def log(self) -> "Jet":
        """log(c + N) = log c + log(1 + N/c): log's derivatives at 1."""
        c = _invertible(self._vec)
        log_c = cmath.log(c)
        return self._lift(lambda k: (-1.0) ** (k + 1) * math.factorial(k - 1)
                          if k else log_c, 1.0 / c)

    def inverse(self) -> "Jet":
        """1/(c + N) = (1/c) / (1 + N/c): 1/x's derivatives at 1, over c."""
        c = _invertible(self._vec)
        return self._lift(lambda k: (-1.0) ** k * math.factorial(k) / c,
                          1.0 / c)

    # -- comparisons -------------------------------------------------------

    def max_abs_diff(self, other: "Jet") -> float:
        self._check(other)
        return float(np.max(np.abs(self._vec - other._vec)))

    def allclose(self, other: "Jet", tol: float = 1e-12) -> bool:
        return self.max_abs_diff(other) <= tol

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c:.6g})*g{a}" if not a.is_empty else f"({c:.6g})"
            for a, c in self.coeffs.items()
        )
        return f"Jet[{body or '0'}]"


class JetMatrix:
    """Square matrix with jet entries, stored as coefficient blocks.

    blocks[k] is the dense complex matrix coefficient of the k-th lattice
    monomial; blocks[0] (the empty multiset) is the constant part.
    """

    __slots__ = ("n", "caps", "blocks")

    def __init__(self, n: int, caps: tuple[int, ...], blocks: np.ndarray):
        self.n = int(n)
        self.caps = tuple(caps)
        size = _lattice_size(self.n, self.caps)
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[0] != size:
            raise DomainError("blocks must have shape (lattice, d, d)")
        if blocks.shape[1] != blocks.shape[2]:
            raise DomainError("jet matrices must be square")
        self.blocks = blocks

    @classmethod
    def zeros(cls, dim: int, n: int, caps: tuple[int, ...]) -> "JetMatrix":
        """The zero matrix; a block stack above MAX_DENSE_BYTES is refused
        before it is allocated."""
        size = _lattice_size(n, tuple(caps))
        _check_size(f"jet-matrix blocks of dimension {dim}", size,
                    16 * dim * dim)
        return cls(n, caps, np.zeros((size, dim, dim), dtype=complex))

    @classmethod
    def from_terms(cls, terms: dict, dim: int, n: int,
                   caps: tuple[int, ...]) -> "JetMatrix":
        out = cls.zeros(dim, n, caps)
        for a, mat in terms.items():
            out.blocks[_position(out.caps, a)] += np.asarray(mat, dtype=complex)
        return out

    @property
    def lattice(self) -> tuple[Multiset, ...]:
        """The monomial of each block, in storage order."""
        return _monomials(self.caps)

    @property
    def constant(self) -> np.ndarray:
        return self.blocks[0]

    def _jet(self, vec: np.ndarray) -> Jet:
        return Jet._dense(self.n, self.caps, vec)

    def trace(self) -> Jet:
        return self._jet(np.trace(self.blocks, axis1=1, axis2=2))

    def bilinear(self, bra: np.ndarray, ket: np.ndarray) -> Jet:
        """<bra| M |ket> as a jet (bra is conjugated)."""
        bra = np.asarray(bra, dtype=complex).conj()
        ket = np.asarray(ket, dtype=complex)
        return self._jet(np.einsum("i,kij,j->k", bra, self.blocks, ket))


class _Workspace(threading.local):
    """This thread's work arrays, one per role (`_workspace`)."""

    def __init__(self):
        self.arrays = {}


_WORKSPACE = _Workspace()


def _workspace(role: str, shape: tuple[int, ...], what: str) -> np.ndarray:
    """This thread's complex work array for `role`, of `shape`, holding
    whatever its last user left.  A thread holds one array per role and
    hands it out again while the shape repeats, so a run of same-shape
    calls writes to pages that are already mapped; a call at another shape
    frees the array and, once the shape[0] `what` are priced against
    MAX_DENSE_BYTES, allocates its successor.  The caller returns neither
    the array nor a view of it."""
    arrays = _WORKSPACE.arrays
    if role not in arrays or arrays[role].shape != shape:
        arrays.pop(role, None)
        _check_size(what, shape[0], 16 * math.prod(shape[1:]))
        arrays[role] = np.empty(shape, dtype=complex)
    return arrays[role]


def _nonzero(blocks: np.ndarray) -> np.ndarray:
    """Which blocks of a (lattice, ..., d, d) stack hold a nonzero entry."""
    return blocks.any(axis=tuple(range(1, blocks.ndim)))


def _block_products(table, a: np.ndarray, b: np.ndarray,
                    out: np.ndarray) -> None:
    """out += a @ b for block stacks in the lattice order of `table`: one
    BLAS product per pair-table triple whose two blocks are nonzero, added
    in the order of the pair arrays.  The blocks may be rectangular:
    (lattice, r, p) times (lattice, p, c).  Axes between the lattice axis
    and the block axes are a batch, which each product broadcasts over.

    Two paths give the same bits.  The loop runs one np.matmul and one
    in-place add per kept triple, a few us of interpreter time each.  Many
    products of small blocks (at least _BATCH_COUNT kept triples, each of
    at most _BATCH_WORK complex multiply-adds, r p c times the batch, into
    a C-contiguous out) take the batched path instead: gather the kept
    blocks, take one np.matmul over the stack, which runs the same BLAS
    product per triple, and add the products into out with one np.add.at
    over flat positions.  np.add.at adds unbuffered in index order, so each
    entry sums in the loop's order; triples go in chunks of at most
    _BATCH_BYTES, in pair order.  The batched path costs 5-10 us more per
    call, so a call of few triples keeps the loop; blocks of 16^3
    multiply-adds break even, and from 32^3 up the gather and the stacked
    product are slower than the loop (the per-call table in CHANGES.md).
    Which triples are kept, and the batched path's chunks and flat
    positions, depend only on the caps, the two stacks' zero-block patterns
    and the block shapes (`_kept_triples`); the patterns are scanned on
    every call, so a block that is zero in one call and nonzero in the next
    gets the triples of its own pattern."""
    size = math.prod(out.shape[1:])
    step = 0                       # triples per chunk; 0: the loop
    if out.flags.c_contiguous and \
            math.prod(a.shape[1:]) * b.shape[-1] <= _BATCH_WORK:
        step = max(1, _BATCH_BYTES // (16 * (math.prod(a.shape[1:])
                                             + math.prod(b.shape[1:]) + size)
                                       + 8 * size))
    nonzero_a, nonzero_b = _nonzero(a), _nonzero(b)
    chunks, *triples = _kept_triples(
        table.caps, nonzero_a.tobytes(), nonzero_b.tobytes(), size, step) \
        or _select_triples(table, nonzero_a, nonzero_b, size, step)
    if chunks is not None:
        _batched_products(chunks, a, b, out)
        return
    prod = np.empty(out.shape[1:], dtype=complex)  # reused
    for i, j, c in zip(*(x.tolist() for x in triples)):
        out[c] += np.matmul(a[i], b[j], out=prod)


@lru_cache(maxsize=64)
def _kept_triples(caps: tuple[int, ...], pattern_a: bytes, pattern_b: bytes,
                  size: int, step: int) -> tuple | None:
    """`_select_triples` on the pair table of `caps` for the zero-block
    patterns `pattern_a` and `pattern_b` (bytes of bools), its chunks
    listed, or None where it would hold more than _KEPT_INDICES indices;
    `_block_products` then selects afresh on each call, one chunk at a
    time.  The arrays are read-only and shared by every thread."""
    table = _pair_table(caps)
    nonzero = [np.frombuffer(p, dtype=bool) for p in (pattern_a, pattern_b)]
    count = np.count_nonzero(nonzero[0][table.ia] & nonzero[1][table.ib])
    batched = step and count >= _BATCH_COUNT
    if count * (3 + size if batched else 3) > _KEPT_INDICES:
        return None
    chunks, *triples = _select_triples(table, *nonzero, size, step)
    chunks = tuple(chunks) if batched else None
    for arr in [*triples, *itertools.chain.from_iterable(chunks or ())]:
        arr.setflags(write=False)
    return chunks, *triples


def _select_triples(table, nonzero_a: np.ndarray, nonzero_b: np.ndarray,
                    size: int, step: int) -> tuple:
    """The triples (ia, ib, ic) of `table` whose a and b blocks are both
    nonzero, for output blocks of `size` entries, after their chunks: with
    a step and at least _BATCH_COUNT triples, the batched path's (ia, ib,
    flat positions in out) per `step` triples, in pair order, made as they
    are read; else None, for the loop."""
    keep = nonzero_a[table.ia] & nonzero_b[table.ib]
    ia, ib, ic = table.ia[keep], table.ib[keep], table.ic[keep]
    if not step or len(ic) < _BATCH_COUNT:
        return None, ia, ib, ic
    entries = np.arange(size)
    return ((ia[lo:lo + step], ib[lo:lo + step],
             (ic[lo:lo + step, None] * size + entries).ravel())
            for lo in range(0, len(ic), step)), ia, ib, ic


def _batched_products(chunks, a: np.ndarray, b: np.ndarray,
                      out: np.ndarray) -> None:
    """The batched path of `_block_products` over the chunks of the kept
    triples (`_select_triples`): per chunk, the gathered blocks, their
    products, added at their flat positions in out."""
    flat = out.reshape(-1)
    for ia, ib, at in chunks:
        np.add.at(flat, at, np.matmul(a[ia], b[ib]).ravel())


def jet_matrix_exp(m: JetMatrix) -> JetMatrix:
    """Matrix exponential in the truncated polynomial ring by the Taylor
    route (steps 1-3).  `spectral_jet_matrix_exp` is the other route; step
    4 says which caller takes which.

    Write X = sum_a X_a gamma^a, G = sum(caps) for the top grade, |a| for
    the grade of monomial a, and ||.|| for the block 1-norm.

    1. Scaling.  s = max(0, ceil(log2(||X_0|| / theta))), theta = 0.5, and
       Y = X / 2^s, so mu = ||Y_0|| <= theta.  The couplings do not enter
       s: every block of grade >= 1 is nilpotent in the ring, so the bound
       of step 2 holds grade by grade whatever their size.  A rescaling
       gamma -> 2^-k gamma multiplies block a by 2^(-k|a|); it is a ring
       automorphism that powers of two make exact in floating point, so at
       a fixed s it commutes bit for bit with every operation of the
       route, and the result commutes exactly with it.
    2. Degree.  Let P(t) = sum_g (sum_{|a|=g} ||Y_a||) t^g = mu + Q(t).
       The grade-g part of Y^j is bounded by [t^g] P^j, and since Q starts
       at t^1,
           [t^g] sum_{j>m} P^j / j!  <=  mu^(m-g+1) / (m-g+1)! * [t^g] e^P,
       where [t^g] e^P bounds the grade-g part of e^Y.  Remainder and e^Y
       commute, so s squarings leave the grade-g error at most
       (1 + eps)^(2^s) - 1 ~ 2^s eps, eps = mu^(m-G+1) / (m-G+1)!, of the
       grade-g bound [t^g] e^(2^s P) on exp(X), for every grade.  m is the
       smallest degree with 2^s eps <= 2^-53.  A zero constant block
       (mu = 0) makes X nilpotent and m = G exact.
    3. Evaluation (Paterson-Stockmeyer).  Split the Taylor polynomial into
       c chunks of q coefficients, the top chunk taking q + 1, so that
       T_m(Y) = sum_i Y^(iq) C_i with C_i = sum_j Y^j / (iq + j)!.  Form
       Y..Y^q in one (q, lattice, d, d) stack, run Horner in Y^q over the
       chunks and square s times.  That is q - 1 + c - 1 products plus s
       squarings; q minimises the products (ties: fewer stored powers,
       q ~ sqrt m), and m is raised to c q, which the same products reach.
       Each power is Y times the one below, and a chunk adds its powers
       one at a time, in a fixed order: the postselected values thm4 feeds
       move by up to 1e-13 relative when that sum is reordered (e.g. into
       one tensordot over the stack).
    4. Role.  A caller takes the route its role gives it, never the one a
       cost estimate prefers: the thermal check's lhs, the joint-space
       Boltzmann jet e^(-beta H), takes the spectral route, and every other
       caller takes this one: the system-side partition jet of the thermal
       and multiset right-hand sides, the window e^(-i tau H) and the D
       map.  Both sides of an identity computed by one algorithm share its
       defects, and a defect that moves both alike passes the check; a
       route chosen by modelled cost put both thermal sides on one
       algorithm at many shapes.  The rule costs only self-checks: where
       the lhs's spectral states do not fit in MAX_DENSE_BYTES (thermal at
       7 qubit pointers, or 6 pointers on a 4-dim system), the thermal
       check exits 3 rather than run both sides on this route.
    The route refuses, before allocating, to hold more than MAX_DENSE_BYTES
    in its q + 2 block stacks.  A result that left the double range (an inf
    or a nan from an overflow, such as e^(-beta E) at a large beta) is
    refused with a DomainError.
    """
    norms = _block_norms(m.blocks)
    _finite(norms)
    table = _pair_table(m.caps)
    return JetMatrix(m.n, m.caps, _in_double_range(
        _taylor_exp, m.blocks, partial(_ring_matmul, table),
        _taylor_schedule(int(table.grade.max()), norms[0])))


def _ring_matmul(table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for two block stacks in the lattice order of `table`, as a
    new stack."""
    out = np.zeros_like(a)
    _block_products(table, a, b, out)
    return out


def spectral_jet_matrix_exp(w, couplings, sys_dim: int) -> JetMatrix:
    """Matrix exponential in the truncated polynomial ring by the spectral
    route (notation, and which caller takes this route: the
    `jet_matrix_exp` docstring), for the multilinear generator
    X = diag(w) + sum_j gamma_j N_j that is linear in gamma, given as what
    it holds: the D real ascending points w of its constant block and its
    (n, D, D) coupling blocks, N_j = couplings[j - 1].  The result, at caps
    (1,) * n, is returned traced over the first tensor factor of its space,
    of dimension sys_dim: the D x D blocks of exp(X) become the P x P
    blocks of tr_1 exp(X), P = D / sys_dim, block (i, j) the sum over s of
    entry (s P + i, s P + j).  sys_dim = 1 traces nothing.  The thermal
    lhs passes the system's dimension: it reads the Boltzmann jet B only as
    tr(B (1 (x) R)) = tr(tr_1(B) R).

    Let diag(w) = sum_c l_c P_c with spectral projectors P_c, and
    N = sum_j gamma_j N_j.  Expanding exp(diag(w) + N) in powers of N
    (Dyson) and integrating each term over its simplex gives
        exp(X) = sum_k sum_{c_0..c_k} exp[l_c0, ..., l_ck]
                     P_c0 N P_c1 N ... N P_ck,
    with exp[...] the divided differences of exp (Higham, Functions of
    Matrices, SIAM 2008, sec. 3.2).  N is nilpotent in the ring: a product
    of n + 1 couplings has grade above the top grade n and is truncated
    away.  The sum therefore ends at k = n and is exact, not a truncated
    series.  The caller supplies the eigenbasis: the thermal lhs
    diagonalises H_S at the system's size and builds its couplings from
    U^H A_j U, so its points are those of -beta diag(w_S) (x) 1, with no
    joint-space eigh and no joint-space constant block, and its reads
    tr(B (1 (x) R)) are unchanged by U (x) 1, so no change back runs
    either.  The route:
    a. A run of equal points of w is one cluster, and its common value is
       the cluster's point l_c: no tolerance merges close points, since
       the divided differences of step b stay accurate at them.  The
       thermal points -beta w_S (x) 1 repeat each system eigenvalue
       exactly P times, so they have at most d_s clusters, not D.
    b. A P_c is an index range.  Divided differences are symmetric, so
       every order of the middle clusters c_1..c_(k-1) shares one weight
       per end pair (c_0, c_k).  The sum is a recursion over the multiset M
       of middle clusters: T(empty) = N, T(M) = sum_{c in M} T(M - c) P_c
       N, each term a ring product of cluster sub-blocks, (lattice, D, n_c)
       by (n, n_c, D).  The products of a level are one BLAS product per
       pair of its (state row, coupling row, output row) list, taken from
       the pair table in its order, with no scan for zero blocks; the
       first product of each output row is written in place and the rest
       are added into place in that order.  The route shares no product
       function with the Taylor route.  It enters the result weighted
       entrywise by exp[l_a, l_M, l_b], a and b the clusters of row and
       column.  Divided differences come from Opitz's theorem: for the
       bidiagonal J with diagonal x_0..x_r and ones above it,
       exp(J)[0, r] = exp[x_0, ..., x_r], repeated points included.  The
       J of every M are zero-padded to one size and exponentiated as one
       batch by the Taylor route, which scales and squares them;
       McCurdy, Ng & Parlett (Math. Comp. 43, 1984) show that this keeps
       divided differences at close points accurate, where the quotient
       formula cancels.  All that does not depend on the points' values
       is planned once per shape, keyed by (n, the cluster sizes,
       sys_dim), and cached (`_spectral_plan`): the multisets M of each
       level and the row of each T(M - c), the product lists with each
       output row's first product marked, and the Opitz matrices' ones,
       diagonal and corners, whose diagonal a call fills from the points.
    c. What is held.  N is read in place from the coupling blocks, the n
       grade-1 blocks of X.  The T(M) of |M| = g - 1 form level g, and
       hold only grade g, which their products reach by construction:
       C(n, g) blocks.  The trace is linear and the weight of an entry
       depends only on its row and column, so each weighted T(M) enters
       the (lattice, P, P) sum through its system-diagonal blocks alone.
       The last level, grade n at one position, is only ever summed with
       its weights, so it is never formed (`_spectral_fold`): its sum,
       sum_M W_M o T(M) with T(M) = sum_{c in M} T(M - c) P_c N, is taken
       by c instead of M.  Where the clusters of row and column are fixed,
       in the thermal layout on each system block, the weight is one
       number per row, so it moves onto the left factor: the weighted sum
       over M of the T(M - c) restricted to the columns of c.  Those left
       factors, for every c side by side, then take one product per label
       by the matching N, (sys_dim, P, D) by (sys_dim, D, P), summed over
       the labels and the system into the top block.  Where a cluster
       boundary falls inside a system block, as sys_dim 1 with arbitrary
       points allows, the block is cut at every such boundary, taken at
       its offset in the block, into regions on which that holds, and the
       fold runs once per region.  The plan holds, per multiset of level
       n - 1 and cluster c, the Opitz row of m + c, and per region the
       index of every weight.  The states, the fold's left factors and
       weights, one product's output, level 1's system-diagonal blocks,
       whose part the fold's products take over, and the weights and sums
       of a level are the parts of one array of this thread's workspace
       (module docstring), reused by the next call at the same shape;
       no level is zero-filled, since every block of a level is first
       written by its first product, and the levels of each parity share
       one part, the fold's arrays that of the last level.  One function,
       `_spectral_layout`, gives the shape of each level's states and of
       the fold's arrays, the size of each part and the blocks priced, so
       the size limit counts what the route holds; the plan takes it from
       there, and prices it before it builds anything else.
    Work: per multiset M below the last level, cluster c in M and
    pair-table pair, one product of D x n_c x D; for the last level, per
    label, one product of sys_dim x (P x D x P), after one pass over the
    states of level n - 1 that weights and sums them.  At n = 3 with two
    clusters on 2 x 64 dimensions that is 12 products of 128 x 64 x 128
    and 3 of 2 x (64 x 128 x 64): 7.5 products of 128 x 128 blocks'
    worth, against 176-190 on the Taylor route.
    Points that are not real and ascending, coupling blocks that are not
    (n, D, D), either with an inf or a nan, a sys_dim that is not a
    positive integer dividing D and, before they are allocated, states
    that would not fit in MAX_DENSE_BYTES (the sum, two levels of T(M) and
    the work blocks) are refused with a DomainError.  The result is a new
    array, never a workspace one, so a result held across later calls
    keeps its values.  None falls back to
    the Taylor route, which would put both sides of the thermal check on
    one algorithm.  A result that left the double range is refused as by
    `jet_matrix_exp`.
    """
    w = np.asarray(w)
    couplings = np.ascontiguousarray(couplings, dtype=complex)
    if couplings.ndim != 3 or couplings.shape[1:] != w.shape * 2:
        raise DomainError("the spectral exponential takes D points and "
                          "(n, D, D) coupling blocks")
    _finite(w, couplings)
    if w.imag.any() or (np.diff(w.real) < 0).any():
        raise DomainError("the spectral exponential needs real, ascending "
                          "points")
    if not (isinstance(sys_dim, (int, np.integer))
            and not isinstance(sys_dim, bool) and sys_dim >= 1
            and len(w) % sys_dim == 0):
        raise DomainError(f"the system dimension {sys_dim!r} must divide the "
                          f"generator's dimension {len(w)}")
    n = len(couplings)
    return JetMatrix(n, (1,) * n, _in_double_range(
        _spectral_exp, couplings, w.real, sys_dim))


def _finite(*arrays) -> None:
    """Refuse an inf or a nan in any of the arrays."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError("the jet matrix exponential needs finite blocks")


def _in_double_range(route, *args) -> np.ndarray:
    """route(*args), the blocks of an exponential.  An overflow leaves an
    inf or a nan in them, which is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = route(*args)
    if not np.isfinite(blocks).all():
        raise DomainError(
            "the jet matrix exponential overflows: exp of this jet matrix "
            f"leaves the double range (|x| <= {np.finfo(float).max:.3g}); "
            "e.g. a Boltzmann factor e^(-beta E) at too large a beta")
    return blocks


def _block_norms(blocks: np.ndarray) -> np.ndarray:
    """The 1-norm of every block of a (lattice, d, d) stack."""
    return np.abs(blocks).sum(axis=1).max(axis=1)


class _Schedule(NamedTuple):
    """Taylor route parameters (docstring of jet_matrix_exp, steps 1-3)."""

    s: int        # squarings, from the constant block alone
    q: int        # powers Y..Y^q held
    degree: int   # Taylor degree, a multiple of q


def _taylor_schedule(top: int, const: float) -> _Schedule:
    """The schedule for a generator of top grade `top` whose constant block
    has the 1-norm `const`."""
    s = max(0, math.ceil(math.log2(const / _THETA))) if const else 0
    mu = const * 2.0 ** -s
    tail = 1                       # m - G + 1 in the bound of step 2
    while 2 ** s * mu ** tail / math.factorial(tail) > _UNIT_ROUNDOFF:
        tail += 1
    degree = max(top + tail - 1, 1)
    # fewest products (q - 1 powers, then one per chunk after the first),
    # then fewest stored powers; the last chunk is filled up to q terms
    q = min(range(1, degree + 1), key=lambda p: (p + -(-degree // p), p))
    return _Schedule(s, q, q * -(-degree // q))


def _taylor_exp(blocks: np.ndarray, product, schedule: _Schedule) -> np.ndarray:
    """Steps 1-3 of the jet_matrix_exp docstring on a (lattice, ..., d, d)
    block stack, whose ring product product(a, b) returns a new stack:
    `_ring_matmul` over the stack's pair table, or np.matmul on a lattice
    of one monomial.  Axes between the lattice axis and the block axes are
    a batch of exponentials, all taken with the one schedule."""
    s, q, degree = schedule
    dim = blocks.shape[-1]
    # Y..Y^q, the Horner accumulator and one product's output
    _check_size(f"jet-matrix blocks of dimension {dim} held by the "
                f"Taylor exponential", (q + 2) * len(blocks), blocks[0].nbytes)
    powers = np.empty((q, *blocks.shape), dtype=complex)      # Y^1..Y^q
    np.multiply(blocks, 2.0 ** -s, out=powers[0])
    for j in range(1, q):
        powers[j] = product(powers[j - 1], powers[0])

    def add_chunk(into: np.ndarray, lo: int, hi: int) -> None:
        """into += sum_{j=lo}^{hi} Y^(j-lo) / j!, in place."""
        into[0] += np.eye(dim) * (1.0 / math.factorial(lo))
        for j in range(lo + 1, hi + 1):
            into += powers[j - lo - 1] * (1.0 / math.factorial(j))

    acc = np.zeros_like(powers[0])
    add_chunk(acc, degree - q, degree)
    for lo in range(degree - 2 * q, -1, -q):
        acc = product(acc, powers[-1])
        add_chunk(acc, lo, lo + q - 1)
    del powers                     # the squarings need only acc
    for _ in range(s):
        acc = product(acc, acc)
    return acc


def _clusters(w: np.ndarray) -> np.ndarray:
    """Cluster boundaries of the ascending points w, which split it into
    runs of equal points: 0, the start of every run after the first,
    len(w)."""
    return np.concatenate(([0], np.flatnonzero(np.diff(w)) + 1, [len(w)]))


def _spectral_layout(n: int, count: int, sys_dim: int, part: int) -> tuple:
    """What the spectral route holds for n couplings whose points form
    `count` clusters, traced over a first factor of sys_dim dimensions,
    P = part and D = sys_dim P: (shapes, parts, blocks).

    shapes[g] is the shape of the states of level g + 1, the T(M) of the
    multisets M of g middle clusters at the C(n, g + 1) positions of grade
    g + 1, (mids, k, D, D), for every level formed: all but the last at
    n >= 2, level 1 alone at n = 1.  Level 1, N, is read in place from the
    couplings, so shapes[0] is never allocated.  At n >= 2 the last level
    is folded into its weights (`_spectral_fold`), and shapes[n - 1] holds,
    in place of its states, the shapes of the fold's left factors
    (sys_dim, P, D) and of its weights (mids of level n - 1, sys_dim, D),
    held as twice as many reals.  parts are the entries of the parts that
    the route's one workspace array is cut into, in order: the states of
    the odd levels and those of the even levels, each part sized to the
    largest level of its parity, the fold counted as the last level, so
    that the two hold two consecutive levels, since the level sizes rise
    and then fall; one product's output, D^2, when a level is formed by
    products (n >= 3); n sys_dim blocks of P x P, level 1's system-diagonal
    blocks and then the fold's products; and a level's weights, its sums
    and the sums of the result that it adds them to, sized to the largest
    level that is summed so.  blocks counts the P x P blocks priced: those
    parts, the (lattice, P, P) result, and the iteration buffers of the
    np.einsum that sums a level: np.getbufsize() entries for each of its
    three operands, both rounded up to whole blocks."""
    if not n:       # the result, exp(diag(w)) traced, is all that is held
        return [], (0,) * 5, 1
    dim, block = sys_dim * part, part * part
    shapes = [(math.comb(count + g - 1, g), math.comb(n, g + 1), dim, dim)
              for g in range(max(n - 1, 1))]
    sizes = [math.prod(shape) for shape in shapes]
    summed = shapes[:]
    if n > 1:
        shapes.append(((sys_dim, part, dim), (shapes[-1][0], sys_dim, dim)))
        sizes.append(sum(map(math.prod, shapes[-1])))
    parts = (max(sizes[2::2], default=0), max(sizes[1::2], default=0),
             dim * dim if n > 2 else 0, n * sys_dim * block,
             max((m * sys_dim + 2 * k) * block for m, k, *_ in summed))
    return shapes, parts, 2 ** n - (-sum(parts) // block) \
        - (-3 * np.getbufsize() // block)


class _SpectralLevel(NamedTuple):
    """Level g of the spectral route, the T(M) of the multisets M of g - 1
    middle clusters, as `_spectral_plan` lays it out."""

    at: np.ndarray   # its lattice positions, those of grade g, ascending
    mids: slice      # its multisets M, a run of the plan's Opitz stack
    # per M, in that order: (c, the row of T(M - c) in level g - 1) for
    # each distinct cluster c of M, ascending
    steps: tuple
    # (state row, coupling row, output row, first) of every product of a
    # level g - 1 position by a grade-1 one, in pair order; `first` marks
    # the first product of each output row
    triples: tuple


class _SpectralPlan(NamedTuple):
    """What the spectral route does at one shape that does not depend on
    the data (`_spectral_plan`)."""

    shapes: tuple    # `_spectral_layout`'s
    parts: tuple     # `_spectral_layout`'s
    levels: tuple    # a _SpectralLevel per level formed: 1..n - 1, or 1
    # the fold of the last level at n >= 2 (`_fold_regions`), else None
    fold: tuple | None
    cuts: tuple      # each cluster's index range
    labels: np.ndarray  # the cluster of each (system, pointer) index
    flat: np.ndarray    # each system-diagonal entry's [a, b], a count + b
    opitz: np.ndarray | None  # the Opitz stack's ones, one J per multiset
    diagonal: tuple | None    # (J, position, cluster) of its diagonal entries
    corner: tuple | None      # the [a, b] corner of each J, as an index


@lru_cache(maxsize=None)
def _spectral_plan(n: int, sizes: tuple[int, ...],
                   sys_dim: int) -> _SpectralPlan:
    """The spectral route's plan for n couplings whose points form clusters
    of `sizes` points, traced over a first factor of sys_dim dimensions:
    its layout (`_spectral_layout`, which prices it first), each formed
    level's positions, multisets and product list, the fold of the last
    level, and the pattern of the Opitz stack of
    `_exp_divided_differences`.  It depends on the shape alone, so a run of
    same-shape calls builds it once; its arrays are read-only and shared by
    every thread."""
    count, part = len(sizes), sum(sizes) // sys_dim
    shapes, parts, blocks = _spectral_layout(n, count, sys_dim, part)
    _check_size(f"blocks of dimension {part} held by the spectral "
                f"exponential", blocks, 16 * part * part)
    # the Opitz stack, one J of 2 count + n - 1 points per multiset of at
    # most n - 1 middle clusters, and its Taylor batch, at least one power,
    # the accumulator and one product (`_taylor_exp`): priced before any is
    # built, so a refused shape leaves no plan behind
    size = 2 * count + n - 1
    _check_size(f"Opitz matrices of dimension {size} held by the spectral "
                f"exponential", 4 * sum(math.comb(count + g - 1, g)
                                        for g in range(n)), 16 * size * size)
    table = _pair_table((1,) * n)
    # level g holds the positions of grade g, g = 1..n
    masks = [table.grade == g for g in range(1, n + 1)]
    # the coupling row of each grade-1 position: label 1 is slowest, so the
    # ascending positions 1, 2, 4, ... hold labels n, ..., 1
    coupling_row = np.zeros(len(table.grade), dtype=np.intp)
    coupling_row[table.grade == 1] = np.arange(n - 1, -1, -1)
    # level g: the multisets M of g - 1 middle clusters, in one order
    mids = [list(itertools.combinations_with_replacement(range(count), g))
            for g in range(n)]
    index = [{mid: i for i, mid in enumerate(group)} for group in mids]

    def less(mid: tuple, c: int) -> tuple:
        """M - c: the sorted multiset `mid` with one c removed."""
        i = mid.index(c)
        return mid[:i] + mid[i + 1:]

    # every level but the last at n >= 2 is formed; each holds its rows in
    # lattice order, level 1 too, as the reversed couplings
    levels, lo = [], 0
    for g, mask in enumerate(masks[:max(n - 1, 1)]):
        rows, steps, triples = np.cumsum(mask) - 1, (), ()
        if g:
            keep = masks[g - 1][table.ia] & masks[0][table.ib]
            out = rows[table.ic[keep]]
            first = np.zeros(len(out), dtype=bool)
            first[np.unique(out, return_index=True)[1]] = True
            triples = tuple(zip(where[table.ia[keep]].tolist(),
                                coupling_row[table.ib[keep]].tolist(),
                                out.tolist(), first.tolist()))
            # T(M) = sum_{c in M} T(M - c) P_c N
            steps = tuple(tuple((c, index[g - 1][less(mid, c)])
                                for c in sorted(set(mid))) for mid in mids[g])
        where = rows
        levels.append(_SpectralLevel(np.flatnonzero(mask),
                                     slice(lo, lo + len(mids[g])),
                                     steps, triples))
        lo += len(mids[g])
    bounds = np.cumsum((0, *sizes)).tolist()
    # the cluster of each row and column of the system-diagonal blocks, as
    # the flat [a, b] position in a divided-difference table
    labels = np.repeat(np.arange(count), sizes).reshape(sys_dim, part)
    flat = labels[:, :, None] * count + labels[:, None, :]
    fold = _fold_regions(labels, [
        [lo + index[-1][tuple(sorted((*mid, c)))] for c in range(count)]
        for mid in mids[-2]]) if n > 1 else None
    for arr in (labels, flat, *(level.at for level in levels)):
        arr.setflags(write=False)
    return _SpectralPlan(tuple(shapes), parts, tuple(levels), fold,
                         tuple(map(slice, bounds[:-1], bounds[1:])),
                         labels, flat, *_opitz_pattern(count, mids))


def _fold_regions(labels: np.ndarray, top: list) -> tuple:
    """The fold of the last level (`_spectral_fold`), given the plan's
    cluster grid `labels` and top[m][c], the Opitz row of the last level's
    multiset m + c, m a multiset of level n - 1 in its order: (offsets,
    regions).  The weight of column y of the left factor at [m, s] is the
    entry [a, b] of the table of m + c(y), a and b the clusters of its
    rows and columns at the system index s; seen as reals, the tables hold
    it at offsets[m, y] + corner[s].  offsets holds each offset twice, for
    the real and imaginary part of the entry that the weight scales: a
    (mids, 2 D) array.  The P x P block is cut, along rows and columns
    alike, at every offset where the cluster changes inside some system
    block; on each region a and b are fixed at each s, and a region is
    (rows, cols, corner): its slices and the (sys_dim, 1) offsets of its
    [a, b].  In the thermal layout every system block lies in one
    cluster, and the one region is the whole block."""
    part, count = labels.shape[1], labels.max() + 1
    offsets = np.repeat(2 * count * count * np.array(top)[
        :, labels.reshape(-1)], 2, axis=-1)
    cuts = [0, *np.flatnonzero((np.diff(labels) != 0).any(axis=0)) + 1, part]
    runs = list(map(slice, cuts[:-1], cuts[1:]))
    regions = []
    for rows, cols in itertools.product(runs, runs):
        corner = 2 * (labels[:, rows.start, None] * count
                      + labels[:, cols.start, None])
        corner.setflags(write=False)
        regions.append((rows, cols, corner))
    offsets.setflags(write=False)
    return offsets, tuple(regions)


def _opitz_pattern(count: int, mids: list) -> tuple:
    """The Opitz stack of `_exp_divided_differences` for the multisets
    `mids[g]` of g middle clusters, g = 0, 1, ...: its ones, and the
    (J, position, cluster) index of its diagonal entries and the [a, b]
    corner of each J, both as index arrays, or three Nones for no
    multiset, all read-only.  The J of one level have one size and one
    pattern of ones, set with one assignment per level."""
    flat = [mid for group in mids for mid in group]
    if not flat:
        return None, None, None
    ends = np.arange(count)
    size = 2 * count + len(mids) - 1
    opitz = np.zeros((len(flat), size, size), dtype=complex)
    lo = 0
    for r, group in enumerate(mids):
        if r:      # first block -> middle points, in order -> last block
            chain = count + np.arange(r)
            heads = np.concatenate((ends, chain[:-1],
                                    np.full(count, chain[-1])))
            tails = np.concatenate((np.full(count, count), chain[1:],
                                    count + r + ends))
        else:      # first block -> last block
            heads, tails = np.repeat(ends, count), count + np.tile(ends, count)
        opitz[lo:lo + len(group), heads, tails] = 1.0
        lo += len(group)
    lengths = np.array([len(mid) for mid in flat])
    diagonal = (np.repeat(np.arange(len(flat)), 2 * count + lengths),
                np.concatenate([np.arange(2 * count + r) for r in lengths]),
                np.concatenate([(*ends, *mid, *ends) for mid in flat]))
    corner = (np.arange(len(flat))[:, None, None], ends[:, None],
              (count + lengths)[:, None, None] + ends)
    for arr in (opitz, *diagonal, *corner):
        arr.setflags(write=False)
    return opitz, diagonal, corner


def _spectral_exp(couplings: np.ndarray, w: np.ndarray,
                  sys_dim: int) -> np.ndarray:
    """The spectral_jet_matrix_exp docstring's route for the generator
    diag(w) + sum_j gamma_j couplings[j - 1], w real and ascending: the
    divided-difference expansion of exp(X) about diag(w), traced over the
    first tensor factor, of dimension sys_dim.  Returns the (lattice, P, P)
    blocks of caps (1,) * n, P = D / sys_dim.  Everything that depends on
    the shape alone comes from its plan (`_spectral_plan`)."""
    n, dim = len(couplings), len(w)
    part = dim // sys_dim
    bounds = _clusters(w)
    plan = _spectral_plan(n, tuple(np.diff(bounds).tolist()), sys_dim)
    flat, cuts = plan.flat, plan.cuts
    lam = w[bounds[:-1]]                            # one point per cluster
    tables = _exp_divided_differences(lam, plan) if n else None
    acc = np.zeros((2 ** n, part, part), dtype=complex)
    np.fill_diagonal(acc[0], np.exp(lam)[plan.labels].sum(axis=0))
    # the work arrays are the parts of one array of this thread's workspace
    # (module docstring), cut as the layout says
    *pools, product, firsts, work = np.split(_workspace(
        "spectral work", (sum(plan.parts),), "entries of spectral work"),
        np.cumsum(plan.parts)[:-1])

    def add(level: _SpectralLevel, diagonal: np.ndarray) -> None:
        """acc += the (mids, k, sys_dim, P, P) system-diagonal blocks of the
        T(M) of `level`, held at its lattice positions, weighted entrywise
        by exp[l_a, l_M, l_b] and summed over M and the system, with the
        weights, acc[at] and the sums held in `work`.  np.take writes into
        its `out` without a buffer only in a mode other than "raise"; the
        indices are in range, so "clip" changes nothing."""
        group, at = tables[level.mids], level.at
        cut, size = len(group) * flat.size, len(at) * part * part
        weights = np.take(group.reshape(len(group), -1), flat, axis=1,
                          mode="clip", out=work[:cut].reshape(
                              len(group), *flat.shape))
        sums = np.take(acc, at, axis=0, mode="clip", out=work[
            cut:cut + size].reshape(len(at), part, part))
        sums += np.einsum("mksij,msij->kij", diagonal, weights, out=work[
            cut + size:cut + 2 * size].reshape(len(at), part, part))
        acc[at] = sums

    def system_diagonal(states: np.ndarray) -> np.ndarray:
        """The (..., k, sys_dim, P, P) system-diagonal blocks of a stack of
        (k, D, D) states, as a view."""
        return np.einsum("...sisj->...sij", states.reshape(
            *states.shape[:-2], sys_dim, part, sys_dim, part))

    # level 1 is N, read in place from the couplings, its rows in lattice
    # order (labels n..1); a deeper level's states are one (mids, k, D, D)
    # array, holding its k positions in lattice order
    states = couplings[None, ::-1]
    if n:
        diagonal = firsts.reshape(n, sys_dim, part, part)
        np.copyto(diagonal, system_diagonal(states[0]))
        add(plan.levels[0], diagonal[None])
    for g, level in enumerate(plan.levels[1:], start=1):
        shape = plan.shapes[g]
        deeper = pools[g % 2][:math.prod(shape)].reshape(shape)
        prod = product[:dim * dim].reshape(dim, dim)
        for out, steps in zip(deeper, level.steps):
            # T(M) = sum_{c in M} T(M - c) P_c N; the first product of an
            # output row is written in place, so no level is zero-filled
            for j, (c, row) in enumerate(steps):
                left, right = states[row][:, :, cuts[c]], couplings[:, cuts[c]]
                for a, b, k, first in level.triples:
                    if first and not j:
                        np.matmul(left[a], right[b], out=out[k])
                    else:
                        out[k] += np.matmul(left[a], right[b], out=prod)
        states = deeper
        add(level, system_diagonal(states))
    if plan.fold:
        _spectral_fold(states, couplings, tables, plan, pools[(n - 1) % 2],
                       firsts, acc[-1])
    return acc


def _spectral_fold(states: np.ndarray, couplings: np.ndarray,
                   tables: np.ndarray, plan: _SpectralPlan, pool: np.ndarray,
                   products: np.ndarray, out: np.ndarray) -> None:
    """Step c of the spectral_jet_matrix_exp docstring: the last level,
    grade n at its one position, written to `out`, the P x P top block of
    the traced result, without forming it.  `states` are the (mids, n, D,
    D) states of level n - 1, whose row r is the position without label
    r + 1, the couplings the n blocks N_j, `tables` the divided
    differences; the fold's left factors and weights are cut from `pool`
    and its products from `products`, as `_spectral_layout` sizes them.

    The last level enters the result only as sum_M W_M o T(M), the trace
    taken, T(M) = sum_{c in M} T(M - c) P_c N.  Summed by c instead of M,
    M = m + c runs over every multiset m of level n - 1 once per cluster
    c.  In a region (`_fold_regions`) the weight of entry (row, column) of
    system block s depends only on s, on m + c, and on the row, through
    its cluster, so it moves onto the left factor before the product:
        out[region] = sum_r sum_s L[r, s] @ N_(r+1)[:, cols of block s],
        L[r, s][i, y] = sum_m W_(m + c(y))[a, b] T(m)_r[s P + i, y],
    with c(y) the cluster of y, and a and b those of the region's rows and
    columns in block s.  Per r, one np.einsum forms every L[r, s] of a
    region, with the weights, which are real, applied to the real and
    imaginary parts as two reals, and one batch of sys_dim products of
    P x D x P multiplies them; one sum over r and s writes the region.  In
    the thermal layout the region is the whole block."""
    mids, n, dim = len(states), len(couplings), couplings.shape[-1]
    shapes = plan.shapes[-1]
    sys_dim, part = shapes[0][:2]
    left, weights = np.split(pool[:sum(map(math.prod, shapes))],
                             [math.prod(shapes[0])])
    reals = tables.view(float).reshape(-1)
    below = states.reshape(mids, n, sys_dim, part, dim).view(float)
    right = couplings.reshape(n, dim, sys_dim, part).transpose(0, 2, 1, 3)
    offsets, regions = plan.fold
    for rows, cols, corner in regions:
        height, width = rows.stop - rows.start, cols.stop - cols.start
        factors = left[:sys_dim * height * dim].reshape(sys_dim, height, dim)
        blocks = products[:n * sys_dim * height * width].reshape(
            n, sys_dim, height, width)
        # np.take writes into its `out` without a buffer only in a mode
        # other than "raise"; the indices are in range
        scale = np.take(reals, offsets[:, None] + corner, mode="clip",
                        out=weights.view(float).reshape(mids, sys_dim, -1))
        for r in range(n):
            np.einsum("mspy,msy->spy", below[:, r, :, rows], scale,
                      out=factors.view(float))
            np.matmul(factors, right[r, ..., cols], out=blocks[r])
        np.sum(blocks, axis=(0, 1), out=out[rows, cols])


def _exp_divided_differences(lam: np.ndarray,
                             plan: _SpectralPlan) -> np.ndarray:
    """For each multiset `mid` of middle clusters of the plan, in its
    order, the table exp[lam_a, lam_mid[0], ..., lam_mid[-1], lam_b] over
    all pairs (a, b) of clusters: a complex (mids, count, count) stack,
    indexed [mid, a, b].

    Opitz: for the bidiagonal J with diagonal x_0..x_r and ones above it,
    exp(J)[0, r] = exp[x_0, ..., x_r], repeated points included.  One
    block-bidiagonal J per mid covers every pair (a, b) at once: diagonal
    lam, lam[mid], lam, and ones from each point of the first block to the
    first middle point, along the middle points, and from the last middle
    point to each point of the last block (from the first block straight
    to the last if mid is empty).  exp(J)[a, b], b in the last block, sums
    the one path a, mid..., b: the corner entry of that sequence's Opitz
    matrix.  Every J is zero-padded to the largest size, 2 count + max r:
    the padding is a block of its own, so it leaves exp(J) unchanged on
    the J.  The plan holds the stack's ones and where its diagonal and
    corners lie (`_opitz_pattern`); a call fills the diagonal from lam.
    The one (mids, size, size) stack, shifted by the mid-range mu of lam,
    is exponentiated as one batch by the Taylor route, with the schedule
    of its largest norm and np.matmul over the stack as its product (a
    lattice of one monomial needs no pair table); exp[x + mu] = e^mu
    exp[x] undoes the shift."""
    mu = (lam.max() + lam.min()) / 2
    opitz = plan.opitz.copy()
    at, pos, cluster = plan.diagonal
    opitz[at, pos, pos] = lam[cluster] - mu
    exp_j = _taylor_exp(opitz[None], np.matmul, _taylor_schedule(
        0, _block_norms(opitz).max()))[0]
    return (exp_j.real[plan.corner] * np.exp(mu)).astype(complex)
