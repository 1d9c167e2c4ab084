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
scattered onto ic by a bincount, and sums, scalings, exp, log and inverse
are vector operations.  M-maps (`momalg.algebra`) share the tables: the
array of a jet-valued M-map over caps with jet caps is the jet over
caps + jet caps.  `Jet.coeffs` is a read-only view of the nonzero monomial
coefficients, in storage order.

JetMatrix holds a square matrix with jet entries as a stack of dense
complex coefficient blocks in the same lattice order, so matrix products
reduce to one BLAS product per pair-table triple whose blocks are both
nonzero.  jet_matrix_exp is the exponential in this ring; its multilinear
coefficient of prod_{j in a} gamma_j equals the permutation-summed simplex
integral of the Dyson expansion, which is what every 'lowest joint order'
statement consumes.  It has two routes.  The Taylor route rescales the
gammas by an exact power of two so that the couplings weigh no more than
the constant block, then scales and squares with a Taylor degree chosen
from the norm (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), evaluated by
Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) over one stack of the powers
Y..Y^q; a generator whose blocks are all exactly Hermitian is squared from
half the block pairs, since the pairs (a, b) and (b, a) of a square then
give P and P^H.  The spectral route serves an exactly Hermitian constant
block with few distinct eigenvalues, such as the thermal -beta H_S (x) 1:
in the eigenbasis, the Dyson expansion ends after G = sum(caps) factors of
the nilpotent graded part and is summed with divided differences of exp,
taken from Opitz matrices.  The routes are chosen by a cost model from the
shapes alone, with no dimension floor: it counts the fixed costs that do
not grow like d^3 (Python steps, eigh's set-up, the Opitz exponential), so
small blocks, such as the 2-dim system side of the thermal check with up
to four pointers, stay on the Taylor route, while its 32-dim joint space
of four qubit pointers takes the spectral one; see the docstring of
jet_matrix_exp.  A result that overflows the double range is refused with
a DomainError.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .combinatorics import EMPTY, Multiset
from .errors import CapExceededError, DomainError, NonInvertibleError

_THETA = 0.5               # ring-norm bound of the scaled exponential argument
_UNIT_ROUNDOFF = 2.0 ** -53
MAX_DENSE_BYTES = 2 ** 28  # largest dense lattice array or pair table built
_PAIR_BYTES = 72           # per pair: 3 index arrays, 3 complex temporaries
# Route model of jet_matrix_exp (its docstring, step 7), in complex
# multiply-adds (madds); fitted to both routes' times on one BLAS thread
_STEP_MADDS = 2 ** 13      # a Python-level step: a BLAS call or a block pass
_ENTRY_MADDS = 16          # one entry of a block pass
_EIGH_PRODUCTS = 8         # eigh, in d x d products
_OPITZ_PRODUCTS = 12       # the Opitz exponential, in products of its size
_CALL_STEPS = 20           # a _block_products call's own steps
_SPECTRAL_STEPS = 512      # the spectral route's set-up, in steps
_STATE_STEPS = 80          # each middle multiset's own steps


class _PairTable(NamedTuple):
    """The total degree |a| and prod(mult!) of each monomial of a caps
    lattice, in storage order, and every pair (ia, ib) -> ic of positions
    whose monomial sum a + b = c stays within caps."""

    grade: np.ndarray
    weight: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray


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
    return _frozen(np.arange(cap + 1),
                   np.array([math.factorial(m) for m in range(cap + 1)],
                            dtype=float), ia, ib, ia + ib)


def _joined(left: _PairTable, right: _PairTable) -> _PairTable:
    """The table of the labels of `left` followed by those of `right`."""
    width = len(right.grade)
    return _frozen(
        np.add.outer(left.grade, right.grade).ravel(),
        np.multiply.outer(left.weight, right.weight).ravel(),
        *(np.add.outer(x * width, y).ravel()
          for x, y in ((left.ia, right.ia), (left.ib, right.ib),
                       (left.ic, right.ic))))


def _frozen(*arrays) -> _PairTable:
    # shared by every caller through the cache; ic stays writeable, because
    # np.bincount copies a read-only index array on every call
    for arr in arrays[:-1]:
        arr.setflags(write=False)
    return _PairTable(*arrays)


def _position(caps: tuple[int, ...], a) -> int:
    """The storage position of the monomial `a` (a Multiset or its labels):
    its multiplicities read as the digits of a mixed-radix number, label 1
    slowest.  A multiset that does not fit the caps is refused."""
    a = a if isinstance(a, Multiset) else Multiset(a)
    if not a.fits(caps):
        raise CapExceededError(f"multiset {a} exceeds caps {caps}")
    counts, pos = dict(a.items), 0
    for label, cap in enumerate(caps, start=1):
        pos = pos * (cap + 1) + counts.get(label, 0)
    return pos


@lru_cache(maxsize=None)
def _monomials(caps: tuple[int, ...]) -> tuple[Multiset, ...]:
    """The monomials of the caps lattice in storage order, for the readers
    that hand out Multiset keys."""
    return tuple(Multiset.from_counts(dict(enumerate(digits, start=1)))
                 for digits in itertools.product(*(range(c + 1)
                                                   for c in caps)))


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
    in the order of the pair arrays."""
    prod = (x[..., table.ia] * y[table.ib]).ravel()
    bins = table.ic if x.ndim == 1 else \
        (table.ic + x.shape[1] * np.arange(len(x))[:, None]).ravel()
    out = np.empty(x.size, dtype=complex)
    out.real = np.bincount(bins, prod.real, x.size)
    out.imag = np.bincount(bins, prod.imag, x.size)
    return out.reshape(x.shape)


def _series(table, start, coeff, u: np.ndarray, top: int) -> np.ndarray:
    """start + sum_{k>=1} coeff(k) u^k for nilpotent u; the sum stops at the
    first power that vanishes, at the latest at total degree `top`."""
    acc = _unit(len(u), start)
    term = u
    for k in range(1, top + 1):
        if k > 1:
            term = _ring_product(table, term, u)
        if not term.any():
            break
        acc = acc + term * coeff(k)
    return acc


def _exp(table, vec: np.ndarray, top: int) -> np.ndarray:
    """exp(c + N) = e^c sum_k N^k / k!, the sum finite by nilpotency."""
    nil = vec.copy()
    nil[0] = 0.0
    return _series(table, 1.0, lambda k: 1.0 / math.factorial(k), nil, top) \
        * cmath.exp(vec[0])


def _log(table, vec: np.ndarray, top: int) -> np.ndarray:
    """log(c + N) = log c + sum_k (-1)^(k+1) (N/c)^k / k."""
    c = _invertible(vec)
    u = vec * (1.0 / c)
    u[0] -= 1.0
    return _series(table, cmath.log(c), lambda k: (-1.0) ** (k + 1) / k, u, top)


def _inverse(table, vec: np.ndarray, top: int) -> np.ndarray:
    """1/(c + N) = (1/c) sum_k (-N/c)^k."""
    c = _invertible(vec)
    u = vec * (-1.0 / c)
    u[0] += 1.0
    return _series(table, 1.0, lambda k: 1.0, u, top) * (1.0 / c)


def _invertible(vec: np.ndarray) -> complex:
    """The constant part, which must be nonzero for log and inverse."""
    if vec[0] == 0:
        raise NonInvertibleError("zero constant part: not invertible")
    return complex(vec[0])


def _mult_factorial(a: Multiset) -> int:
    return math.prod(math.factorial(m) for _, m in a.items)


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
        if len(self.caps) != self.n:
            raise DomainError("caps length must equal number of variables")
        self._vec = np.zeros(len(_pair_table(self.caps).grade), dtype=complex)
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
        return self.coefficient(a) * _mult_factorial(a)

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

    def _lift(self, fn) -> "Jet":
        return self._like(fn(_pair_table(self.caps), self._vec, sum(self.caps)))

    def exp(self) -> "Jet":
        return self._lift(_exp)

    def log(self) -> "Jet":
        return self._lift(_log)

    def inverse(self) -> "Jet":
        return self._lift(_inverse)

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
        blocks = np.asarray(blocks, dtype=complex)
        if (blocks.ndim != 3
                or blocks.shape[0] != len(_pair_table(self.caps).grade)):
            raise DomainError("blocks must have shape (lattice, d, d)")
        if blocks.shape[1] != blocks.shape[2]:
            raise DomainError("jet matrices must be square")
        self.blocks = blocks

    @classmethod
    def zeros(cls, dim: int, n: int, caps: tuple[int, ...]) -> "JetMatrix":
        """The zero matrix; a block stack above MAX_DENSE_BYTES is refused
        before it is allocated."""
        size = math.prod(c + 1 for c in caps)
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
    def dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def constant(self) -> np.ndarray:
        return self.blocks[0]

    def _check(self, other: "JetMatrix") -> None:
        if self.caps != other.caps or self.dim != other.dim:
            raise DomainError("jet matrix shape mismatch")

    def _jet(self, vec: np.ndarray) -> Jet:
        return Jet._dense(self.n, self.caps, vec)

    def __add__(self, other: "JetMatrix") -> "JetMatrix":
        self._check(other)
        return JetMatrix(self.n, self.caps, self.blocks + other.blocks)

    def __sub__(self, other: "JetMatrix") -> "JetMatrix":
        self._check(other)
        return JetMatrix(self.n, self.caps, self.blocks - other.blocks)

    def __mul__(self, scalar) -> "JetMatrix":
        return JetMatrix(self.n, self.caps, self.blocks * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        self._check(other)
        out = np.zeros(self.blocks.shape, dtype=complex)
        _block_products(_pair_table(self.caps), self.blocks, other.blocks, out)
        return JetMatrix(self.n, self.caps, out)

    def trace(self) -> Jet:
        return self._jet(np.trace(self.blocks, axis1=1, axis2=2))

    def bilinear(self, bra: np.ndarray, ket: np.ndarray) -> Jet:
        """<bra| M |ket> as a jet (bra is conjugated)."""
        bra = np.asarray(bra, dtype=complex).conj()
        ket = np.asarray(ket, dtype=complex)
        return self._jet(np.einsum("i,kij,j->k", bra, self.blocks, ket))


def _nonzero(blocks: np.ndarray) -> np.ndarray:
    """Which blocks of a (lattice, d, d) stack hold a nonzero entry."""
    return blocks.any(axis=(1, 2))


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    """Blockwise conjugate transpose of a (lattice, d, d) stack."""
    return np.conj(blocks.transpose(0, 2, 1))


def _block_products(table, a: np.ndarray, b: np.ndarray, out: np.ndarray,
                    hermitian: bool = False) -> None:
    """out += a @ b for block stacks in the lattice order of `table`: one
    BLAS product per pair-table triple whose two blocks are nonzero.  The
    blocks may be rectangular: (lattice, r, p) times (lattice, p, c).

    hermitian: b is a, every block of a is Hermitian and out starts at zero.
    Pairs (i, j) and (j, i) then give a_i a_j and its adjoint, so only the
    pairs i <= j are multiplied into W = sum_{i<j} a_i a_j + sum_i a_i a_i
    / 2, and out = W + W^H is exactly Hermitian."""
    ia, ib, ic = table.ia, table.ib, table.ic
    if hermitian:
        half = ia <= ib
        ia, ib, ic = ia[half], ib[half], ic[half]
    keep = _nonzero(a)[ia] & _nonzero(b)[ib]
    prod = np.empty((a.shape[1], b.shape[2]), dtype=complex)  # reused
    for i, j, c in zip(ia[keep].tolist(), ib[keep].tolist(),
                       ic[keep].tolist()):
        np.matmul(a[i], b[j], out=prod)
        if hermitian and i == j:
            prod *= 0.5
        out[c] += prod
    if hermitian:
        out += _adjoint(out)


def jet_matrix_exp(m: JetMatrix) -> JetMatrix:
    """Matrix exponential in the truncated polynomial ring, by one of two
    routes: Taylor (steps 1-5) or spectral (step 6), picked by step 7.

    Write X = sum_a X_a gamma^a, G = sum(caps) for the top grade, |a| for
    the grade of monomial a, and ||.|| for the block 1-norm.  The ring
    norm sum_a ||X_a|| is submultiplicative under the truncated product.

    1. Grade rescaling.  gamma -> 2^-k gamma multiplies block a by
       2^(-k|a|).  It is a ring automorphism, so it commutes with exp, and
       powers of two make it exact in floating point.  k is the smallest
       integer with sum_{a != 0} 2^(-k|a|) ||X_a|| <= max(||X_0||, theta),
       theta = 0.5: the couplings stop driving the squarings.
    2. Scaling.  With nu the ring norm of the rescaled X', s = max(0,
       ceil(log2(nu / theta))) and Y = X' / 2^s has ring norm <= theta.
    3. Degree.  Let P(t) = sum_g (sum_{|a|=g} ||Y_a||) t^g = mu + Q(t),
       mu = ||Y_0||.  The grade-g part of Y^j is bounded by [t^g] P^j, and
       since Q starts at t^1,
           [t^g] sum_{j>m} P^j / j!  <=  mu^(m-g+1) / (m-g+1)! * [t^g] e^P,
       where [t^g] e^P bounds the grade-g part of e^Y.  Remainder and e^Y
       commute, so s squarings leave the grade-g error at most
       (1 + eps)^(2^s) - 1 ~ 2^s eps, eps = mu^(m-G+1) / (m-G+1)!, of the
       grade-g bound [t^g] e^(2^s P) on exp(X').  Undoing the rescaling
       multiplies the grade-g parts of the error and of that bound alike by
       2^(k g), so the same relative bound holds for every grade of exp(X).
       m is the smallest degree with 2^s eps <= 2^-53.  A zero constant
       block (mu = 0) makes X nilpotent and m = G exact.
    4. Evaluation (Paterson-Stockmeyer).  Split the Taylor polynomial into
       c chunks of q coefficients, the top chunk taking q + 1, so that
       T_m(Y) = sum_i Y^(iq) C_i with C_i = sum_j Y^j / (iq + j)!.  Form
       Y..Y^q in one (q, lattice, d, d) stack, run Horner in Y^q over the
       chunks, square s times and multiply block a by 2^(k|a|).  That is
       q - 1 + c - 1 products plus s squarings; q minimises the products
       (ties: fewer stored powers, q ~ sqrt m), and m is raised to c q,
       which the same products reach.
    5. Hermitian X.  If every block of X is exactly Hermitian (one exact
       test on X, no tolerance), so is every block of every real
       polynomial in Y.  In a square the block pairs (a, b) and (b, a)
       then give P and P^H, so one product serves both (`_block_products`):
       multilinear caps need (3^n + 1) / 2 products per square instead of
       3^n.  This covers the s squarings and the even powers, taken as
       Y^(2j) = (Y^j)^2.  A square comes out exactly Hermitian, and with
       no squaring the Horner result is made so, so exp(X) is too.  Any
       other X (e.g. -i tau H) keeps the full products.  On both paths a
       chunk adds its powers one at a time, in a fixed order: the
       postselected values thm4 feeds move by up to 1e-13 relative when
       that sum is reordered (e.g. into one tensordot over the stack).
    6. Spectral route.  Let the constant block X_0 be exactly Hermitian
       (one exact test, no tolerance), X_0 = sum_c l_c P_c with spectral
       projectors P_c, and N = X - X_0.  Expanding exp(X_0 + N) in powers
       of N (Dyson) and integrating each term over its simplex gives
           exp(X) = sum_k sum_{c_0..c_k} exp[l_c0, ..., l_ck]
                        P_c0 N P_c1 N ... N P_ck,
       with exp[...] the divided differences of exp (Higham, Functions of
       Matrices, SIAM 2008, sec. 3.2).  N is nilpotent in the ring: every
       block of N has grade >= 1, so a product of G + 1 of them has grade
       above G and is truncated away.  The sum therefore ends at k = G and
       is exact, not a truncated series.  The route:
       a. X_0 = U diag(w) U^H by eigh, with U made unitary to working
          precision by one Newton-Schulz step, U <- U (3 - U^H U) / 2:
          eigh's U is unitary only to about d eps, and U^H stands for its
          inverse in the changes of basis.
       b. Consecutive eigenvalues closer than 8 d eps max(1, max|w|), about
          eigh's own backward error, form one cluster, with their mean as
          its point l_c.  The bound comes from the input, not a setting;
          moving each eigenvalue to its cluster point perturbs X_0 by at
          most the cluster's width, (size - 1) times the bound, the size of
          eigh's error.  It makes H_S (x) 1 count as its d_s eigenvalues,
          not d.
       c. In the eigenbasis (blocks U^H X_a U) a P_c is an index range.
          Divided differences are symmetric, so every order of the middle
          clusters c_1..c_(k-1) shares one weight per end pair (c_0, c_k).
          The sum is a recursion over the multiset M of middle clusters:
          T(empty) = N, T(M) = sum_{c in M} T(M - c) P_c N, each term a
          ring product of cluster sub-blocks, (lattice, d, n_c) by
          (lattice, n_c, d), through `_block_products`.  T(M) has grades
          above |M| only and holds just those blocks.  It enters the
          result weighted entrywise by exp[l_a, l_M, l_b], a and b the
          clusters of row and column.  Divided differences come from
          Opitz's theorem: for the bidiagonal J with diagonal x_0..x_r and
          ones above it, exp(J)[0, r] = exp[x_0, ..., x_r], repeated points
          included.  J is exponentiated by steps 1-4, which scale and
          square it; McCurdy, Ng & Parlett (Math. Comp. 43, 1984) show that
          this keeps divided differences at close points accurate, where
          the quotient formula cancels.
       d. Back to the input basis, U (.) U^H.  If every block of X is
          Hermitian the result is averaged with its adjoint, so that it
          is exactly Hermitian, as on the Taylor route.
       Work: eigh, 2 products for the Newton-Schulz step, 2 per nonzero
       graded block and 2 per result block for the changes of basis, and
       per multiset M and pair-table pair sub-block products worth one
       d x d product: about 36 products of 128 x 128 blocks at caps
       (1, 1, 1) with two clusters, against 176-190 on the Taylor route.
    7. Routing, from what is known before any product: whether X_0 is
       exactly Hermitian, the block dimension d, the pair table, the
       Taylor schedule (k, s, q, m) and the clusters.  Any other X_0 (e.g.
       -i tau H) takes the Taylor route.  Otherwise each route's time is
       modelled in complex multiply-adds (madds): the madds of its
       products, plus 2^13 per Python-level step (a BLAS call or a pass
       over a block) and 16 per entry of each block pass, with eigh as 8
       products and the Opitz matrix as 12 products of its own size.  The
       work that does not grow like d^3 is counted in steps too: 20 per
       `_block_products` call on either route, and on the spectral route
       a fixed 512 for its set-up (the eigh call, the clusters, the
       Newton-Schulz step, the Opitz matrix's Taylor exponential) and 80
       per middle multiset (its Opitz block, weight table and state).
       There is no dimension floor.  The constants were fitted, by least
       squares on log time, to both routes' times on the generators of
       `verify thermal`: the joint-space lhs and the system-side rhs,
       seeds 1-5, 50 shapes with d = 2-512, 1-6 couplings and 2-16
       clusters, measured twice (rms error of the fit 24%; one OpenBLAS
       thread, 2-vCPU Xeon).  The spectral route is taken if it models
       cheaper and its states fit in MAX_DENSE_BYTES.  So that no eigh
       is spent where the route loses anyway, its set-up alone is
       compared first (this rejects the smallest blocks), then its cost
       with the fewest clusters X_0 can have (two if the spread of its
       eigenvalues, bounded below by their standard deviation, is wider
       than one cluster), and only then with the clusters eigh finds.
       Many clusters lose, as the states and the Opitz matrix grow like
       multisets of up to G - 1 clusters.  Measured spectral over Taylor
       time (median over the seeds, both runs) and the model's:

           couplings   d  clusters  measured   model   route
               1      32     2        1.45      1.31   Taylor
               2       8     2        1.65      1.84   Taylor
               3      16     2     1.07-1.24    1.20   Taylor
               2      32     2     0.97-1.03    0.96   spectral
               3      32     4     3.46-3.91    2.86   Taylor
               4      32     2     0.55-0.59    0.54   spectral
               2      64     4     0.62-0.65    0.55   spectral
               5      64     2        0.27      0.27   spectral
               4      64     4     2.67-3.15    3.12   Taylor
               3     128     2        0.27      0.27   spectral
             1-4       2     2     1.08-2.14 1.19-2.13 Taylor
              5, 6     2     2     0.76-1.02 0.76-0.85 spectral

       So with two clusters the crossover lies near d = 32 and falls as
       couplings are added: at d = 32 four couplings (the thermal lhs of
       four qubit pointers) take the spectral route, two are a tie and
       one stays on Taylor; every d <= 16 stays on Taylor.  A 2-dim
       system side stays on Taylor up to four couplings; at five and six
       the routes are within the model's error of each other and it picks
       the spectral one.
       Each route refuses, before allocating, to hold more than
       MAX_DENSE_BYTES: the Taylor route q + 2 block stacks, the spectral
       route N, the sum, the result and two levels of states.  After
       either route, a result that left the double range (an inf or a nan
       from an overflow, such as e^(-beta E) at a large beta) is refused
       with a DomainError.
    """
    table = _pair_table(m.caps)
    norms = _block_norms(m.blocks)
    if not np.isfinite(norms).all():
        raise DomainError("jet_matrix_exp needs finite blocks")
    schedule = _taylor_schedule(table, norms)
    hermitian = np.array_equal(m.blocks, _adjoint(m.blocks))
    eigen = _spectral_pays(table, m.blocks, schedule, hermitian)
    # an overflow leaves an inf or a nan in the result, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        out = _taylor_exp(m, table, schedule, hermitian) if eigen is None \
            else _spectral_exp(m, table, *eigen, hermitian)
    if not np.isfinite(out.blocks).all():
        raise DomainError(
            "jet_matrix_exp overflows: exp of this jet matrix leaves the "
            f"double range (|x| <= {np.finfo(float).max:.3g}); e.g. a "
            "Boltzmann factor e^(-beta E) at too large a beta")
    return out


def _block_norms(blocks: np.ndarray) -> np.ndarray:
    """The 1-norm of every block of a (lattice, d, d) stack."""
    return np.abs(blocks).sum(axis=1).max(axis=1)


class _Schedule(NamedTuple):
    """Taylor route parameters (docstring of jet_matrix_exp, steps 1-4)."""

    k: int        # couplings rescaled by 2^-k
    s: int        # squarings
    q: int        # powers Y..Y^q held
    degree: int   # Taylor degree, a multiple of q


def _taylor_schedule(table, norms: np.ndarray) -> _Schedule:
    top = int(table.grade.max())
    by_grade = np.bincount(table.grade, norms, minlength=top + 1)
    const, graded = by_grade[0], by_grade[1:]
    grades = np.arange(1, top + 1)
    k = 0
    while graded @ 2.0 ** (-k * grades) > max(const, _THETA):
        k += 1
    ring_norm = const + graded @ 2.0 ** (-k * grades)
    s = max(0, math.ceil(math.log2(ring_norm / _THETA))) if ring_norm else 0
    mu = const * 2.0 ** -s
    tail = 1                       # m - G + 1 in the bound above
    while 2 ** s * mu ** tail / math.factorial(tail) > _UNIT_ROUNDOFF:
        tail += 1
    degree = max(top + tail - 1, 1)
    # fewest products (q - 1 powers, then one per chunk after the first),
    # then fewest stored powers; the last chunk is filled up to q terms
    q = min(range(1, degree + 1), key=lambda p: (p + -(-degree // p), p))
    return _Schedule(k, s, q, q * -(-degree // q))


def _taylor_exp(m: JetMatrix, table, schedule: _Schedule,
                hermitian: bool) -> JetMatrix:
    """Steps 1-5 of the jet_matrix_exp docstring."""
    k, s, q, degree = schedule
    # Y..Y^q, the Horner accumulator and one product's output
    _check_size(f"jet-matrix blocks of dimension {m.dim} held by the "
                f"Taylor exponential", (q + 2) * len(m.blocks),
                16 * m.dim * m.dim)
    powers = np.zeros((q, *m.blocks.shape), dtype=complex)    # Y^1..Y^q
    np.multiply(m.blocks, (2.0 ** -(k * table.grade + s))[:, None, None],
                out=powers[0])
    for j in range(2, q + 1):
        if hermitian and j % 2 == 0:                     # (Y^(j/2))^2
            i = j // 2 - 1
            _block_products(table, powers[i], powers[i], powers[j - 1], True)
        else:
            _block_products(table, powers[j - 2], powers[0], powers[j - 1])

    def add_chunk(blocks: np.ndarray, lo: int, hi: int) -> None:
        """blocks += sum_{j=lo}^{hi} Y^(j-lo) / j!, in place."""
        blocks[0] += np.eye(m.dim) * (1.0 / math.factorial(lo))
        for j in range(lo + 1, hi + 1):
            blocks += powers[j - lo - 1] * (1.0 / math.factorial(j))

    def product(a: np.ndarray, b: np.ndarray, hermitian_square=False):
        out = np.zeros_like(a)
        _block_products(table, a, b, out, hermitian_square)
        return out

    acc = np.zeros_like(powers[0])
    add_chunk(acc, degree - q, degree)
    for lo in range(degree - 2 * q, -1, -q):
        acc = product(acc, powers[-1])
        add_chunk(acc, lo, lo + q - 1)
    del powers                     # the squarings need only acc
    if hermitian and not s:        # squarings would make it exactly Hermitian
        acc = (acc + _adjoint(acc)) * 0.5
    for _ in range(s):
        acc = product(acc, acc, hermitian)
    if k:
        acc *= (2.0 ** (k * table.grade))[:, None, None]
    return JetMatrix(m.n, m.caps, acc)


def _spectral_pays(table, blocks: np.ndarray, schedule: _Schedule,
                   hermitian: bool):
    """(w, u, bounds): the eigenvalues, eigenvectors and cluster bounds of
    the constant block, if it is exactly Hermitian, the spectral route is
    modelled to cost less than the Taylor route and its states fit in
    MAX_DENSE_BYTES (docstring of jet_matrix_exp, step 7); else None.  No
    eigendecomposition is taken when even the route's set-up, or the fewest
    clusters the constant block can have, would cost more."""
    dim, const = blocks.shape[1], blocks[0]
    if not (hermitian or np.array_equal(const, const.conj().T)):
        return None
    taylor = _taylor_cost(table, schedule, hermitian, dim)
    if _route_cost(0, _SPECTRAL_STEPS, 0, dim) >= taylor:
        return None
    nil = _nonzero(blocks) & (table.grade > 0)
    if _spectral_cost(table, nil, _fewest_clusters(const), dim) >= taylor:
        return None
    w, u = np.linalg.eigh(const)
    bounds = _clusters(w)
    count = len(bounds) - 1
    if (_spectral_cost(table, nil, count, dim) >= taylor
            or _spectral_blocks(table, count) * const.nbytes > MAX_DENSE_BYTES):
        return None
    return w, u, bounds


def _fewest_clusters(const: np.ndarray) -> int:
    """A lower bound, without eigh, on the clusters `_clusters` finds in the
    Hermitian `const`: 2 if its eigenvalues spread wider than one cluster
    can, else 1.  Their standard deviation is ||const - mean 1||_F /
    sqrt(d), mean = tr(const) / d, and their range is at least twice that
    (Popoviciu); one cluster spans at most d - 1 gaps of 8 d eps max(1,
    |w|), and |w| <= ||const||_F.  The factor 2 leaves room for eigh's
    error."""
    dim = len(const)
    centred = const - np.eye(dim) * (const.trace().real / dim)
    spread = 2 * math.sqrt(np.vdot(centred, centred).real / dim)
    gap = 16 * dim * _UNIT_ROUNDOFF * max(           # 8 d eps max(1, |w|)
        1.0, math.sqrt(np.vdot(const, const).real))
    return 2 if spread > 2 * (dim - 1) * gap else 1


def _route_cost(flops: float, steps: int, passes: int, dim: int) -> float:
    """Modelled time of a route, in complex multiply-adds (madds): `flops`
    madds of BLAS work, `steps` Python-level steps (a BLAS call or one pass
    over a block) and `passes` passes over a dim x dim block (an
    allocation, a weighting, an accumulation)."""
    return flops + steps * _STEP_MADDS + passes * dim * dim * _ENTRY_MADDS


def _taylor_cost(table, schedule: _Schedule, hermitian: bool,
                 dim: int) -> float:
    """Modelled time of the Taylor route: its jet-matrix products, one
    `_block_products` call each, taken over every pair of the table, a
    Hermitian square over the pairs i <= j."""
    _, s, q, degree = schedule
    calls = q + degree // q + s - 2        # powers, Horner steps, squarings
    squares = s + q // 2 if hermitian else 0
    products = ((calls - squares) * len(table.ia)
                + squares * int(np.count_nonzero(table.ia <= table.ib)))
    allocated = calls + 4
    passes = products + len(table.grade) * (degree + allocated)
    return _route_cost(products * dim ** 3,
                       products + passes + calls * _CALL_STEPS, passes, dim)


def _spectral_cost(table, nil: np.ndarray, count: int, dim: int) -> float:
    """Modelled time of the spectral route with `count` clusters; nil marks
    the nonzero graded blocks of the generator.  Beside its products it
    counts the route's set-up, each middle multiset's own steps and each
    `_block_products` call (docstring of jet_matrix_exp, step 7)."""
    top = int(table.grade.max())
    size = len(table.grade)

    def from_grade(grades):             # [g]: how many of grades are >= g
        return np.cumsum(np.bincount(grades, minlength=top + 2)[::-1])[::-1]

    blocks_from = from_grade(table.grade).tolist()
    # pairs (a, b) of a state's block a and a nonzero graded block N_b
    pairs_from = from_grade(table.grade[table.ia[nil[table.ib]]]).tolist()
    # Newton-Schulz, then the changes of basis
    products = 2 + 2 * int(np.count_nonzero(nil)) + 2 * size
    flops = (_EIGH_PRODUCTS + products) * dim ** 3
    steps, passes, opitz = _SPECTRAL_STEPS + products, products + 3 * size, 0
    for g in range(1, top + 1):
        states = math.comb(count + g - 2, g - 1)   # middle multisets, g - 1
        weighted = states * blocks_from[g]
        steps += weighted + states * _STATE_STEPS
        passes += weighted + states                # + each weight table
        opitz += states * (2 * count + g - 1)
        if g < top:
            pairs = states * pairs_from[g]
            flops += pairs * dim ** 3
            steps += (pairs + states * _CALL_STEPS) * count
            passes += (pairs * count
                       + math.comb(count + g - 1, g) * blocks_from[g + 1])
    return (_route_cost(flops, steps, passes, dim)
            + _OPITZ_PRODUCTS * opitz ** 3)


def _clusters(w: np.ndarray) -> np.ndarray:
    """Cluster boundaries of the ascending eigenvalues w: 0, the index of
    every gap wider than eigh's backward error 8 d eps max(1, |w|), len(w)."""
    tol = 8 * len(w) * np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
    gaps = np.flatnonzero(np.diff(w) > tol) + 1
    return np.concatenate(([0], gaps, [len(w)]))


def _spectral_exp(m: JetMatrix, table, w: np.ndarray, u: np.ndarray,
                  bounds: np.ndarray, hermitian: bool) -> JetMatrix:
    """Step 6 of the jet_matrix_exp docstring: the divided-difference
    expansion of exp(X) in the eigenbasis u of the constant block, whose
    ascending eigenvalues w are split into clusters at `bounds`."""
    top = int(table.grade.max())
    sizes = np.diff(bounds)
    clusters = range(len(sizes))
    _check_size(f"jet-matrix blocks of dimension {m.dim} held by the "
                f"spectral exponential", _spectral_blocks(table, len(sizes)),
                16 * m.dim * m.dim)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    lam = np.add.reduceat(w, bounds[:-1]) / sizes   # one point per cluster
    mids = [mid for g in range(top)
            for mid in itertools.combinations_with_replacement(clusters, g)]
    dd = _exp_divided_differences(lam, mids) if mids else {}
    work = np.empty((m.dim, m.dim), dtype=complex)    # reused per block

    def change_basis(blocks, left, right, out, first=0):
        """out[i] = left @ blocks[i] @ right for the nonzero blocks i >=
        first, one BLAS product at a time."""
        for i in np.flatnonzero(_nonzero(blocks[first:])).tolist():
            np.matmul(blocks[first + i], right, out=work)
            np.matmul(left, work, out=out[first + i])

    # one Newton-Schulz step makes u unitary to working precision (eigh's
    # is so only to ~d eps), so that u^H inverts it in the changes of basis
    u = u @ (1.5 * np.eye(m.dim) - 0.5 * (u.conj().T @ u))
    uh = u.conj().T
    nil = np.zeros_like(m.blocks)              # N = X - X_0 in the eigenbasis
    change_basis(m.blocks, uh, u, nil, first=1)
    acc = np.zeros_like(m.blocks)
    acc[0] = np.diag(np.exp(lam)[labels])
    # level: a multiset M of g - 1 middle clusters -> T(M) (docstring, step
    # 6c); T(M) has grades >= g only, so it holds just the lattice blocks
    # marked in `held`, in lattice order
    level, held = {(): nil}, np.ones(len(nil), dtype=bool)
    for g in range(1, top + 1):
        at = np.flatnonzero(held)
        for mid, paths in level.items():
            weight = dd[mid][labels[:, None], labels]
            for i in np.flatnonzero(_nonzero(paths)).tolist():
                acc[at[i]] += np.multiply(paths[i], weight, out=work)
        if g == top:
            break
        deeper = table.grade > g
        keep = held[table.ia] & deeper[table.ic]
        pairs = table._replace(ia=(np.cumsum(held) - 1)[table.ia[keep]],
                               ib=table.ib[keep],
                               ic=(np.cumsum(deeper) - 1)[table.ic[keep]])
        longer = {mid: np.zeros((np.count_nonzero(deeper), *nil.shape[1:]),
                                dtype=complex)
                  for mid in itertools.combinations_with_replacement(
                      clusters, g)}
        for mid, paths in longer.items():
            for c in sorted(set(mid)):         # the last middle cluster
                i = mid.index(c)
                rows = slice(bounds[c], bounds[c + 1])
                _block_products(pairs, level[mid[:i] + mid[i + 1:]][:, :, rows],
                                nil[:, rows], paths)
        level, held = longer, deeper
    del level, nil
    out = np.zeros_like(acc)
    change_basis(acc, u, uh, out)
    if hermitian:                              # (out + out^H) / 2, in place
        for block in out:
            block += np.conj(block.T, out=work)
            block *= 0.5
    return JetMatrix(m.n, m.caps, out)


def _spectral_blocks(table, count: int) -> int:
    """Blocks of the generator's size the spectral route holds at once with
    `count` clusters: N, the sum and the result, and two levels of states,
    one per multiset of g middle clusters, each holding the grades above
    g."""
    top = int(table.grade.max())
    states = [0] + [math.comb(count + g - 1, g)
                    * int(np.count_nonzero(table.grade > g))
                    for g in range(1, top)]
    return 3 * len(table.grade) + max(
        a + b for a, b in zip(states, states[1:] + [0]))


def _exp_divided_differences(lam: np.ndarray, mids: list) -> dict:
    """For each tuple `mid` of cluster indices, the table exp[lam_a,
    lam_mid[0], ..., lam_mid[-1], lam_b] over all pairs (a, b) of clusters,
    as an array indexed [a, b].

    Opitz: for the bidiagonal J with diagonal x_0..x_r and ones above it,
    exp(J)[0, r] = exp[x_0, ..., x_r], repeated points included.  One
    block-bidiagonal J per mid covers every pair (a, b) at once: diagonal
    lam, lam[mid], lam, and ones from each point of the first block to the
    first middle point, along the middle points, and from the last middle
    point to each point of the last block (from the first block straight
    to the last if mid is empty).  exp(J)[a, b], b in the last block, sums
    the one path a, mid..., b: the corner entry of that sequence's Opitz
    matrix.  The J of all mids, shifted by the mid-range mu of lam, are
    exponentiated at once, as one block-diagonal matrix, by the Taylor
    route; exp[x + mu] = e^mu exp[x] undoes the shift."""
    count = len(lam)
    mu = (lam.max() + lam.min()) / 2
    sizes = [2 * count + len(mid) for mid in mids]
    opitz = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    starts = np.cumsum([0] + sizes[:-1])
    # the J of every mid of r middle points has the same pattern: set the
    # diagonals and the ones of all of them with one assignment each
    ends = np.arange(count)
    heads, tails, diag, points = [], [], [], []
    for r in sorted(set(map(len, mids))):
        group = [i for i, mid in enumerate(mids) if len(mid) == r]
        if r:      # first block -> middle points, in order -> last block
            chain = count + np.arange(r)
            froms = np.concatenate((ends, chain[:-1],
                                    np.full(count, chain[-1])))
            tos = np.concatenate((np.full(count, count), chain[1:],
                                  count + r + ends))
        else:      # first block -> last block
            froms, tos = np.repeat(ends, count), count + np.tile(ends, count)
        at = starts[group][:, None]
        heads.append((at + froms).ravel())
        tails.append((at + tos).ravel())
        diag.append((at + np.arange(2 * count + r)).ravel())
        lam_mid = lam[np.array([mids[i] for i in group],
                               dtype=np.intp).reshape(len(group), r)]
        lam_ends = np.broadcast_to(lam, (len(group), count))
        points.append(np.concatenate((lam_ends, lam_mid, lam_ends),
                                     axis=1).ravel())
    opitz[np.concatenate(heads), np.concatenate(tails)] = 1.0
    diag = np.concatenate(diag)
    opitz[diag, diag] = np.concatenate(points) - mu
    table = _pair_table(())
    gen = JetMatrix(0, (), opitz[None])
    exp_j = _taylor_exp(gen, table, _taylor_schedule(
        table, _block_norms(gen.blocks)), False).blocks[0].real * np.exp(mu)
    return {mid: exp_j[at:at + count, at + size - count:at + size]
            for mid, size, at in zip(mids, sizes, starts)}
