"""M-maps on a multiset lattice and the star operations of the moment algebra.

An M-map assigns a complex or jet value to every multiset over 1..n with
per-label multiplicities bounded by `caps` (plain subsets: caps = 1).  It
is one dense complex array in the storage order of `jets._pair_table`
(mixed-radix C order, label 1 slowest), in the
exponential-generating-function normalisation (row a holds f(a) /
prod(mult!)), so the binomial-weighted convolution is the plain truncated
product.  Jet values add a trailing jet-lattice axis; a scalar map has jet
caps ().  In C order the raveled (lattice, jet lattice) array is the jet
over caps + jet caps, so every ring operation on a map is the jet ring's
on `_pair_table(caps + jet_caps)`: a product is one gather over its pairs
and one scatter by ``np.bincount``, and log*, exp*, the inverse and every
F* are one Taylor series sum_k F^(k)(c)/k! N^k of the nilpotent part N =
f - c.  Enumeration (`MMap.domain`) stays by size, in the order of
`combinatorics.multiset_lattice`.

The paper's partition-sum formulas stay as two reference functions,
`partition_fstar` and `bipartition_convolve`, in plain arithmetic on any
values (Fraction included).  They are independent oracles, used by tests
and by the partition-sum sides of the thermal, multiset and
generating-function verifiers only.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable

import numpy as np

from .combinatorics import (
    EMPTY,
    Multiset,
    multiset_lattice,
    ordered_bipartitions_of,
    partitions_of,
)
from .errors import (
    CapExceededError,
    DomainError,
    NotBipartitionError,
    SeriesDivergenceError,
    ShapeMismatchError,
)
from .jets import (
    Jet,
    _check_size,
    _exp,
    _inverse,
    _log,
    _monomials,
    _pair_table,
    _position,
    _ring_product,
    _series,
)

DEFAULT_TOL = 1e-10


def value_allclose(x, y, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise absolute-error comparison, mixing scalars and jets freely."""
    if isinstance(x, Jet) or isinstance(y, Jet):
        jet = x if isinstance(x, Jet) else y
        return Jet.ensure(x, jet.n, jet.caps).allclose(
            Jet.ensure(y, jet.n, jet.caps), tol)
    return abs(x - y) <= tol


class MMap:
    """Total mapping from the multiset lattice to complex or jet values.

    Missing entries read as zero.  Instances are treated as immutable;
    every operation returns a new map.
    """

    __slots__ = ("n", "caps", "jet_caps", "_data")

    def __init__(self, n: int, entries=None, caps: tuple[int, ...] | None = None):
        self.n = int(n)
        self.caps = tuple(caps) if caps is not None else (1,) * self.n
        if len(self.caps) != self.n:
            raise ShapeMismatchError("caps length must equal ground size")
        entries = {a if isinstance(a, Multiset) else Multiset(a): v
                   for a, v in dict(entries or {}).items()}
        self.jet_caps = next((v.caps for v in entries.values()
                              if isinstance(v, Jet)), ())
        _check_size("M-map entries",
                    math.prod(c + 1 for c in self.caps + self.jet_caps), 16)
        self._data = np.zeros((len(_pair_table(self.caps).grade),
                               len(_pair_table(self.jet_caps).grade)),
                              dtype=complex)
        for a, v in entries.items():
            self._set(a, v)

    def _set(self, a: Multiset, value) -> None:
        i = _position(self.caps, a)
        table = _pair_table(self.caps)
        self._data[i] = 0.0
        if isinstance(value, Jet):
            if value.caps != self.jet_caps:
                raise ShapeMismatchError(
                    f"jet value of caps {value.caps} in a map of jet caps "
                    f"{self.jet_caps}")
            self._data[i] = value._vec / table.weight[i]
        else:
            self._data[i, 0] = complex(value) / table.weight[i]

    @classmethod
    def _dense(cls, n: int, caps: tuple[int, ...], jet_caps: tuple[int, ...],
               data: np.ndarray) -> "MMap":
        """Wrap a (lattice, jet lattice) array, in the storage order and
        the normalisation of `_data`; no copy, no checks."""
        out = cls.__new__(cls)
        out.n, out.caps, out.jet_caps, out._data = n, caps, jet_caps, data
        return out

    def _like(self, data: np.ndarray) -> "MMap":
        """A map of this shape over `data` (any shape of the same size)."""
        return MMap._dense(self.n, self.caps, self.jet_caps,
                           data.reshape(self._data.shape))

    def _lift(self, fn) -> "MMap":
        """fn(pair table, jet, total degree) as a map of this shape, on the
        jet over caps + jet caps that the raveled array is; powers of the
        nilpotent part vanish beyond the total degree."""
        caps = self.caps + self.jet_caps
        return self._like(fn(_pair_table(caps), self._data.ravel(), sum(caps)))

    @classmethod
    def from_function(cls, n, fn: Callable[[Multiset], object], caps=None) -> "MMap":
        out = cls(n, None, caps)
        for a in out.domain():
            out._set(a, fn(a))
        return out

    def __call__(self, a: Multiset):
        if not a.fits(self.caps):
            return 0.0
        i = _position(self.caps, a)
        row = self._data[i] * _pair_table(self.caps).weight[i]
        if not self.jet_caps:
            return complex(row[0])
        return Jet._dense(len(self.jet_caps), self.jet_caps, row)

    def domain(self) -> tuple[Multiset, ...]:
        """The lattice by size, as `multiset_lattice` enumerates it."""
        return multiset_lattice(self.n, self.caps)

    def replace(self, a: Multiset, value) -> "MMap":
        new = self._like(self._data.copy())
        new._set(a, value)
        return new

    def allclose(self, other: "MMap", tol: float = DEFAULT_TOL) -> bool:
        return self.max_abs_diff(other) <= tol

    def max_abs_diff(self, other: "MMap") -> float:
        _check_shapes(self, other)
        diff = (self._data - other._data) * _pair_table(self.caps).weight[:, None]
        return float(np.max(np.abs(diff), initial=0.0))

    def __repr__(self) -> str:
        body = ", ".join(f"{a}: {self(a)}" for a, row in zip(
            _monomials(self.caps), self._data) if row.any())
        return f"MMap(n={self.n}, caps={self.caps}, {{{body}}})"


def _check_shapes(f: MMap, g: MMap) -> None:
    if (f.n, f.caps, f.jet_caps) != (g.n, g.caps, g.jet_caps):
        raise ShapeMismatchError(
            f"shape mismatch: (n={f.n}, caps={f.caps}, jet caps={f.jet_caps})"
            f" vs (n={g.n}, caps={g.caps}, jet caps={g.jet_caps})")


def identity_mmap(n: int, caps=None) -> MMap:
    """The convolution identity 1*: value 1 at the empty multiset."""
    return MMap(n, {EMPTY: 1.0}, caps)


def scalar_mmap(alpha, n: int, caps=None) -> MMap:
    """The scalar alpha*: convolving with it scales every entry by alpha."""
    return MMap(n, {EMPTY: alpha}, caps)


def convolve(f: MMap, g: MMap) -> MMap:
    """Convolution product (f*g)(a) = sum over ordered bipartitions of
    weight * f(a1) * g(a2): the truncated product of the normalised arrays."""
    _check_shapes(f, g)
    return f._lift(lambda table, x, _: _ring_product(table, x, g._data.ravel()))


def apply_fstar(derivs: Callable[[int, object], object], f: MMap) -> MMap:
    """Lift a scalar function F to the algebra: F*(f) = sum_k F^(k)(c)/k! N^k
    with c the scalar constant of f and N = f - c nilpotent.

    On scalar maps this is the partition sum of F^(|p|)(f(empty)) times the
    block product.  `derivs(k, x)` must return the k-th derivative of F at
    the scalar x for k from 0 up to the total degree (the largest multiset
    size plus, for jet values, the largest jet degree).  Satisfies the
    composition law (FG)* = F* G*.
    """
    c = complex(f._data[0, 0])

    def series(table, vec: np.ndarray, top: int) -> np.ndarray:
        nil = vec.copy()
        nil[0] = 0.0
        return _series(table, derivs(0, c),
                       lambda k: derivs(k, c) / factorial(k), nil, top)

    return f._lift(series)


def log_star(f: MMap) -> MMap:
    """The cumulant, log* f = log c + sum_k (-1)^(k+1) (N/c)^k / k."""
    return f._lift(_log)


def exp_star(f: MMap) -> MMap:
    """The anticumulant, inverse of log_star: e^c sum_k N^k / k!."""
    return f._lift(_exp)


def inverse_star(f: MMap) -> MMap:
    """Convolution inverse (1/c) sum_k (-N/c)^k."""
    return f._lift(_inverse)


def log1p_series(f: MMap, depth: int, with_deltas: bool = False):
    """Partial sum f - f*f/2 + f*f*f/3 - ... to `depth` terms.

    Converges to log_star(identity + f) when |f(empty)| < 1.  No
    convergence rate is asserted on nonempty multisets; with
    ``with_deltas=True`` the per-entry magnitude of the last added term is
    returned alongside, as a truncation diagnostic.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if abs(f._data[0, 0]) >= 1.0:
        raise SeriesDivergenceError(
            f"series requires |f(empty)| < 1, got {abs(f._data[0, 0]):.6g}")
    ring, x = _pair_table(f.caps + f.jet_caps), f._data.ravel()
    acc = power = last = x
    for k in range(2, depth + 1):
        power = _ring_product(ring, power, x)
        last = power * ((-1) ** (k + 1) / k)
        acc = acc + last
    result = f._like(acc)
    if not with_deltas:
        return result
    size = np.abs(last.reshape(f._data.shape)
                  * _pair_table(f.caps).weight[:, None]).max(axis=1).tolist()
    return result, {a: size[_position(f.caps, a)] for a in f.domain()}


def raise_label(f: MMap, i: int) -> MMap:
    """Raising operator: (d_i* f)(a) = f(a + {i}).

    On the normalised array, the tensor over (c_1 + 1, ..., c_n + 1), that
    is a shift along axis i times the new multiplicity.  Entries at the cap
    boundary (multiplicity of i already at its cap) would need values
    beyond the stored lattice; they read as zero, so the raised map is
    faithful only below the boundary.
    """
    if not (1 <= i <= f.n):
        raise CapExceededError(f"label {i} outside ground set 1..{f.n}")
    data = np.moveaxis(f._data.reshape(*(c + 1 for c in f.caps), -1), i - 1, 0)
    out = np.zeros_like(data)
    out[:-1] = data[1:] * np.arange(1, len(data)).reshape(
        -1, *[1] * (data.ndim - 1))
    return f._like(np.moveaxis(out, 0, i - 1))


def is_factorizing(f: MMap, part_a: Iterable[int], part_b: Iterable[int],
                   tol: float = DEFAULT_TOL) -> bool:
    """True iff f(c) = f(c & A) f(c & B) for every c, within tol.

    {A, B} must be a bipartition of the ground set 1..n.
    """
    sa, sb = set(part_a), set(part_b)
    if sa & sb or sa | sb != set(range(1, f.n + 1)):
        raise NotBipartitionError(f"{sorted(sa)} / {sorted(sb)} is not a bipartition")
    for c in f.domain():
        prod = f(c.restrict(sa)) * f(c.restrict(sb))
        if not value_allclose(f(c), prod, tol):
            return False
    return True


# ---------------------------------------------------------------------------
# reference partition sums: independent oracles for the ring above


def log_derivative(k: int, x):
    """k-th derivative of log at x: log x, then (-1)^(k-1) (k-1)! / x^k."""
    if k == 0:
        return cmath.log(x)
    return (-1) ** (k - 1) * factorial(k - 1) / x ** k


def partition_fstar(derivs: Callable[[int, object], object], f: Callable,
                    at: Iterable[Multiset]) -> dict:
    """Reference F*: (F*f)(a) = sum over partitions p of a of coeff(p)
    F^(|p|)(f(empty)) prod_{b in p} f(b), for each multiset in `at`.

    `f` is any callable on multisets (an MMap, or a dict's ``get``); values
    may be complex, Fraction or jets, with `derivs` evaluated at f(empty).
    With `log_derivative` this is the cumulant.
    """
    f = lru_cache(maxsize=None)(f)     # each block value is read once
    c = f(EMPTY)
    return {a: derivs(0, c) if a.is_empty else
            sum(coeff * derivs(part.part_count, c) * math.prod(map(f, part.blocks))
                for part, coeff in partitions_of(a))
            for a in at}


def bipartition_convolve(f: Callable, g: Callable,
                         at: Iterable[Multiset]) -> dict:
    """Reference convolution: (f*g)(a) = sum over ordered bipartitions
    (a1, a2) of a of the binomial weight times f(a1) g(a2)."""
    return {a: sum(bp.weight * f(bp.first) * g(bp.second)
                   for bp in ordered_bipartitions_of(a))
            for a in at}
