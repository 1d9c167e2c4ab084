"""M-maps on a multiset lattice and the star operations of the moment algebra.

An M-map assigns a complex or jet value to every multiset over 1..n with
per-label multiplicities bounded by `caps` (plain subsets: caps = 1).  It
is a view of one `Jet`, `f.jet`, over caps + jet caps: the n labels of the
map, then the labels of its jet values (jet caps () for a scalar map).  The
jet holds the map in the exponential-generating-function normalisation:
its coefficient at a + b, a a multiset of map labels and b a jet monomial
with its labels shifted past n, is the b coefficient of f(a) / prod(mult
a!).  The binomial-weighted convolution is then the jet product, and the
cumulant log*, the anticumulant exp* and the convolution inverse are the
jet's log, exp and inverse (`momalg.jets`): M-maps and jets are one ring
and one data type.  Those three and every other F* (`apply_fstar`) are one
construction, the lift F*(f) = sum_k F^(k)(c)/k! N^k of the nilpotent
part N = f - c, which the jet ring takes one label at a time from a table
of the derivatives F^(k)(c) (`jets._fstar`).  Enumeration (`MMap.domain`)
stays by size, in the order of `combinatorics.multiset_lattice`.

The paper's partition-sum formula for F* stays as one reference function,
`partition_fstar`, in plain arithmetic on any values (Fraction included).
It is an independent oracle, used by tests and for the right-hand
weak-value cumulant of every verifier in `momalg.experiments`.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .combinatorics import (
    EMPTY,
    Multiset,
    _monomials,
    multiset_lattice,
    partitions_of,
)
from .errors import (
    CapExceededError,
    DomainError,
    NotBipartitionError,
    SeriesDivergenceError,
    ShapeMismatchError,
)
from .jets import Jet, _lattice_position, _position, _weights

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

    __slots__ = ("n", "jet")

    def __init__(self, n: int, entries=None, caps: tuple[int, ...] | None = None):
        self.n = int(n)
        caps = tuple(caps) if caps is not None else (1,) * self.n
        if len(caps) != self.n:
            raise ShapeMismatchError("caps length must equal ground size")
        entries = {a if isinstance(a, Multiset) else Multiset(a): v
                   for a, v in dict(entries or {}).items()}
        jet_caps = next((v.caps for v in entries.values()
                         if isinstance(v, Jet)), ())
        self.jet = Jet(self.n + len(jet_caps), caps + jet_caps)
        for a, v in entries.items():
            self._set(a, v)

    @classmethod
    def _over(cls, n: int, jet: Jet) -> "MMap":
        """The map over the first n labels of `jet`, its jet values over the
        rest (module docstring); no copy, no checks."""
        out = cls.__new__(cls)
        out.n, out.jet = n, jet
        return out

    @property
    def caps(self) -> tuple[int, ...]:
        return self.jet.caps[:self.n]

    @property
    def jet_caps(self) -> tuple[int, ...]:
        return self.jet.caps[self.n:]

    def _rows(self) -> np.ndarray:
        """The jet's vector as (lattice, jet lattice): row a is f(a) / a!."""
        return self.jet._vec.reshape(math.prod(c + 1 for c in self.caps), -1)

    def _set(self, a: Multiset, value) -> None:
        pos = _position(self.caps, a)
        row, weight = self._rows()[pos], _weights(self.caps)[pos]
        if isinstance(value, Jet):
            if value.caps != self.jet_caps:
                raise ShapeMismatchError(
                    f"jet value of caps {value.caps} in a map of jet caps "
                    f"{self.jet_caps}")
            row[:] = value._vec / weight
        else:
            row[:] = 0.0
            row[0] = complex(value) / weight

    @classmethod
    def from_function(cls, n, fn: Callable[[Multiset], object], caps=None) -> "MMap":
        return cls(n, {a: fn(a) for a in cls(n, None, caps).domain()}, caps)

    def __call__(self, a: Multiset):
        caps = self.caps
        pos = _lattice_position(caps, a)
        if pos < 0:
            return 0.0
        row = self._rows()[pos] * _weights(caps)[pos]
        if not self.jet_caps:
            return complex(row[0])
        return Jet._dense(len(self.jet_caps), self.jet_caps, row)

    def domain(self) -> tuple[Multiset, ...]:
        """The lattice by size, as `multiset_lattice` enumerates it."""
        return multiset_lattice(self.n, self.caps)

    def replace(self, a: Multiset, value) -> "MMap":
        new = MMap._over(self.n, self.jet._like(self.jet._vec.copy()))
        new._set(a, value)
        return new

    def allclose(self, other: "MMap", tol: float = DEFAULT_TOL) -> bool:
        return self.max_abs_diff(other) <= tol

    def max_abs_diff(self, other: "MMap") -> float:
        """The largest |f(a) - g(a)| (for jets, of a coefficient)."""
        _check_shapes(self, other)
        diff = (self._rows() - other._rows()) * _weights(self.caps)[:, None]
        return float(np.max(np.abs(diff), initial=0.0))

    def __repr__(self) -> str:
        body = ", ".join(f"{a}: {self(a)}" for a, row in zip(
            _monomials(self.caps), self._rows()) if row.any())
        return f"MMap(n={self.n}, caps={self.caps}, {{{body}}})"


def _check_shapes(f: MMap, g: MMap) -> None:
    if (f.n, f.jet.caps) != (g.n, g.jet.caps):
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
    weight * f(a1) * g(a2): the product of the jets."""
    _check_shapes(f, g)
    return MMap._over(f.n, f.jet * g.jet)


def apply_fstar(derivs: Callable[[int, object], object], f: MMap) -> MMap:
    """Lift a scalar function F to the algebra: F*(f) = sum_k F^(k)(c)/k! N^k
    with c the scalar constant of f and N = f - c nilpotent, one label at a
    time (`jets._fstar`).

    On scalar maps this is the partition sum of F^(|p|)(f(empty)) times the
    block product.  `derivs(k, x)` must return the k-th derivative of F at
    the scalar x for k from 0 up to the total degree (the largest multiset
    size plus, for jet values, the largest jet degree).  Satisfies the
    composition law (FG)* = F* G*.
    """
    c = f.jet.constant
    return MMap._over(f.n, f.jet._lift(lambda k: derivs(k, c)))


def log_star(f: MMap) -> MMap:
    """The cumulant, log* f = log c + sum_k (-1)^(k+1) (N/c)^k / k."""
    return MMap._over(f.n, f.jet.log())


def exp_star(f: MMap) -> MMap:
    """The anticumulant, inverse of log_star: e^c sum_k N^k / k!."""
    return MMap._over(f.n, f.jet.exp())


def inverse_star(f: MMap) -> MMap:
    """Convolution inverse (1/c) sum_k (-N/c)^k."""
    return MMap._over(f.n, f.jet.inverse())


def log1p_series(f: MMap, depth: int, with_deltas: bool = False):
    """Partial sum f - f*f/2 + f*f*f/3 - ... to `depth` terms.

    Converges to log_star(identity + f) when |f(empty)| < 1.  No
    convergence rate is asserted on nonempty multisets; with
    ``with_deltas=True`` the per-entry magnitude of the last added term is
    returned alongside, as a truncation diagnostic.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if abs(f.jet.constant) >= 1.0:
        raise SeriesDivergenceError(
            f"series requires |f(empty)| < 1, got {abs(f.jet.constant):.6g}")
    acc = power = last = f.jet
    for k in range(2, depth + 1):
        power = power * f.jet
        last = power * ((-1) ** (k + 1) / k)
        acc = acc + last
    if not with_deltas:
        return MMap._over(f.n, acc)
    size = np.abs(MMap._over(f.n, last)._rows()
                  * _weights(f.caps)[:, None]).max(axis=1).tolist()
    return MMap._over(f.n, acc), {a: size[_position(f.caps, a)]
                                  for a in f.domain()}


def raise_label(f: MMap, i: int) -> MMap:
    """Raising operator: (d_i* f)(a) = f(a + {i}).

    On the jet, the tensor over (c_1 + 1, ..., c_n + 1, jet caps + 1), that
    is a shift along axis i times the new multiplicity.  Entries at the cap
    boundary (multiplicity of i already at its cap) would need values
    beyond the stored lattice; they read as zero, so the raised map is
    faithful only below the boundary.
    """
    if not (1 <= i <= f.n):
        raise CapExceededError(f"label {i} outside ground set 1..{f.n}")
    data = np.moveaxis(f.jet._vec.reshape([c + 1 for c in f.jet.caps]), i - 1, 0)
    out = np.zeros_like(data)
    out[:-1] = data[1:] * np.arange(1, len(data)).reshape(
        -1, *[1] * (data.ndim - 1))
    return MMap._over(f.n, f.jet._like(np.moveaxis(out, 0, i - 1).ravel()))


def is_factorizing(f: MMap, part_a: Iterable[int], part_b: Iterable[int],
                   tol: float = DEFAULT_TOL) -> bool:
    """True iff f(c) = f(c & A) f(c & B) for every c, within tol.

    {A, B} must be a bipartition of the ground set 1..n.  Setting the
    labels outside A (and the jet labels kept) to zero is a ring
    homomorphism, so that is the ring identity f = f|A * f|B: a monomial c
    of the product splits only as (c & A) + (c & B).
    """
    sa, sb = set(part_a), set(part_b)
    if sa & sb or sa | sb != set(range(1, f.n + 1)):
        raise NotBipartitionError(f"{sorted(sa)} / {sorted(sb)} is not a bipartition")
    jet_labels = range(f.n + 1, len(f.jet.caps) + 1)
    on_a, on_b = (f.jet.restrict(Multiset([*side, *jet_labels]))
                  for side in (sa, sb))
    return f.max_abs_diff(MMap._over(f.n, on_a * on_b)) <= tol


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
    With `log_derivative` this is the cumulant.  Which partitions, blocks
    and part counts the targets take depends on the targets alone, so it
    is planned once per tuple of targets (`_partition_plan`); a call reads
    f once per distinct block, takes derivs(k, f(empty)) once per part
    count k, and sums each target's terms in `partitions_of` order.
    """
    at = tuple(at)
    plan = _partition_plan(at)
    c = f(EMPTY)
    dv = {k: derivs(k, c) for k in plan.counts}
    values = [f(b) for b in plan.blocks]
    return {a: dv[0] if terms is None else
            sum(coeff * dv[k] * math.prod([values[i] for i in blocks])
                for coeff, k, blocks in terms)
            for a, terms in zip(at, plan.terms)}


class _PartitionPlan(NamedTuple):
    """What `partition_fstar` reads and sums for one tuple of targets."""

    blocks: tuple   # the distinct blocks, in the order the terms read them
    counts: tuple   # the distinct part counts, in first-use order (0: empty)
    # per target, None for the empty multiset, else its (coeff, part count,
    # block indices) for each partition, in `partitions_of` order
    terms: tuple


@lru_cache(maxsize=64)
def _partition_plan(at: tuple) -> _PartitionPlan:
    """The plan of `partition_fstar` for the targets `at`, built from
    `partitions_of`.  It holds multisets and integers only, shape facts
    and no values, in tuples that every thread shares."""
    index: dict = {}
    counts: dict = {}
    terms = []
    for a in at:
        if a.is_empty:
            counts.setdefault(0)
            terms.append(None)
            continue
        row = []
        for part, coeff in partitions_of(a):
            counts.setdefault(part.part_count)
            row.append((coeff, part.part_count, tuple(
                index.setdefault(b, len(index)) for b in part.blocks)))
        terms.append(tuple(row))
    return _PartitionPlan(tuple(index), tuple(counts), tuple(terms))
