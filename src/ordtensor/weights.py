"""Repeated-averages weights and the block averaging operators.

Two weight hierarchies are computed exactly:

* ``p_weight(xi, E)`` -- the convex coefficients of the repeated
  averages hierarchy; rational, and summing to 1 over each maximal
  S_xi block.
* ``q_weight(xi, zeta, E)`` -- their square-root analogues, of the form
  ``1/sqrt(r)`` with integer radicand; the block sums of squares equal 1.

On top of the weights sit the averaging operators ``avg`` (level-xi
convex blocking of a vector collection indexed by finite sets) and
``avg2`` (the square-root re-blocking of those averages).  The vector
space is abstract: any values supporting ``+`` and scalar ``*`` work,
and absent keys read as the zero vector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from typing import Mapping

from .ordinal import Ordinal, as_ordinal
from .schreier import (
    Base,
    Conv,
    Family,
    _split,
    as_finite_set,
    decompose,
    is_maximal,
    level_step,
    member,
    split_blocks,
)

__all__ = [
    "Weight",
    "RadicalSum",
    "p_weight",
    "q_weight",
    "avg",
    "avg2",
    "avg2_terms",
    "verify_perm",
    "PermReport",
]


def _square_free(r: int) -> tuple[int, int]:
    """Write r = s*s*rad with rad square-free; returns (s, rad).

    Trial division; the whole power of a divisor d comes off by its
    powers ``d^(2^i)``, largest first, reading the exponent e bit by bit
    in O(log e) divisions.  A large prime factor p still takes O(sqrt p)."""
    if r < 1:
        raise ValueError("radicand must be positive")
    s, rad, d = 1, 1, 2
    while d * d <= r:
        if r % d == 0:
            powers = [d]
            while r % (powers[-1] * powers[-1]) == 0:
                powers.append(powers[-1] * powers[-1])
            exp = 0
            for i in reversed(range(len(powers))):
                if r % powers[i] == 0:
                    r //= powers[i]
                    exp += 1 << i
            s *= d ** (exp // 2)
            if exp % 2:
                rad *= d
        d += 1
    return s, rad * r


@dataclass(frozen=True)
class Weight:
    """An exact positive scalar of the form ``ratio / sqrt(radicand)``.

    The radicand is kept square-free, so equal values have equal parts,
    and the square of a Weight is an exact rational.
    """

    ratio: Fraction
    radicand: int = 1

    def __post_init__(self):
        ratio = Fraction(self.ratio)
        s, rad = _square_free(self.radicand)
        object.__setattr__(self, "ratio", ratio / s)
        object.__setattr__(self, "radicand", rad)
        if self.ratio <= 0:
            raise ValueError("weights are strictly positive")

    def __mul__(self, other):
        if isinstance(other, Weight):
            return Weight(self.ratio * other.ratio, self.radicand * other.radicand)
        return Weight(self.ratio * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def square(self) -> Fraction:
        return self.ratio * self.ratio / self.radicand

    def as_rational(self) -> Fraction | None:
        return self.ratio if self.radicand == 1 else None

    def __float__(self):
        return float(self.ratio) / self.radicand**0.5

    def __str__(self):
        a, b = self.ratio.numerator, self.ratio.denominator
        if self.radicand == 1:
            return f"{a}/{b}" if b != 1 else f"{a}"
        return f"{a}/({b}*sqrt({self.radicand}))"


class RadicalSum:
    """Exact accumulator for sums of terms ``c / sqrt(r)``.

    Terms are bucketed by square-free radicand; since distinct
    square-free radicals are linearly independent over the rationals,
    the representation is canonical and equality against a rational is
    decidable exactly.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict[int, Fraction] = {}

    def add(self, w: Weight, c) -> "RadicalSum":
        c = Fraction(c)
        if c == 0:
            return self
        key = w.radicand
        self._terms[key] = self._terms.get(key, Fraction(0)) + w.ratio * c
        if self._terms[key] == 0:
            del self._terms[key]
        return self

    def as_rational(self) -> Fraction | None:
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == {1}:
            return self._terms[1]
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if isinstance(other, RadicalSum):
            return self._terms == other._terms
        return NotImplemented

    def __float__(self):
        return sum((float(c) / r**0.5 for r, c in self._terms.items()), 0.0)

    def __repr__(self):
        if not self._terms:
            return "RadicalSum(0)"
        parts = [f"{c}/sqrt({r})" if r != 1 else f"{c}" for r, c in sorted(self._terms.items())]
        return "RadicalSum(" + " + ".join(parts) + ")"


# -- the weight descents ------------------------------------------------
#
# Both weights are reciprocals of one integer: the product of the block
# minima met at successor levels of a greedy descent, through S_xi for
# p (taken as is) and through S_zeta[S_xi] for q (under a square root).


def _family(level: Ordinal, inner: Ordinal | None) -> Family:
    return Base(level) if inner is None else Conv(level, inner)


def _prefix_descent(level: Ordinal, inner: Ordinal | None, E: tuple[int, ...]) -> list[int]:
    """The descent product of every initial segment of E.

    The product of a set is that of the minima met along the descent
    into its last block, level by level.  Greedy splits of a prefix
    truncate those of the full set, so all prefixes share one descent,
    run on an explicit work stack; the last entry is the product of E,
    and the empty set has none.

    Only a segment longer than its minimum m is split.  A shorter one is
    one S_1 block (for q its inner block minima are: it has no more inner
    blocks than elements), and S_1 lies inside every non-zero level's
    family, so it is one block at every level below.  A finite level k
    then multiplies its product by m**k in one step, and a limit or
    transfinite level takes one level step with no split.
    """
    out = [1] * len(E)
    stack = [(level, 0, len(E), 1)] if E else []
    while stack:
        level, a, b, r = stack.pop()
        m = E[a]
        if level.is_zero():
            out[a:b] = [r] * (b - a)
        elif b - a <= m and level.is_finite():
            out[a:b] = [r * m ** level.to_int()] * (b - a)
        elif b - a <= m:
            below, count = level_step(level, m)
            stack.append((below, a, b, r * count))
        else:
            c = a
            for block in _split(_family(level, inner), E[a:b]):
                d = c + len(block)
                below, count = level_step(level, E[c])
                stack.append((below, c, d, r * count))
                c = d
    return out


def p_weight(xi, E) -> Fraction:
    """Level-xi repeated-averages weight of a non-empty finite set."""
    E = as_finite_set(E)
    if not E:
        raise ValueError("weights are defined for non-empty sets")
    return _p(as_ordinal(xi), E)


@lru_cache(maxsize=1 << 16)
def _p(xi: Ordinal, E: tuple[int, ...]) -> Fraction:
    return Fraction(1, _prefix_descent(xi, None, E)[-1])


def q_weight(xi, zeta, E) -> Weight:
    """Square-root weight of a non-empty finite set at levels (xi, zeta)."""
    E = as_finite_set(E)
    if not E:
        raise ValueError("weights are defined for non-empty sets")
    return _q(as_ordinal(xi), as_ordinal(zeta), E)


@lru_cache(maxsize=1 << 16)
def _q(xi: Ordinal, zeta: Ordinal, E: tuple[int, ...]) -> Weight:
    return Weight(Fraction(1), _prefix_descent(zeta, xi, E)[-1])


def p_prefix_weights(xi, E) -> list[Fraction]:
    """p_weight of every initial segment of E, in one descent.

    Agrees with :func:`p_weight` term by term (tested); meant for long
    blocks, where evaluating each prefix on its own would be quadratic.
    """
    rs = _prefix_descent(as_ordinal(xi), None, as_finite_set(E))
    weights = {r: Fraction(1, r) for r in set(rs)}
    return [weights[r] for r in rs]


def q_prefix_weights(xi, zeta, E) -> list[Weight]:
    """q_weight of every initial segment of E, in one descent."""
    rs = _prefix_descent(as_ordinal(zeta), as_ordinal(xi), as_finite_set(E))
    weights = {r: Weight(Fraction(1), r) for r in set(rs)}
    return [weights[r] for r in rs]


# -- averaging operators -----------------------------------------------


def avg(xi, stream, u: Mapping, n: int):
    """The n-th level-xi average of the collection ``u`` along a stream.

    Sums ``p_weight(xi, F) * u[F]`` over initial segments F of the
    stream lying in the n-th maximal S_xi block.  Coefficients are exact
    rationals.  Returns scalar 0 when every key is absent.
    """
    xi = as_ordinal(xi)
    blocks = decompose(Base(xi), stream, n)
    full = tuple(chain.from_iterable(blocks))
    ps = p_prefix_weights(xi, full)
    start = len(full) - len(blocks[-1])
    acc = None
    for j in range(start + 1, len(full) + 1):
        v = u.get(full[:j])
        if v is None:
            continue
        term = ps[j - 1] * v
        acc = term if acc is None else acc + term
    return 0 if acc is None else acc


def avg2_terms(xi, zeta, stream, n: int):
    """Exact coefficient table for the n-th square-root re-blocked average.

    Returns a list of ``(F, q, p)`` triples with q a :class:`Weight`
    and p a rational, F ranging over the initial segments in the n-th
    maximal S_zeta[S_xi] block of the stream.
    """
    xi, zeta = as_ordinal(xi), as_ordinal(zeta)
    blocks = decompose(Conv(zeta, xi), stream, n)
    full = tuple(chain.from_iterable(blocks))
    ps = p_prefix_weights(xi, full)
    qs = q_prefix_weights(xi, zeta, full)
    start = len(full) - len(blocks[-1])
    return [
        (full[:j], qs[j - 1], ps[j - 1]) for j in range(start + 1, len(full) + 1)
    ]


def avg2(xi, zeta, stream, u: Mapping, n: int):
    """The n-th square-root re-blocked average of the collection ``u``.

    Coefficients ``q*p`` are applied as exact rationals when the
    radical part is trivial and as floats otherwise.
    """
    terms = avg2_terms(xi, zeta, stream, n)
    acc = None
    for F, q, p in terms:
        v = u.get(F)
        if v is None:
            continue
        w = q * p
        c = w.as_rational()
        term = (c if c is not None else float(w)) * v
        acc = term if acc is None else acc + term
    return 0 if acc is None else acc


# -- permanence / convexity verification --------------------------------


@dataclass
class PermReport:
    """Exact pass/fail for the four weight identities on a decomposition."""

    perm_p: bool
    perm_q: bool
    convex: bool
    l2_convex: bool

    def all_pass(self) -> bool:
        return self.perm_p and self.perm_q and self.convex and self.l2_convex


def verify_perm(xi, zeta, blocks) -> PermReport:
    """Check the weight identities on successive maximal convolution blocks.

    ``blocks`` must be the first members of an S_zeta[S_xi]
    decomposition of some stream.  All four identities are evaluated in
    exact arithmetic:

    * p is unchanged by deleting preceding complete S_xi blocks;
    * q is unchanged by deleting preceding complete S_zeta[S_xi] blocks;
    * p sums to 1 over each maximal S_xi block segment;
    * the squares of the q-weighted p-sums add to 1 over each maximal
      S_zeta[S_xi] block (q is constant on each inner segment, so each
      bracket squared is rational).

    The last two are integer tallies over common denominators, with no
    Fraction: an inner segment's p-sum is a numerator over the lcm of
    its distinct descent products, and a convolution block's terms
    ``p_sum**2 * q**2`` are counted by value and summed over the lcm of
    their denominators.
    """
    xi, zeta = as_ordinal(xi), as_ordinal(zeta)
    conv = Conv(zeta, xi)
    blocks = tuple(as_finite_set(b) for b in blocks)
    for b in blocks:
        if not member(conv, b) or not is_maximal(conv, b):
            raise ValueError(f"{b} is not a maximal block of the convolution")
    full = tuple(chain.from_iterable(blocks))
    inner_bounds = list(accumulate(map(len, split_blocks(Base(xi), full))))
    conv_bounds = list(accumulate(map(len, blocks)))

    # p = 1/r and q = 1/sqrt(r) for the descent products r, so each
    # identity is checked on those integers
    rp = _prefix_descent(xi, None, full)
    rq = _prefix_descent(zeta, xi, full)

    def permanent(r, level, inner, bounds):
        # deleting the complete blocks before a prefix leaves its weight
        # unchanged: compare against a fresh evaluation of each suffix.
        # At level 0 every weight is 1, which is checked without that
        # quadratic work.
        if level.is_zero():
            return all(x == 1 for x in r)
        return all(r[cut:] == _prefix_descent(level, inner, full[cut:]) for cut in bounds[:-1])

    def p_sum(a: int, b: int) -> tuple[int, int]:
        # the p-sum of a segment as a numerator over the lcm of its
        # distinct r
        if b - a == 1:
            return 1, rp[a]
        counts = Counter(rp[a:b])
        den = math.lcm(*counts)
        return sum(c * (den // r) for r, c in counts.items()), den

    segments = list(zip([0, *inner_bounds], inner_bounds))
    sums = [p_sum(a, b) for a, b in segments]

    def l2_sum_one(first: int, last: int) -> bool:
        # the inner segments first..last-1 make up the block.  q is
        # constant on each, so its square 1/r times the p-sum n/d squared
        # is n*n / (d*d*r): the terms are tallied by value and summed
        # over the lcm of their d*d*r
        block = segments[first:last]
        if not all(rq[a:b].count(rq[a]) == b - a for a, b in block if b - a > 1):
            return False
        terms = Counter((n, d * d * rq[a]) for (a, _), (n, d) in zip(block, sums[first:last]))
        den = math.lcm(*(dr for _, dr in terms))
        return sum(c * n * n * (den // dr) for (n, dr), c in terms.items()) == den

    # a maximal convolution block is a run of maximal S_xi blocks, so
    # every convolution cut is an inner cut
    last_segment = {b: i + 1 for i, b in enumerate(inner_bounds)}
    conv_segments = [last_segment[b] for b in conv_bounds]

    return PermReport(
        permanent(rp, xi, None, inner_bounds),
        permanent(rq, zeta, xi, conv_bounds),
        all(n == d for n, d in sums),
        all(l2_sum_one(i, j) for i, j in zip([0, *conv_segments], conv_segments)),
    )
