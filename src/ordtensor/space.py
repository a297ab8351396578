"""Finite models of spaces of continuous functions on countable compacta.

Elements are step functions: finitely many constant pieces on ordinal
intervals ``(a, b]`` inside ``[0, top]``, zero elsewhere.  Ordinal
intervals of this form are clopen, so every such function is continuous,
and all the norm and support computations reduce to exact interval
arithmetic.  The dual side is modelled by finitely supported atomic
measures with exact rational weights, and the weak norms are computed
exactly: the weak-1 norm of functions by point evaluation, the weak-2
norm of measures by sign enumeration.

Cantor schemes (dyadically nested, disjoint families of sets indexed by
sign sequences) and their Rademacher measures live here too; a scheme's
cells are ordinal-interval unions.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .ordinal import ONE, ZERO, Ordinal, as_ordinal

__all__ = [
    "Iv",
    "normalize_union",
    "meet",
    "StepFunction",
    "values_at",
    "AtomicMeasure",
    "CantorScheme",
    "indicator",
    "disjoint",
    "weak_1_norm_exact",
    "rademacher",
    "default_selector",
    "weak2_norm_squared_exact",
    "compatible",
]


@dataclass(frozen=True)
class Iv:
    """The ordinal interval ``(lo, hi]``; ``lo=None`` denotes ``[0, hi]``."""

    lo: Ordinal | None
    hi: Ordinal

    def is_empty(self) -> bool:
        if self.lo is None:
            return False
        return self.hi <= self.lo

    def contains(self, pt: Ordinal) -> bool:
        if self.lo is None:
            return pt <= self.hi
        return self.lo < pt <= self.hi

    def intersect(self, other: "Iv") -> "Iv | None":
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        out = Iv(lo, hi)
        return None if out.is_empty() else out

    def least(self) -> Ordinal:
        return ZERO if self.lo is None else self.lo + ONE

    def __str__(self):
        if self.lo is None:
            return f"[0,{self.hi}]"
        return f"({self.lo},{self.hi}]"


def _iv_sort_key(iv: Iv):
    return (0, ZERO) if iv.lo is None else (1, iv.lo)


def _is_normal(ivs: tuple[Iv, ...]) -> bool:
    """Whether every piece is non-empty and ends before the next starts."""
    prev = None
    for iv in ivs:
        if iv.is_empty() or (prev is not None and (iv.lo is None or iv.lo <= prev.hi)):
            return False
        prev = iv
    return True


def normalize_union(ivs: Iterable[Iv]) -> tuple[Iv, ...]:
    """Sort, drop empties, and merge touching intervals.

    A tuple already in that form, non-empty pieces each ending before the
    next one starts, comes back as it is after one pass over it: the
    cells that ``trees.scheme_of`` builds with :func:`meet` are
    normalized, and :class:`CantorScheme` does not sort them again."""
    if isinstance(ivs, tuple) and _is_normal(ivs):
        return ivs
    parts = sorted((iv for iv in ivs if not iv.is_empty()), key=_iv_sort_key)
    out: list[Iv] = []
    for iv in parts:
        # an interval from 0 sorts first, so it meets any earlier one
        if out and (iv.lo is None or out[-1].hi >= iv.lo):
            if out[-1].hi < iv.hi:
                out[-1] = Iv(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


def meet(union: tuple[Iv, ...], u: tuple[Iv, ...]) -> tuple[Iv, ...]:
    """Intersection of the normalized unions ``union`` and ``u``, normalized.

    Both must already be normalized (see :func:`normalize_union`).  Their
    intervals are then sorted and separated by gaps, so the ones of
    ``union`` that can meet an interval of ``u`` form one run, found by
    bisection on the right ends: a meet costs ``log n`` plus the size of
    the answer, not a scan of the whole union.  The pieces come out
    sorted, and separated by the gaps of either side, so they need no
    merging.  A normalized form is unique to its point set, so
    ``meet(union, u) == u`` says that ``u`` lies inside ``union``.  Its
    callers: ``trees.scheme_of`` (one meet a cell), the nesting and
    overlap checks of :class:`CantorScheme`, :func:`compatible` and
    :func:`disjoint`.
    """
    out, hi = [], operator.attrgetter("hi")
    for iv in u:
        j = 0 if iv.lo is None else bisect.bisect_right(union, iv.lo, key=hi)
        while j < len(union) and (union[j].lo is None or union[j].lo < iv.hi):
            out.append(iv.intersect(union[j]))
            j += 1
    return tuple(out)


# -- step functions ----------------------------------------------------


class StepFunction:
    """A piecewise-constant function on ``[0, top]``, zero off its pieces.

    Values may be floats or exact rationals; arithmetic preserves the
    value type, so collections built from rational values stay exact
    under the averaging operators.
    """

    __slots__ = ("top", "pieces")

    def __init__(self, top, pieces: Iterable[tuple[Iv, float]]):
        top = as_ordinal(top)
        clean: list[tuple[Iv, float]] = []
        for iv, v in pieces:
            if v == 0 or iv.is_empty():
                continue
            if iv.hi > top:
                raise ValueError(f"piece {iv} exceeds the domain top {top}")
            clean.append((iv, v))
        clean.sort(key=lambda pv: _iv_sort_key(pv[0]))
        merged: list[tuple[Iv, float]] = []
        for iv, v in clean:
            if merged:
                piv, pv = merged[-1]
                if iv.lo is None or iv.lo < piv.hi:
                    raise ValueError("pieces overlap")
                if pv == v and iv.lo == piv.hi:
                    merged[-1] = (Iv(piv.lo, iv.hi), v)
                    continue
            merged.append((iv, v))
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "pieces", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    def __call__(self, pt) -> float:
        return values_at([self], [pt])[0][0]

    def sup_norm(self) -> float:
        return max((abs(v) for _, v in self.pieces), default=0)

    def support(self) -> tuple[Iv, ...]:
        return normalize_union(iv for iv, _ in self.pieces)

    def preimage(self, value: float) -> tuple[Iv, ...]:
        return normalize_union(iv for iv, v in self.pieces if v == value)

    def restrict(self, beta) -> "StepFunction":
        """Truncate the domain to ``[0, beta]``: the projection, on the
        smaller domain."""
        return StepFunction(beta, self.project(beta).pieces)

    def project(self, beta) -> "StepFunction":
        """Zero the values above ``beta``, keeping the domain."""
        beta = as_ordinal(beta)
        if beta > self.top:
            raise ValueError(f"endpoint {beta} exceeds the domain top {self.top}")
        window = Iv(None, beta)
        cuts = ((iv.intersect(window), v) for iv, v in self.pieces)
        return StepFunction(self.top, ((iv, v) for iv, v in cuts if iv is not None))

    # linear structure --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)) and other == 0:
            return self
        if not isinstance(other, StepFunction):
            return NotImplemented
        if other.top != self.top:
            raise ValueError("domain tops differ")
        # one atom between consecutive piece ends, each read at its least point
        cuts = sorted({e for f in (self, other) for iv, _ in f.pieces for e in (iv.lo, iv.hi)
                       if e is not None})
        atoms = [Iv(None, ZERO)] + [Iv(a, b) for a, b in zip([ZERO, *cuts], cuts) if a < b]
        mine, theirs = values_at((self, other), [atom.least() for atom in atoms])
        return StepFunction(self.top, zip(atoms, map(operator.add, mine, theirs)))

    __radd__ = __add__

    def __rmul__(self, c):
        return StepFunction(self.top, ((iv, c * v) for iv, v in self.pieces))

    __mul__ = __rmul__

    def __neg__(self):
        return (-1) * self

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.top == other.top and self.pieces == other.pieces

    def to_json(self) -> list[dict]:
        return [{"interval": str(iv), "value": float(v)} for iv, v in self.pieces]

    def __repr__(self):
        body = ", ".join(f"{iv}={v}" for iv, v in self.pieces)
        return f"StepFunction[0,{self.top}]({body})"


def values_at(funcs: Sequence[StepFunction], points: Sequence) -> list[list[float]]:
    """Every function's values at the points, one row per function.

    The points are sorted once, and each function's sorted pieces are
    walked beside them in one merge: about ``pieces + 2 * points``
    comparisons a row, where a lookup per point bisects the pieces.
    """
    pts = [as_ordinal(pt) for pt in points]
    order = sorted(range(len(pts)), key=pts.__getitem__)
    rows = []
    for f in funcs:
        if pts and pts[order[-1]] > f.top:
            raise ValueError(f"{pts[order[-1]]} is outside [0, {f.top}]")
        row, pieces, k = [0] * len(pts), f.pieces, 0
        for j in order:
            while k < len(pieces) and pieces[k][0].hi < pts[j]:
                k += 1
            if k == len(pieces):
                break
            iv, v = pieces[k]
            if iv.lo is None or iv.lo < pts[j]:
                row[j] = v
        rows.append(row)
    return rows


def indicator(top, iv: Iv) -> StepFunction:
    return StepFunction(top, ((iv, 1.0),))


def disjoint(fs: Sequence[StepFunction]) -> bool:
    """True iff the supports are pairwise disjoint."""
    sups = [f.support() for f in fs]
    for i in range(len(sups)):
        for j in range(i + 1, len(sups)):
            if meet(sups[i], sups[j]):
                return False
    return True


def _candidate_points(fs: Sequence[StepFunction]) -> list[Ordinal]:
    pts = {ZERO}
    for f in fs:
        for iv, _ in f.pieces:
            pts.add(iv.least())
            pts.add(iv.hi)
    return sorted(pts)


def weak_1_norm_exact(fs: Sequence[StepFunction]) -> Fraction:
    """Exact weakly 1-summing norm (values must be dyadic floats).

    Extreme functionals of the dual ball are signed point evaluations,
    so the norm is the max over points of the coordinate-wise l_1 sum.
    """
    columns = zip(*values_at(fs, _candidate_points(fs)))
    return max((sum(abs(Fraction(v)) for v in col) for col in columns), default=Fraction(0))


# -- atomic measures ---------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
    """A finitely supported measure with exact rational weights."""

    atoms: tuple[tuple[object, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((pt, w if isinstance(w, Fraction) else Fraction(w))
                      for pt, w in self.atoms if w != 0)
        if len({pt for pt, _ in atoms}) != len(atoms):
            raise ValueError("atom points must be distinct")
        object.__setattr__(self, "atoms", atoms)

    def pair(self, f: StepFunction) -> Fraction:
        """Exact pairing; function values must be dyadic floats."""
        (row,) = values_at([f], [pt for pt, _ in self.atoms])
        return sum((w * Fraction(v) for (_, w), v in zip(self.atoms, row)), Fraction(0))


# -- Cantor schemes and Rademacher measures -----------------------------

Sign = tuple[int, ...]


@dataclass(frozen=True)
class CantorScheme:
    """Nested disjoint cells indexed by sign sequences of length <= depth.

    For every ``d`` shorter than the depth, the two children partition
    into the parent: ``A_{d^(-1)}`` and ``A_{d^(1)}`` are disjoint,
    non-empty, and contained in ``A_d``.  Each cell is normalized here,
    so the scheme's cells are normalized unions; a cell that is one
    already, as ``trees.scheme_of`` builds them, is taken as it is
    (:func:`normalize_union`).
    """

    depth: int
    cells: Mapping[Sign, tuple[Iv, ...]]

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"scheme depth must be non-negative, got {self.depth}")
        cells = {d: normalize_union(cell) for d, cell in self.cells.items()}
        for k in range(self.depth + 1):
            for d in product((-1, 1), repeat=k):
                if d not in cells:
                    raise ValueError(f"missing cell {d}")
                if not cells[d]:
                    raise ValueError(f"cell {d} is empty")
        for k in range(self.depth):
            for d in product((-1, 1), repeat=k):
                parent, minus, plus = cells[d], cells[d + (-1,)], cells[d + (1,)]
                if meet(parent, minus) != minus or meet(parent, plus) != plus:
                    raise ValueError(f"children of {d} not nested")
                if meet(minus, plus):
                    raise ValueError(f"children of {d} overlap")
        for d in cells:
            if not (isinstance(d, tuple) and len(d) <= self.depth and set(d) <= {-1, 1}):
                raise ValueError(f"cell key {d!r} is not a sign sequence of length <= {self.depth}")
        object.__setattr__(self, "cells", cells)

    def leaves(self) -> list[Sign]:
        return [d for d in product((-1, 1), repeat=self.depth)]

    def to_json(self) -> dict:
        out = {}
        for d, cell in sorted(self.cells.items(), key=lambda kv: (len(kv[0]), kv[0])):
            key = "".join("+" if e == 1 else "-" for e in d) or "()"
            out[key] = [str(iv) for iv in cell]
        return out


def default_selector(scheme: CantorScheme) -> dict[Sign, Ordinal]:
    """Pick the least point of every leaf cell."""
    return {d: scheme.cells[d][0].least() for d in scheme.leaves()}


def rademacher(
    scheme: CantorScheme, selector: Mapping[Sign, object]
) -> tuple[AtomicMeasure, ...]:
    """The Rademacher measures of a scheme under a selector.

    ``mu_i`` places weight ``eps_i / 2^depth`` at the selected point of
    each leaf cell ``(eps_1, ..., eps_m)``.
    """
    leaves = scheme.leaves()
    for d in leaves:
        pt = selector[d]
        if not any(iv.contains(pt) for iv in scheme.cells[d]):
            raise ValueError(f"selector point {pt} is outside its cell {d}")
    weight = {eps: Fraction(eps, 2**scheme.depth) for eps in (-1, 1)}  # shared by all atoms
    return tuple(AtomicMeasure(tuple((selector[d], weight[d[i]]) for d in leaves))
                 for i in range(scheme.depth))


def weak2_norm_squared_exact(measures: Sequence[AtomicMeasure]) -> Fraction:
    """Exact square of the weakly 2-summing norm of atomic measures.

    The predual ball's extreme points restricted to the finitely many
    atoms are sign vectors, so the supremum is an exhaustive max over
    sign assignments of the atom points.  Exponential in the number of
    atoms; intended for small schemes.  The weights are put over one
    common denominator as ints, and the sign vectors are walked in
    Gray-code order: each step flips one sign, which moves every row sum
    by twice that atom's weight.
    """
    points = sorted({pt for mu in measures for pt, _ in mu.atoms}, key=str)
    den = math.lcm(*(w.denominator for mu in measures for _, w in mu.atoms))
    columns = [[0] * len(measures) for _ in points]
    at = {pt: j for j, pt in enumerate(points)}
    for i, mu in enumerate(measures):
        for pt, w in mu.atoms:
            columns[at[pt]][i] = w.numerator * (den // w.denominator)
    sums = [-sum(col[i] for col in columns) for i in range(len(measures))]  # all signs -1
    signs = [-1] * len(points)
    best = sum(v * v for v in sums)
    for step in range(1, 1 << len(points)):
        j = (step & -step).bit_length() - 1
        signs[j] = -signs[j]
        shift = 2 * signs[j]
        sums = [v + shift * w for v, w in zip(sums, columns[j])]
        best = max(best, sum(v * v for v in sums))
    return Fraction(best, den * den)


def compatible(funcs: Sequence[StepFunction], scheme: CantorScheme) -> bool:
    """Whether ``funcs[i-1]`` is identically ``eps`` on every cell ``d^(eps)``
    with ``|d| = i-1``; checked exactly on the interval representations."""
    if len(funcs) != scheme.depth:
        raise ValueError("need one function per scheme level")
    preimages = [{eps: f.preimage(float(eps)) for eps in (-1, 1)} for f in funcs]
    return all(
        meet(preimages[len(d) - 1][d[-1]], cell) == cell
        for d, cell in scheme.cells.items() if d
    )
