"""Schreier families S_xi and their convolutions S_zeta[S_xi].

Membership, maximality, decomposition of integer streams into successive
maximal members, and node ranks in the derived-tree hierarchy.

Finite sets are plain tuples of strictly increasing positive integers.
Infinite sets are represented by caller-supplied iterators of strictly
increasing positive integers.

The recursive definitions are evaluated through a single primitive: the
end of the greedy maximal block of a sequence starting at a given
position.  A set belongs to a family exactly when it is an initial
segment of such a block; because the families are hereditary and
spreading, the greedy split into maximal blocks is canonical.  The test
suite checks this characterization against a brute-force partition
search over small ground sets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, tee
from typing import Iterable, Union

from .ordinal import OMEGA, ONE, Ordinal, as_ordinal, parse_ordinal

__all__ = [
    "Base",
    "Conv",
    "Family",
    "StreamExhausted",
    "BudgetExceeded",
    "member",
    "members",
    "is_maximal",
    "split_blocks",
    "decompose",
    "node_rank_exact",
    "least_shift",
    "parse_family",
    "family_str",
    "as_finite_set",
    "level_step",
]


@dataclass(frozen=True)
class Base:
    """The family S_xi."""

    xi: Ordinal

    def __post_init__(self):
        object.__setattr__(self, "xi", as_ordinal(self.xi))


@dataclass(frozen=True)
class Conv:
    """The convolution S_zeta[S_xi]: unions of successive S_xi sets
    whose minima form an S_zeta set."""

    zeta: Ordinal
    xi: Ordinal

    def __post_init__(self):
        object.__setattr__(self, "zeta", as_ordinal(self.zeta))
        object.__setattr__(self, "xi", as_ordinal(self.xi))


Family = Union[Base, Conv]


class StreamExhausted(Exception):
    """An integer stream ended before the requested block completed."""

    blocks: tuple[tuple[int, ...], ...] = ()  # completed before the cut


class BudgetExceeded(Exception):
    """A materialization budget was hit before the block completed."""

    blocks: tuple[tuple[int, ...], ...] = ()  # completed before the cut


def as_finite_set(values: Iterable[int]) -> tuple[int, ...]:
    """The strictly increasing tuple of positive integers ``values``.

    Elements convert through ``operator.index``, so a float or a string
    raises ``TypeError`` instead of being truncated.
    """
    t = tuple(map(operator.index, values))
    if t and min(t) < 1:
        raise ValueError("elements must be positive integers")
    if not all(map(operator.lt, t, t[1:])):
        raise ValueError("elements must be strictly increasing")
    return t


# -- the greedy block primitive ----------------------------------------


@lru_cache(maxsize=1 << 12)
def _predecessor(level: Ordinal) -> Ordinal | None:
    return level.predecessor() if level.classify() == "successor" else None


@lru_cache(maxsize=1 << 16)
def _diagonal(level: Ordinal, m: int) -> Ordinal:
    return level.fundamental(m) + ONE


def level_step(level: Ordinal, m: int) -> tuple[Ordinal, int]:
    """One step down the recursion of a non-zero level from a block minimum m.

    A block of S_(a+1) with minimum m is m successive S_a blocks; a block
    of S_lambda at a limit is one S_(lambda[m]+1) block.  Returns the
    next level and that block count.  Both transitions are cached, so a
    walk that revisits a level builds no new ordinal.
    """
    prev = _predecessor(level)
    if prev is not None:
        return prev, m
    return _diagonal(level, m), 1


def _base_block_end(xi: Ordinal, source, start: int, inner: Ordinal | None = None) -> int:
    """Index just past the maximal S_xi block of the source from ``start``,
    or the maximal S_xi[S_inner] block when ``inner`` is given.

    Runs an explicit work stack of (level, blocks-remaining) frames, so
    high finite levels (which a set with a large minimum reaches through
    the limit diagonalization) do not recurse.  A level-0 frame of r
    blocks is r singletons, taken in one step by reading the run's last
    element; under ``inner`` it is r successive S_inner blocks, each
    walked in turn, and the levels above read an inner block's minimum
    where it starts.  A finite source that ends mid-walk yields its first
    missing index: the block is cut short there.
    """
    pos = start
    stack = [[xi, 1]]
    while stack:
        frame = stack[-1]
        if frame[1] == 0:
            stack.pop()
            continue
        level = frame[0]
        if level.is_zero():
            stack.pop()
            if inner is not None:
                for _ in range(frame[1]):
                    end = _base_block_end(inner, source, pos)
                    if end == pos:
                        return pos  # the source ends between inner blocks
                    pos = end
                continue
            try:
                source[pos + frame[1] - 1]
            except IndexError:
                return len(source)  # the source ends inside the run
            pos += frame[1]
            continue
        try:
            m = source[pos]
        except IndexError:
            return pos
        frame[1] -= 1
        stack.append(list(level_step(level, m)))
    return pos


def _take_block(fam: Family, source, start: int) -> int:
    """Index just past the maximal fam-block starting at ``start``.

    The walker reads its source only by index.  A finite source (a
    tuple) signals its end by raising IndexError, and ``len(source)`` is
    then the first missing index: the block is cut short there.  A live
    stream (:class:`_Buffered`) raises on exhaustion instead, so the
    block returned is a complete maximal member.  Pulls exactly the
    elements it needs.

    A convolution block is walked as an S_zeta block whose level-0 runs
    are runs of S_xi blocks.  ``S_0`` is the family of singletons, so an
    ``S_zeta[S_0]`` block is an ``S_zeta`` block and is walked as one.
    """
    if isinstance(fam, Base):
        return _base_block_end(fam.xi, source, start)
    if fam.xi.is_zero():
        return _base_block_end(fam.zeta, source, start)
    return _base_block_end(fam.zeta, source, start, fam.xi)


def member(fam: Family, E: Iterable[int]) -> bool:
    """Exact membership of a finite set in the family."""
    E = as_finite_set(E)
    return _member(fam, E)


@lru_cache(maxsize=1 << 18)
def _member(fam: Family, E: tuple[int, ...]) -> bool:
    if not E:
        return True
    return _take_block(fam, E, 0) == len(E)


def members(fam: Family, ground: Iterable[int]) -> set[tuple[int, ...]]:
    """Every member of the family inside a finite ground set, ``()`` too.

    The walker reads its source by index, so its walk of a prefix of E
    stops at the prefix's end unless the walk of E stops earlier: every
    prefix of a member is a member.  The members therefore form a tree
    from ``()``, walked here by trying ``E + (g,)`` only for members E.
    """
    ground = as_finite_set(ground)
    found = {()}
    stack = [((), 0)]
    while stack:
        E, i = stack.pop()
        for j in range(i, len(ground)):
            F = E + (ground[j],)
            if _member(fam, F):
                found.add(F)
                stack.append((F, j + 1))
    return found


def is_maximal(fam: Family, E: Iterable[int]) -> bool:
    """True iff E is a maximal member (no extension stays in the family).

    By the spreading property it is enough to test the single extension
    by ``max E + 1``.
    """
    E = as_finite_set(E)
    if not E:
        raise ValueError("the empty set is never maximal")
    if not _member(fam, E):
        raise ValueError(f"{E} is not a member of {family_str(fam)}")
    return not _member(fam, E + (E[-1] + 1,))


def split_blocks(fam: Family, E: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Greedy decomposition of an arbitrary non-empty finite set.

    Returns successive blocks, each a member of ``fam``, where every
    block except possibly the last is maximal in ``fam``.
    """
    return _split(fam, as_finite_set(E))


def _split(fam: Family, E: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """:func:`split_blocks` of a set that :func:`as_finite_set` has
    already checked: the descents split slices of such sets.

    ``S_0`` is the family of singletons, so a split by ``Base(0)`` takes
    the elements one by one, with no block walk."""
    if not E:
        raise ValueError("cannot split the empty set")
    if isinstance(fam, Base) and fam.xi.is_zero():
        return tuple(zip(E))
    blocks = []
    i = 0
    while i < len(E):
        j = _take_block(fam, E, i)
        blocks.append(E[i:j])
        i = j
    return tuple(blocks)


# -- streams ----------------------------------------------------------


class _Buffered:
    """Strictly increasing integer stream with indexed lookahead.

    A lookup past the buffer pulls the missing elements in one read, and
    never more than the lookup or the budget needs.  Elements convert
    through ``operator.index``, as in ``as_finite_set``, so a float or a
    string raises ``TypeError`` instead of being truncated.
    """

    def __init__(self, source: Iterable[int], max_elements: int | None = None):
        self._it = iter(source)
        self._buf: list[int] = []
        self._budget = max_elements

    def __getitem__(self, i: int) -> int:
        buf = self._buf
        if i < len(buf):
            return buf[i]
        want = i + 1 - len(buf)
        if self._budget is not None:
            want = max(0, min(want, self._budget - len(buf)))
        # pull lazily: the pairwise check stops at the first element that
        # is not an integer or does not increase, as a one-at-a-time read
        new, ahead, kept = tee(map(operator.index, islice(self._it, want)), 3)
        got = len(buf)
        try:
            if not all(map(operator.lt, chain(buf[-1:] or (0,), new), ahead)):
                raise ValueError("stream must be strictly increasing and positive")
            buf.extend(kept)
        except IndexError as err:
            # the block walk reads IndexError as the end of a finite set
            raise RuntimeError("stream raised IndexError") from err
        if len(buf) - got < want:
            raise StreamExhausted(f"stream ended after {len(buf)} elements")
        if i >= len(buf):
            raise BudgetExceeded(f"block needs more than {self._budget} stream elements")
        return buf[i]

    def slice(self, start: int, end: int) -> tuple[int, ...]:
        self[end - 1]
        return tuple(self._buf[start:end])


def decompose(
    fam: Family,
    stream: Iterable[int],
    k: int,
    *,
    max_elements: int | None = None,
) -> tuple[tuple[int, ...], ...]:
    """First k blocks of the fam-decomposition of an infinite set.

    The blocks are the successive maximal members of ``fam`` whose union
    is an initial segment of the stream.  Raises
    :class:`StreamExhausted` if the stream ends first, and
    :class:`BudgetExceeded` if ``max_elements`` is hit; either way the
    exception's ``blocks`` holds the blocks completed before it.  A
    ``k`` or ``max_elements`` below 1 raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if max_elements is not None and max_elements < 1:
        raise ValueError(f"block budget max_elements must be at least 1, got {max_elements}")
    bs = _Buffered(stream, max_elements)
    blocks = []
    pos = 0
    try:
        for _ in range(k):
            end = _take_block(fam, bs, pos)
            blocks.append(bs.slice(pos, end))
            pos = end
    except (StreamExhausted, BudgetExceeded) as e:
        e.blocks = tuple(blocks)
        raise
    return tuple(blocks)


# -- node ranks in the derived-tree hierarchy --------------------------


def node_rank_exact(fam: Family, E: Iterable[int]) -> Ordinal:
    """Exact ordinal rank of E in the (untruncated) family tree.

    Closed forms are available for S_1 and S_2; these are the families
    the tree machinery needs.  For S_1 the rank is ``min E - |E|``.  For
    S_2 with greedy S_1-blocks ``B_1 < ... < B_j`` the rank is
    ``w*(min E - j) + (min B_j - |B_j|)``: each unopened inner block
    contributes a factor of w, the unfinished block its remaining slots.
    The closed forms are validated in the test suite against derived-tree
    iteration on truncated family trees.
    """
    E = as_finite_set(E)
    if not E:
        raise ValueError("rank of the empty node is not defined")
    if not _member(fam, E):
        raise ValueError(f"{E} is not a member of {family_str(fam)}")
    if isinstance(fam, Base) and fam.xi == ONE:
        return Ordinal.from_int(E[0] - len(E))
    if isinstance(fam, Base) and fam.xi == Ordinal.from_int(2):
        blocks = _split(Base(ONE), E)
        open_blocks = E[0] - len(blocks)
        slots = blocks[-1][0] - len(blocks[-1])
        return OMEGA.mul_nat(open_blocks) + Ordinal.from_int(slots)
    raise NotImplementedError(
        f"no exact rank for {family_str(fam)}: closed forms exist for S[1] and S[2]"
    )


def least_shift(xi, zeta, bound: int = 10) -> int:
    """Least k such that every S_xi set within [k, bound] is in S_zeta.

    Empirical search on the finite ground set [1, bound]: a set of S_xi
    outside S_zeta rules out every k up to its minimum.  Singletons lie
    in every family, so k = bound always qualifies.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    ground = range(1, bound + 1)
    escapes = members(Base(as_ordinal(xi)), ground) - members(Base(as_ordinal(zeta)), ground)
    return max((E[0] for E in escapes), default=0) + 1


# -- descriptor text syntax -------------------------------------------


def family_str(fam: Family) -> str:
    if isinstance(fam, Base):
        return f"S[{fam.xi}]"
    return f"S[{fam.zeta}][S[{fam.xi}]]"


def parse_family(text: str) -> Family:
    """Parse ``S[<ordinal>]`` or ``S[<ordinal>][S[<ordinal>]]``."""
    s = text.strip()
    if not s.startswith("S["):
        raise ValueError(f"not a family descriptor: {text!r}")
    close = s.index("]", 2)
    first = parse_ordinal(s[2:close])
    rest = s[close + 1 :]
    if not rest:
        return Base(first)
    if not (rest.startswith("[S[") and rest.endswith("]]")):
        raise ValueError(f"not a family descriptor: {text!r}")
    inner = parse_ordinal(rest[3:-2])
    return Conv(first, inner)
