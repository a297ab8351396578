"""Well-founded trees of step functions, with Cantor schemes and ranks.

For an ordinal ``gamma >= 1`` there is a tree of rank ``w * gamma`` on
``[0, w^gamma)`` carrying one norm-one step function per node, arranged
so that along every maximal branch the functions are compatible with a
Cantor scheme of nested ordinal intervals.  The construction is:

* ``gamma = 1``: disjoint chains, one per root index n; the function at
  depth k alternates +1/-1 on 2^k dyadic blocks of ``(0, 2^n]``.
* successor: a chain of length n whose bottom continues into a full
  copy of the previous tree; chain functions alternate on
  ``w^(gamma-1)``-scaled blocks, copied functions tile 2^n translates.
* limit (only ``gamma = w`` at this scale): the disjoint union of all
  earlier successor trees, with labels shifted to keep them
  incomparable and functions extended by zero.

Trees are exposed through intensional handles (root and child
enumerators with a materialization bound), since the trees themselves
are infinite.  ``residual_rank`` gives the exact ordinal rank of a node
from the construction's bookkeeping; ``rank_finite`` computes ranks of
materialized finite trees by literal derived-tree iteration, which the
test suite uses as the oracle for the closed forms.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .ordinal import OMEGA, ONE, Ordinal, as_ordinal, omega_pow
from .schreier import Base, Conv, as_finite_set, member, node_rank_exact, split_blocks
from .space import CantorScheme, IndexedUnion, Iv, StepFunction

__all__ = [
    "TreeHandle",
    "build_tree",
    "rank_finite",
    "cantor_scheme",
    "scheme_of",
    "block_map_path",
    "BoundsError",
]

Node = tuple[Ordinal, ...]


class BoundsError(ValueError):
    """A search ran past the handle's materialization bounds."""


def build_tree(gamma, max_root: int = 6) -> "TreeHandle":
    """Handle for the rank ``w*gamma`` tree; ``gamma`` finite or ``w``."""
    return TreeHandle(gamma, max_root)


class TreeHandle:
    """Bounded view of the infinite tree for a fixed ``gamma``.

    ``max_root`` caps every infinite enumeration: root indices, and the
    root indices of embedded copies.  All queries are pure and the
    handle is immutable after construction.
    """

    def __init__(self, gamma, max_root: int = 6):
        gamma = as_ordinal(gamma)
        if gamma < ONE:
            raise ValueError("gamma must be at least 1")
        if not (gamma.is_finite() or gamma == OMEGA):
            raise NotImplementedError("only finite gamma and gamma = w are supported")
        if max_root < 1:
            raise ValueError("max_root must be positive")
        self.gamma = gamma
        self.max_root = max_root
        self.domain_top = omega_pow(gamma)
        if gamma.is_finite():
            # gamma = 1 is the chain alone, with nothing below its bottom
            self._kind = "chain"
            g0 = gamma.predecessor()
            self._chain_base = OMEGA.mul_nat(g0.to_int())
            self._scale = omega_pow(g0)
            self._inner = None if g0.is_zero() else TreeHandle(g0, max_root)
        else:
            self._kind = "limit"
            self._subs = {
                z: TreeHandle(Ordinal.from_int(z + 1), max_root)
                for z in range(max_root)
            }
            self._shifts = {z: omega_pow(z) for z in range(max_root)}

    # -- structure ------------------------------------------------------

    def roots(self) -> list[Node]:
        if self._kind == "chain":
            return [
                (self._chain_base + Ordinal.from_int(n - 1),)
                for n in range(1, self.max_root + 1)
            ]
        out = []
        for z in range(self.max_root):
            shift = self._shifts[z]
            for r in self._subs[z].roots():
                out.append(tuple(shift + lbl for lbl in r))
        return out

    def _parse(self, t: Node):
        """This handle's own reading of t; raises ValueError off the tree.

        A chain node reads as its root index n and the suffix below the
        chain (None inside the chain); a limit node as its summand z and
        its labels shifted back into that summand.  Only the labels this
        handle places are checked: the suffix or the shifted node is
        checked by the handle it belongs to, when a query recurses there.
        """
        if self._kind == "chain":
            if t and t[0] >= self._chain_base:
                j = t[0].left_subtract(self._chain_base)
                if j.is_finite():
                    n = j.to_int() + 1
                    chain_len = min(len(t), n)
                    expected = tuple(
                        self._chain_base + Ordinal.from_int(n - i)
                        for i in range(1, chain_len + 1)
                    )
                    if t[:chain_len] == expected and (len(t) <= n or self._inner is not None):
                        return n, t[n:] or None
        elif t and not t[0].is_zero():
            e = t[0].leading_exponent()
            if e.is_finite() and e.to_int() < self.max_root:
                z = e.to_int()
                shift = self._shifts[z]
                if all(lbl >= shift for lbl in t):
                    return z, tuple(lbl.left_subtract(shift) for lbl in t)
        raise ValueError(f"node {t} is not in the tree")

    def contains(self, t: Node) -> bool:
        try:
            key, s = self._parse(t)
        except ValueError:
            return False
        if self._kind == "chain":
            return s is None or self._inner.contains(s)
        return self._subs[key].contains(s)

    def children(self, t: Node) -> list[Node]:
        if self._kind == "chain":
            n, s = self._parse(t)
            if s is None and len(t) < n:
                return [t + (self._chain_base + Ordinal.from_int(n - len(t) - 1),)]
            if s is None:
                return [] if self._inner is None else [t + r for r in self._inner.roots()]
            return [t[:n] + c for c in self._inner.children(s)]
        z, s = self._parse(t)
        shift = self._shifts[z]
        return [
            tuple(shift + lbl for lbl in c) for c in self._subs[z].children(s)
        ]

    def is_max(self, t: Node) -> bool:
        """True maximality in the infinite tree (not bound-relative)."""
        if self._kind == "chain":
            n, s = self._parse(t)
            if s is None:
                return len(t) == n and self._inner is None
            return self._inner.is_max(s)
        z, s = self._parse(t)
        return self._subs[z].is_max(s)

    def subtree_complete(self, t: Node) -> bool:
        """Whether the subtree below t is finite and fully materialized."""
        if self._kind == "chain":
            _, s = self._parse(t)
            if s is None:
                return self._inner is None
            return self._inner.subtree_complete(s)
        z, s = self._parse(t)
        return self._subs[z].subtree_complete(s)

    def residual_rank(self, t: Node) -> Ordinal:
        """Exact rank of the node in the derived trees of the full tree.

        Chain nodes at depth k below a root of index n sit ``n - k``
        steps above a full embedded copy of the previous tree, so their
        rank is ``w*(gamma-1) + (n-k)``; nodes inside an embedded copy
        keep their rank there.
        """
        if self._kind == "chain":
            n, s = self._parse(t)
            if s is None:
                return self._chain_base + Ordinal.from_int(n - len(t))
            return self._inner.residual_rank(s)
        z, s = self._parse(t)
        return self._subs[z].residual_rank(s)

    def node_function(self, t: Node) -> StepFunction:
        """The step function attached to a node; values in {-1, 0, 1}."""
        if self._kind == "chain":
            n, s = self._parse(t)
            if s is None:
                k = len(t)
                width = 2 ** (n - k)
                pieces = [
                    (
                        Iv(
                            self._scale.mul_nat(width * i),
                            self._scale.mul_nat(width * (i + 1)),
                        ),
                        1.0 if i % 2 == 0 else -1.0,
                    )
                    for i in range(2**k)
                ]
                return StepFunction(self.domain_top, pieces)
            g = self._inner.node_function(s)
            pieces = []
            for i in range(2**n):
                delta = self._scale.mul_nat(i)
                for iv, v in g.pieces:
                    pieces.append((Iv(delta + iv.lo, delta + iv.hi), v))
            return StepFunction(self.domain_top, pieces)
        z, s = self._parse(t)
        g = self._subs[z].node_function(s)
        return StepFunction(self.domain_top, g.pieces)

    # -- enumeration ------------------------------------------------------

    def materialize(self) -> set[Node]:
        """All nodes within the materialization bounds."""
        out: set[Node] = set()
        stack = list(self.roots())
        while stack:
            t = stack.pop()
            out.add(t)
            stack.extend(self.children(t))
        return out

    def max_nodes(self) -> list[Node]:
        """Maximal nodes reachable within the bounds, in DFS order."""
        out = []
        stack = list(reversed(self.roots()))
        while stack:
            t = stack.pop()
            if self.is_max(t):
                out.append(t)
            else:
                stack.extend(reversed(self.children(t)))
        return out

    def branch(self, t: Node) -> list[Node]:
        return [t[:i] for i in range(1, len(t) + 1)]

    def __repr__(self):
        return f"TreeHandle(gamma={self.gamma}, max_root={self.max_root})"


# -- finite derived-tree ranks ------------------------------------------


def rank_finite(nodes: Iterable[tuple]) -> int:
    """Rank of a finite tree by iterated removal of maximal nodes."""
    T = {tuple(t) for t in nodes}
    if not T:
        raise ValueError("the empty tree has no rank")
    for t in T:
        if len(t) > 1 and t[:-1] not in T:
            raise ValueError(f"not prefix-closed: missing {t[:-1]}")
    rank = 0
    while T:
        parents = {t[:-1] for t in T if len(t) > 1}
        T &= parents
        rank += 1
    return rank


# -- Cantor schemes along maximal branches --------------------------------


def cantor_scheme(handle: TreeHandle, branch: Node) -> CantorScheme:
    """The Cantor scheme compatible with the functions along a maximal branch."""
    if not handle.is_max(branch):
        raise ValueError(f"{branch} is not a maximal node")
    return scheme_of([handle.node_function(p) for p in handle.branch(branch)])


def scheme_of(funcs: list[StepFunction]) -> CantorScheme:
    """The Cantor scheme compatible with the functions of a maximal branch,
    root first.

    The root cell is the support of the first function; each child cell
    intersects with the next function's preimage of the sign.  The
    nesting, disjointness, and non-emptiness of every cell are validated
    on construction, and compatibility holds by construction.
    """
    cells = {(): funcs[0].support()}
    for depth, f in enumerate(funcs):
        # each parent cell is met only with the preimage pieces inside
        # it, so a level costs about its output, not 2^depth whole unions
        preimages = {eps: IndexedUnion(f.preimage(float(eps))) for eps in (-1, 1)}
        for d in product((-1, 1), repeat=depth):
            for eps in (-1, 1):
                cells[d + (eps,)] = preimages[eps].meet(cells[d])
    return CantorScheme(depth=len(funcs), cells=cells)


# -- the monotone map from convolution sets into trees --------------------


def block_map_path(xi, zeta, handle: TreeHandle, E) -> list[Node]:
    """Node assigned to every initial segment of E, monotonically.

    E must be a non-empty member of S_{1+zeta}[S_xi] and the handle must
    carry the rank ``w^(1+zeta)`` tree, i.e. ``gamma = w^zeta``.  The
    map descends one tree level each time an inner S_xi block completes,
    always keeping the node's residual rank at least the rank of the
    minima sequence inside S_{1+zeta}.  Choices are deterministic:
    smallest admissible root first, then first admissible child in
    enumeration order.
    """
    xi, zeta = as_ordinal(xi), as_ordinal(zeta)
    one_plus = ONE + zeta
    if handle.gamma != omega_pow(zeta):
        raise ValueError(
            f"handle gamma {handle.gamma} does not match the required w^{zeta}"
        )
    E = as_finite_set(E)
    if not E:
        raise ValueError("the empty set has no image")
    fam = Conv(one_plus, xi)
    if not member(fam, E):
        raise ValueError(f"{E} is not a member of the convolution family")
    outer = Base(one_plus)
    # the greedy S_xi split of a prefix E[:j] is the split of E cut at j,
    # so the node changes exactly where a block of E starts
    path: list[Node] = []
    node: Node | None = None
    minima: tuple[int, ...] = ()
    for block in split_blocks(Base(xi), E):
        minima += (block[0],)
        target = node_rank_exact(outer, minima)
        if node is None:
            candidates = handle.roots()
        else:
            candidates = handle.children(node)
        node = next(
            (c for c in candidates if handle.residual_rank(c) >= target), None
        )
        if node is None:
            raise BoundsError(
                "no admissible node within the materialization bounds; "
                "increase max_root"
            )
        path.extend([node] * len(block))
    return path
