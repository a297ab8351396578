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
are infinite.  A handle reads a node once, as a run of chains, and
answers every query from the last chain: ``residual_rank`` gives the
exact ordinal rank of a node from that reading; ``rank_finite``
computes ranks of materialized finite trees by literal derived-tree
iteration, which the test suite uses as the oracle for the closed forms.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .ordinal import OMEGA, ONE, ZERO, Ordinal, as_ordinal, omega_pow
from .schreier import Base, Conv, as_finite_set, member, node_rank_exact, split_blocks
from .space import CantorScheme, Iv, StepFunction, meet

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

# node functions are built piece by piece: a node whose function has more
# pieces than this is refused, not built
MAX_PIECES = 2**16
# and so is a node whose blocks are wider than 2 to this power, before
# the width is computed: every piece end is a multiple of the width
MAX_WIDTH_EXPONENT = 64


class BoundsError(ValueError):
    """A search ran past the handle's materialization bounds."""


def build_tree(gamma, max_root: int = 6) -> "TreeHandle":
    """Handle for the rank ``w*gamma`` tree; ``gamma`` finite or ``w``."""
    return TreeHandle(gamma, max_root)


class TreeHandle:
    """Bounded view of the infinite tree for a fixed ``gamma``.

    A node of the finite-``gamma`` tree is a run of chains ``(i, n, k)``,
    top level ``gamma - 1`` first: the chain at level i holds the first k
    of the labels ``w*i + (n-1), ..., w*i + 0``, every chain but the last
    is complete (``k = n``), and the level-0 chain is the bottom.  A node
    of the ``gamma = w`` tree is a node of the ``z + 1`` tree with every
    label shifted by ``w^z``.  ``max_root`` caps every infinite
    enumeration (root indices, and the chain starts one level down), not
    membership.  All queries are pure and the handle holds nothing but
    ``gamma``, ``max_root`` and ``domain_top``.
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

    def _starts(self, shift: Ordinal, level: int) -> list[Node]:
        """The first labels of the chains at a level, root index 1 up."""
        base = OMEGA.mul_nat(level)
        return [(shift + (base + Ordinal.from_int(n - 1)),)
                for n in range(1, self.max_root + 1)]

    def _chains(self, t) -> tuple[Node, Ordinal, list[tuple[int, int, int]]]:
        """t with its labels as Ordinals, the shift of its summand, and t
        read as its run of chains ``(i, n, k)``; raises ValueError off
        the tree."""
        t = tuple(map(as_ordinal, t))
        # level -1 reads no chain: a node off every summand is refused
        labels, shift, level = t, ZERO, -1
        if self.gamma.is_finite():
            level = self.gamma.to_int() - 1
        elif t and not t[0].is_zero() and t[0].leading_exponent().is_finite():
            z = t[0].leading_exponent().to_int()
            shift = omega_pow(z)
            if all(lbl >= shift for lbl in t):
                labels, level = tuple(lbl.left_subtract(shift) for lbl in t), z
        chains: list[tuple[int, int, int]] = []
        pos = 0
        while pos < len(labels) and level >= 0:
            base = OMEGA.mul_nat(level)
            j = labels[pos].left_subtract(base) if labels[pos] >= base else None
            if j is None or not j.is_finite():
                break
            n = j.to_int() + 1
            k = min(n, len(labels) - pos)
            if labels[pos:pos + k] != tuple(
                base + Ordinal.from_int(n - 1 - d) for d in range(k)
            ):
                break
            chains.append((level, n, k))
            pos, level = pos + k, level - 1
        if not chains or pos < len(labels):
            raise ValueError(f"node {t} is not in the tree")
        return t, shift, chains

    # -- structure ------------------------------------------------------

    def roots(self) -> list[Node]:
        if self.gamma.is_finite():
            return self._starts(ZERO, self.gamma.to_int() - 1)
        return [r for z in range(self.max_root) for r in self._starts(omega_pow(z), z)]

    def contains(self, t: Node) -> bool:
        try:
            self._chains(t)
        except ValueError:
            return False
        return True

    def children(self, t: Node) -> list[Node]:
        """The next label of the last chain; below a complete chain, the
        chain starts one level down (none below level 0)."""
        t, shift, chains = self._chains(t)
        i, n, k = chains[-1]
        if k < n:
            return [t + (shift + (OMEGA.mul_nat(i) + Ordinal.from_int(n - k - 1)),)]
        return [] if i == 0 else [t + r for r in self._starts(shift, i - 1)]

    def is_max(self, t: Node) -> bool:
        """True maximality in the infinite tree (not bound-relative)."""
        i, n, k = self._chains(t)[2][-1]
        return i == 0 and k == n

    def subtree_complete(self, t: Node) -> bool:
        """Whether the subtree below t is finite and fully materialized."""
        return self._chains(t)[2][-1][0] == 0

    def residual_rank(self, t: Node) -> Ordinal:
        """Exact rank of the node in the derived trees of the full tree.

        A node whose last chain, at level i with root index n, holds k
        labels sits ``n - k`` steps above the chain's end, whose rank is
        ``w*i``: the supremum of the ranks ``w*(i-1) + m`` of the chain
        starts one level down, or 0 at level 0.  Its rank is
        ``w*i + (n-k)``.
        """
        i, n, k = self._chains(t)[2][-1]
        return OMEGA.mul_nat(i) + Ordinal.from_int(n - k)

    def node_function(self, t: Node) -> StepFunction:
        """The step function attached to a node; values in {-1, 0, 1}.

        The last chain's function alternates +1/-1 on 2^k blocks of
        ``(0, w^i * 2^n]``; each complete chain above it, at level j with
        root index m, tiles that pattern on 2^m translates by ``w^j``.
        Past ``MAX_PIECES`` pieces, or blocks wider than
        ``2^MAX_WIDTH_EXPONENT``, the node is refused with ValueError,
        before any piece is built.
        """
        chains = self._chains(t)[2]
        i, n, k = chains[-1]
        # a complete chain holds its m labels, so the exponent is at most len(t)
        if 2 ** (k + sum(m for _, m, _ in chains[:-1])) > MAX_PIECES:
            raise ValueError(f"the function of node {t} has more than {MAX_PIECES} pieces")
        if n - k > MAX_WIDTH_EXPONENT:
            raise ValueError(f"the function of node {t} has blocks of width 2^{n - k}, "
                             f"past 2^{MAX_WIDTH_EXPONENT}")
        scale, width = omega_pow(i), 2 ** (n - k)
        pieces = [
            (Iv(scale.mul_nat(width * b), scale.mul_nat(width * (b + 1))),
             1.0 if b % 2 == 0 else -1.0)
            for b in range(2**k)
        ]
        for j, m, _ in reversed(chains[:-1]):
            deltas = [omega_pow(j).mul_nat(b) for b in range(2**m)]
            pieces = [(Iv(d + iv.lo, d + iv.hi), v) for d in deltas for iv, v in pieces]
        return StepFunction(self.domain_top, pieces)

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
        preimages = {eps: f.preimage(float(eps)) for eps in (-1, 1)}
        for d in product((-1, 1), repeat=depth):
            for eps in (-1, 1):
                cells[d + (eps,)] = meet(preimages[eps], cells[d])
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
