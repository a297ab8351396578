"""Projective and injective tensor norms on finite sup-norm models.

A matrix U is read as an element of ``l_inf(K) (x) l_inf(L)`` with K, L
finite.  Over these models:

* the injective norm is the largest entry in absolute value (the dual
  balls are l_1 with signed coordinate extreme points);
* the projective norm is the supremum of ``<B, U>`` over bilinear forms
  B of norm at most one, and that ball is exactly the polytope cut out
  by the sign constraints ``|eps^T B delta| <= 1``.  Both the supremum
  (certificate form) and the infimum over decompositions into sign
  dyads (synthesis form) are linear programs, solved here with HiGHS;
  the two give independent routes to the same value.  Every LP is
  written on two-sided rows ``lo <= A x <= hi`` and goes through one
  call site, :func:`linprog`, scipy's ``milp`` with no integer variable.

Weakly p-summing norms of vector and matrix families are provided with
the budgets they admit: exact sign enumeration for the weak-1 norm, and
seeded sampling plus local ascent for weak-2 lower bounds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag
from scipy.optimize import Bounds, LinearConstraint, milp

__all__ = [
    "DualCertificate",
    "BudgetError",
    "eps_norm",
    "pi_norm",
    "pi_norm_decomposition",
    "pair_dual",
    "weak_p_norm_vec",
    "weak_1_norm_pi",
    "weak_2_norm_pi_lower",
    "canonical_model",
    "normal_form",
    "Block",
]

MAX_LP_SIDE = 10  # enumeration side: 2^(side-1) sign vectors
MAX_LP_ENTRIES = 1 << 14
MAX_EPIGRAPH_VARS = 1 << 12  # prefer the one-shot l1-epigraph LP below this
MAX_CONSTRAINTS = 1 << 18
MAX_SIGN_FAMILY = 8
RANK_ONE_TOL = 1e-12
"""A block within this share of its largest entry of rank one is that
entry, with no LP (:func:`_rank_one`).  It is 1000 times finer than the
1e-9 agreement that the LP route, the tests and the benchmark hold the
projective norm to, so the shortcut's error never shows against them."""


class BudgetError(ValueError):
    """The instance exceeds the configured enumeration budget."""


def _as_array(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("expected a non-empty 2-d matrix")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr


@dataclass(frozen=True)
class DualCertificate:
    """A bilinear form B with its verified sign-enumeration norm bound.

    For any matrix U of matching shape, ``<B, U> / bound`` is a valid
    lower bound for the projective norm of U.
    """

    matrix: np.ndarray
    bound: float

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


@lru_cache(maxsize=None)
def _signs(k: int, fix_first: bool = False) -> np.ndarray:
    rows = []
    first = (1,) if fix_first else (-1, 1)
    for head in first:
        for tail in product((-1, 1), repeat=k - 1):
            rows.append((head,) + tail)
    arr = np.array(rows, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_lp_budget(m: int, n: int):
    """The one LP budget: the smaller side is enumerated, 2^(side-1)
    sign vectors, and the model has at most ``MAX_LP_ENTRIES`` entries."""
    if min(m, n) > MAX_LP_SIDE:
        raise BudgetError(
            f"matrix min side {min(m, n)} exceeds the LP budget {MAX_LP_SIDE}"
        )
    if m * n > MAX_LP_ENTRIES:
        raise BudgetError(f"{m}x{n} exceeds the LP size budget {MAX_LP_ENTRIES}")


def eps_norm(u) -> float:
    """Injective norm: the largest entry in absolute value."""
    return float(np.abs(_as_array(u)).max())


def sign_norm(B) -> float:
    """Bilinear-form norm of B over the sup-norm unit balls.

    Equals ``max_eps ||eps^T B||_1``: for a fixed row sign vector the
    optimal column signs align with the resulting row, so only the
    smaller side needs enumeration.  Exact by convexity.
    """
    B = _as_array(B)
    _check_lp_budget(*B.shape)
    if B.shape[0] > B.shape[1]:
        B = B.T
    return float(np.abs(_signs(len(B), fix_first=True) @ B).sum(axis=1).max())


class Block(NamedTuple):
    """One connected component of a normal form.

    ``matrix`` is ``U[rows][:, cols]`` with row ``i`` multiplied by
    ``row_signs[i]`` and column ``j`` by ``col_signs[j]``, then
    transposed when ``transposed`` is set."""

    matrix: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    row_signs: np.ndarray
    col_signs: np.ndarray
    transposed: bool


def _distinct_lines(V: np.ndarray, A: np.ndarray):
    """Indices of the rows of V (no zero row; A is ``|V|``) that are not
    a signed copy of an earlier row, or None when no row is: each row is
    keyed with its first nonzero made positive."""
    norms = A.sum(axis=1).tolist()
    if len(set(norms)) == len(norms):  # signed copies have equal l1 norms
        return None
    lead = V[np.arange(len(V)), (A > 0).argmax(axis=1)]
    keyed = V * np.sign(lead)[:, None] + 0.0
    seen: set = set()
    keep = []
    for i, row in enumerate(keyed):
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return None if len(keep) == len(norms) else np.array(keep, dtype=np.intp)


def _components(S: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column index sets of the connected components of the
    bipartite support graph S (no zero line): every line takes the
    least row index it reaches, one step out per round."""
    m = len(S)
    label = np.arange(m)
    while True:
        col = np.where(S, label[:, None], m).min(axis=0)
        reached = np.where(S, col, m).min(axis=1)
        if np.array_equal(reached, label):
            break
        label = reached
    return [
        (np.flatnonzero(label == k), np.flatnonzero(col == k))
        for k in sorted(set(label.tolist()))
    ]


def _refine(adj_r: list, adj_c: list, r: list, c: list, twins=False) -> tuple[list, list]:
    """Colour refinement of a weighted bipartite graph from the row
    classes ``r`` and column classes ``c``.

    ``adj_r[i]`` lists the edges of row i as (weight, column) pairs, and
    ``adj_c`` those of the columns.  Each round, a row's new class is its
    old class with the sorted pairs (weight, column class) along it,
    ranked among the rows, and then the same for the columns, until no
    class splits.  With ``twins``, vertices ``2i`` and ``2i + 1`` of a
    side are twins, and a vertex's class also holds its twin's.  The
    classes see only the graph, so relabelling its vertices relabels
    them the same way."""
    count = (max(r) + 1, max(c) + 1)
    while True:
        r = _split(adj_r, r, c, twins)
        c = _split(adj_c, c, r, twins)
        done = (max(r) + 1, max(c) + 1)
        if done == count or done == (len(r), len(c)):
            return r, c
        count = done


def _split(adj: list, own: list, other: list, twins: bool) -> list:
    """One refinement of the classes ``own`` of vertices with edges
    ``adj``, given the classes ``other`` of the vertices across them."""
    return _rank(
        [
            (k, own[u ^ 1] if twins else 0, tuple(sorted((a, other[w]) for a, w in edges)))
            for u, (k, edges) in enumerate(zip(own, adj))
        ]
    )


def _rank(keys: list) -> list:
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _line_order(W: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order of the rows and of the columns of W (A is ``|W|``) that
    depends on its entries alone, up to a signed permutation of W onto
    itself.

    Colour refinement of ``|W|`` gives it when it tells every line
    apart.  Otherwise a search refines the signed lines: line i as the
    two vertices ``+i`` and ``-i``, with ``+i`` joined to ``+j`` where
    ``W_ij > 0`` and to ``-j`` where ``W_ij < 0``, and ``+i`` twinned
    with ``-i``, so that a signed permutation of W relabels this graph.
    The search singles out each vertex of the first class with more
    than one member in turn, refines again, and goes on until every
    vertex has a class of its own.  A leaf labels the graph by its
    classes, and the search takes the leaf whose labelled graph
    (:func:`_leaf_key`) is the smallest in bytes; it orders the lines by
    the first class of ``+i`` and ``-i``.

    Two leaves with the same labelled graph give a map of the vertices
    onto themselves that keeps the graph, and it prunes the search as in
    nauty.  A vertex that the maps fixing every vertex singled out so far
    take to one already tried is skipped (changing every sign is such a
    map from the start).  The map also takes the path to the new leaf
    onto the path to the old one, since a leaf's classes give back the
    vertices singled out on its way; so the rest of the branch where the
    two paths part is the image of a branch already searched, and is
    left."""
    m, n = W.shape
    rows, cols = A.tolist(), A.T.tolist()
    r, c = _refine(
        [list(zip(row, range(n))) for row in rows],
        [list(zip(col, range(m))) for col in cols],
        [0] * m,
        [0] * n,
    )
    if max(r) + 1 == m and max(c) + 1 == n:
        return np.argsort(r), np.argsort(c)
    neg = (W < 0).tolist()
    adj_r = [
        [(a, 2 * j + (s ^ neg[i][j])) for j, a in enumerate(rows[i]) if a]
        for i in range(m)
        for s in (0, 1)
    ]
    adj_c = [
        [(a, 2 * i + (t ^ neg[i][j])) for i, a in enumerate(cols[j]) if a]
        for j in range(n)
        for t in (0, 1)
    ]
    maps = [([v ^ 1 for v in range(2 * m)], [v ^ 1 for v in range(2 * n)])]
    kept = []  # (key, path, vertex at each class) of the first and the least leaf

    def leaf(r, c, path):
        at = (np.argsort(r), np.argsort(c))
        key = _leaf_key(W, *at)
        for old_key, old_path, old_at in kept:
            if old_key == key:
                maps.append(tuple(old_at[side][k].tolist() for side, k in enumerate((r, c))))
                return next(i for i, (a, b) in enumerate(zip(path, old_path)) if a != b)
        if not kept:
            kept[:] = [(key, path, at)] * 2
        elif key < kept[1][0]:
            kept[1] = (key, path, at)
        return None

    def search(r, c, path):
        r, c = _refine(adj_r, adj_c, r, c, twins=True)
        for side, k in enumerate((r, c)):
            tied = [x for x, size in Counter(k).items() if size > 1]
            if not tied:
                continue
            cell = min(tied)
            tried = []
            for v, x in enumerate(k):
                if x != cell or _orbit_meets(v, tried, side, path, maps):
                    continue
                tried.append(v)
                alone = _rank([(x, u != v) for u, x in enumerate(k)])
                back = search(*((alone, c) if side == 0 else (r, alone)), path + [(side, v)])
                if back is not None and back < len(path):
                    return back
            return None
        return leaf(r, c, path)

    search([x for x in r for _ in (0, 1)], [x for x in c for _ in (0, 1)], [])
    at = kept[1][2]
    return tuple(np.unique(a // 2, return_index=True)[1].argsort() for a in at)


def _leaf_key(W: np.ndarray, row_at: np.ndarray, col_at: np.ndarray) -> bytes:
    """The signed graph of W labelled by a leaf's classes, as bytes: entry
    (x, y) is ``W_ij`` for the vertices ``+-i`` of class x and ``+-j`` of
    class y, times their signs."""
    rs, cs = 1.0 - 2.0 * (row_at % 2), 1.0 - 2.0 * (col_at % 2)
    return (W[row_at // 2][:, col_at // 2] * rs[:, None] * cs + 0.0).tobytes()


def _orbit_meets(v: int, targets: list, side: int, fixed: list, maps: list) -> bool:
    """Whether the maps in ``maps`` that fix every vertex in ``fixed`` take
    vertex v of ``side`` (0 rows, 1 columns) to one in ``targets``."""
    if not targets:
        return False
    usable = [g[side] for g in maps if all(g[s][u] == u for s, u in fixed)]
    orbit, todo = {v}, [v]
    while todo:
        u = todo.pop()
        for g in usable:
            if g[u] not in orbit:
                orbit.add(g[u])
                todo.append(g[u])
    return not orbit.isdisjoint(targets)


def _normalize(W: np.ndarray, A: np.ndarray):
    """Signs and order for a connected block W (A is ``|W|``) with no
    zero line.

    The lines are first put in the order of :func:`_line_order`.  The
    row holding the largest entry is the root, ties going to the first
    in that order; every other line takes the sign that makes its
    largest entry towards an already signed line positive, level by
    level out from the root, ties again going to the first.  Rows, then
    columns, are then sorted by their sorted entries.  All of it sees
    only the entries, so a signed permutation of W gives the same
    matrix."""
    m, n = W.shape
    if m == 1 or n == 1:  # a line: make it positive and sort it
        S = np.sign(W)
        order = np.argsort(A.reshape(-1), kind="stable")
        if m == 1:
            return A[:, order], np.zeros(1, np.intp), order, np.ones(1), S[0, order]
        return A[order], order, np.zeros(1, np.intp), S[order, 0], np.ones(1)
    p, q = _line_order(W, A)
    W, A = W[p][:, q], A[p][:, q]
    S = np.sign(W)
    root = A.max(axis=1).argmax()
    r, c = np.zeros(m), np.zeros(n)
    r[root] = 1.0
    while not (r.all() and c.all()):
        M = A * (r != 0)[:, None]
        best = M.argmax(axis=0)
        new = np.flatnonzero((c == 0) & (M[best, np.arange(n)] > 0))
        c[new] = r[best[new]] * S[best[new], new]
        M = A * (c != 0)
        best = M.argmax(axis=1)
        new = np.flatnonzero((r == 0) & (M[np.arange(m), best] > 0))
        r[new] = c[best[new]] * S[new, best[new]]
    W = W * r[:, None] * c + 0.0
    ro = np.lexsort(np.sort(W, axis=1).T[::-1])
    W = W[ro]
    co = np.lexsort(np.sort(W, axis=0)[::-1])
    return W[:, co], p[ro], q[co], r[ro], c[co]


def _oriented(W: np.ndarray, A: np.ndarray, rows, cols) -> Block:
    """The normalized block of W, the submatrix of U on ``rows`` and
    ``cols``, with no more rows than columns: a tall W is transposed, and
    a square W takes the smaller in bytes of its two orientations, so
    that a transpose of U has the same blocks."""
    m, n = W.shape
    forms = []
    if m <= n:
        V, ro, co, rs, cs = _normalize(W, A)
        forms.append(Block(V, rows[ro], cols[co], rs, cs, False))
    if m >= n:
        V, co, ro, cs, rs = _normalize(W.T, A.T)
        forms.append(Block(V, rows[ro], cols[co], rs, cs, True))
    return min(forms, key=lambda b: b.matrix.tobytes())


def normal_form(u) -> tuple[Block, ...]:
    """The isometric normal form of U as blocks on disjoint lines.

    Signed permutations of rows and columns are isometries of the
    sup-norm models, so they leave both tensor norms unchanged.  A zero
    line, or a line equal up to sign to another, factors through the
    smaller model isometrically: drop it.  Blocks on disjoint rows and
    columns split the model, with ``pi(U1 (+) U2) = max(pi U1, pi U2)``:
    averaging ``(x (+) e c) (x) (y (+) e d)`` over a Rademacher sign e
    cancels the cross terms, and the sup norm of a direct sum is a max
    (the injective norm is a max of entries anyway).  The zero matrix
    has no block.  Each block is signed and sorted by :func:`_normalize`
    and turned wide side up by :func:`_oriented`, and the blocks come in
    order of shape, then entries.
    """
    U = _as_array(u)
    A = np.abs(U)
    support = A > 0
    live_r, live_c = support.any(axis=1), support.any(axis=0)
    if not live_r.any():
        return ()
    rows, cols = np.flatnonzero(live_r), np.flatnonzero(live_c)
    U, A = U[live_r][:, live_c], A[live_r][:, live_c]
    keep = _distinct_lines(U, A)
    if keep is not None:
        rows, U, A = rows[keep], U[keep], A[keep]
    keep = _distinct_lines(U.T, A.T)
    if keep is not None:
        cols, U, A = cols[keep], U[:, keep], A[:, keep]
    blocks = [
        _oriented(U[r][:, c], A[r][:, c], rows[r], cols[c])
        for r, c in _components(A > 0)
    ]
    blocks.sort(key=lambda b: (b.matrix.shape, b.matrix.tobytes()))
    return tuple(blocks)


def linprog(cost: np.ndarray, A, lo: np.ndarray, hi: np.ndarray, bounds: np.ndarray):
    """Minimize ``cost @ x`` over ``lo <= A x <= hi`` with ``bounds[k]``
    the interval of ``x_k`` (one row for all): the one HiGHS call of the
    tensor layer.

    It calls scipy's ``milp`` with no integer variable, which hands the
    two-sided rows to HiGHS as they are; ``scipy.optimize.linprog``
    takes only one-sided rows and equalities, and spends about 2 ms a
    call on its input handling before HiGHS starts.  The result has no
    iteration count."""
    res = milp(
        cost,
        constraints=LinearConstraint(A, lo, hi),
        bounds=Bounds(bounds[:, 0], bounds[:, 1]),
    )
    if res.status != 0:
        raise RuntimeError(f"projective-norm LP failed: {res.message}")
    return res


def _build_epigraph(m: int, n: int):
    """The l1-epigraph LP of the m x n model as ``(A, lo, hi, bounds)``,
    or None past ``MAX_EPIGRAPH_VARS``.

    |eps^T B delta| <= 1 for all delta is the l1 bound ||B^T eps||_1 <= 1.
    Each entry ``(eps_p^T B)_j`` is split as ``a_pj - c_pj`` with
    ``a, c`` in [0, 1] and ``sum_j (a_pj + c_pj) <= 1``: any feasible
    point has ``|(eps_p^T B)_j| <= a_pj + c_pj``, and the positive and
    negative parts of a feasible B are feasible, so the optimum is the
    same as with one absolute-value row per sign.  An exact single LP
    with no constraint generation; the structure is
    objective-independent, so a solver builds it once per shape."""
    E = _signs(m, fix_first=True)
    P = len(E)
    if P * n > MAX_EPIGRAPH_VARS:
        return None
    # Row p*n + j reads (eps_p^T B)_j - a_pj + c_pj = 0, and row P*n + p
    # reads sum_j (a_pj + c_pj) <= 1; columns are B row-major, then the
    # pairs (a_pj, c_pj) in (p, j) order.
    mn, Pn = m * n, P * n
    data = np.empty((P, n, m + 2))
    data[..., :m] = E[:, None, :]
    data[..., m:] = (-1.0, 1.0)
    cols = np.empty((P, n, m + 2), dtype=np.intp)
    cols[..., :m] = np.arange(n)[:, None] + n * np.arange(m)
    cols[..., m:] = (mn + 2 * np.arange(Pn)).reshape(P, n, 1) + np.arange(2)
    indptr = np.concatenate(
        [(m + 2) * np.arange(Pn + 1), Pn * (m + 2) + 2 * n * np.arange(1, P + 1)]
    )
    A = sparse.csr_matrix(
        (
            np.concatenate([data.reshape(-1), np.ones(2 * Pn)]),
            np.concatenate([cols.reshape(-1), mn + np.arange(2 * Pn)]),
            indptr,
        ),
        shape=(Pn + P, mn + 2 * Pn),
    )
    lo = np.concatenate([np.zeros(Pn), np.full(P, -np.inf)])
    hi = np.concatenate([np.zeros(Pn), np.ones(P)])
    bounds = np.repeat([[-1.0, 1.0], [0.0, 1.0]], [mn, 2 * Pn], axis=0)
    return A, lo, hi, bounds


def _direct_sum(parts):
    """One LP made of independent epigraph LPs: block-diagonal rows."""
    As = [part[0] for part in parts]
    col_starts = np.cumsum([0] + [A.shape[1] for A in As])
    nnz_starts = np.cumsum([0] + [A.nnz for A in As])
    A = sparse.csr_matrix(
        (
            np.concatenate([A.data for A in As]),
            np.concatenate([A.indices + s for A, s in zip(As, col_starts)]),
            np.concatenate(
                [A.indptr[:-1] + s for A, s in zip(As, nnz_starts)] + [nnz_starts[-1:]]
            ),
        ),
        shape=(sum(A.shape[0] for A in As), col_starts[-1]),
    )
    return (A,) + tuple(np.concatenate([part[k] for part in parts]) for k in (1, 2, 3))


def _scale(W: np.ndarray) -> float:
    """The power of two that brings the largest entry of W into (1/2, 1].

    HiGHS works to absolute tolerances (1e-7 on reduced costs), so a
    model with entries near 1e-8 came back with a wrong, even negative,
    value; the norm is homogeneous, and dividing by a power of two is
    exact, so each LP objective is scaled by it.  The value is read off
    as ``<B, W>`` on the unscaled model, one formula for every LP."""
    return math.ldexp(1.0, math.ceil(math.log2(float(np.abs(W).max()))))


def _solve_epigraphs(mats: list[np.ndarray], parts) -> list[tuple[float, np.ndarray]]:
    """Values and optimal ``B`` of models with the epigraph LPs ``parts``,
    all in one LP: the direct sum of the LPs separates, so its optimum
    is optimal on each part, and a small model's LP costs little more
    than the fixed cost of a HiGHS call."""
    A, lo, hi, bounds = _direct_sum(parts)
    cost = np.zeros(A.shape[1])
    starts = np.cumsum([0] + [part[0].shape[1] for part in parts])
    for W, s in zip(mats, starts):
        cost[s : s + W.size] = -W.reshape(-1) / _scale(W)
    res = linprog(cost, A, lo, hi, bounds)
    Bs = [res.x[s : s + W.size].reshape(W.shape) for W, s in zip(mats, starts)]
    return [(float(np.sum(B * W)), B) for W, B in zip(mats, Bs)]


class PiSolver:
    """Exact projective-norm solver over finite sup-norm models.

    Maximizes ``<B, U>`` over the polytope ``|eps^T B delta| <= 1``.
    For a fixed sign vector eps on the enumerated side, the constraint
    over all delta is exactly ``||B^T eps||_1 <= 1``.  Two equivalent
    routes exploit this:

    * an l1-epigraph formulation (for each enumerated sign vector and
      column, one equality row splitting the entry of ``B^T eps`` into
      its positive and negative parts, :func:`_build_epigraph`) solved
      as a single LP, used whenever it fits the size budget;
    * cutting planes with the exact separation oracle
      ``delta = sign(B^T eps)``, for long matrices, each cut one
      two-sided row ``-1 <= <eps (x) delta, B> <= 1``.

    Both go to HiGHS through :func:`linprog`, and both produce a
    certificate feasible for every sign constraint and optimal over the
    full polytope.

    Each matrix is solved on its :func:`normal_form`.  The projective
    norm is a cross norm, ``pi(x (x) y) = |x|_inf |y|_inf``, the largest
    entry of ``x y^T``: a block of rank one, a line among them, is its
    largest entry p, with the signed unit form at p as certificate
    (bound 1) and no LP.  :func:`_rank_one` decides it from the bracket
    ``|p| <= pi(W) <= |p| + ||R||_1`` on the cross residual R, taking
    the shortcut only where ``||R||_1 <= RANK_ONE_TOL |p|``, a bound
    1000 times finer than the 1e-9 that the LP route is held to.
    The other blocks, rows (the smaller side) enumerated, are solved
    together: the epigraph LPs of all of them as one LP, and any block
    past the epigraph budget by cutting planes.  The value is the
    largest block value, and the certificate is the winning block's
    ``B`` put back on the block's rows and columns with their signs,
    zero elsewhere, its bound recomputed by :func:`sign_norm`.  An LP is
    only as exact as HiGHS's tolerances, which an entry below about 1e-7
    of the largest one can slip under; solving every matrix on its
    normal form gives a signed permutation or a transpose of it the very
    same LP, and so the very same value.  Where that value falls short
    of the largest entry, the entry's one-entry form is the certificate
    and the entry the value.

    The LP budget applies to each input's shape, before its normal
    form.  A solver takes matrices of any shape and can be reused
    (sign enumerations, ascent iterations): a matrix it has seen
    returns its first answer, the same objects, and a matrix with the
    LP blocks of one it has solved, such as a signed permutation or a
    transpose of it, costs no new LP (HiGHS is deterministic, so that
    is what a new LP would give).  Cutting planes found for a block
    shape are kept for the solver's later matrices.
    """

    def __init__(self):
        self._solved: dict[tuple, tuple[float, DualCertificate]] = {}
        self._forms: dict[tuple, list[tuple[float, np.ndarray]]] = {}
        self._epigraphs: dict[tuple[int, int], tuple | None] = {}
        self._cuts: dict[tuple[int, int], tuple[list, set]] = {}

    def _epigraph_of(self, m: int, n: int):
        if (m, n) not in self._epigraphs:
            self._epigraphs[m, n] = _build_epigraph(m, n)
        return self._epigraphs[m, n]

    def solve(self, U: np.ndarray) -> tuple[float, DualCertificate]:
        """Optimal value and certificate; a matrix seen before by this
        solver returns its first answer without a new LP."""
        U = _as_array(U)
        _check_lp_budget(*U.shape)
        key = (U.shape, U.tobytes())
        result = self._solved.get(key)
        if result is None:
            result = self._solved[key] = self._solve(U)
        return result

    def _solve(self, U: np.ndarray) -> tuple[float, DualCertificate]:
        blocks = normal_form(U)
        if not blocks:  # the zero matrix
            B = np.zeros(U.shape)
            B[0, 0] = 1.0
            return 0.0, _certificate(B)
        rank_one = [_rank_one(b.matrix) for b in blocks]
        elementary = [b for b, r in zip(blocks, rank_one) if r]
        rest = [b for b, r in zip(blocks, rank_one) if not r]
        results = [_line_value(b.matrix) for b in elementary]
        if rest:
            key = _form_key(rest)
            solved = self._forms.get(key)
            if solved is None:
                solved = self._forms[key] = self._lp([b.matrix for b in rest])
            results += solved
        blocks = elementary + rest
        best = max(range(len(blocks)), key=lambda i: results[i][0])
        value, B = results[best]
        B = _from_block(B, blocks[best], U.shape)
        # an entry under HiGHS's tolerances can leave the LP value short
        # of the largest entry, whose one-entry form is exact
        entry, E = _line_value(U)
        if entry > value:
            value, B = entry, E
        return value, _certificate(B)

    def _lp(self, mats: list[np.ndarray]) -> list[tuple[float, np.ndarray]]:
        """Value and ``B`` of each model (no more rows than columns): those
        within the epigraph budget in one LP, the rest by cutting planes."""
        parts = [self._epigraph_of(*W.shape) for W in mats]
        joint = [i for i, part in enumerate(parts) if part is not None]
        solved = {}
        if joint:
            found = _solve_epigraphs([mats[i] for i in joint], [parts[i] for i in joint])
            solved = dict(zip(joint, found))
        return [solved[i] if i in solved else self._solve_cutting(W) for i, W in enumerate(mats)]

    def _solve_cutting(self, U: np.ndarray) -> tuple[float, np.ndarray]:
        m, n = U.shape
        E = _signs(m, fix_first=True)
        rows, seen = self._cuts.setdefault((m, n), ([], set()))

        def add_cut(cut: np.ndarray) -> bool:
            key = cut.tobytes()
            if key in seen:
                return False
            seen.add(key)
            rows.append(cut.reshape(-1))
            return True

        cost = -U.reshape(-1) / _scale(U)
        if not rows:
            for e in E:
                row = e @ U
                add_cut(np.outer(e, np.sign(row) + (row == 0)))
        for _ in range(300):
            ones = np.ones(len(rows))
            res = linprog(cost, np.vstack(rows), -ones, ones, np.array([[-1.0, 1.0]]))
            B = res.x.reshape(m, n)
            Z = E @ B
            viol = np.abs(Z).sum(axis=1)
            order = np.argsort(viol)[::-1]
            added = 0
            for idx in order[:64]:
                if viol[idx] <= 1 + 1e-9:
                    break
                delta = np.sign(Z[idx]) + (Z[idx] == 0)
                if add_cut(np.outer(E[idx], delta)):
                    added += 1
            if added == 0:
                if viol.max() > 1 + 1e-6:
                    raise RuntimeError("projective-norm LP stalled above tolerance")
                break
        else:
            raise RuntimeError("projective-norm LP did not converge")
        return float(np.sum(B * U)), B


def _certificate(B: np.ndarray) -> DualCertificate:
    return DualCertificate(B, max(sign_norm(B), 1e-300))


def _form_key(blocks) -> tuple:
    return tuple((b.matrix.shape, b.matrix.tobytes()) for b in blocks)


def _rank_one(W: np.ndarray) -> bool:
    """Whether W is within ``RANK_ONE_TOL`` of rank one, so that its
    projective norm is its largest entry.

    Let p be the largest entry in absolute value, at (i, j), and R the
    cross residual ``W - W[:, j] W[i, :] / p``.  Then
    ``|p| <= pi(W) <= |p| + ||R||_1``: the unit form at (i, j) gives the
    lower bound; the rank-one part has norm ``|W[:, j] / p|_inf
    |W[i, :]|_inf = |p|``, since p is the largest entry, and the
    entrywise l1 norm bounds pi.  R vanishes on row i and column j, so a
    line is rank one with no work.  The test takes ``||R||_1 <=
    RANK_ONE_TOL * |p|``: a float screen, with slack for its rounding,
    turns most blocks away, and the rest is decided in ``Fraction``s,
    which hold floats exactly, as ``sum |W_kl p - W_kj W_il| <=
    RANK_ONE_TOL p^2``."""
    if min(W.shape) == 1:
        return True
    i, j = divmod(int(np.abs(W).argmax()), W.shape[1])
    p, col, row = W[i, j], W[:, j], W[i]
    if np.abs(W - np.outer(col / p, row)).sum() > 2 * RANK_ONE_TOL * abs(p):
        return False
    p = Fraction(p)
    row = [Fraction(x) for x in row.tolist()]
    resid = sum(
        abs(Fraction(w) * p - Fraction(c) * r)
        for c, line in zip(col.tolist(), W.tolist())
        for w, r in zip(line, row)
    )
    return resid <= Fraction(RANK_ONE_TOL) * p * p


def _line_value(W: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest entry p of W in absolute value, and its signed unit
    form as the certificate (bound 1): a lower bound for any block, and
    the value of a block that :func:`_rank_one` accepts, whose projective
    norm lies in ``[|p|, (1 + RANK_ONE_TOL) |p|]``."""
    k = int(np.abs(W).argmax())
    B = np.zeros(W.shape)
    B.flat[k] = np.sign(W.flat[k])
    return float(abs(W.flat[k])), B


def _from_block(B: np.ndarray, block: Block, shape) -> np.ndarray:
    """A form on the block's normal form put back on the input model."""
    if block.transposed:
        B = B.T
    full = np.zeros(shape)
    full[np.ix_(block.rows, block.cols)] = B * block.row_signs[:, None] * block.col_signs
    return full


def pi_norm(u) -> tuple[float, DualCertificate]:
    """Projective norm with an optimal dual certificate.

    One-shot interface over :class:`PiSolver`; the certificate has the
    input's shape and an independently re-verified bound.
    """
    return PiSolver().solve(u)


def pi_norm_decomposition(u) -> tuple[float, list[tuple[float, np.ndarray, np.ndarray]]]:
    """Projective norm via explicit decomposition into sign dyads.

    The unit ball of the projective norm on a finite sup-norm model is
    the convex hull of ``+/- eps (x) delta`` over sign vectors, so the
    norm is the least total weight expressing U as a signed combination
    of such dyads.  This synthesis linear program is the independent
    oracle for :func:`pi_norm`; it also returns the achieving
    decomposition, a certified upper bound.  Unlike the cutting-plane
    supremum it enumerates all dyads up front, so both sides must be
    small.
    """
    U = _as_array(u)
    m, n = U.shape
    if 2 ** (m + n) > MAX_CONSTRAINTS:
        raise BudgetError(f"2^{m + n} sign dyads exceed the budget {MAX_CONSTRAINTS}")
    E = _signs(m, fix_first=True)
    D = _signs(n)
    dyads = np.einsum("ai,bj->abij", E, D).reshape(-1, m * n).T  # (mn, K)
    K = dyads.shape[1]
    b = U.reshape(-1)
    res = linprog(np.ones(2 * K), np.hstack([dyads, -dyads]), b, b, np.array([[0.0, np.inf]]))
    lam = res.x[:K] - res.x[K:]
    terms = []
    for k in np.nonzero(np.abs(lam) > 1e-12)[0]:
        a, b = divmod(int(k), D.shape[0])
        terms.append((float(lam[k]), E[a].copy(), D[b].copy()))
    return float(res.fun), terms


def pair_dual(u, cert: DualCertificate) -> float:
    """The pairing ``<B, U>``; divided by the bound it lower-bounds pi."""
    U = _as_array(u)
    if U.shape != cert.matrix.shape:
        raise ValueError("certificate shape does not match the matrix")
    return float(np.sum(cert.matrix * U))


def weak_p_norm_vec(xs: Sequence, p: float) -> float:
    """Weakly p-summing norm of vectors in a finite sup-norm space.

    By convexity the dual-ball supremum is attained at signed
    coordinates, giving the columnwise formula."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a family of equal-length vectors")
    return float((np.abs(arr) ** p).sum(axis=0).max() ** (1.0 / p))


def _stack(us: Sequence) -> np.ndarray:
    """The matrices of a family stacked."""
    mats = [_as_array(u) for u in us]
    if not mats:
        raise ValueError("a family needs at least one matrix")
    return np.stack(mats)


def weak_1_norm_pi(us: Sequence) -> float:
    """Exact weakly 1-summing norm of matrices under the projective norm.

    Enumerates all sign patterns (the extreme points of the l_inf ball
    of coefficients) and takes the largest projective norm of the
    signed sum."""
    stack = _stack(us)
    k = len(stack)
    if k > MAX_SIGN_FAMILY:
        raise BudgetError(f"family of {k} exceeds the sign budget {MAX_SIGN_FAMILY}")
    solver = PiSolver()
    best = 0.0
    for signs in product((-1.0, 1.0), repeat=k - 1):
        a = np.array((1.0,) + signs)
        val, _ = solver.solve(np.tensordot(a, stack, axes=1))
        best = max(best, val)
    return best


def weak_2_norm_pi_lower(
    us: Sequence,
    *,
    samples: int = 64,
    seed: int = 0,
    ascent_steps: int = 8,
) -> float:
    """Seeded lower bound for the weakly 2-summing projective norm.

    Evaluates ``pi(sum a_k u_k)`` at unit l_2 coefficient vectors:
    the coordinate directions, ``samples`` random directions, and a few
    steps of certificate-gradient ascent from each.  Deterministic for
    a fixed seed; only ever a lower bound.
    """
    stack = _stack(us)
    mats = list(stack)
    k = len(mats)
    solver = PiSolver()
    rng = np.random.default_rng(seed)
    starts = [np.eye(k)[i] for i in range(k)]
    for _ in range(samples):
        v = rng.standard_normal(k)
        norm = np.linalg.norm(v)
        if norm > 0:
            starts.append(v / norm)
    best = 0.0
    for a in starts:
        val, cert = solver.solve(np.tensordot(a, stack, axes=1))
        best = max(best, val)
        for _ in range(ascent_steps):
            g = np.array([float(np.sum(cert.matrix * m)) for m in mats])
            norm = np.linalg.norm(g)
            if norm == 0:
                break
            a_new = g / norm
            new_val, new_cert = solver.solve(np.tensordot(a_new, stack, axes=1))
            if new_val <= val + 1e-12:
                break
            val, cert, a = new_val, new_cert, a_new
            best = max(best, val)
    return best


def canonical_model(u) -> np.ndarray:
    """The :func:`normal_form` of U as one matrix, its blocks down the
    diagonal; ``[[0]]`` for the zero matrix.

    Both tensor norms are unchanged, and the model is no larger than U.
    """
    blocks = normal_form(u)
    if not blocks:
        return np.zeros((1, 1))
    return block_diag(*(b.matrix for b in blocks))
