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
  The certificate form runs as one epigraph LP, or as cutting planes
  with HiGHS presolve off, by block shape (:func:`_takes_cutting` holds
  the rule and its measurements); answers are keyed on the block.

Weakly p-summing norms of vector and matrix families are provided with
the budgets they admit: exact sign enumeration for the weak-1 norm, and
seeded sampling plus local ascent for weak-2 lower bounds.  The signed
sums of a weak-1 family share joint epigraph LPs, each filled up to
``MAX_JOINT_EPIGRAPH_VARS`` epigraph variables (see there for why).
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
from scipy.optimize import Bounds, LinearConstraint, milp

__all__ = [
    "DualCertificate",
    "BudgetError",
    "eps_norm",
    "pi_norm",
    "pi_norm_decomposition",
    "pair_dual",
    "weak_1_norm_pi",
    "weak_2_norm_pi_lower",
    "normal_form",
    "Block",
]

MAX_LP_SIDE = 10  # enumeration side: 2^(side-1) sign vectors
MAX_LP_ENTRIES = 1 << 14
MAX_EPIGRAPH_VARS = 1 << 12
"""The most epigraph variables ``P*n`` (:func:`_epigraph_vars`) of an
epigraph LP; a block past it takes cutting planes (:func:`_takes_cutting`)."""
MAX_JOINT_EPIGRAPH_VARS = 1 << 9
"""The most epigraph variables ``sum P*n`` (:func:`_epigraph_vars`) that
blocks share in one joint LP (:func:`_lp`); a block past it is an LP of
its own.  A joint LP gains on small parts and loses on large ones: best
of 5 on a 2-vCPU host, separate LPs against one joint LP, 32 x 3x3 59 ->
13 ms, 16 x 4x4 (512) 41 -> 16 ms, 8 x 5x5 39 -> 27 ms, 4 x 6x6 (768) 51
-> 58 ms, 2 x 8x8 361 -> 494 ms."""
MAX_CONSTRAINTS = 1 << 18
MAX_SIGN_FAMILY = 8
ASCENT_STEPS = 8  # certificate-gradient steps from each weak-2 start
RANK_ONE_TOL = 1e-12
"""A block within this share of its largest entry of rank one is that
entry, with no LP (:func:`_rank_one`).  It is 1000 times finer than the
1e-9 agreement that the LP route, the tests and the benchmark hold the
projective norm to, so the shortcut's error never shows against them."""


def _takes_cutting(m: int, n: int) -> bool:
    """Whether :class:`PiSolver` solves an m x n block (m <= n) by cutting
    planes instead of an epigraph LP: past ``MAX_EPIGRAPH_VARS``, or with
    at least ``2*m*n`` sign rows ``P = 2^(m-1)``, which takes 8x8 and
    9x9 to 9x14 and never a block with ``m <= 7`` (best of 2 on a 2-vCPU
    host, epigraph against cutting, dense draws: 7x7 36-44 against 59-119
    ms, 7x12 96 against 955, 8x8 131-165 against 86-128, 8x9 178-210
    against 67-108, 8x10 188-264 against 216-688, 9x9 612-800 against
    191-397 ms, 9x10 cutting in 2 of 3 draws)."""
    return _epigraph_vars(m, n) > MAX_EPIGRAPH_VARS or 1 << (m - 1) >= 2 * m * n


class BudgetError(ValueError):
    """The instance exceeds the configured enumeration budget."""


def _as_array(u) -> np.ndarray:
    try:
        arr = np.asarray(u, dtype=float)
    except TypeError as e:  # not an array of numbers, such as a dict
        raise ValueError(f"expected a matrix of numbers: {e}") from None
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
    zero line and no more rows than columns.

    The lines are first put in the order of :func:`_line_order`.  The
    row holding the largest entry is the root, ties going to the first
    in that order; every other line takes the sign that makes its
    largest entry towards an already signed line positive, level by
    level out from the root, ties again going to the first.  Rows, then
    columns, are then sorted by their sorted entries.  All of it sees
    only the entries, so a signed permutation of W gives the same
    matrix."""
    m, n = W.shape
    if m == 1:  # a row: make it positive and sort it
        order = np.argsort(A[0], kind="stable")
        return A[:, order], np.zeros(1, np.intp), order, np.ones(1), np.sign(W[0, order])
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


@np.errstate(over="ignore")
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
    order of shape, then entries.  Line norms past the float range are
    inf, which only weakens the screen for signed copies: no warning.
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


def linprog(
    cost: np.ndarray,
    A,
    lo: np.ndarray,
    hi: np.ndarray,
    bounds: np.ndarray,
    presolve: bool | None = None,
):
    """Minimize ``cost @ x`` over ``lo <= A x <= hi`` with ``bounds[k]``
    the interval of ``x_k`` (one row for all): the one HiGHS call of the
    tensor layer.

    It calls scipy's ``milp`` with no integer variable, which hands the
    two-sided rows to HiGHS as they are; ``scipy.optimize.linprog``
    takes only one-sided rows and equalities, and spends about 2 ms a
    call on its input handling before HiGHS starts.  ``presolve``, when
    given, goes to ``milp`` as its one option; otherwise ``milp`` gets
    no options.  The result has no iteration count."""
    options = {} if presolve is None else {"options": {"presolve": presolve}}
    res = milp(
        cost,
        constraints=LinearConstraint(A, lo, hi),
        bounds=Bounds(bounds[:, 0], bounds[:, 1]),
        **options,
    )
    if res.status != 0:
        raise RuntimeError(f"projective-norm LP failed: {res.message}")
    return res


def _build_epigraph(m: int, n: int):
    """The l1-epigraph LP of the m x n model as ``(A, lo, hi, bounds)``.

    |eps^T B delta| <= 1 for all delta is the l1 bound ||B^T eps||_1 <= 1.
    Each entry ``(eps_p^T B)_j`` is split as ``a_pj - c_pj`` with
    ``a, c`` in [0, 1] and ``sum_j (a_pj + c_pj) <= 1``: any feasible
    point has ``|(eps_p^T B)_j| <= a_pj + c_pj``, and the positive and
    negative parts of a feasible B are feasible, so the optimum is the
    same as with one absolute-value row per sign.  An exact single LP
    with no constraint generation; the structure is
    objective-independent, so :func:`_lp` builds it once per shape."""
    E = _signs(m, fix_first=True)
    P = len(E)
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


def _epigraph_vars(m: int, n: int) -> int:
    """``P*n`` for the ``P = 2^(m-1)`` sign rows of the m x n epigraph LP:
    its pairs ``(a_pj, c_pj)``, the measure of its size."""
    return n << (m - 1)


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


def _scaled(W: np.ndarray) -> np.ndarray:
    """W divided by the power of two that brings its largest entry into
    (1/2, 1].

    HiGHS works to absolute tolerances (1e-7 on reduced costs), so a
    model with entries near 1e-8 came back with a wrong, even negative,
    value; the norm is homogeneous, and dividing by a power of two is
    exact, so each LP reads the model scaled by it: the certificate
    LPs in their objective, the synthesis LP of
    :func:`pi_norm_decomposition` in its right-hand side.  The exponent
    comes from ``math.frexp`` and the division is ``np.ldexp``, so a
    largest entry near the top of the float range, whose power of two is
    past it, scales too.  The value is read off as ``<B, W>`` on the
    unscaled model, one formula for every certificate LP."""
    return np.ldexp(W, -_scale_exponent(W))


def _scale_exponent(W: np.ndarray) -> int:
    """The e with ``max |W| / 2^e`` in (1/2, 1], or 0 for the zero matrix."""
    mantissa, e = math.frexp(float(np.abs(W).max()))
    return e - (mantissa == 0.5)


def _solve_epigraphs(mats: list[np.ndarray], parts) -> list[tuple[float, np.ndarray]]:
    """Values and optimal ``B`` of models with the epigraph LPs ``parts``,
    all in one LP: the direct sum of the LPs separates, so its optimum
    is optimal on each part, and a small model's LP costs little more
    than the fixed cost of a HiGHS call."""
    A, lo, hi, bounds = _direct_sum(parts)
    cost = np.zeros(A.shape[1])
    starts = np.cumsum([0] + [part[0].shape[1] for part in parts])
    for W, s in zip(mats, starts):
        cost[s : s + W.size] = -_scaled(W).reshape(-1)
    res = linprog(cost, A, lo, hi, bounds)
    Bs = [res.x[s : s + W.size].reshape(W.shape) for W, s in zip(mats, starts)]
    return [(float(np.sum(B * W)), B) for W, B in zip(mats, Bs)]


def _lp(mats: list[np.ndarray]) -> list[tuple[float, np.ndarray]]:
    """Value and ``B`` of each model (no more rows than columns): those
    that :func:`_takes_cutting` turns away by cutting planes, one at a
    time; the rest in joint epigraph LPs, filled in order, each within
    ``MAX_JOINT_EPIGRAPH_VARS`` unless one model alone is past it.  Each
    shape's epigraph LP is built once per call."""
    epigraphs, chunks, size = {}, [], MAX_JOINT_EPIGRAPH_VARS
    for i, W in enumerate(mats):
        if _takes_cutting(*W.shape):
            continue
        if W.shape not in epigraphs:
            epigraphs[W.shape] = _build_epigraph(*W.shape)
        more = _epigraph_vars(*W.shape)
        if size + more > MAX_JOINT_EPIGRAPH_VARS:
            chunks.append([])
            size = 0
        chunks[-1].append(i)
        size += more
    solved = {}
    for chunk in chunks:
        Ws = [mats[i] for i in chunk]
        solved.update(zip(chunk, _solve_epigraphs(Ws, [epigraphs[W.shape] for W in Ws])))
    return [solved[i] if i in solved else _solve_cutting(W) for i, W in enumerate(mats)]


def _solve_cutting(U: np.ndarray) -> tuple[float, np.ndarray]:
    m, n = U.shape
    E = _signs(m, fix_first=True)
    rows, seen = [], set()

    def add_cut(cut: np.ndarray) -> bool:
        key = cut.tobytes()
        if key in seen:
            return False
        seen.add(key)
        rows.append(cut.reshape(-1))
        return True

    W = _scaled(U)  # the cut signs of U, with no overflow
    cost = -W.reshape(-1)
    for e in E:
        row = e @ W
        add_cut(np.outer(e, np.sign(row) + (row == 0)))
    for _ in range(300):
        ones = np.ones(len(rows))
        res = linprog(
            cost, np.vstack(rows), -ones, ones, np.array([[-1.0, 1.0]]), presolve=False
        )
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


class PiSolver:
    """Exact projective-norm solver over finite sup-norm models.

    Maximizes ``<B, U>`` over the polytope ``|eps^T B delta| <= 1``.
    For a fixed sign vector eps on the enumerated side, the constraint
    over all delta is exactly ``||B^T eps||_1 <= 1``.  Two equivalent
    routes exploit this:

    * an l1-epigraph formulation (for each enumerated sign vector and
      column, one equality row splitting the entry of ``B^T eps`` into
      its positive and negative parts, :func:`_build_epigraph`) solved
      as a single LP;
    * cutting planes with the exact separation oracle
      ``delta = sign(B^T eps)`` (Kelley, J. SIAM 8, 1960), each cut one
      two-sided row ``-1 <= <eps (x) delta, B> <= 1``, its LPs solved
      with HiGHS presolve off (best of 5: the 10x10 dense model of the
      benchmark 388 -> 343 ms, a dense 8x8 55 -> 44 ms).

    The route goes by block shape (:func:`_takes_cutting`).  Both go to
    HiGHS through :func:`linprog`, and both produce a certificate
    feasible for every sign constraint and optimal over the full
    polytope.

    Each matrix is solved on its :func:`normal_form`.  The projective
    norm is a cross norm, ``pi(x (x) y) = |x|_inf |y|_inf``, the largest
    entry of ``x y^T``: a block of rank one, a line among them, is its
    largest entry p, with the signed unit form at p as certificate
    (bound 1) and no LP.  :func:`_rank_one` decides it from the bracket
    ``|p| <= pi(W) <= |p| + ||R||_1`` on the cross residual R, taking
    the shortcut only where ``||R||_1 <= RANK_ONE_TOL |p|``, a bound
    1000 times finer than the 1e-9 that the LP route is held to.
    The other blocks, rows (the smaller side) enumerated, are solved
    together by :func:`_lp`: their epigraph LPs in joint LPs, each the
    direct sum of the next ones in order up to
    ``MAX_JOINT_EPIGRAPH_VARS`` epigraph variables, and the blocks that
    take cutting planes one at a time.  :meth:`solve_all` does the same
    for many matrices at once, each split into its normal form once, so
    that their new blocks share the joint LPs; the signed sums of a
    weak-1 family go this way.  The value is the first largest block
    value, and the certificate that block's ``B`` put back on its rows
    and columns with their signs, zero elsewhere, its bound recomputed
    by :func:`sign_norm`.  An LP is only as exact as HiGHS's tolerances,
    which an entry below about 1e-7 of the largest one can slip under;
    on the normal form, a signed permutation or a transpose of a matrix
    has the same blocks, and so the very same block answers.  Where the
    value falls short of the largest entry, the entry's one-entry form
    is the certificate and the entry the value.

    The LP budget applies to each input's shape, before its normal
    form.  A solver takes matrices of any shape and can be reused
    (sign enumerations, ascent iterations).  Its memos are keyed on
    shape and bytes: ``_solved`` on the input, which returns a seen
    matrix's first answer, the same objects, and ``_blocks`` on the
    block, which values each normal-form block once, in the first joint
    LP that holds it, whatever matrix it turns up in.
    """

    def __init__(self):
        self._solved: dict[tuple, tuple[float, DualCertificate]] = {}
        self._blocks: dict[tuple, tuple[float, np.ndarray]] = {}

    def solve(self, U: np.ndarray) -> tuple[float, DualCertificate]:
        """Optimal value and certificate; a matrix seen before by this
        solver returns its first answer without a new LP."""
        return self.solve_all([U])[0]

    @np.errstate(over="ignore")
    def solve_all(self, Us) -> list[tuple[float, DualCertificate]]:
        """``[self.solve(U) for U in Us]``, with the blocks of the matrices
        not seen before valued together: each block not in ``_blocks``
        once, by its largest entry if :func:`_rank_one` accepts it, else
        in one :func:`_lp` call.  Sums of entries near the top of the
        float range may overflow on the way, harmlessly; a value past the
        range raises ``ValueError`` in :meth:`_assemble`."""
        keys, new = [], {}
        for U in map(_as_array, Us):
            _check_lp_budget(*U.shape)
            keys.append(_key(U))
            if keys[-1] not in self._solved:
                new.setdefault(keys[-1], U)
        forms = {key: normal_form(U) for key, U in new.items()}
        lp = {}
        for W in (b.matrix for blocks in forms.values() for b in blocks):
            key = _key(W)
            if key in self._blocks or key in lp:
                continue
            if _rank_one(W):
                self._blocks[key] = _line_value(W)
            else:
                lp[key] = W
        self._blocks.update(zip(lp, _lp(list(lp.values()))))
        for key, U in new.items():
            self._solved[key] = self._assemble(U, forms[key])
        return [self._solved[key] for key in keys]

    def _assemble(self, U: np.ndarray, blocks: tuple[Block, ...]):
        """Value and certificate of U from ``_blocks`` and its blocks."""
        if not blocks:  # the zero matrix
            B = np.zeros(U.shape)
            B[0, 0] = 1.0
            return 0.0, _certificate(B)
        results = [self._blocks[_key(b.matrix)] for b in blocks]
        best = max(range(len(blocks)), key=lambda i: results[i][0])
        value, B = results[best]
        if math.isinf(value):
            raise ValueError("the projective norm exceeds the float range")
        B = _from_block(B, blocks[best], U.shape)
        # an entry under HiGHS's tolerances can leave the LP value short
        # of the largest entry, whose one-entry form is exact
        entry, E = _line_value(U)
        if entry > value:
            value, B = entry, E
        return value, _certificate(B)


def _key(W: np.ndarray) -> tuple:
    """A memo key: equal bytes of another shape are another matrix."""
    return W.shape, W.tobytes()


def _certificate(B: np.ndarray) -> DualCertificate:
    return DualCertificate(B, max(sign_norm(B), 1e-300))


@np.errstate(over="ignore")
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
    RANK_ONE_TOL p^2``.  A residual past the float range is inf and
    turns the block away, with no warning."""
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
    small.  The LP reads U scaled as in :func:`_scaled`, and the value
    and the weights are scaled back exactly.
    """
    U = _as_array(u)
    m, n = U.shape
    if 2 ** (m + n) > MAX_CONSTRAINTS:
        raise BudgetError(f"2^{m + n} sign dyads exceed the budget {MAX_CONSTRAINTS}")
    E = _signs(m, fix_first=True)
    D = _signs(n)
    dyads = np.einsum("ai,bj->abij", E, D).reshape(-1, m * n).T  # (mn, K)
    K = dyads.shape[1]
    e = _scale_exponent(U)
    b = np.ldexp(U.reshape(-1), -e)
    res = linprog(np.ones(2 * K), np.hstack([dyads, -dyads]), b, b, np.array([[0.0, np.inf]]))
    lam = res.x[:K] - res.x[K:]
    terms = []
    for k in np.nonzero(np.abs(lam) > 1e-12)[0]:
        a, b = divmod(int(k), D.shape[0])
        terms.append((math.ldexp(lam[k], e), E[a].copy(), D[b].copy()))
    return math.ldexp(res.fun, e), terms


def pair_dual(u, cert: DualCertificate) -> float:
    """The pairing ``<B, U>``; divided by the bound it lower-bounds pi."""
    U = _as_array(u)
    if U.shape != cert.matrix.shape:
        raise ValueError("certificate shape does not match the matrix")
    return float(np.sum(cert.matrix * U))


def _stack(us: Sequence) -> np.ndarray:
    """The matrices of a family stacked."""
    try:
        mats = [_as_array(u) for u in us]
    except TypeError:  # not a sequence, such as a number
        raise ValueError("expected a family of matrices") from None
    if not mats:
        raise ValueError("a family needs at least one matrix")
    return np.stack(mats)


def weak_1_norm_pi(us: Sequence) -> float:
    """Exact weakly 1-summing norm of matrices under the projective norm.

    Enumerates all sign patterns (the extreme points of the l_inf ball
    of coefficients, the first sign fixed, since ``pi(-U) = pi(U)``) and
    takes the largest projective norm of the signed sums, all solved by
    one :meth:`PiSolver.solve_all`, so that they share joint LPs."""
    stack = _stack(us)
    k = len(stack)
    if k > MAX_SIGN_FAMILY:
        raise BudgetError(f"family of {k} exceeds the sign budget {MAX_SIGN_FAMILY}")
    sums = np.tensordot(_signs(k, fix_first=True), stack, axes=1)
    return max(value for value, _ in PiSolver().solve_all(sums))


def weak_2_norm_pi_lower(
    us: Sequence,
    *,
    samples: int = 64,
    seed: int = 0,
) -> float:
    """Seeded lower bound for the weakly 2-summing projective norm.

    Evaluates ``pi(sum a_k u_k)`` at unit l_2 coefficient vectors: the
    coordinate directions, ``samples`` random directions, and up to
    ``ASCENT_STEPS`` steps of certificate-gradient ascent from each.
    The starts climb in lockstep: all of them are solved in one
    :meth:`PiSolver.solve_all`, then each step solves the next points of
    every start still climbing in one more, so that the points of a
    round share joint LPs.  A start stops climbing when its gradient
    ``<B, u_k>`` is zero or its next point is not higher by more than
    1e-12.  Deterministic for a fixed seed; only ever a lower bound.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    stack = _stack(us)
    k = len(stack)
    solver = PiSolver()
    rng = np.random.default_rng(seed)
    starts = [np.eye(k)[i] for i in range(k)]
    for _ in range(samples):
        v = rng.standard_normal(k)
        norm = np.linalg.norm(v)
        if norm > 0:
            starts.append(v / norm)
    climbing = solver.solve_all([np.tensordot(a, stack, axes=1) for a in starts])
    best = max(val for val, _ in climbing)
    for _ in range(ASCENT_STEPS):
        ahead = []
        for val, cert in climbing:
            g = np.array([float(np.sum(cert.matrix * m)) for m in stack])
            norm = np.linalg.norm(g)
            if norm > 0:
                ahead.append((val, np.tensordot(g / norm, stack, axes=1)))
        steps = zip(ahead, solver.solve_all([point for _, point in ahead]))
        climbing = [new for (val, _), new in steps if new[0] > val + 1e-12]
        if not climbing:
            break
        best = max(best, *(val for val, _ in climbing))
    return best
