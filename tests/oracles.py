"""Brute-force oracles used to validate the library's fast evaluators.

Membership is decided by exhaustive search over all partitions of a set
into consecutive blocks, directly following the recursive definitions;
weights are computed by a definition-literal recursion driven by that
membership test.  Everything here is exponential and meant for small
ground sets only.  The remaining oracles are the plain definitions that
the library's fast paths replace: the recursive CNF comparison, interval
unions as point sets, Cantor-scheme cells by whole-union intersection
and, with their validation and compatibility, one point at a time,
the block map with every prefix split on its own, the spreads of a
set listed one by one, the tree node functions by the recursive
construction, the projective-norm epigraph matrix built entry
by entry, the earlier two-sided epigraph LP solved by scipy's
``linprog``, the weak-1 norm with one LP per sign vector, the weak-2
ascent with a fresh LP for every step, the block walk and stream reads
one element at a time, the weight descent with a greedy split at every
level, the weight identities in Fraction and Weight arithmetic, and
derived-tree node ranks by iterated removal of maximal nodes.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ordtensor.ordinal import OMEGA, ONE, as_ordinal, omega_pow
from ordtensor.schreier import (
    Base,
    BudgetExceeded,
    Conv,
    StreamExhausted,
    as_finite_set,
    is_maximal,
    level_step,
    member,
    node_rank_exact,
    split_blocks,
)
from ordtensor.space import Iv, StepFunction, meet, normalize_union
from ordtensor.tensor import pi_norm
from ordtensor.weights import PermReport, Weight, p_prefix_weights, q_prefix_weights


def compositions(E):
    """All ways to cut a tuple into non-empty consecutive blocks."""
    n = len(E)
    for mask in range(1 << max(n - 1, 0)):
        blocks = []
        start = 0
        for i in range(n - 1):
            if mask >> i & 1:
                blocks.append(E[start : i + 1])
                start = i + 1
        blocks.append(E[start:])
        yield tuple(blocks)


@lru_cache(maxsize=None)
def brute_member(fam, E):
    """Definitional membership via partition search."""
    if not E:
        return True
    if isinstance(fam, Base):
        xi = fam.xi
        if xi.is_zero():
            return len(E) == 1
        if xi.classify() == "successor":
            mu = Base(xi.predecessor())
            return any(
                len(bl) <= E[0] and all(brute_member(mu, b) for b in bl)
                for bl in compositions(E)
            )
        return brute_member(Base(xi.fundamental(E[0]) + ONE), E)
    inner, outer = Base(fam.xi), Base(fam.zeta)
    return any(
        all(brute_member(inner, b) for b in bl)
        and brute_member(outer, tuple(b[0] for b in bl))
        for bl in compositions(E)
    )


def brute_split(fam, E):
    """Greedy decomposition computed through brute membership only."""
    blocks = []
    rest = tuple(E)
    while rest:
        k = max(j for j in range(1, len(rest) + 1) if brute_member(fam, rest[:j]))
        blocks.append(rest[:k])
        rest = rest[k:]
    return tuple(blocks)


def oracle_p(xi, E) -> Fraction:
    """Definition-literal repeated-averages weight over brute splits."""
    xi = as_ordinal(xi)
    if xi.is_zero():
        return Fraction(1)
    if xi.classify() == "successor":
        mu = xi.predecessor()
        last = brute_split(Base(xi), E)[-1]
        inner_last = brute_split(Base(mu), last)[-1]
        return oracle_p(mu, inner_last) / last[0]
    last = brute_split(Base(xi), E)[-1]
    return oracle_p(xi.fundamental(last[0]) + ONE, last)


def oracle_q(xi, zeta, E) -> tuple[Fraction, int]:
    """Definition-literal square-root weight: (ratio, raw radicand)."""
    xi, zeta = as_ordinal(xi), as_ordinal(zeta)
    if zeta.is_zero():
        return Fraction(1), 1
    if zeta.classify() == "successor":
        nu = zeta.predecessor()
        last = brute_split(Conv(zeta, xi), E)[-1]
        inner_last = brute_split(Conv(nu, xi), last)[-1]
        ratio, rad = oracle_q(xi, nu, inner_last)
        return ratio, rad * last[0]
    last = brute_split(Conv(zeta, xi), E)[-1]
    return oracle_q(xi, zeta.fundamental(last[0]) + ONE, last)


def subsets(ground):
    ground = tuple(ground)
    for mask in range(1 << len(ground)):
        yield tuple(g for i, g in enumerate(ground) if mask >> i & 1)


def spreads(E, bound):
    """Every spread of E within [1, bound]: same size, elementwise >= E."""
    for cand in combinations(range(E[0] if E else 1, bound + 1), len(E)):
        if all(c >= e for c, e in zip(cand, E)):
            yield cand


def cnf_compare(a, b) -> int:
    """Ordinal order by a recursive walk over the CNF terms: -1, 0 or 1."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cnf_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def union_points(u, top: int) -> set[int]:
    """The points of ``[0, top]`` covered by a union with integer endpoints."""
    return {x for x in range(top + 1) if any(iv.contains(as_ordinal(x)) for iv in u)}


def cantor_cells_reference(handle, branch) -> dict:
    """Cantor-scheme cells with each parent intersected with the whole
    preimage of the next branch function."""
    funcs = [handle.node_function(p) for p in handle.branch(branch)]
    cells = {(): funcs[0].support()}
    for depth, f in enumerate(funcs):
        for d in product((-1, 1), repeat=depth):
            for eps in (-1, 1):
                whole = normalize_union(f.preimage(float(eps)))
                cells[d + (eps,)] = meet(whole, normalize_union(cells[d]))
    return cells


def points_of(u, points) -> frozenset:
    """The given points that a union of intervals covers."""
    return frozenset(pt for pt in points if any(iv.contains(pt) for iv in u))


def scheme_cells_by_points(funcs, points) -> dict:
    """The cells of the Cantor scheme of a branch's functions as point
    sets, read one point at a time: the root cell is where the first
    function is not 0, and the cell d is where the function i is d[i]
    for every i, inside the root cell."""
    root = frozenset(pt for pt in points if funcs[0](pt) != 0)
    cells = {(): root}
    for k in range(1, len(funcs) + 1):
        for d in product((-1, 1), repeat=k):
            cells[d] = frozenset(pt for pt in root if all(f(pt) == e for f, e in zip(funcs, d)))
    return cells


def scheme_fault_by_points(cells, depth: int, points):
    """The message with which a Cantor scheme of these cells is refused,
    or None, read on point sets: the first missing or empty cell, level
    by level, then the first parent (level by level, each level in
    ``product`` order) whose children are not nested in it, or overlap."""
    for k in range(depth + 1):
        for d in product((-1, 1), repeat=k):
            if d not in cells:
                return f"missing cell {d}"
            if not points_of(cells[d], points):
                return f"cell {d} is empty"
    pts = {d: points_of(cell, points) for d, cell in cells.items()}
    for k in range(depth):
        for d in product((-1, 1), repeat=k):
            minus, plus = pts[d + (-1,)], pts[d + (1,)]
            if not (minus <= pts[d] and plus <= pts[d]):
                return f"children of {d} not nested"
            if minus & plus:
                return f"children of {d} overlap"
    return None


def compatible_by_points(funcs, cells, points) -> bool:
    """Whether ``funcs[i-1]`` is ``d[-1]`` at every point of every cell d
    of length i, read one point at a time."""
    return all(funcs[len(d) - 1](pt) == d[-1]
               for d, cell in cells.items() if d for pt in points_of(cell, points))


def node_function_reference(gamma, t):
    """The step function of node t of the rank ``w*gamma`` tree, by the
    recursive construction; t must be a node of the tree.

    A successor tree is a chain above each root, whose functions
    alternate on ``w^(gamma-1)``-scaled blocks, and 2^n tiled copies of
    the ``gamma - 1`` tree below the chain of root index n; the limit
    tree is the summand ``z + 1`` re-topped at ``w^w``.
    """
    gamma = as_ordinal(gamma)
    top = omega_pow(gamma)
    if gamma == OMEGA:
        shift = omega_pow(t[0].leading_exponent())
        inner = node_function_reference(
            t[0].leading_exponent() + ONE, tuple(lbl.left_subtract(shift) for lbl in t))
        return StepFunction(top, inner.pieces)
    g0 = gamma.predecessor()
    scale = omega_pow(g0)
    n = t[0].left_subtract(OMEGA.mul_nat(g0.to_int())).to_int() + 1
    if len(t) <= n:
        width = 2 ** (n - len(t))
        return StepFunction(top, [
            (Iv(scale.mul_nat(width * i), scale.mul_nat(width * (i + 1))),
             1.0 if i % 2 == 0 else -1.0)
            for i in range(2 ** len(t))
        ])
    inner = node_function_reference(g0, t[n:])
    return StepFunction(top, [
        (Iv(scale.mul_nat(i) + iv.lo, scale.mul_nat(i) + iv.hi), v)
        for i in range(2**n)
        for iv, v in inner.pieces
    ])


def block_map_path_reference(xi, zeta, handle, E) -> list:
    """The monotone block map with the greedy split of every prefix
    recomputed from scratch (quadratic in ``len(E)``)."""
    xi, zeta = as_ordinal(xi), as_ordinal(zeta)
    assert handle.gamma == omega_pow(zeta)
    outer = Base(ONE + zeta)
    path, node, count = [], None, 0
    for j in range(1, len(E) + 1):
        blocks = split_blocks(Base(xi), E[:j])
        if len(blocks) > count:
            target = node_rank_exact(outer, tuple(b[0] for b in blocks))
            candidates = handle.roots() if node is None else handle.children(node)
            node = next(c for c in candidates if handle.residual_rank(c) >= target)
            count = len(blocks)
        path.append(node)
    return path


def epigraph_reference(E, n: int):
    """The split-variable epigraph rows ``(A, lo, hi)`` of the
    projective-norm LP for the sign rows ``E``, built one entry at a
    time: ``(eps_p^T B)_j - a_pj + c_pj = 0`` for each sign row p and
    column j, then ``sum_j (a_pj + c_pj) <= 1`` for each p."""
    P, m = E.shape
    rows_i, cols_i, vals = [], [], []
    pair = m * n  # column of a_00; c_pj follows a_pj
    r = 0
    for p in range(P):
        for j in range(n):
            for i in range(m):
                rows_i.append(r)
                cols_i.append(i * n + j)
                vals.append(E[p, i])
            for k, sign in enumerate((-1.0, 1.0)):
                rows_i.append(r)
                cols_i.append(pair + 2 * (p * n + j) + k)
                vals.append(sign)
            r += 1
    for p in range(P):
        for j in range(n):
            for k in range(2):
                rows_i.append(r)
                cols_i.append(pair + 2 * (p * n + j) + k)
                vals.append(1.0)
        r += 1
    A = sparse.csr_matrix((vals, (rows_i, cols_i)), shape=(r, m * n + 2 * P * n))
    lo = np.array([0.0] * (P * n) + [-np.inf] * P)
    hi = np.array([0.0] * (P * n) + [1.0] * P)
    return A, lo, hi


def two_sided_epigraph(E, n: int):
    """The earlier l1-epigraph constraints ``(A, b)``, ``A x <= b``, of
    the projective-norm LP for the sign rows ``E``, built one entry at a
    time: ``+-(eps_p^T B)_j - t_pj <= 0``, two one-sided rows for each
    sign row p and column j, then ``sum_j t_pj <= 1`` for each p."""
    P, m = E.shape
    rows_i, cols_i, vals = [], [], []
    r = 0
    for p in range(P):
        for j in range(n):
            for sign in (1.0, -1.0):
                for i in range(m):
                    rows_i.append(r)
                    cols_i.append(i * n + j)
                    vals.append(sign * E[p, i])
                rows_i.append(r)
                cols_i.append(m * n + p * n + j)
                vals.append(-1.0)
                r += 1
    for p in range(P):
        for j in range(n):
            rows_i.append(r)
            cols_i.append(m * n + p * n + j)
            vals.append(1.0)
        r += 1
    A = sparse.csr_matrix((vals, (rows_i, cols_i)), shape=(r, m * n + P * n))
    b = np.concatenate([np.zeros(2 * P * n), np.ones(P)])
    return A, b


def two_sided_pi_norm(u) -> float:
    """The projective norm of u from the two-sided epigraph LP of the
    whole model, no normal form, solved by ``scipy.optimize.linprog``;
    the value is read as ``<B, U>``."""
    U = np.asarray(u, dtype=float)
    if U.shape[0] > U.shape[1]:
        U = U.T
    if not U.any():
        return 0.0
    m, n = U.shape
    E = np.array([(1.0,) + signs for signs in product((-1.0, 1.0), repeat=m - 1)])
    A, b = two_sided_epigraph(E, n)
    cost = np.zeros(A.shape[1])
    cost[: m * n] = -U.reshape(-1) / np.abs(U).max()
    bounds = [(-1.0, 1.0)] * (m * n) + [(0.0, 1.0)] * (A.shape[1] - m * n)
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(np.sum(res.x[: m * n].reshape(m, n) * U))


def weak_1_reference(us) -> float:
    """The weak-1 projective norm with a fresh ``pi_norm`` for each sign
    vector, the first sign fixed, so no LP is shared or reused."""
    stack = np.stack([np.asarray(u, dtype=float) for u in us])
    best = 0.0
    for signs in product((-1.0, 1.0), repeat=len(stack) - 1):
        best = max(best, pi_norm(np.tensordot((1.0,) + signs, stack, axes=1))[0])
    return best


def weak_2_reference(us, *, samples: int = 64, seed: int = 0, ascent_steps: int = 8):
    """The seeded weak-2 lower bound with every point solved by a fresh
    ``pi_norm``, so no LP answer is reused."""
    stack = np.stack([np.asarray(u, dtype=float) for u in us])
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    k = len(stack)
    rng = np.random.default_rng(seed)
    starts = [np.eye(k)[i] for i in range(k)]
    for _ in range(samples):
        v = rng.standard_normal(k)
        norm = np.linalg.norm(v)
        if norm > 0:
            starts.append(v / norm)
    best = 0.0
    for a in starts:
        val, cert = pi_norm(np.tensordot(a, stack, axes=1))
        best = max(best, val)
        for _ in range(ascent_steps):
            g = np.array([float(np.sum(cert.matrix * m)) for m in stack])
            norm = np.linalg.norm(g)
            if norm == 0:
                break
            a_new = g / norm
            new_val, new_cert = pi_norm(np.tensordot(a_new, stack, axes=1))
            if new_val <= val + 1e-12:
                break
            val, cert, a = new_val, new_cert, a_new
            best = max(best, val)
    return best


# -- the block walk and stream reads, one element at a time -------------


class StepwiseTuple:
    """Finite sequence; IndexError past its end cuts the block."""

    def __init__(self, seq):
        self.seq = seq

    def get(self, i: int) -> int:
        if i >= len(self.seq):
            raise IndexError
        return self.seq[i]


def stepwise_block_end(xi, source, start: int) -> int:
    """Index just past the maximal S_xi block from ``start``, consuming
    every element of a run of singletons on its own."""
    pos = start
    stack = [[xi, 1]]
    while stack:
        frame = stack[-1]
        if frame[1] == 0:
            stack.pop()
            continue
        level = frame[0]
        try:
            m = source.get(pos)
        except IndexError:
            return pos
        frame[1] -= 1
        if level.is_zero():
            pos += 1
            continue
        stack.append(list(level_step(level, m)))
    return pos


class StepwiseMinima:
    """The minima of successive S_xi blocks; past the end of a finite
    source every further position is its end."""

    def __init__(self, xi, source, start: int):
        self._xi = xi
        self._source = source
        self._positions = [start]

    def get(self, i: int) -> int:
        return self._source.get(self.position(i))

    def position(self, i: int) -> int:
        while len(self._positions) <= i:
            self._positions.append(
                stepwise_block_end(self._xi, self._source, self._positions[-1])
            )
        return self._positions[i]


def stepwise_take_block(fam, source, start: int) -> int:
    if isinstance(fam, Base):
        return stepwise_block_end(fam.xi, source, start)
    view = StepwiseMinima(fam.xi, source, start)
    return view.position(stepwise_block_end(fam.zeta, view, 0))


def stepwise_block_len(fam, seq, start: int) -> int:
    return stepwise_take_block(fam, StepwiseTuple(seq), start) - start


class StepwiseStream:
    """Strictly increasing integer stream read one element at a time."""

    def __init__(self, source, max_elements=None):
        self._it = iter(source)
        self._buf = []
        self._budget = max_elements

    def get(self, i: int) -> int:
        while len(self._buf) <= i:
            if self._budget is not None and len(self._buf) >= self._budget:
                raise BudgetExceeded(
                    f"block needs more than {self._budget} stream elements"
                )
            try:
                v = operator.index(next(self._it))
            except StopIteration:
                raise StreamExhausted(
                    f"stream ended after {len(self._buf)} elements"
                ) from None
            if v < 1 or (self._buf and v <= self._buf[-1]):
                raise ValueError("stream must be strictly increasing and positive")
            self._buf.append(v)
        return self._buf[i]


def stepwise_decompose(fam, stream, k: int, *, max_elements=None):
    """First k blocks of the decomposition, walked and read stepwise."""
    if max_elements is not None and max_elements < 1:
        raise ValueError(f"block budget max_elements must be at least 1, got {max_elements}")
    bs = StepwiseStream(stream, max_elements)
    blocks = []
    pos = 0
    try:
        for _ in range(k):
            end = stepwise_take_block(fam, bs, pos)
            bs.get(end - 1)
            blocks.append(tuple(bs._buf[pos:end]))
            pos = end
    except (StreamExhausted, BudgetExceeded) as e:
        e.blocks = tuple(blocks)
        raise
    return tuple(blocks)


# -- the weight descent and identities -----------------------------------


def prefix_descent_reference(level, inner, E) -> list[int]:
    """The descent product of every initial segment of E, with a greedy
    split at every non-zero level: the descent without the shortcut for
    segments no longer than their minimum."""
    out = [1] * len(E)
    stack = [(as_ordinal(level), 0, len(E), 1)]
    while stack:
        level, a, b, r = stack.pop()
        if level.is_zero():
            out[a:b] = [r] * (b - a)
            continue
        c = a
        fam = Base(level) if inner is None else Conv(level, inner)
        for block in split_blocks(fam, E[a:b]):
            d = c + len(block)
            below, count = level_step(level, E[c])
            stack.append((below, c, d, r * count))
            c = d
    return out


def verify_perm_reference(xi, zeta, blocks) -> PermReport:
    """``verify_perm`` evaluated on the weights themselves: p as
    Fractions and q as Weights, compared prefix by prefix."""
    xi, zeta = as_ordinal(xi), as_ordinal(zeta)
    conv = Conv(zeta, xi)
    blocks = tuple(as_finite_set(b) for b in blocks)
    for b in blocks:
        if not member(conv, b) or not is_maximal(conv, b):
            raise ValueError(f"{b} is not a maximal block of the convolution")
    full = tuple(chain.from_iterable(blocks))

    inner_bounds = []
    pos = 0
    for b in split_blocks(Base(xi), full):
        pos += len(b)
        inner_bounds.append(pos)
    conv_bounds = []
    pos = 0
    for b in blocks:
        pos += len(b)
        conv_bounds.append(pos)

    p_full = p_prefix_weights(xi, full)
    q_full = q_prefix_weights(xi, zeta, full)

    def check_perm(values_full, bounds, evaluate):
        for cut in bounds[:-1]:
            suffix_values = evaluate(full[cut:])
            for j in range(cut + 1, len(full) + 1):
                if values_full[j - 1] != suffix_values[j - cut - 1]:
                    return False
        return True

    if xi.is_zero():
        perm_p = all(p == 1 for p in p_full)
    else:
        perm_p = check_perm(p_full, inner_bounds, lambda s: p_prefix_weights(xi, s))
    if zeta.is_zero():
        perm_q = all(q == Weight(Fraction(1)) for q in q_full)
    else:
        perm_q = check_perm(
            q_full, conv_bounds, lambda s: q_prefix_weights(xi, zeta, s)
        )

    convex = True
    for a, b in zip([0] + inner_bounds, inner_bounds):
        total = sum(p_full[a:b], Fraction(0))
        convex = convex and total == 1

    l2_convex = True
    for a, b in zip([0] + conv_bounds, conv_bounds):
        seg_starts = [a] + [p for p in inner_bounds if a < p < b] + [b]
        total = Fraction(0)
        constant_q = True
        for sa, sb in zip(seg_starts, seg_starts[1:]):
            qs = q_full[sa:sb]
            constant_q = constant_q and all(q == qs[0] for q in qs)
            psum = sum(p_full[sa:sb], Fraction(0))
            total += qs[0].square() * psum * psum
        l2_convex = l2_convex and constant_q and total == 1

    return PermReport(perm_p, perm_q, convex, l2_convex)


# -- derived-tree node ranks ---------------------------------------------


def node_rank_brute(fam, E, trunc: int) -> int:
    """Derived-tree iteration on the truncated family tree.

    Materializes the subtree of the family tree rooted at E (extensions
    of E by elements <= trunc) and repeatedly removes maximal nodes; the
    result is the number of rounds E survives.  Ranks are local: the
    round at which E disappears depends only on its subtree.
    """
    E = as_finite_set(E)
    if not E:
        raise ValueError("rank of the empty node is not defined")
    if not member(fam, E):
        raise ValueError(f"{E} is not a member of the family")
    children: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    stack = [E]
    while stack:
        node = stack.pop()
        kids = [
            node + (m,)
            for m in range(node[-1] + 1, trunc + 1)
            if member(fam, node + (m,))
        ]
        children[node] = kids
        stack.extend(kids)
    remaining = {node: len(kids) for node, kids in children.items()}
    parent = {kid: node for node, kids in children.items() for kid in kids}
    frontier = [node for node, cnt in remaining.items() if cnt == 0]
    rank = 0
    while E not in frontier:
        next_frontier = []
        for node in frontier:
            p = parent[node]
            remaining[p] -= 1
            if remaining[p] == 0:
                next_frontier.append(p)
        frontier = next_frontier
        rank += 1
    return rank


def finite_node_ranks(nodes) -> dict[tuple, int]:
    """Per-node ranks of a finite tree: the round at which each node is
    removed under iterated maximal-node deletion."""
    T = {tuple(t) for t in nodes}
    for t in T:
        if len(t) > 1 and t[:-1] not in T:
            raise ValueError(f"not prefix-closed: missing {t[:-1]}")
    ranks: dict[tuple, int] = {}
    r = 0
    while T:
        parents = {t[:-1] for t in T if len(t) > 1}
        for t in T - parents:
            ranks[t] = r
        T &= parents
        r += 1
    return ranks
