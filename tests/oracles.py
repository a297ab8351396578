"""Brute-force oracles used to validate the library's fast evaluators.

Membership is decided by exhaustive search over all partitions of a set
into consecutive blocks, directly following the recursive definitions;
weights are computed by a definition-literal recursion driven by that
membership test.  Everything here is exponential and meant for small
ground sets only.  The remaining oracles are the plain definitions that
the library's fast paths replace: the recursive CNF comparison, interval
unions as point sets, Cantor-scheme cells by whole-union intersection,
the block map with every prefix split on its own, the spreads of a
set listed one by one, the projective-norm epigraph matrix built entry
by entry, and the weak-2 ascent with a fresh LP for every step.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
from scipy import sparse

from ordtensor.ordinal import ONE, as_ordinal, omega_pow
from ordtensor.schreier import Base, Conv, node_rank_exact, split_blocks
from ordtensor.space import union_intersect
from ordtensor.tensor import pi_norm


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
                cells[d + (eps,)] = union_intersect(cells[d], f.preimage(float(eps)))
    return cells


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
    """The l1-epigraph constraints ``(A, b)`` of the projective-norm LP
    for the sign rows ``E``, built one entry at a time."""
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
