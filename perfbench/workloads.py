"""The three benchmark workloads: seeded inputs, the calls, the checks.

Every workload is a fixed list of work items made from ``--seed``
before timing starts.  An item is prepared (arguments built from
earlier results, untimed), called (timed: one public ordtensor call),
then checked (untimed, inside a ``check.*`` span).  The library is
reached through module attributes at call time, so the tracer's
patches apply, and the benchmark's checks avoid the library's caches so
that checking does not warm them.

Why each workload exists:

* ``verify_all`` is exactly the command users run,
  ``ordtensor verify all``.  The sharpness (1,1,2) instance dominates
  it, so ordinal, space, trees and harness do most of the work and
  tensor little.
* ``lp_mix`` exercises only the tensor layer: projective norms of
  dense, rank-1 and disjoint-support models with min side 2 to 10, on
  both sides of the epigraph/cutting-plane switch (10x10 takes the
  cutting route), next to weak-1 families that reuse one ``PiSolver``.
* ``combinatorics`` exercises only schreier and weights, which are
  exact and LP-free: long block materialization under the default
  5000-element budget sits beside point queries, so a change that helps
  one and costs the other shows, and a fixed share of repeated query
  sets exercises the ``_member``, ``_p`` and ``_q`` caches.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from hostmeter import LpProbe, PythonProbe


@dataclass
class Outcome:
    """Checked results of one item: counts of results, not of items."""

    attempted: int = 1
    failed: int = 0
    skipped: int = 0
    exact: int = 0  # passed results whose check was exact
    passed: int = 0
    notes: list = field(default_factory=list)


def ok(exact: bool) -> Outcome:
    return Outcome(exact=int(exact), passed=1)


def fail(note: str) -> Outcome:
    return Outcome(failed=1, notes=[note])


def skip() -> Outcome:
    return Outcome(skipped=1)


@dataclass
class Item:
    kind: str
    args: tuple


# -- verify_all --------------------------------------------------------

# check ids emitted by ``verify all``; every one must stay present
VERIFY_ALL_CHECK_IDS = frozenset(
    """
    averages-block-error averages-weak-1-bound biorthogonal-lower-bound
    block-map-constancy cantor-scheme-compatibility cross-norm-single
    disjoint-supports disjoint-tensor-weak-2 family-hereditary
    family-inclusion-shift family-spreading family-successor-convolution
    fundamental-sequence-inclusion grothendieck-one-sided
    rademacher-biorthogonality rademacher-gram-orthogonality
    rademacher-weak-2 staircase-weak-2 staircase-weak-2-half
    tensor-dual-pairing-one tensor-pi-lower-bound tensor-pi-lower-bound-exact
    weak-2-column-formula weights-block-materialization
    weights-convex-sum-one weights-l2-sum-one weights-permanence-p
    weights-permanence-q
    """.split()
)


def check_verify_report(rc, report: dict | None, expected_ids=VERIFY_ALL_CHECK_IDS) -> Outcome:
    """One result per report check, plus one for a missing id or a bad exit code."""
    checks = [c for r in (report or {}).get("reports", []) for c in r["checks"]]
    out = Outcome(attempted=len(checks), passed=0)
    for c in checks:
        if c["skipped"]:
            out.skipped += 1
        elif c["passed"]:
            out.passed += 1
            out.exact += bool(c["exact"])
        else:
            out.failed += 1
            out.notes.append(f"check {c['check_id']} ({c['name']}) failed")
    missing = expected_ids - {c["check_id"] for c in checks}
    for cid in sorted(missing):
        out.attempted += 1
        out.failed += 1
        out.notes.append(f"check id {cid} missing")
    if rc != (1 if out.failed else 0) or report is None:
        out.attempted += 1
        out.failed += 1
        out.notes.append(f"exit code {rc}")
    return out


class VerifyAll:
    name = "verify_all"
    probe = PythonProbe
    tail_pct = None  # one item per pass: the tail is the maximum
    min_passes = 1

    def __init__(self, seed: int, scratch: Path):
        self.out = scratch / f"verify-all-{seed}.json"
        self.argv = ["verify", "all", "--seed", str(seed), "--out", str(self.out)]

    def items(self):
        return [Item("verify_all", ())]

    def prepare(self, item, ctx):
        if self.out.exists():
            self.out.unlink()
        return ()

    def call(self, item, args):
        from ordtensor import harness

        return harness.main(list(self.argv))

    def check(self, item, args, result, error, ctx):
        if error is not None:
            return fail(f"verify all raised {error!r}")
        try:
            report = json.loads(self.out.read_text())
        except (OSError, ValueError):
            report = None
        return check_verify_report(result, report)


# -- lp_mix ------------------------------------------------------------

LP_TOL = 1e-9
# Every model and family is a fixed draw from its own pool seed, and the
# run's seed applies an isometry (row and column permutations, sign
# flips, transpose) that leaves every norm unchanged to the small models
# and the families, then orders the items.  LP time moves with the
# entries: up to 3x between random 10x10 draws, and between seeds by
# about a fifth at the median item when the small models were seeded
# draws, twice the spread that one seed shows from run to run.
#
# large models (min side 7 to 10): the slowest tenth of the items, so
# the p90 tail sits on them.  They keep their draw as it is: an isometry
# moves one large solve's time by up to 1.6x, and with seven of them
# the tail spread by 0.12 over five seeds
LARGE = [
    (7, 12, "dense", 1000),
    (8, 8, "dense", 1000),
    (8, 10, "disjoint", 1000),
    (8, 11, "disjoint", 1000),
    (8, 12, "outer", 1000),
    (9, 9, "outer", 1000),
    (10, 10, "dense", 1002),
]
# small models: min side 2 to 6, each model, three aspect ratios
SMALL_SIDES = range(2, 7)
MODELS = ("dense", "outer", "disjoint")
SMALL_POOL = 2000  # pool seed of the first small model; the rest count up
FAMILY_POOL = 3000
# weak-1 families: (rows, cols, k, model), k <= 6 keeps 2^(k-1) solves
# small; a disjoint family puts each rows x cols rank-1 member on its own
# rows and columns
FAMILIES = [
    (3, 3, 6, "dense"),
    (2, 5, 6, "dense"),
    (4, 4, 5, "dense"),
    (5, 5, 4, "dense"),
    (6, 6, 3, "dense"),
    (4, 5, 5, "outer"),
    (1, 2, 5, "disjoint"),
    (2, 2, 3, "disjoint"),
]


def _model(rng, m: int, n: int, model: str):
    """A matrix and, for rank-1 models, its exact projective norm."""
    if model == "outer":
        x, y = rng.uniform(-1, 1, m), rng.uniform(-1, 1, n)
        return np.outer(x, y), float(np.abs(x).max() * np.abs(y).max())
    if model == "dense":
        return rng.uniform(-1, 1, (m, n)), None
    # two blocks on disjoint rows and columns
    U = np.zeros((m, n))
    r, c = max(1, m // 2), max(1, n // 2)
    U[:r, :c] = rng.uniform(-1, 1, (r, c))
    U[r:, c:] = rng.uniform(-1, 1, (m - r, n - c))
    return U, None


def _isometry(rng, mats):
    """One random isometry of the sup-norm models, applied to every matrix."""
    m, n = mats[0].shape
    rows, cols = rng.permutation(m), rng.permutation(n)
    signs = rng.choice((-1.0, 1.0), m)[:, None] * rng.choice((-1.0, 1.0), n)[None, :]
    out = [U[rows][:, cols] * signs for U in mats]
    return [V.T.copy() for V in out] if rng.random() < 0.5 else out


def _disjoint_rank1_family(rng, k: int, r: int, c: int):
    """k rank-1 matrices on pairwise disjoint row and column blocks.

    Every signed sum is block diagonal with rank-1 blocks, and the
    projective norm of a block-diagonal matrix over sup-norm models is
    the largest block norm, so the weak-1 norm is exactly the largest
    ``max|x| * max|y|``.
    """
    mats, best = [], 0.0
    for i in range(k):
        x, y = rng.uniform(-1, 1, r), rng.uniform(-1, 1, c)
        U = np.zeros((k * r, k * c))
        U[i * r : (i + 1) * r, i * c : (i + 1) * c] = np.outer(x, y)
        mats.append(U)
        best = max(best, float(np.abs(x).max() * np.abs(y).max()))
    return mats, best


def _signs(k: int) -> np.ndarray:
    return np.array([(1.0,) + s for s in itertools.product((-1.0, 1.0), repeat=k - 1)])


def sign_norm(B) -> float:
    """Bilinear-form norm over sup-norm balls, by enumeration (benchmark's own)."""
    B = np.asarray(B, dtype=float)
    if B.shape[0] > B.shape[1]:
        B = B.T
    return float(np.abs(_signs(B.shape[0]) @ B).sum(axis=1).max())


def check_pi(U, value, cert_matrix, expected, decomposition) -> Outcome:
    """The checks on one projective norm; ``decomposition`` is its value or None."""
    U = np.asarray(U, dtype=float)
    scale = max(1.0, abs(value))
    lo, hi = float(np.abs(U).max()), float(np.abs(U).sum())
    if not lo - LP_TOL * scale <= value <= hi + LP_TOL * scale:
        return fail(f"pi {value!r} outside [eps {lo!r}, l1 {hi!r}]")
    sn = sign_norm(cert_matrix)
    if sn > 1 + LP_TOL:
        return fail(f"certificate sign norm {sn!r} > 1 + {LP_TOL}")
    gap = value - float(np.sum(np.asarray(cert_matrix) * U)) / max(sn, 1.0)
    if abs(gap) > LP_TOL * scale:
        return fail(f"duality gap {gap!r} exceeds {LP_TOL}")
    if expected is not None and abs(value - expected) > LP_TOL * scale:
        return fail(f"rank-1 value {value!r} != {expected!r}")
    if decomposition is not None and abs(value - decomposition) > LP_TOL * scale:
        return fail(f"pi {value!r} != decomposition {decomposition!r}")
    return ok(False)


def check_weak1(mats, value, expected) -> Outcome:
    stack = np.stack(mats)
    sums = np.tensordot(_signs(len(mats)), stack, axes=1)
    lo = float(np.abs(sums).max(axis=(1, 2)).max())
    hi = float(np.abs(sums).sum(axis=(1, 2)).max())
    scale = max(1.0, abs(value))
    if not lo - LP_TOL * scale <= value <= hi + LP_TOL * scale:
        return fail(f"weak-1 {value!r} outside [{lo!r}, {hi!r}]")
    if expected is not None and abs(value - expected) > LP_TOL * scale:
        return fail(f"disjoint weak-1 {value!r} != {expected!r}")
    return ok(False)


class LpMix:
    name = "lp_mix"
    probe = LpProbe
    tail_pct = 90  # the slowest tenth are the LARGE models
    min_passes = 2

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        small = [(m, n, model) for m in SMALL_SIDES for model in MODELS for n in (m, m + 1, m + 3)]
        models = [(m, n, model, SMALL_POOL + i) for i, (m, n, model) in enumerate(small)] + LARGE
        items = []
        for m, n, model, pool_seed in models:
            U, expected = _model(np.random.default_rng(pool_seed), m, n, model)
            if min(m, n) in SMALL_SIDES:
                U = _isometry(rng, [U])[0]
            items.append(Item("pi", (U, expected)))
        for i, (r, c, k, model) in enumerate(FAMILIES):
            pool = np.random.default_rng(FAMILY_POOL + i)
            if model == "disjoint":
                mats, expected = _disjoint_rank1_family(pool, k, r, c)
            else:
                mats = [_model(pool, r, c, model)[0] for _ in range(k)]
                expected = None
            mats = _isometry(rng, [mats[j] for j in rng.permutation(k)])
            items.append(Item("weak1", (mats, expected)))
        order = rng.permutation(len(items))
        self._items = [items[i] for i in order]

    def items(self):
        return self._items

    def prepare(self, item, ctx):
        return item.args

    def call(self, item, args):
        from ordtensor import tensor

        if item.kind == "pi":
            return tensor.pi_norm(args[0])
        return tensor.weak_1_norm_pi(args[0])

    def check(self, item, args, result, error, ctx):
        from ordtensor import tensor

        if error is not None:
            return fail(f"{item.kind} raised {error!r}")
        if item.kind == "weak1":
            return check_weak1(args[0], result, args[1])
        U, expected = args
        value, cert = result
        decomposition = None
        if min(U.shape) <= 4:
            decomposition = tensor.pi_norm_decomposition(U)[0]
        return check_pi(U, value, cert.matrix, expected, decomposition)


# -- combinatorics -----------------------------------------------------

BLOCK_BUDGET = 5000  # the library's default materialization budget
XIS = ("0", "1", "2", "3", "w", "w + 1")
ZETAS = ("0", "1", "2")
# streams start low: from a minimum of 4 on, most of these families need
# more than the budget, and a long block's size moves with every gap of
# its stream.  Each stream (and its block count) is a fixed draw from
# its own pool seed, and the run's seed orders the decompositions and
# draws every point query: over four seeds, the p99 item of one pass (a
# long decomposition or verify_perm call) ranged from 2.9 to 5.1 ms with
# seeded streams and from 4.6 to 5.1 ms with these
STARTS = (1, 2, 3)
STREAM_POOL = 4000  # pool seed of the first stream; the rest count up
# long blocks (about 2000 elements, within the budget) on consecutive
# streams: block length grows exponentially in the stream's values, and
# seeded gaps moved the per-pass time by half, so these stay fixed and
# the seed varies only the queries on them
LONG = [("1", "1", 2, 2), ("3", "0", 2, 1), ("1", "2", 2, 1), ("w", "0", 2, 1), ("2", "1", 2, 1), ("0", "2", 8, 1)]
QUERY_KINDS = ("member", "member", "is_maximal", "is_maximal", "p_weight", "p_weight", "q_weight", "q_weight")
QUERY_MAX = 256  # largest point-query set
# rounds of QUERY_KINDS per decomposition: about 2000 point queries per
# pass, so that the median item, a point query, moves little with the
# seed's draws (one round spread item_p50_s by a fifth across seeds)
QUERY_ROUNDS = 4
# p_weight at xi >= w recurses once per unit of its last block's minimum:
# at this commit a minimum of 250 takes 0.4 s and one of 500 raises
# RecursionError, so seeded p_weight query sets at those levels are drawn
# from elements below this cap, and no query fails ...
P_LIMIT_QUERY_MAX = 64
# ... while these fixed queries, (level, minimum) of a block of 8
# consecutive elements, keep the recursion's cost in every pass where it
# still succeeds (about 0.1 s and 0.2 s)
P_DEEP = [("w", 128), ("w + 1", 192)]
REPEATS_PER_ROUND = 3  # against 8 fresh queries: a fixed 3/11 share


def _stream(rng: random.Random, start: int) -> tuple[int, ...]:
    gaps = rng.choices((1, 2, 3), weights=(8, 3, 1), k=BLOCK_BUDGET - 1)
    return tuple(itertools.accumulate(gaps, initial=start))


def _is_conv_maximal(schreier, fam, block) -> bool:
    # member and greedy-maximal, through split_blocks so that the check
    # does not touch the membership cache
    if schreier.split_blocks(fam, block) != (block,):
        return False
    return schreier.split_blocks(fam, block + (block[-1] + 1,))[0] == block


def _sample(rng: random.Random, block: tuple[int, ...]) -> tuple[int, ...]:
    size = max(1, int(min(len(block), QUERY_MAX) ** rng.random()))
    return tuple(sorted(rng.sample(block, size)))


class Combinatorics:
    name = "combinatorics"
    probe = PythonProbe
    # the slowest 1% are long decompositions and verify_perm calls on the
    # fixed streams; p95 falls where the long point queries, which change
    # with the seed, meet them
    tail_pct = 99
    min_passes = 2

    def __init__(self, seed: int, scratch: Path):
        from ordtensor.ordinal import parse_ordinal

        rng = random.Random(seed)
        specs = []
        for i, (xi, zeta, start) in enumerate(itertools.product(XIS, ZETAS, STARTS + STARTS)):
            pool = random.Random(STREAM_POOL + i)
            specs.append((xi, zeta, _stream(pool, start), pool.choice((1, 2))))
        specs += [(xi, zeta, tuple(range(start, start + BLOCK_BUDGET)), k) for xi, zeta, start, k in LONG]
        rng.shuffle(specs)
        items = []
        queries = []
        for d, (xi, zeta, stream, k) in enumerate(specs):
            spec = (d, parse_ordinal(xi), parse_ordinal(zeta))
            items.append(Item("decompose", spec + (stream, k)))
            for kind in ("split_blocks", "p_prefix_weights", "q_prefix_weights", "verify_perm"):
                items.append(Item(kind, spec))
            for _ in range(QUERY_ROUNDS):
                fresh = [Item(kind, spec + (rng.getrandbits(32),)) for kind in QUERY_KINDS]
                queries.extend(fresh)
                items.extend(fresh)
                for _ in range(REPEATS_PER_ROUND):
                    items.append(rng.choice(queries))
        for xi, low in P_DEEP:
            items.append(Item("p_weight_deep", (parse_ordinal(xi), tuple(range(low, low + 8)))))
        self._items = items

    def items(self):
        return self._items

    def prepare(self, item, ctx):
        from ordtensor.schreier import Base, Conv

        if item.kind == "p_weight_deep":
            return item.args
        d, xi, zeta = item.args[:3]
        fam = Conv(zeta, xi)
        if item.kind == "decompose":
            return (fam, iter(item.args[3]), item.args[4])
        blocks = ctx.get(("blocks", d))
        if blocks is None:
            return None  # the decomposition was skipped or failed
        full = tuple(itertools.chain.from_iterable(blocks))
        if item.kind == "split_blocks":
            return (Base(xi), full)
        if item.kind == "p_prefix_weights":
            return (xi, full)
        if item.kind == "q_prefix_weights":
            return (xi, zeta, full)
        if item.kind == "verify_perm":
            return (xi, zeta, blocks)
        key = ("query", id(item))
        if key not in ctx:  # a repeated query reuses the set it drew first
            rng = random.Random(item.args[3])
            block = rng.choice(blocks)
            if item.kind == "is_maximal":
                cut = rng.randrange(1, len(block) + 1)
                ctx[key] = (fam, block[:cut])
            elif item.kind == "member":
                ctx[key] = (fam, _sample(rng, block))
            elif item.kind == "p_weight":
                if not xi.is_finite():
                    block = tuple(x for x in block if x < P_LIMIT_QUERY_MAX) or block[:1]
                ctx[key] = (xi, _sample(rng, block))
            else:
                ctx[key] = (xi, zeta, _sample(rng, block))
        return ctx[key]

    def call(self, item, args):
        from ordtensor import schreier, weights

        if item.kind == "decompose":
            fam, stream, k = args
            return schreier.decompose(fam, stream, k, max_elements=BLOCK_BUDGET)
        if item.kind in ("split_blocks", "member", "is_maximal"):
            return getattr(schreier, item.kind)(*args)
        if item.kind == "verify_perm":
            return weights.verify_perm(*args).all_pass()
        if item.kind == "p_weight_deep":
            return weights.p_weight(*args)
        return getattr(weights, item.kind)(*args)

    def check(self, item, args, result, error, ctx):
        from ordtensor import schreier, weights

        d = item.args[0]
        if item.kind == "decompose":
            if isinstance(error, schreier.BudgetExceeded):
                return skip()
            if error is not None:
                return fail(f"decompose raised {error!r}")
            fam, _, k = args
            stream = item.args[3]
            full = tuple(itertools.chain.from_iterable(result))
            if len(result) != k or full != stream[: len(full)]:
                return fail(f"decomposition {d} is not {k} blocks of the stream")
            for b in result:
                if not _is_conv_maximal(schreier, fam, b):
                    return fail(f"decomposition {d} block {b[:4]}... is not maximal")
            ctx[("blocks", d)] = result
            return ok(True)
        if error is not None:
            return fail(f"{item.kind} raised {error!r}")
        if item.kind == "split_blocks":
            blocks = ctx[("blocks", d)]
            full = args[1]
            if tuple(itertools.chain.from_iterable(result)) != full:
                return fail(f"split of decomposition {d} does not cover it")
            # every convolution block is a union of whole inner blocks
            inner_ends = set(itertools.accumulate(len(b) for b in result))
            if not set(itertools.accumulate(len(b) for b in blocks)) <= inner_ends:
                return fail(f"split of decomposition {d} crosses a block boundary")
            ctx[("inner", d)] = result
            return ok(True)
        if item.kind == "p_prefix_weights":
            full = args[1]
            if len(result) != len(full):
                return fail(f"p prefix weights of decomposition {d} have the wrong length")
            # p sums to 1 over every inner block of a maximal block
            pos = 0
            for b in ctx.get(("inner", d), ()):
                if sum(result[pos : pos + len(b)], Fraction(0)) != 1:
                    return fail(f"p weights of decomposition {d} do not sum to 1 on a block")
                pos += len(b)
            ctx[("p", d)] = result
            return ok(True)
        if item.kind == "q_prefix_weights":
            full = args[2]
            if len(result) != len(full):
                return fail(f"q prefix weights of decomposition {d} have the wrong length")
            p = ctx.get(("p", d))
            inner = ctx.get(("inner", d))
            if p is not None and inner is not None:
                ends = list(itertools.accumulate(len(b) for b in inner))
                pos = 0
                for b in ctx[("blocks", d)]:
                    total, seg = Fraction(0), pos
                    for end in ends:
                        if pos < end <= pos + len(b):
                            total += result[seg].square() * sum(p[seg:end], Fraction(0)) ** 2
                            seg = end
                    if total != 1:
                        return fail(f"q weights of decomposition {d} miss the l2 identity")
                    pos += len(b)
            return ok(True)
        if item.kind == "verify_perm":
            return ok(True) if result is True else fail(f"verify_perm failed on decomposition {d}")
        E = args[-1]
        if item.kind == "member":
            # every subset of a maximal block is a member (hereditary)
            return ok(True) if result is True else fail(f"subset {E[:4]}... of a block is not a member")
        if item.kind == "is_maximal":
            # a whole block is maximal; a proper prefix extends by a spread
            block_end = any(E == b for b in ctx[("blocks", d)])
            return ok(True) if result is block_end else fail(f"is_maximal({E[:4]}...) = {result}")
        if item.kind in ("p_weight", "p_weight_deep"):
            expected = weights.p_prefix_weights(args[0], E)[-1]
        else:
            expected = weights.q_prefix_weights(args[0], args[1], E)[-1]
        return ok(True) if result == expected else fail(f"{item.kind}({E[:4]}...) = {result} != {expected}")


WORKLOADS = {w.name: w for w in (VerifyAll, LpMix, Combinatorics)}
