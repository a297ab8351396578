"""Command-line orchestration and verification scenarios.

Builds the constructions end to end, runs exact and numerical checks,
and emits machine-readable reports (JSON with an optional CSV
flattening).  A run exits nonzero when any non-skipped check fails.

Large instances are guarded by explicit materialization budgets; blocks
whose completion would exceed the budget are reported as skipped rather
than silently truncated, since several block decompositions grow
astronomically within the first few blocks.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from itertools import chain, count, groupby
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .ordinal import OMEGA, ONE, Ordinal, as_ordinal, omega_pow, parse_ordinal
from .schreier import (
    Base,
    BudgetExceeded,
    Conv,
    StreamExhausted,
    as_finite_set,
    decompose,
    family_str,
    is_maximal,
    least_shift,
    member,
    members,
    parse_family,
    split_blocks,
)
from .space import (
    Iv,
    StepFunction,
    compatible,
    default_selector,
    disjoint,
    rademacher,
    values_at,
    weak2_norm_squared_exact,
    weak_1_norm_exact,
)
from .tensor import (
    MAX_LP_SIDE,
    eps_norm,
    pi_norm,
    weak_1_norm_pi,
    weak_2_norm_pi_lower,
)
from .trees import block_map_path, build_tree, cantor_scheme, scheme_of
from .weights import (
    RadicalSum,
    Weight,
    avg,
    p_prefix_weights,
    p_weight,
    q_prefix_weights,
    q_weight,
    verify_perm,
)

GROTHENDIECK_BOUND = 1.78222  # upper bound for the real constant; all
# comparisons against it are one-sided (computed lower bounds must stay below)

LP_TOL = 1e-9


# -- report plumbing ----------------------------------------------------


@dataclass
class Check:
    name: str
    check_id: str
    relation: str
    computed: str
    passed: bool
    exact: bool
    skipped: bool = False
    detail: str = ""


# a tolerance widens the bound; "==" with one reads |value - bound| <= tol
_OPS = {
    "==": lambda v, b, tol: abs(v - b) <= tol if tol else v == b,
    "<=": lambda v, b, tol: v <= b + tol,
    ">=": lambda v, b, tol: v >= b - tol,
    "is": lambda v, b, tol: v is b,
}


@dataclass
class Report:
    scenario: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    wall_time_s: float = 0.0

    def holds(self, name: str, check_id: str, relation: str, fact: bool, detail=""):
        """A yes/no fact, printed as ``True`` or ``False``."""
        self.compare(name, check_id, relation, fact, "is", True, detail=detail)

    def compare(self, name: str, check_id: str, relation: str, value, op: str, bound,
                fmt="", *, tol=0, also=None, detail=""):
        """Judge ``value op bound`` (see ``_OPS``) and each claim ``(value,
        op, bound)`` of ``also``: the check passes when all hold, and it is
        exact when no float takes part in them.  ``computed`` is ``value``
        in the format spec ``fmt``, or, when ``fmt`` has braces, the
        template ``fmt`` filled with ``value``, ``bound`` and the values of
        ``also`` by name."""
        also = also or {}
        claims = [(value, op, bound, tol)] + [(*c, 0) for c in also.values()]
        shown = {"value": value, "bound": bound} | {k: c[0] for k, c in also.items()}
        computed = fmt.format(**shown) if "{" in fmt else format(value, fmt)
        passed = all(_OPS[o](v, b, t) for v, o, b, t in claims)
        exact = not any(isinstance(x, float) for c in claims for x in c)
        self.checks.append(Check(name, check_id, relation, computed, passed, exact, detail=detail))

    def skip(self, name: str, check_id: str, reason: str):
        self.checks.append(
            Check(name, check_id, "skipped", "-", True, True, True, reason)
        )

    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def to_dict(self, include_wall_time: bool = True) -> dict:
        d = {
            "scenario": self.scenario,
            "parameters": dict(sorted(self.parameters.items())),
            "checks": [asdict(c) for c in self.checks],
            "passed": self.passed(),
        }
        if include_wall_time:
            d["wall_time_s"] = round(self.wall_time_s, 6)
        return d


def reports_to_json(reports: list[Report], include_wall_time: bool = True) -> str:
    payload = {
        "reports": [r.to_dict(include_wall_time) for r in reports],
        "passed": all(r.passed() for r in reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_to_csv(reports: list[Report]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["scenario", "check", "check_id", "relation", "computed", "passed", "exact", "skipped", "detail"]
    )
    for r in reports:
        for c in r.checks:
            writer.writerow(
                [r.scenario, c.name, c.check_id, c.relation, c.computed, c.passed, c.exact, c.skipped, c.detail]
            )
    return buf.getvalue()


@dataclass
class ScenarioConfig:
    xi: str = field(default="0", metadata={"help": "ordinal literal, e.g. 'w^2*3 + 1'"})
    zeta: str = field(default="0", metadata={"help": "ordinal literal"})
    stream: str = field(default="3", metadata={"help": "stream literal, e.g. '3' or '2,5,...'"})
    max_root: int = 10
    block_budget: int = 5000
    blocks: int = 3
    samples: int = 24
    seed: int = 0
    eps: str = "1/100"
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        """The input rules shared by the scenarios; the limits of what a
        scenario supports stay in its body."""
        for name in ("blocks", "samples", "block_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        try:
            eps = Fraction(self.eps)
        except ZeroDivisionError:
            raise ValueError(f"eps {self.eps!r} has a zero denominator") from None
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        self.eps = str(eps)


def make_stream(text: str) -> Iterator[int]:
    """Parse a stream literal: ``"3"`` or ``"3,5,8,..."`` (trailing
    ellipsis continues by +1 steps) or a finite list ``"2,5,9"``."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    cont = False
    if parts and parts[-1] in ("...", ".."):
        cont = True
        parts = parts[:-1]
    values = [int(p) for p in parts]
    if not values:
        raise ValueError(f"empty stream literal {text!r}")
    if len(values) == 1:
        return count(values[0])
    if cont:
        return chain(values, count(values[-1] + 1))
    return iter(values)


class Scenario(NamedTuple):
    """A ``verify`` subcommand: its runner, and the config fields it reads,
    which are both its options and its report's parameters."""

    run: Callable[[ScenarioConfig], Report]
    reads: tuple[str, ...]


SCENARIOS: dict[str, Scenario] = {}


def _scenario(action: str, *reads: str, name: str | None = None):
    """Register ``body(cfg, rep)`` as ``verify action``.  The runner it
    becomes builds the report ``name`` (``action`` by default) with the
    fields ``reads`` of ``cfg`` as parameters, has ``body`` fill it, and
    sets its ``wall_time_s``."""

    def register(body):
        def run(cfg: ScenarioConfig) -> Report:
            t0 = time.perf_counter()
            rep = Report(name or action, {f: getattr(cfg, f) for f in reads})
            body(cfg, rep)
            rep.wall_time_s = time.perf_counter() - t0
            return rep

        # the body's name and docstring, but not its signature
        run.__name__, run.__qualname__, run.__doc__ = body.__name__, body.__qualname__, body.__doc__
        SCENARIOS[action] = Scenario(run, reads)
        return run

    return register


# -- weight identity suite ----------------------------------------------


@_scenario("perm", "xi", "zeta", "stream", "blocks", "block_budget")
def run_perm_suite(cfg: ScenarioConfig, rep: Report):
    """Exact verification of the four weight identities on one stream."""
    xi, zeta = parse_ordinal(cfg.xi), parse_ordinal(cfg.zeta)
    fam = Conv(zeta, xi)
    try:
        blocks = decompose(fam, make_stream(cfg.stream), cfg.blocks,
                           max_elements=cfg.block_budget)
    except BudgetExceeded as e:
        blocks = e.blocks
        k = len(blocks) + 1
        rep.skip(
            f"block-{k}",
            "weights-block-materialization",
            f"block {k} needs more than {cfg.block_budget} stream elements",
        )
    except StreamExhausted as e:
        blocks = e.blocks
        rep.skip(f"block-{len(blocks) + 1}", "weights-block-materialization", str(e))
    if blocks:
        result = verify_perm(xi, zeta, blocks)
        sizes = [len(b) for b in blocks]
        for label, ok, cid in [
            ("p-permanence", result.perm_p, "weights-permanence-p"),
            ("q-permanence", result.perm_q, "weights-permanence-q"),
            ("convex-block-sum", result.convex, "weights-convex-sum-one"),
            ("l2-block-sum", result.l2_convex, "weights-l2-sum-one"),
        ]:
            rep.holds(label, cid, "== 1 (exact rational)", ok, detail=f"block sizes {sizes}")


# -- family structure suite ----------------------------------------------


def _hereditary(members: set[tuple[int, ...]]) -> bool:
    """Whether the set system contains every subset of its members.

    Closure under deleting one element gives closure under all subsets,
    one deletion at a time.
    """
    return all(E[:i] + E[i + 1 :] in members for E in members for i in range(len(E)))


def _spreading(members: set[tuple[int, ...]], bound: int) -> bool:
    """Whether the set system contains every spread of its members within
    ``[1, bound]``.

    An elementary move raises one element by 1 and keeps the set strictly
    increasing and at most ``bound``.  Closure under elementary moves gives
    closure under spreads: raising the last element first, then the one
    before it, and so on, reaches any spread through spreads.
    """
    return all(
        E[:i] + (e + 1,) + E[i + 1 :] in members
        for E in members
        for i, (e, nxt) in enumerate(zip(E, E[1:] + (bound + 1,)))
        if e + 1 < nxt
    )


@_scenario("families")
def run_family_suite(cfg: ScenarioConfig, rep: Report):
    """Hereditary/spreading checks, the successor identity, and the
    empirical inclusion properties of the standard fundamental sequences."""
    rep.parameters["ground"] = 10
    ground = range(1, 11)
    families = [
        Base(1),
        Base(2),
        Base(3),
        Base(OMEGA),
        Base(OMEGA + 1),
        Conv(1, 1),
        Conv(2, 1),
    ]
    tables = {fam: members(fam, ground) for fam in families}
    for fam, table in tables.items():
        rep.holds(
            f"hereditary {family_str(fam)}",
            "family-hereditary",
            "all subsets of members are members",
            _hereditary(table),
            detail=f"{len(table)} members of [1,10]",
        )
        rep.holds(
            f"spreading {family_str(fam)}",
            "family-spreading",
            "all spreads of members are members",
            _spreading(table, 10),
        )
    for xi in (0, 1, 2):
        rep.holds(
            f"successor identity xi={xi}",
            "family-successor-convolution",
            "S_(xi+1) == S_1[S_xi] on subsets of [1,10]",
            tables[Base(xi + 1)] == members(Conv(1, xi), ground),
        )
    for lo, hi in [(1, 2), (2, 3), (1, OMEGA), (3, OMEGA), (OMEGA, OMEGA + 1)]:
        rep.compare(
            f"inclusion shift S[{as_ordinal(lo)}] -> S[{as_ordinal(hi)}]",
            "family-inclusion-shift",
            "least k with [k,10]-members included exists",
            least_shift(lo, hi, bound=10),
            "<=",
            10,
        )
    # empirical check of the characteristic-sequence inclusion for the
    # standard fundamental sequences (open question; report only)
    bound = 8
    small = range(1, bound + 1)
    for lam in (OMEGA, OMEGA.mul_nat(2), omega_pow(2), omega_pow(2) + OMEGA):
        for n in (1, 2, 3):
            fam_lo = Base(lam.fundamental(n) + ONE)
            fam_hi = Base(lam.fundamental(n + 1))
            rep.holds(
                f"fundamental inclusion {lam} at n={n}",
                "fundamental-sequence-inclusion",
                f"S[{lam.fundamental(n) + ONE}] within [1,{bound}] is inside S[{lam.fundamental(n + 1)}]",
                members(fam_lo, small) <= members(fam_hi, small),
            )


# -- sharpness: the lower-bound construction ------------------------------


def _common_denominator(values) -> tuple[list[int], int]:
    """Exact rationals (or dyadic floats) as integers over one denominator,
    read from each value's integer ratio; ``inf`` and ``nan`` raise."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _exact_dot(a: tuple[list[int], int], b: tuple[list[int], int]) -> Fraction:
    """Exact dot product of two :func:`_common_denominator` rows."""
    return Fraction(sum(map(operator.mul, a[0], b[0])), a[1] * b[1])


def _rademacher_system(funcs: list[StepFunction]):
    """The Cantor scheme of a branch's functions (root first), the
    selected point of each leaf cell in leaf order, and the Rademacher
    measures at those points."""
    scheme = scheme_of(funcs)
    selector = default_selector(scheme)
    return scheme, [selector[d] for d in scheme.leaves()], rademacher(scheme, selector)


@_scenario("sharpness", "xi", "zeta", "stream", "max_root", "block_budget", "seed")
def run_sharpness(cfg: ScenarioConfig, rep: Report):
    """Lower-bound verification for the square-root re-blocked average.

    Builds the finite truncation of the tensor collection: coordinate
    functions indexed by the stream's first maximal block on the row
    side, tree functions selected by the monotone block map on the
    column side.  Reports the exact dual pairing (must equal 1), and a
    projective-norm lower bound, by LP when the model fits the sign
    budget and otherwise through the exact Rademacher Gram certificate.
    """
    xi, zeta = parse_ordinal(cfg.xi), parse_ordinal(cfg.zeta)
    if not (zeta <= xi and xi <= ONE):
        raise ValueError("sharpness scenario supports zeta <= xi <= 1")
    one_plus = ONE + zeta
    fam = Conv(one_plus, xi)
    try:
        blocks = decompose(fam, make_stream(cfg.stream), 1, max_elements=cfg.block_budget)
    except BudgetExceeded as e:
        rep.skip("first-block", "sharpness-block-materialization", str(e))
        return
    E = blocks[0]
    inner_blocks = split_blocks(Base(xi), E)
    m = len(inner_blocks)
    rep.parameters.update(block_size=len(E), inner_blocks=m, trunc=max(E))

    tree = build_tree(omega_pow(zeta), cfg.max_root)
    path = block_map_path(xi, zeta, tree, E)
    # each element's segment of the block map, one tree node per
    # segment, and its inner S_xi block
    depths, seg_of = [], []
    for s, (node, run) in enumerate(groupby(path)):
        depths.append(len(node))
        seg_of.extend(s for _ in run)
    block_of = [i for i, b in enumerate(inner_blocks) for _ in b]
    rep.holds(
        "block-map segment structure",
        "block-map-constancy",
        "one node per inner block, constant on segments",
        seg_of == block_of,
    )
    if seg_of != block_of:
        return
    t_last = path[-1]
    guard = 0
    while not tree.is_max(t_last):
        t_last = tree.children(t_last)[0]
        guard += 1
        if guard > 64:
            raise RuntimeError("maximal extension did not terminate")
    depth = len(t_last)
    branch_funcs = [tree.node_function(p) for p in tree.branch(t_last)]
    scheme, atoms, mus = _rademacher_system(branch_funcs)
    rep.holds(
        "scheme compatibility",
        "cantor-scheme-compatibility",
        "each branch function is its sign on the signed cells",
        compatible(branch_funcs, scheme),
        detail=f"scheme depth {depth}",
    )

    # every branch function evaluated once at the leaf atoms; the exact
    # pairings and the tensor matrix below all read this table
    values = values_at(branch_funcs, atoms)
    f_rows = [_common_denominator(row) for row in values]
    mu_rows = [_common_denominator([w for _, w in mu.atoms]) for mu in mus]
    bio = [[_exact_dot(mu_rows[di - 1], f_rows[dj - 1]) for dj in depths] for di in depths]
    bio_ok = all(bio[i][j] == (1 if i == j else 0) for i in range(m) for j in range(m))
    rep.holds("biorthogonality", "rademacher-biorthogonality",
              "pair(mu_i, f_j) == delta_ij (exact)", bio_ok)

    # one pass over E: the q and p weights of each initial segment (itself
    # the first maximal S_(1+zeta)[S_xi] block of the stream) give the
    # segment coefficients a_i, the exact dual pairing of the averaged
    # tensor against sum_i a_i mu_(depth_i) x dirac_(block_i), and the
    # float coefficients of its matrix.  A run of elements with one q,
    # segment and block adds one pairing term, its p weights summed exactly
    a_weights, coeff = [], [0.0] * m
    qs_constant = True
    pairing = RadicalSum()
    elements = zip(q_prefix_weights(xi, one_plus, E), p_prefix_weights(xi, E),
                   seg_of, block_of)
    for (q, s, b), run in groupby(elements, key=operator.itemgetter(0, 2, 3)):
        if s == len(a_weights):
            a_weights.append(q)
        qs_constant = qs_constant and q == a_weights[s]
        q_float, p_sum = float(q), Fraction(0)
        for _, p, _, _ in run:
            p_sum += p
            coeff[s] += q_float * float(p)
        pairing.add(q * a_weights[b], p_sum * bio[b][s])
    sum_sq = sum((a.square() for a in a_weights), Fraction(0))
    rep.compare(
        "coefficients square-sum",
        "weights-l2-sum-one",
        "sum of squared segment coefficients == 1 (exact)",
        sum_sq,
        "==",
        1,
        also={"constant_q": (qs_constant, "is", True)},
    )
    rep.compare("dual pairing", "tensor-dual-pairing-one", "== 1 (exact radical arithmetic)",
                pairing, "==", 1)

    # the averaged tensor as a matrix: certificate rows x leaf atoms
    V = np.array([[coeff[i] * v for v in values[d - 1]] for i, d in enumerate(depths)])
    if m <= MAX_LP_SIDE and len(atoms) <= MAX_LP_SIDE:
        val, cert = pi_norm(V)
        rep.compare(
            "projective lower bound (LP)",
            "tensor-pi-lower-bound",
            f">= 1 - {LP_TOL}",
            val,
            ">=",
            1,
            ".12f",
            tol=LP_TOL,
            detail=f"certificate bound {cert.bound:.12f}",
        )
    else:
        rep.skip(
            "projective lower bound (LP)",
            "tensor-pi-lower-bound",
            f"model {m}x{len(atoms)} exceeds the LP sign budget",
        )

    # exact Rademacher route: the Gram identity certifies the weak-2
    # bound of the measures, hence feasibility of the dual functional
    denom = Fraction(1, 2**depth)
    gram_ok = all(
        _exact_dot(mu_rows[di - 1], mu_rows[dj - 1]) == (denom if i == j else 0)
        for i, di in enumerate(depths) for j, dj in enumerate(depths)
    )
    rep.holds("rademacher gram identity", "rademacher-gram-orthogonality",
              "R R^T == I / 2^depth (exact)", gram_ok)
    rep.holds(
        "projective lower bound (exact certificate)",
        "tensor-pi-lower-bound-exact",
        ">= 1 exactly",
        gram_ok and bio_ok and qs_constant and sum_sq == 1 and pairing == 1,
        detail=(
            "dual functional has bilinear norm <= 1 by Cauchy-Schwarz from the "
            "Gram identity; its pairing with the average is exactly 1"
        ),
    )
    if depth <= 3:
        rep.compare(
            "rademacher weak-2 bound",
            "rademacher-weak-2",
            "squared weak-2 norm <= 1 (exact sign enumeration)",
            weak2_norm_squared_exact(mus),
            "<=",
            1,
        )


# -- blocking demo --------------------------------------------------------


@_scenario("blocking", "xi", "stream", "seed", "block_budget", "samples", "eps")
def run_blocking_demo(cfg: ScenarioConfig, rep: Report):
    """Disjointly supported averages stay weakly 1-summing.

    Function part: a collection indexed by finite sets whose level-xi
    averages are disjointly supported indicators up to a geometric
    error, so the weak-1 norm stays below 1 + eps (exact arithmetic).
    Tensor part: the staircase splitting of corner-supported matrices
    into a column-disjoint and a row-disjoint half, with one-sided
    weak-2 bounds against the Grothendieck constant.
    """
    xi = parse_ordinal(cfg.xi)
    if xi > ONE:
        raise ValueError("blocking demo supports xi <= 1")
    n_blocks = 4
    one = Fraction(1)
    gs = [
        StepFunction(
            OMEGA,
            ((Iv(Ordinal.from_int(4 * (n - 1)), Ordinal.from_int(4 * n)), one),),
        )
        for n in range(1, n_blocks + 1)
    ]
    rep.holds(
        "indicator supports disjoint",
        "disjoint-supports",
        "pairwise disjoint (interval arithmetic)",
        disjoint(gs),
    )
    try:
        blocks = decompose(Base(xi), make_stream(cfg.stream), n_blocks,
                           max_elements=cfg.block_budget)
    except BudgetExceeded as e:
        rep.skip("weak-1 of averages", "blocking-block-materialization", str(e))
    else:
        _check_averages(rep, xi, blocks, gs, Fraction(cfg.eps))

    # staircase tensors: w_n = u_n + v_n with disjoint column and row
    # strips, the column strip of u_n drawn before the row strip of v_n
    rng = np.random.default_rng(cfg.seed)
    us, vs = [], []
    for n in range(3):
        us.append(_strip(rng, n, 2 * n + 2))
        vs.append(_strip(rng, n, 2 * n).T)
    ws = [u + v for u, v in zip(us, vs)]
    demo_samples = min(cfg.samples, 8)
    for label, fam in [("column-strip half", us), ("row-strip half", vs[1:])]:
        rep.compare(
            f"weak-2 lower of {label}",
            "staircase-weak-2-half",
            f"<= {GROTHENDIECK_BOUND} (one-sided)",
            weak_2_norm_pi_lower(fam, samples=demo_samples, seed=cfg.seed),
            "<=",
            GROTHENDIECK_BOUND,
            ".6f",
            tol=LP_TOL,
        )
    rep.compare(
        "weak-2 lower of staircase",
        "staircase-weak-2",
        f"<= {2 * GROTHENDIECK_BOUND} (one-sided)",
        weak_2_norm_pi_lower(ws, samples=demo_samples, seed=cfg.seed),
        "<=",
        2 * GROTHENDIECK_BOUND,
        ".6f",
        tol=LP_TOL,
    )


def _strip(rng, n: int, width: int) -> np.ndarray:
    """A 6 x 6 strip: ones on the first ``width`` rows times a row vector
    drawn on the coordinates 2n and 2n + 1 and scaled to sup norm 1."""
    profile = np.zeros(6)
    profile[2 * n : 2 * n + 2] = rng.uniform(0.5, 1.0, size=2)
    profile /= np.abs(profile).max()
    return np.outer(np.arange(6) < width, profile)


def _check_averages(rep: Report, xi, blocks, gs: list, eps: Fraction):
    """The function part of the blocking demo on the stream's first
    blocks: the level-xi averages of the exact and of the perturbed
    collection, against the indicators ``gs``."""
    n_blocks = len(blocks)
    noise_base = 16 * n_blocks
    full = tuple(chain.from_iterable(blocks))
    collections = {"exact": Fraction(0), "perturbed": eps}
    for label, amp in collections.items():
        u = {}
        start = 0
        for n, b in enumerate(blocks, start=1):
            for j in range(start + 1, start + len(b) + 1):
                F = full[:j]
                bump_amp = amp / 2 ** (n + 1)
                if bump_amp:
                    bump = StepFunction(
                        OMEGA,
                        ((Iv(Ordinal.from_int(noise_base + j),
                             Ordinal.from_int(noise_base + j + 1)), bump_amp),),
                    )
                    u[F] = gs[n - 1] + bump
                else:
                    u[F] = gs[n - 1]
            start += len(b)
        averages = [
            avg(xi, iter(full), u, n) for n in range(1, n_blocks + 1)
        ]
        bound = Fraction(1) + eps if label == "perturbed" else Fraction(1)
        rep.compare(
            f"weak-1 of averages ({label})",
            "averages-weak-1-bound",
            f"<= {bound} (exact)",
            weak_1_norm_exact(averages),
            "<=",
            bound,
            detail=f"block sizes {[len(b) for b in blocks]}",
        )
        rep.holds(
            f"per-block error ({label})",
            "averages-block-error",
            "sup error of block n below eps/2^n (exact)",
            all(
                Fraction((a - g).sup_norm()) <= amp / 2**n
                for n, (a, g) in enumerate(zip(averages, gs), start=1)
            ),
        )


# -- Grothendieck probe ----------------------------------------------------


@_scenario("groth", "samples", "seed")
def run_groth_probe(cfg: ScenarioConfig, rep: Report):
    """One-sided weak-2 checks for tensor pairs of bounded families."""
    rng = np.random.default_rng(cfg.seed)
    H = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
    )
    fs = H / 2.0  # rows over 4 points; columnwise l2 sums are exactly 1
    # the weak-2 norm of vectors in l_inf^4 is attained at signed
    # coordinates: the largest column l2 sum, squared here in Fractions
    rep.compare(
        "row family weak-2 norm",
        "weak-2-column-formula",
        "== 1",
        max(sum(Fraction(x) ** 2 for x in col) for col in fs.T),
        "==",
        1,
    )
    gs = rng.uniform(-1.0, 1.0, size=(4, 4))
    gs /= np.abs(gs).max(axis=1, keepdims=True)
    pairs = [np.outer(fs[i], gs[i]) for i in range(4)]
    rep.compare(
        "rademacher-paired weak-2 lower",
        "grothendieck-one-sided",
        f"<= {GROTHENDIECK_BOUND}",
        weak_2_norm_pi_lower(pairs, samples=cfg.samples, seed=cfg.seed),
        "<=",
        GROTHENDIECK_BOUND,
        ".6f",
        tol=LP_TOL,
    )
    rep.compare(
        "single elementary tensor",
        "cross-norm-single",
        "<= 1 + 1e-9",
        pi_norm(np.outer(fs[0] / np.abs(fs[0]).max(), gs[0]))[0],
        "<=",
        1,
        ".12f",
        tol=LP_TOL,
    )
    disj = [np.outer(np.eye(4)[k], gs[k]) for k in range(4)]
    rep.compare(
        "disjoint-first-factor weak-2 lower",
        "disjoint-tensor-weak-2",
        "<= weak-1 bound",
        weak_2_norm_pi_lower(disj, samples=cfg.samples, seed=cfg.seed),
        "<=",
        weak_1_norm_pi(disj),
        "{value:.6f} (weak-1 {bound:.6f})",
        tol=LP_TOL,
    )


# -- randomized biorthogonal lower bounds ----------------------------------


@_scenario("lower", "seed", "samples", name="lower-bound-probe")
def run_lower_bound_probe(cfg: ScenarioConfig, rep: Report):
    """Randomized biorthogonal configurations keep projective norm >= 1.

    Takes the Rademacher measures of a tree branch scheme, a random
    block structure with convex rational coefficients inside each block
    and unit square-sum across blocks, and verifies both the exact
    pairing identity and the LP lower bound.
    """
    trials = rep.parameters["samples"] = min(cfg.samples, 8)
    rng = np.random.default_rng(cfg.seed)
    tree = build_tree(1, max_root=4)
    branch = (Ordinal.from_int(2), Ordinal.from_int(1), Ordinal.from_int(0))
    funcs = [tree.node_function(p) for p in tree.branch(branch)]
    _, atoms, mus = _rademacher_system(funcs)
    # the trials draw only coefficients: the function values at the atoms
    # and the diagonal pairings mu_i(f_i) are the same in every trial
    fvals = [np.array(row) for row in values_at(funcs, atoms)]
    diag = [mu.pair(f) for mu, f in zip(mus, funcs)]
    m = len(funcs)
    for trial in range(trials):
        block_sizes = [int(rng.integers(1, 3)) for _ in range(m)]
        cs = [int(rng.integers(1, 6)) for _ in range(m)]
        R = sum(c * c for c in cs)
        a = [Weight(Fraction(c), R) for c in cs]  # c / sqrt(R)
        bs: list[list[Fraction]] = []
        for size in block_sizes:
            raw = [int(rng.integers(1, 10)) for _ in range(size)]
            s = sum(raw)
            bs.append([Fraction(r, s) for r in raw])
        sum_sq = sum((w.square() for w in a), Fraction(0))
        # honest pairing of the dual functional against the tensor:
        # the i-th block functional reads the i-th marker column, which
        # carries a_i f_i, and pairs the measure against the function
        pairing = RadicalSum()
        for i in range(m):
            pairing.add(a[i] * a[i], diag[i] * sum(bs[i], Fraction(0)))
        # a column a_i b f_i per block entry, then the marker columns a_i f_i
        U = np.column_stack(
            [float(a[i]) * float(b) * fvals[i] for i in range(m) for b in bs[i]]
            + [float(a[i]) * fvals[i] for i in range(m)]
        )
        rep.compare(
            f"trial {trial}",
            "biorthogonal-lower-bound",
            f"pairing == 1 exactly and LP pi >= 1 - {LP_TOL}",
            pi_norm(U)[0],
            ">=",
            1,
            "pairing={pairing!r}, pi={value:.12f}",
            tol=LP_TOL,
            also={"pairing": (pairing, "==", 1), "square_sum": (sum_sq, "==", 1)},
            detail=f"blocks {block_sizes}",
        )


# -- top-level verify -------------------------------------------------------


def run_all(cfg: ScenarioConfig) -> list[Report]:
    reports = [run_family_suite(cfg)]
    for xi in ("0", "1", "2", "3", "w", "w + 1"):
        for start in (2, 3, 4, 5, 6):
            reports.append(run_perm_suite(replace(cfg, xi=xi, zeta="0", stream=str(start))))
    for xi in ("0", "1", "2"):
        for zeta in ("0", "1", "2"):
            for start in (2, 3, 4, 5, 6):
                reports.append(run_perm_suite(replace(cfg, xi=xi, zeta=zeta, stream=str(start))))
    for xi, zeta, stream in [("0", "0", "3"), ("1", "0", "3"), ("1", "1", "1"),
                             ("1", "1", "2")]:
        reports.append(run_sharpness(replace(cfg, xi=xi, zeta=zeta, stream=stream)))
    reports.append(run_blocking_demo(replace(cfg, xi="1")))
    reports.append(run_groth_probe(cfg))
    reports.append(run_lower_bound_probe(cfg))
    return reports


def _emit(reports: list[Report], cfg: ScenarioConfig) -> int:
    text = (
        reports_to_json(reports)
        if cfg.fmt == "json"
        else reports_to_csv(reports)
    )
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0 if all(r.passed() for r in reports) else 1


def _check_out(path: str) -> None:
    """Refuse an output path that is a directory, or whose directory is
    missing or not writable, so that a run does not end in a failed
    write after every scenario."""
    if os.path.isdir(path) or not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
        raise ValueError(f"cannot write the report to {path}")


# -- CLI ---------------------------------------------------------------------


def _add_verify(sub, action: str, reads):
    """The ``verify action`` parser: ``--out``, ``--format`` and an option
    for each config field in ``reads``.  It suppresses defaults: an option
    not given stays out of the namespace, and :func:`_cfg_from` takes its
    ``ScenarioConfig`` default."""
    p = sub.add_parser(action, argument_default=argparse.SUPPRESS)
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"))
    for f in fields(ScenarioConfig):
        if f.name in reads:
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           help=f.metadata.get("help"))


def _cfg_from(args) -> ScenarioConfig:
    kw = {f.name: getattr(args, f.name) for f in fields(ScenarioConfig)
          if hasattr(args, f.name)}
    return ScenarioConfig(**kw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordtensor",
        description="Schreier families, repeated-averages weights, and tensor norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sch = sub.add_parser("schreier", help="family membership and decompositions")
    sch_sub = p_sch.add_subparsers(dest="action", required=True)
    for action in ("member", "maximal", "decompose"):
        sp = sch_sub.add_parser(action)
        sp.add_argument("--family", required=True, help="e.g. 'S[1]' or 'S[1][S[w]]'")
        if action == "decompose":
            sp.add_argument("--stream", default="3")
            sp.add_argument("--count", type=int, default=1)
            sp.add_argument("--block-budget", dest="block_budget", type=int, default=5000)
        else:
            sp.add_argument("--set", required=True, help="comma list, e.g. 3,4,5")

    p_w = sub.add_parser("weights", help="repeated-averages weights")
    w_sub = p_w.add_subparsers(dest="action", required=True)
    for action in ("p", "q"):
        sp = w_sub.add_parser(action)
        sp.add_argument("--xi", default="0")
        if action == "q":
            sp.add_argument("--zeta", default="0")
        sp.add_argument("--set", required=True)

    p_t = sub.add_parser("tree", help="tree construction, schemes, block map")
    t_sub = p_t.add_subparsers(dest="action", required=True)
    sp = t_sub.add_parser("build")
    sp.add_argument("--gamma", default="1")
    sp.add_argument("--max-root", dest="max_root", type=int, default=4)
    sp.add_argument("--node", default=None, help="comma list of ordinal labels")
    sp = t_sub.add_parser("scheme")
    sp.add_argument("--gamma", default="1")
    sp.add_argument("--max-root", dest="max_root", type=int, default=4)
    sp.add_argument("--branch", required=True)
    sp = t_sub.add_parser("phi")
    sp.add_argument("--xi", default="0")
    sp.add_argument("--zeta", default="0")
    sp.add_argument("--set", required=True)
    sp.add_argument("--max-root", dest="max_root", type=int, default=10)

    p_x = sub.add_parser("tensor", help="tensor norm computations")
    x_sub = p_x.add_subparsers(dest="action", required=True)
    for action in ("pi", "eps"):
        sp = x_sub.add_parser(action)
        sp.add_argument("--matrix", required=True, help="JSON rows, e.g. [[1,0],[0,1]]")
    sp = x_sub.add_parser("weakp")
    sp.add_argument("--p", type=int, choices=(1, 2), required=True)
    sp.add_argument("--matrices", required=True, help="JSON list of matrices")
    sp.add_argument("--samples", type=int, default=24)
    sp.add_argument("--seed", type=int, default=0)

    p_v = sub.add_parser("verify", help="verification scenarios with reports")
    v_sub = p_v.add_subparsers(dest="action", required=True)
    for action, scenario in SCENARIOS.items():
        _add_verify(v_sub, action, scenario.reads)
    # run_all sets xi and zeta itself
    _add_verify(v_sub, "all", {f for s in SCENARIOS.values() for f in s.reads} - {"xi", "zeta"})

    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, NotImplementedError, BudgetExceeded, StreamExhausted) as e:
        # bad input (unsupported parameters, or an input past a budget):
        # one line, exit code 2, so that exit code 1 keeps meaning "a
        # check failed"
        print(f"ordtensor: error: {e}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    if args.command == "schreier":
        fam = parse_family(args.family)
        if args.action == "member":
            E = as_finite_set(int(x) for x in args.set.split(","))
            print(member(fam, E))
            return 0
        if args.action == "maximal":
            E = as_finite_set(int(x) for x in args.set.split(","))
            print(is_maximal(fam, E))
            return 0
        blocks = decompose(fam, make_stream(args.stream), args.count,
                           max_elements=args.block_budget)
        print(json.dumps([list(b) for b in blocks]))
        return 0

    if args.command == "weights":
        E = as_finite_set(int(x) for x in args.set.split(","))
        if args.action == "p":
            print(p_weight(parse_ordinal(args.xi), E))
        else:
            print(q_weight(parse_ordinal(args.xi), parse_ordinal(args.zeta), E))
        return 0

    if args.command == "tree":
        if args.action == "build":
            handle = build_tree(parse_ordinal(args.gamma), args.max_root)
            if args.node:
                node = tuple(parse_ordinal(x) for x in args.node.split(","))
                print(json.dumps({
                    "node": [str(x) for x in node],
                    "rank": str(handle.residual_rank(node)),
                    "maximal": handle.is_max(node),
                    "function": handle.node_function(node).to_json(),
                }, indent=2))
            else:
                print(json.dumps({
                    "gamma": str(handle.gamma),
                    "roots": [[str(x) for x in r] for r in handle.roots()],
                    "root_ranks": [str(handle.residual_rank(r)) for r in handle.roots()],
                }, indent=2))
            return 0
        if args.action == "scheme":
            handle = build_tree(parse_ordinal(args.gamma), args.max_root)
            branch = tuple(parse_ordinal(x) for x in args.branch.split(","))
            print(json.dumps(cantor_scheme(handle, branch).to_json(), indent=2))
            return 0
        xi, zeta = parse_ordinal(args.xi), parse_ordinal(args.zeta)
        handle = build_tree(omega_pow(zeta), args.max_root)
        E = as_finite_set(int(x) for x in args.set.split(","))
        path = block_map_path(xi, zeta, handle, E)
        print(json.dumps([[str(x) for x in node] for node in path], indent=2))
        return 0

    if args.command == "tensor":
        if args.action in ("pi", "eps"):
            U = json.loads(args.matrix)
            if args.action == "eps":
                print(f"{eps_norm(U):.12f}")
            else:
                val, cert = pi_norm(U)
                print(json.dumps({
                    "pi": val,
                    "certificate": [list(map(float, row)) for row in cert.matrix],
                    "certificate_bound": cert.bound,
                }, indent=2))
            return 0
        mats = json.loads(args.matrices)
        if args.p == 1:
            print(f"{weak_1_norm_pi(mats):.12f}")
        else:
            print(f"{weak_2_norm_pi_lower(mats, samples=args.samples, seed=args.seed):.12f}")
        return 0

    cfg = _cfg_from(args)
    if cfg.out:
        _check_out(cfg.out)
    reports = run_all(cfg) if args.action == "all" else [SCENARIOS[args.action].run(cfg)]
    return _emit(reports, cfg)


if __name__ == "__main__":
    sys.exit(main())
