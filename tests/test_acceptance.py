"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure).  Block decompositions are materialized under an explicit
element budget; cells of the parameter grids whose first blocks exceed
any feasible materialization (their sizes grow past 10^8 elements within
the first three blocks) are recorded as skipped, and the coverage
assertions below pin exactly which cells must be fully checked.
"""

import time
from fractions import Fraction
from itertools import count, product

import numpy as np
import pytest

from ordtensor.ordinal import OMEGA, ONE, Ordinal, omega_pow
from ordtensor.schreier import (
    Base,
    BudgetExceeded,
    Conv,
    decompose,
    member,
    node_rank_exact,
)
from ordtensor.space import (
    compatible,
    default_selector,
    rademacher,
    weak2_norm_squared_exact,
)
from ordtensor.tensor import (
    eps_norm,
    pi_norm,
    pi_norm_decomposition,
    weak_1_norm_pi,
)
from ordtensor.trees import build_tree, cantor_scheme
from ordtensor.weights import verify_perm
from ordtensor.harness import (
    GROTHENDIECK_BOUND,
    ScenarioConfig,
    run_groth_probe,
    run_lower_bound_probe,
    run_sharpness,
)

from oracles import finite_node_ranks, node_rank_brute, subsets

F = Ordinal.from_int
BLOCK_BUDGET = 5000


def _report(idx, ok, summary):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, summary


def _materialize_blocks(fam, start, want):
    """As many of the first ``want`` blocks as fit the element budget."""
    for k in range(want, 0, -1):
        try:
            return decompose(fam, count(start), k, max_elements=BLOCK_BUDGET)
        except BudgetExceeded:
            continue
    return ()


def test_criterion_1_convex_sums():
    t0 = time.time()
    levels = ["0", "1", "2", "3", "w", "w + 1"]
    coverage = {}
    failures = []
    from ordtensor.ordinal import parse_ordinal

    for xi_text in levels:
        xi = parse_ordinal(xi_text)
        for start in range(2, 7):
            blocks = _materialize_blocks(Conv(Ordinal(), xi), start, 3)
            coverage[(xi_text, start)] = len(blocks)
            if not blocks:
                continue
            rep = verify_perm(xi, 0, blocks)
            if not (rep.convex and rep.perm_p):
                failures.append((xi_text, start))
    elapsed = time.time() - t0
    floors = {("0", s): 3 for s in range(2, 7)}
    floors.update({("1", s): 3 for s in range(2, 7)})
    floors.update({("2", 2): 2, ("2", 3): 1, ("2", 4): 1, ("2", 5): 1, ("2", 6): 1})
    floors.update({("3", 2): 1, ("w", 2): 1})
    cover_ok = all(coverage[key] >= floor for key, floor in floors.items())
    checked = sum(1 for v in coverage.values() if v)
    _report(
        1,
        not failures and cover_ok and elapsed < 5,
        f"sum(p) == 1 exactly on {checked} grid cells "
        f"(blocks past the budget skipped; {elapsed:.2f}s < 5s)",
    )


def test_criterion_2_l2_sums():
    t0 = time.time()
    coverage = {}
    failures = []
    for xi, zeta in product((0, 1, 2), repeat=2):
        for start in range(2, 7):
            blocks = _materialize_blocks(Conv(zeta, xi), start, 3)
            coverage[(xi, zeta, start)] = len(blocks)
            if not blocks:
                continue
            rep = verify_perm(xi, zeta, blocks)
            if not (rep.l2_convex and rep.perm_q):
                failures.append((xi, zeta, start))
    elapsed = time.time() - t0
    floors = {
        (0, 0, 2): 3, (0, 1, 2): 3, (1, 0, 2): 3,
        (1, 1, 2): 2, (0, 2, 2): 2, (2, 0, 2): 2,
        (2, 1, 2): 1, (1, 2, 2): 1,
        (1, 1, 3): 1, (0, 2, 3): 1, (2, 0, 3): 1,
    }
    cover_ok = all(coverage[key] >= floor for key, floor in floors.items())
    checked = sum(1 for v in coverage.values() if v)
    _report(
        2,
        not failures and cover_ok and elapsed < 10,
        f"sum((q*sum p)^2) == 1 exactly on {checked} grid cells ({elapsed:.2f}s < 10s)",
    )


def test_criterion_3_regularity():
    t0 = time.time()
    families = [Base(1), Base(2), Base(3), Base(OMEGA), Base(OMEGA + 1),
                Conv(1, 1), Conv(2, 1)]
    violations = 0
    ground = tuple(range(1, 11))
    all_sets = list(subsets(ground))
    for fam in families:
        members = [E for E in all_sets if member(fam, E)]
        member_set = set(members)
        for E in members:
            for sub in subsets(E):
                if sub not in member_set:
                    violations += 1
        from itertools import combinations

        for E in members:
            if not E:
                continue
            for spread in combinations(range(E[0], 11), len(E)):
                if all(s >= e for s, e in zip(spread, E)):
                    if spread not in member_set:
                        violations += 1
    elapsed = time.time() - t0
    _report(
        3,
        violations == 0 and elapsed < 30,
        f"hereditary + spreading, 7 families, subsets of [1,10]: "
        f"{violations} violations ({elapsed:.2f}s < 30s)",
    )


def test_criterion_4_successor_identity():
    bad = [
        (xi, E)
        for xi in (0, 1, 2)
        for E in subsets(range(1, 11))
        if member(Base(xi + 1), E) != member(Conv(1, xi), E)
    ]
    _report(4, not bad, "S_(xi+1) == S_1[S_xi] on subsets of [1,10], xi in {0,1,2}")


def test_criterion_5_biorthogonality():
    t0 = time.time()
    bad = 0
    branches = 0
    for gamma in (1, 2):
        handle = build_tree(gamma, max_root=4)
        for t in handle.max_nodes():
            branches += 1
            scheme = cantor_scheme(handle, t)
            mus = rademacher(scheme, default_selector(scheme))
            funcs = [handle.node_function(p) for p in handle.branch(t)]
            if not compatible(funcs, scheme):
                bad += 1
            for i, mu in enumerate(mus):
                for j, f in enumerate(funcs):
                    if mu.pair(f) != (1 if i == j else 0):
                        bad += 1
    elapsed = time.time() - t0
    _report(
        5,
        bad == 0 and elapsed < 5,
        f"exact biorthogonality on {branches} maximal branches ({elapsed:.2f}s < 5s)",
    )


def test_criterion_6_rademacher_weak2():
    bad = 0
    for gamma, depth_cap in ((1, 3), (2, 3)):
        handle = build_tree(gamma, max_root=3)
        for t in handle.max_nodes():
            if len(t) > depth_cap:
                continue
            scheme = cantor_scheme(handle, t)
            mus = rademacher(scheme, default_selector(scheme))
            if weak2_norm_squared_exact(mus) > 1:
                bad += 1
    _report(6, bad == 0, "weak-2 norm of Rademacher systems <= 1, exact, depth <= 3")


def test_criterion_7_sharpness_instances():
    summaries = []
    ok = True
    for xi, zeta, stream in [("0", "0", "3"), ("1", "0", "3"), ("1", "1", "1")]:
        t0 = time.time()
        rep = run_sharpness(ScenarioConfig(xi=xi, zeta=zeta, stream=stream))
        elapsed = time.time() - t0
        by_id = {c.check_id: c for c in rep.checks}
        pairing = by_id["tensor-dual-pairing-one"]
        lp = by_id["tensor-pi-lower-bound"]
        good = pairing.passed and not lp.skipped and lp.passed and elapsed < 60
        ok = ok and good
        summaries.append(f"({xi},{zeta}) pairing=1 LP>={1 - 1e-9:.9f} in {elapsed:.1f}s")
    # supplementary nontrivial instance for (1,1): LP is out of the sign
    # budget, the exact Rademacher certificate takes over
    t0 = time.time()
    rep = run_sharpness(ScenarioConfig(xi="1", zeta="1", stream="2"))
    elapsed = time.time() - t0
    by_id = {c.check_id: c for c in rep.checks}
    good = (
        by_id["tensor-dual-pairing-one"].passed
        and by_id["tensor-pi-lower-bound-exact"].passed
        and elapsed < 60
    )
    ok = ok and good
    summaries.append(f"(1,1) big instance exact certificate in {elapsed:.1f}s")
    _report(7, ok, "; ".join(summaries))


def test_criterion_8_biorthogonal_probe():
    rep = run_lower_bound_probe(ScenarioConfig(samples=8, seed=11))
    ok = rep.passed() and len(rep.checks) == 8
    _report(8, ok, "randomized biorthogonal configurations: pairing exact, LP >= 1 - 1e-9")


def test_criterion_9_norm_engine():
    rng = np.random.default_rng(99)
    val, _ = pi_norm(np.eye(2))
    oracle, _ = pi_norm_decomposition(np.eye(2))
    ok = abs(val - 1.0) <= 1e-8 and abs(oracle - 1.0) <= 1e-8
    for _ in range(200):
        u = rng.uniform(-1, 1, size=(3, 3))
        if eps_norm(u) > pi_norm(u)[0] + 1e-9:
            ok = False
    for _ in range(200):
        x = rng.uniform(-1, 1, size=3)
        y = rng.uniform(-1, 1, size=3)
        expect = np.abs(x).max() * np.abs(y).max()
        u = np.outer(x, y)
        if abs(pi_norm(u)[0] - expect) > 1e-9 or abs(eps_norm(u) - expect) > 1e-9:
            ok = False
    _report(
        9,
        ok,
        "pi(identity) via both LP routes, eps <= pi and cross-norm on 200 random instances",
    )


def test_criterion_10_weak_summing_bounds():
    rng = np.random.default_rng(7)
    ok = True
    # second factors are 2 columns wide for the small families and one
    # column wide at k = 8, keeping the 128-pattern enumeration tractable
    for k, width in ((2, 2), (4, 2), (8, 1)):
        us = []
        for i in range(k):
            g = np.zeros(width * k)
            g[width * i : width * (i + 1)] = (
                rng.uniform(0.2, 1.0, size=width) * (-1) ** i
            )
            g /= np.abs(g).max()
            us.append(np.outer(np.eye(k)[i], g))
        if weak_1_norm_pi(us) > 1 + 1e-9:
            ok = False
    groth = run_groth_probe(ScenarioConfig(samples=24, seed=5))
    ok = ok and groth.passed()
    _report(
        10,
        ok,
        f"weak-1 of disjoint elementary families (k <= 8) <= 1 (LP tolerance 1e-9); "
        f"weak-2 lower bounds <= {GROTHENDIECK_BOUND}",
    )


def test_criterion_11_rank_oracles():
    ok = True
    for E in subsets(range(1, 11)):
        if E and member(Base(1), E):
            if node_rank_exact(Base(1), E) != F(node_rank_brute(Base(1), E, 2 * E[-1])):
                ok = False
    for gamma in (1, 2):
        handle = build_tree(gamma, max_root=4)
        brute = finite_node_ranks(handle.materialize())
        for node, r in brute.items():
            expected = handle.residual_rank(node)
            if handle.subtree_complete(node):
                if expected != F(r):
                    ok = False
            elif not F(r) < expected:
                ok = False
    _report(
        11,
        ok,
        "closed-form ranks match derived-tree iteration (exact on complete "
        "subtrees, strict lower bounds under truncation)",
    )
