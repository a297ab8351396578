import re
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from ordtensor import harness, space
from ordtensor.ordinal import OMEGA, Ordinal, omega_pow
from ordtensor.schreier import Base, BudgetExceeded, Conv, decompose, member
from ordtensor.space import (
    Iv,
    StepFunction,
    compatible,
    default_selector,
    normalize_union,
    rademacher,
)
from ordtensor.trees import (
    MAX_WIDTH_EXPONENT,
    BoundsError,
    TreeHandle,
    block_map_path,
    build_tree,
    cantor_scheme,
    rank_finite,
    scheme_of,
)

from oracles import (
    block_map_path_reference,
    cantor_cells_reference,
    finite_node_ranks,
    node_function_reference,
    points_of,
    scheme_cells_by_points,
    subsets,
)
from test_space import ATOMS, POINTS, atom_labels, labelled_cells, labelled_functions

F = Ordinal.from_int
W = OMEGA


def chain_tree(n):
    return {tuple(range(k)) for k in range(1, n + 1)}


class TestRankFinite:
    def test_chain(self):
        for n in (1, 3, 7):
            assert rank_finite(chain_tree(n)) == n

    def test_incomparable_union_takes_max(self):
        t = {(0,), (0, 1)} | {(9,), (9, 8), (9, 8, 7), (9, 8, 7, 6), (9, 8, 7, 6, 5)}
        assert rank_finite(t) == 5

    def test_materialized_chain_of_depth_three(self):
        t1 = build_tree(1, max_root=3)
        nodes = {t for t in t1.materialize() if t[0] == F(2)}
        assert rank_finite(nodes) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            rank_finite([])
        with pytest.raises(ValueError):
            rank_finite([(1, 2)])  # not prefix-closed


class TestBaseTree:
    def test_roots_and_chains(self):
        t1 = build_tree(1, max_root=4)
        assert t1.roots() == [(F(n - 1),) for n in range(1, 5)]
        node = (F(3), F(2))
        assert t1.contains(node)
        assert t1.children(node) == [(F(3), F(2), F(1))]
        assert t1.is_max((F(3), F(2), F(1), F(0)))
        assert not t1.contains((F(3), F(1)))

    def test_functions_match_alternating_formula(self):
        t1 = build_tree(1, max_root=4)
        f = t1.node_function((F(1),))
        assert f.pieces == ((Iv(F(0), F(2)), 1.0), (Iv(F(2), F(4)), -1.0))
        f2 = t1.node_function((F(1), F(0)))
        assert [iv for iv, _ in f2.pieces] == [
            Iv(F(0), F(1)), Iv(F(1), F(2)), Iv(F(2), F(3)), Iv(F(3), F(4))]
        assert [v for _, v in f2.pieces] == [1.0, -1.0, 1.0, -1.0]

    def test_norm_one_and_zero_at_zero(self):
        for gamma in (1, 2):
            h = build_tree(gamma, max_root=3)
            for t in h.materialize():
                f = h.node_function(t)
                assert f.sup_norm() == 1.0
                assert f(0) == 0


class TestSuccessorTree:
    def test_chain_function_scaled_by_omega(self):
        t2 = build_tree(2, max_root=3)
        r = (W + 1,)
        f = t2.node_function(r)
        assert f.pieces == (
            (Iv(F(0), W.mul_nat(2)), 1.0),
            (Iv(W.mul_nat(2), W.mul_nat(4)), -1.0),
        )

    def test_embedded_copy_tiles(self):
        t2 = build_tree(2, max_root=3)
        node = (W + 1, W, F(0))  # chain bottom, then inner root of depth-1 chain
        f = t2.node_function(node)
        # inner f_(0) alternates +1/-1 on (0,1],(1,2]; copied to each omega-block
        assert f(1) == 1.0 and f(2) == -1.0
        assert f(W + 1) == 1.0 and f(W + 2) == -1.0
        assert f(W.mul_nat(3) + 1) == 1.0
        assert f(3) == 0
        assert f(W.mul_nat(4) + 1) == 0

    def test_residual_ranks(self):
        t2 = build_tree(2, max_root=4)
        assert t2.residual_rank((W + 1,)) == W + 1
        assert t2.residual_rank((W + 1, W)) == W
        assert t2.residual_rank((W + 1, W, F(2))) == F(2)

    def test_rank_oracle_agreement(self):
        for gamma in (1, 2):
            h = build_tree(gamma, max_root=4)
            ranks = finite_node_ranks(h.materialize())
            for node, r in ranks.items():
                if h.subtree_complete(node):
                    assert h.residual_rank(node) == F(r)
                else:
                    assert F(r) < h.residual_rank(node)


class TestLimitTree:
    def test_roots_cover_increasing_ranks(self):
        tw = build_tree(W, max_root=4)
        ranks = [tw.residual_rank(r) for r in tw.roots()]
        assert F(0) in ranks and F(3) in ranks
        assert (W + 2) in ranks
        assert any(r >= W.mul_nat(2) for r in ranks)

    def test_functions_extend_by_zero(self):
        tw = build_tree(W, max_root=3)
        root = tw.roots()[0]  # shifted depth-1 chain
        f = tw.node_function(root)
        assert f.top == omega_pow(W)
        assert f(1) == 1.0 and f(2) == -1.0
        assert f(W) == 0

    def test_handle_prints_gamma_and_max_root(self):
        assert repr(build_tree(W, max_root=3)) == "TreeHandle(gamma=w, max_root=3)"
        assert repr(build_tree(2)) == "TreeHandle(gamma=2, max_root=6)"

    def test_rejects_unsupported_gamma(self):
        with pytest.raises(NotImplementedError):
            build_tree(omega_pow(2))
        with pytest.raises(ValueError):
            build_tree(0)


class TestNodeChecks:
    @pytest.mark.parametrize("gamma", [2, 3, W], ids=["2", "3", "w"])
    def test_corrupt_label_in_embedded_copy_or_summand(self, gamma):
        # every query reads the whole node as a run of chains, so a
        # corrupted last label, in the bottom chain of an embedded copy
        # or of a summand, is rejected by each of them
        h = build_tree(gamma, max_root=3)
        deep = max(h.max_nodes(), key=len)
        bad = deep[:-1] + (deep[-1] + F(1),)
        assert h.contains(deep) and h.contains(deep[:-1])
        assert not h.contains(bad)
        for query in (h.children, h.is_max, h.subtree_complete, h.residual_rank,
                      h.node_function):
            with pytest.raises(ValueError):
                query(bad)


def answer(query, t):
    """A query's answer on t, or ValueError if it refuses t."""
    try:
        return query(t)
    except ValueError:
        return ValueError


class TestChainReading:
    @pytest.mark.parametrize("gamma", [1, 2, W], ids=["1", "2", "w"])
    def test_int_labels_read_as_ordinals(self, gamma):
        # a node with int labels is the node of the Ordinals they equal,
        # whether or not it lies in the tree
        h = build_tree(gamma, max_root=3)
        nodes = [t for t in h.materialize() if all(lbl.is_finite() for lbl in t)]
        nodes += [(F(3),), (F(3), F(1)), (F(2), F(1), F(0)), (F(3), F(0))]
        for t in nodes:
            ints = tuple(lbl.to_int() for lbl in t)
            for query in (h.contains, h.children, h.is_max, h.residual_rank,
                          h.node_function):
                assert answer(query, ints) == answer(query, t)
            if h.contains(t):
                assert all(isinstance(lbl, Ordinal) for c in h.children(ints) for lbl in c)
        assert any(h.contains(t) for t in nodes) == (gamma != 2)

    def test_node_function_past_the_piece_budget_is_refused(self):
        # one complete gamma-1 chain of L labels alternates on 2^L blocks,
        # and the budget is 2^16 pieces
        h = build_tree(1)
        at_budget = tuple(F(j) for j in range(15, -1, -1))
        past = (F(16),) + at_budget
        assert h.contains(past) and h.residual_rank(past) == 0
        with pytest.raises(ValueError, match="pieces"):
            h.node_function(past)
        assert len(h.node_function(at_budget).pieces) == 2**16

    def test_node_function_past_the_width_bound_is_refused(self):
        # a gamma-1 root n - 1 alternates on blocks of width 2^(n - 1),
        # and the bound is checked before the width is computed
        h = build_tree(1)
        assert h.node_function((F(MAX_WIDTH_EXPONENT),)).pieces[-1][0].hi == 2 ** (MAX_WIDTH_EXPONENT + 1)
        for label in (MAX_WIDTH_EXPONENT + 1, 20000, 10**9):
            with pytest.raises(ValueError, match=rf"node \(Ordinal\[{label}\],\) has blocks of width"):
                h.node_function((F(label),))

    @pytest.mark.parametrize("gamma", [1, 2, 3, W], ids=["1", "2", "3", "w"])
    def test_node_function_matches_recursive_construction(self, gamma):
        h = build_tree(gamma, max_root=3)
        for t in h.materialize():
            f, ref = h.node_function(t), node_function_reference(gamma, t)
            assert f.top == ref.top and f.pieces == ref.pieces

    @pytest.mark.parametrize("gamma", [1, 2, 3, W], ids=["1", "2", "3", "w"])
    def test_maximal_exactly_without_children(self, gamma):
        # a complete chain above level 0 has the next level's chains below
        h = build_tree(gamma, max_root=3)
        for t in h.materialize():
            assert h.is_max(t) == (h.children(t) == [])

    def test_deep_and_wide_trees_build_nothing(self):
        wide = build_tree(W, max_root=1000)
        top = omega_pow(999) + W.mul_nat(999)
        assert wide.residual_rank((top + 5,)) == W.mul_nat(999) + 5
        deep = build_tree(600, max_root=2)
        assert deep.residual_rank((W.mul_nat(599) + 1,)) == W.mul_nat(599) + 1

    def test_max_root_bounds_enumerations_not_membership(self):
        # a root index past max_root and a summand past it are both nodes,
        # though neither is listed among the roots
        t1 = build_tree(1, max_root=2)
        assert t1.contains((F(4),)) and t1.residual_rank((F(4),)) == F(4)
        assert (F(4),) not in t1.roots()
        tw = build_tree(W, max_root=2)
        node = (omega_pow(2) + W.mul_nat(2),)
        assert tw.contains(node) and tw.residual_rank(node) == W.mul_nat(2)
        assert node not in tw.roots()
        assert tw.children(node) == [node + (omega_pow(2) + W,), node + (omega_pow(2) + W + 1,)]


class TestCantorScheme:
    def test_scheme_of_normalizes_each_cell_once(self, monkeypatch):
        # the 2047 cells of the (1, 1, 2) sharpness branch come out of
        # meet normalized, and the scheme keeps them as they are: the only
        # unions sorted are the support and the preimages that scheme_of
        # reads from the functions
        captured = []
        monkeypatch.setattr(
            harness, "scheme_of", lambda funcs: captured.append(funcs) or scheme_of(funcs)
        )
        harness.run_sharpness(harness.ScenarioConfig(xi="1", zeta="1", stream="2"))
        (funcs,) = captured
        sorted_pieces = []
        real = space._iv_sort_key
        monkeypatch.setattr(space, "_iv_sort_key", lambda iv: sorted_pieces.append(iv) or real(iv))
        funcs[0].support()
        for f in funcs:
            f.preimage(-1.0), f.preimage(1.0)
        read = len(sorted_pieces)
        sorted_pieces.clear()
        scheme = scheme_of(funcs)
        assert len(scheme.cells) == 2047
        assert len(sorted_pieces) == read

    def test_branch_cells_match_hand_computation(self):
        t1 = build_tree(1, max_root=4)
        scheme = cantor_scheme(t1, (F(1), F(0)))
        assert scheme.cells[()] == (Iv(F(0), F(4)),)
        assert scheme.cells[(1,)] == (Iv(F(0), F(2)),)
        assert scheme.cells[(1, -1)] == (Iv(F(1), F(2)),)

    def test_single_node_branch(self):
        t1 = build_tree(1, max_root=4)
        scheme = cantor_scheme(t1, (F(0),))
        assert scheme.cells[()] == (Iv(F(0), F(2)),)
        assert scheme.cells[(1,)] == (Iv(F(0), F(1)),)
        assert scheme.cells[(-1,)] == (Iv(F(1), F(2)),)

    def test_compatibility_all_branches(self):
        for gamma in (1, 2):
            h = build_tree(gamma, max_root=4)
            for t in h.max_nodes():
                scheme = cantor_scheme(h, t)
                funcs = [h.node_function(p) for p in h.branch(t)]
                assert compatible(funcs, scheme)

    def test_biorthogonality_all_branches(self):
        for gamma in (1, 2):
            h = build_tree(gamma, max_root=4)
            for t in h.max_nodes():
                scheme = cantor_scheme(h, t)
                mus = rademacher(scheme, default_selector(scheme))
                funcs = [h.node_function(p) for p in h.branch(t)]
                for i, mu in enumerate(mus):
                    for j, f in enumerate(funcs):
                        assert mu.pair(f) == (1 if i == j else 0)

    def test_rademacher_weak2_sampled_at_depth_four(self):
        # the 4 x 16 matrix R of the measures' weights has R R^T = I/16,
        # so |R x|^2 <= |x|^2 / 16 = 1 for every sign vector x: the
        # weak-2 norm is at most 1, exactly
        h = build_tree(1, max_root=4)
        branch = (F(3), F(2), F(1), F(0))
        scheme = cantor_scheme(h, branch)
        mus = rademacher(scheme, default_selector(scheme))
        assert scheme.depth == 4
        rows = [dict(mu.atoms) for mu in mus]
        assert all(len(r) == 16 and r.keys() == rows[0].keys() for r in rows)
        gram = [[sum(r[pt] * s[pt] for pt in r) for s in rows] for r in rows]
        assert gram == [[Fraction(int(i == j), 16) for j in range(4)] for i in range(4)]

    def test_requires_maximal(self):
        t1 = build_tree(1, max_root=4)
        with pytest.raises(ValueError):
            cantor_scheme(t1, (F(3),))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        atom_labels().map(lambda dl: labelled_functions(*dl)),
        st.lists(st.lists(st.sampled_from([-1.0, 0, 1.0, 1, 0.5]), min_size=len(ATOMS),
                          max_size=len(ATOMS)), min_size=1, max_size=3).map(
            lambda rows: [StepFunction(W.mul_nat(2), zip(ATOMS, row)) for row in rows])))
    def test_cells_match_points(self, funcs):
        # a labelling's functions give a scheme, cells of several pieces
        # among them; random sign rows mostly give an empty cell, named
        # as the first one level by level
        cells = scheme_cells_by_points(funcs, POINTS)
        empty = next((d for d, cell in cells.items() if not cell), None)
        if empty is not None:
            with pytest.raises(ValueError, match=f"^cell {re.escape(str(empty))} is empty$"):
                scheme_of(funcs)
            return
        scheme = scheme_of(funcs)
        assert {d: points_of(cell, POINTS) for d, cell in scheme.cells.items()} == cells
        assert all(normalize_union(cell) == cell for cell in scheme.cells.values())
        assert compatible(funcs, scheme)

    def test_scheme_of_a_labelling_is_its_cells(self):
        labels = [(1, -1), (-1, 1), (1, -1), (-1, -1), None, (1, 1), (-1, 1), (1, -1)]
        scheme = scheme_of(labelled_functions(2, labels))
        assert scheme.cells[(1, -1)] == normalize_union(labelled_cells(2, labels)[(1, -1)])
        assert len(scheme.cells[(1, -1)]) == 3

    def test_cells_match_whole_union_intersection(self):
        for gamma in (1, 2):
            h = build_tree(gamma, max_root=4)
            for t in h.max_nodes():
                assert cantor_scheme(h, t).cells == cantor_cells_reference(h, t)


class TestBlockMap:
    def test_first_examples(self):
        t1 = build_tree(1, max_root=10)
        assert block_map_path(0, 0, t1, (3,))[-1] == (F(2),)
        assert block_map_path(0, 0, t1, (3, 4))[-1] == (F(2), F(1))
        assert block_map_path(0, 0, t1, (3, 4, 5))[-1] == (F(2), F(1), F(0))

    def test_constant_on_segments(self):
        t1 = build_tree(1, max_root=12)
        E = decompose(Conv(1, 1), count(3), 1)[0]
        path = block_map_path(1, 0, t1, E)
        # three inner blocks of sizes 3, 6, 12
        assert len(set(path[:3])) == 1
        assert len(set(path[3:9])) == 1
        assert len(set(path[9:])) == 1
        assert len(set(path)) == 3

    def test_monotone_exhaustive(self):
        t1 = build_tree(1, max_root=12)
        fam = Conv(1, 0)
        images = {}
        for E in subsets(range(1, 9)):
            if E and member(fam, E):
                images[E] = block_map_path(0, 0, t1, E)[-1]
        for E, tE in images.items():
            for G, tG in images.items():
                if len(E) < len(G) and G[: len(E)] == E:
                    assert tG[: len(tE)] == tE

    def test_rank_invariant_along_path(self):
        from ordtensor.schreier import node_rank_exact, split_blocks

        tw = build_tree(W, max_root=9)
        E = decompose(Conv(2, 1), count(2), 1, max_elements=5000)[0]
        path = block_map_path(1, 1, tw, E)
        for j in range(1, len(E) + 1):
            blocks = split_blocks(Base(1), E[: j])
            minima = tuple(b[0] for b in blocks)
            h = node_rank_exact(Base(2), minima)
            assert tw.residual_rank(path[j - 1]) >= h

    @pytest.mark.parametrize(
        "xi, zeta, gamma, max_root",
        [(0, 0, 1, 12), (1, 0, 1, 12), (1, 1, W, 9)],
        ids=["S[1][S[0]]", "S[1][S[1]]", "S[2][S[1]]"],
    )
    def test_matches_per_prefix_split(self, xi, zeta, gamma, max_root):
        handle = build_tree(gamma, max_root=max_root)
        fam = Conv(1 + zeta, xi)
        sets = [E for E in subsets(range(1, 9)) if E and member(fam, E)]
        # first maximal blocks, cut to 300 elements (members by heredity)
        for start in range(1, 7):
            try:
                sets.append(decompose(fam, count(start), 1, max_elements=5000)[0][:300])
            except BudgetExceeded:
                pass
        assert len(sets) > 20
        for E in sets:
            try:
                expected = block_map_path_reference(xi, zeta, handle, E)
            except StopIteration:
                with pytest.raises(BoundsError):
                    block_map_path(xi, zeta, handle, E)
                continue
            assert block_map_path(xi, zeta, handle, E) == expected

    def test_bounds_error(self):
        t1 = build_tree(1, max_root=3)
        with pytest.raises(BoundsError):
            block_map_path(0, 0, t1, (9,))

    def test_wrong_tree_rank_rejected(self):
        t1 = build_tree(1, max_root=4)
        with pytest.raises(ValueError):
            block_map_path(0, 1, t1, (1,))

    def test_requires_membership(self):
        t1 = build_tree(1, max_root=6)
        with pytest.raises(ValueError):
            block_map_path(0, 0, t1, (2, 3, 4))
