import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ordtensor.ordinal import OMEGA, Ordinal, omega_pow
from ordtensor.space import (
    AtomicMeasure,
    CantorScheme,
    Iv,
    StepFunction,
    compatible,
    default_selector,
    disjoint,
    indicator,
    meet,
    normalize_union,
    rademacher,
    values_at,
    weak2_norm_squared_exact,
    weak_1_norm_exact,
)

from oracles import (
    compatible_by_points,
    points_of,
    scheme_fault_by_points,
    union_points,
)

F = Ordinal.from_int
W = OMEGA
TOP = 12


def iv(a, b):
    return Iv(F(a), F(b))


@st.composite
def int_unions(draw):
    """Unsorted unions of integer intervals in [0, TOP], empties included."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        lo = draw(st.one_of(st.none(), st.integers(0, TOP)))
        hi = draw(st.integers(0, TOP))
        out.append(Iv(None if lo is None else F(lo), F(hi)))
    return out


class TestIntervals:
    def test_contains(self):
        assert iv(1, 3).contains(F(2))
        assert not iv(1, 3).contains(F(1))
        assert iv(1, 3).contains(F(3))
        assert Iv(None, F(3)).contains(F(0))

    def test_intersect(self):
        assert iv(0, 4).intersect(iv(2, 6)) == iv(2, 4)
        assert iv(0, 2).intersect(iv(2, 4)) is None
        assert Iv(None, F(2)).intersect(iv(1, 5)) == iv(1, 2)

    def test_least(self):
        assert iv(1, 2).least() == F(2)
        assert iv(0, 2).least() == F(1)
        assert Iv(None, F(5)).least() == F(0)
        assert Iv(W, W + 4).least() == W + 1

    def test_normalize_merges(self):
        u = normalize_union([iv(2, 3), iv(0, 1), iv(1, 2)])
        assert u == (iv(0, 3),)
        # several intervals from 0 overlap one another
        u = normalize_union([Iv(None, F(1)), Iv(None, F(0)), iv(1, 2)])
        assert u == (Iv(None, F(2)),)

    @settings(max_examples=200, deadline=None)
    @given(int_unions())
    def test_normalized_tuple_comes_back_as_it_is(self, u):
        want = normalize_union(iter(u))
        assert normalize_union(tuple(u)) == want
        assert normalize_union(want) is want

    def test_tuple_out_of_form_is_normalized(self):
        # a tuple is kept only if sorted, with no empty piece and no two
        # pieces touching
        for bad in ((iv(0, 1), iv(1, 2)), (iv(2, 3), iv(0, 1)), (iv(0, 1), iv(2, 2)),
                    (iv(0, 1), Iv(None, F(3)))):
            assert normalize_union(bad) == normalize_union(iter(bad)) != bad

    def test_union_ops(self):
        a = (iv(0, 2), iv(4, 6))
        b = (iv(1, 5),)
        assert meet(a, b) == (iv(1, 2), iv(4, 5))
        assert meet(a, (iv(0, 1),)) == (iv(0, 1),)
        assert meet(a, b) != b


def contains(u, small):
    """Whether the union ``u`` holds every point of ``small``, by ``meet``."""
    small = normalize_union(small)
    return meet(normalize_union(u), small) == small


class TestUnionsAgainstPoints:
    @given(int_unions(), int_unions())
    def test_intersect(self, u, v):
        w = meet(normalize_union(u), normalize_union(v))
        assert normalize_union(w) == w
        assert union_points(w, TOP) == union_points(u, TOP) & union_points(v, TOP)

    @given(int_unions(), int_unions())
    def test_contains(self, u, v):
        assert contains(u, v) == (union_points(v, TOP) <= union_points(u, TOP))

    @given(int_unions())
    def test_contains_own_pieces(self, u):
        assert contains(u, u)
        assert all(contains(u, [piece]) for piece in u)


class TestStepFunction:
    def test_eval_and_canonical(self):
        f = StepFunction(W, [(iv(0, 2), 1.0), (iv(2, 4), -1.0)])
        assert f(1) == 1.0 and f(3) == -1.0 and f(0) == 0 and f(5) == 0
        merged = StepFunction(W, [(iv(0, 2), 1.0), (iv(2, 4), 1.0)])
        assert merged.pieces == ((iv(0, 4), 1.0),)

    def test_rejects_overlap_and_overflow(self):
        with pytest.raises(ValueError):
            StepFunction(W, [(iv(0, 3), 1.0), (iv(2, 4), 1.0)])
        with pytest.raises(ValueError):
            StepFunction(F(3), [(iv(0, 5), 1.0)])

    def test_sup_and_support(self):
        f = StepFunction(W, [(iv(0, 2), 0.5), (iv(3, 4), -2.0)])
        assert f.sup_norm() == 2.0
        assert f.support() == (iv(0, 2), iv(3, 4))
        assert StepFunction(W, []).sup_norm() == 0

    def test_restrict_project(self):
        f = StepFunction(W, [(iv(0, 2), 1.0), (iv(2, 4), -1.0)])
        assert f.project(W) == f
        r = f.restrict(F(2))
        assert r.top == F(2) and r.pieces == ((iv(0, 2), 1.0),)
        p = f.project(F(2))
        assert p.top == W and p.pieces == ((iv(0, 2), 1.0),)
        assert r.sup_norm() <= f.sup_norm()

    def test_project_commutes_with_linear_combinations(self):
        f = StepFunction(W, [(iv(0, 3), 1.0)])
        g = StepFunction(W, [(iv(2, 5), -2.0)])
        lhs = (f + g).project(F(4))
        rhs = f.project(F(4)) + g.project(F(4))
        assert lhs == rhs
        assert (2.0 * f).project(F(2)) == 2.0 * f.project(F(2))

    def test_restrict_commutes_with_linear_combinations(self):
        f = StepFunction(W, [(iv(0, 3), 1.0)])
        g = StepFunction(W, [(iv(2, 5), -2.0)])
        assert (f + g).restrict(F(4)) == f.restrict(F(4)) + g.restrict(F(4))
        for beta in (2, 4, 6):
            assert all(
                piece.hi <= F(beta) for piece in f.project(F(beta)).support()
            )

    def test_add_scale_exact_values(self):
        f = StepFunction(W, [(iv(0, 2), Fraction(1, 3))])
        g = StepFunction(W, [(iv(1, 3), Fraction(2, 3))])
        h = f + g
        assert h(1) == Fraction(1, 3)
        assert h(2) == Fraction(1)
        assert h(3) == Fraction(2, 3)
        assert (Fraction(3) * f)(1) == Fraction(1)

    def test_immutable_and_printed_with_exact_values(self):
        f = StepFunction(F(4), [(Iv(None, F(1)), 1.0), (iv(2, 4), Fraction(-1, 3))])
        with pytest.raises(AttributeError, match="immutable"):
            f.top = W
        assert repr(f) == "StepFunction[0,4]([0,1]=1.0, (2,4]=-1/3)"

    def test_ordinal_pieces(self):
        f = StepFunction(omega_pow(2), [(Iv(W.mul_nat(2), W.mul_nat(4)), -1.0)])
        assert f(W.mul_nat(3)) == -1.0
        assert f(W.mul_nat(2)) == 0
        assert f(W.mul_nat(4)) == -1.0


# a small ordinal domain [0, w*2] with limit points; piece ends are drawn
# from ENDS, so every point of an atom between two ends is read at the
# atom's least point, and POINTS meets every atom of every drawn function
ENDS = [F(0), F(1), F(2), F(3), W, W + 1, W + 2, W.mul_nat(2)]
POINTS = sorted(set(ENDS) | {e + 1 for e in ENDS[:-1]})
values = st.one_of(
    st.integers(-4, 4).map(lambda n: n / 2),
    st.fractions(-2, 2, max_denominator=6),
)


@st.composite
def step_functions(draw):
    """Step functions on [0, w*2]: float or Fraction values, a zero value
    left as a gap, the first piece perhaps from 0 itself."""
    ends = sorted(draw(st.sets(st.sampled_from(ENDS), min_size=1)))
    lo = None if draw(st.booleans()) else ends.pop(0)
    pieces = []
    for hi in ends:
        pieces.append((Iv(lo, hi), draw(st.one_of(st.just(0), values))))
        lo = hi
    return StepFunction(W.mul_nat(2), pieces)


class TestValuesAt:
    """The sweep against one lookup per point."""

    @given(st.lists(step_functions(), max_size=3), st.lists(st.sampled_from(POINTS), max_size=12))
    def test_matches_pointwise(self, fs, pts):
        # the drawn points are unsorted and repeated; piece ends, gaps
        # and the top are all among them
        rows = values_at(fs, pts)
        assert rows == [[f(pt) for pt in pts] for f in fs]
        assert [list(map(type, r)) for r in rows] == [[type(f(pt)) for pt in pts] for f in fs]

    def test_reads_int_points_and_refuses_points_past_the_top(self):
        f = StepFunction(F(4), [(Iv(None, F(0)), 2.0), (iv(1, 3), Fraction(1, 2))])
        assert values_at([f], [3, 0, 1, 4, 2, 0]) == [[Fraction(1, 2), 2.0, 0, 0, Fraction(1, 2), 2.0]]
        assert values_at([f], []) == [[]] and values_at([], [1, 2]) == []
        with pytest.raises(ValueError, match="outside"):
            values_at([f], [F(2), F(5)])

    @given(step_functions(), step_functions())
    def test_sum_is_pointwise(self, f, g):
        assert all((f + g)(pt) == f(pt) + g(pt) for pt in POINTS)

    @given(st.lists(step_functions(), max_size=3))
    def test_weak_1_norm_is_the_max_over_points(self, fs):
        expected = max((sum(abs(Fraction(f(pt))) for f in fs) for pt in POINTS), default=0)
        assert weak_1_norm_exact(fs) == expected

    @given(step_functions(), st.dictionaries(st.sampled_from(POINTS), values, max_size=6))
    def test_pairing_is_the_weighted_sum(self, f, weights):
        mu = AtomicMeasure(tuple(weights.items()))
        assert mu.pair(f) == sum(Fraction(w) * Fraction(f(pt)) for pt, w in weights.items())


class TestDisjointAndWeakNorms:
    def test_disjoint(self):
        a = indicator(W, iv(0, 1))
        b = indicator(W, iv(1, 2))
        assert disjoint([a, b])
        assert not disjoint([a, a])
        assert disjoint([])

    def test_weak_p(self):
        a = indicator(W, iv(0, 1))
        b = indicator(W, iv(1, 2))
        assert weak_1_norm_exact([a, b]) == 1
        c = StepFunction(W, [(iv(0, 2), 1.0)])
        d = StepFunction(W, [(iv(1, 3), 1.0)])
        assert weak_1_norm_exact([c, d]) == Fraction(2)


class TestAtomicMeasure:
    def test_pair(self):
        f = StepFunction(W, [(iv(0, 2), 1.0), (iv(2, 4), -1.0)])
        assert AtomicMeasure(((F(1), 1),)).pair(f) == 1
        assert AtomicMeasure(((F(3), 1),)).pair(f) == -1
        mu = AtomicMeasure(((F(1), Fraction(1, 2)), (F(3), Fraction(1, 2))))
        assert mu.pair(f) == 0

    def test_zero_function(self):
        zero = StepFunction(W, [])
        mu = AtomicMeasure(((F(5), 1),))
        assert mu.pair(zero) == 0

    def test_distinct_points(self):
        with pytest.raises(ValueError):
            AtomicMeasure(((F(1), Fraction(1)), (F(1), Fraction(2))))


def toy_scheme():
    cells = {
        (): (iv(0, 4),),
        (1,): (iv(0, 2),),
        (-1,): (iv(2, 4),),
        (1, 1): (iv(0, 1),),
        (1, -1): (iv(1, 2),),
        (-1, 1): (iv(2, 3),),
        (-1, -1): (iv(3, 4),),
    }
    return CantorScheme(depth=2, cells=cells)


class TestCantorScheme:
    def test_validation(self):
        toy_scheme()
        bad = {
            (): (iv(0, 4),),
            (1,): (iv(0, 3),),
            (-1,): (iv(2, 4),),  # overlaps the (1,) cell
        }
        with pytest.raises(ValueError):
            CantorScheme(depth=1, cells=bad)
        with pytest.raises(ValueError):
            CantorScheme(depth=1, cells={(): (iv(0, 2),), (1,): (iv(0, 1),)})

    def test_refuses_an_empty_cell(self):
        cells = {(): (iv(0, 4),), (1,): (iv(0, 2),), (-1,): (iv(3, 3),)}
        with pytest.raises(ValueError, match=r"^cell \(-1,\) is empty$"):
            CantorScheme(depth=1, cells=cells)

    def test_refuses_a_child_outside_its_parent(self):
        cells = {(): (iv(0, 2),), (1,): (iv(0, 1),), (-1,): (iv(2, 3),)}
        with pytest.raises(ValueError, match=r"^children of \(\) not nested$"):
            CantorScheme(depth=1, cells=cells)

    @pytest.mark.parametrize("key", [(1, 1), (7,)], ids=["too-long", "not-a-sign"])
    def test_refuses_a_key_that_is_no_sign_sequence(self, key):
        # a stray cell would be built, and compatible or to_json misread it
        cells = {(): (iv(0, 4),), (1,): (iv(0, 2),), (-1,): (iv(2, 4),), key: (iv(0, 1),)}
        with pytest.raises(ValueError, match=rf"^cell key {re.escape(str(key))} is not a sign "
                                             r"sequence of length <= 1$"):
            CantorScheme(depth=1, cells=cells)

    def test_refuses_a_negative_depth(self):
        # no sign sequence has a negative length: the scheme would have
        # no cells, and its leaves could not be listed
        with pytest.raises(ValueError, match=r"^scheme depth must be non-negative, got -1$"):
            CantorScheme(depth=-1, cells={})

    def test_unnormalized_cells_match_their_normalized_twin(self):
        # unsorted pieces, an empty piece, and cells split into touching pieces
        ragged = {
            (): (iv(3, 4), iv(0, 1), iv(2, 2), iv(1, 3)),
            (1,): (iv(1, 2), iv(0, 1)),
            (-1,): (iv(3, 4), iv(2, 3)),
            (1, 1): (iv(0, 1),),
            (1, -1): (iv(1, 2), iv(2, 2)),
            (-1, 1): (iv(2, 3),),
            (-1, -1): (iv(3, 4),),
        }
        twin = toy_scheme()
        scheme = CantorScheme(depth=2, cells=ragged)
        assert default_selector(scheme) == default_selector(twin)
        f1 = StepFunction(W, [(iv(0, 2), 1.0), (iv(2, 4), -1.0)])
        f2 = StepFunction(W, [(iv(0, 1), 1.0), (iv(1, 2), -1.0),
                              (iv(2, 3), 1.0), (iv(3, 4), -1.0)])
        for funcs in ([f1, f2], [f2, f1]):
            assert compatible(funcs, scheme) == compatible(funcs, twin)
        bad = dict(ragged)
        bad[(-1, -1)] = (iv(3, 4), iv(1, 2))  # one piece outside (-1,)
        with pytest.raises(ValueError, match="not nested"):
            CantorScheme(depth=2, cells=bad)

    def test_default_selector_least_points(self):
        sel = default_selector(toy_scheme())
        assert sel[(1, 1)] == F(1)
        assert sel[(1, -1)] == F(2)
        assert sel[(-1, -1)] == F(4)


# the atoms of [0, w*2] between consecutive ENDS; POINTS meets each of them
ATOMS = [Iv(None, ENDS[0])] + [Iv(a, b) for a, b in zip(ENDS, ENDS[1:])]


def sign_sequences(k: int):
    return st.tuples(*[st.sampled_from((-1, 1))] * k)


@st.composite
def atom_labels(draw):
    """A depth and a leaf (sign sequence) or None for every atom, each
    leaf on at least one atom: a leaf on atoms apart has a cell of several
    pieces."""
    depth = draw(st.integers(1, 3))
    leaves = list(product((-1, 1), repeat=depth))
    rest = [draw(st.one_of(st.none(), st.sampled_from(leaves)))
            for _ in range(len(ATOMS) - len(leaves))]
    return depth, draw(st.permutations(leaves + rest))


def labelled_cells(depth, labels) -> dict:
    """Every cell of the labelling: the atoms whose leaf extends it."""
    return {d: tuple(a for a, leaf in zip(ATOMS, labels) if leaf and leaf[:len(d)] == d)
            for k in range(depth + 1) for d in product((-1, 1), repeat=k)}


def labelled_functions(depth, labels, changes=()) -> list:
    """The functions of a labelling, ``d[i]`` on an atom of leaf d and 0
    off the root, with the value of function i on atom a set to v for
    each change ``(i, a, v)``."""
    table = [[leaf[i] if leaf else 0 for leaf in labels] for i in range(depth)]
    for i, a, v in changes:
        table[i % depth][a] = v
    return [StepFunction(W.mul_nat(2), zip(ATOMS, row)) for row in table]


class TestSchemesOnPoints:
    """Scheme validation and compatibility against their definitions read
    one point at a time, on schemes of several-piece cells."""

    @settings(max_examples=300, deadline=None)
    @given(atom_labels(), st.data())
    def test_refusal_names_the_first_fault(self, labelled, data):
        # a labelling gives a valid scheme; each extra atom put into a
        # cell may break the nesting or the disjointness of some parent
        depth, labels = labelled
        cells = labelled_cells(depth, labels)
        extras = data.draw(st.lists(st.tuples(
            st.integers(1, depth).flatmap(sign_sequences), st.sampled_from(ATOMS)), max_size=3))
        for d, atom in extras:
            cells[d] += (atom,)
        fault = scheme_fault_by_points(cells, depth, POINTS)
        if fault is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
                CantorScheme(depth=depth, cells=cells)
            return
        scheme = CantorScheme(depth=depth, cells=cells)
        for d, cell in scheme.cells.items():
            assert normalize_union(cell) == cell
            assert points_of(cell, POINTS) == points_of(cells[d], POINTS)

    @settings(max_examples=300, deadline=None)
    @given(atom_labels(), st.lists(st.tuples(st.integers(0, 2), st.integers(0, len(ATOMS) - 1),
                                             st.sampled_from([-1.0, 0, 1.0, 1, 0.5])), max_size=3))
    def test_compatible_is_the_sign_at_every_point(self, labelled, changes):
        depth, labels = labelled
        scheme = CantorScheme(depth=depth, cells=labelled_cells(depth, labels))
        assert compatible(labelled_functions(depth, labels), scheme)
        funcs = labelled_functions(depth, labels, changes)
        assert compatible(funcs, scheme) == compatible_by_points(funcs, scheme.cells, POINTS)

    def test_both_verdicts_and_several_piece_cells_are_drawn(self):
        # the cells (1,) and (-1,) of this labelling have three and two pieces
        labels = [(1,), (-1,), (1,), None, (1,), (-1,), None, None]
        scheme = CantorScheme(depth=1, cells=labelled_cells(1, labels))
        assert len(scheme.cells[(1,)]) == 3 and len(scheme.cells[(-1,)]) == 2
        assert compatible(labelled_functions(1, labels), scheme)
        for changes in ([(0, 2, -1.0)], [(0, 5, 0)], [(0, 4, 0.5)]):
            funcs = labelled_functions(1, labels, changes)
            assert not compatible(funcs, scheme)
            assert not compatible_by_points(funcs, scheme.cells, POINTS)
        # an atom off the root may take any value
        assert compatible(labelled_functions(1, labels, [(0, 3, -1.0)]), scheme)

    @pytest.mark.parametrize("cells, fault", [
        # both parents of level 1 have a child outside them
        ({(-1, 1): (iv(1, 3),), (1, 1): (iv(0, 1), iv(3, 4))}, "children of (-1,) not nested"),
        # the first overlaps its sibling, the second pokes out
        ({(-1, 1): (iv(2, 4),), (1, -1): (iv(1, 3),)}, "children of (-1,) overlap"),
        # the first pokes out, the second overlaps its sibling
        ({(-1, -1): (iv(3, 4), iv(0, 1)), (1, 1): (iv(0, 2),)}, "children of (-1,) not nested"),
        # a fault of level 0 comes before those of level 1
        ({(1,): (iv(0, 3),), (-1, 1): (iv(1, 3),)}, "children of () overlap"),
    ])
    def test_two_faulty_parents_name_the_first_in_product_order(self, cells, fault):
        cells = {**toy_scheme().cells, **cells}
        assert scheme_fault_by_points(cells, 2, [F(x) for x in range(5)]) == fault
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            CantorScheme(depth=2, cells=cells)


class TestRademacher:
    def test_depth_one(self):
        cells = {(): (iv(0, 2),), (1,): (iv(0, 1),), (-1,): (iv(1, 2),)}
        s = CantorScheme(depth=1, cells=cells)
        (mu,) = rademacher(s, default_selector(s))
        assert dict(mu.atoms) == {F(1): Fraction(1, 2), F(2): Fraction(-1, 2)}

    def test_depth_two_weights(self):
        s = toy_scheme()
        mus = rademacher(s, default_selector(s))
        for mu in mus:
            assert sorted(abs(w) for _, w in mu.atoms) == [Fraction(1, 4)] * 4

    def test_selector_outside_cell_rejected(self):
        s = toy_scheme()
        sel = default_selector(s)
        sel[(1, 1)] = F(4)
        with pytest.raises(ValueError):
            rademacher(s, sel)

    def test_weak2_bound_exact_and_sampled(self):
        s = toy_scheme()
        mus = rademacher(s, default_selector(s))
        sq = weak2_norm_squared_exact(mus)
        assert sq <= 1


class TestCompatibility:
    def test_toy_compatible_family(self):
        f1 = StepFunction(W, [(iv(0, 2), 1.0), (iv(2, 4), -1.0)])
        f2 = StepFunction(W, [(iv(0, 1), 1.0), (iv(1, 2), -1.0),
                              (iv(2, 3), 1.0), (iv(3, 4), -1.0)])
        assert compatible([f1, f2], toy_scheme())
        assert not compatible([f2, f1], toy_scheme())

    def test_needs_one_function_per_level(self):
        with pytest.raises(ValueError, match="^need one function per scheme level$"):
            compatible([], toy_scheme())
