import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import block_diag

from ordtensor import harness, tensor
from ordtensor.tensor import (
    MAX_EPIGRAPH_VARS,
    MAX_JOINT_EPIGRAPH_VARS,
    BudgetError,
    DualCertificate,
    PiSolver,
    eps_norm,
    normal_form,
    pair_dual,
    pi_norm,
    pi_norm_decomposition,
    sign_norm,
    weak_1_norm_pi,
    weak_2_norm_pi_lower,
)

from oracles import epigraph_reference, two_sided_pi_norm, weak_1_reference, weak_2_reference

rng = np.random.default_rng(12345)


@contextmanager
def counting_linprog():
    """Every ``linprog`` call the tensor layer makes inside the block."""
    calls = []
    real = tensor.linprog

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "linprog", counting)
        yield calls


@pytest.fixture
def linprog_calls():
    with counting_linprog() as calls:
        yield calls


@pytest.fixture
def solve_all_rounds(monkeypatch):
    """The number of matrices of each ``PiSolver.solve_all`` call."""
    rounds = []
    real = PiSolver.solve_all

    def spy(self, Us):
        Us = list(Us)
        rounds.append(len(Us))
        return real(self, Us)

    monkeypatch.setattr(PiSolver, "solve_all", spy)
    return rounds


# entries from a small lattice make zeros, ties and signed copies common
entries = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
    st.floats(-1, 1, allow_nan=False),
)
# outer-product factors: the lattice with a signed zero, floats no smaller
# than 2^-10, and tiny entries, which HiGHS would misprice
factor_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25]),
    st.floats(2.0**-10, 1),
    st.floats(1e-12, 3e-8),
).flatmap(lambda x: st.sampled_from([x, -x]))
# the same lattice beside floats no smaller than 2^-10: HiGHS's absolute
# tolerances can misprice an entry near 1e-7, whichever way the LP is written
coarse_entries = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
    st.floats(2.0**-10, 1).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def matrices(draw, max_rows=4, max_cols=5, entries=entries):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    vals = draw(st.lists(entries, min_size=m * n, max_size=m * n))
    return np.array(vals).reshape(m, n)


@st.composite
def signed_permutations(draw, U):
    """U with its rows and columns permuted and signed, maybe transposed."""
    m, n = U.shape
    rows = draw(st.permutations(range(m)))
    cols = draw(st.permutations(range(n)))
    row_signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    col_signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    V = U[rows][:, cols] * np.array(row_signs)[:, None] * col_signs
    return V.T if draw(st.booleans()) else V


# rows 0 and 1 tie under colour refinement of |U|, which cannot see signs
TIED_PAIR = (
    np.array([[0, -3e-8, -1], [-3e-8, 0, -1], [0.5, -0.5, 0.5]]),
    np.array([[-3e-8, 0, -1], [0, -3e-8, -1], [0.5, -0.5, 0.5]]),
)


def moved_pairs_of(U):
    """U and a signed permutation of it."""
    return st.tuples(st.just(U), signed_permutations(U))


def moved_pairs(**shape):
    """A matrix and a signed permutation of it."""
    return matrices(**shape).flatmap(moved_pairs_of)


def _blocks(blocks):
    return [(b.matrix.shape, b.matrix.tobytes()) for b in blocks]


@st.composite
def padded_block_models(draw):
    """A block-diagonal model with a zero line and a signed copy of a line
    padded in each way, its lines shuffled: at most 4 rows, 6 columns."""
    blocks = []
    rows_left, cols_left = 2, 4
    while rows_left and cols_left:
        p = draw(st.integers(1, rows_left))
        q = draw(st.integers(1, min(cols_left, 3)))
        vals = draw(st.lists(entries, min_size=p * q, max_size=p * q))
        blocks.append(np.array(vals).reshape(p, q))
        rows_left, cols_left = rows_left - p, cols_left - q
        if not draw(st.booleans()):
            break
    U = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    i = j = 0
    for b in blocks:
        U[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    for axis in (0, 1):
        V = U if axis == 0 else U.T
        copy = draw(st.integers(0, len(V) - 1))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        V = np.vstack([V, np.zeros(V.shape[1]), sign * V[copy]])
        U = V if axis == 0 else V.T
    rows = draw(st.permutations(range(U.shape[0])))
    cols = draw(st.permutations(range(U.shape[1])))
    return U[rows][:, cols]


def _criterion_10_families():
    # the disjoint elementary families of acceptance criterion 10
    local = np.random.default_rng(7)
    for k, width in ((2, 2), (4, 2), (8, 1)):
        us = []
        for i in range(k):
            g = np.zeros(width * k)
            g[width * i : width * (i + 1)] = (
                local.uniform(0.2, 1.0, size=width) * (-1) ** i
            )
            g /= np.abs(g).max()
            us.append(np.outer(np.eye(k)[i], g))
        yield us


class TestEpsNorm:
    def test_examples(self):
        assert eps_norm(np.eye(2)) == 1.0
        assert eps_norm(np.zeros((2, 2))) == 0.0
        x, y = np.array([0.5, -1.0]), np.array([1.0, 0.25])
        assert eps_norm(np.outer(x, y)) == 1.0

    def test_elementary_cross_norm(self):
        for _ in range(200):
            x = rng.uniform(-1, 1, size=3)
            y = rng.uniform(-1, 1, size=4)
            u = np.outer(x, y)
            expect = np.abs(x).max() * np.abs(y).max()
            assert abs(eps_norm(u) - expect) < 1e-12


class TestPiNorm:
    def test_identity(self):
        val, cert = pi_norm(np.eye(2))
        assert abs(val - 1.0) < 1e-9
        assert cert.bound <= 1 + 1e-9
        assert pair_dual(np.eye(2), cert) / cert.bound >= 1 - 1e-9

    def test_all_ones_rank_one(self):
        val, _ = pi_norm(np.ones((2, 2)))
        assert abs(val - 1.0) < 1e-9

    def test_cross_norm_on_elementary(self):
        for _ in range(50):
            x = rng.uniform(-1, 1, size=3)
            y = rng.uniform(-1, 1, size=3)
            u = np.outer(x, y)
            expect = np.abs(x).max() * np.abs(y).max()
            val, _ = pi_norm(u)
            assert abs(val - expect) < 1e-9

    def test_dominates_eps(self):
        for _ in range(50):
            u = rng.uniform(-1, 1, size=(3, 4))
            assert eps_norm(u) <= pi_norm(u)[0] + 1e-9

    def test_triangle_and_homogeneity(self):
        for _ in range(25):
            a = rng.uniform(-1, 1, size=(3, 3))
            b = rng.uniform(-1, 1, size=(3, 3))
            assert pi_norm(a + b)[0] <= pi_norm(a)[0] + pi_norm(b)[0] + 1e-9
            c = rng.uniform(-2, 2)
            assert abs(pi_norm(c * a)[0] - abs(c) * pi_norm(a)[0]) < 1e-9

    def test_synthesis_oracle_agreement(self):
        for shape in [(2, 2), (2, 3)]:
            for _ in range(20):
                u = rng.uniform(-1, 1, size=shape)
                sup_route = pi_norm(u)[0]
                decomp_route, terms = pi_norm_decomposition(u)
                assert abs(sup_route - decomp_route) < 1e-6
                rebuilt = sum(lam * np.outer(e, d) for lam, e, d in terms)
                assert np.abs(rebuilt - u).max() < 1e-8

    def test_transposed_long_matrix(self):
        u = rng.uniform(-1, 1, size=(12, 3))
        val, cert = pi_norm(u)
        assert cert.matrix.shape == (12, 3)
        assert abs(pi_norm(u.T)[0] - val) < 1e-8

    def test_budget(self):
        with pytest.raises(BudgetError):
            pi_norm(np.ones((11, 12)))
        with pytest.raises(BudgetError):
            pi_norm_decomposition(np.ones((10, 10)))
        with pytest.raises(BudgetError, match=r"^2x8193 exceeds the LP size budget 16384$"):
            pi_norm(np.ones((2, 8193)))

    def test_pair_dual_rejects_a_certificate_of_another_shape(self):
        _, cert = pi_norm(np.eye(2))
        with pytest.raises(ValueError, match="certificate shape"):
            pair_dual(np.eye(3), cert)

    def test_homogeneous_at_tiny_and_huge_scales(self):
        # the LP works to absolute tolerances: unscaled, 2.85e-8 * m came
        # back as 0.5 * 2.85e-8, and its signed permutation as the negative
        m = np.array([[0.0, 1.0], [1.0, 1.0]])
        dense = np.random.default_rng(4).uniform(-1, 1, (3, 4))
        base = pi_norm(dense)[0]
        assert abs(pi_norm(m)[0] - 1.5) < 1e-9
        for a in (2.85459021e-08, 1e-12, 1e8):
            for u, want in ((m, 1.5), (m * [[1], [-1]], 1.5), (dense, base)):
                assert abs(pi_norm(a * u)[0] - a * want) <= 1e-9 * a * want

    def test_synthesis_oracle_at_tiny_and_huge_scales(self):
        # the synthesis LP read U unscaled: at 1e-9 it returned 0.0 with no
        # dyad, and at 1e300 HiGHS refused the model
        m = np.array([[0.0, 1.0], [1.0, 1.0]])
        for a in (1e-9, 1e300):
            want = pi_norm(a * m)[0]
            val, terms = pi_norm_decomposition(a * m)
            assert abs(val - want) <= 1e-9 * want
            rebuilt = sum(lam * np.outer(e, d) for lam, e, d in terms)
            assert np.abs(rebuilt - a * m).max() <= 1e-9 * a

    def test_entries_near_the_top_of_the_float_range(self):
        # the power of two above 1e308 is past the float range, and taking
        # it raised OverflowError; the scaled LP is the same as at 2^-1000
        u = np.array([[1e308, 1e302], [1e302, -1e308]])
        val, cert = pi_norm(u)
        assert val == math.ldexp(pi_norm(u * 2.0**-1000)[0], 1000)
        assert abs(val / 1.000001e308 - 1) < 1e-9
        assert abs(pair_dual(u, cert) / cert.bound - val) <= 1e-9 * val
        with pytest.raises(ValueError, match="float range"):
            pi_norm([[1e308, 1e308], [1e308, -1e308]])  # 2e308

    def test_tolerance_loss_falls_back_to_largest_entry(self):
        # the 2^-23 entry slipped under HiGHS's tolerance and the LP value
        # came back as 0.99999994, below the largest entry; the LP now
        # gives 0.749999985 for the second, whose largest entry is -0.75
        for u, want in (
            ([[2.0**-23, 0.5], [-1.0, -0.5]], 1.0),
            ([[0.5, -0.75], [-3e-8, 0.25]], 0.75),
        ):
            u = np.array(u)
            val, cert = pi_norm(u)
            assert val == want
            assert cert.bound == 1.0
            assert pair_dual(u, cert) / cert.bound == val
            assert abs(pi_norm_decomposition(u)[0] - val) < 1e-9

    def test_certificate_feasibility_rechecked(self):
        # the bound is sign_norm itself, on the smaller side of any shape
        local = np.random.default_rng(21)
        inputs = [rng.uniform(-1, 1, size=(4, 5))]
        for shape in ((20, 2), (6, 3)):
            inputs += [local.uniform(-1, 1, shape), np.zeros(shape)]
        for u in inputs:
            _, cert = pi_norm(u)
            assert cert.bound == sign_norm(cert.matrix)

    def test_duality_inequality(self):
        u = rng.uniform(-1, 1, size=(3, 3))
        val, cert = pi_norm(u)
        B = cert.matrix / cert.bound
        assert pair_dual(u, DualCertificate(B, 1.0)) <= val + 1e-9


class TestNormalForm:
    """Closed forms and isometry invariance of the reduced solve."""

    def test_zero_model_needs_no_lp(self, linprog_calls):
        val, cert = pi_norm(np.zeros((10, 10)))
        assert val == 0.0 and math.copysign(1, val) == 1
        assert sign_norm(cert.matrix) <= cert.bound
        assert linprog_calls == []

    def test_identity_needs_no_lp(self, linprog_calls):
        val, cert = pi_norm(np.eye(10))
        assert val == 1
        assert pair_dual(np.eye(10), cert) / cert.bound == 1
        assert linprog_calls == []

    def test_dense_rank_one_needs_no_lp(self, linprog_calls):
        # a 10x10 block past the epigraph budget: any LP would be cutting planes
        local = np.random.default_rng(10)
        x, y = local.uniform(-1, 1, 10), local.uniform(-1, 1, 10)
        u = np.outer(x, y)
        (block,) = normal_form(u)
        assert block.matrix.shape == (10, 10)
        assert tensor._takes_cutting(10, 10)
        val, cert = pi_norm(u)
        assert val == np.abs(u).max()
        assert abs(val - np.abs(x).max() * np.abs(y).max()) < 1e-9
        assert cert.bound == 1
        assert pair_dual(u, cert) == val
        assert linprog_calls == []

    def test_dense_model_takes_the_cutting_route(self, linprog_calls):
        u = np.random.default_rng(1002).uniform(-1, 1, (10, 10))
        (block,) = normal_form(u)
        assert block.matrix.shape == (10, 10)
        assert tensor._takes_cutting(10, 10)
        val, cert = pi_norm(u)
        assert linprog_calls
        assert val > np.abs(u).max()
        assert sign_norm(cert.matrix) <= 1 + 1e-9
        assert abs(pair_dual(u, cert) / cert.bound - val) < 1e-9

    def test_signed_copies_need_no_lp(self, linprog_calls):
        # every row is a signed copy of the first: one line is left
        x = np.array([1.0, -1.0] * 5)
        y = np.random.default_rng(3).uniform(-1, 1, 10)
        u = np.outer(x, y)
        val, cert = pi_norm(u)
        assert val == np.abs(y).max()
        assert pair_dual(u, cert) / cert.bound == val
        assert linprog_calls == []

    def test_negative_zero_keys_like_zero(self, linprog_calls):
        u = np.array([[1.0, 0.0, 0.25], [0.5, -1.0, 0.0], [0.0, 0.75, -0.5]])
        v = u.copy()
        v[v == 0] = -0.0
        solver = PiSolver()
        assert solver.solve(u)[0] == solver.solve(v)[0]
        assert len(linprog_calls) == 1

    def test_non_finite_entries_are_refused(self):
        # a NaN reads as no entry in the support, and its block never settled
        inputs = [np.zeros((0, 2)), np.array([[np.inf]])]
        for bad in (np.nan, np.inf):
            inputs += [np.array([[bad, 0.0], [0.0, 0.0]]), np.array([[bad, 1.0], [1.0, 0.5]])]
        for u in inputs:
            for call in (pi_norm, normal_form, PiSolver().solve):
                with pytest.raises(ValueError):
                    call(u)

    def test_budget_is_on_the_input_shape(self, monkeypatch):
        # all ones reduces to a 1x1 model, yet the input is past the budget,
        # and it is refused before its normal form is taken
        monkeypatch.setattr(tensor, "normal_form", None)
        with pytest.raises(BudgetError):
            pi_norm(np.ones((11, 12)))

    def test_entries_below_lp_tolerance_keep_invariance(self):
        # HiGHS can misprice an entry under about 1e-7 of the largest, so
        # a copy is only exact when it reaches the very same LP: unsorted
        # (first), tied towards signed lines (second), transposed (third)
        tiny = 2.0**-23
        for u, v in (
            ([[0, 0.5], [0, 1], [1, -tiny]], [[0, -0.5], [0, -1], [1, tiny]]),
            ([[0, 1], [1e-12, 0.5], [1e-12, -1]], [[0, 1], [1e-12, -1], [1e-12, 0.5]]),
            ([[1, 0], [1, tiny]], [[1, 1], [0, tiny]]),
        ):
            assert pi_norm(np.array(u))[0] == pi_norm(np.array(v))[0]

    @settings(max_examples=60, deadline=None)
    @given(moved_pairs())
    @example(TIED_PAIR)
    def test_signed_permutation_invariance(self, pair):
        U, V = pair
        val, _ = pi_norm(U)
        moved, cert = pi_norm(V)
        assert abs(moved - val) < 1e-12
        assert sign_norm(cert.matrix) <= 1 + 1e-9
        assert abs(pair_dual(V, cert) / cert.bound - moved) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(moved_pairs(max_rows=6, max_cols=6))
    @example(TIED_PAIR)
    @example(
        (  # a signed zero (-0.0) reaches the search's comparisons
            np.array([[-1, 1, 1, 0], [-1, 1, 1, 0], [1, -1, 1, 1], [0, 0, 1, 1]]) / 2,
            np.array(
                [[-1, -0.0, -1, -1], [1, -1, -1, -1], [1, -0.0, 1, 1], [1, -1, -0.0, -0.0]]
            )
            / 2,
        )
    )
    def test_normal_form_is_canonical(self, pair):
        U, V = pair
        assert _blocks(normal_form(U)) == _blocks(normal_form(V))

    def test_symmetric_models_are_canonical(self, monkeypatch):
        # ties that no refinement splits; the search prunes by symmetries,
        # and a missed one costs time rather than the result, so each
        # search is held to a count of leaves: at most 20 here, where a
        # leaf key blind to the signs needs over a hundred
        leaves, leaf_key = [], tensor._leaf_key

        def counting(*args):
            leaves.append(None)
            return leaf_key(*args)

        def searched(U):
            leaves.clear()
            blocks = _blocks(normal_form(U))
            assert len(leaves) <= 20
            return blocks

        monkeypatch.setattr(tensor, "_leaf_key", counting)
        H = np.kron(np.kron([[1.0, 1], [1, -1]], [[1, 1], [1, -1]]), [[1, 1], [1, -1]])
        cycle = np.eye(10) + np.roll(np.eye(10), 1, axis=1)
        local = np.random.default_rng(11)
        for U in (H, np.ones((10, 10)) - np.eye(10), cycle, 2 * np.eye(10) - cycle):
            want = searched(U)
            for _ in range(3):
                m, n = U.shape
                V = U[local.permutation(m)][:, local.permutation(n)]
                V = V * local.choice([-1.0, 1.0], (m, 1)) * local.choice([-1.0, 1.0], n)
                assert searched(V) == want
                assert searched(V.T) == want

    @settings(max_examples=40, deadline=None)
    @given(padded_block_models())
    def test_block_model_matches_decomposition(self, U):
        assert min(U.shape) <= 4
        val, cert = pi_norm(U)
        assert abs(val - pi_norm_decomposition(U)[0]) < 1e-6
        assert abs(pair_dual(U, cert) / cert.bound - val) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.booleans(), st.data())
    def test_single_line_is_its_largest_entry(self, n, column, data):
        vals = data.draw(st.lists(entries, min_size=n, max_size=n))
        u = np.array([vals]).T if column else np.array([vals])
        val, cert = pi_norm(u)
        assert val == np.abs(u).max()
        assert abs(pi_norm_decomposition(u)[0] - val) < 1e-6
        assert pair_dual(u, cert) / cert.bound == val


class TestRankOne:
    """A block within ``RANK_ONE_TOL`` of rank one is its largest entry,
    with no LP; any other block goes to the LP."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(
            st.lists(factor_entries, min_size=1, max_size=7),
            st.lists(factor_entries, min_size=1, max_size=7),
        ).flatmap(lambda xy: moved_pairs_of(np.outer(*xy)))
    )
    @example(
        (
            np.outer([1.0, -0.0, 1e-12], [-0.0, 3e-8, -0.5]),
            np.outer([-0.5, 3e-8, 0.0], [1e-12, -0.0, -1.0]),
        )
    )
    def test_outer_product_is_its_largest_entry(self, pair):
        U, V = pair
        with counting_linprog() as calls:
            val, cert = pi_norm(U)
            moved = [pi_norm(W)[0] for W in (V, V.T)]
        assert calls == []
        assert val == np.abs(U).max()
        assert moved == [val, val]
        assert cert.bound == 1
        assert pair_dual(U, cert) == val

    @pytest.mark.parametrize(
        "share, lp", [(1e-6, True), (1.5e-12, True), (5e-13, False), (1e-14, False)]
    )
    def test_perturbed_entry_decides_the_route(self, share, lp, linprog_calls):
        # the largest entry, -1, sits at (0, 1); the entry moved by
        # share * |p| is off its row and column.  1.5e-12 passes the float
        # screen and is refused in exact arithmetic
        u = np.outer([1.0, 0.5, -0.25, 0.75], [0.5, -1.0, 0.3, 0.8, -0.6])
        u[2, 3] += share
        val, cert = pi_norm(u)
        assert bool(linprog_calls) == lp
        assert abs(val - two_sided_pi_norm(u)) < 1e-9
        assert abs(pair_dual(u, cert) / cert.bound - val) < 1e-9
        if not lp:
            assert val == 1.0 and cert.bound == 1


    def test_quiet_near_the_top_of_the_float_range(self):
        # line norms and residuals past the float range are inf; on its
        # own, away from PiSolver, numpy warned of the overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u, rank_one in (
                ([[1e308, 1e308], [1e308, -1e308]], [False]),
                ([[1e308, 1e308]], [True]),
                ([[1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]], [False]),
            ):
                blocks = normal_form(u)
                assert [tensor._rank_one(b.matrix) for b in blocks] == rank_one


class TestPiSolver:
    def test_repeat_matrix_solved_once(self, linprog_calls):
        calls = linprog_calls
        u = np.random.default_rng(7).uniform(-1, 1, size=(3, 4))
        solver = PiSolver()
        first = solver.solve(u)
        second = solver.solve(u.copy())
        assert len(calls) == 1
        assert second[0] == first[0] and second[1] is first[1]
        # a signed permutation of u has u's normal form: no new LP
        for v in (-u, u[[2, 0, 1]][:, [3, 1, 0, 2]] * [[1], [-1], [1]]):
            moved = solver.solve(v)
            assert len(calls) == 1
            assert moved[0] == first[0]
            assert abs(pair_dual(v, moved[1]) / moved[1].bound - first[0]) < 1e-12
        # a matrix that is not a signed permutation of u costs one LP
        solver.solve(u * [1, 2, 3, 4])
        assert len(calls) == 2
        value, cert = PiSolver().solve(u)
        assert len(calls) == 3
        assert value == first[0] and np.array_equal(cert.matrix, first[1].matrix)
        assert cert.bound == first[1].bound

    def test_epigraph_matches_entrywise_build(self):
        shapes = [
            (m, n)
            for m in range(1, 9)
            for n in range(m, 11)
            if 2 ** (m - 1) * n <= MAX_EPIGRAPH_VARS
        ]
        assert len(shapes) == 52
        for m, n in shapes:
            E = tensor._signs(m, fix_first=True)
            A, lo, hi, bounds = tensor._build_epigraph(m, n)
            ref_A, ref_lo, ref_hi = epigraph_reference(E, n)
            assert A.shape == ref_A.shape
            for part in ("indptr", "indices", "data"):
                got, want = getattr(A, part), getattr(ref_A, part)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
            P = len(E)
            assert np.array_equal(
                bounds, np.array([(-1.0, 1.0)] * (m * n) + [(0.0, 1.0)] * (2 * P * n))
            )

    @settings(max_examples=80, deadline=None)
    @given(matrices(max_rows=6, max_cols=7, entries=coarse_entries))
    def test_value_matches_two_sided_epigraph(self, U):
        assert abs(pi_norm(U)[0] - two_sided_pi_norm(U)) < 1e-9

    @pytest.mark.parametrize(
        "kind, side",
        [
            ("dense", 7),
            ("dense", 8),
            ("rank-one", 8),
            ("dense", 9),
            pytest.param("dense", (8, 9), id="dense-8x9"),
        ],
    )
    def test_cutting_route_matches_epigraph(self, kind, side):
        local = np.random.default_rng(side)
        m, n = side if isinstance(side, tuple) else (side, side)
        if kind == "dense":
            U = local.uniform(-1, 1, (m, n))
        else:
            U = np.outer(local.uniform(-1, 1, m), local.uniform(-1, 1, n))
        (block,) = normal_form(U)
        W = block.matrix
        assert W.shape == (m, n)
        [(want, _)] = tensor._solve_epigraphs([W], [tensor._build_epigraph(m, n)])
        got, B = tensor._solve_cutting(W)
        assert abs(got - want) < 1e-9
        assert sign_norm(B) <= 1 + 1e-9

    def test_route_by_block_shape(self):
        # the epigraph LP for every shape with m <= 7 within its budget;
        # cutting planes for 8x8 and 9x9 to 9x14 within it, and past it
        within = [
            (m, n)
            for m in range(1, 11)
            for n in range(m, MAX_EPIGRAPH_VARS + 1)
            if 2 ** (m - 1) * n <= MAX_EPIGRAPH_VARS
        ]
        assert not any(tensor._takes_cutting(m, n) for m, n in within if m <= 7)
        assert [s for s in within if tensor._takes_cutting(*s)] == [(8, 8)] + [
            (9, n) for n in range(9, 15)
        ]
        for m in (8, 9, 10):
            assert tensor._takes_cutting(m, m)
        assert tensor._takes_cutting(7, 100)

    def test_dense_8x8_takes_the_cutting_route(self, monkeypatch):
        shapes = []
        real = tensor._solve_cutting

        def spy(W):
            shapes.append(W.shape)
            return real(W)

        monkeypatch.setattr(tensor, "_solve_cutting", spy)
        U = np.random.default_rng(1000).uniform(-1, 1, (8, 8))
        value, cert = pi_norm(U)
        assert shapes == [(8, 8)]
        assert abs(pair_dual(U, cert) / cert.bound - value) < 1e-9
        pi_norm(np.random.default_rng(1000).uniform(-1, 1, (7, 7)))
        assert shapes == [(8, 8)]

    def test_presolve_is_off_on_cutting_lps_only(self, monkeypatch):
        seen = []
        real = tensor.milp

        def spy(*args, **kw):
            seen.append(kw.get("options", "none"))
            return real(*args, **kw)

        monkeypatch.setattr(tensor, "milp", spy)
        pi_norm(np.random.default_rng(1000).uniform(-1, 1, (8, 8)))
        assert len(seen) > 1 and all(o == {"presolve": False} for o in seen)
        seen.clear()
        local = np.random.default_rng(7)
        pi_norm(local.uniform(-1, 1, (4, 5)))
        weak_1_norm_pi([local.uniform(-1, 1, (3, 3)) for _ in range(3)])
        pi_norm_decomposition(local.uniform(-1, 1, (3, 3)))
        assert seen == ["none"] * 3

    def test_tall_matrix_enumerates_its_short_side(self, monkeypatch):
        # the certificate bound too: 2^19 sign rows of the long side would
        # take a second here, and 2^29 at 30 rows about 129 GB
        sides = []
        real = tensor._signs

        def spy(k, fix_first=False):
            sides.append(k)
            return real(k, fix_first)

        monkeypatch.setattr(tensor, "_signs", spy)
        U = np.random.default_rng(20).uniform(-1, 1, (20, 2))
        value, cert = PiSolver().solve(U)
        assert sides and max(sides) <= 2
        assert cert.matrix.shape == (20, 2)
        assert abs(pair_dual(U, cert) / cert.bound - value) < 1e-9

    def test_solve_all_takes_one_normal_form_per_distinct_matrix(self, monkeypatch):
        forms = []
        real = tensor.normal_form

        def counting(u):
            forms.append(1)
            return real(u)

        monkeypatch.setattr(tensor, "normal_form", counting)
        local = np.random.default_rng(31)
        u, v, w = (local.uniform(-1, 1, (3, 4)) for _ in range(3))
        solver = PiSolver()
        got = solver.solve_all([u, v, u.copy(), -u, v, np.zeros((2, 2))])
        assert len(forms) == 4  # u, v, -u and the zero matrix
        assert got[2] is got[0] and got[4] is got[1]
        assert got[3][0] == got[0][0] and got[5][0] == 0.0
        for U, (value, cert) in zip([u, v], got):
            assert abs(value - pi_norm(U)[0]) < 1e-9
            assert abs(pair_dual(U, cert) / cert.bound - value) < 1e-9
        forms.clear()
        assert solver.solve_all([v, w])[0] is got[1]
        assert len(forms) == 1  # only w is new

    def test_a_block_shared_with_another_matrix_is_valued_once(self, monkeypatch):
        handed = []
        real = tensor._lp

        def spy(mats):
            handed.append(len(mats))
            return real(mats)

        monkeypatch.setattr(tensor, "_lp", spy)
        local = np.random.default_rng(41)
        A, B, C = (local.uniform(-1, 1, (3, 3)) for _ in range(3))
        solver = PiSolver()
        pairs = [block_diag(A, B), block_diag(A, C)]
        got = [solver.solve(U) for U in pairs]
        assert handed == [2, 1]  # A (+) C hands only C to the LPs
        for U, (value, cert) in zip(pairs, got):
            assert abs(value - pi_norm(U)[0]) < 1e-9
            assert abs(pair_dual(U, cert) / cert.bound - value) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(matrices(max_rows=3, max_cols=3, entries=coarse_entries), min_size=3, max_size=3),
        st.booleans(),
    )
    def test_shared_blocks_match_fresh_solves(self, parts, together):
        # A (+) B and A (+) C share A, in one solve_all or one after the other
        A, B, C = parts
        pairs = [block_diag(A, B), block_diag(A, C)]
        solver = PiSolver()
        got = solver.solve_all(pairs) if together else [solver.solve(U) for U in pairs]
        for U, (value, cert) in zip(pairs, got):
            assert abs(value - pi_norm(U)[0]) < 1e-9
            assert abs(pair_dual(U, cert) / cert.bound - value) < 1e-9

    def test_solver_keeps_only_its_answers(self):
        solver = PiSolver()
        solver.solve_all([np.random.default_rng(7).uniform(-1, 1, (3, 4)), np.eye(2)])
        assert sorted(vars(solver)) == ["_blocks", "_solved"]

    def test_solve_all_checks_each_input_budget(self):
        with pytest.raises(BudgetError):
            PiSolver().solve_all([np.eye(2), np.ones((11, 11))])

    def test_equal_bytes_of_another_shape_are_another_matrix(self):
        U = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        V = U.reshape(3, 2)
        assert U.tobytes() == V.tobytes()
        solver = PiSolver()
        assert solver.solve(U)[0] == pi_norm(U)[0] == 1.0
        value, cert = solver.solve(V)
        assert value == pi_norm(V)[0] and abs(value - 1.5) < 1e-9
        assert cert.matrix.shape == (3, 2)


class TestWeakNorms:
    def test_weak1_single_and_aligned(self):
        u = rng.uniform(-1, 1, size=(3, 3))
        pv = pi_norm(u)[0]
        assert abs(weak_1_norm_pi([u]) - pv) < 1e-9
        assert abs(weak_1_norm_pi([u, -u]) - 2 * pv) < 1e-8

    def test_weak1_disjoint_elementary(self):
        us = []
        for k in range(5):
            g = np.zeros(10)
            g[2 * k : 2 * k + 2] = rng.uniform(0.2, 1.0, size=2) * (-1) ** k
            g /= np.abs(g).max()
            us.append(np.outer(np.eye(5)[k], g))
        assert weak_1_norm_pi(us) <= 1 + 1e-9

    def test_weak1_criterion_10_families_need_no_lp(self, linprog_calls):
        # every signed sum splits into one-line blocks
        for us in _criterion_10_families():
            assert weak_1_norm_pi(us) <= 1 + 1e-9
        assert linprog_calls == []

    @pytest.mark.parametrize("k, r, c", [(4, 2, 3), (3, 3, 3), (5, 2, 2)])
    def test_weak1_disjoint_rank_one_needs_no_lp(
        self, k, r, c, linprog_calls
    ):
        # every signed sum splits into rank-one blocks
        local = np.random.default_rng(k * 100 + r * 10 + c)
        us, best = [], 0.0
        for i in range(k):
            x, y = local.uniform(-1, 1, r), local.uniform(-1, 1, c)
            u = np.zeros((k * r, k * c))
            u[i * r : (i + 1) * r, i * c : (i + 1) * c] = np.outer(x, y)
            us.append(u)
            best = max(best, np.abs(x).max() * np.abs(y).max())
        assert abs(weak_1_norm_pi(us) - best) < 1e-9
        assert linprog_calls == []

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("model", ["dense", "outer", "disjoint"])
    def test_weak1_matches_one_lp_per_sign_vector(self, model, k):
        local = np.random.default_rng(100 * k + len(model))
        if model == "dense":
            us = [local.uniform(-1, 1, (3, 3)) for _ in range(k)]
        elif model == "outer":
            us = [np.outer(local.uniform(-1, 1, 3), local.uniform(-1, 1, 4)) for _ in range(k)]
        else:
            us = []
            for i in range(k):
                u = np.zeros((k, 2 * k))
                u[i, 2 * i : 2 * i + 2] = local.uniform(-1, 1, 2)
                us.append(u)
        assert abs(weak_1_norm_pi(us) - weak_1_reference(us)) < 1e-9

    def test_weak1_small_family_is_one_lp(self, linprog_calls):
        # 32 signed sums of 3x3, 12 epigraph variables each, in one LP
        local = np.random.default_rng(6)
        weak_1_norm_pi([local.uniform(-1, 1, (3, 3)) for _ in range(6)])
        assert len(linprog_calls) == 1

    def test_weak1_joint_lps_stay_within_the_chunk_size(self, monkeypatch):
        # 8 signed sums of dense 5x5: 16 sign rows x 5 columns = 80
        # epigraph variables and 96 rows each, 640 in all
        shapes = []
        real = tensor.linprog

        def spy(cost, A, *args):
            shapes.append(A.shape)
            return real(cost, A, *args)

        monkeypatch.setattr(tensor, "linprog", spy)
        local = np.random.default_rng(55)
        us = [local.uniform(-1, 1, (5, 5)) for _ in range(4)]
        assert 8 * 80 > MAX_JOINT_EPIGRAPH_VARS
        value = weak_1_norm_pi(us)
        assert all(rows % 96 == 0 for rows, _ in shapes)
        parts = [rows // 96 for rows, _ in shapes]
        assert 1 < len(parts) < 8 and sum(parts) == 8
        assert all(n * 80 <= MAX_JOINT_EPIGRAPH_VARS for n in parts)
        assert abs(value - weak_1_reference(us)) < 1e-9

    def test_weak1_builds_each_epigraph_shape_once(self, monkeypatch):
        # 8 signed sums, each a dense 3x3 block beside a dense 5x5 block:
        # 8 * (12 + 80) epigraph variables fill two joint LPs, and each
        # of the two shapes is built once for both
        built = []
        real = tensor._build_epigraph

        def spy(m, n):
            built.append((m, n))
            return real(m, n)

        monkeypatch.setattr(tensor, "_build_epigraph", spy)
        local = np.random.default_rng(56)
        us = []
        for _ in range(4):
            u = np.zeros((8, 8))
            u[:3, :3] = local.uniform(-1, 1, (3, 3))
            u[3:, 3:] = local.uniform(-1, 1, (5, 5))
            us.append(u)
        assert 8 * (12 + 80) > MAX_JOINT_EPIGRAPH_VARS
        with counting_linprog() as calls:
            value = weak_1_norm_pi(us)
        assert len(calls) == 2
        assert sorted(built) == [(3, 3), (5, 5)]
        assert abs(value - weak_1_reference(us)) < 1e-9

    def test_empty_family_is_refused(self):
        for weak in (weak_1_norm_pi, weak_2_norm_pi_lower):
            with pytest.raises(ValueError, match="^a family needs at least one matrix$"):
                weak([])

    def test_weak1_budget(self):
        with pytest.raises(BudgetError):
            weak_1_norm_pi([np.eye(2)] * 9)

    def test_weak2_lower_single(self):
        u = rng.uniform(-1, 1, size=(3, 3))
        assert weak_2_norm_pi_lower([u], samples=4, seed=1) >= pi_norm(u)[0] - 1e-9

    def test_weak2_lower_unit_vector_floor(self):
        us = [np.outer(np.eye(3)[k], np.eye(3)[k]) for k in range(3)]
        assert weak_2_norm_pi_lower(us, samples=4, seed=0) >= 1 - 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weak2_matches_fresh_solves_on_scenarios(self, seed, monkeypatch):
        # the groth pairs and the staircase halves of `verify all`
        seen = []

        def recording(us, **kw):
            value = weak_2_norm_pi_lower(us, **kw)
            seen.append((us, kw, value))
            return value

        monkeypatch.setattr(harness, "weak_2_norm_pi_lower", recording)
        harness.run_blocking_demo(harness.ScenarioConfig(xi="1", seed=seed))
        harness.run_groth_probe(harness.ScenarioConfig(seed=seed))
        assert len(seen) == 5
        for us, kw, value in seen:
            # the lockstep rounds solve their points in joint LPs, which
            # HiGHS rounds a few ulps apart from lone LPs
            ref = weak_2_reference(us, **kw)
            assert format(value, ".6f") == format(ref, ".6f")
            assert abs(value - ref) <= 1e-12

    def test_weak2_matches_fresh_solves_on_random_families(self):
        local = np.random.default_rng(2024)
        families = [(1, (3, 3)), (3, (3, 3)), (4, (2, 5)), (2, (4, 3)), (3, (5, 2))]
        for k, shape in families:
            us = [local.uniform(-1, 1, size=shape) for _ in range(k)]
            for seed in (0, 5):
                got = weak_2_norm_pi_lower(us, samples=6, seed=seed)
                assert got == weak_2_reference(us, samples=6, seed=seed)

    def test_weak2_climbs_in_lockstep_rounds(self, monkeypatch, solve_all_rounds):
        # the groth pairs of `verify all` at 64 samples: every start in
        # one round, then one round per ascent step at most
        pairs = []
        monkeypatch.setattr(harness, "weak_2_norm_pi_lower",
                            lambda us, **kw: pairs.append(us) or 0.0)
        harness.run_groth_probe(harness.ScenarioConfig(samples=64, seed=0))
        references = [weak_2_reference(us, samples=64, seed=0) for us in pairs]
        for us, ref in zip(pairs, references):
            solve_all_rounds.clear()
            value = weak_2_norm_pi_lower(us, samples=64, seed=0)
            assert 1 < len(solve_all_rounds) <= tensor.ASCENT_STEPS + 1
            assert solve_all_rounds[0] == len(us) + 64
            assert abs(value - ref) <= 1e-12

    def test_weak2_of_zero_matrices_is_zero(self):
        assert weak_2_norm_pi_lower([np.zeros((2, 3))] * 3, samples=5) == 0.0

    def test_weak2_without_samples_climbs_from_the_coordinates(self, monkeypatch):
        local = np.random.default_rng(77)
        us = [local.uniform(-1, 1, (3, 3)) for _ in range(3)]
        climbed = weak_2_norm_pi_lower(us, samples=0)
        assert abs(climbed - weak_2_reference(us, samples=0)) <= 1e-12
        monkeypatch.setattr(tensor, "ASCENT_STEPS", 0)
        coordinates = max(pi_norm(u)[0] for u in us)
        assert abs(weak_2_norm_pi_lower(us, samples=0) - coordinates) <= 1e-12
        assert climbed >= coordinates

    def test_weak2_start_with_zero_gradient_drops_out(self, solve_all_rounds):
        # the start e_2 is the zero matrix, whose certificate is the unit
        # form at (0, 0), where both matrices vanish
        u = np.array([[0.0, 1.0], [1.0, 1.0]])
        value = weak_2_norm_pi_lower([u, np.zeros((2, 2))], samples=0)
        assert solve_all_rounds[:2] == [2, 1]
        assert value == pi_norm(u)[0]

    def test_weak2_deterministic(self):
        us = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(3)]
        a = weak_2_norm_pi_lower(us, samples=8, seed=7)
        b = weak_2_norm_pi_lower(us, samples=8, seed=7)
        assert a == b


class TestInjectiveWeak2Tensorization:
    def test_coordinate_bound(self):
        # weakly 2-summing norm in the injective model is a coordinate
        # formula; the tensor pairs are bounded by the factor norms
        for _ in range(30):
            xs = rng.uniform(-1, 1, size=(4, 3))
            ys = rng.uniform(-1, 1, size=(4, 5))
            pairs = np.einsum("ki,kj->kij", xs, ys)
            lhs = math.sqrt((pairs**2).sum(axis=0).max())
            # the weak-2 norm of xs in l_inf^3: its largest column l2 norm
            rhs = math.sqrt((xs**2).sum(axis=0).max()) * np.abs(ys).max()
            assert lhs <= rhs + 1e-12
