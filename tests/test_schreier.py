from itertools import accumulate, chain, count

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ordtensor.ordinal import OMEGA, ONE, Ordinal
from ordtensor.schreier import (
    Base,
    BudgetExceeded,
    Conv,
    StreamExhausted,
    as_finite_set,
    decompose,
    family_str,
    is_maximal,
    least_shift,
    level_step,
    member,
    members,
    node_rank_exact,
    parse_family,
    split_blocks,
)
from ordtensor.schreier import _take_block

from oracles import (
    brute_member,
    node_rank_brute,
    spreads,
    stepwise_block_len,
    stepwise_decompose,
    subsets,
)
from test_ordinal import ordinals

F = Ordinal.from_int


class TestMemberExamples:
    def test_base_cases(self):
        assert member(Base(0), ())
        assert member(Base(0), (7,))
        assert not member(Base(0), (3, 4))

    def test_level_one(self):
        assert member(Base(1), (2, 5))
        assert not member(Base(1), (2, 5, 7))

    def test_convolution(self):
        assert member(Conv(1, 1), (2, 3, 4, 5, 6, 7))
        assert not member(Conv(1, 1), (1, 2, 3, 4))

    def test_ordinal_text_levels(self):
        assert Base("w") == Base(OMEGA)
        assert Conv("2", "w + 1") == Conv(2, OMEGA + 1)
        assert member(Base("w"), (3, 4, 5, 6)) == member(Base(OMEGA), (3, 4, 5, 6))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            member(Base(1), (2, 2))
        with pytest.raises(ValueError):
            member(Base(1), (0, 3))

    def test_elements_must_be_integers(self):
        for bad in ([1.9, 2.5], [2.0, 3], ["3", "4"]):
            with pytest.raises(TypeError):
                as_finite_set(bad)
        with pytest.raises(TypeError):
            member(Base(1), [2.9, 3.1])
        E = as_finite_set(np.array([2, 5], dtype=np.int64))
        assert E == (2, 5) and all(type(v) is int for v in E)
        assert as_finite_set([True, 2]) == (1, 2)

    def test_positivity_is_reported_first(self):
        with pytest.raises(ValueError, match="positive integers"):
            as_finite_set((3, 0))
        with pytest.raises(ValueError, match="strictly increasing"):
            as_finite_set((3, 2))


class TestBruteAgreement:
    """The greedy-walk membership equals the definitional partition search."""

    FAMS = [
        Base(0),
        Base(1),
        Base(2),
        Base(3),
        Base(OMEGA),
        Base(OMEGA + 1),
        Conv(1, 1),
        Conv(2, 1),
        Conv(1, 2),
        Conv(0, 2),
        Conv(2, 2),
    ]

    @pytest.mark.parametrize("fam", FAMS, ids=family_str)
    def test_exhaustive_on_small_sets(self, fam):
        for E in subsets(range(1, 10)):
            assert member(fam, E) == brute_member(fam, E), E


class TestMaximal:
    def test_examples(self):
        assert is_maximal(Base(1), (2, 3))
        assert not is_maximal(Base(1), (3, 4))
        assert is_maximal(Base(0), (7,))

    def test_errors(self):
        with pytest.raises(ValueError):
            is_maximal(Base(1), ())
        with pytest.raises(ValueError):
            is_maximal(Base(1), (2, 5, 7))

    def test_agrees_with_all_extensions(self):
        # single-extension test suffices by spreading: cross-check against
        # trying every next element in a window
        for E in subsets(range(1, 8)):
            if not E or not member(Base(2), E):
                continue
            flagged = is_maximal(Base(2), E)
            extens = any(
                member(Base(2), E + (n,)) for n in range(E[-1] + 1, 20)
            )
            assert flagged == (not extens)


class TestDecompose:
    def test_examples(self):
        assert decompose(Base(0), count(3), 3) == ((3,), (4,), (5,))
        assert decompose(Base(1), count(3), 2) == ((3, 4, 5), (6, 7, 8, 9, 10, 11))
        assert decompose(Conv(1, 0), count(3), 1) == ((3, 4, 5),)

    def test_blocks_are_successive_maximal_members(self):
        for fam in [Base(1), Base(2), Conv(1, 1)]:
            blocks = decompose(fam, count(2), 2, max_elements=5000)
            for b in blocks:
                assert member(fam, b) and is_maximal(fam, b)
            flat = tuple(chain.from_iterable(blocks))
            assert flat == tuple(range(2, 2 + len(flat)))

    def test_reproducible_on_own_output(self):
        fam = Base(1)
        blocks = decompose(fam, count(4), 3)
        replay = chain(chain.from_iterable(blocks), count(blocks[-1][-1] + 1))
        assert decompose(fam, replay, 3) == blocks

    def test_stream_errors(self):
        with pytest.raises(StreamExhausted):
            decompose(Base(1), iter([3, 4]), 1)
        with pytest.raises(ValueError):
            decompose(Base(1), iter([3, 3, 4]), 1)
        with pytest.raises(BudgetExceeded):
            decompose(Base(2), count(3), 2, max_elements=100)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused(self, budget):
        with pytest.raises(ValueError, match="budget"):
            decompose(Base(1), count(3), 1, max_elements=budget)
        assert decompose(Base(0), count(3), 1, max_elements=1) == ((3,),)

    def test_stream_elements_must_be_integers(self):
        for bad in ([2.5, 3.9, 4.2, 5.0, 6.1], ["2", "3"]):
            with pytest.raises(TypeError):
                decompose(Base(1), iter(bad), 1)
        blocks = decompose(Base(1), iter(np.arange(2, 8, dtype=np.int64)), 1)
        assert blocks == ((2, 3),) and all(type(v) is int for v in blocks[0])
        assert decompose(Base(0), iter([True, 2]), 2) == ((1,), (2,))

    def test_index_error_from_the_stream_is_not_a_cut(self):
        # the walk reads IndexError as the end of a finite set; from a
        # stream it once cut (3, 4) short as a whole S[1] block
        def stream():
            yield from (3, 4)
            raise IndexError

        for fam in (Base(1), Base(2), Conv(1, 1)):
            with pytest.raises(RuntimeError, match="stream raised IndexError"):
                decompose(fam, stream(), 1)

    def test_errors_carry_completed_blocks(self):
        with pytest.raises(StreamExhausted) as err:
            decompose(Base(1), iter([3, 4, 5, 6, 7]), 2)
        assert err.value.blocks == ((3, 4, 5),)
        with pytest.raises(BudgetExceeded) as err:
            decompose(Base(2), count(3), 2, max_elements=100)
        assert err.value.blocks == decompose(Base(2), count(3), 1)

    @pytest.mark.parametrize(
        "fam, start", [(Conv(1, 1), 2), (Conv(2, 1), 1)], ids=["S[1][S[1]]", "S[2][S[1]]"]
    )
    def test_split_returns_partial_last_block(self, fam, start):
        first, second = decompose(fam, count(start), 2)
        for cut in (1, len(second) // 2, len(second) - 1):
            assert split_blocks(fam, first + second[:cut]) == (first, second[:cut])


class TestDecomposeFuzz:
    """Sparse random streams: blocks stay maximal members whose union is
    an initial segment, and splitting the concatenation reproduces them."""

    FAMS = [Base(0), Base(1), Base(2), Base(3), Base(OMEGA), Base(OMEGA + 1),
            Conv(1, 1), Conv(2, 1), Conv(1, 2), Conv(1, OMEGA)]

    def test_sparse_streams(self):
        import random

        random.seed(20240817)
        checked = 0
        for fam in self.FAMS:
            for _ in range(8):
                start = random.randint(1, 6)
                vals = sorted(random.sample(range(start + 1, start + 4000), 3500))
                stream = chain([start], vals)
                try:
                    blocks = decompose(fam, stream, 2, max_elements=3000)
                except BudgetExceeded:
                    continue
                flat = tuple(chain.from_iterable(blocks))
                assert flat == tuple([start] + vals)[: len(flat)]
                for b in blocks:
                    assert member(fam, b) and is_maximal(fam, b)
                assert split_blocks(fam, flat) == blocks
                checked += 1
        assert checked >= 15


LEVELS = [F(0), F(1), F(2), F(3), OMEGA, OMEGA + ONE]
families = st.one_of(
    st.sampled_from(LEVELS).map(Base),
    st.tuples(st.sampled_from(LEVELS), st.sampled_from(LEVELS)).map(lambda t: Conv(*t)),
)


@st.composite
def increasing_tuples(draw, max_size=60):
    start = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.integers(1, 4), max_size=max_size))
    return tuple(accumulate(gaps, initial=start))


class Counting:
    """An iterator that counts the elements taken from it."""

    def __init__(self, values):
        self._it = iter(values)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        v = next(self._it)
        self.pulled += 1
        return v


def outcome(decomp, fam, values, k, budget):
    """Blocks or the error (type, text, completed blocks), and the count
    of elements taken from the stream."""
    stream = Counting(values)
    try:
        got = decomp(fam, stream, k, max_elements=budget)
    except (ValueError, TypeError, StreamExhausted, BudgetExceeded) as e:
        got = (type(e), str(e), getattr(e, "blocks", None))
    return got, stream.pulled


class TestStepwiseAgreement:
    """Runs of singletons taken in one step and bulk stream reads give
    the blocks, errors and element pulls of the walk that takes one
    element at a time."""

    @settings(max_examples=400, deadline=None)
    @given(families, increasing_tuples(), st.data())
    def test_block_len(self, fam, seq, data):
        start = data.draw(st.integers(0, len(seq)))
        assert _take_block(fam, seq, start) - start == stepwise_block_len(fam, seq, start)

    @settings(max_examples=300, deadline=None)
    @given(
        families,
        increasing_tuples(),
        st.integers(1, 3),
        st.one_of(st.none(), st.integers(0, 150)),
        st.booleans(),
        st.one_of(st.none(), st.tuples(st.integers(0, 60), st.sampled_from(["x", 2.5, "down"]))),
    )
    def test_decompose(self, fam, seq, k, budget, endless, bad):
        values = list(seq)
        if bad is not None:
            at, what = bad
            at = min(at, len(values) - 1)
            if what == "down":
                what = values[at - 1] if at else 0
            values[at] = what

        def stream():
            # an endless stream only under a budget
            if endless and budget is not None:
                return chain(values, count(seq[-1] + 1))
            return values

        assert outcome(decompose, fam, stream(), k, budget) == outcome(
            stepwise_decompose, fam, stream(), k, budget
        )

    @pytest.mark.parametrize(
        "values, error", [([3, 2, "x"], ValueError), ([3, "x", 2], TypeError)]
    )
    @pytest.mark.parametrize("fam", [Base(1), Conv(1, 1)], ids=family_str)
    def test_first_bad_element_decides_the_error(self, values, error, fam):
        new, old = (outcome(d, fam, values, 1, None) for d in (decompose, stepwise_decompose))
        assert new == old
        assert new[0][0] is error and new[1] == 2

    @pytest.mark.parametrize("fam", [Conv(1, 0), Conv(1, 1)], ids=["inner-S0", "inner-S1"])
    def test_cut_run_of_minima_stops_at_the_source_end(self, fam):
        # a run of a million minima (or of a million inner S_1 blocks)
        # over a two-element set reads no further than the set, as a
        # one-at-a-time walk does
        reads = []

        class Source:
            def __getitem__(self, i):
                reads.append(i)
                return seq[i]

            def __len__(self):
                return len(seq)

        seq = (10**6, 10**6 + 1)
        assert _take_block(fam, Source(), 0) == 2
        assert len(reads) < 10

    def test_multi_block_transfinite_frame(self):
        # S[w + 1] at minimum 2 is two S[w] blocks: the first takes 2046
        # elements and the second runs to the end of the set; a walker
        # that dropped a frame's remaining count would stop at 2046
        seq = tuple(range(2, 6000))
        assert _take_block(Base(OMEGA + 1), seq, 0) == stepwise_block_len(
            Base(OMEGA + 1), seq, 0
        ) == 5998

    def test_budget_pulls_exactly_the_budget(self):
        for fam in (Base(2), Conv(1, 1), Base(OMEGA)):
            got, pulled = outcome(decompose, fam, count(3), 2, 40)
            assert got[0] is BudgetExceeded and pulled == 40


class TestConvolutionOfSingletons:
    """S_0 is the family of singletons, so S_zeta[S_0] is S_zeta: its
    blocks, errors and element pulls are those of the base family."""

    def test_block_is_walked_as_one_base_block(self, monkeypatch):
        # a walk of the minima view takes one S_0 block per element: a
        # 21-element block would cost 22 block walks, and one past the
        # budget over 5000
        import ordtensor.schreier as schreier

        calls = []

        def counting(xi, source, start):
            calls.append(xi)
            return real(xi, source, start)

        real = schreier._base_block_end
        monkeypatch.setattr(schreier, "_base_block_end", counting)
        got = decompose(Conv(2, 0), count(3), 1, max_elements=5000)
        assert got == (tuple(range(3, 24)),)
        assert len(calls) <= 2
        calls.clear()
        with pytest.raises(BudgetExceeded):
            decompose(Conv(2, 0), count(3), 3, max_elements=5000)
        assert len(calls) <= 3

    STREAMS = [
        ("endless past the budget", lambda: count(3), 3, 5000),
        ("small budget", lambda: count(5), 2, 7),
        ("small minima", lambda: count(1), 4, 5000),
        ("finite", lambda: [2, 3, 5, 8, 13, 21, 34], 3, None),
        ("not increasing", lambda: [3, 4, 4, 9], 2, None),
        ("not an integer", lambda: [3, 4, "x", 9], 2, None),
        ("sparse", lambda: (n * n for n in range(2, 60)), 2, None),
    ]

    @pytest.mark.parametrize("zeta", LEVELS, ids=str)
    @pytest.mark.parametrize("stream, k, budget", [s[1:] for s in STREAMS],
                             ids=[s[0] for s in STREAMS])
    def test_decompose_as_the_base_family(self, zeta, stream, k, budget):
        conv = outcome(decompose, Conv(zeta, 0), stream(), k, budget)
        assert conv == outcome(decompose, Base(zeta), stream(), k, budget)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LEVELS), increasing_tuples(), st.integers(1, 3),
           st.one_of(st.none(), st.integers(1, 150)))
    def test_same_blocks_on_any_set(self, zeta, seq, k, budget):
        assert outcome(decompose, Conv(zeta, 0), seq, k, budget) == outcome(
            decompose, Base(zeta), seq, k, budget)
        assert all(_take_block(Conv(zeta, 0), seq, i) == _take_block(Base(zeta), seq, i)
                   for i in range(len(seq) + 1))


class TestSplitBySingletons:
    """A split by S_0 takes the elements one by one."""

    @settings(max_examples=100, deadline=None)
    @given(increasing_tuples())
    def test_singletons_agree_with_the_stepwise_walk(self, E):
        blocks = split_blocks(Base(0), E)
        assert blocks == tuple((e,) for e in E)
        assert all(stepwise_block_len(Base(0), E, i) == 1 for i in range(len(E)))

    def test_takes_no_block_walk(self, monkeypatch):
        import ordtensor.schreier as schreier

        def walk(*args):
            raise AssertionError("a split by S_0 walked a block")

        monkeypatch.setattr(schreier, "_base_block_end", walk)
        E = tuple(range(8, 2048))
        assert split_blocks(Base(0), E) == tuple((e,) for e in E)


class TestMembers:
    """The walk by extension finds exactly the members of a ground set."""

    FAMS = [Base(0), Base(1), Base(2), Base(3), Base(OMEGA), Base(OMEGA + 1),
            Conv(1, 0), Conv(1, 1), Conv(2, 1), Conv(1, 2)]

    @pytest.mark.parametrize("fam", FAMS, ids=family_str)
    def test_matches_brute_member(self, fam):
        ground = range(1, 9)
        assert members(fam, ground) == {E for E in subsets(ground) if brute_member(fam, E)}

    def test_sparse_ground(self):
        ground = (2, 3, 5, 8, 9, 12)
        for fam in (Base(1), Conv(1, 1)):
            assert members(fam, ground) == {E for E in subsets(ground) if member(fam, E)}

    @given(families, increasing_tuples(max_size=12))
    def test_prefixes_of_members_are_members(self, fam, E):
        # the property the walk relies on
        if member(fam, E):
            assert all(member(fam, E[:k]) for k in range(len(E)))

    def test_ground_is_checked_as_a_finite_set(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            members(Base(1), (3, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            members(Base(1), (2, 2))
        with pytest.raises(ValueError, match="positive integers"):
            members(Base(1), (0, 3))
        with pytest.raises(TypeError):
            members(Base(1), (1.5, 3))


class TestCanonicalRep:
    # the canonical representation of a convolution member is its greedy
    # split into S_xi blocks
    def test_examples(self):
        assert member(Conv(1, 0), (3, 4))
        assert split_blocks(Base(0), (3, 4)) == ((3,), (4,))
        assert member(Conv(1, 1), (2, 3, 5, 6, 7))
        assert split_blocks(Base(1), (2, 3, 5, 6, 7)) == ((2, 3), (5, 6, 7))
        for E in subsets(range(1, 9)):
            if E and member(Base(2), E):
                assert member(Conv(0, 2), E)
                assert split_blocks(Base(2), E) == (E,)

    def test_properties(self):
        fam = Conv(1, 1)
        for E in subsets(range(1, 9)):
            if not E or not member(fam, E):
                continue
            blocks = split_blocks(Base(fam.xi), E)
            assert tuple(chain.from_iterable(blocks)) == E
            for b in blocks[:-1]:
                assert is_maximal(Base(1), b)
            assert member(Base(1), blocks[-1])
            assert member(Base(1), tuple(b[0] for b in blocks))

    def test_errors(self):
        assert not member(Conv(1, 1), (1, 2, 3))
        for fam in (Base(0), Base(1)):
            with pytest.raises(ValueError, match="empty set"):
                split_blocks(fam, ())


class TestSuccessoridentity:
    @pytest.mark.parametrize("xi", [0, 1, 2])
    def test_agreement(self, xi):
        for E in subsets(range(1, 11)):
            assert member(Base(xi + 1), E) == member(Conv(1, xi), E)


class TestNodeRank:
    def test_examples(self):
        assert node_rank_exact(Base(1), (5,)) == F(4)
        assert node_rank_exact(Base(1), (3, 4, 5)) == F(0)
        assert node_rank_brute(Base(2), (2, 3), 12) >= 1

    def test_closed_form_matches_brute(self):
        for E in subsets(range(1, 11)):
            if E and member(Base(1), E):
                assert node_rank_exact(Base(1), E) == F(
                    node_rank_brute(Base(1), E, 2 * E[-1])
                )

    def test_exact_base_two_closed_form(self):
        # nodes with no unopened inner block have finite complete subtrees
        for E in subsets(range(1, 9)):
            if not E or not member(Base(2), E):
                continue
            exact = node_rank_exact(Base(2), E)
            blocks = split_blocks(Base(1), E)
            if len(blocks) == E[0]:
                slots = blocks[-1][0] - len(blocks[-1])
                trunc = E[-1] + slots + 1
                assert exact == F(node_rank_brute(Base(2), E, trunc))
            else:
                # truncation can only see finitely far below a limit rank
                b1 = node_rank_brute(Base(2), E, E[-1] + 4)
                b2 = node_rank_brute(Base(2), E, E[-1] + 7)
                assert F(b1) < exact and F(b2) < exact
                assert b1 <= b2

    def test_exact_base_one(self):
        for E in subsets(range(1, 9)):
            if E and member(Base(1), E):
                assert node_rank_exact(Base(1), E) == F(E[0] - len(E))

    def test_errors(self):
        with pytest.raises(ValueError):
            node_rank_exact(Base(1), (2, 5, 7))
        with pytest.raises(NotImplementedError):
            node_rank_exact(Base(3), (2,))


class TestLevelStep:
    @given(ordinals(depth=2), st.integers(1, 6))
    def test_matches_the_recursion(self, level, m):
        assume(not level.is_zero())
        if level.classify() == "successor":
            assert level_step(level, m) == (level.predecessor(), m)
        else:
            assert level_step(level, m) == (level.fundamental(m) + ONE, 1)
        assert level_step(level, m) == level_step(Ordinal(level.terms), m)

    def test_examples(self):
        assert level_step(F(3), 5) == (F(2), 5)
        assert level_step(OMEGA, 5) == (F(6), 1)
        assert level_step(OMEGA + 1, 5) == (OMEGA, 5)


class TestRegularity:
    @pytest.mark.parametrize(
        "fam", [Base(1), Base(2), Conv(1, 1)], ids=family_str
    )
    def test_hereditary_and_spreading(self, fam):
        members = [E for E in subsets(range(1, 9)) if E and member(fam, E)]
        for E in members:
            for sub in subsets(E):
                assert member(fam, sub)
            for spread in spreads(E, 10):
                assert member(fam, spread)

    def test_inclusion_shift_exists(self):
        # the definition read off all subsets of [1, 10]: a set of S_xi
        # outside S_zeta rules out every k up to its minimum
        for xi, zeta, k in [(1, 2, 1), (1, OMEGA, 1), (2, 1, 6)]:
            escapes = [
                E for E in subsets(range(1, 11))
                if E and brute_member(Base(xi), E) and not brute_member(Base(zeta), E)
            ]
            least = max((E[0] for E in escapes), default=0) + 1
            assert least_shift(xi, zeta, bound=10) == least == k

    @pytest.mark.parametrize("bound", [0, -1])
    def test_inclusion_shift_needs_a_positive_bound(self, bound):
        with pytest.raises(ValueError):
            least_shift(1, 2, bound=bound)


class TestDescriptorSyntax:
    @pytest.mark.parametrize(
        "text", ["S[0]", "S[1]", "S[w]", "S[w + 1]", "S[1][S[w]]", "S[2][S[1]]"]
    )
    def test_round_trip(self, text):
        assert family_str(parse_family(text)) == text

    def test_rejects_garbage(self):
        for bad in ["S", "S[]", "T[1]", "S[1][2]"]:
            with pytest.raises(ValueError):
                parse_family(bad)
