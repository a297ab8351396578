import math
from fractions import Fraction
from itertools import accumulate, chain, count

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ordtensor.ordinal import OMEGA, Ordinal, parse_ordinal
from ordtensor.schreier import Base, BudgetExceeded, Conv, decompose, split_blocks
from ordtensor.weights import (
    PermReport,
    _square_free,
    RadicalSum,
    Weight,
    avg,
    avg2,
    avg2_terms,
    p_prefix_weights,
    p_weight,
    q_prefix_weights,
    q_weight,
    verify_perm,
)

from oracles import (
    oracle_p,
    oracle_q,
    prefix_descent_reference,
    subsets,
    verify_perm_reference,
)


class TestWeight:
    def test_normalization(self):
        assert Weight(Fraction(1), 4) == Weight(Fraction(1, 2), 1)
        assert Weight(Fraction(1), 12) == Weight(Fraction(1, 2), 3)
        assert Weight(Fraction(3, 2), 18).radicand == 2

    def test_product_and_square(self):
        w = Weight(Fraction(1), 3)
        assert w * w == Weight(Fraction(1, 3), 1)
        assert w.square() == Fraction(1, 3)
        assert (w * Fraction(2)).ratio == Fraction(2)

    def test_str(self):
        assert str(Weight(Fraction(1, 3))) == "1/3"
        assert str(Weight(Fraction(1), 3)) == "1/(1*sqrt(3))"
        assert str(Weight(Fraction(2, 3), 5)) == "2/(3*sqrt(5))"

    def test_positive_only(self):
        with pytest.raises(ValueError):
            Weight(Fraction(0))

    def test_float(self):
        assert math.isclose(float(Weight(Fraction(1), 3)), 1 / math.sqrt(3))

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from([2, 3, 5, 7, 11, 13, 101, 1009]),
            st.integers(1, 4000),
            max_size=5,
        ),
        st.sampled_from([1, 10007]),
    )
    @example({2: 2202, 5: 2202, 11: 1101}, 1)  # 1100**1101
    @example({}, 1)
    def test_square_free_matches_the_factorization(self, exponents, tail):
        r, s, rad = tail, 1, tail
        for p, e in exponents.items():
            r *= p**e
            s *= p ** (e // 2)
            rad *= p ** (e % 2)
        assert _square_free(r) == (s, rad)


class TestRadicalSum:
    def test_rational_detection(self):
        s = RadicalSum()
        s.add(Weight(Fraction(1), 3), Fraction(1, 2))
        assert s.as_rational() is None
        s.add(Weight(Fraction(1), 3), Fraction(-1, 2))
        assert s == 0
        s.add(Weight(Fraction(1)), 1)
        assert s == 1

    def test_mixed_radicands_not_rational(self):
        s = RadicalSum()
        s.add(Weight(Fraction(1), 2), 1)
        s.add(Weight(Fraction(1), 3), 1)
        assert s.as_rational() is None
        assert s != 1

    def test_float_and_repr_read_each_radicand(self):
        s = RadicalSum()
        assert float(s) == 0.0 and repr(s) == "RadicalSum(0)"
        s.add(Weight(Fraction(1), 2), 3).add(Weight(Fraction(1)), Fraction(1, 2))
        assert float(s) == 0.5 + 3 / math.sqrt(2)
        assert repr(s) == "RadicalSum(1/2 + 3/sqrt(2))"


class TestPWeight:
    def test_examples(self):
        assert p_weight(0, (7, 9)) == 1
        assert p_weight(1, (3, 4)) == Fraction(1, 3)
        assert p_weight(2, (2, 3, 4)) == Fraction(1, 8)

    def test_oracle_agreement(self):
        for xi in (0, 1, 2, 3, OMEGA):
            for E in subsets(range(1, 8)):
                if E:
                    assert p_weight(xi, E) == oracle_p(xi, E), (xi, E)

    def test_prefix_evaluator_agrees(self):
        for xi in (0, 1, 2, OMEGA):
            for E in [(2, 3, 4, 5, 6, 7), (3, 5, 8, 13, 21), (1,), (4, 9)]:
                ps = p_prefix_weights(xi, E)
                for j in range(1, len(E) + 1):
                    assert ps[j - 1] == p_weight(xi, E[:j])

    def test_deep_limit_level(self):
        # min 500 sends the S_w descent through 501 successor levels
        E = tuple(range(500, 508))
        assert p_weight(OMEGA, E) == p_prefix_weights(OMEGA, E)[-1]
        assert p_weight(OMEGA, E) == Fraction(1, 500**501)

    def test_descents_do_not_recheck_their_slices(self, monkeypatch):
        # the weight's own set is checked once; the slices the descent
        # splits come from it and go to the block walk unchecked
        import ordtensor.schreier as schreier
        import ordtensor.weights as weights

        weights._p.cache_clear()
        weights._q.cache_clear()
        checked = []

        def counting(values):
            checked.append(1)
            return real(values)

        real = schreier.as_finite_set
        monkeypatch.setattr(schreier, "as_finite_set", counting)
        E = tuple(range(40, 48))
        assert p_weight(OMEGA, E) == Fraction(1, 40**41)
        assert q_prefix_weights(1, OMEGA, E)[-1] == q_weight(1, OMEGA, E)
        assert checked == []
        assert split_blocks(Base(1), [3, 4, 5, 6]) == ((3, 4, 5), (6,))
        assert checked == [1]

    def test_empty_set_has_no_prefixes(self):
        for xi in (0, 1, 2, OMEGA):
            assert p_prefix_weights(xi, ()) == []
            for zeta in (0, 1, OMEGA):
                assert q_prefix_weights(xi, zeta, ()) == []
        with pytest.raises(ValueError):
            p_weight(1, ())

    def test_ordinal_text_levels(self):
        E = (3, 4, 5)
        assert p_weight("w", E) == p_weight(OMEGA, E)
        assert q_weight("1", "w", E) == q_weight(1, OMEGA, E)


class TestQWeight:
    def test_examples(self):
        assert q_weight(0, 0, (5, 6)) == Weight(Fraction(1))
        assert q_weight(0, 1, (3, 4)) == Weight(Fraction(1), 3)
        assert q_weight(0, 2, (2, 3)) == Weight(Fraction(1, 2))
        assert q_weight(1, 1, (3, 4)) == Weight(Fraction(1), 3)

    def test_oracle_agreement(self):
        for xi in (0, 1, 2):
            for zeta in (0, 1, 2):
                for E in subsets(range(1, 7)):
                    if E:
                        ratio, rad = oracle_q(xi, zeta, E)
                        assert q_weight(xi, zeta, E) == Weight(ratio, rad), (
                            xi,
                            zeta,
                            E,
                        )

    def test_prefix_evaluator_agrees(self):
        for xi, zeta in [(0, 1), (1, 1), (1, 2), (0, 2), (2, 1)]:
            for E in [(2, 3, 4, 5, 6, 7), (3, 4, 5, 9, 10), (1,)]:
                qs = q_prefix_weights(xi, zeta, E)
                for j in range(1, len(E) + 1):
                    assert qs[j - 1] == q_weight(xi, zeta, E[:j])

    def test_deep_limit_level(self):
        E = tuple(range(500, 508))
        assert q_weight(0, OMEGA, E) == q_prefix_weights(0, OMEGA, E)[-1]
        assert q_weight(0, OMEGA, E) == Weight(Fraction(1), 500**501)

    def test_q_constant_between_maximal_inner_blocks(self):
        blocks = decompose(Conv(1, 1), count(3), 1)
        E = blocks[0]
        inner = split_blocks(Base(1), E)
        qs = q_prefix_weights(1, 1, E)
        pos = 0
        for b in inner:
            seg = qs[pos : pos + len(b)]
            assert all(q == seg[0] for q in seg)
            pos += len(b)


class TestAvg:
    def test_level_zero_is_lookup(self):
        u = {(3,): Fraction(5), (3, 4): Fraction(7), (3, 4, 5): Fraction(11)}
        assert avg(0, count(3), u, 1) == Fraction(5)
        assert avg(0, count(3), u, 3) == Fraction(11)

    def test_level_one_average(self):
        u = {(3,): Fraction(1), (3, 4): Fraction(10), (3, 4, 5): Fraction(100)}
        assert avg(1, count(3), u, 1) == Fraction(111, 3)

    def test_constant_collection_is_fixed_point(self):
        v = Fraction(9, 7)
        u = {F: v for F in [(3,), (3, 4), (3, 4, 5)]}
        assert avg(1, count(3), u, 1) == v

    def test_absent_keys_are_zero(self):
        assert avg(1, count(3), {}, 1) == 0
        u = {(3, 4): Fraction(3)}
        assert avg(1, count(3), u, 1) == Fraction(1)

    def test_later_block_reads_its_own_weights(self):
        # the second S_1 block from 3 is (6, ..., 11), weighing 1/6 per
        # element; the first block weighs 1/3
        u = {(3, 4, 5, 6): Fraction(1)}
        assert avg(1, count(3), u, 2) == Fraction(1, 6)

    def test_vector_valued(self):
        import numpy as np

        u = {F: np.ones(2) for F in [(3,), (3, 4), (3, 4, 5)]}
        out = avg(1, count(3), u, 1)
        assert np.allclose(out, np.ones(2))


class TestAvg2:
    def test_zeta_zero_coincides_bitwise(self):
        u = {(3,): Fraction(1), (3, 4): Fraction(10), (3, 4, 5): Fraction(100)}
        for n in (1, 2):
            a = avg(1, count(3), u, n)
            b = avg2(1, 0, count(3), u, n)
            assert a == b and type(a) is type(b)

    def test_sqrt_block(self):
        u = {F: 1.0 for F in [(3,), (3, 4), (3, 4, 5)]}
        out = avg2(0, 1, count(3), u, 1)
        assert math.isclose(out, math.sqrt(3))

    def test_terms_table(self):
        terms = avg2_terms(0, 1, count(3), 1)
        assert [F for F, _, _ in terms] == [(3,), (3, 4), (3, 4, 5)]
        assert all(q == Weight(Fraction(1), 3) for _, q, _ in terms)
        assert all(p == 1 for _, _, p in terms)


class TestVerifyPerm:
    def test_simple_blocks(self):
        rep = verify_perm(1, 0, decompose(Conv(0, 1), count(3), 3))
        assert isinstance(rep, PermReport) and rep.all_pass()

    def test_sqrt_blocks(self):
        rep = verify_perm(0, 1, decompose(Conv(1, 0), count(3), 2))
        assert rep.all_pass()

    @pytest.mark.parametrize(
        "xi,zeta,start,k",
        [(0, 0, 3, 3), (1, 1, 3, 1), (2, 1, 2, 1), (1, 2, 2, 1), (0, 2, 2, 2)],
    )
    def test_grid(self, xi, zeta, start, k):
        blocks = decompose(Conv(zeta, xi), count(start), k, max_elements=5000)
        assert verify_perm(xi, zeta, blocks).all_pass()

    def test_rejects_non_maximal_blocks(self):
        with pytest.raises(ValueError):
            verify_perm(1, 0, [(3, 4)])

    @pytest.mark.parametrize("xi, zeta, identity", [(1, 0, "perm_p"), (0, 1, "perm_q")])
    def test_the_last_cut_is_checked(self, monkeypatch, xi, zeta, identity):
        # a descent that is off by one only on the suffix from the last
        # cut breaks the identity, so the check reaches that cut
        import ordtensor.weights as weights

        blocks = decompose(Conv(zeta, xi), count(3), 3)
        full = tuple(chain.from_iterable(blocks))
        cut_blocks = split_blocks(Base(xi), full) if identity == "perm_p" else blocks
        suffix = full[len(full) - len(cut_blocks[-1]):]
        real = weights._prefix_descent

        def off_on_suffix(level, inner, E):
            rs = real(level, inner, E)
            return [r + 1 for r in rs] if E == suffix else rs

        assert getattr(verify_perm(xi, zeta, blocks), identity)
        monkeypatch.setattr(weights, "_prefix_descent", off_on_suffix)
        assert not getattr(verify_perm(xi, zeta, blocks), identity)

    @pytest.mark.parametrize("xi, zeta, start, k", [(1, 1, 2, 2), (2, 1, 2, 1), (1, 2, 2, 1)])
    @pytest.mark.parametrize("broken", ["p-sum", "l2-term", "q-constancy"])
    def test_a_broken_tally_fails(self, monkeypatch, xi, zeta, start, k, broken):
        # the descent of the whole set is broken on the second inner
        # segment [a, b): one p halved, every q on it halved, or only its
        # last q halved, which leaves the tally of the segment's first q
        # at 1 and is caught by the constancy check alone
        import ordtensor.weights as weights

        blocks = decompose(Conv(zeta, xi), count(start), k, max_elements=5000)
        full = tuple(chain.from_iterable(blocks))
        first, second = split_blocks(Base(xi), full)[:2]
        a, b = len(first), len(first) + len(second)
        assert b - a > 1
        real = weights._prefix_descent

        def broken_descent(level, inner, E):
            rs = real(level, inner, E)
            if E != full:
                return rs
            if broken == "p-sum" and inner is None:
                rs[a] *= 2
            elif broken == "l2-term" and inner is not None:
                rs[a:b] = [4 * r for r in rs[a:b]]
            elif broken == "q-constancy" and inner is not None:
                rs[b - 1] *= 4
            return rs

        assert verify_perm(xi, zeta, blocks).all_pass()
        monkeypatch.setattr(weights, "_prefix_descent", broken_descent)
        rep = verify_perm(xi, zeta, blocks)
        assert not rep.l2_convex
        assert rep.convex == (broken != "p-sum")
        assert rep == verify_perm_reference(xi, zeta, blocks)

    @pytest.mark.parametrize("broken", [None, "p-sum", "l2-term"])
    def test_long_block_of_singletons(self, monkeypatch, broken):
        # one S_2[S_0] block of 2040 elements from 8: 2040 inner segments
        # of one element each, whole or with the p or q of one halved
        import ordtensor.weights as weights

        blocks = decompose(Conv(2, 0), count(8), 1, max_elements=5000)
        assert len(blocks[0]) == 2040
        real = weights._prefix_descent

        def broken_descent(level, inner, E):
            rs = real(level, inner, E)
            if broken == ("p-sum" if inner is None else "l2-term"):
                rs[1000] *= 4
            return rs

        monkeypatch.setattr(weights, "_prefix_descent", broken_descent)
        rep = verify_perm(0, 2, blocks)
        assert rep.convex == (broken != "p-sum")
        assert rep.l2_convex == (broken is None)
        assert rep == verify_perm_reference(0, 2, blocks)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([0, 1, 2, OMEGA]),
        st.sampled_from([0, 1, 2, OMEGA]),
        st.integers(1, 4),
        st.lists(st.integers(1, 3), max_size=40),
        st.integers(1, 3),
    )
    def test_matches_weight_arithmetic(self, xi, zeta, start, gaps, k):
        # the integer descent products against p as Fractions and q as
        # Weights: the same four verdicts
        head = list(accumulate(gaps, initial=start))
        stream = chain(head, count(head[-1] + 1))
        try:
            blocks = decompose(Conv(zeta, xi), stream, k, max_elements=800)
        except BudgetExceeded as e:
            blocks = e.blocks
        assume(blocks)
        assert verify_perm(xi, zeta, blocks) == verify_perm_reference(xi, zeta, blocks)


@st.composite
def descent_sets(draw):
    # minima up to 300, sets shorter and longer than their minimum, and
    # jumps that start later segments at large minima: the descent meets
    # segments it takes as one block and segments it splits
    start = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    gaps = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(20, 120)), max_size=40))
    return tuple(accumulate(gaps, initial=start))


class TestDescent:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["1", "2", "3", "w", "w + 1", "w*2"]),
        st.sampled_from([None, 0, 1, 2]),
        descent_sets(),
    )
    def test_matches_split_at_every_level(self, level, inner, E):
        import ordtensor.weights as weights

        level = parse_ordinal(level)
        inner = None if inner is None else Ordinal.from_int(inner)
        assert weights._prefix_descent(level, inner, E) == prefix_descent_reference(
            level, inner, E
        )

    def test_deep_minimum_takes_no_split_per_level(self, monkeypatch):
        # a set no longer than its minimum is one block at every level:
        # the descent through its m + 1 finite levels splits nothing
        import ordtensor.weights as weights

        weights._p.cache_clear()
        weights._q.cache_clear()
        calls = []

        def counting(fam, E):
            calls.append(fam)
            return real(fam, E)

        real = weights._split
        monkeypatch.setattr(weights, "_split", counting)
        E = tuple(range(1100, 1108))
        cases = [
            (lambda: p_weight("w", E), Fraction(1, 1100**1101)),
            (lambda: q_weight(1, "w", E), Weight(Fraction(1), 1100**1101)),
            (lambda: p_weight("w + 1", range(192, 200)), Fraction(1, 192**194)),
        ]
        for evaluate, value in cases:
            calls.clear()
            assert evaluate() == value
            assert len(calls) <= 2


@st.composite
def increasing_sets(draw):
    start = draw(st.integers(1, 6))
    deltas = draw(st.lists(st.integers(1, 3), min_size=0, max_size=7))
    out = [start]
    for d in deltas:
        out.append(out[-1] + d)
    return tuple(out)


class TestPermanenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(increasing_sets(), st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2]))
    def test_permanence_after_complete_blocks(self, E, xi, zeta):
        # delete complete leading blocks: p and q of the tail prefix agree
        inner = split_blocks(Base(xi), E)
        if len(inner) < 2:
            return
        cut = len(inner[0])
        assert p_weight(xi, E) == p_weight(xi, E[cut:])
        conv_blocks = split_blocks(Conv(zeta, xi), E)
        if len(conv_blocks) >= 2:
            ccut = len(conv_blocks[0])
            assert q_weight(xi, zeta, E) == q_weight(xi, zeta, E[ccut:])
