import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from ordtensor.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    as_ordinal,
    compare,
    omega_pow,
    parse_ordinal,
)

from oracles import cnf_compare

F = Ordinal.from_int
W = OMEGA


def small_ordinals(max_exp=2, max_coeff=3):
    """All ordinals below w^(max_exp+1) with coefficients <= max_coeff."""
    out = []
    exps = [F(e) for e in range(max_exp, -1, -1)]
    for coeffs in itertools.product(range(max_coeff + 1), repeat=len(exps)):
        terms = tuple((e, c) for e, c in zip(exps, coeffs) if c)
        out.append(Ordinal(terms))
    return out


@st.composite
def ordinals(draw, depth=1):
    n_terms = draw(st.integers(0, 3))
    if depth > 0:
        exps = draw(
            st.lists(ordinals(depth=depth - 1), min_size=n_terms, max_size=n_terms)
        )
    else:
        exps = [F(draw(st.integers(0, 4))) for _ in range(n_terms)]
    exps = sorted(set(exps), reverse=True)
    terms = tuple((e, draw(st.integers(1, 4))) for e in exps)
    return Ordinal(terms)


class TestExamples:
    def test_compare(self):
        assert compare(W, W + 1) == -1
        assert compare(W.mul_nat(2), W + 5) == 1
        assert compare(omega_pow(W), omega_pow(3).mul_nat(7)) == 1

    def test_add(self):
        assert 1 + W == W
        assert W + 1 == parse_ordinal("w + 1")
        assert (omega_pow(2) + W) + omega_pow(2) == parse_ordinal("w^2*2")
        assert ZERO + W == W == W + ZERO

    def test_omega_pow(self):
        assert omega_pow(0) == ONE
        assert omega_pow(1) == W
        assert omega_pow(W) == parse_ordinal("w^(w)")

    def test_classify(self):
        assert ZERO.classify() == "zero"
        assert (W + 3).classify() == "successor"
        assert omega_pow(2).classify() == "limit"

    def test_fundamental(self):
        assert W.fundamental(3) == F(3)
        assert omega_pow(2).fundamental(2) == W.mul_nat(2)
        assert omega_pow(W).fundamental(4) == omega_pow(4)

    def test_mul_nat(self):
        assert W.mul_nat(0) == ZERO
        assert (W + 1).mul_nat(2) == W.mul_nat(2) + 1
        assert F(3).mul_nat(4) == F(12)

    def test_predecessor(self):
        assert (W + 3).predecessor() == W + 2
        assert ONE.predecessor() == ZERO
        with pytest.raises(ValueError):
            W.predecessor()


class TestExhaustive:
    def test_total_order(self):
        xs = small_ordinals()
        for a, b in itertools.product(xs, repeat=2):
            c = compare(a, b)
            assert c == -compare(b, a)
            assert (c == 0) == (a == b)
        for a, b, c in itertools.islice(itertools.product(xs, repeat=3), 50000):
            if a <= b <= c:
                assert a <= c

    def test_add_associative(self):
        xs = small_ordinals()
        for a, b, c in itertools.product(xs, repeat=3):
            assert (a + b) + c == a + (b + c)

    def test_add_identity(self):
        for a in small_ordinals():
            assert a + ZERO == a
            assert ZERO + a == a

    def test_omega_pow_monotone(self):
        xs = sorted(small_ordinals())
        for a, b in zip(xs, xs[1:]):
            assert omega_pow(a) < omega_pow(b)

    def test_fundamental_increasing_below_limit(self):
        limits = [
            W,
            W.mul_nat(2),
            omega_pow(2),
            omega_pow(2) + W.mul_nat(3),
            omega_pow(3),
            omega_pow(3) + omega_pow(2).mul_nat(2),
        ]
        for lam in limits:
            vals = [lam.fundamental(n) for n in range(1, 21)]
            for a, b in zip(vals, vals[1:]):
                assert a < b < lam


class TestNativeOrder:
    """Tuple order on ``terms`` against the recursive CNF oracle."""

    @given(ordinals(depth=3), ordinals(depth=3))
    def test_operators_match_oracle(self, a, b):
        c = cnf_compare(a, b)
        assert compare(a, b) == c
        assert (a < b) == (c < 0)
        assert (a <= b) == (c <= 0)
        assert (a == b) == (c == 0)
        assert (a > b) == (c > 0)
        assert (a >= b) == (c >= 0)

    @given(ordinals(depth=3))
    def test_equal_copies_with_distinct_exponents(self, a):
        b = parse_ordinal(str(a))
        assert cnf_compare(a, b) == compare(a, b) == 0
        assert a == b and a <= b and a >= b
        assert not (a < b or a > b)

    @given(st.lists(ordinals(depth=3), max_size=8))
    def test_sorted_matches_oracle(self, xs):
        assert sorted(xs) == sorted(xs, key=functools.cmp_to_key(cnf_compare))

    def test_mixed_with_naturals(self):
        assert F(3) < 4 and 4 < W and W > 4 and W >= 0
        assert not (F(3) == -1)


class TestAsOrdinal:
    def test_text_is_parsed(self):
        assert as_ordinal("w^2*3 + w + 5") == parse_ordinal("w^2*3 + w + 5")
        assert as_ordinal("0") == ZERO
        assert W + "1" == parse_ordinal("w + 1")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_ordinal(1.5)
        with pytest.raises(ValueError):
            as_ordinal("x")


class TestParser:
    @pytest.mark.parametrize(
        "text",
        ["0", "5", "w", "w*3", "w^2*3 + w + 5", "w^(w)", "w^(w + 1)*2 + w^3"],
    )
    def test_round_trip_known(self, text):
        assert str(parse_ordinal(text)) == text

    @given(ordinals())
    def test_round_trip_random(self, x):
        assert parse_ordinal(str(x)) == x

    def test_rejects_garbage(self):
        for bad in ["", "w^", "w++1", "x", "w^(w", "1 2"]:
            with pytest.raises(ValueError):
                parse_ordinal(bad)


class TestLeftSubtract:
    @given(ordinals(), st.integers(0, 3), st.integers(1, 3))
    def test_roundtrip(self, x, e, c):
        delta = omega_pow(e).mul_nat(c)
        total = delta + x
        assert delta + total.left_subtract(delta) == total

    def test_absorbed(self):
        assert (omega_pow(2)).left_subtract(W) == omega_pow(2)

    def test_too_big(self):
        with pytest.raises(ValueError):
            F(3).left_subtract(W)


def test_hashable_and_immutable():
    x = parse_ordinal("w^2 + 3")
    assert hash(x) == hash(parse_ordinal("w^2 + 3"))
    with pytest.raises(AttributeError):
        x.terms = ()


@given(st.integers(0, 2**70))
def test_natural_numbers_hash_as_their_ints(n):
    # equal values hash equal, so an Ordinal finds its int in a set or dict
    assert F(n) == n and hash(F(n)) == hash(n)
    assert F(n) in {n} and n in {F(n)}
    assert {n: "int"}[F(n)] == "int" and {F(n): "ordinal"}[n] == "ordinal"
    assert len({n, F(n)}) == 1


def test_infinite_ordinals_are_no_int_keys():
    assert W not in set(range(100)) and W + 1 not in {1, 2}
    assert {W: 0, F(0): 1, 0: 2} == {W: 0, 0: 2}
