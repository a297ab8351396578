"""Exact arithmetic for ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum ``w^e1*c1 + ... + w^ek*ck`` with ordinal
exponents ``e1 > e2 > ... > ek`` and positive integer coefficients.
The representation is unique, so structural equality coincides with
ordinal equality.  Values are immutable and hashable, which makes them
safe dictionary keys and safe to share between threads.

Only the operations needed downstream are provided: comparison,
(non-commutative) addition, ``w^a``, right multiplication by a natural
number, successor/limit classification, and the standard fundamental
sequences for limit ordinals.  General ordinal multiplication and
exponentiation are deliberately out of scope.
"""

from __future__ import annotations

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "compare",
    "omega_pow",
    "parse_ordinal",
]


class Ordinal:
    """An ordinal below epsilon_0, stored in Cantor normal form.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs with
    strictly decreasing ``Ordinal`` exponents and coefficients >= 1.
    The empty tuple denotes 0.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        terms = tuple((e, int(c)) for (e, c) in terms)
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponents must be Ordinal instances")
            if c < 1:
                raise ValueError("coefficients must be positive")
        for (ea, _), (eb, _) in zip(terms, terms[1:]):
            if eb >= ea:
                raise ValueError("exponents must be strictly decreasing")
        object.__setattr__(self, "terms", terms)
        # a natural number equals its int, so it hashes as that int
        finite = not terms or terms[0][0].is_zero()
        key = (terms[0][1] if terms else 0) if finite else terms
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    # -- structure queries -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def to_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1]

    def leading_exponent(self) -> "Ordinal":
        if self.is_zero():
            raise ValueError("0 has no leading exponent")
        return self.terms[0][0]

    def classify(self) -> str:
        """Return ``'zero'``, ``'successor'`` or ``'limit'``."""
        if not self.terms:
            return "zero"
        if self.terms[-1][0].is_zero():
            return "successor"
        return "limit"

    def predecessor(self) -> "Ordinal":
        if self.classify() != "successor":
            raise ValueError(f"{self} is not a successor")
        e, c = self.terms[-1]
        if c == 1:
            return Ordinal(self.terms[:-1])
        return Ordinal(self.terms[:-1] + ((e, c - 1),))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        other = as_ordinal(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        e = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > e]
        rest = [t for t in self.terms if t[0] == e]
        if rest:
            merged = (e, rest[0][1] + other.terms[0][1])
            return Ordinal(tuple(kept) + (merged,) + other.terms[1:])
        return Ordinal(tuple(kept) + other.terms)

    def __radd__(self, other) -> "Ordinal":
        return as_ordinal(other) + self

    def mul_nat(self, n: int) -> "Ordinal":
        """Right multiplication by a natural number."""
        if n < 0:
            raise ValueError("factor must be a natural number")
        if n == 0 or self.is_zero():
            return ZERO
        (e, c), rest = self.terms[0], self.terms[1:]
        return Ordinal(((e, c * n),) + rest)

    def fundamental(self, n: int) -> "Ordinal":
        """The n-th element of the standard fundamental sequence.

        For ``d + w^(b+1)`` this is ``d + w^b * n``; for ``d + w^b``
        with ``b`` a limit it is ``d + w^fundamental(b, n)``.  The
        sequence is strictly increasing with supremum ``self``.
        """
        if n < 1:
            raise ValueError("index must be positive")
        if self.classify() != "limit":
            raise ValueError(f"{self} is not a limit ordinal")
        e, c = self.terms[-1]
        if c > 1:
            prefix = Ordinal(self.terms[:-1] + ((e, c - 1),))
        else:
            prefix = Ordinal(self.terms[:-1])
        if e.classify() == "successor":
            return prefix + omega_pow(e.predecessor()).mul_nat(n)
        return prefix + omega_pow(e.fundamental(n))

    def left_subtract(self, delta: "Ordinal") -> "Ordinal":
        """The unique ``v`` with ``delta + v == self``.

        Only the case needed here is supported: ``delta`` is a single
        CNF term and ``delta <= self``.
        """
        if delta.is_zero():
            return self
        if len(delta.terms) != 1:
            raise ValueError("delta must be a single CNF term")
        if self < delta:
            raise ValueError("delta exceeds the ordinal")
        (de, dc) = delta.terms[0]
        if not self.terms:
            raise ValueError("delta exceeds the ordinal")
        (e, c) = self.terms[0]
        if e != de:
            # leading exponent strictly larger: delta is absorbed
            return self
        if c < dc:
            raise ValueError("delta exceeds the ordinal")
        if c == dc:
            return Ordinal(self.terms[1:])
        return Ordinal(((e, c - dc),) + self.terms[1:])

    # -- comparisons and hashing -------------------------------------
    #
    # CNF order is lexicographic on the (exponent, coefficient) pairs,
    # with a proper prefix below its extensions: exactly Python's tuple
    # order on ``terms``.  The tuple comparison runs in C and calls back
    # into these methods only for exponents that are distinct objects.

    def __eq__(self, other):
        if isinstance(other, Ordinal):
            return self.terms == other.terms
        if isinstance(other, int):
            return other >= 0 and self.terms == Ordinal.from_int(other).terms
        return NotImplemented

    def __lt__(self, other):
        return self.terms < as_ordinal(other).terms

    def __le__(self, other):
        return self.terms <= as_ordinal(other).terms

    def __gt__(self, other):
        return self.terms > as_ordinal(other).terms

    def __ge__(self, other):
        return self.terms >= as_ordinal(other).terms

    def __hash__(self):
        return self._hash

    # -- text form ---------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(_term_str(e, c) for e, c in self.terms)

    def __repr__(self):
        return f"Ordinal[{self}]"


def _term_str(e: Ordinal, c: int) -> str:
    if e.is_zero():
        return str(c)
    if e == ONE:
        base = "w"
    elif e.is_finite():
        base = f"w^{e.to_int()}"
    else:
        base = f"w^({e})"
    return base if c == 1 else f"{base}*{c}"


def as_ordinal(value) -> Ordinal:
    """An Ordinal, a natural number, or ordinal text (``"w^2 + 1"``)."""
    if isinstance(value, Ordinal):
        return value
    if isinstance(value, int):
        return Ordinal.from_int(value)
    if isinstance(value, str):
        return parse_ordinal(value)
    raise TypeError(f"cannot interpret {value!r} as an ordinal")


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on ordinals: -1, 0 or 1."""
    if a.terms == b.terms:
        return 0
    return -1 if a.terms < b.terms else 1


def omega_pow(a) -> Ordinal:
    """w raised to the ordinal power ``a``."""
    a = as_ordinal(a)
    return Ordinal(((a, 1),))


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = omega_pow(ONE)


# -- parser for the text syntax --------------------------------------
#
#   ordinal := '0' | term (' + ' term)*
#   term    := 'w' ['^' exponent] ['*' nat] | nat
#   exponent:= nat | '(' ordinal ')'
#
# The printer above emits exactly this syntax, and parse/print round-trip.


def parse_ordinal(text: str) -> Ordinal:
    parser = _Parser(text)
    value = parser.parse_sum()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise ValueError(f"trailing input in ordinal literal: {text!r}")
    return value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ValueError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected a number at position {start} in {self.text!r}")
        return int(self.text[start : self.pos])

    def parse_sum(self) -> Ordinal:
        total = self.parse_term()
        while self.peek() == "+":
            self.pos += 1
            total = total + self.parse_term()
        return total

    def parse_term(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            exponent = ONE
            if self.peek() == "^":
                self.pos += 1
                if self.peek() == "(":
                    self.pos += 1
                    exponent = self.parse_sum()
                    self.expect(")")
                else:
                    exponent = Ordinal.from_int(self.parse_nat())
            coeff = 1
            if self.peek() == "*":
                self.pos += 1
                coeff = self.parse_nat()
            return omega_pow(exponent).mul_nat(coeff)
        if ch.isdigit():
            return Ordinal.from_int(self.parse_nat())
        raise ValueError(f"unexpected character {ch!r} in ordinal literal {self.text!r}")
