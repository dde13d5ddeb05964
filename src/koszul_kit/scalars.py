"""Exact scalar arithmetic over Q and F_p.

Elements are primitive values, and the ``Field`` object carries the
operations.  Over F_p an element is an int in ``[0, p)``.  Over Q it is
canonical: a plain ``int`` when it is integral, and a ``Fraction`` only
when its denominator is > 1, so each rational has one representation.
``canon`` is that rule.  Every ``Field`` method returns canonical values,
and every place that stores a value in a column applies ``canon`` to what
raw arithmetic left there: ``int`` and ``Fraction`` mix freely, and a sum
or product of Fractions can be integral.  An ``int`` and the equal
``Fraction`` compare and hash equal, so the rule changes no result, only
the cost: the integral values that most inputs produce stay on Python's
int arithmetic.  Keeping elements as primitive values lets the
elimination core (``linalg.EchelonSpan``) run on them directly.

This is the one module that builds a ``Fraction`` or divides: ``int /
int`` would give a float.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


# Miller-Rabin on the first 13 primes as bases is exact for every n below
# _MR_BOUND (Sorenson and Webster 2015); no answer is ever probabilistic.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise InputError("modulus too large to certify prime")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def canon(x):
    """The canonical raw value of a rational x (an int or a Fraction): the
    int itself when x is integral, else the Fraction."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


class Field:
    """The ground field: rationals or a prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        self.p = p

    # -- element constructors ------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n: int):
        return n % self.p if self.p else n

    def parse(self, s: str):
        """Parse "n" or "n/d" into a field element."""
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            if self.p:
                return self.of_int(int(num)) * self.inv(self.of_int(int(den))) % self.p
            return canon(Fraction(int(num), int(den)))
        return self.of_int(int(s))

    def format(self, x) -> str:
        if self.p:
            return str(x % self.p)
        return str(canon(x))

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p else canon(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else canon(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p else canon(a * b)

    def neg(self, a):
        return (-a) % self.p if self.p else canon(-a)

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero in F_p")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero rational")
        return canon(Fraction(a.denominator, a.numerator))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return (a % self.p == 0) if self.p else a == 0

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    # -- misc ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    @staticmethod
    def from_json(obj) -> "Field":
        kind = obj.get("type") if isinstance(obj, dict) else None
        if kind == "Q":
            return Field()
        # through str, so that 7.5 or true is refused, not read as 7 or 1
        if kind == "Fp" and str(obj.get("p")).isdigit():
            return Field(int(obj["p"]))
        raise InputError(f"bad field spec {obj!r}")


QQ = Field()
