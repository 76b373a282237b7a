"""Exact coefficient fields: the rationals and prime fields F_p.

Field elements are plain Python values.  A rational is an ``int`` when it
is integral and a ``Fraction`` only when it is not, so a ``Fraction``
never has denominator 1; an element of F_p is an ``int`` in
``range(p)``.  Every operation of both fields keeps these forms.  Since
``str``, ``==`` and ``hash`` agree between ``n`` and ``Fraction(n)``, the
form never shows in output.

The polynomial code does its arithmetic through the field object, so the
same code serves both fields.  Loops over many terms use the operators
directly and bring each result into the field's form once: `exact` does
that for polynomial products and base change, and the Groebner engine's
per-term loop inlines it (see gbcore).
"""

from fractions import Fraction
from math import isqrt


def _exact(q):
    """An int for an integral Fraction, else q itself."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


class Field:
    characteristic = 0
    name = "?"

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return self.name


class Rationals(Field):
    characteristic = 0
    name = "QQ"

    def zero(self):
        return 0

    def is_zero(self, a):
        return not a

    def one(self):
        return 1

    def add(self, a, b):
        return _exact(a + b)

    def exact(self, a):
        """a, a sum of products of elements, in the field's form."""
        return _exact(a)

    def mul(self, a, b):
        return _exact(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if a.__class__ is int:
            # 1 / a would be a float; only 1 and -1 have int inverses
            return a if a in (1, -1) else Fraction(1, a)
        return _exact(1 / a)

    def from_int(self, n):
        return n

    def from_fraction(self, num, den=1):
        return _exact(Fraction(num, den))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


# Singular's bound for prime fields
_TOO_LARGE = "prime field characteristic must be below 2^31"


class PrimeField(Field):
    def __init__(self, p):
        if p >= 2**31:
            raise ValueError(_TOO_LARGE)
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def is_zero(self, a):
        # elements are always reduced into range(p)
        return not a

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def exact(self, a):
        return a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den=1):
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = Rationals()


def field_from_name(name):
    """Map a field label like ``QQ`` or ``F2`` to a Field instance."""
    if name == "QQ":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        digits = name[1:].lstrip("0")
        # 2^31 has 10 digits; int() refuses very long digit strings
        if len(digits) > 10:
            raise ValueError(_TOO_LARGE)
        return PrimeField(int(digits or "0"))
    raise ValueError(f"unsupported field {name!r}")
