"""Sparse multivariate polynomials over an exact field, with monomial orders
and the packed terms the Groebner engine computes with.

A polynomial is a dict from exponent tuples to nonzero field elements,
wrapped in a small class bound to its field.  The number of variables is
implicit in the exponent tuples; the surrounding algebra keeps the names.

A monomial order is the one place that decides how monomials compare:
`key(exp)` is a flat tuple of ints, greater for the greater monomial,
and linear in the exponents.  `Packer(order, nvars)` reads its rows off
the keys of the unit vectors and packs each module term (position,
exponent) into one int, from the most significant bits down:

  * the position field, holding -position, so position 0 is greatest;
  * one field per key row, each row made nonnegative by adding multiples
    of earlier rows (which compares the same) and wide enough for the
    row's value at exponents below 2^32;
  * one 32-bit field per variable, variable 0 lowest: 31 bits of
    exponent under a guard bit, which stays clear in every stored term.

Integer order is then the position-over-term order, and the operations
the engine needs are a few int operations:

  * the product of a term and a monomial (position field 0) is `+`, and
    the quotient of two terms in one position is `-`;
  * b divides a, in one position, when `(a - b) & guards` is 0: a field
    that underflows borrows into its own guard bit, and the lowest one
    to underflow has no borrow coming in from below;
  * `Packer.lcm` takes a guard-bit max of two terms' exponent fields
    and computes the key rows of the result afresh.

Exponents must be below 2^31.  Packing one that is not raises
`ExponentOverflow`, and so does an engine product whose new term has a
guard bit set: two exponents below 2^31 sum to below 2^32, so a sum that
reaches the bound sets the guard bit of its own field.

Each algebra has its own packer, which keeps the monomials it has
packed, up to `_CACHED_MONOMIALS`, so that a monomial met again costs
one dict lookup.  The engine's inputs are polynomials of small support
that share their few monomials: in a pass of each benchmark workload,
91-94% of the packings are of a monomial the packer has met before.  The
layout itself depends only on the order's keys of the unit vectors, so
it is computed once for all packers that share them.
"""

from functools import cache
from operator import add, le, mul
from struct import Struct

# exponents are below this, so that one 32-bit field holds any exponent
# and a guard bit above it
EXPONENT_BOUND = 2**31
_FIELD = 32
# no packer has been seen to meet more than 16 distinct monomials (the
# benchmark workloads, the corpus, complete intersections up to
# (5,5,5,3)); this bound, 256 times that, caps a packer's memo at about
# 1 MiB in 8 variables, exponent tuples included
_CACHED_MONOMIALS = 2**12


class ExponentOverflow(ValueError):
    """An exponent at or above 2^31, the bound of the packed terms."""


class DegRevLex:
    """Degree reverse lexicographic order: higher total degree wins, then
    the smaller exponent of the last variable where two monomials differ."""

    @staticmethod
    def key(exp):
        return (sum(exp), *[-e for e in reversed(exp)])


class BlockElim:
    """Elimination order: degrevlex on the first block, then on the rest.

    Any monomial involving a first-block variable beats every monomial in
    the remaining variables, so the first block gets eliminated.
    """

    def __init__(self, n_first):
        self.n_first = n_first

    def key(self, exp):
        a, b = exp[:self.n_first], exp[self.n_first:]
        return DegRevLex.key(a) + DegRevLex.key(b)


@cache
def _layout(unit_keys):
    """(units, guards, exponent mask, top, field struct) of the packed
    terms of an order, from the keys of its unit vectors; computed once
    for all packers that share them."""
    nvars = len(unit_keys)
    rows = []
    for row in map(list, zip(*unit_keys)):
        for j in range(nvars):
            if row[j] < 0:
                # an order's first nonzero entry in a column is
                # positive; the nearest row positive there keeps the
                # entries small
                above = next(r for r in reversed(rows) if r[j] > 0)
                c = -(row[j] // above[j])
                row = [x + c * y for x, y in zip(row, above)]
        if any(row):
            rows.append(row)
    guards = sum(1 << (_FIELD * j + _FIELD - 1) for j in range(nvars))
    units = [1 << (_FIELD * j) for j in range(nvars)]
    offset = _FIELD * nvars
    exponent_mask = (1 << offset) - 1
    for row in reversed(rows):
        units = [u + (r << offset) for u, r in zip(units, row)]
        offset += _FIELD + sum(row).bit_length()
    return (tuple(units), guards, exponent_mask, offset,
            Struct(f"<{nvars}I"))


class Packer:
    """Packed module terms of one monomial order in `nvars` variables
    (see the module docstring for the layout).  The memo of packed
    monomials is the packer's own."""

    def __init__(self, order, nvars):
        self.nvars = nvars
        zero = (0,) * nvars
        unit_keys = tuple(order.key(zero[:j] + (1,) + zero[j + 1:])
                          for j in range(nvars))
        (self.units, self.guards, self.exponent_mask, self.top,
         self._fields) = _layout(unit_keys)
        self._monomials = {}    # exponent -> packed monomial

    def monomial(self, exp):
        """The packed monomial x^exp, in position field 0."""
        m = self._monomials.get(exp)
        if m is None:
            if max(exp, default=0) >= EXPONENT_BOUND:
                raise ExponentOverflow(f"exponent {max(exp)} is too large: "
                                       "exponents must be below 2^31")
            m = sum(map(mul, exp, self.units))
            if len(self._monomials) < _CACHED_MONOMIALS:
                self._monomials[exp] = m
        return m

    def pack(self, pos, exp):
        return self.monomial(exp) - (pos << self.top)

    def unpack(self, t):
        """(position, exponent tuple) of a packed term."""
        return -(t >> self.top), self._fields.unpack(
            (t & self.exponent_mask).to_bytes(4 * self.nvars, "little"))

    def lcm(self, a, b):
        """The lcm of two terms in one position: a times the monomial of
        the positive part of b's exponents minus a's.  Per field,
        (b | guard) - a keeps its guard bit exactly where b >= a, and
        no field borrows from the next."""
        g = self.guards
        d = ((b & self.exponent_mask) | g) - (a & self.exponent_mask)
        m = d & g
        x = d & (m - (m >> (_FIELD - 1)))
        for u in self.units:
            if not x:
                break
            e = x & 0xFFFFFFFF
            if e:
                a += e * u
            x >>= _FIELD
        return a


def exp_divides(e1, e2):
    return all(map(le, e1, e2))


class Poly:
    """Sparse polynomial: dict {exponent tuple: nonzero coefficient}."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        self.coeffs = coeffs
        self.field = field

    @classmethod
    def zero(cls, field):
        return cls({}, field)

    @classmethod
    def from_sums(cls, sums, field):
        """The polynomial {exp: sum} whose sums of products of elements,
        accumulated with the operators, are brought into the field's
        form once each; zeros are dropped."""
        return cls({e: s for e, s in zip(sums, map(field.exact,
                                                   sums.values())) if s},
                   field)

    @classmethod
    def constant(cls, c, nvars, field):
        if field.is_zero(c):
            return cls.zero(field)
        return cls({(0,) * nvars: c}, field)

    @classmethod
    def variable(cls, i, nvars, field):
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls({exp: field.one()}, field)

    @classmethod
    def monomial(cls, exp, c, field):
        if field.is_zero(c):
            return cls.zero(field)
        return cls({exp: c}, field)

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self.coeffs)

    def nvars(self):
        for exp in self.coeffs:
            return len(exp)
        return None

    def __add__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp)
            out[exp] = c if s is None else s + c
        return Poly.from_sums(out, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Poly({e: f.neg(c) for e, c in self.coeffs.items()}, f)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return Poly.from_sums(out, self.field)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return Poly.zero(f)
        return Poly({e: f.mul(c, x) for e, x in self.coeffs.items()}, f)

    def __pow__(self, n):
        if self.is_zero():
            if n == 0:
                raise ValueError("0^0 of unknown arity")
            return self
        result = Poly.constant(self.field.one(), self.nvars(), self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def terms_sorted(self, order):
        return sorted(self.coeffs.items(), key=lambda t: order.key(t[0]),
                      reverse=True)

    def weighted_degrees(self, weights):
        """Set of weighted degrees of the terms."""
        return {sum(w * e for w, e in zip(weights, exp))
                for exp in self.coeffs}

    def is_homogeneous(self, weights):
        return len(self.weighted_degrees(weights)) <= 1

    def derivative(self, i):
        f = self.field
        out = {}
        for exp, c in self.coeffs.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            k = e[i]
            e[i] = k - 1
            cc = f.mul(c, f.from_int(k))
            if not f.is_zero(cc):
                out[tuple(e)] = cc
        return Poly(out, f)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"Poly({self.coeffs})"


def poly_str(p, varnames, order=None):
    """Canonical printing: terms sorted descending by the given order."""
    if p.is_zero():
        return "0"
    order = order or DegRevLex()
    parts = []
    for exp, c in p.terms_sorted(order):
        factors = []
        for name, e in zip(varnames, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cstr = p.field.to_str(c)
        neg = cstr.startswith("-")
        if neg:
            cstr = cstr[1:]
        if factors and cstr == "1":
            body = "*".join(factors)
        elif factors:
            body = cstr + "*" + "*".join(factors)
        else:
            body = cstr
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
