"""Sparse multivariate polynomials over an exact field, with monomial orders.

A polynomial is a dict from exponent tuples to nonzero field elements,
wrapped in a small class bound to its field.  The number of variables is
implicit in the exponent tuples; the surrounding algebra keeps the names.

A monomial order is the one place that decides how terms compare, by
three flat tuples of ints:

  * `key(exp)` is greater for the greater monomial;
  * `term_key((position, exp))` is the position-over-term key the
    Groebner engine compares module terms by: `-position`, then
    `key(exp)`, so position 0 is greatest and ties go to the monomial
    order;
  * `heap_key(term)` is `term_key(term)` negated, smaller for the greater
    term, so that a min-heap pops the greatest term first.
"""

from operator import le, neg


class DegRevLex:
    """Degree reverse lexicographic order: higher total degree wins, then
    the smaller exponent of the last variable where two monomials differ."""

    @staticmethod
    def key(exp):
        return DegRevLex.term_key((0, exp))[1:]

    @staticmethod
    def term_key(term):
        pos, exp = term
        return (-pos, sum(exp), *map(neg, reversed(exp)))

    @staticmethod
    def heap_key(term):
        pos, exp = term
        return (pos, -sum(exp), *reversed(exp))


class BlockElim:
    """Elimination order: degrevlex on the first block, then on the rest.

    Any monomial involving a first-block variable beats every monomial in
    the remaining variables, so the first block gets eliminated.
    """

    def __init__(self, n_first):
        self.n_first = n_first

    def key(self, exp):
        return self.term_key((0, exp))[1:]

    def term_key(self, term):
        pos, exp = term
        a, b = exp[:self.n_first], exp[self.n_first:]
        return (-pos, sum(a), *map(neg, reversed(a)),
                sum(b), *map(neg, reversed(b)))

    def heap_key(self, term):
        pos, exp = term
        a, b = exp[:self.n_first], exp[self.n_first:]
        return (pos, -sum(a), *reversed(a), -sum(b), *reversed(b))


def exp_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def exp_divides(e1, e2):
    return all(map(le, e1, e2))


def exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


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
        f = self.field
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = f.add(out.get(exp, f.zero()), c)
            if f.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return Poly(out, f)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Poly({e: f.neg(c) for e, c in self.coeffs.items()}, f)

    def __mul__(self, other):
        f = self.field
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = exp_mul(e1, e2)
                s = f.add(out.get(e, f.zero()), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(out, f)

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
