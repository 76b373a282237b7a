"""Sparse polynomial arithmetic and canonical printing."""

from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.polynomials import Poly, DegRevLex, BlockElim, Packer, poly_str

from helpers import Lex

F2 = PrimeField(2)


def p_of(coeffs):
    return Poly({e: QQ.from_int(c) for e, c in coeffs.items() if c}, QQ)


exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, st.integers(-5, 5), max_size=5).map(p_of)


@given(polys, polys, polys)
@settings(max_examples=80, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys)
@settings(max_examples=40, deadline=None)
def test_neg_and_zero(a):
    assert a + (-a) == Poly.zero(QQ)
    assert a * Poly.zero(QQ) == Poly.zero(QQ)
    assert a * Poly.constant(QQ.one(), 2, QQ) == a


def test_pow():
    x = Poly.variable(0, 2, QQ)
    y = Poly.variable(1, 2, QQ)
    assert (x + y) ** 2 == x * x + x * y + x * y + y * y
    assert (x + y) ** 0 == Poly.constant(QQ.one(), 2, QQ)


def test_char2_arithmetic():
    x = Poly.variable(0, 1, F2)
    assert x + x == Poly.zero(F2)
    one = Poly.constant(F2.one(), 1, F2)
    assert (x + one) ** 2 == x * x + one


def test_derivative():
    x = Poly.variable(0, 2, QQ)
    y = Poly.variable(1, 2, QQ)
    p = x ** 3 * y + x
    assert p.derivative(0) == p_of({(2, 1): 3, (0, 0): 1})
    assert p.derivative(1) == x ** 3


def test_orders():
    drl = DegRevLex()
    assert drl.key((2, 0)) != drl.key((0, 2))
    # degrevlex ranks by total degree first
    lead = max([(1, 1), (3, 0), (0, 2)], key=drl.key)
    assert lead == (3, 0)
    lx = Lex()
    assert max([(1, 3), (2, 0)], key=lx.key) == (2, 0)
    be = BlockElim(1)
    # any power of a first-block variable beats the second block
    assert be.key((1, 0)) > be.key((0, 5))
    # keys are flat tuples of ints, greater for the greater monomial
    assert drl.key((1, 2)) == (3, -2, -1)
    assert be.key((1, 0, 2)) == (1, -1, 2, -2, 0)
    # packed position over term: position 0 beats any monomial elsewhere
    packer = Packer(drl, 2)
    assert packer.pack(0, (0, 0)) > packer.pack(1, (5, 5))


def test_poly_str():
    names, drl = ["x", "y"], DegRevLex()
    assert poly_str(p_of({}), names, drl) == "0"
    assert poly_str(p_of({(1, 0): 1}), names, drl) == "x"
    assert poly_str(p_of({(2, 1): 2, (1, 0): 3, (0, 0): -1}), names, drl) \
        == "2*x^2*y + 3*x - 1"
    assert poly_str(p_of({(1, 0): -1, (0, 1): 1}), names, drl) == "-x + y"


def test_homogeneity():
    p = p_of({(2, 0): 1, (0, 2): -3})
    assert p.is_homogeneous([1, 1])
    assert not (p + p_of({(1, 0): 1})).is_homogeneous([1, 1])
    q = p_of({(3, 0): 1, (0, 2): -1})
    assert q.is_homogeneous([2, 3])
