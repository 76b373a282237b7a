"""Field laws and element forms: QQ against a Fraction oracle, F_p
elements in range(p), and int/Fraction agreement in print and hash."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField

from helpers import exact_form

PRIMES = (2, 3, 7)

small = st.integers(-40, 40)
rationals = st.builds(QQ.from_fraction, small, st.integers(1, 12))


@given(rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_rationals_match_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    results = [(QQ.add(a, b), fa + fb), (QQ.add(a, QQ.neg(b)), fa - fb),
               (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa)]
    if b:
        results += [(QQ.inv(b), 1 / fb), (QQ.div(a, b), fa / fb)]
    for got, want in results:
        assert exact_form(got, QQ)
        assert got == want


@given(small, st.integers(1, 12))
def test_rationals_constructors(n, d):
    for c in (QQ.zero(), QQ.one(), QQ.from_int(n), QQ.from_fraction(n, d)):
        assert exact_form(c, QQ)
    assert QQ.from_fraction(n, d) == Fraction(n, d)


@pytest.mark.parametrize("a", [0, Fraction(0)])
def test_inverse_of_zero(a):
    for field in (QQ, *map(PrimeField, PRIMES)):
        with pytest.raises(ZeroDivisionError):
            field.inv(a)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_prime_field_elements_in_range(p, data):
    f = PrimeField(p)
    a, b = f.from_int(data.draw(small)), f.from_int(data.draw(small))
    results = [f.zero(), f.one(), a, b, f.add(a, b), f.add(a, f.neg(b)),
               f.mul(a, b), f.neg(a)]
    if b:
        results += [f.inv(b), f.div(a, b)]
        assert f.mul(b, f.inv(b)) == 1
    den = data.draw(st.integers(1, 12).filter(lambda d: d % p))
    results.append(f.from_fraction(data.draw(small), den))
    for x in results:
        assert exact_form(x, f)
    assert f.add(a, b) == (a + b) % p and f.mul(a, b) == (a * b) % p


@given(st.integers(-10**30, 10**30))
def test_int_and_fraction_agree(n):
    assert str(n) == str(Fraction(n))
    assert n == Fraction(n) and Fraction(n) == n
    assert hash(n) == hash(Fraction(n))
    assert QQ.to_str(n) == QQ.to_str(Fraction(n))
