"""Finitely presented commutative monoids, their homs, prelog rings,
and the canonical log factorization."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.polynomials import Poly
from logaq.monoids import (FpMonoid, MonoidHom, PrelogRing,
                           PrelogMorphism, FactorizationOptions,
                           choose_log_factorization)
from logaq.groebner import PresentedAlgebra, AlgebraMap
from logaq.abgroups import AbHom, FpAbGroup
from logaq.intlinalg import IntMatrix
from logaq.modules import ModHom, Complex3
from logaq.inputspec import parse_input, SemanticError

from helpers import morphism, is_trivial, lt_exponents


def test_word_problem():
    m = FpMonoid(["a", "b"], [((2, 0), (0, 2))])
    assert m.words_equal((2, 0), (0, 2))
    assert m.words_equal((3, 1), (1, 3))
    assert not m.words_equal((1, 0), (0, 1))


def test_group_completion_examples():
    assert FpMonoid(["e"]).group_completion().invariants() == ([], 1)
    m = FpMonoid(["a", "b"], [((1, 1), (0, 0))])
    assert m.group_completion().invariants() == ([], 1)
    m = FpMonoid(["a", "b"], [((2, 0), (0, 2))])
    assert m.group_completion().invariants() == ([2], 1)


def test_free_adjunction():
    m = FpMonoid([])
    assert m.free_adjunction(["x"]).gen_names == ["x"]
    n = FpMonoid(["e"]).free_adjunction(["x"])
    assert n.gen_names == ["e", "x"]
    assert n.relations == []
    q = FpMonoid(["a", "b"], [((2, 0), (0, 2))]).free_adjunction(["x", "y"])
    assert q.n_gens == 4
    assert q.relations == [((2, 0, 0, 0), (0, 2, 0, 0))]


def test_monoid_algebra_examples():
    assert FpMonoid(["a", "b"]).monoid_algebra(QQ).relations == []
    assert is_trivial(FpMonoid([]).monoid_algebra(QQ)) is False
    alg = FpMonoid(["a", "b", "c"],
                   [((1, 1, 0), (0, 0, 2))]).monoid_algebra(QQ)
    x, y, z = (alg.var(v) for v in alg.varnames)
    assert alg.is_zero(x * y - z * z)
    # same Hilbert staircase as k[x,y,z]/(xy - z^2)
    other = PresentedAlgebra(["x", "y", "z"], QQ, [x * y - z * z])
    assert lt_exponents(alg) == lt_exponents(other)


def test_monoid_hom_validity():
    m = FpMonoid(["a", "b"], [((2, 0), (0, 2))])
    n = FpMonoid(["e"])
    h = MonoidHom(m, n, [(1,), (1,)])
    assert h.is_well_defined()
    assert not MonoidHom(m, n, [(1,), (2,)]).is_well_defined()


def test_gp_functorial():
    m = FpMonoid(["a", "b"])
    n = FpMonoid(["e"])
    f = MonoidHom(m, n, [(1,), (1,)])
    g = MonoidHom(n, n, [(2,)])
    comp = MonoidHom(m, n, [g.apply(f.apply((1, 0))),
                            g.apply(f.apply((0, 1)))])
    assert comp.gp().matrix == g.gp().matrix.mul(f.gp().matrix)


def test_strictness():
    n = FpMonoid(["e"])
    assert MonoidHom(n, n, [(1,)]).is_strict()
    assert not MonoidHom(n, n, [(2,)]).is_strict()
    assert not MonoidHom(FpMonoid([]), n, []).is_strict()


def test_maps_on_no_generators_have_empty_matrices():
    gp = MonoidHom(FpMonoid([]), FpMonoid(["e", "f"]), []).gp()
    assert (gp.matrix.nrows, gp.matrix.ncols) == (2, 0)
    inc, group = AbHom(FpAbGroup(0), FpAbGroup(3),
                       IntMatrix.zero(3, 0)).kernel()
    assert (inc.nrows, inc.ncols) == (0, 0)
    assert group.n_gens == 0 and group.invariants() == ([], 0)


@pytest.mark.parametrize("cls", [ModHom, Complex3, AlgebraMap, AbHom,
                                 MonoidHom, PrelogRing, PrelogMorphism])
def test_constructors_take_no_check_flag(cls):
    # constructors store what they are given; validity is is_well_defined()
    # or Complex3.is_complex(), called where the input is checked
    assert "check" not in inspect.signature(cls).parameters


def test_prelog_ring_checks():
    # alpha respects monoid relation 0 (x = x) but not relation 1
    # (x^2 != x); the parser names the relation that breaks
    text = """
[field]
name = "QQ"
[source]
vars = []
gens = []
alpha = {}
[target]
vars = [x]
relations = [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 0, 0]]]
gens = [a, b, c]
alpha = { a = "x", b = "x", c = "x^2" }
[morphism]
ring_map = {}
monoid_map = {}
"""
    with pytest.raises(SemanticError,
                       match="alpha does not respect monoid relation 1$"):
        parse_input(text)
    parse_input(text.replace('c = "x^2"', 'c = "x"'))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_alpha_of_is_the_normal_form_of_the_product(field, data):
    """A word's structure image is the normal form of the product of
    the generators' images raised to its exponents, in an algebra with
    relations; a second call gives the same value."""
    alg = PresentedAlgebra(["s", "t"], field, [
        Poly({(2, 0): field.one(), (0, 1): field.from_int(-1)}, field),
        Poly({(0, 3): field.one()}, field)])
    coeff = st.integers(-2, 2).map(field.from_int).filter(
        lambda c: not field.is_zero(c))
    poly = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           coeff, max_size=3).map(lambda d: Poly(d, field))
    alpha = data.draw(st.lists(poly, min_size=3, max_size=3))
    ring = PrelogRing(alg, FpMonoid(["a", "b", "c"]), alpha)
    for word in data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3),
                                   min_size=1, max_size=3)):
        product = alg.one()
        for image, e in zip(alpha, word):
            if e:
                product = product * image ** e
        got = ring.alpha_of(word)
        assert got == alg.nf(product)
        assert ring.alpha_of(list(word)) is got


LOG_POINT = """
[field]
name = "QQ"
[source]
vars = []
gens = []
alpha = {}
[target]
vars = []
gens = [e]
alpha = { e = "0" }
[morphism]
ring_map = {}
monoid_map = {}
"""


def test_factorization_shape():
    fac = choose_log_factorization(morphism(LOG_POINT))
    # P0 = free monoid on one cover of e, R = k[one variable]
    assert fac.mid.monoid.n_gens == 1
    assert fac.mid.algebra.nvars == 1
    assert fac.right.monoid_map.is_well_defined()
    assert fac.right.ring_map.is_surjective()
    # h is surjective onto N
    assert fac.right.monoid_map.gp().is_surjective()


def test_factorization_options():
    mor = morphism(LOG_POINT)
    fac = choose_log_factorization(mor)
    fat = choose_log_factorization(mor, FactorizationOptions(extra_x=True))
    assert fat.mid.monoid.n_gens == fac.mid.monoid.n_gens + 1
    assert fat.right.ring_map.is_surjective()
    rev = choose_log_factorization(mor,
                                   FactorizationOptions(reverse_x=True))
    assert rev.mid.monoid.n_gens == fac.mid.monoid.n_gens


def test_factorization_surjective_on_corpus():
    text = """
[field]
name = "QQ"
[source]
vars = [s]
gens = [e]
alpha = { e = "s" }
[target]
vars = [t]
relations = ["t^4"]
gens = [f]
alpha = { f = "t" }
[morphism]
ring_map = { s = "t^2" }
monoid_map = { e = [2] }
"""
    fac = choose_log_factorization(morphism(text))
    assert fac.right.ring_map.is_surjective()
    assert fac.left.monoid_map.is_well_defined()
    # the composite through the middle equals the original morphism
    comp = fac.right.monoid_map.apply(fac.left.monoid_map.apply((1,)))
    want = fac.morphism.monoid_map.apply((1,))
    assert fac.morphism.target.monoid.words_equal(comp, want)
