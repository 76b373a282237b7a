"""Buchberger, normal forms, elimination kernels (against the second
Buchberger run they replaced), staircase counts, and the
degree-truncated linear-algebra oracle for membership soundness."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.polynomials import Poly, DegRevLex, Packer, poly_str, exp_divides
from logaq import groebner
from logaq.gbcore import polys_from_vec, vec_from_polys
from logaq.groebner import (buchberger, PresentedAlgebra, AlgebraMap,
                            staircase_dimension)

from helpers import (Lex, exact_form, poly_vector, truncated_ideal_span,
                     span_rank, in_span, lt_exponents, staircase_by_walk,
                     kernel_by_second_run, full_graph, substitute)

F2, F3 = PrimeField(2), PrimeField(3)


def P(names, rels_str=(), field=QQ, order=None):
    alg = PresentedAlgebra(names, field, [], order=order)
    rels = [parse(alg, s) for s in rels_str]
    return PresentedAlgebra(names, field, rels, order=order)


def parse(alg, s):
    from logaq.inputspec import parse_poly
    return parse_poly(s, alg.varnames, alg.field)


def test_buchberger_examples():
    x = Poly.variable(0, 2, QQ)
    y = Poly.variable(1, 2, QQ)
    drl = Packer(DegRevLex(), 2)
    gb = buchberger([x, y], drl, QQ)
    assert sorted(poly_str(g, ["x", "y"], DegRevLex()) for g in gb) \
        == ["x", "y"]
    assert buchberger([Poly.zero(QQ)], drl, QQ) == []
    # lex x > y on {x^2 - y, x*y - 1}
    gb = buchberger([x * x - y, x * y - Poly.constant(QQ.one(), 2, QQ)],
                    Packer(Lex(), 2), QQ)
    printed = sorted(poly_str(g, ["x", "y"], Lex()) for g in gb)
    assert printed == ["x - y^2", "y^3 - 1"]


def test_buchberger_deterministic():
    alg = P(["x", "y", "z"], ["x^2 - y*z", "x*y - z^2"])
    again = P(["x", "y", "z"], ["x^2 - y*z", "x*y - z^2"])
    a = [poly_str(g, alg.varnames, alg.order) for g in alg.gb()]
    b = [poly_str(g, again.varnames, again.order) for g in again.gb()]
    assert a == b


def test_normal_form_examples():
    alg = P(["x", "y"], ["x^2 - y"])
    x = alg.var("x")
    assert alg.nf(x * x) == alg.var("y")
    alg2 = P(["x"], ["x"])
    assert alg2.is_zero(alg2.var("x"))
    # grevlex z > y > x reduces z^2 to x*y
    alg3 = P(["z", "y", "x"], ["x*y - z^2"])
    z = alg3.var("z")
    assert poly_str(alg3.nf(z * z), alg3.varnames, alg3.order) == "y*x"


def test_normal_form_idempotent():
    alg = P(["x", "y"], ["x^3 - y^2", "x*y - x"])
    p = parse(alg, "x^4 + 2*x*y^2 - y^3 + 1")
    r = alg.nf(p)
    assert alg.nf(r) == r
    assert alg.is_zero(p - r)


def test_algebra_map_kernels():
    kuv = P(["u", "v"])
    kt = P(["t"])
    f = AlgebraMap(kuv, kt, [kt.var("t"), kt.var("t")])
    gens = f.kernel_generators()
    assert [poly_str(g, ["u", "v"], kuv.order) for g in gens] == ["u - v"]

    ident = AlgebraMap(kt, kt, [kt.var("t")])
    assert ident.kernel_generators() == []

    to_k = AlgebraMap(P(["x"]), P([]), [Poly.zero(QQ)])
    gens = to_k.kernel_generators()
    assert [poly_str(g, ["x"], DegRevLex()) for g in gens] == ["x"]
    for g in gens:
        assert to_k.apply(g).is_zero()


def _cast_by_apply(f, vecs, n):
    """`cast_vecs` the long way: each vector unpacked to its column, then
    `apply` on every entry."""
    src = f.source
    return [[f.apply(p) for p in polys_from_vec(v, n, src.packer, src.field)]
            for v in vecs]


def test_cast_vecs_is_apply_on_every_entry():
    # k[u, v] -> k[t]/(t^3), u -> t^2, v -> t + 1: u v loses a term and
    # u^2 vanishes in the target, and zero entries stay zero
    kuv = P(["u", "v"])
    kt = P(["t"], ["t^3"])
    f = AlgebraMap(kuv, kt, [parse(kt, "t^2"), parse(kt, "t + 1")])
    vecs = [vec_from_polys([parse(kuv, s) for s in col], kuv.packer)
            for col in (["u*v", "0", "u - v^2"], ["0", "0", "0"],
                        ["u^2", "3*v", "1"])]
    got = f.cast_vecs(vecs, 3)
    assert got == _cast_by_apply(f, vecs, 3)
    assert all(p.is_zero() for p in got[1]) and got[0][1].is_zero()
    assert [[poly_str(p, ["t"], kt.order) for p in col] for col in got] \
        == [["t^2", "0", "-2*t - 1"], ["0", "0", "0"],
            ["0", "3*t + 3", "1"]]
    assert f.cast_vecs([], 3) == []


@settings(max_examples=30, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, F2, F3]))
def test_cast_vecs_matches_apply_on_drawn_vectors(data, field):
    # k[u, v] -> k[s, t]/(s^2 - t, t^3): entries cancel and vanish in
    # the target, a position may be left empty
    kuv = P(["u", "v"], field=field)
    kst = P(["s", "t"], ["s^2 - t", "t^3"], field=field)
    f = AlgebraMap(kuv, kst, [parse(kst, "s + t"), parse(kst, "s*t - 1")])
    n = data.draw(st.integers(1, 3))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coeff = st.integers(-3, 3).map(field.from_int).filter(
        lambda c: not field.is_zero(c))
    poly = st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: Poly(d, field))
    cols = data.draw(st.lists(st.lists(poly, min_size=n, max_size=n),
                              max_size=3))
    vecs = [vec_from_polys(col, kuv.packer) for col in cols]
    assert f.cast_vecs(vecs, n) == _cast_by_apply(f, vecs, n)


def test_kernel_and_surjectivity_share_one_graph_basis():
    kuv = P(["u", "v"])
    kt = P(["t"])
    f = AlgebraMap(kuv, kt, [kt.var("t"), kt.var("t")])
    f.kernel_generators()
    ring, _nt, _ns = f._graph()
    basis = ring._gb
    assert basis is not None
    assert f.surjectivity_witness() is not None
    assert f._graph()[0] is ring and ring._gb is basis


# maps k[u, v, w] -> k[s, t]/J, by the images of u, v and w: the first
# variable whose image is s stands in for it, t is hit or not
PARTLY_HIT = {
    "s hit, t not, not onto": ((), ["s", "s*t + t^2", "s^2"]),
    "s hit twice, t not, onto": (("t^3",), ["s", "t + s^2", "s"]),
    "both hit, the later by w": (("s^2 - t^2",), ["s + t", "s", "t"]),
    "none hit": (("s^2",), ["s + t", "2*t", "s*t"]),
}


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "F2", "F3"])
@pytest.mark.parametrize("name", sorted(PARTLY_HIT))
def test_graph_ring_eliminates_only_the_unhit_target_variables(field, name):
    # the graph ring keeps a primed copy only of the target variables no
    # source variable maps to exactly; the kernel and the witness are
    # those of the graph ring with a copy of every target variable
    rels, images = PARTLY_HIT[name]
    tgt = P(["s", "t"], rels, field=field)
    f = AlgebraMap(P(["u", "v", "w"], field=field), tgt,
                   [parse(tgt, s) for s in images])
    kernel, witness = full_graph(f)
    assert f.kernel_generators() == kernel
    assert f.surjectivity_witness() == witness
    hit = {j for j, v in enumerate(tgt.varnames)
           if any(g == tgt.var(v) for g in f.images)}
    ring, nt, ns = f._graph()
    assert (nt, ns) == (2 - len(hit), 3)
    assert ring.varnames[:nt] == [f"{v}'" for j, v in enumerate(tgt.varnames)
                                  if j not in hit]
    if witness is not None:
        for v, w in zip(tgt.varnames, witness):
            assert f.apply(w) == tgt.nf(tgt.var(v))


def test_partly_hit_map_has_no_kernel_and_no_witness():
    # k[u, v] -> k[s, t], u -> s, v -> s*t + t^2: s is u, t has no
    # preimage, and the images are algebraically independent
    kst = P(["s", "t"])
    f = AlgebraMap(P(["u", "v"]), kst, [kst.var("s"), parse(kst, "s*t + t^2")])
    assert f.kernel_generators() == [] == full_graph(f)[0]
    assert f.surjectivity_witness() is None
    ring, nt, _ns = f._graph()
    assert (ring.varnames, nt) == (["t'", "u", "v"], 1)


def test_surjectivity():
    kuv = P(["u", "v"])
    kt = P(["t"])
    f = AlgebraMap(kuv, kt, [kt.var("t"), kt.var("t")])
    assert f.is_surjective()
    sq = AlgebraMap(kt, kt, [kt.var("t") ** 2])
    assert not sq.is_surjective()


# five homogeneous test ideals for the truncation oracle
ORACLE_IDEALS = [
    (["x", "y"], ["x^2", "y^3"]),
    (["x", "y", "z"], ["x*y - z^2"]),
    (["x", "y", "z"], ["x^2 - y*z", "x*y - z^2"]),
    (["x", "y", "z"], ["x^3 + y^3 + z^3"]),
    (["x", "y"], ["x^2", "x*y", "y^2"]),
]


def _standard_count(alg, basis):
    """Monomials not divisible by any Groebner leading term: a k-basis
    of the quotient, so for homogeneous ideals the truncated ideal has
    codimension equal to their count."""
    lts = lt_exponents(alg)
    return sum(1 for e in basis
               if not any(exp_divides(lt, e) for lt in lts))


def test_membership_against_truncation_oracle():
    """Through degree 6, the Groebner staircase must match the span of
    the generator multiples computed by plain linear algebra."""
    for names, rels in ORACLE_IDEALS:
        alg = P(names, rels)
        nv = len(names)
        rows, basis, index = truncated_ideal_span(
            alg.relations, nv, 6, QQ)
        span_dim = span_rank(rows, QQ)
        assert span_dim == len(basis) - _standard_count(alg, basis)
        # membership spot checks: nf-zero elements lie in the span,
        # nf-nonzero monomials do not equal any ideal element of their
        # own nf class, i.e. nf(m) = m keeps m - nf(m) = 0 in the span
        for g in alg.relations:
            assert alg.is_zero(g)
            assert in_span(rows, poly_vector(g, index, QQ), QQ)
        for e in basis[:15]:
            m = Poly.monomial(e, QQ.one(), QQ)
            r = alg.nf(m)
            diff = m - r
            if not diff.is_zero():
                assert in_span(rows, poly_vector(diff, index, QQ), QQ)
        lts = lt_exponents(alg)
        for e in basis[:12]:
            if not any(exp_divides(lt, e) for lt in lts):
                m = Poly.monomial(e, QQ.one(), QQ)
                assert not in_span(rows, poly_vector(m, index, QQ), QQ)


def test_membership_oracle_char2():
    names, rels = ["x", "y"], ["x^2 + y^2"]
    f2 = PrimeField(2)
    alg = P(names, rels, field=f2)
    rows, basis, _ = truncated_ideal_span(alg.relations, 2, 6, f2)
    span_dim = span_rank(rows, f2)
    assert span_dim == len(basis) - _standard_count(alg, basis)


@st.composite
def _monomial_ideals(draw):
    """(generators, nvars): random exponents, pure powers of some of the
    variables (a missing one makes the count infinite), redundant
    multiples of earlier generators, and now and then the constant."""
    nvars = draw(st.integers(0, 4))
    exp = st.tuples(*[st.integers(0, 3)] * nvars)
    gens = draw(st.lists(exp, max_size=5))
    for i in range(nvars):
        if draw(st.booleans()) or draw(st.booleans()):
            e = draw(st.integers(1, 4))
            gens.append(tuple(e if j == i else 0 for j in range(nvars)))
    if gens and draw(st.booleans()):
        g = draw(st.sampled_from(gens))
        gens.append(tuple(a + b for a, b in zip(g, draw(exp))))
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * nvars)
    return draw(st.permutations(gens)), nvars


@settings(max_examples=300, deadline=None)
@given(_monomial_ideals())
def test_staircase_counted_by_runs_matches_the_box_walk(ideal):
    gens, nvars = ideal
    assert staircase_dimension(gens, nvars) == \
        staircase_by_walk(gens, nvars)


@settings(max_examples=300, deadline=None)
@given(_monomial_ideals().filter(lambda ideal: ideal[1] >= 1))
def test_staircase_counts_the_standard_monomials_of_the_box(ideal):
    # with the constant the ideal is the unit ideal; otherwise the count
    # is infinite exactly when a variable has no pure power, and else
    # it is the number of monomials below the pure powers that no
    # generator divides
    gens, nvars = ideal
    got = staircase_dimension(gens, nvars)
    if (0,) * nvars in gens:
        assert got == 0
        return
    powers = [[g[i] for g in gens
               if g[i] and not any(g[:i] + g[i + 1:])] for i in range(nvars)]
    if not all(powers):
        assert got is None
        return
    box = product(*(range(min(p)) for p in powers))
    assert got == sum(not any(exp_divides(g, e) for g in gens) for e in box)


def _poly2(field):
    """A polynomial in two variables, exponents below 3, up to 3 terms."""
    coeff = st.integers(-2, 2).filter(bool) if field is QQ \
        else st.integers(1, field.characteristic - 1)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, coeff.map(field.from_int),
                           max_size=3).map(lambda d: Poly(d, field))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_generators_match_the_second_buchberger_run(field, data):
    """Maps k[x, y]/I -> k[t, s]/J, with I drawn inside the kernel as
    multiples of the free source's kernel generators, some of them the
    generators themselves, so that elements of the graph basis fall
    into the source ideal: the generators read off the graph basis equal
    those a second Buchberger run with the source relations gives."""
    tgt = PresentedAlgebra(["t", "s"], field,
                           data.draw(st.lists(_poly2(field), max_size=2)))
    images = data.draw(st.lists(_poly2(field), min_size=2, max_size=2))
    free = kernel_by_second_run(AlgebraMap(P(["x", "y"], field=field), tgt,
                                           images))
    rels = []
    if free:
        one = Poly.constant(field.one(), 2, field)
        picks = st.tuples(st.sampled_from(free),
                          st.one_of(st.just(one), _poly2(field)))
        rels = [g * q for g, q in data.draw(st.lists(picks, max_size=3))]
    f = AlgebraMap(PresentedAlgebra(["x", "y"], field, rels), tgt, images)
    assert f.is_well_defined()
    got = f.kernel_generators()
    assert got == kernel_by_second_run(f)
    assert all(f.source.nf(g) == g and f.apply(g).is_zero() for g in got)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_apply_is_the_normal_form_of_the_substitution(field, data):
    """`apply` sums the cached normal forms of monomial images; that
    equals the normal form of the substituted polynomial, for monomials
    met first and met again, with coefficients in the field's form."""
    tgt = PresentedAlgebra(["t", "s"], field,
                           data.draw(st.lists(_poly2(field), max_size=2)))
    images = data.draw(st.lists(_poly2(field), min_size=2, max_size=2))
    f = AlgebraMap(P(["x", "y"], field=field), tgt, images)
    for p in data.draw(st.lists(_poly2(field), min_size=1, max_size=3)):
        got = f.apply(p)
        assert got == tgt.nf(substitute(f, p))
        assert all(exact_form(c, field) for c in got.coeffs.values())


def test_second_kernel_call_runs_no_buchberger(monkeypatch):
    """A fresh map runs Buchberger's algorithm once for its graph and
    once for the source ideal, and a second call runs it no more."""
    src = P(["x", "y", "z"], ["x^2 - y^3"])
    tgt = P(["t"])
    t = tgt.var("t")
    f = AlgebraMap(src, tgt, [t ** 3, t ** 2, t])
    runs = []
    real = groebner.buchberger_vec

    def spy(*args):
        runs.append(args)
        return real(*args)
    monkeypatch.setattr(groebner, "buchberger_vec", spy)
    first = f.kernel_generators()
    assert len(runs) == 2
    assert f.kernel_generators() == first
    assert len(runs) == 2
    assert [poly_str(g, src.varnames, src.order) for g in first] \
        == ["z^2 - y", "y*z - x", "y^2 - x*z"]
