"""Finitely presented modules: syzygies, homomorphism kernels,
complexes, pushouts, tensor coefficients, and homology reports."""

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.polynomials import Poly
from logaq.groebner import PresentedAlgebra
from logaq.modules import (FpModule, ModHom, Complex3,
                           tensor_module, tensor_hom, tensor_complex,
                           pushout, HomologyReport)

from helpers import oracle_syzygy_dim, syzygy_span_dim, poly_vector, span_rank


def P(names, rels=()):
    from logaq.inputspec import parse_poly
    base = PresentedAlgebra(names, QQ)
    return PresentedAlgebra(names, QQ,
                            [parse_poly(s, names, QQ) for s in rels])


def pp(alg, s):
    from logaq.inputspec import parse_poly
    return parse_poly(s, alg.varnames, alg.field)


def test_syzygy_examples():
    kxy = P(["x", "y"])
    free = FpModule.free(kxy, 1)
    x, y = kxy.var("x"), kxy.var("y")
    syz = free.syzygies_of([[x], [y]])
    assert len(syz) == 1
    a, b = syz[0]
    # the Koszul syzygy up to sign and normalization
    assert kxy.is_zero(a * x + b * y)
    assert {kxy.str_of(a), kxy.str_of(b)} in ({"y", "-x"}, {"-y", "x"})

    syz = free.syzygies_of([[x * x], [x * y]])
    assert len(syz) == 1
    a, b = syz[0]
    assert kxy.is_zero(a * x * x + b * x * y)
    assert {kxy.str_of(a), kxy.str_of(b)} in ({"y", "-x"}, {"-y", "x"})

    assert free.syzygies_of([[kxy.one()]]) == []


def test_express_in_many_targets():
    kxy = P(["x", "y"], ["x^2"])
    m = FpModule(kxy, 2, [[pp(kxy, "y"), pp(kxy, "x")]])
    cols = [[pp(kxy, "x"), kxy.zero()], [kxy.zero(), pp(kxy, "y")]]
    targets = [[pp(kxy, "x*y"), pp(kxy, "y^2")],
               [kxy.one(), kxy.zero()],
               [pp(kxy, "y^2"), kxy.zero()]]
    got = m.express_in(cols, targets)
    assert len(got) == 3
    assert got[1] is None
    for target, co in ((targets[0], got[0]), (targets[2], got[2])):
        assert co is not None and len(co) == 2
        combo = [sum((c * col[i] for c, col in zip(co, cols)), kxy.zero())
                 for i in range(2)]
        assert m.elements_equal(combo, target)
    # each target alone gets the same canonical coefficients
    assert [m.express_in(cols, [t])[0] for t in targets] == got
    assert m.express_in(cols, []) == []


def test_syzygy_completeness_oracle():
    """Truncated linear algebra finds no syzygy outside the computed
    module, through degree 6, on the homogeneous test ideals."""
    cases = [
        (["x", "y"], ["x^2", "y^3"]),
        (["x", "y", "z"], ["x*y - z^2"]),
        (["x", "y", "z"], ["x^2 - y*z", "x*y - z^2"]),
        (["x", "y"], ["x^2", "x*y", "y^2"]),
        (["x", "y", "z"], ["x^2", "y^2", "z^2"]),
    ]
    for names, rels in cases:
        alg = P(names)
        gens = [pp(alg, s) for s in rels]
        free = FpModule.free(alg, 1)
        syz = free.syzygies_of([[g] for g in gens])
        for s in syz:
            acc = Poly.zero(QQ)
            for c, g in zip(s, gens):
                acc = acc + c * g
            assert alg.is_zero(acc)
        want, _ = oracle_syzygy_dim(gens, len(names), 6, QQ)
        got = syzygy_span_dim(syz, gens, len(names), 6, QQ)
        assert got == want, (names, rels, got, want)


def test_hom_kernel_and_cokernel():
    kx = P(["x"])
    b = FpModule.free(kx, 1)
    x = kx.var("x")
    f = ModHom(b, b, [[x]])
    assert HomologyReport(f.kernel()).k_dimension == 0
    assert HomologyReport(f.cokernel()).k_dimension == 1


def test_dim_examples():
    bx2 = P(["x"], ["x^2"])
    assert FpModule.free(bx2, 1).k_dimension() == 2
    kx = P(["x"])
    assert FpModule.free(kx, 1).k_dimension() is None
    # coker(1, t): B -> B + B over B = k[t]
    kt = P(["t"])
    f = ModHom(FpModule.free(kt, 1), FpModule.free(kt, 2),
               [[kt.one(), kt.var("t")]])
    rep = HomologyReport(f.cokernel())
    assert rep.k_dimension is None
    assert rep.free_rank == 1
    num, den = rep.hilbert
    assert sum(num.values()) == 1 and list(den) == [1]


def test_homology_koszul():
    kxy = P(["x", "y"])
    x, y = kxy.var("x"), kxy.var("y")
    c2 = FpModule.free(kxy, 1)
    c1 = FpModule.free(kxy, 2)
    c0 = FpModule.free(kxy, 1)
    d2 = ModHom(c2, c1, [[y, -x]])
    d1 = ModHom(c1, c0, [[x], [y]])
    c = Complex3(d2, d1)
    h0, h1, h2 = c.homology()
    assert h0.k_dimension() == 1
    assert h1.k_dimension() == 0
    assert h2.k_dimension() == 0


def test_homology_zero_differentials():
    b = P(["x"], ["x^2"])
    f = FpModule.free(b, 1)
    z = ModHom(f, f, [f.zero_column()])
    c = Complex3(z, z)
    for h in c.homology():
        assert h.k_dimension() == 2


def test_homology_uses_target_relations():
    # the kernel must be computed against the target's relations: d1
    # sends the generator to x, which is already zero in C0 = B/(x),
    # so the whole free source is in the kernel
    b = P(["x"], ["x^2"])
    f = FpModule.free(b, 1)
    c0 = FpModule(b, 1, [[b.var("x")]])
    d1 = ModHom(f, c0, [[b.var("x")]])
    d2 = ModHom(FpModule.free(b, 0), f, [])
    h = d1.kernel(d2.image_cols)
    assert h.k_dimension() == 2


F3 = PrimeField(3)
# k-basis of B = k[x, y]/(x^2, y^3), which is 6-dimensional
FIN_BASIS = [(a, b) for a in range(2) for b in range(3)]


def _fin_algebra(field):
    return PresentedAlgebra(["x", "y"], field,
                            [Poly.monomial((2, 0), field.one(), field),
                             Poly.monomial((0, 3), field.one(), field)])


def _fin_columns(field, length, max_size):
    if field is QQ:
        coeff = st.integers(-2, 2).filter(bool)
    else:
        coeff = st.integers(1, field.characteristic - 1)
    poly = st.builds(lambda d: Poly(d, field),
                     st.dictionaries(st.sampled_from(FIN_BASIS), coeff,
                                     max_size=3))
    return st.lists(st.lists(poly, min_size=length, max_size=length),
                    max_size=max_size)


def _k_rank(alg, *parts):
    """dim_k of the B-span of the columns in `parts`: the rank of every
    basis monomial times every column, on the k-coordinates of the
    normal forms."""
    f = alg.field
    index = {e: i for i, e in enumerate(FIN_BASIS)}
    rows = []
    for col in (c for part in parts for c in part):
        for e in FIN_BASIS:
            m = Poly.monomial(e, f.one(), f)
            rows.append([x for p in col
                         for x in poly_vector(alg.nf(m * p), index, f)])
    return span_rank(rows, f)


@pytest.mark.parametrize("field", [QQ, F3], ids=["QQ", "F3"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_submodule_and_kernel_oracle(field, data):
    """k-dimensions of `submodule` and `kernel(modulo)` over a finite
    dimensional B, against ranks of B-spans by plain linear algebra."""
    alg = _fin_algebra(field)
    rels = data.draw(_fin_columns(field, 2, 2))
    target = FpModule(alg, 2, rels)

    # (B C + B N + B R) / (B N + B R)
    gens = data.draw(_fin_columns(field, 2, 3))
    modulo = data.draw(_fin_columns(field, 2, 2))
    sub = target.submodule(gens, modulo)
    assert sub.n_gens == len(gens)
    assert sub.k_dimension() == (_k_rank(alg, gens, modulo, rels)
                                 - _k_rank(alg, modulo, rels))

    # f: B^m -> B^2 / R; ker f + B N over B N has dimension
    # dim ker f - dim(ker f & B N), and each of those is a rank count
    images = data.draw(_fin_columns(field, 2, 3).filter(bool))
    m = len(images)
    f = ModHom(FpModule.free(alg, m), target, images)
    modulo = data.draw(_fin_columns(field, m, 2))
    want = (len(FIN_BASIS) * m - _k_rank(alg, images, rels)
            - _k_rank(alg, modulo)
            + _k_rank(alg, [f.apply(c) for c in modulo], rels))
    assert f.kernel(modulo).k_dimension() == want


def test_rank_nullity():
    b = P(["x"], ["x^3"])
    f = FpModule.free(b, 1)
    x = b.var("x")
    d2 = ModHom(f, f, [[x * x]])
    d1 = ModHom(f, f, [[x]])
    c = Complex3(d2, d1)
    h0, h1, h2 = (m.k_dimension() for m in c.homology())
    # Euler characteristic of the complex: 3 - 3 + 3
    assert h0 - h1 + h2 == 3
    assert (h0, h1, h2) == (1, 0, 2)


def test_pushout_examples():
    b = P(["x"], ["x^2"])
    m = FpModule.free(b, 1)
    ident = ModHom.identity(m)
    c = FpModule.free(b, 2)
    beta = ModHom(m, c, [[b.one(), b.zero()]])
    # pushout along an isomorphism is the other leg's target
    p, _l, _r = pushout(ident, beta)
    assert HomologyReport(p).same_as(HomologyReport(c))
    # pushout under a zero source is the direct sum
    zero = FpModule.free(b, 0)
    p, _l, _r = pushout(ModHom(zero, m, []), ModHom(zero, c, []))
    assert p.k_dimension() == m.k_dimension() + c.k_dimension()


def test_pushout_cokernel_identity():
    b = P(["x"], ["x^3"])
    s = FpModule.free(b, 1)
    l = FpModule.free(b, 2)
    r = FpModule.free(b, 1)
    alpha = ModHom(s, l, [[b.one(), b.var("x")]])
    beta = ModHom(s, r, [[b.var("x")]])
    p, _il, ir = pushout(alpha, beta)
    c1 = HomologyReport(alpha.cokernel())
    c2 = HomologyReport(ir.cokernel())
    assert c1.same_as(c2)


def test_tensor():
    b = P(["x"], ["x^2"])
    f2 = FpModule.free(b, 2)
    t = FpModule(b, 1, [[b.var("x")]])
    m = tensor_module(f2, t)
    assert m.k_dimension() == 2
    # tensoring a map with the rank-1 free module is the identity path
    f = ModHom(f2, f2, [f2.gen_column(1), f2.gen_column(0)])
    assert tensor_hom(f, FpModule.free(b, 1), f2, f2) is f


def test_tensor_complex_coefficients():
    b = P(["x"], ["x^2"])
    f = FpModule.free(b, 1)
    x = b.var("x")
    d = ModHom(f, f, [[x]])
    c = Complex3(d, d)
    assert c.is_complex()
    t = FpModule(b, 1, [[x]])
    ct = tensor_complex(c, t)
    # over B/(x) the differential x becomes zero
    h0, h1, h2 = (m.k_dimension() for m in ct.homology())
    assert (h0, h1, h2) == (1, 1, 1)


def test_is_complex():
    kx = P(["x"])
    f = FpModule.free(kx, 1)
    d = ModHom(f, f, [[kx.var("x")]])
    # x * x is not zero in k[x]; the constructor does not check it
    assert not Complex3(d, d).is_complex()


def test_report_proxies():
    b = P(["x"], ["x^2"])
    r1 = HomologyReport(FpModule.free(b, 1))
    r2 = HomologyReport(FpModule(b, 2, [[b.one(), b.var("x")]]))
    assert r1.k_dimension == r2.k_dimension == 2
    assert r1.same_as(r2)
    kt = P(["t"])
    free1 = HomologyReport(FpModule.free(kt, 1))
    assert free1.k_dimension is None
    assert free1.free_rank == 1
    assert not free1.same_as(r1)
