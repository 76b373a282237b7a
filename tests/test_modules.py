"""Finitely presented modules: syzygies, homomorphism kernels,
complexes, pushouts, tensor coefficients, and homology reports."""

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.polynomials import Poly, poly_str
from logaq.groebner import PresentedAlgebra, buchberger
from logaq.modules import (FpModule, ModHom, Complex3,
                           tensor_module, tensor_hom, tensor_complex,
                           pushout, HomologyReport)

from helpers import (dense_trim, exact_form, infer_shifts_by_fixpoint,
                     module_oracle, oracle_syzygy_dim, poly_vector,
                     record_tagged_builds, span_rank, syzygy_span_dim)


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


def test_syzygies_fall_back_off_a_groebner_basis(monkeypatch):
    # x + y and x are no Groebner basis: their S-pair leaves y, so the
    # Schreyer lift gives up and a Buchberger run builds the basis
    kxy = P(["x", "y"])
    free = FpModule.free(kxy, 1)
    cols = [[pp(kxy, "x + y")], [pp(kxy, "x")]]
    builds = record_tagged_builds(monkeypatch)
    syz = free.syzygies_of(cols)
    assert [b.fell_back for b in builds] == [True]
    assert syz == module_oracle(free, cols)[0]
    (a, b), = syz
    assert kxy.is_zero(a * cols[0][0] + b * cols[1][0])


@pytest.mark.parametrize("zero_at", [0, 1, 3, "all"])
def test_zero_columns_lift_to_unit_syzygies(monkeypatch, zero_at):
    # a zero column has the unit syzygy, and the other columns, with
    # the ring's x^2, still lift without a Buchberger run; so do
    # columns that are all zero
    kxy = P(["x", "y"], ["x^2"])
    free = FpModule.free(kxy, 1)
    if zero_at == "all":
        cols = [[kxy.zero()]] * 2
    else:
        cols = [[pp(kxy, s)] for s in ("x*y", "y^2", "x^2 + x*y")]
        cols.insert(zero_at, [kxy.zero()])
    builds = record_tagged_builds(monkeypatch)
    syz = free.syzygies_of(cols)
    assert [b.fell_back for b in builds] == [False]
    for i, col in enumerate(cols):
        if col[0].is_zero():
            assert [kxy.one() if j == i else kxy.zero()
                    for j in range(len(cols))] in syz
    assert syz == module_oracle(free, cols)[0]


def test_free_modules_of_several_generators_lift(monkeypatch):
    # a module with no relation columns lifts in every position: its
    # relations gb(I) * e_j are a Groebner basis already; an expression
    # is one division, canonical once reduced modulo the syzygies
    kxy = P(["x", "y"], ["x^2"])
    free = FpModule.free(kxy, 2)
    cols = [[pp(kxy, "x"), pp(kxy, "y")], [kxy.zero(), pp(kxy, "y")],
            [pp(kxy, "y"), kxy.zero()]]
    target = [pp(kxy, "x*y"), pp(kxy, "y^2")]
    builds = record_tagged_builds(monkeypatch)
    syz = free.syzygies_of(cols)
    got, = free.express_in(cols, [target])
    assert [b.fell_back for b in builds] == [False, False]
    oracle_syz, oracle_express = module_oracle(free, cols)
    assert syz == oracle_syz
    assert got is not None
    assert free.elements_equal(ModHom(FpModule.free(kxy, 3), free,
                                      cols).apply(got), target)
    assert FpModule(kxy, 3, syz).normal_form(got) == oracle_express(target)
    # with relation columns the lift runs against their Groebner basis
    m = FpModule(kxy, 2, [cols[0]])
    assert m.syzygies_of(cols[1:]) == module_oracle(m, cols[1:])[0]
    assert [b.fell_back for b in builds] == [False, False, False]


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


F2 = PrimeField(2)
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


def test_pushout_along_empty_faces_is_the_left_module():
    # with no generators in S and R, P is L itself, relation basis
    # shared, with the identity and the empty inclusion: the general
    # construction would present L with the same relation columns
    b = P(["x", "y"], ["x^2"])
    left = FpModule(b, 2, [[pp(b, "y"), pp(b, "x")]])
    gb = left.rel_gb()
    empty, right = FpModule.free(b, 0), FpModule.free(b, 0)
    p, inc_left, inc_right = pushout(ModHom(empty, left, []),
                                     ModHom(empty, right, []))
    assert p is left and p.rel_gb() is gb
    assert inc_left.source is left and inc_left.target is left
    assert inc_left.equals(ModHom.identity(left))
    assert (inc_right.source, inc_right.target) == (right, left)
    assert inc_right.image_cols == []
    # a right face with generators takes the general construction
    p, _l, _r = pushout(ModHom(empty, left, []),
                        ModHom(empty, FpModule.free(b, 1), []))
    assert p is not left and p.n_gens == 3


def test_kernel_out_of_a_known_zero_module(monkeypatch):
    # a module known to be zero is built on no generators: a kernel out
    # of it, with coefficients or without, builds no tagged basis and
    # reports the zero module
    b = P(["x", "y"], ["x^2"])
    z = FpModule(b, 0)
    target = FpModule.free(b, 1)
    residue = FpModule(b, 1, [[b.var("x")], [b.var("y")]])
    builds = record_tagged_builds(monkeypatch)
    for source in (z, tensor_module(z, residue)):
        k = ModHom(source, target, []).kernel()
        assert k.n_gens == 0
        assert HomologyReport(k).to_dict() == {
            "n_gens": 0, "relations": [], "k_dimension": 0, "free_rank": 0}
    assert builds == []


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
    x, zero = b.var("x"), b.zero()
    f2 = FpModule.free(b, 2)
    t = FpModule(b, 1, [[x]])
    m = tensor_module(f2, t)
    assert m.k_dimension() == 2
    # J * e_i appended for each generator of J, positions in order
    assert m.rel_cols == [[x, zero], [zero, x]]
    # B itself as coefficients returns the module, relation basis kept
    assert tensor_module(f2, FpModule.free(b, 1)) is f2
    # a tensored map keeps its columns
    f = ModHom(f2, f2, [f2.gen_column(1), f2.gen_column(0)])
    g = tensor_hom(f, m, m)
    assert g.source is g.target is m
    assert g.image_cols == f.image_cols
    # only a cyclic coefficient module B/J is supported
    with pytest.raises(ValueError):
        tensor_module(f2, f2)


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


def test_trim_pivots_on_the_lowest_constant_of_the_first_such_column():
    kxy = P(["x", "y"])
    x, y, one, zero = kxy.var("x"), kxy.var("y"), kxy.one(), kxy.zero()
    m = FpModule(kxy, 3, [[x, zero, zero], [one, one, zero], [x, y, zero]])
    # e0 = -e1 by the second column, which leaves e1 and e2
    got = m.trim()
    assert got.n_gens == 2
    assert got.rel_cols == [[-x, zero], [y - x, zero]]
    assert got.rel_cols == dense_trim(m).rel_cols


def _trim_algebras(field):
    """k[x, y]/(x^2 - y, y^3), where products of normal forms need
    reducing, and k[x, y] itself."""
    one = field.one()
    rels = [Poly({(2, 0): one, (0, 1): field.neg(one)}, field),
            Poly.monomial((0, 3), one, field)]
    return [PresentedAlgebra(["x", "y"], field, rels),
            PresentedAlgebra(["x", "y"], field)]


def _trim_entries(field):
    """Zero, constant and non-constant entries, not all normal forms."""
    if field is QQ:
        coeff = st.integers(-3, 3).filter(bool)
    else:
        coeff = st.integers(1, field.characteristic - 1)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.one_of(
        st.just(Poly.zero(field)),
        coeff.map(lambda c: Poly.constant(c, 2, field)),
        st.dictionaries(exps, coeff, max_size=3).map(
            lambda d: Poly(d, field)))


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "QQ"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trim_matches_dense_trim(field, data):
    """The sparse trim keeps the dense trim's pivots and so its columns,
    entry for entry, with zero columns among the relations."""
    alg = data.draw(st.sampled_from(_trim_algebras(field)))
    n = data.draw(st.integers(0, 4))
    entry = _trim_entries(field)
    column = st.one_of(st.just([alg.zero()] * n),
                       st.lists(entry, min_size=n, max_size=n))
    m = FpModule(alg, n, data.draw(st.lists(column, max_size=5)))
    got, want = m.trim(), dense_trim(m)
    assert got.n_gens == want.n_gens
    assert got.rel_cols == want.rel_cols
    assert all(exact_form(c, field)
               for col in got.rel_cols for p in col for c in p.coeffs.values())


def _span_setup(field, data):
    """A module over one of `_trim_algebras`, columns in it, and
    combinations of the columns and the relations with polynomial
    multipliers."""
    alg = data.draw(st.sampled_from(_trim_algebras(field)))
    n = data.draw(st.integers(1, 2))
    entry = _trim_entries(field)
    column = st.lists(entry, min_size=n, max_size=n)
    m = FpModule(alg, n, data.draw(st.lists(column, max_size=1)))
    cols = data.draw(st.lists(column, min_size=1, max_size=3))
    gens = cols + m.rel_cols + [[g if i == j else alg.zero()
                                 for i in range(n)]
                                for g in alg.relations for j in range(n)]
    combos = []
    for _ in range(data.draw(st.integers(0, 2))):
        mults = data.draw(st.lists(entry, min_size=len(gens),
                                   max_size=len(gens)))
        combos.append([sum((c * g[i] for c, g in zip(mults, gens)),
                           alg.zero()) for i in range(n)])
    return alg, m, cols, combos, column


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "F2", "F3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_submodule_matches_the_tagged_buchberger_run(field, data):
    # modulo columns in the span of the columns and the relations, as
    # every caller's are, and sometimes one that may not be, which takes
    # the quotient's tagged basis
    alg, m, cols, modulo, column = _span_setup(field, data)
    if data.draw(st.booleans()):
        modulo.append(data.draw(column))
    want, _express = module_oracle(m, cols, modulo)
    sub = m.submodule(cols, modulo)
    assert sub.rel_cols == want
    # the relations are their own reduced basis, ideal included
    assert sub.rel_gb() == FpModule(alg, len(cols), want).rel_gb()


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "F2", "F3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_division_expressions_reconstruct_their_targets(field, data):
    # an expression is one division: it writes its target in the
    # columns, modulo the relations, and reduced modulo their syzygies
    # it is the canonical one
    alg, m, cols, targets, column = _span_setup(field, data)
    in_span = len(targets)
    targets.append(data.draw(column))
    got = m.express_in(cols, targets)
    syz, express = module_oracle(m, cols)
    combine = ModHom(FpModule.free(alg, len(cols)), m, cols)
    syzygies = FpModule(alg, len(cols), m.syzygies_of(cols))
    assert syzygies.rel_cols == syz
    for i, (target, co) in enumerate(zip(targets, got)):
        want = express(target)
        assert (co is None) == (want is None)
        if i < in_span:
            assert co is not None
        if co is not None:
            assert m.elements_equal(combine.apply(co), target)
            assert syzygies.normal_form(co) == want


@pytest.mark.parametrize("relation, want", [
    ("z", ["z", "y^3 - x^2"]),
    ("x^2 + y", ["x^2 + y", "y^3 + y"]),
])
def test_fitting0_prints_the_reduced_basis_as_it_stands(relation, want):
    """Over QQ[x, y, z]/(x^2 - y^3), which no grading makes homogeneous,
    a cyclic module with one relation reports the reduced basis of
    F0 + I itself, not its normal forms modulo I (which read '0' and
    repeat an element)."""
    alg = P(["x", "y", "z"], ["x^2 - y^3"])
    p = pp(alg, relation)
    report = HomologyReport(FpModule(alg, 1, [[p]]))
    assert report.k_dimension is None and report.free_rank is None
    assert report.hilbert is None
    assert report.fitting == want
    basis = buchberger([p, *alg.relations], alg.packer, alg.field)
    assert report.fitting == [poly_str(g, alg.varnames, alg.order)
                              for g in basis]
    assert "0" not in report.fitting
    assert len(set(report.fitting)) == len(report.fitting)


def test_infer_shifts_subtracts_one_global_minimum():
    """Generators 0 and 1 are linked, generator 2 is linked to neither:
    each component starts at 0 at its lowest generator, and then one
    minimum is subtracted from all of them.  Conflicting links give
    None."""
    kx = P(["x"])
    x, zero = kx.var("x"), kx.zero()
    m = FpModule(kx, 3, [[x * x, x, zero]])
    assert m.infer_shifts() == [0, 1, 0]
    m = FpModule(kx, 3, [[x, x * x, zero]])
    assert m.infer_shifts() == [1, 0, 1]
    # two columns that link generators 0 and 1 with different differences
    m = FpModule(kx, 3, [[x, x, zero], [x * x, x, zero]])
    assert m.infer_shifts() is None


def _graded_columns(data, alg, n):
    """Relation columns over k[x, y] weighted (1, 2): each is homogeneous
    for generator shifts drawn first, unless one of its entries is made
    inconsistent or inhomogeneous; some columns are zero."""
    f = alg.field
    x, y = alg.var("x"), alg.var("y")
    shifts = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cols = []
    for _ in range(data.draw(st.integers(0, 4))):
        top = data.draw(st.integers(3, 6))
        kinds = ["zero", "fit", "fit", "off"]
        if data.draw(st.integers(0, 4)) == 0:
            kinds.append("mixed")
        col = []
        for j in range(n):
            kind = data.draw(st.sampled_from(kinds))
            d = top - shifts[j]
            if kind == "fit":
                b = data.draw(st.integers(0, d // 2))
                col.append(x ** (d - 2 * b) * y ** b)
            elif kind == "off":
                col.append(x ** (d + data.draw(st.integers(1, 2))))
            elif kind == "mixed":
                col.append(x + y)
            else:
                col.append(Poly.zero(f))
        cols.append(col)
    return cols


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_infer_shifts_matches_the_fixpoint_loop(data):
    """The one-pass propagation against the fixpoint loop it replaced,
    on consistent, inconsistent, inhomogeneous, disconnected and zero
    columns over a graded algebra, and on an ungraded one."""
    graded = PresentedAlgebra(["x", "y"], QQ, [pp(P(["x", "y"]), "y - x^2")],
                              weights=[1, 2])
    alg = data.draw(st.sampled_from([graded, P(["x", "y"], ["y - x^2"])]))
    n = data.draw(st.integers(0, 5))
    m = FpModule(alg, n, _graded_columns(data, alg, n))
    assert m.infer_shifts() == infer_shifts_by_fixpoint(m)
