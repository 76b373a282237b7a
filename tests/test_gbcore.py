"""The vector Buchberger engine: packed terms against the nested keys
and exponent tuples they replaced, ideal bases against sympy, module
bases by their defining properties, expressions from tagged bases, and
tagged bases built by Schreyer's lift against a tagged Buchberger run.
Vectors are written as {(position, exponent): coefficient} and packed
through the order's packer."""

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.gbcore import TaggedGB, buchberger_vec, reduce_vec, reducer_index
from logaq.groebner import PresentedAlgebra, buchberger
from logaq.polynomials import (EXPONENT_BOUND, BlockElim, DegRevLex,
                               ExponentOverflow, Packer, Poly, exp_divides)

from helpers import (Lex, TaggedOracle, exact_form, exp_lcm, exp_mul,
                     leading, nested_block_elim, nested_degrevlex,
                     nested_pot, buchberger_runs)

F2 = PrimeField(2)
F3 = PrimeField(3)
NVARS = 2
N_POS = 3
ORDERS = {"degrevlex": DegRevLex(), "lex": Lex()}
DRL = Packer(DegRevLex(), NVARS)


def _pack(v, packer=DRL):
    return {packer.pack(*t): c for t, c in v.items()}


def _unpack(v, packer=DRL):
    return {packer.unpack(t): c for t, c in v.items()}


def _coeff(field):
    if field is QQ:
        # both forms of a rational: ints, and Fractions only when not
        # integral (see fields)
        nonzero = st.integers(-3, 3).filter(bool)
        return st.one_of(nonzero, st.builds(QQ.from_fraction, nonzero,
                                            st.integers(1, 3)))
    return st.integers(1, field.characteristic - 1)


def _assert_exact_coeffs(vecs, field):
    assert all(exact_form(c, field) for v in vecs for c in v.values())


def _vectors(field, n_pos, max_deg, max_terms, max_gens):
    term = st.tuples(st.integers(0, n_pos - 1),
                     st.tuples(*[st.integers(0, max_deg)] * NVARS))
    vec = st.dictionaries(term, _coeff(field), min_size=1,
                          max_size=max_terms)
    return st.lists(vec, min_size=1, max_size=max_gens)


def _add_multiple(out, v, shift, c, field):
    """out += c * x^shift * v, on unpacked vectors (dict arithmetic kept
    apart from gbcore's)."""
    for (pos, e), a in v.items():
        t = (pos, exp_mul(e, shift))
        s = field.add(out.get(t, field.zero()), field.mul(c, a))
        if field.is_zero(s):
            out.pop(t, None)
        else:
            out[t] = s
    return out


def _assert_reduced_gb(gb, gens, field, packer=DRL):
    """gb and gens packed; the checks read gb unpacked, with the nested
    degrevlex key and the tuple oracles."""
    _assert_exact_coeffs(gb, field)
    plain = [_unpack(g, packer) for g in gb]
    pot = nested_pot(nested_degrevlex)
    lts = [max(g, key=pot) for g in plain]
    assert lts == sorted(lts, key=pot)
    for g, lt in zip(plain, lts):
        assert g[lt] == field.one()
        for t in g:
            for other in lts:
                if other != lt:
                    assert not (other[0] == t[0]
                                and exp_divides(other[1], t[1]))
    index = reducer_index(gb, packer)
    for v in gens:
        assert reduce_vec(v, index, packer, field) == {}
    for i, (gi, lti) in enumerate(zip(plain, lts)):
        for gj, ltj in zip(plain[i + 1:], lts[i + 1:]):
            if lti[0] != ltj[0]:
                continue
            lcm = exp_lcm(lti[1], ltj[1])
            s = _add_multiple({}, gi, [a - b for a, b in zip(lcm, lti[1])],
                              field.one(), field)
            s = _add_multiple(s, gj, [a - b for a, b in zip(lcm, ltj[1])],
                              field.neg(field.one()), field)
            assert reduce_vec(_pack(s, packer), index, packer, field) == {}


# ------------------------------------------------------- packed terms

KEY_ORACLES = {
    "degrevlex": (DegRevLex(), nested_degrevlex),
    "lex": (Lex(), Lex.key),
    "elim0": (BlockElim(0), nested_block_elim(0)),
    "elim2": (BlockElim(2), nested_block_elim(2)),
    "elim4": (BlockElim(4), nested_block_elim(4)),
}
KEY_NVARS = 4
# small exponents, and exponents at the bound, whose products overflow
KEY_EXPONENT = st.one_of(st.integers(0, 4),
                         st.integers(EXPONENT_BOUND - 3, EXPONENT_BOUND - 1))


@pytest.mark.parametrize("name", sorted(KEY_ORACLES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flat_keys_sort_as_the_nested_ones(name, data):
    order, oracle = KEY_ORACLES[name]
    packer = Packer(order, KEY_NVARS)
    exp = st.tuples(*[KEY_EXPONENT] * KEY_NVARS)
    exps = data.draw(st.lists(exp, unique=True, max_size=12))
    assert sorted(exps, key=order.key) == sorted(exps, key=oracle)
    terms = data.draw(st.lists(st.tuples(st.integers(0, 3), exp),
                               unique=True, max_size=12))
    want = sorted(terms, key=nested_pot(oracle))
    packed = [packer.pack(*t) for t in terms]
    # integer order is the position-over-term order
    assert [packer.unpack(t) for t in sorted(packed)] == want
    for (pa, a), ta in zip(terms, packed):
        for (pb, b), tb in zip(terms, packed):
            if pa == pb:
                assert (not (tb - ta) & packer.guards) == exp_divides(a, b)
                assert packer.unpack(packer.lcm(ta, tb)) == (pa, exp_lcm(a, b))
            product = ta + packer.monomial(b)
            if max(exp_mul(a, b), default=0) < EXPONENT_BOUND:
                assert product == packer.pack(pa, exp_mul(a, b))
            else:
                assert product & packer.guards
    # reduction against no reducers keeps every term once, greatest first
    v = dict.fromkeys(packed, QQ.one())
    assert [packer.unpack(t) for t in reduce_vec(v, {}, packer, QQ)] \
        == want[::-1]


def test_exponents_at_the_bound_overflow():
    with pytest.raises(ExponentOverflow, match="2\\^31"):
        DRL.pack(0, (EXPONENT_BOUND, 0))
    # reducing x*y^(2^31 - 1) by x - y makes y^(2^31)
    x_minus_y = _pack({(0, (1, 0)): 1, (0, (0, 1)): -1})
    big = _pack({(0, (1, EXPONENT_BOUND - 1)): 1})
    with pytest.raises(ExponentOverflow, match="2\\^31"):
        reduce_vec(big, reducer_index([x_minus_y], DRL), DRL, QQ)
    kxy = PresentedAlgebra(["x", "y"], QQ, [Poly({(1, 0): 1, (0, 1): -1}, QQ)])
    with pytest.raises(ExponentOverflow):
        kxy.nf(Poly({(1, EXPONENT_BOUND - 1): 1}, QQ))


# ------------------------------------------------------------ ideals

def _sympy_gb(polys, order_name, field):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{NVARS}")
    exprs = []
    for p in polys:
        expr = 0
        for e, c in p.coeffs.items():
            if field is QQ:
                c = sympy.Rational(c.numerator, c.denominator)
            expr += c * sympy.prod([x**k for x, k in zip(xs, e)])
        exprs.append(expr)
    opts = {"modulus": field.characteristic} if field is not QQ else {}
    sorder = "grevlex" if order_name == "degrevlex" else "lex"
    gb = sympy.groebner(exprs, *xs, order=sorder, **opts)
    out = []
    for g in gb.exprs:
        terms = sympy.Poly(g, *xs).terms()
        coeffs = {}
        for e, c in terms:
            c = QQ.from_fraction(int(c.p), int(c.q)) if field is QQ \
                else field.from_int(int(c))
            if not field.is_zero(c):
                coeffs[tuple(e)] = c
        p = Poly(coeffs, field)
        out.append(p.scale(field.inv(leading(p, ORDERS[order_name])[1])))
    return out


def _polys(field):
    exp = st.tuples(*[st.integers(0, 3)] * NVARS)
    return st.lists(st.dictionaries(exp, _coeff(field), min_size=1,
                                    max_size=3),
                    min_size=1, max_size=3)


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field", [QQ, F3], ids=["QQ", "F3"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ideal_gb_matches_sympy(order_name, field, data):
    polys = [Poly(d, field) for d in data.draw(_polys(field))]
    order = ORDERS[order_name]
    ours = buchberger(polys, Packer(order, NVARS), field)
    _assert_exact_coeffs([p.coeffs for p in ours], field)
    want = _sympy_gb(polys, order_name, field)

    def by_leading(p):
        return order.key(leading(p, order)[0])
    assert sorted(ours, key=by_leading) == ours
    assert ours == sorted(want, key=by_leading)


# ----------------------------------------------------------- modules

def test_coprime_criterion_needs_a_common_single_position():
    # x*e0 + e1 and y*e0 have coprime leading terms, yet their S-vector
    # y*e1 does not reduce to zero: the module contains y*e1.
    g1 = _pack({(0, (1, 0)): 1, (1, (0, 0)): 1})
    g2 = _pack({(0, (0, 1)): 1})
    gb = buchberger_vec([g1, g2], DRL, QQ)
    assert _pack({(1, (0, 1)): 1}) in gb
    _assert_reduced_gb(gb, [g1, g2], QQ)


@pytest.mark.parametrize("field", [QQ, F3], ids=["QQ", "F3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_module_gb_properties(field, data):
    gens = [_pack(v) for v in data.draw(_vectors(field, N_POS, 2, 3, 4))]
    gb = buchberger_vec(gens, DRL, field)
    _assert_reduced_gb(gb, gens, field)
    perm = data.draw(st.permutations(range(len(gens))))
    scales = data.draw(st.lists(_coeff(field), min_size=len(gens),
                                max_size=len(gens)))
    moved = [{t: field.mul(c, a) for t, a in gens[i].items()}
             for i, c in zip(perm, scales)]
    assert buchberger_vec(moved, DRL, field) == gb


# ------------------------------------------------------- expressions

@pytest.mark.parametrize("field", [QQ, F3], ids=["QQ", "F3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tagged_express_reconstructs_target(field, data):
    cols = data.draw(_vectors(field, 2, 2, 2, 3))
    rels = data.draw(st.one_of(st.just([]), _vectors(field, 2, 2, 2, 2)))
    multipliers = data.draw(st.lists(_vectors(field, 1, 1, 2, 1),
                                     min_size=len(cols) + len(rels),
                                     max_size=len(cols) + len(rels)))
    target = {}
    for col, (m,) in zip(cols + rels, multipliers):
        for (_pos, e), c in m.items():
            _add_multiple(target, col, e, c, field)
    packed_cols = [_pack(v) for v in cols]
    rel_gb = buchberger_vec([_pack(v) for v in rels], DRL, field)
    rel_index = reducer_index(rel_gb, DRL)

    def in_relations(v):
        return reduce_vec(_pack(v), rel_index, DRL, field) == {}

    t = TaggedGB(packed_cols, rel_gb, 2, DRL, field)
    _assert_exact_coeffs(t.raw, field)
    assert all(pos < len(cols) for g in t.raw for pos, _e in _unpack(g))
    coeffs = t.express(_pack(target))
    assert coeffs is not None
    _assert_exact_coeffs([coeffs], field)
    back = dict(target)
    for (i, e), c in _unpack(coeffs).items():
        _add_multiple(back, cols[i], e, field.neg(c), field)
    assert in_relations(back)
    # every raw and every reduced syzygy is one modulo the relations
    for s in t.raw + t.syzygies():
        total = {}
        for (i, e), c in _unpack(s).items():
            _add_multiple(total, cols[i], e, c, field)
        assert in_relations(total)
    # the same answers as tagging the relations too and dropping their
    # tags afterwards; two expressions differ by a syzygy, so modulo
    # the syzygies they agree
    ref = TaggedGB(packed_cols + [_pack(v) for v in rels], [], 2, DRL,
                   field)
    kept = [{term: c for term, c in s.items()
             if DRL.unpack(term)[0] < len(cols)}
            for s in ref.syzygies()]
    assert t.syzygies() == [s for s in kept if s]
    syz_index = reducer_index(t.syzygies(), DRL)
    ref_coeffs = {term: c for term, c in ref.express(_pack(target)).items()
                  if DRL.unpack(term)[0] < len(cols)}
    assert reduce_vec(coeffs, syz_index, DRL, field) \
        == reduce_vec(ref_coeffs, syz_index, DRL, field)


# ---------------------------------------------------- Schreyer lifts

def _module_vecs(field, nvars, n_pos, min_size, max_size):
    """Packed vectors over n_pos positions of degree <= 2 with at most 3
    terms."""
    packer = Packer(DegRevLex(), nvars)
    exp = st.tuples(*[st.integers(0, 2)] * nvars).filter(
        lambda e: sum(e) <= 2)
    term = st.tuples(st.integers(0, n_pos - 1), exp)
    vec = st.dictionaries(term, _coeff(field), min_size=1, max_size=3)
    return st.lists(vec.map(lambda v: _pack(v, packer)),
                    min_size=min_size, max_size=max_size)


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "F2", "F3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lift_syzygies_match_the_tagged_basis(field, data):
    nvars = data.draw(st.integers(1, 3))
    packer = Packer(DegRevLex(), nvars)
    n_main = data.draw(st.integers(1, 2))
    rels = buchberger_vec(data.draw(_module_vecs(field, nvars, n_main, 0, 2)),
                          packer, field)
    cover = data.draw(_module_vecs(field, nvars, n_main, 1, 3))
    is_gb = data.draw(st.booleans())
    if is_gb:
        # a Groebner basis of the submodule plus the relations: with the
        # relations it stays one, so the lift must not give up
        cover = buchberger_vec(cover + rels, packer, field)
    extra = data.draw(st.one_of(st.just([]), st.just([{}]),
                                _module_vecs(field, nvars, n_main, 1, 1)))
    cover = extra + cover
    args = (cover, rels, n_main, packer, field)
    t, runs = buchberger_runs(TaggedGB, *args)
    if is_gb and not any(extra):
        # a zero column is a syzygy already and needs no S-pair
        assert runs == 0
    ref = TaggedOracle(*args)
    _assert_exact_coeffs(t.raw, field)
    assert t.syzygies() == ref.syzygies
    # expressions: of combinations of the columns and relations, which
    # lie in their span, and of vectors that may not; modulo the
    # syzygies they are the oracle's canonical ones
    multipliers = data.draw(st.lists(_module_vecs(field, nvars, 1, 1, 1),
                                     min_size=len(cover) + len(rels),
                                     max_size=len(cover) + len(rels)))
    target = {}
    for col, (m,) in zip(cover + rels, multipliers):
        for (_pos, e), c in _unpack(m, packer).items():
            _add_multiple(target, _unpack(col, packer), e, c, field)
    target = _pack(target, packer)
    targets = [target, *data.draw(_module_vecs(field, nvars, n_main, 0, 2))]
    assert t.express(target) is not None
    syz_index = reducer_index(ref.syzygies, packer)
    for v in targets:
        got = t.express(v)
        if got is not None:
            got = reduce_vec(got, syz_index, packer, field)
        assert got == ref.express(v)


def test_lift_gives_up_off_a_groebner_basis():
    # x + y and x share their leading term x; their S-pair leaves y,
    # which the constructor's Buchberger fallback takes into its basis;
    # that run's syzygies are reduced already, so building the basis and
    # asking for them runs Buchberger once
    x_plus_y = _pack({(0, (1, 0)): 1, (0, (0, 1)): 1})
    x = _pack({(0, (1, 0)): 1})
    t, runs = buchberger_runs(TaggedGB, [x_plus_y, x], [], 1, DRL, QQ)
    assert runs == 1
    (syz,), runs = buchberger_runs(t.syzygies)
    assert runs == 0
    assert syz == _pack({(0, (1, 0)): 1, (1, (1, 0)): -1, (1, (0, 1)): -1})
