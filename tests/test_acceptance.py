"""Acceptance suite: the oracle- and property-based criteria the
artifact must meet, each numbered test self-contained."""

import random
import time

from logaq.fields import QQ, PrimeField
from logaq.intlinalg import IntMatrix, snf
from logaq.monoids import choose_log_factorization, FactorizationOptions
from logaq.modules import FpModule
from logaq.aqclassic import coefficient_module
from logaq.kcomplex import check_prop12, kdata_from_factorization
from logaq.logls import log_homology, check_strict_reduction, \
    check_compatibility_sequence
from logaq.logsurj import LogSurjection, tor_over_c, w_terms, \
    check_edge_identity
from logaq.groebner import PresentedAlgebra
from logaq.inputspec import build_morphism, parse_poly
from logaq.cli import corpus_instances

from helpers import (morphism, truncated_ideal_span, span_rank,
                     oracle_syzygy_dim, syzygy_span_dim, det)

F2 = PrimeField(2)


def corpus(name):
    return dict(corpus_instances())[name]


def dims(reports):
    return tuple(r.k_dimension for r in reports)


def test_1_closed_form_oracle_equivalence():
    """Direct homology of the monoid-side complex equals the closed
    form, over QQ and F2, with both coefficient choices, in < 1 s per
    instance, across >= 8 distinct monoid homomorphisms."""
    homs = set()
    names = [n for n, s in corpus_instances()
             if s.meta.get("prop12") == "true"]
    for name in names:
        for field_name in (None, "F2"):
            mor = build_morphism(corpus(name), field_name)
            homs.add((tuple(mor.monoid_map.images),
                      tuple(mor.source.monoid.relations),
                      tuple(mor.target.monoid.relations)))
            kd = kdata_from_factorization(choose_log_factorization(mor))
            for coeff in ("self", "residue"):
                t = coefficient_module(mor.target.algebra, coeff)
                if t.k_dimension() is None:
                    continue
                start = time.time()
                computed, predicted = check_prop12(kd, mor.monoid_map, t)
                assert time.time() - start < 1.0
                assert computed == predicted, (name, field_name, coeff)
    assert len(homs) >= 8


def test_2_strict_reduction():
    """Log homology of strict morphisms equals classical homology,
    on >= 5 strict instances including the named ones."""
    strict = [n for n, s in corpus_instances()
              if s.meta.get("strict") == "true"]
    assert len(strict) >= 5
    for name in strict:
        log_r, cls_r, agree = check_strict_reduction(
            build_morphism(corpus(name)))
        assert agree, name
    # k[t] -> k[t]/(t^2): both pipelines give (0, 2, 0); H1 has the
    # expected dimension 2
    log_r, cls_r, _ = check_strict_reduction(
        build_morphism(corpus("strict_hypersurface")))
    assert dims(log_r) == dims(cls_r) == (0, 2, 0)
    # smooth: free of rank n = 2
    log_r, _, _ = check_strict_reduction(
        build_morphism(corpus("strict_smooth")))
    assert log_r[0].free_rank == 2
    assert dims(log_r)[1:] == (0, 0)
    # complete intersection over k[x, y]
    log_r, _, _ = check_strict_reduction(build_morphism(corpus("strict_ci")))
    assert log_r[1].k_dimension == 12
    assert log_r[2].k_dimension == 0


def test_3_worked_log_examples():
    start = time.time()
    h = log_homology(build_morphism(corpus("log_line")))
    assert time.time() - start < 1.0
    assert h[0].free_rank == 1
    assert dims(h)[1:] == (0, 0)
    start = time.time()
    h = log_homology(build_morphism(corpus("log_point")))
    assert time.time() - start < 1.0
    assert dims(h) == (1, 1, 0)


def test_4_structural_invariants_everywhere():
    """d.d = 0, commuting squares, split inclusions, matching
    cokernels, and the degree-0/1 Euler identity on every corpus
    instance (diagram construction raises on any failed square)."""
    for name, _spec in corpus_instances():
        checks = check_compatibility_sequence(build_morphism(corpus(name)))
        for key in ("alpha_0_split", "alpha_1_split", "epsilon_0_split",
                    "epsilon_1_split", "coker_0_match", "coker_1_match",
                    "coker_2_match", "euler_0", "euler_1"):
            assert checks[key], (name, key)


def test_5_choice_independence():
    for name in ("log_point", "toric_sum", "torsion_kummer"):
        mor = build_morphism(corpus(name))
        base = log_homology(mor)
        for opt in (FactorizationOptions(extra_x=True),
                    FactorizationOptions(reverse_x=True),
                    FactorizationOptions(extra_x=True, reverse_x=True,
                                         front_raw=True)):
            alt = log_homology(mor, options=opt)
            assert all(a.same_as(b) for a, b in zip(alt, base)), (name, opt)


def test_6_edge_identity():
    expected = {
        "strict_hypersurface": ("dim", 2),
        "toric_sum": ("free", 1),
        "logpoint_quotient": ("dim", 1),
    }
    for name, want in expected.items():
        s = LogSurjection(build_morphism(corpus(name)))
        h1, con, agree = check_edge_identity(s)
        assert agree, name
        kind, value = want
        if kind == "dim":
            assert h1.k_dimension == con.k_dimension == value
        else:
            assert h1.free_rank == con.free_rank == value


def test_7_tor_engine():
    fat_to_k = """
[field]
name = "QQ"
[source]
vars = [x]
relations = ["x^2"]
gens = []
alpha = {}
[target]
vars = []
gens = []
alpha = {}
[morphism]
ring_map = { x = "0" }
monoid_map = {}
"""
    s = LogSurjection(morphism(fat_to_k))
    assert [r.k_dimension for r in tor_over_c(s, 4)] == [1] * 5
    line_to_point = fat_to_k.replace('relations = ["x^2"]\n', '')
    s = LogSurjection(morphism(line_to_point))
    assert [r.k_dimension for r in tor_over_c(s, 4)] == [1, 1, 0, 0, 0]


def test_8_w_terms():
    # strict: both vanish
    s = LogSurjection(build_morphism(corpus("strict_hypersurface")))
    assert w_terms(s, 1).k_dimension == 0
    assert w_terms(s, 2).k_dimension == 0
    # free kernel: W1 = B, W2 = 0
    s = LogSurjection(build_morphism(corpus("toric_sum")))
    assert w_terms(s, 1).free_rank == 1
    assert w_terms(s, 2).k_dimension == 0
    # Z/2 kernel: both B in char 2, both zero in char 0
    z2 = """
[field]
name = "QQ"
[source]
vars = [x]
relations = ["x^2", [[2, 0], [0, 2]]]
gens = [a, b]
alpha = { a = "x", b = "x" }
[target]
vars = [t]
relations = ["t^2"]
gens = [f]
alpha = { f = "t" }
[morphism]
ring_map = { x = "t" }
monoid_map = { a = [1], b = [1] }
"""
    s = LogSurjection(morphism(z2, "F2"))
    assert w_terms(s, 1).k_dimension == 2     # = dim_k B
    assert w_terms(s, 2).k_dimension == 2
    s = LogSurjection(morphism(z2))
    assert w_terms(s, 1).k_dimension == 0
    assert w_terms(s, 2).k_dimension == 0


def test_9_groebner_and_snf_soundness():
    ideals = [
        (["x", "y"], ["x^2", "y^3"]),
        (["x", "y", "z"], ["x*y - z^2"]),
        (["x", "y", "z"], ["x^2 - y*z", "x*y - z^2"]),
        (["x", "y"], ["x^2", "x*y", "y^2"]),
        (["x", "y", "z"], ["x^2", "y^2", "z^2"]),
    ]
    from logaq.polynomials import exp_divides
    for names, rels in ideals:
        alg = PresentedAlgebra(names, QQ,
                               [parse_poly(s, names, QQ) for s in rels])
        nv = len(names)
        rows, basis, _ = truncated_ideal_span(alg.relations, nv, 6, QQ)
        lts = alg.lt_exponents()
        standard = sum(1 for e in basis
                       if not any(exp_divides(lt, e) for lt in lts))
        assert span_rank(rows, QQ) == len(basis) - standard
        gens = alg.relations
        syz = FpModule.free(
            PresentedAlgebra(names, QQ), 1).syzygies_of(
                [[g] for g in gens])
        want, _ = oracle_syzygy_dim(gens, nv, 6, QQ)
        assert syzygy_span_dim(syz, gens, nv, 6, QQ) == want
    rng = random.Random(1)
    for _ in range(100):
        nr, nc = rng.randint(0, 4), rng.randint(0, 4)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(nc)]
                       for _ in range(nr)], nc)
        res = snf(a)
        assert res.u.mul(a).mul(res.v) == res.d
        if nr:
            assert det(res.u) in (1, -1)
        if nc:
            assert det(res.v) in (1, -1)
        fac = res.invariant_factors
        for x, y in zip(fac, fac[1:]):
            assert y % x == 0
