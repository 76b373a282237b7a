"""Surjection invariants: Tor, the monoid correction terms, and the
conormal module with its H1 comparison."""

from math import comb, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from logaq.logsurj import (LogSurjection, tor_over_c, w_terms,
                           a_conormal, conormal_module,
                           check_edge_identity)
from logaq.modules import FpModule, HomologyReport
from logaq.cli import corpus_instances
from logaq.inputspec import build_morphism

from helpers import (ci_text, module_oracle, morphism, record_tagged_builds,
                     toric_text, weighted_toric_text)


def surj(name, field_name=None):
    return LogSurjection(build_morphism(dict(corpus_instances())[name],
                                        field_name))


FAT_TO_K = """
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

LINE_TO_K = """
[field]
name = "QQ"
[source]
vars = [x]
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


def test_tor_periodic():
    # Tor over k[x]/(x^2) of k with k is one-dimensional forever
    s = LogSurjection(morphism(FAT_TO_K))
    reports = tor_over_c(s, 4)
    assert [r.k_dimension for r in reports] == [1, 1, 1, 1, 1]


def test_tor_line():
    s = LogSurjection(morphism(LINE_TO_K))
    reports = tor_over_c(s, 4)
    assert [r.k_dimension for r in reports] == [1, 1, 0, 0, 0]


def test_tor_resolves_only_the_steps_it_reads(monkeypatch):
    # toric sum map n=5 over F3 at depth 2: the cokernel and two kernels
    # need three differentials, and the third comes from the second's
    # syzygies; the 4 columns of the third are never resolved further.
    # Two calls resolve and two take the kernels' syzygies; the kernels'
    # submodules lift their columns and call none
    calls = []
    syzygies_of = FpModule.syzygies_of

    def counted(self, columns, **kwargs):
        out = syzygies_of(self, columns, **kwargs)
        calls.append((len(columns), len(out)))
        return out
    monkeypatch.setattr(FpModule, "syzygies_of", counted)
    tor_over_c(LogSurjection(morphism(toric_text(5))), 2)
    assert len(calls) == 4
    assert (4, 1) not in calls


def test_tor_resolution_steps_lift(monkeypatch):
    # the resolution's free modules over C have no relation columns, and
    # each step's columns are a reduced Groebner basis, so every step
    # lifts without a Buchberger run; the kernel's three generators have
    # a Koszul resolution, so the fourth step has no columns to lift
    s = LogSurjection(morphism(toric_text(4)))
    builds = record_tagged_builds(monkeypatch)
    tor_over_c(s, 4)
    assert [b.fell_back for b in builds
            if b.module.algebra is s.c_alg] == [False] * 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tor_of_toric_sum_is_exterior(n):
    # the kernel of k[u_1..u_n] -> k[t] is cut out by the n - 1 linear
    # forms u_i - u_n, a regular sequence, so Tor_i is free of rank
    # C(n - 1, i) over B = k[t]
    reports = tor_over_c(LogSurjection(morphism(toric_text(n))), 4)
    for i, r in enumerate(reports):
        rank = comb(n - 1, i)
        assert r.free_rank == rank, (n, i)
        assert r.k_dimension == (None if rank else 0), (n, i)


@pytest.mark.parametrize("degrees", [(2, 3), (2, 2, 3), (3, 2, 3)])
def test_tor_of_strict_ci_is_exterior_conormal(degrees):
    # C = k[x_1..x_n] onto B = C/(x_j^{d_j}): Tor_i = Lambda^i(I/I^2) is
    # free of rank C(n, i) over B, of k-dimension C(n, i) * prod d_j
    reports = tor_over_c(LogSurjection(morphism(ci_text(degrees))), 4)
    n = len(degrees)
    assert [r.k_dimension for r in reports] \
        == [comb(n, i) * prod(degrees) for i in range(5)]


def test_tor_depth_limit():
    s = LogSurjection(morphism(LINE_TO_K))
    for depth in (-1, 5):
        with pytest.raises(ValueError,
                           match="^depth must be between 0 and 4$"):
            tor_over_c(s, depth)


def test_non_surjective_rejected():
    text = LINE_TO_K.replace('[target]\nvars = []',
                             '[target]\nvars = [t]') \
                    .replace('ring_map = { x = "0" }',
                             'ring_map = { x = "t^2" }')
    with pytest.raises(ValueError):
        LogSurjection(morphism(text))


def test_w_terms_strict():
    s = surj("strict_hypersurface")
    assert w_terms(s, 1).k_dimension == 0
    assert w_terms(s, 2).k_dimension == 0


def test_w_terms_free_kernel():
    # (u, v) -> t has group-completion kernel Z
    s = surj("toric_sum")
    w1 = w_terms(s, 1)
    assert w1.free_rank == 1
    assert w_terms(s, 2).k_dimension == 0


def test_w_terms_torsion_kernel():
    text = """
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
    # Z/2 kernel: both W terms are B in char 2 and vanish in char 0
    s = LogSurjection(morphism(text, "F2"))
    b_dim = 2
    assert w_terms(s, 1).k_dimension == b_dim
    assert w_terms(s, 2).k_dimension == b_dim
    s0 = LogSurjection(morphism(text))
    assert w_terms(s0, 1).k_dimension == 0
    assert w_terms(s0, 2).k_dimension == 0


def test_conormal_examples():
    assert HomologyReport(
        conormal_module(surj("strict_hypersurface"))).k_dimension == 2
    rep = HomologyReport(conormal_module(surj("toric_sum")))
    assert rep.free_rank == 1
    assert HomologyReport(
        conormal_module(surj("logpoint_quotient"))).k_dimension == 1


def test_a_conormal():
    s = surj("strict_hypersurface")
    a = FpModule.free(s.c_alg, 1).submodule([[g] for g in s.a_gens])
    assert HomologyReport(a_conormal(s, a)).k_dimension == 2


def test_edge_identity_corpus():
    count = 0
    for name, spec in corpus_instances():
        if spec.meta.get("surjection") != "true":
            continue
        h1, con, agree = check_edge_identity(
            LogSurjection(build_morphism(spec)))
        assert agree, (name, h1.to_dict(), con.to_dict())
        count += 1
    assert count >= 3


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(["QQ", "F2", "F3"]),
       weights=st.lists(st.integers(1, 4), min_size=2, max_size=4).filter(
           lambda w: 1 in w))
@example(field="QQ", weights=[1, 2, 3])
@example(field="F2", weights=[1, 2, 3])
@example(field="F3", weights=[1, 2, 3])
def test_conormal_coefficients_are_the_canonical_expressions(field, weights):
    # the first components of the conormal module's last relations are
    # printed: each binomial's image in a, expressed in the chosen
    # generators by division and reduced modulo their syzygies, must be
    # the canonical expression a tagged Buchberger run gives.  With
    # weights 1, 2, 3 the division gives another expression, and the
    # two still differ once cast to B
    s = LogSurjection(morphism(weighted_toric_text(weights, field)))
    con = conormal_module(s)
    gens = [[g] for g in s.a_gens]
    _syz, express = module_oracle(FpModule.free(s.c_alg, 1), gens)
    elts = [[s.face.p_to_a.apply(g)] for g in s.face.gens]
    want = s.morphism.ring_map.apply_cols([express(e) for e in elts])
    got = [col[:len(gens)] for col in con.rel_cols[len(con.rel_cols)
                                                   - len(elts):]]
    assert got == want
