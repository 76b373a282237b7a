"""Surjection invariants: Tor, the monoid correction terms, and the
conormal module with its H1 comparison."""

import pytest

from logaq.logsurj import (LogSurjection, tor_over_c, w_terms,
                           a_conormal, conormal_module,
                           check_edge_identity)
from logaq.modules import HomologyReport
from logaq.cli import corpus_instances
from logaq.inputspec import build_morphism

from helpers import morphism


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


def test_tor_depth_limit():
    s = LogSurjection(morphism(LINE_TO_K))
    with pytest.raises(ValueError):
        tor_over_c(s, 5)


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
    assert HomologyReport(a_conormal(s)).k_dimension == 2


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
