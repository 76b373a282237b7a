"""The classical three-term complex and its homology in degrees 0-2, the
cover syzygies of build_ls without a Buchberger run, and U/U_0 and the
homology submodules by the lift alone."""

import pytest

from logaq import aqclassic, logls
from logaq.cli import ALT_OPTIONS, corpus_dir
from logaq.fields import QQ
from logaq.groebner import PresentedAlgebra, AlgebraMap
from logaq.aqclassic import aq_classical
from logaq.logls import log_homology
from logaq.modules import FpModule
from logaq.monoids import FactorizationOptions

from helpers import ci_text, morphism, record_tagged_builds, toric_text


def amap(src_names, src_rels, tgt_names, tgt_rels, images):
    from logaq.inputspec import parse_poly
    src = PresentedAlgebra(src_names, QQ,
                           [parse_poly(s, src_names, QQ)
                            for s in src_rels])
    tgt = PresentedAlgebra(tgt_names, QQ,
                           [parse_poly(s, tgt_names, QQ)
                            for s in tgt_rels])
    return AlgebraMap(src, tgt,
                      [parse_poly(s, tgt_names, QQ) for s in images])


def dims(reports):
    return tuple(r.k_dimension for r in reports)


def test_polynomial_extension():
    f = amap([], [], ["x"], [], [])
    h0, h1, h2 = aq_classical(f)
    assert h0.free_rank == 1
    assert h1.k_dimension == 0
    assert h2.k_dimension == 0


def test_fat_point_over_k():
    f = amap([], [], ["x"], ["x^2"], [])
    assert dims(aq_classical(f)) == (1, 1, 0)


def test_hypersurface_over_line():
    f = amap(["t"], [], ["t"], ["t^2"], ["t"])
    assert dims(aq_classical(f)) == (0, 2, 0)


def test_complete_intersection_over_k():
    # over the base k the conormal sequence trims H1 to dim 7; the
    # familiar dim 12 = 2 * dim B appears over the base k[x, y] below
    f = amap([], [], ["x", "y"], ["x^2", "y^3"], [])
    h0, h1, h2 = aq_classical(f)
    assert (h0.k_dimension, h1.k_dimension, h2.k_dimension) == (7, 7, 0)


def test_ci_over_polynomial_base():
    f = amap(["x", "y"], [], ["x", "y"], ["x^2", "y^3"], ["x", "y"])
    h0, h1, h2 = aq_classical(f)
    assert h0.k_dimension == 0
    assert h1.k_dimension == 12
    assert h2.k_dimension == 0


def test_h2_with_residue_coefficients():
    # the non-regular ideal (x^2, x*y) has torsion at the origin
    f = amap([], [], ["x", "y"], ["x^2", "x*y"], [])
    h0, h1, h2 = aq_classical(f, "residue")
    assert h2.k_dimension == 1


def test_residue_vs_self_differ():
    f = amap([], [], ["x", "y"], ["x^2", "x*y"], [])
    full = aq_classical(f, "self")
    res = aq_classical(f, "residue")
    assert full[2].k_dimension != res[2].k_dimension \
        or full[1].k_dimension != res[1].k_dimension


COVER_INPUTS = {name: (corpus_dir() / f"{name}.logaq").read_text()
                for name in ("strict_ci", "toric_sum", "mixed_cover",
                             "monoid_collapse")}
COVER_INPUTS["ci (2, 3, 2, 2)"] = ci_text((2, 3, 2, 2))
COVER_INPUTS["toric 4"] = toric_text(4)


@pytest.mark.parametrize("name", sorted(COVER_INPUTS))
def test_build_ls_covers_need_no_tagged_basis(monkeypatch, name):
    # every cover, with the ring's basis, is a Groebner basis, so its
    # tagged basis comes from the Schreyer lift; a Buchberger run inside
    # build_ls means the lift was lost.  monoid_collapse's front cover
    # has a zero generator, which lifts too.
    calls = [0]
    real_build = aqclassic.build_ls

    def build_ls(*args, **kwargs):
        calls[0] += 1
        return real_build(*args, **kwargs)
    for module in (aqclassic, logls):
        monkeypatch.setattr(module, "build_ls", build_ls)
    builds = record_tagged_builds(monkeypatch, (aqclassic, "build_ls"),
                                  (logls, "build_ls"))
    mor = morphism(COVER_INPUTS[name])
    for opts in [FactorizationOptions(), *ALT_OPTIONS]:
        log_homology(mor, options=opts)
    aq_classical(mor.ring_map)
    # front and back faces of each log complex, and the classical one
    assert calls[0] >= 2 * (1 + len(ALT_OPTIONS)) + 1
    assert builds and not any(b for _m, b in builds)


LIFT_INPUTS = {f"toric {n}": toric_text(n) for n in (2, 3, 4, 5)}
LIFT_INPUTS.update({f"ci {d}": ci_text(d) for d in ((2, 3), (2, 2, 3))})


@pytest.mark.parametrize("name", sorted(LIFT_INPUTS))
def test_u_mod_u0_and_homology_submodules_lift(monkeypatch, name):
    # U/U_0 and the kernels of homology are presented by `submodule` on
    # a Groebner basis of a module holding the relations, with modulo
    # columns in their span: each call with columns lifts them once,
    # and no Buchberger run and no second tagged basis follow
    calls = [0]
    real_submodule = FpModule.submodule

    def submodule(module, columns, *args, **kwargs):
        calls[0] += bool(columns)
        return real_submodule(module, columns, *args, **kwargs)
    monkeypatch.setattr(FpModule, "submodule", submodule)
    builds = record_tagged_builds(monkeypatch, (aqclassic, "u_mod_u0"),
                                  (FpModule, "submodule"))
    mor = morphism(LIFT_INPUTS[name])
    for coefficients in ("self", "residue"):
        log_homology(mor, coefficients)
    # U/U_0 of the front and back faces, and H1 per coefficients
    assert calls[0] >= 2 + 2
    assert len(builds) == calls[0]
    assert not any(b for _m, b in builds)
