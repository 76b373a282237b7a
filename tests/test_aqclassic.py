"""The classical three-term complex and its homology in degrees 0-2, the
cover syzygies of build_ls without a Buchberger run, and none at all
when the cover's leading monomials are coprime, U/U_0 by the lift alone,
and the homology submodules by the lift alone."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from logaq import aqclassic, logls
from logaq.cli import ALT_OPTIONS, corpus_dir
from logaq.fields import QQ, PrimeField
from logaq.polynomials import Poly
from logaq.groebner import PresentedAlgebra, AlgebraMap
from logaq.aqclassic import aq_classical
from logaq.logls import log_homology
from logaq.modules import Complex3, FpModule
from logaq.monoids import FactorizationOptions

from helpers import (ci_text, columns_of, koszul_columns, module_oracle,
                     morphism, record_tagged_builds, toric_text,
                     u_mod_u0_by_submodule, veronese_text,
                     weighted_toric_text)


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


# the inputs whose every cover, front, back and classical, lies in a ring
# without relations and has pairwise coprime leading monomials
COPRIME_COVERS = {"strict_ci", "ci (2, 3, 2, 2)"}


@pytest.mark.parametrize("name", sorted(COVER_INPUTS))
def test_build_ls_covers_need_no_tagged_basis(monkeypatch, name):
    # a cover with coprime leading monomials computes no syzygies, so
    # it builds no tagged basis.  Every other cover, with the ring's
    # basis, is a Groebner basis, so its tagged basis comes from the
    # Schreyer lift; a Buchberger run inside build_ls means the lift
    # was lost.  monoid_collapse's front cover is one zero generator,
    # an empty column whose basis lifts at once to its unit syzygy.
    # Either way the syzygies are the oracle's, where the cover's are
    # not the Koszul ones.
    calls = [0]
    real_build = aqclassic.build_ls

    def build_ls(r_to_b, base_nvars, cover):
        calls[0] += 1
        data = real_build(r_to_b, base_nvars, cover)
        r = r_to_b.source
        if not aqclassic._syzygies_are_koszul(r, cover):
            free = FpModule.free(r, 1)
            cols = [[p] for p in cover]
            assert columns_of(r, data.u_vecs, len(cover)) \
                == module_oracle(free, cols)[0]
        return data
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
    if name in COPRIME_COVERS:
        assert builds == []
    else:
        assert builds and not any(b.fell_back for b in builds)


# per input, whether U/U_0 of the front and of the back face lifts the
# second syzygies of U
STRICT_CIS = ("strict_ci", "strict_fat_point", "strict_hypersurface",
              "strict_plane_curve", "strict_smooth")
LIFT_INPUTS = {f"toric {n}": (toric_text(n), (True, False))
               for n in (2, 3, 4, 5)}
LIFT_INPUTS.update({f"ci {d}": (ci_text(d), (False, False))
                    for d in ((2, 3), (2, 2, 3), (5, 5, 5, 3))})
LIFT_INPUTS.update({name: ((corpus_dir() / f"{name}.logaq").read_text(),
                           (False, False)) for name in STRICT_CIS})
LIFT_INPUTS["veronese 3"] = (veronese_text(3), (True, True))
LIFT_INPUTS["torsion_kernel"] = (
    (corpus_dir() / "torsion_kernel.logaq").read_text(), (True, True))


@pytest.mark.parametrize("name", sorted(LIFT_INPUTS))
def test_u_mod_u0_and_homology_submodules_lift(monkeypatch, name):
    # U/U_0 builds a tagged basis of U, whose constructor lifts U's
    # second syzygies, only when the cover has syzygy vectors: never
    # for covers with coprime leading monomials, as those of these
    # complete intersections and of the toric backs are, whose U/U_0
    # has no generators.  H2 of a complex whose U/U_0 has none builds
    # no tagged basis, and every kernel of homology presents itself on
    # the lift, with no Buchberger run
    text, want = LIFT_INPUTS[name]
    u_builds = record_tagged_builds(monkeypatch, (aqclassic, "u_mod_u0"))
    h2_builds = record_tagged_builds(monkeypatch, (Complex3, "h2"))
    kernel_builds = record_tagged_builds(monkeypatch,
                                         (FpModule, "_submodule"))
    faces = []      # the builds of each U/U_0, front then back
    real = aqclassic.u_mod_u0

    def u_mod_u0(data):
        start = len(u_builds)
        c2 = real(data)
        faces.append(u_builds[start:])
        return c2
    monkeypatch.setattr(aqclassic, "u_mod_u0", u_mod_u0)
    mor = morphism(text)
    for coefficients in ("self", "residue"):
        log_homology(mor, coefficients)
    assert tuple(bool(built) for built in faces) == want
    assert bool(h2_builds) == any(want)
    assert not any(b.fell_back for b in u_builds + kernel_builds)


def _fields_and_maps():
    """Small complete intersections and weighted toric maps, over QQ,
    F2 or F3."""
    ci = st.lists(st.integers(2, 3), min_size=1, max_size=3).map(ci_text)
    toric = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
        lambda ws: weighted_toric_text((1, *ws), "QQ"))
    return st.tuples(st.one_of(ci, toric),
                     st.sampled_from(["QQ", "F2", "F3"]))


@settings(max_examples=30, deadline=None)
@given(case=_fields_and_maps())
def test_u_mod_u0_matches_the_submodule_path(case):
    # every U/U_0 that the log and the classical complexes build on the
    # full path spans the relations of U modulo the Koszul columns
    # presented by all their second syzygies; one built on no generators
    # is zero that way too, with U computed the long way
    text, field_name = case
    seen = []
    real = aqclassic.u_mod_u0

    def spy(data):
        c2 = real(data)
        seen.append((data, c2))
        return c2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aqclassic, "u_mod_u0", spy)
        mor = morphism(text, field_name)
        log_homology(mor)
        aq_classical(mor.ring_map)
    assert len(seen) == 3
    for data, c2 in seen:
        if data.u_vecs:
            want = u_mod_u0_by_submodule(data)
            assert c2.n_gens == want.n_gens
            assert c2.rel_gb() == want.rel_gb()
            continue
        assert c2.n_gens == 0
        free = FpModule.free(data.r, 1)
        u = free.syzygies_of(free._pack([[p] for p in data.i_gens]))
        full = u_mod_u0_by_submodule(replace(data, u_vecs=u))
        assert full.trim().n_gens == 0


@st.composite
def _coprime_covers(draw, field):
    """Covers in k[x, y, z] of nonzero elements with pairwise coprime
    leading monomials: each element's leading monomial is a product of
    powers of its own variables, and its other terms have lower degree,
    so lie below it in degrevlex."""
    parts = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    cover = []
    for part in sorted(set(parts)):
        lead = tuple(draw(st.integers(1, 2)) if parts[v] == part else 0
                     for v in range(3))
        coeffs = {lead: field.from_int(draw(st.sampled_from([1, -1])))}
        for _ in range(draw(st.integers(0, 3))):
            exp = tuple(draw(st.lists(st.integers(0, 2), min_size=3,
                                      max_size=3)))
            if sum(exp) < sum(lead):
                coeffs[exp] = field.from_int(draw(st.integers(-3, 3)))
        cover.append(Poly({e: c for e, c in coeffs.items()
                           if not field.is_zero(c)}, field))
    return cover


@settings(max_examples=40, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, PrimeField(2),
                                              PrimeField(3)]))
def test_coprime_leading_monomials_give_koszul_syzygies(data, field):
    # Buchberger's first criterion: the cover is a Groebner basis whose
    # syzygies the Koszul columns generate, so U = U_0
    r = PresentedAlgebra(["x", "y", "z"], field)
    cover = data.draw(_coprime_covers(field))
    assert aqclassic._syzygies_are_koszul(r, cover)
    free = FpModule.free(r, 1)
    u = free.syzygies_of(free._pack([[p] for p in cover]))
    assert u == FpModule(r, len(cover), koszul_columns(r, cover)).rel_gb()


def test_syzygies_are_koszul_refuses():
    r = PresentedAlgebra(["x", "y", "z"], QQ)
    x, y, z = (r.var(v) for v in "xyz")
    # only the leading monomials count: a tail may share a variable
    assert aqclassic._syzygies_are_koszul(r, [x * x + y, y * z])
    # leading monomials sharing a variable
    assert not aqclassic._syzygies_are_koszul(r, [x * x, x * y])
    assert not aqclassic._syzygies_are_koszul(r, [x * y + z, y * y, z])
    # a zero element
    assert not aqclassic._syzygies_are_koszul(r, [x, r.zero(), y])
    # a ring with relations
    s = PresentedAlgebra(["x", "y", "z"], QQ, [x * y])
    assert not aqclassic._syzygies_are_koszul(s, [x * x, y * y])
