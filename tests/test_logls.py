"""The assembled log complex: worked examples, strict reduction, the
structural checks of the pushout construction, and the kernels the
pipelines take."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.intlinalg import IntMatrix, snf
from logaq.polynomials import Poly
from logaq.monoids import FactorizationOptions, choose_log_factorization
from logaq.groebner import AlgebraMap, PresentedAlgebra
from logaq.modules import (Complex3, FpModule, HomologyReport,
                           tensor_complex)
from logaq.logls import (CommutationFailure, log_ls, log_homology,
                         check_strict_reduction,
                         check_compatibility_sequence, build_diagram1,
                         assemble_log_ls)
from logaq.aqclassic import aq_classical, coefficient_module
from logaq.logsurj import LogSurjection
from logaq.kcomplex import kdata_from_factorization, right_face
from logaq.cli import corpus_instances, ALT_OPTIONS
from logaq.inputspec import build_morphism
from logaq import aqclassic, logls

from helpers import (ci_text, kernel_by_second_run, morphism,
                     record_tagged_builds, semistable_text, toric_text,
                     veronese_text)


def mor(name, field_name=None):
    return build_morphism(dict(corpus_instances())[name], field_name)


def dims(reports):
    return tuple(r.k_dimension for r in reports)


# W1 inside Z^3 with invariant factors 2 and 6: over F2 both vanish,
# over F3 the 6 does, and no combination reaches the third row
W1 = IntMatrix.from_columns([[2, 2, 0], [0, 6, 0]], 3)
FIELDS = {"QQ": QQ, "F2": PrimeField(2), "F3": PrimeField(3)}


def _times_w1(b, eta):
    return [sum((b.from_int(w) * e for w, e in zip(row, eta)), b.zero())
            for row in W1.rows]


def _preimage_or_refusal(name, xi_ints, eta_coeffs=(0,) * 4):
    """Over B = k[x]/(x^2): xi = W1 * eta + xi_ints, with eta's entries
    c + d*x from `eta_coeffs`; asserts that `_int_preimage` refuses xi
    exactly when W0 (x) B = coker W1 says it is outside the B-span of
    W1's columns, and that a preimage it gives is one; returns whether
    it gave one."""
    field = FIELDS[name]
    b = PresentedAlgebra(["x"], field,
                         [Poly.monomial((2,), field.one(), field)])
    x = b.var("x")
    eta = [b.from_int(c) + b.from_int(d) * x
           for c, d in zip(eta_coeffs[::2], eta_coeffs[1::2])]
    xi = [p + b.from_int(o) for p, o in zip(_times_w1(b, eta), xi_ints)]
    span = FpModule(b, 3, [[b.from_int(w) for w in col]
                           for col in W1.columns()])
    got = logls._int_preimage(snf(W1), xi, b)
    assert (got is None) == (not span.is_zero_element(xi))
    if got is not None:
        assert _times_w1(b, got) == xi
    return got is not None


@pytest.mark.parametrize("name, inside", [
    ("QQ", [True, True, True, False]),
    ("F2", [False, False, False, False]),
    ("F3", [False, False, True, False])], ids=list(FIELDS))
def test_int_preimage_where_p_divides_an_invariant_factor(name, inside):
    # e_0, e_1, e_0 + e_1 and e_2: over F3, 2 eta_0 = 1 makes row 1
    # 2 eta_0 + 6 eta_1 = 1 too, so e_0 + e_1 lifts and e_0 does not
    assert [_preimage_or_refusal(name, xi)
            for xi in ([1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1])] \
        == inside


@pytest.mark.parametrize("name", FIELDS)
@settings(max_examples=30, deadline=None)
@given(eta=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       off=st.lists(st.integers(-1, 1), min_size=3, max_size=3))
def test_int_preimage_refuses_exactly_the_vectors_outside_the_span(
        name, eta, off):
    _preimage_or_refusal(name, off, eta)


def test_log_point():
    assert dims(log_homology(mor("log_point"))) == (1, 1, 0)


def test_log_line():
    h0, h1, h2 = log_homology(mor("log_line"))
    assert h0.free_rank == 1
    assert h1.k_dimension == 0
    assert h2.k_dimension == 0


def test_strict_reduction_hypersurface():
    log_r, cls_r, agree = check_strict_reduction(mor("strict_hypersurface"))
    assert agree
    assert dims(log_r) == dims(cls_r) == (0, 2, 0)


def test_strict_reduction_all_corpus():
    for name, spec in corpus_instances():
        if spec.meta.get("strict") != "true":
            continue
        _log, _cls, agree = check_strict_reduction(build_morphism(spec))
        assert agree, name


def test_strict_smooth_values():
    h0, h1, h2 = log_homology(mor("strict_smooth"))
    assert h0.free_rank == 2
    assert h1.k_dimension == 0
    assert h2.k_dimension == 0


def test_strict_ci_values():
    h0, h1, h2 = log_homology(mor("strict_ci"))
    assert (h0.k_dimension, h1.k_dimension, h2.k_dimension) == (0, 12, 0)


def test_kummer_char_dependence():
    assert dims(log_homology(mor("torsion_kummer"))) == (0, 0, 0)
    f2 = log_homology(mor("torsion_kummer", "F2"))
    assert f2[1].k_dimension is not None and f2[1].k_dimension > 0


def test_d_squared_zero_everywhere():
    for name, spec in corpus_instances():
        data = log_ls(build_morphism(spec))
        c = data.complex
        for col in c.d2.image_cols:
            img = c.d1.apply(col)
            assert c.d1.target.elements_equal(img,
                                              c.d1.target.zero_column()), \
                name


def test_compatibility_checks_everywhere():
    for name, spec in corpus_instances():
        checks = check_compatibility_sequence(build_morphism(spec))
        bad = [k for k, v in checks.items() if not v]
        assert not bad, (name, bad)


def test_alt_choice_independence():
    for name in ("log_point", "toric_sum", "torsion_kummer"):
        m = mor(name)
        base = log_homology(m)
        for opt in ALT_OPTIONS:
            alt = log_homology(m, options=opt)
            assert all(a.same_as(b) for a, b in zip(alt, base)), (name, opt)


def test_build_alphas_express_by_the_lift(monkeypatch):
    # the front's syzygy vectors are a reduced Groebner basis of U, so
    # the one division basis of them that U/U_0 builds expresses the
    # back's cast syzygies too: the alphas build no tagged basis of
    # their own, and no face's basis falls back to a Buchberger run
    alpha_builds = record_tagged_builds(monkeypatch,
                                        (logls, "_build_alphas"))
    u_builds = record_tagged_builds(monkeypatch, (aqclassic, "u_mod_u0"))
    morphisms = [build_morphism(spec) for _name, spec in corpus_instances()]
    morphisms += [morphism(ci_text((2, 3, 2))), morphism(toric_text(4))]
    for m in morphisms:
        for opts in [FactorizationOptions(), *ALT_OPTIONS]:
            log_homology(m, options=opts)
    assert not alpha_builds
    assert len(u_builds) >= 2 * len(morphisms)
    assert not any(b.fell_back for b in u_builds)


def test_residue_coefficients():
    h0, h1, h2 = log_homology(mor("log_point"), "residue")
    assert (h0.k_dimension, h1.k_dimension, h2.k_dimension) == (1, 1, 0)
    r0 = log_homology(mor("strict_plane_curve"), "residue")
    assert r0[0].k_dimension is not None


def test_report_k_dimension_is_the_untrimmed_modules(monkeypatch):
    # the report reads the k dimension off the trimmed presentation, and
    # asks for no relation basis of the untrimmed module when it is
    # finite
    asked = []
    rel_gb = FpModule.rel_gb

    def spied(self):
        asked.append(self)
        return rel_gb(self)
    monkeypatch.setattr(FpModule, "rel_gb", spied)
    morphisms = [(name, build_morphism(spec))
                 for name, spec in corpus_instances()]
    morphisms.append(("ci (5, 5, 5, 3)", morphism(ci_text((5, 5, 5, 3)))))
    for name, m in morphisms:
        for coeffs in ("self", "residue"):
            t = coefficient_module(m.target.algebra, coeffs)
            homology = tensor_complex(log_ls(m).complex, t).homology()
            for i, h in enumerate(homology):
                asked.clear()
                report = HomologyReport(h)
                assert report.k_dimension is None or h not in asked, \
                    (name, coeffs, i)
                assert report.k_dimension == h.k_dimension(), \
                    (name, coeffs, i)


def test_memoized_reports_match_fresh_morphisms():
    # every corpus instance under every option: reports kept on a morphism
    # that has already computed all options and both coefficient names
    # equal those computed afresh on a new morphism for one option
    opts = [FactorizationOptions()] + ALT_OPTIONS
    coeffs = ("self", "residue")
    for name, spec in corpus_instances():
        shared = build_morphism(spec)
        first = {(o, c): log_homology(shared, c, o)
                 for o in opts for c in coeffs}
        # the defaults are the default options and "self" coefficients
        assert log_ls(shared, FactorizationOptions()) is log_ls(shared)
        assert log_homology(shared) is first[opts[0], "self"]
        for o in opts:
            fresh = build_morphism(spec)
            for c in coeffs:
                want = log_homology(fresh, c, o)
                kept = log_homology(shared, c, o)
                assert kept is first[o, c]
                assert [r.to_dict() for r in kept] == \
                    [r.to_dict() for r in want], (name, o, c)


def test_each_complex_is_checked_where_it_is_built(monkeypatch):
    # the constructor never checks d1 d2 = 0; the log, right-face and
    # classical builders each call is_complex() and refuse with
    # CommutationFailure, which the command line reports as exit 3
    fac = choose_log_factorization(mor("log_point"))
    diagram = build_diagram1(fac)
    kd = kdata_from_factorization(fac)
    monkeypatch.setattr(Complex3, "is_complex", lambda self: False)
    with pytest.raises(CommutationFailure, match="^d1 d2 is not zero$"):
        assemble_log_ls(diagram)
    with pytest.raises(CommutationFailure, match="^d1 d2 is not zero$"):
        right_face(kd, fac.morphism.target.algebra)
    with pytest.raises(CommutationFailure, match="^d1 d2 is not zero$"):
        aq_classical(mor("strict_hypersurface").ring_map)


def test_kept_complex_does_not_keep_its_morphism_alive():
    # without a reference cycle, dropping the morphism frees everything
    # it keeps at once, not at the next cyclic collection
    m = mor("toric_sum")
    check_compatibility_sequence(m)
    for opt in [FactorizationOptions()] + ALT_OPTIONS:
        log_homology(m, options=opt)
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_kernel_generators_match_the_second_buchberger_run(monkeypatch):
    """Every kernel the pipelines take on the corpus, under the default
    and the alternative factorizations, in the classical complex and in
    the surjection data, equals the kernel built by normalizing the
    graph basis, running Buchberger's algorithm again with the source
    relations and normalizing once more."""
    taken = []
    real = AlgebraMap.kernel_generators

    def spy(self):
        gens = real(self)
        taken.append((self, gens))
        return gens
    monkeypatch.setattr(AlgebraMap, "kernel_generators", spy)
    for _name, spec in corpus_instances():
        m = build_morphism(spec)
        for options in (FactorizationOptions(), *ALT_OPTIONS):
            log_homology(m, options=options)
        aq_classical(m.ring_map)
        try:
            LogSurjection(m)
        except ValueError:
            pass
    assert len(taken) > 100
    assert any(f.source.relations for f, _gens in taken)
    assert [gens for _f, gens in taken] \
        == [kernel_by_second_run(f) for f, _gens in taken]


@pytest.mark.parametrize("text", [veronese_text(3), veronese_text(4),
                                  veronese_text(5), semistable_text(3)],
                         ids=["veronese 3", "veronese 4", "veronese 5",
                              "semistable 3"])
def test_log_smooth_maps_have_the_closed_form(text):
    # both maps are toric and log smooth with Q^gp / P^gp = Z^2, so the
    # log cotangent complex is Omega^log = B^2 in degree 0
    h0, h1, h2 = log_homology(morphism(text))
    assert (h0.n_gens, h0.free_rank, h0.relations) == (2, 2, [])
    for h in (h1, h2):
        assert (h.n_gens, h.k_dimension) == (0, 0)
