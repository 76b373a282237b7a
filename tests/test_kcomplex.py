"""The monoid-side complex against its closed-form homology."""

import pytest

from logaq.fields import PrimeField
from logaq.monoids import choose_log_factorization, FactorizationOptions
from logaq.aqclassic import coefficient_module
from logaq.kcomplex import (check_prop12, kdata_from_factorization,
                            group_module)
from logaq.cli import corpus_instances
from logaq.inputspec import build_morphism

F2 = PrimeField(2)
F3 = PrimeField(3)


def fac_for(name, field_name=None):
    spec = dict(corpus_instances())[name]
    return choose_log_factorization(build_morphism(spec, field_name))


def prop12(fac, t):
    return check_prop12(kdata_from_factorization(fac),
                        fac.morphism.monoid_map, t)


def run(name, field_name, coefficients):
    fac = fac_for(name, field_name)
    t = coefficient_module(fac.morphism.target.algebra, coefficients)
    return prop12(fac, t)


def test_x2_cover_char_sensitivity():
    # Z/2 cokernel is invisible over QQ and F3, visible over F2
    computed, predicted = run("x2_cover", None, "self")
    assert computed == predicted == (0, 0, 0)
    computed, predicted = run("x2_cover", "F2", "self")
    assert computed == predicted == (1, 1, 0)
    computed, predicted = run("x2_cover", "F3", "self")
    assert computed == predicted == (0, 0, 0)


def test_x3_cover():
    computed, predicted = run("x3_cover", "F3", "self")
    assert computed == predicted == (1, 1, 0)
    computed, predicted = run("x3_cover", "F2", "self")
    assert computed == predicted == (0, 0, 0)


def test_torsion_kernel_cases():
    computed, predicted = run("torsion_kernel", "F2", "residue")
    assert computed == predicted
    assert predicted[2] == 1      # Tor_1 of the Z/2 kernel
    computed, predicted = run("torsion_kernel", None, "residue")
    assert computed == predicted
    assert predicted[2] == 0


def test_mixed_cover_cases():
    computed, predicted = run("mixed_cover", "F2", "residue")
    assert computed == predicted
    # Z/2 kernel and Z/2 cokernel both contribute over F2
    assert predicted[1] >= 1 and predicted[2] >= 1
    computed, predicted = run("mixed_cover", None, "residue")
    assert computed == predicted == (0, 0, 0)


def test_all_prop12_corpus_instances():
    names = [n for n, s in corpus_instances()
             if s.meta.get("prop12") == "true"]
    assert len(names) >= 8
    for name in names:
        for field_name in (None, "F2"):
            for coeff in ("self", "residue"):
                fac = fac_for(name, field_name)
                t = coefficient_module(fac.morphism.target.algebra, coeff)
                if t.k_dimension() is None:
                    continue
                computed, predicted = prop12(fac, t)
                assert computed == predicted, (name, field_name, coeff)


def test_infinite_coefficients_rejected():
    fac = fac_for("log_line")
    t = coefficient_module(fac.morphism.target.algebra, "self")
    with pytest.raises(ValueError):
        prop12(fac, t)


def test_closed_form_alt_choice_stable():
    spec = dict(corpus_instances())["torsion_kummer"]
    mor = build_morphism(spec)
    t = coefficient_module(mor.target.algebra, "residue")
    base = None
    for opt in (FactorizationOptions(), FactorizationOptions(extra_x=True),
                FactorizationOptions(extra_x=True, reverse_x=True)):
        # each option's own KData
        fac = choose_log_factorization(mor, opt)
        computed, predicted = prop12(fac, t)
        assert computed == predicted
        if base is None:
            base = computed
        assert computed == base


def test_group_module():
    fac = fac_for("x2_cover", "F2")
    kd = kdata_from_factorization(fac)
    b = fac.morphism.target.algebra
    m = group_module(kd.quotient, b)
    assert m.k_dimension() == kd.quotient.tensor_dim(F2)
