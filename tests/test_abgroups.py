"""Finitely presented abelian groups: invariants, kernels, cokernels,
and the tensor / Tor dimension counts."""

from logaq.fields import QQ, PrimeField
from logaq.intlinalg import IntMatrix
from logaq.abgroups import FpAbGroup, AbHom

from helpers import group_from_invariants, group_elements_equal

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_invariants_examples():
    assert FpAbGroup(1).invariants() == ([], 1)
    g = FpAbGroup(2, IntMatrix.from_columns([[2, -2]], 2))
    assert g.invariants() == ([2], 1)
    g = FpAbGroup(1, IntMatrix.from_columns([[1]], 1))
    assert g.invariants() == ([], 0)
    g = group_from_invariants([2, 4], rank=3)
    assert g.invariants() == ([2, 4], 3)


def test_element_equality():
    g = FpAbGroup(2, IntMatrix.from_columns([[2, -2]], 2))
    assert group_elements_equal(g, [2, 0], [0, 2])
    assert not group_elements_equal(g, [1, 0], [0, 1])


def test_kernel_examples():
    z = FpAbGroup(1)
    times2 = AbHom(z, z, IntMatrix([[2]]))
    _inc, ker = times2.kernel()
    assert ker.invariants() == ([], 0)
    assert times2.is_injective()

    z2 = FpAbGroup(2)
    s = AbHom(z2, z, IntMatrix([[1, 1]]))
    inc, ker = s.kernel()
    assert ker.invariants() == ([], 1)
    col = inc.column(0)
    assert sorted(col) == [-1, 1]

    z4 = group_from_invariants([4])
    zmod2 = group_from_invariants([2])
    q = AbHom(z4, zmod2, IntMatrix([[1]]))
    _inc, ker = q.kernel()
    assert ker.invariants() == ([2], 0)


def test_cokernel_examples():
    z = FpAbGroup(1)
    assert AbHom(z, z, IntMatrix([[2]])).cokernel().invariants() == ([2], 0)
    s = AbHom(FpAbGroup(2), z, IntMatrix([[1, 1]]))
    assert s.cokernel().invariants() == ([], 0)
    assert s.is_surjective()
    zero = AbHom(FpAbGroup(0), z, IntMatrix.zero(1, 0))
    assert zero.cokernel().invariants() == ([], 1)


def test_tensor_dims():
    z2 = group_from_invariants([2])
    assert z2.tensor_dim(QQ) == 0
    assert z2.tensor_dim(F2) == 1
    assert z2.tensor_dim(F3) == 0
    assert FpAbGroup(1).tensor_dim(QQ) == 1
    assert FpAbGroup(1).tensor_dim(F2) == 1


def test_tor_dims():
    z2 = group_from_invariants([2])
    assert z2.tor1_dim(QQ) == 0
    assert z2.tor1_dim(F2) == 1
    assert FpAbGroup(3).tor1_dim(F2) == 0
    z6 = group_from_invariants([6])
    assert z6.tor1_dim(F2) == 1
    assert z6.tor1_dim(F3) == 1
    assert z6.tor1_dim(PrimeField(5)) == 0
