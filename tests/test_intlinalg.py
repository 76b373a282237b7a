"""Smith normal form and the exact linear algebra layer."""

import random

from hypothesis import given, settings, strategies as st

from logaq.fields import QQ, PrimeField
from logaq.intlinalg import IntMatrix, snf, int_kernel, lattice_basis

from helpers import det, field_kernel, field_rank, field_solve

F2 = PrimeField(2)


def random_matrix(rng, max_dim=4, max_entry=6):
    nr = rng.randint(0, max_dim)
    nc = rng.randint(0, max_dim)
    return IntMatrix([[rng.randint(-max_entry, max_entry)
                       for _ in range(nc)] for _ in range(nr)], nc)


def check_snf(a):
    res = snf(a)
    assert res.u.mul(a).mul(res.v) == res.d
    if a.nrows:
        assert det(res.u) in (1, -1)
    if a.ncols:
        assert det(res.v) in (1, -1)
    fac = res.invariant_factors
    assert all(d > 0 for d in fac)
    for x, y in zip(fac, fac[1:]):
        assert y % x == 0
    for i in range(res.d.nrows):
        for j in range(res.d.ncols):
            expect = fac[i] if i == j and i < len(fac) else 0
            assert res.d.rows[i][j] == expect


def test_snf_examples():
    assert snf(IntMatrix([[2]])).invariant_factors == [2]
    assert snf(IntMatrix.identity(2)).invariant_factors == [1, 1]
    assert snf(IntMatrix([[2, 4], [6, 8]])).invariant_factors == [2, 4]
    assert snf(IntMatrix.zero(3, 2)).invariant_factors == []


def test_snf_random_suite():
    # fixed-seed suite of 100 small matrices, per the soundness criteria
    rng = random.Random(20260823)
    for _ in range(100):
        check_snf(random_matrix(rng))


@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rs: len({len(r) for r in rs}) == 1))
@settings(max_examples=60, deadline=None)
def test_snf_property(rows):
    check_snf(IntMatrix(rows))


def test_int_kernel_examples():
    assert int_kernel(IntMatrix([[2, -2]])).columns() == [[1, 1]]
    # canonical SNF basis; spans the same lattice as (1, -1)
    assert int_kernel(IntMatrix([[1, 1]])).columns() == [[-1, 1]]
    assert int_kernel(IntMatrix.identity(3)).ncols == 0


def test_int_kernel_is_kernel():
    rng = random.Random(7)
    for _ in range(50):
        a = random_matrix(rng)
        k = int_kernel(a)
        if k.ncols:
            assert a.mul(k) == IntMatrix.zero(a.nrows, k.ncols)
        assert snf(a).rank + k.ncols == a.ncols


def test_int_solve_examples():
    assert snf(IntMatrix([[2]])).solve([4]) == [2]
    assert snf(IntMatrix([[2]])).solve([3]) is None
    assert snf(IntMatrix([[1, 1]])).solve([5]) == [5, 0]
    # with no unknowns the solution is the empty list, never None
    assert snf(IntMatrix.from_columns([], 1)).solve([0]) == []
    assert snf(IntMatrix.from_columns([], 1)).solve([1]) is None


def test_int_solve_random():
    rng = random.Random(11)
    for _ in range(80):
        a = random_matrix(rng)
        x = [rng.randint(-4, 4) for _ in range(a.ncols)]
        b = a.mul_vec(x)
        sol = snf(a).solve(b)
        assert sol is not None
        assert a.mul_vec(sol) == b


def test_lattice_basis():
    lb = lattice_basis(IntMatrix.from_columns([[2, 0], [0, 3]], 2))
    got = snf(IntMatrix.from_columns(lb.columns(), 2)).invariant_factors
    assert got == [1, 6]
    # the lattice of (2,2) and (4,0) has index 8 in Z^2
    lb = lattice_basis(IntMatrix.from_columns([[2, 2], [4, 0]], 2))
    assert abs(det(lb)) == 8


def test_lattice_basis_random():
    # the basis and the input columns generate the same lattice, and the
    # basis has rank-many columns
    rng = random.Random(5)
    for _ in range(200):
        a = random_matrix(rng)
        lb = lattice_basis(a)
        assert lb.nrows == a.nrows and lb.ncols == snf(a).rank
        for x, y in ((a, lb), (lb, a)):
            for col in x.columns():
                assert snf(y).solve(col) is not None


def test_field_kernel_examples():
    assert field_kernel([[QQ.one(), QQ.one()]], QQ) == [
        [QQ.from_int(-1), QQ.one()]]
    assert field_kernel([[QQ.one(), QQ.zero()],
                         [QQ.zero(), QQ.one()]], QQ) == []
    one = F2.one()
    assert field_kernel([[one, one], [one, one]], F2) == [[one, one]]


def test_field_rank_and_solve():
    rows = [[QQ.from_int(1), QQ.from_int(2)],
            [QQ.from_int(2), QQ.from_int(4)]]
    assert field_rank(rows, QQ) == 1
    sol = field_solve(rows, [QQ.from_int(3), QQ.from_int(6)], QQ)
    assert sol is not None
    for row, b in zip(rows, [QQ.from_int(3), QQ.from_int(6)]):
        acc = QQ.zero()
        for a, x in zip(row, sol):
            acc = QQ.add(acc, QQ.mul(a, x))
        assert acc == b
    assert field_solve(rows, [QQ.one(), QQ.one()], QQ) is None
