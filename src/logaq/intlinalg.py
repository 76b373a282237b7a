"""Exact integer linear algebra.

Smith normal form with transformation matrices and canonical solves
against it, integer kernels and lattice bases.  Everything uses
arbitrary-precision integers; the pivoting rule (smallest absolute
nonzero entry, ties in row-major order) is fixed so that every
downstream basis choice is reproducible.
"""

from dataclasses import dataclass


class IntMatrix:
    """Dense integer matrix, stored row-major as lists of ints."""

    __slots__ = ("rows", "_ncols")

    def __init__(self, rows, ncols=None):
        self.rows = [list(map(int, r)) for r in rows]
        if self.rows:
            n = len(self.rows[0])
            if any(len(r) != n for r in self.rows):
                raise ValueError("ragged matrix")
            if ncols is not None and ncols != n:
                raise ValueError("ncols mismatch")
            self._ncols = n
        else:
            self._ncols = 0 if ncols is None else ncols

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols, nrows=None):
        if not cols:
            return cls.zero(nrows or 0, 0)
        nrows = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(nrows)], len(cols))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return self._ncols

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ocols = other.ncols
        out = [[0] * ocols for _ in range(self.nrows)]
        if not out:
            return IntMatrix([], ocols)
        for i, row in enumerate(self.rows):
            for k, a in enumerate(row):
                if a:
                    orow = other.rows[k]
                    oi = out[i]
                    for j in range(ocols):
                        oi[j] += a * orow[j]
        return IntMatrix(out)

    def mul_vec(self, v):
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        return [sum(a * x for a, x in zip(row, v)) for row in self.rows]

    def copy(self):
        return IntMatrix([list(r) for r in self.rows], self.ncols)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.ncols == other.ncols)

    def __repr__(self):
        return f"IntMatrix({self.rows})"


@dataclass
class SnfResult:
    """U.A.V = D with U, V unimodular and D diagonal, d1 | d2 | ... ."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    invariant_factors: list

    @property
    def rank(self):
        return len(self.invariant_factors)

    def solve(self, b):
        """Canonical integer solution x of A.x = b, or None: transform
        by U, divide by D with the free coordinates zero, transform back
        by V."""
        if len(b) != self.u.ncols:
            raise ValueError("shape mismatch")
        ub = self.u.mul_vec(list(b))
        y = [0] * self.v.nrows
        r = self.rank
        for i, x in enumerate(ub):
            if i < r:
                d = self.d.rows[i][i]
                if x % d:
                    return None
                y[i] = x // d
            elif x:
                return None
        return self.v.mul_vec(y)


def _find_pivot(m, t):
    best = None
    for i in range(t, m.nrows):
        for j in range(t, m.ncols):
            a = abs(m.rows[i][j])
            if a and (best is None or a < best[0]):
                best = (a, i, j)
    return None if best is None else (best[1], best[2])


def snf(a):
    """Smith normal form with full transformation data.

    Deterministic: the pivot is the smallest absolute nonzero entry of
    the remaining block, ties broken row-major.
    """
    m = a.copy()
    nr, nc = m.nrows, m.ncols
    u = IntMatrix.identity(nr)
    v = IntMatrix.identity(nc)

    def swap_rows(i, j):
        if i == j:
            return
        m.rows[i], m.rows[j] = m.rows[j], m.rows[i]
        u.rows[i], u.rows[j] = u.rows[j], u.rows[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in m.rows:
            r[i], r[j] = r[j], r[i]
        for r in v.rows:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        if q == 0:
            return
        for k in range(nc):
            m.rows[dst][k] += q * m.rows[src][k]
        for k in range(nr):
            u.rows[dst][k] += q * u.rows[src][k]

    def add_col(src, dst, q):
        if q == 0:
            return
        for r in m.rows:
            r[dst] += q * r[src]
        for r in v.rows:
            r[dst] += q * r[src]

    def negate_row(i):
        for k in range(nc):
            m.rows[i][k] = -m.rows[i][k]
        for k in range(nr):
            u.rows[i][k] = -u.rows[i][k]

    t = 0
    while t < min(nr, nc):
        piv = _find_pivot(m, t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t, then row t; restart if a smaller pivot appears
            dirty = False
            for i in range(nr):
                if i != t and m.rows[i][t]:
                    q = m.rows[i][t] // m.rows[t][t]
                    add_row(t, i, -q)
                    if m.rows[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(nc):
                if j != t and m.rows[t][j]:
                    q = m.rows[t][j] // m.rows[t][t]
                    add_col(t, j, -q)
                    if m.rows[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility: pivot must divide the remaining block
            fixed = True
            for i in range(t + 1, nr):
                row = m.rows[i]
                for j in range(t + 1, nc):
                    if row[j] % m.rows[t][t]:
                        add_row(i, t, 1)
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if m.rows[t][t] < 0:
            negate_row(t)
        t += 1

    factors = [m.rows[i][i] for i in range(min(nr, nc)) if m.rows[i][i]]
    return SnfResult(u, m, v, factors)


def int_kernel(a):
    """Basis of the integer null space of a, as an IntMatrix of columns.

    The basis is the canonical one induced by snf(a).
    """
    res = snf(a)
    r = res.rank
    cols = [res.v.column(j) for j in range(r, a.ncols)]
    return IntMatrix.from_columns(cols, a.ncols)


def lattice_basis(columns_matrix):
    """Basis of the lattice spanned by the columns, as columns.

    Computed from snf: if U.K.V = D then K.V = U^-1.D, whose first rank
    columns d_j * (U^-1 e_j) span the lattice.
    """
    res = snf(columns_matrix)
    kv = columns_matrix.mul(res.v)
    return IntMatrix.from_columns([kv.column(j) for j in range(res.rank)],
                                  columns_matrix.nrows)
