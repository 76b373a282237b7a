"""Finitely presented modules over a presented algebra.

A module is coker(R^m -> R^n) for R = k[x]/I, stored as a list of
relation columns (length-n lists of Poly).  All membership, kernel, and
syzygy questions go through the vector Groebner engine; the ideal enters
by augmenting the relation submodule with I * e_j for every position.

Every subquotient (kernels, homology, U/U_0, a/a^2, Tor) is presented by
`FpModule.submodule`, the one place whose column order fixes the tagged
basis and hence every printed `relations` string.  Homology of a
three-term complex, tensor products and pushouts are built from the same
primitives, plus size proxies for reporting: exact k dimension when
finite, free rank when the presentation visibly splits, graded Hilbert
data, and the 0th Fitting ideal otherwise.
"""

from .polynomials import Poly
from .gbcore import (TaggedGB, buchberger_vec, reducer_index, reduce_vec,
                     vec_from_polys, polys_from_vec, vec_is_zero,
                     vec_leading)
from .groebner import staircase_dimension, monomial_ideal_numerator


class FpModule:
    """Cokernel presentation of a module over a PresentedAlgebra."""

    def __init__(self, algebra, n_gens, rel_cols=()):
        self.algebra = algebra
        self.n_gens = n_gens
        self.rel_cols = [list(c) for c in rel_cols]
        for c in self.rel_cols:
            if len(c) != n_gens:
                raise ValueError("relation column length mismatch")
        self._rel_gb = None
        self._rel_reducers = None   # reducer index of rel_gb()

    @classmethod
    def free(cls, algebra, n):
        return cls(algebra, n)

    def _ideal_aug_vecs(self):
        out = []
        for j in range(self.n_gens):
            for g in self.algebra.gb():
                out.append(vec_from_polys(
                    [g if i == j else None for i in range(self.n_gens)]))
        return out

    def rel_vecs(self):
        return [vec_from_polys(c) for c in self.rel_cols]

    def rel_gb(self):
        """Reduced GB of the full relation submodule (ideal included)."""
        if self._rel_gb is None:
            self._rel_gb = buchberger_vec(
                self.rel_vecs() + self._ideal_aug_vecs(),
                self.algebra.order, self.algebra.field)
        return self._rel_gb

    def _reduce(self, col):
        """Normal form of a column, as a vector, modulo rel_gb()."""
        alg = self.algebra
        if self._rel_reducers is None:
            self._rel_reducers = reducer_index(self.rel_gb(), alg.order)
        return reduce_vec(vec_from_polys(col), self._rel_reducers, alg.order,
                          alg.field)

    def nf(self, col):
        """Canonical representative of an element (length-n list of Poly)."""
        return polys_from_vec(self._reduce(col), self.n_gens,
                              self.algebra.field)

    def is_zero_element(self, col):
        return vec_is_zero(self._reduce(col))

    def elements_equal(self, a, b):
        return self.is_zero_element([x - y for x, y in zip(a, b)])

    def zero_column(self):
        return [self.algebra.zero() for _ in range(self.n_gens)]

    def gen_column(self, i):
        col = self.zero_column()
        col[i] = self.algebra.one()
        return col

    def _tagged(self, columns):
        vecs = [vec_from_polys(c) for c in columns]
        extras = self.rel_vecs() + self._ideal_aug_vecs()
        return TaggedGB(vecs + extras, self.n_gens, self.algebra.nvars,
                        self.algebra.field, self.algebra.order), len(columns)

    def syzygies_of(self, columns):
        """Generating relations among the given elements, modulo this module.

        Returns columns of length len(columns) over the algebra.
        """
        if not columns:
            return []
        t, k = self._tagged(columns)
        out = []
        for s in t.syzygies():
            col = polys_from_vec(s, t.n_cols, self.algebra.field)[:k]
            if any(not p.is_zero() for p in col):
                out.append(col)
        return out

    def submodule(self, columns, modulo=()):
        """The submodule the given elements generate, modulo the columns
        `modulo`, presented on `columns`.

        Its relations are the syzygies of `columns` modulo `modulo` plus
        this module's relations, in that column order: the order fixes
        the tagged basis, hence the printed relations.
        """
        quotient = FpModule(self.algebra, self.n_gens,
                            list(modulo) + self.rel_cols)
        return FpModule(self.algebra, len(columns),
                        quotient.syzygies_of(columns))

    def express_in(self, columns, targets):
        """For each target, coefficients c with sum c_i * columns[i] =
        target in the module, or None if it is not in their span.  One
        tagged basis serves every target."""
        if not targets:
            return []
        t, k = self._tagged(columns)
        out = []
        for target in targets:
            co = t.express(vec_from_polys(target))
            out.append(None if co is None else co[:k])
        return out

    def k_dimension(self):
        """dim_k of the module, or None if infinite."""
        nv = self.algebra.nvars
        by_pos = self.lt_by_position()
        total = 0
        for j in range(self.n_gens):
            d = staircase_dimension(by_pos[j], nv)
            if d is None:
                return None
            total += d
        return total

    def lt_by_position(self):
        by_pos = {j: [] for j in range(self.n_gens)}
        for g in self.rel_gb():
            (pos, exp), _c = vec_leading(g, self.algebra.order)
            by_pos[pos].append(exp)
        return by_pos

    def trim(self):
        """Smaller presentation: eliminate generators that occur with an
        invertible constant coefficient in some relation."""
        alg = self.algebra
        f = alg.field
        gens = list(range(self.n_gens))
        cols = [[alg.nf(p) for p in c] for c in self.rel_cols]
        while True:
            hit = None
            for ci, col in enumerate(cols):
                for j, p in enumerate(col):
                    if p.is_constant() and not p.is_zero():
                        hit = (ci, j)
                        break
                if hit:
                    break
            if hit is None:
                break
            ci, j = hit
            pivot = cols.pop(ci)
            u = pivot[j].coeffs[(0,) * alg.nvars]
            inv = f.inv(u)
            new_cols = []
            for col in cols:
                cj = col[j]
                if cj.is_zero():
                    new_cols.append([p for i, p in enumerate(col) if i != j])
                    continue
                adj = [alg.nf(p - cj.scale(inv) * pivot[i])
                       for i, p in enumerate(col) if i != j]
                new_cols.append(adj)
            cols = new_cols
            gens = [g for i, g in enumerate(gens) if i != j]
        cols = [c for c in cols if any(not p.is_zero() for p in c)]
        return FpModule(alg, len(gens), cols)

    def free_rank(self):
        """Rank if the presentation visibly presents a free module.

        Call it on a trimmed presentation: it checks whether every
        Groebner relation just rewrites a generator in relation-free
        ones, and returns None otherwise.
        """
        if not self.rel_cols:
            return self.n_gens
        by_pos = self.lt_by_position()
        zero_exp = (0,) * self.algebra.nvars
        led = set()
        for j, exps in by_pos.items():
            if not exps:
                continue
            if exps != [zero_exp]:
                return None
            led.add(j)
        return self.n_gens - len(led)

    def infer_shifts(self):
        """Generator degrees making all relation columns homogeneous.

        Returns a list of nonnegative shifts with minimum 0, or None if
        no consistent grading exists.  Components of the generator graph
        not linked by any relation are normalized independently.
        """
        w = self.algebra.weights
        if not self.algebra.is_graded():
            return None
        n = self.n_gens
        shifts = [None] * n
        constraints = []
        for col in self.rel_cols:
            entries = []
            for j, p in enumerate(col):
                if p.is_zero():
                    continue
                degs = p.weighted_degrees(w)
                if len(degs) != 1:
                    return None
                entries.append((j, next(iter(degs))))
            for (j1, d1), (j2, d2) in zip(entries, entries[1:]):
                constraints.append((j1, j2, d1 - d2))
        # propagate: shift[j2] - shift[j1] = d1 - d2  (s_j + d_j constant)
        for start in range(n):
            if shifts[start] is not None:
                continue
            shifts[start] = 0
            changed = True
            while changed:
                changed = False
                for j1, j2, diff in constraints:
                    if shifts[j1] is not None and shifts[j2] is None:
                        shifts[j2] = shifts[j1] + diff
                        changed = True
                    elif shifts[j2] is not None and shifts[j1] is None:
                        shifts[j1] = shifts[j2] - diff
                        changed = True
        for j1, j2, diff in constraints:
            if shifts[j2] - shifts[j1] != diff:
                return None
        m = min(shifts) if shifts else 0
        return [s - m for s in shifts]

    def hilbert_data(self):
        """(numerator dict {degree: int}, denominator weights) or None.

        The Hilbert series of the module is numerator / prod(1 - t^w).
        Requires the algebra graded and the relations homogeneous.
        """
        shifts = self.infer_shifts()
        if shifts is None:
            return None
        w = self.algebra.weights
        num = {}
        by_pos = self.lt_by_position()
        for j in range(self.n_gens):
            nj = monomial_ideal_numerator(by_pos[j], w)
            for d, c in nj.items():
                dd = d + shifts[j]
                num[dd] = num.get(dd, 0) + c
                if num[dd] == 0:
                    del num[dd]
        return num, list(w)


class ModHom:
    """Module homomorphism given by images of the source generators."""

    def __init__(self, source, target, image_cols):
        if len(image_cols) != source.n_gens:
            raise ValueError("one image column per source generator")
        self.source = source
        self.target = target
        self.image_cols = [list(c) for c in image_cols]

    def is_well_defined(self):
        for rel in self.source.rel_cols:
            if not self.target.is_zero_element(self.apply(rel)):
                return False
        return True

    def apply(self, col):
        out = self.target.zero_column()
        for c, img in zip(col, self.image_cols):
            if c.is_zero():
                continue
            for i, p in enumerate(img):
                out[i] = out[i] + c * p
        return out

    @classmethod
    def identity(cls, module):
        return cls(module, module,
                   [module.gen_column(i) for i in range(module.n_gens)])

    def compose(self, other):
        """self after other."""
        return ModHom(other.source, self.target,
                      [self.apply(c) for c in other.image_cols])

    def equals(self, other):
        for a, b in zip(self.image_cols, other.image_cols):
            if not self.target.elements_equal(a, b):
                return False
        return True

    def is_zero_map(self):
        return all(self.target.is_zero_element(c) for c in self.image_cols)

    def kernel(self, modulo=()):
        """The kernel, modulo the source columns `modulo`, presented on
        the syzygies of the image columns."""
        ker_cols = self.target.syzygies_of(self.image_cols)
        return self.source.submodule(ker_cols, modulo)

    def cokernel(self):
        return FpModule(self.target.algebra, self.target.n_gens,
                        self.target.rel_cols + self.image_cols)


class Complex3:
    """C2 --d2--> C1 --d1--> C0; is_complex() checks d1 d2 = 0."""

    def __init__(self, d2, d1):
        if d2.target is not d1.source:
            raise ValueError("differentials do not compose")
        self.d2 = d2
        self.d1 = d1

    def is_complex(self):
        return self.d1.compose(self.d2).is_zero_map()

    @property
    def c2(self):
        return self.d2.source

    @property
    def c1(self):
        return self.d1.source

    @property
    def c0(self):
        return self.d1.target

    def homology(self):
        """(H0, H1, H2) as FpModules."""
        return self.h0(), self.h1(), self.h2()

    def h0(self):
        return self.d1.cokernel()

    def h2(self):
        return self.d2.kernel()

    def h1(self):
        return self.d1.kernel(self.d2.image_cols)


def tensor_module(m, t):
    """m tensor_A t, by the block construction on presentations.

    Generator (i, j) is m_i tensor t_j, flattened as i * t.n_gens + j.
    """
    alg = m.algebra
    if t.n_gens == 1 and not t.rel_cols:
        return m
    n = m.n_gens * t.n_gens

    def idx(i, j):
        return i * t.n_gens + j

    rels = []
    for c in m.rel_cols:
        for j in range(t.n_gens):
            col = [alg.zero()] * n
            for i, p in enumerate(c):
                col[idx(i, j)] = p
            rels.append(col)
    for c in t.rel_cols:
        for i in range(m.n_gens):
            col = [alg.zero()] * n
            for j, p in enumerate(c):
                col[idx(i, j)] = p
            rels.append(col)
    return FpModule(alg, n, rels)


def tensor_hom(f, t, src, tgt):
    """f tensor id_t from src to tgt, the tensor_modules of its source
    and target."""
    if t.n_gens == 1 and not t.rel_cols:
        return f
    alg = f.source.algebra
    cols = []
    for i in range(f.source.n_gens):
        img = f.image_cols[i]
        for j in range(t.n_gens):
            col = [alg.zero()] * tgt.n_gens
            for i2, p in enumerate(img):
                col[i2 * t.n_gens + j] = p
            cols.append(col)
    return ModHom(src, tgt, cols)


def tensor_complex(c, t):
    """The three-term complex tensored with the coefficient module t."""
    if t.n_gens == 1 and not t.rel_cols:
        return c
    c2 = tensor_module(c.c2, t)
    c1 = tensor_module(c.c1, t)
    c0 = tensor_module(c.c0, t)
    d2 = tensor_hom(c.d2, t, c2, c1)
    d1 = tensor_hom(c.d1, t, c1, c0)
    return Complex3(d2, d1)


def poly_det(mat, algebra):
    """Determinant of a square matrix of Polys by cofactor expansion."""
    n = len(mat)
    if n == 0:
        return algebra.one()
    if n == 1:
        return mat[0][0]
    out = Poly.zero(algebra.field)
    for j in range(n):
        a = mat[0][j]
        if a.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = a * poly_det(minor, algebra)
        out = out + (term if j % 2 == 0 else -term)
    return out


def fitting0(m):
    """Reduced Groebner basis of the 0th Fitting ideal (plus the ring
    ideal) of the module a trimmed presentation m presents, as a
    canonical iso-proxy for small presentations."""
    from .groebner import buchberger
    alg = m.algebra
    n = m.n_gens
    cols = m.rel_cols
    if n == 0:
        return buchberger([alg.one()], alg.order, alg.field)
    if len(cols) < n or n > 4:
        return None
    from itertools import combinations
    gens = list(alg.relations)
    for pick in combinations(range(len(cols)), n):
        mat = [[cols[c][i] for c in pick] for i in range(n)]
        d = poly_det(mat, alg)
        if not d.is_zero():
            gens.append(d)
    return buchberger(gens, alg.order, alg.field)


def _shift_normalized(num):
    """Hilbert numerator with the lowest degree moved to zero; the
    generator-shift inference is only canonical up to such a shift."""
    if not num:
        return ()
    lo = min(num)
    return tuple(sorted((d - lo, c) for d, c in num.items()))


class HomologyReport:
    """Canonical summary of a module: presentation plus size proxies."""

    def __init__(self, module):
        trimmed = module.trim()
        self.n_gens = trimmed.n_gens
        alg = module.algebra
        self.relations = [[alg.str_of(p) for p in c]
                          for c in trimmed.rel_cols]
        self.k_dimension = module.k_dimension()
        self.free_rank = trimmed.free_rank()
        self.hilbert = module.hilbert_data() \
            if self.k_dimension is None else None
        self.fitting = None
        if self.k_dimension is None and self.free_rank is None \
                and self.hilbert is None:
            f0 = fitting0(trimmed)
            if f0 is not None:
                self.fitting = [alg.str_of(p) for p in f0]

    def same_as(self, other):
        """Field-wise proxy comparison: every invariant available on both
        sides must agree.  When no invariant can be compared, equal
        trimmed presentations agree and any others do not."""
        if self.k_dimension is not None or other.k_dimension is not None:
            return self.k_dimension == other.k_dimension
        compared = False
        if self.hilbert is not None and other.hilbert is not None:
            if _shift_normalized(self.hilbert[0]) \
                    != _shift_normalized(other.hilbert[0]) \
                    or sorted(self.hilbert[1]) != sorted(other.hilbert[1]):
                return False
            compared = True
        if self.free_rank is not None and other.free_rank is not None:
            if self.free_rank != other.free_rank:
                return False
            compared = True
        if not compared:
            # free rank on one side, graded data on the other: a free
            # graded module's numerator has positive coefficients adding
            # up to the rank
            for fr, hb in ((self.free_rank, other.hilbert),
                           (other.free_rank, self.hilbert)):
                if fr is not None and hb is not None:
                    num, _den = hb
                    if all(c > 0 for c in num.values()) \
                            and sum(num.values()) == fr:
                        compared = True
                    else:
                        return False
        if not compared and self.fitting is not None \
                and other.fitting is not None:
            if self.fitting != other.fitting:
                return False
            compared = True
        return compared or (self.n_gens == other.n_gens
                            and self.relations == other.relations)

    def to_dict(self):
        out = {
            "n_gens": self.n_gens,
            "relations": self.relations,
            "k_dimension": self.k_dimension,
            "free_rank": self.free_rank,
        }
        if self.hilbert is not None:
            num, den = self.hilbert
            out["hilbert_numerator"] = {str(k): v
                                        for k, v in sorted(num.items())}
            out["hilbert_denominator_weights"] = sorted(den)
        if self.fitting is not None:
            out["fitting0"] = self.fitting
        return out


def pushout(alpha, beta):
    """Pushout of L <--alpha-- S --beta--> R.

    Returns (P, inc_left, inc_right) with P = (L + R) / (alpha s, -beta s).
    """
    if alpha.source is not beta.source:
        raise ValueError("pushout needs a common source")
    left, right = alpha.target, beta.target
    alg = left.algebra
    n = left.n_gens + right.n_gens
    zero = alg.zero()

    def pad_left(col):
        return list(col) + [zero] * right.n_gens

    def pad_right(col):
        return [zero] * left.n_gens + list(col)

    rels = [pad_left(c) for c in left.rel_cols]
    rels += [pad_right(c) for c in right.rel_cols]
    for i in range(alpha.source.n_gens):
        a = alpha.image_cols[i]
        b = beta.image_cols[i]
        rels.append(list(a) + [-p for p in b])
    p = FpModule(alg, n, rels)
    inc_left = ModHom(left, p,
                      [p.gen_column(i) for i in range(left.n_gens)])
    inc_right = ModHom(right, p,
                       [p.gen_column(left.n_gens + i)
                        for i in range(right.n_gens)])
    return p, inc_left, inc_right
