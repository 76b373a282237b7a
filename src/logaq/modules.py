"""Finitely presented modules over a presented algebra.

A module is coker(R^m -> R^n) for R = k[x]/I, stored as a list of
relation columns (length-n lists of Poly).  All membership, kernel, and
syzygy questions go through the vector Groebner engine; the ideal enters
by augmenting the relation submodule with I * e_j for every position.
Syzygies and coordinates come back as the engine's packed vectors;
columns of Polys cross into them only at `vec_from_polys`.

Every subquotient (kernels, homology, a/a^2, Tor) is presented by
`FpModule._submodule`, the one place whose column order fixes the
tagged basis and hence every printed `relations` string; `express_in`
gives a submodule with canonical coordinates in it from that one basis.
Homology of a three-term complex, tensor products and pushouts are
built from the same primitives, plus size proxies for reporting: exact
k dimension when finite, free rank when the presentation visibly
splits, graded Hilbert data, and the 0th Fitting ideal otherwise.
Tensoring assumes a cyclic coefficient module B/J, the only kind the
pipelines build.  A module the pipelines know to be zero, U/U_0 of a
cover whose syzygies are the Koszul ones, is built on no generators, so
the kernels, tensor products and pushouts out of it do no work by the
general code paths.  Elements known to be zero are found one by one: a
column that is an element of the module's relation basis, as the
multiples g e_j of the ideal's basis among a kernel's generators are,
enters the tagged basis empty, at its own position.
"""

from itertools import combinations

from .polynomials import Poly
from .gbcore import (TaggedGB, buchberger_vec, reducer_index, reduce_vec,
                     vec_from_polys, polys_from_vec)
from .groebner import (buchberger, staircase_dimension,
                       monomial_ideal_numerator)


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

    def rel_gb(self):
        """Reduced GB of the full relation submodule: the relation
        columns, then I * e_j for every position j.

        Without relation columns that is gb(I) * e_j for every j, as it
        stands: the reduced basis of I times each position."""
        if self._rel_gb is None:
            alg = self.algebra
            vecs = [vec_from_polys(c, alg.packer) for c in self.rel_cols]
            for j in range(self.n_gens):
                for g in alg.gb():
                    vecs.append(vec_from_polys(
                        [g if i == j else None for i in range(self.n_gens)],
                        alg.packer))
            self._rel_gb = (buchberger_vec(vecs, alg.packer, alg.field)
                            if self.rel_cols else sorted(vecs, key=max))
        return self._rel_gb

    def _reduce(self, v):
        """Normal form of a vector modulo rel_gb()."""
        alg = self.algebra
        if self._rel_reducers is None:
            self._rel_reducers = reducer_index(self.rel_gb(), alg.packer)
        return reduce_vec(v, self._rel_reducers, alg.packer, alg.field)

    def is_zero_element(self, col):
        if not (self.rel_cols or self.algebra.relations):
            return all(p.is_zero() for p in col)
        return not self._reduce(vec_from_polys(col, self.algebra.packer))

    def elements_equal(self, a, b):
        return self.is_zero_element([x - y for x, y in zip(a, b)])

    def zero_column(self):
        return [self.algebra.zero()] * self.n_gens

    def gen_column(self, i):
        col = self.zero_column()
        col[i] = self.algebra.one()
        return col

    def _pack(self, columns):
        """Columns of Polys as vectors."""
        packer = self.algebra.packer
        return [vec_from_polys(c, packer) for c in columns]

    def _tagged(self, vecs):
        """The tagged basis of the vectors `vecs` modulo this module (see
        TaggedGB), against the relations' Groebner basis."""
        alg = self.algebra
        return TaggedGB(vecs, self.rel_gb(), self.n_gens, alg.packer,
                        alg.field)

    def _lifted(self, vecs):
        """The tagged basis of `vecs` modulo this module, with each
        vector zero by lookup passed as an empty column.

        A vector is zero by lookup when it is empty or is the element
        of rel_gb() with its leading term, as the relation vectors g e_j
        among a kernel's generators are.  TaggedGB keeps an empty
        column's unit syzygy out of every Buchberger run.
        """
        leads = {max(g): g for g in self.rel_gb()}
        return self._tagged([v if v and leads.get(max(v)) != v else {}
                             for v in vecs])

    def syzygies_of(self, vecs):
        """Generating relations among the elements packed as `vecs`,
        modulo this module: the reduced Groebner basis of their syzygy
        module, as vectors over len(vecs) positions.  The elements zero
        by lookup have their unit syzygies (see `_lifted`)."""
        return self._lifted(vecs).syzygies() if vecs else []

    def _submodule(self, vecs, modulo=()):
        """(the submodule the columns packed as `vecs` generate, modulo
        the columns `modulo`, presented on those columns; the tagged
        basis of `vecs` it came from, or None when there are none).

        Its relations are the reduced Groebner basis of the syzygies of
        the columns modulo `modulo` and this module's relations, unique
        for the order, so the columns alone fix the printed relations.
        Without `modulo` they are `syzygies_of` the columns.  With
        `modulo`, every column is tagged as it stands and the relations
        are reduced from the lifted syzygies of the columns plus one
        expression of each `modulo` column.  A `modulo` column outside
        their span raises CommutationFailure: every caller passes the
        image of the next map of a complex.
        """
        alg = self.algebra
        n = len(vecs)
        if not n:
            return FpModule(alg, 0), None
        if not modulo:
            t = self._lifted(vecs)
            gb = t.syzygies()
        else:
            t = self._tagged(vecs)
            gens = list(t.raw)
            for col in modulo:
                e = t.express(vec_from_polys(col, alg.packer))
                if e is None:
                    raise CommutationFailure(
                        "a quotient column lies outside the submodule")
                gens.append(e)
            gb = buchberger_vec(gens, alg.packer, alg.field)
        out = FpModule(alg, n, [polys_from_vec(v, n, alg.packer, alg.field)
                                for v in gb])
        # the syzygies hold I * e_j, so their basis is the relations'
        out._rel_gb = gb
        return out, t

    def express_in(self, columns, targets):
        """(the submodule the given elements generate, presented on
        them as `_submodule` presents it; for each target, its canonical
        coefficients c with sum c_i * columns[i] = target in this
        module, as a vector over the columns' positions, or None if it
        is not in their span).

        One tagged basis serves the submodule and every target: an
        expression is one division by it, reduced modulo the
        submodule's relations."""
        sub, t = self._submodule(self._pack(columns))
        out = []
        for v in self._pack(targets):
            if t is None:   # no columns: only zero lies in their span
                e = None if self._reduce(v) else {}
            else:
                e = t.express(v)
            out.append(None if e is None else sub._reduce(e))
        return sub, out

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
            pos, exp = self.algebra.packer.unpack(max(g))
            by_pos[pos].append(exp)
        return by_pos

    def trim(self):
        """Smaller presentation: eliminate generators that occur with an
        invertible constant coefficient in some relation.

        The pivot is the lowest generator with a nonzero constant entry
        in the first column that has one.  Columns are kept sparse, as
        {generator: normal form} on the original generator indices, and
        renumbered at the end.  Eliminating generator j rewrites only
        the columns with an entry at j, and in them only the positions
        where the pivot column has one.  Entries are normal forms, so a
        new entry p - c*q needs `nf` only when c and q are both
        non-constant: otherwise it is a scalar combination of normal
        forms, already one.
        """
        alg = self.algebra
        f = alg.field
        cols = []
        for c in self.rel_cols:
            col = {}
            for j, p in enumerate(c):
                if not p.is_zero():
                    p = alg.nf(p)
                    if not p.is_zero():
                        col[j] = p
            cols.append(col)
        gens = set(range(self.n_gens))
        zero = alg.zero()
        while True:
            hit = None
            for ci, col in enumerate(cols):
                consts = [j for j, p in col.items() if p.is_constant()]
                if consts:
                    hit = ci, min(consts)
                    break
            if hit is None:
                break
            ci, j = hit
            pivot = cols.pop(ci)
            inv = f.inv(pivot.pop(j).coeffs[(0,) * alg.nvars])
            gens.discard(j)
            for col in cols:
                if j not in col:
                    continue
                c = col.pop(j).scale(inv)
                for i, q in pivot.items():
                    p = col.get(i, zero) - c * q
                    if not (c.is_constant() or q.is_constant()):
                        p = alg.nf(p)
                    if p.is_zero():
                        col.pop(i, None)
                    else:
                        col[i] = p
        gens = sorted(gens)
        return FpModule(alg, len(gens), [[col.get(g, zero) for g in gens]
                                         for col in cols if col])

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

        Along a column s_j + deg(entry j) is constant, which links
        consecutive nonzero entries.  Each linked component starts at 0
        at its lowest generator; then one global minimum is subtracted,
        not one per component, so the shifts are nonnegative with
        minimum 0.  None if the algebra is not graded, an entry is
        inhomogeneous or two links conflict.
        """
        w = self.algebra.weights
        if not self.algebra.is_graded():
            return None
        n = self.n_gens
        links = [[] for _ in range(n)]   # (generator, shift difference)
        for col in self.rel_cols:
            prev = None
            for j, p in enumerate(col):
                if p.is_zero():
                    continue
                degs = p.weighted_degrees(w)
                if len(degs) != 1:
                    return None
                (d,) = degs
                if prev is not None:
                    i, di = prev
                    links[i].append((j, di - d))
                    links[j].append((i, d - di))
                prev = j, d
        shifts = [None] * n
        for start in range(n):
            if shifts[start] is not None:
                continue
            shifts[start] = 0
            stack = [start]
            while stack:
                i = stack.pop()
                for j, diff in links[i]:
                    if shifts[j] is None:
                        shifts[j] = shifts[i] + diff
                        stack.append(j)
                    elif shifts[j] != shifts[i] + diff:
                        return None
        m = min(shifts, default=0)
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
                if not p.is_zero():
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
        target = self.target
        return self.source._submodule(
            target.syzygies_of(target._pack(self.image_cols)), modulo)[0]

    def cokernel(self):
        return FpModule(self.target.algebra, self.target.n_gens,
                        self.target.rel_cols + self.image_cols)


class CommutationFailure(Exception):
    """A built complex has d1 d2 != 0, a square of the main diagram
    failed to commute, or a canonical lift required by the construction
    does not exist."""


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
    """m tensor_A B/J for the cyclic coefficient module t = B/J: m with
    J * e_i appended to its relations, for each generator of J in turn
    and i = 0, 1, ...  With J = 0 this is m itself, relation basis kept."""
    if t.n_gens != 1:
        raise ValueError("coefficient module must have one generator")
    if not t.rel_cols:
        return m
    alg = m.algebra
    rels = list(m.rel_cols)
    for (g,) in t.rel_cols:
        for i in range(m.n_gens):
            col = [alg.zero()] * m.n_gens
            col[i] = g
            rels.append(col)
    return FpModule(alg, m.n_gens, rels)


def tensor_hom(f, src, tgt):
    """f tensor id between src and tgt, the tensor_modules of its source
    and target: tensoring with a cyclic module keeps f's columns."""
    return ModHom(src, tgt, f.image_cols)


def tensor_complex(c, t):
    """The three-term complex tensored with the coefficient module t."""
    c2, c1, c0 = (tensor_module(m, t) for m in (c.c2, c.c1, c.c0))
    return Complex3(tensor_hom(c.d2, c2, c1), tensor_hom(c.d1, c1, c0))


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
    alg = m.algebra
    n = m.n_gens
    cols = m.rel_cols
    if n == 0:
        return buchberger([alg.one()], alg.packer, alg.field)
    if len(cols) < n or n > 4:
        return None
    gens = list(alg.relations)
    for pick in combinations(range(len(cols)), n):
        mat = [[cols[c][i] for c in pick] for i in range(n)]
        d = poly_det(mat, alg)
        if not d.is_zero():
            gens.append(d)
    return buchberger(gens, alg.packer, alg.field)


def _shift_normalized(num):
    """Hilbert numerator with the lowest degree moved to zero; the
    generator-shift inference is only canonical up to such a shift."""
    if not num:
        return ()
    lo = min(num)
    return tuple(sorted((d - lo, c) for d, c in num.items()))


class HomologyReport:
    """Canonical summary of a module: presentation plus size proxies.

    The printed presentation, the k dimension, the free rank and the
    Fitting ideal come from the trimmed presentation, whose one relation
    Groebner basis serves the k dimension and the free rank; the k
    dimension is an isomorphism invariant, so any presentation gives
    it.  The Hilbert data comes from the untrimmed module: its numerator
    is printed as it stands, and that depends on the generator shifts
    inferred from the relations given.
    """

    def __init__(self, module):
        trimmed = module.trim()
        self.n_gens = trimmed.n_gens
        alg = module.algebra
        self.relations = [[alg.str_of(p) for p in c]
                          for c in trimmed.rel_cols]
        self.k_dimension = trimmed.k_dimension()
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
    When S and R have no generators, P is L itself, relation basis
    included.
    """
    if alpha.source is not beta.source:
        raise ValueError("pushout needs a common source")
    left, right = alpha.target, beta.target
    if not (alpha.source.n_gens or right.n_gens):
        return left, ModHom.identity(left), ModHom(right, left, [])
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
