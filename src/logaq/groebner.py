"""Finitely presented commutative algebras over a field.

A presented algebra is k[x_1..x_n]/I with a fixed monomial order and
weights; the reduced Groebner basis of I is cached, and every element of
the quotient gets the canonical normal-form representative.  The code
that makes an element puts it in normal form once (`AlgebraMap` its
images and monomial images, `kernel_generators` its generators), and
consumers and `str_of` take it as it stands: a scalar combination of
normal forms is one already.  `AlgebraMap.monomial_image` forms the
normal form of a monomial's image once per map, and `apply` sums those
images, for a polynomial or each position of a vector (`cast_vecs`).
Algebra maps carry validity checks, surjectivity witnesses, and
kernels read off the reduced basis of the graph ideal under an order
eliminating the target variables that no source variable maps to
exactly; each hit one is its source variable.  `adjoin_target_vars`
builds the one ring extension R -> B that the classical and the log
factorizations share.
"""

from .polynomials import (Poly, DegRevLex, BlockElim, Packer, exp_divides,
                          poly_str)
from .gbcore import (buchberger_vec, vec_from_polys, polys_from_vec,
                     reducer_index, reduce_vec)


def buchberger(polys, packer, field):
    """Reduced Groebner basis of the ideal generated by `polys`, in the
    order and variables of `packer`."""
    vecs = [vec_from_polys([p], packer) for p in polys if not p.is_zero()]
    gb = buchberger_vec(vecs, packer, field)
    return [polys_from_vec(v, 1, packer, field)[0] for v in gb]


class PresentedAlgebra:
    """k[vars]/(relations) with a monomial order and variable weights."""

    def __init__(self, varnames, field, relations=(), order=None, weights=None):
        if len(set(varnames)) != len(varnames):
            raise ValueError("duplicate variable names")
        self.varnames = list(varnames)
        self.field = field
        self.order = order or DegRevLex()
        self.weights = list(weights) if weights is not None \
            else [1] * len(varnames)
        if len(self.weights) != len(varnames):
            raise ValueError("one weight per variable")
        self.relations = [p for p in relations if not p.is_zero()]
        self.packer = Packer(self.order, len(varnames))
        self._zero = Poly.zero(field)   # shared: Polys are never mutated
        self._gb = None
        self._reducers = None   # reducer index of the Groebner basis

    @property
    def nvars(self):
        return len(self.varnames)

    def gb(self):
        if self._gb is None:
            self._gb = buchberger(self.relations, self.packer, self.field)
        return self._gb

    def nf(self, p):
        if not self.relations:
            return p
        if self._reducers is None:
            self._reducers = reducer_index(
                [vec_from_polys([g], self.packer) for g in self.gb()],
                self.packer)
        r = reduce_vec(vec_from_polys([p], self.packer), self._reducers,
                       self.packer, self.field)
        return polys_from_vec(r, 1, self.packer, self.field)[0]

    def is_zero(self, p):
        return self.nf(p).is_zero()

    def var(self, name):
        return Poly.variable(self.varnames.index(name), self.nvars, self.field)

    def constant(self, c):
        return Poly.constant(c, self.nvars, self.field)

    def one(self):
        return self.constant(self.field.one())

    def zero(self):
        return self._zero

    def from_int(self, n):
        return self.constant(self.field.from_int(n))

    def is_graded(self):
        return all(g.is_homogeneous(self.weights) for g in self.relations)

    def str_of(self, p):
        """p printed as given, in the algebra's variables and order: pass
        a normal form to print an element of the quotient."""
        return poly_str(p, self.varnames, self.order)

    def __repr__(self):
        return (f"PresentedAlgebra({self.field.name}[{', '.join(self.varnames)}]"
                f" / {len(self.relations)} relations)")


def staircase_dimension(lt_exps, nvars):
    """Number of monomials outside the monomial ideal, or None if infinite.

    Counted by runs in every coordinate.  The monomials outside the
    ideal lie in the box below the pure powers.  Along coordinate i the
    generators that may divide a point change only where its exponent
    reaches one of theirs, so each run between consecutive such cuts
    (0 and the box's bound among them) counts as its length times the
    count over the remaining coordinates.  In the last coordinate the
    count is the smallest last exponent among the generators left,
    the pure power of the last variable always among them.
    """
    if any(all(e == 0 for e in exp) for exp in lt_exps):
        return 0
    if nvars == 0:
        return 1
    bounds = [None] * nvars
    for exp in lt_exps:
        support = [i for i, e in enumerate(exp) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or exp[i] < bounds[i]:
                bounds[i] = exp[i]
    if any(b is None for b in bounds):
        return None
    last = nvars - 1

    def count(i, gens):
        if i == last:
            return min(g[last] for g in gens)
        b = bounds[i]
        cuts = sorted({0, b, *(g[i] for g in gens if g[i] < b)})
        return sum((hi - lo) * count(i + 1, [g for g in gens if g[i] <= lo])
                   for lo, hi in zip(cuts, cuts[1:]))
    return count(0, lt_exps)


def monomial_ideal_numerator(gens, weights):
    """Hilbert series numerator of R/(monomial ideal), as {degree: int}.

    The graded free resolution recursion: with m the last generator,
    K(gens) = K(gens') - t^deg(m) * K(gens' : m).
    """
    gens = sorted(set(gens))
    # remove redundant generators
    kept = [g for g in gens
            if not any(h != g and exp_divides(h, g) for h in gens)]
    if not kept:
        return {0: 1}
    if any(all(e == 0 for e in g) for g in kept):
        return {}
    m = kept[-1]
    rest = kept[:-1]
    a = monomial_ideal_numerator(rest, weights)
    colon = [tuple(max(g[i] - m[i], 0) for i in range(len(m))) for g in rest]
    b = monomial_ideal_numerator(colon, weights)
    d = sum(w * e for w, e in zip(weights, m))
    out = dict(a)
    for deg, c in b.items():
        out[deg + d] = out.get(deg + d, 0) - c
        if out[deg + d] == 0:
            del out[deg + d]
    return out


class AlgebraMap:
    """Map of presented algebras, given by images of the source variables."""

    def __init__(self, source, target, images):
        if len(images) != source.nvars:
            raise ValueError("one image per source variable")
        if source.field != target.field:
            raise ValueError("field mismatch")
        self.source = source
        self.target = target
        self.images = [target.nf(p) for p in images]
        self._monomial_images = {}  # exponent -> normal form of its image
        self._graph_ring = None
        self._graph_vars = None

    def is_well_defined(self):
        return all(self.apply(g).is_zero() for g in self.source.relations)

    def monomial_image(self, exp):
        """The normal form of the image of x^exp, the product of the
        images' powers reduced once; computed once per map."""
        image = self._monomial_images.get(exp)
        if image is None:
            image = self.target.one()
            for e, p in zip(exp, self.images):
                if e:
                    image = image * p ** e
            image = self._monomial_images[exp] = self.target.nf(image)
        return image

    def apply(self, p):
        """The normal form of p's image: the sum of its monomials' images
        times their coefficients, since the normal form is linear."""
        out = {}
        for exp, c in p.coeffs.items():
            for e, a in self.monomial_image(exp).coeffs.items():
                s = out.get(e)
                out[e] = c * a if s is None else s + c * a
        return Poly.from_sums(out, self.target.field)

    def cast_vecs(self, vecs, n):
        """Vectors over n positions, in the source's packed terms, base
        changed along the map to columns of n Polys over the target:
        `apply` of each position's terms, without building the source's
        columns; a position with no terms is the target's zero."""
        unpack = self.source.packer.unpack
        f = self.source.field
        zero = self.target.zero()
        out = []
        for v in vecs:
            terms = {}
            for t, c in v.items():
                pos, exp = unpack(t)
                terms.setdefault(pos, {})[exp] = c
            out.append([self.apply(Poly(terms[i], f)) if i in terms
                        else zero for i in range(n)])
        return out

    def _graph(self):
        """(ring, nt, ns): the graph ring k[t' | source vars] of the map
        under an order eliminating its first nt variables, and ns, the
        number of source variables.  Built once, so kernels and
        surjectivity share its Groebner basis.

        A target variable t_j that some source variable maps to exactly
        is that variable in the graph ring: the first such one stands in
        for t_j, and its equation x_i - t_j goes.  Only the nt target
        variables no source variable hits get a primed copy t'.  The
        graph ring is the quotient of k[t | source vars] by the graph
        ideal with each hit t_j put equal to its stand-in, so the
        elimination ideal, the kernel, is the same; for a map that hits
        every target variable, no variable is eliminated.
        `_graph_vars[j]` is the graph ring variable t_j became.
        """
        if self._graph_ring is None:
            self._graph_ring = self._build_graph()
        return self._graph_ring

    def _build_graph(self):
        nt, ns = self.target.nvars, self.source.nvars
        f = self.source.field
        stand_in = {}   # target variable -> its stand-in source variable
        for i, image in enumerate(self.images):
            if len(image.coeffs) == 1:
                (exp, c), = image.coeffs.items()
                if c == f.one() and sum(exp) == 1:
                    stand_in.setdefault(exp.index(1), i)
        unhit = [j for j in range(nt) if j not in stand_in]
        m = len(unhit)
        n = m + ns
        place = self._graph_vars = [
            m + stand_in[j] if j in stand_in else unhit.index(j)
            for j in range(nt)]

        def lift_target(p):
            out = {}
            for exp, c in p.coeffs.items():
                e = [0] * n
                for j, a in enumerate(exp):
                    e[place[j]] = a
                out[tuple(e)] = c
            return Poly(out, f)

        gens = [lift_target(g) for g in self.target.relations]
        standing = set(stand_in.values())
        for i in range(ns):
            if i not in standing:
                xi = Poly.variable(m + i, n, f)
                gens.append(xi - lift_target(self.images[i]))
        names = ([f"{self.target.varnames[j]}'" for j in unhit]
                 + list(self.source.varnames))
        ring = PresentedAlgebra(names, f, gens, order=BlockElim(m))
        return ring, m, ns

    def kernel_generators(self):
        """Generators of the kernel, as normal forms modulo the source
        ideal, zeros and repeats dropped, in order.

        By the elimination theorem the elements of the graph ideal's
        reduced basis that are free of the eliminated variables,
        projected to the source, are the reduced basis of the kernel in
        the source polynomial ring under the restriction of the
        elimination order.  That restriction is degrevlex, the order of
        every source algebra in the package.  For a source with
        relations that basis holds elements of the source ideal, whose
        normal forms are zero.
        """
        ring, nt, _ns = self._graph()
        out = []
        seen = set()
        for g in ring.gb():
            if any(any(exp[:nt]) for exp in g.coeffs):
                continue
            q = self.source.nf(Poly({exp[nt:]: c
                                     for exp, c in g.coeffs.items()},
                                    self.source.field))
            if not q.is_zero() and q not in seen:
                seen.add(q)
                out.append(q)
        return out

    def surjectivity_witness(self):
        """Preimages of the target variables, or None if not surjective.

        Uses the graph ideal: the normal form of a target variable under
        the elimination order lies in the source block iff it has a
        preimage.  A hit variable is its stand-in there, whose normal
        form is in the source block already.
        """
        ring, nt, ns = self._graph()
        f = self.source.field
        out = []
        for j in self._graph_vars:
            q = ring.nf(Poly.variable(j, nt + ns, f))
            if any(any(e != 0 for e in exp[:nt]) for exp in q.coeffs):
                return None
            out.append(Poly({exp[nt:]: c for exp, c in q.coeffs.items()}, f))
        return out

    def is_surjective(self):
        return self.surjectivity_witness() is not None


def adjoin_target_vars(a_to_b, extra):
    """The surjection R = A[extra, y@v for each B variable v] -> B
    extending A -> B, as (R, R -> B).

    `extra` lists (name, image in B) pairs.  R's variables are A's, then
    the extra ones, then the y@v, so its first A.nvars variables are A's.
    Each y@v maps to v, so R -> B's graph ring keeps a copy of no B
    variable that is a normal form (see `AlgebraMap._graph`).
    """
    a, b = a_to_b.source, a_to_b.target
    names = (list(a.varnames) + [name for name, _ in extra]
             + [f"y@{v}" for v in b.varnames])
    pad = (0,) * (len(names) - a.nvars)
    r = PresentedAlgebra(names, a.field,
                         [Poly({exp + pad: c for exp, c in g.coeffs.items()},
                               a.field) for g in a.relations])
    images = (list(a_to_b.images) + [image for _, image in extra]
              + [b.var(v) for v in b.varnames])
    return r, AlgebraMap(r, b, images)
