"""Finitely presented commutative monoids, prelog rings, and morphisms.

A monoid is given by generators and relations x^u = x^v between words in
the generators.  Word problems go through the monoid algebra (the ideal
of pure binomial differences), group completion through the abelian
group layer.

A prelog ring is an algebra together with a monoid and images of the
monoid generators; a morphism is a compatible pair of an algebra map and
a monoid map.  choose_log_factorization splits a morphism through an
intermediate prelog ring whose monoid is free over the source and whose
algebra is polynomial over the source, surjecting onto the target.
"""

from dataclasses import dataclass

from .intlinalg import IntMatrix
from .abgroups import FpAbGroup, AbHom
from .polynomials import Poly
from .fields import QQ
from .groebner import PresentedAlgebra, AlgebraMap, adjoin_target_vars


class FpMonoid:
    """Commutative monoid on n generators with relations word = word."""

    def __init__(self, gen_names, relations=()):
        if len(set(gen_names)) != len(gen_names):
            raise ValueError("duplicate generator names")
        self.gen_names = list(gen_names)
        self.relations = [(tuple(u), tuple(v)) for u, v in relations]
        for u, v in self.relations:
            if len(u) != self.n_gens or len(v) != self.n_gens:
                raise ValueError("relation word length mismatch")
            if any(e < 0 for e in u + v):
                raise ValueError("monoid words need nonnegative exponents")
        self._word_algebra = None

    @property
    def n_gens(self):
        return len(self.gen_names)

    def unit(self, i):
        """The word of the i-th generator."""
        return tuple(1 if j == i else 0 for j in range(self.n_gens))

    def _algebra(self):
        # internal word-problem oracle; the field is irrelevant because
        # the ideal is generated by differences of monomials
        if self._word_algebra is None:
            self._word_algebra = self.monoid_algebra(QQ)
        return self._word_algebra

    def words_equal(self, u, v):
        alg = self._algebra()
        pu = Poly.monomial(tuple(u), QQ.one(), QQ)
        pv = Poly.monomial(tuple(v), QQ.one(), QQ)
        return alg.nf(pu - pv).is_zero()

    def group_completion(self):
        cols = [[a - b for a, b in zip(u, v)] for u, v in self.relations]
        return FpAbGroup(self.n_gens,
                         IntMatrix.from_columns(cols, self.n_gens))

    def free_adjunction(self, new_names):
        """M + free monoid on new_names, relations padded with zeros."""
        names = self.gen_names + list(new_names)
        k = len(new_names)
        rels = [(u + (0,) * k, v + (0,) * k) for u, v in self.relations]
        return FpMonoid(names, rels)

    def monoid_algebra(self, field):
        rels = [Poly.monomial(u, field.one(), field)
                - Poly.monomial(v, field.one(), field)
                for u, v in self.relations]
        return PresentedAlgebra(self.gen_names, field, rels)

    def __repr__(self):
        return f"FpMonoid({self.gen_names}, {len(self.relations)} relations)"


class MonoidHom:
    """Monoid map given by images (exponent words) of the generators."""

    def __init__(self, source, target, images):
        if len(images) != source.n_gens:
            raise ValueError("one image word per source generator")
        self.source = source
        self.target = target
        self.images = [tuple(w) for w in images]
        for w in self.images:
            if len(w) != target.n_gens or any(e < 0 for e in w):
                raise ValueError("bad image word")

    def apply(self, word):
        out = [0] * self.target.n_gens
        for e, img in zip(word, self.images):
            if e:
                for i, x in enumerate(img):
                    out[i] += e * x
        return tuple(out)

    def is_well_defined(self):
        return all(self.target.words_equal(self.apply(u), self.apply(v))
                   for u, v in self.source.relations)

    def gp(self):
        """Induced map of group completions."""
        mat = IntMatrix.from_columns([list(w) for w in self.images],
                                     self.target.n_gens)
        return AbHom(self.source.group_completion(),
                     self.target.group_completion(), mat)

    def is_strict(self):
        """Whether the induced map of group completions is an isomorphism."""
        return self.gp().is_isomorphism()


class PrelogRing:
    """(algebra, monoid, structure images of the monoid generators); the
    structure map is an algebra map out of k[monoid generators], so a
    word's image is a monomial's, formed once per ring."""

    def __init__(self, algebra, monoid, alpha):
        if len(alpha) != monoid.n_gens:
            raise ValueError("one structure image per monoid generator")
        self.algebra = algebra
        self.monoid = monoid
        self._alpha_map = AlgebraMap(
            PresentedAlgebra(monoid.gen_names, algebra.field), algebra, alpha)
        self.alpha = self._alpha_map.images

    def alpha_of(self, word):
        return self._alpha_map.monomial_image(tuple(word))


class PrelogMorphism:
    """(A, M) -> (B, N): an algebra map and a monoid map that commute
    with the structure maps."""

    def __init__(self, source, target, ring_map, monoid_map):
        self.source = source
        self.target = target
        self.ring_map = ring_map
        self.monoid_map = monoid_map
        # logls fills these: LogLsData per FactorizationOptions, and the
        # (H0, H1, H2) reports per (options, coefficient name)
        self._log_ls = {}
        self._log_reports = {}

    def is_well_defined(self):
        for i in range(self.source.monoid.n_gens):
            word = self.source.monoid.unit(i)
            lhs = self.ring_map.apply(self.source.alpha[i])
            rhs = self.target.alpha_of(self.monoid_map.apply(word))
            if not self.target.algebra.is_zero(lhs - rhs):
                return False
        return True

    def is_strict(self):
        return self.monoid_map.is_strict()


@dataclass(frozen=True)
class FactorizationOptions:
    """Knobs for alternative intermediate choices, for stability checks.
    Frozen, so it can key the per-morphism log complex memo."""

    extra_x: bool = False       # add a redundant cover of the first N gen
    reverse_x: bool = False     # reverse the order of the new monoid gens
    front_raw: bool = False     # reverse the front cover's kernel gens


@dataclass
class Factorization:
    """(A, M) -> (R, P0) -> (B, N) with both second maps surjective."""

    morphism: "PrelogMorphism"
    mid: "PrelogRing"                 # (R, P0)
    left: "PrelogMorphism"            # (A, M) -> (R, P0)
    right: "PrelogMorphism"           # (R, P0) -> (B, N)
    options: FactorizationOptions     # the options it was built with


def choose_log_factorization(morphism, options=FactorizationOptions()):
    """Factor (A, M) -> (B, N) through a free-over-the-source middle.

    P0 = M + free monoid on covers of the N generators, mapping onto N;
    R = A[one variable per new monoid generator, one per B variable],
    mapping onto B.  Deterministic given the options.
    """
    src, tgt = morphism.source, morphism.target
    a_alg = src.algebra
    m, n = src.monoid, tgt.monoid

    covers = list(range(n.n_gens))
    if options.extra_x and n.n_gens:
        covers = covers + [0]
    if options.reverse_x:
        covers = list(reversed(covers))
    x_names = [f"x@{n.gen_names[gi]}" if covers.count(gi) == 1
               else f"x@{n.gen_names[gi]}#{k}"
               for k, gi in enumerate(covers)]
    x_words = [n.unit(gi) for gi in covers]

    p0 = m.free_adjunction(x_names)
    # h: P0 -> N, the morphism's monoid map on M, the covers on X
    h = MonoidHom(p0, n,
                  [morphism.monoid_map.images[i] for i in range(m.n_gens)]
                  + x_words)

    # R = A[x@..., y@...] -> B: x@ to alpha_B of the cover, y@ to the B
    # variable itself
    r_alg, r_to_b = adjoin_target_vars(
        morphism.ring_map,
        [(nm, tgt.alpha_of(w)) for nm, w in zip(x_names, x_words)])
    a_to_r = AlgebraMap(a_alg, r_alg, [r_alg.var(v) for v in a_alg.varnames])
    # structure map of (R, P0): alpha_A on M, the new variables on X
    mid = PrelogRing(r_alg, p0, [a_to_r.apply(p) for p in src.alpha]
                     + [r_alg.var(nm) for nm in x_names])
    left = PrelogMorphism(
        src, mid, a_to_r,
        MonoidHom(m, p0, [p0.unit(i) for i in range(m.n_gens)]))
    right = PrelogMorphism(mid, tgt, r_to_b, h)

    return Factorization(morphism, mid, left, right, options)
