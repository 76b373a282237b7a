"""Three-term logarithmic cotangent complex of a prelog morphism.

Given (A, M) -> (B, N) and a chosen factorization through (R, P0), the
complex is assembled degreewise as a pushout of three faces:

  * the front face, the classical complex of R -> B over A with the
    images of the monoid-side ideal generators placed first in the cover;
  * the back face, the classical complex of k[P0] -> k[N] over k[M],
    base changed to B;
  * the right face, the integer complex W1 -> Q1 -> P0^gp / M^gp of the
    monoid data, base changed to B.

The comparison maps out of the back face are the coordinate inclusions
(alpha) and the monoid-side maps (beta) built from the binomial shape of
ker(k[P0] -> k[N]).  Every square is checked; a failure raises
CommutationFailure, which callers surface as an internal error.
"""

from dataclasses import dataclass
from functools import cached_property

from .intlinalg import snf
from .polynomials import Poly
from .gbcore import vec_from_polys
from .groebner import AlgebraMap
from .modules import (ModHom, Complex3, CommutationFailure,
                      tensor_complex, HomologyReport, pushout, tensor_module)
from .aqclassic import (build_ls, ls_complex, coefficient_module,
                        aq_classical)
from .monoids import choose_log_factorization, FactorizationOptions
from .kcomplex import (kdata_from_factorization, group_module,
                       right_face, w0_coordinates)


def _binomial_words(alg, p):
    """(u, v) with p = x^u - x^v, for an element of a monomial-map kernel."""
    terms = p.terms_sorted(alg.order)
    if len(terms) != 2:
        raise CommutationFailure(
            f"kernel generator {alg.str_of(p)} is not a binomial")
    (u, cu), (v, cv) = terms
    one = alg.field.one()
    if cu != one or cv != alg.field.neg(one):
        raise CommutationFailure(
            f"kernel generator {alg.str_of(p)} is not a monomial difference")
    return u, v


class MonoidFace:
    """The monoid side of a prelog morphism f: (A, P) -> (B, N).

    It turns h: P -> N into algebra maps: h_alg: k[P] -> k[N],
    p_to_b = alpha_B after h, and p_to_a = alpha_A.  The binomial
    generators of ker(h_alg) and their words are computed on first use,
    so a caller can test surjectivity first.  It keeps no reference to
    f.
    """

    def __init__(self, f):
        p = f.source.monoid
        field = f.target.algebra.field
        n_alg = f.target.monoid.monoid_algebra(field)
        images = [f.monoid_map.apply(p.unit(i)) for i in range(p.n_gens)]
        self.p_alg = p.monoid_algebra(field)
        self.p_rels = p.group_completion().relations
        self.h_alg = AlgebraMap(self.p_alg, n_alg,
                                [_monomial(n_alg, w) for w in images])
        self.p_to_b = AlgebraMap(self.p_alg, f.target.algebra,
                                 [f.target.alpha_of(w) for w in images])
        self.p_to_a = AlgebraMap(self.p_alg, f.source.algebra,
                                 f.source.alpha)

    @cached_property
    def gens(self):
        """Binomial generators of ker(h_alg)."""
        return self.h_alg.kernel_generators()

    @cached_property
    def words(self):
        """(u, v) with x^u - x^v, one per generator."""
        return [_binomial_words(self.p_alg, g) for g in self.gens]

    def w0_columns(self, inc):
        """Per word (u, v): alpha_B(h(v)) times the coordinates of u - v
        on the columns of `inc`, an inclusion into P^gp, or None where
        u - v does not lie in its image."""
        b_alg = self.p_to_b.target
        coords = w0_coordinates(inc, self.p_rels,
                                [[a - b for a, b in zip(u, v)]
                                 for u, v in self.words])
        cols = []
        for (_u, v), z in zip(self.words, coords):
            if z is None:
                cols.append(None)
                continue
            scale = self.p_to_b.apply(_monomial(self.p_alg, v))
            cols.append([b_alg.from_int(c) * scale for c in z])
        return cols


def _monomial(alg, word):
    return Poly.monomial(tuple(word), alg.field.one(), alg.field)


@dataclass
class Diagram1:
    """All faces and comparison maps of the main diagram.

    It holds no reference to the factorization or the morphism: the
    morphism keeps its log complex, and a reference back would make a
    cycle that only the cyclic garbage collector frees.
    """

    front_complex: Complex3   # classical complex of R -> B over A
    back_complex: Complex3    # k[P0] -> k[N] over k[M], cast to B
    right_complex: Complex3   # W1 -> Q1 -> P0^gp / M^gp, over B
    alphas: list              # back -> front, degrees 0..2
    betas: list               # back -> right, degrees 0..2


def _check_square(low, high, label):
    if not low.equals(high):
        raise CommutationFailure(f"square {label} does not commute")


def build_diagram1(fac):
    """Faces and comparison maps for a chosen factorization."""
    mor = fac.morphism
    b_alg = mor.target.algebra
    n_m = mor.source.monoid.n_gens
    face = MonoidFace(fac.right)

    # front face: classical data of R -> B, J images first in the cover
    j_images = [face.p_to_a.apply(j) for j in face.gens]
    kernel = fac.right.ring_map.kernel_generators()
    if fac.options.front_raw:
        kernel = kernel[::-1]
    front = build_ls(fac.right.ring_map, mor.source.algebra.nvars,
                     j_images + kernel)
    front_complex = ls_complex(front)

    # back face: classical data of k[P0] -> k[N] over k[M], cast to B
    back = build_ls(face.p_to_b, n_m, face.gens)
    back_complex = ls_complex(back)

    # right face: the integer data, base changed to B
    kd = kdata_from_factorization(fac)
    right_complex = right_face(kd, b_alg)

    alphas = _build_alphas(front, front_complex, back, back_complex,
                           face.p_to_a)
    betas = _build_betas(back_complex, right_complex, kd, face, n_m)

    # mixed squares
    _check_square(alphas[1].compose(back_complex.d2),
                  front_complex.d2.compose(alphas[2]), "alpha degree 2")
    _check_square(alphas[0].compose(back_complex.d1),
                  front_complex.d1.compose(alphas[1]), "alpha degree 1")
    _check_square(betas[1].compose(back_complex.d2),
                  right_complex.d2.compose(betas[2]), "beta degree 2")
    _check_square(betas[0].compose(back_complex.d1),
                  right_complex.d1.compose(betas[1]), "beta degree 1")

    return Diagram1(front_complex, back_complex, right_complex, alphas,
                    betas)


def _build_alphas(front, front_complex, back, back_complex, s_map):
    """Coordinate inclusions back -> front in degrees 0..2."""
    g = back.n_cover
    # degree 0: dx_j for the new monoid generators sit first among the
    # non-base variables of R
    a0 = ModHom(back_complex.c0, front_complex.c0,
                [front_complex.c0.gen_column(j)
                 for j in range(back_complex.c0.n_gens)])
    # degree 1: the J images are the first cover generators
    a1 = ModHom(back_complex.c1, front_complex.c1,
                [front_complex.c1.gen_column(l) for l in range(g)])
    # degree 2: express each cast syzygy in the front syzygy generators,
    # by the front's own division basis of them; into a front U/U_0 on
    # no generators, the zero map
    cos = [{} for _ in back.u_vecs]
    if front.u_vecs:
        packer = front.r.packer
        cos = [front.u_basis.express(vec_from_polys(col, packer))
               for col in s_map.cast_vecs(back.u_vecs, g)]
        if None in cos:
            raise CommutationFailure(
                "cast syzygy is not a combination of the front syzygies")
    a2 = ModHom(back_complex.c2, front_complex.c2,
                front.r_to_b.cast_vecs(cos, len(front.u_vecs)))
    return [a0, a1, a2]


def _build_betas(back_complex, right_complex, kd, face, n_m):
    """Monoid-side maps back -> right in degrees 0..2."""
    b_alg = face.p_to_b.target

    # degree 0: dx -> alpha_B(h(x)) * class of x
    cols0 = []
    for jx in range(back_complex.c0.n_gens):
        pos = n_m + jx
        col = right_complex.c0.zero_column()
        col[pos] = face.p_to_b.images[pos]
        cols0.append(col)
    b0 = ModHom(back_complex.c0, right_complex.c0, cols0)

    # degree 1: x^u - x^v -> alpha_B(h(v)) * (u - v in W0 coordinates)
    cols1 = face.w0_columns(kd.w0_inc)
    if any(col is None for col in cols1):
        raise CommutationFailure("kernel binomial does not land in W0")
    b1 = ModHom(back_complex.c1, right_complex.c1, cols1)

    # degree 2: lift each syzygy image through the inclusion of W1
    w0_mod = group_module(kd.w0, b_alg)
    res = snf(kd.w1_cols)
    cols2 = []
    for col in back_complex.d2.image_cols:
        # col is already the syzygy cast to B over the back cover
        xi = [b_alg.nf(p) for p in b1.apply(col)]
        if not w0_mod.is_zero_element(xi):
            raise CommutationFailure(
                "syzygy image has nonzero component in W0")
        eta = _int_preimage(res, xi, b_alg)
        if eta is None:
            raise CommutationFailure(
                "syzygy image does not lift through W1")
        cols2.append(eta)
    b2 = ModHom(back_complex.c2, right_complex.c2, cols2)
    return [b0, b1, b2]


def _int_preimage(res, xi, b_alg):
    """Canonical eta with W1_cols * eta = xi over the algebra, where the
    Smith form of the integer inclusion is given, or None.  xi holds
    normal forms, so every integer combination of it is one too."""
    field = b_alg.field

    def times(mat, col):
        out = []
        for row in mat.rows:
            acc = b_alg.zero()
            for a, p in zip(row, col):
                if a:
                    acc = acc + p.scale(field.from_int(a))
            out.append(acc)
        return out

    d = res.invariant_factors
    y = [b_alg.zero()] * res.v.nrows
    for i, p in enumerate(times(res.u, xi)):
        di = field.from_int(d[i]) if i < len(d) else field.zero()
        if not field.is_zero(di):
            y[i] = p.scale(field.inv(di))
        elif not p.is_zero():
            return None
    return times(res.v, y)


@dataclass
class LogLsData:
    """Assembled pushout complex with the right-face inclusions."""

    diagram: Diagram1
    complex: Complex3
    inc_right: list            # right face -> pushout (epsilon)


def assemble_log_ls(diagram):
    """Degreewise pushout of the faces along alpha and beta."""
    pushed = []
    for i in range(3):
        pushed.append(pushout(diagram.alphas[i], diagram.betas[i]))
    mods = [p[0] for p in pushed]
    inc_front = [p[1] for p in pushed]
    inc_right = [p[2] for p in pushed]

    def induced(deg, front_d, right_d):
        lo = mods[deg - 1]
        cols = [inc_front[deg - 1].apply(c) for c in front_d.image_cols]
        cols += [inc_right[deg - 1].apply(c) for c in right_d.image_cols]
        return ModHom(mods[deg], lo, cols)

    d1 = induced(1, diagram.front_complex.d1, diagram.right_complex.d1)
    d2 = induced(2, diagram.front_complex.d2, diagram.right_complex.d2)
    cx = Complex3(d2, d1)
    if not cx.is_complex():
        raise CommutationFailure("d1 d2 is not zero")
    return LogLsData(diagram, cx, inc_right)


def log_ls(morphism, options=FactorizationOptions()):
    """Factor the morphism and assemble its log complex; computed once
    per options and kept on the morphism."""
    data = morphism._log_ls.get(options)
    if data is None:
        fac = choose_log_factorization(morphism, options)
        data = assemble_log_ls(build_diagram1(fac))
        morphism._log_ls[options] = data
    return data


def log_homology(morphism, coefficients="self",
                 options=FactorizationOptions()):
    """(H0, H1, H2) HomologyReports of the log complex with the named
    coefficient module ("self" or "residue"), kept on the morphism per
    options and name."""
    key = (options, coefficients)
    reports = morphism._log_reports.get(key)
    if reports is None:
        data = log_ls(morphism, options)
        t = coefficient_module(morphism.target.algebra, coefficients)
        h0, h1, h2 = tensor_complex(data.complex, t).homology()
        reports = HomologyReport(h0), HomologyReport(h1), HomologyReport(h2)
        morphism._log_reports[key] = reports
    return reports


def check_strict_reduction(morphism):
    """For a strict morphism, compare the log homology reports against
    the classical ones of the underlying ring map.

    Returns (log_reports, classical_reports, agree)."""
    if not morphism.is_strict():
        raise ValueError("strict reduction check needs a strict morphism")
    log_reports = log_homology(morphism)
    cls_reports = aq_classical(morphism.ring_map)
    agree = all(a.same_as(b) for a, b in zip(log_reports, cls_reports))
    return log_reports, cls_reports, agree


def check_compatibility_sequence(morphism):
    """Structural checks of the pushout against its faces.

    * the right-face inclusions in degrees 0 and 1 are split injective
      (an explicit retraction is produced and verified);
    * the cokernel of alpha agrees with the cokernel of the right-face
      inclusion in every degree;
    * with residue coefficients, the dimension of each assembled term in
      degrees 0 and 1 is dim(front) + dim(right) - dim(back).

    Returns a dict of booleans.
    """
    data = log_ls(morphism)
    dg = data.diagram
    out = {}

    # alpha is a coordinate inclusion in degrees 0 and 1; the retraction
    # is the projection onto those coordinates
    for i in (0, 1):
        alpha = dg.alphas[i]
        front_mod = alpha.target
        back_mod = alpha.source
        nb = back_mod.n_gens
        cols = [back_mod.gen_column(j) if j < nb else back_mod.zero_column()
                for j in range(front_mod.n_gens)]
        rho = ModHom(front_mod, back_mod, cols)
        out[f"alpha_{i}_split"] = rho.is_well_defined() and \
            rho.compose(alpha).equals(ModHom.identity(back_mod))

    # split injectivity of the right-face inclusion via an explicit
    # retraction
    for i in (0, 1):
        alpha, beta = dg.alphas[i], dg.betas[i]
        front_mod = alpha.target
        right_mod = beta.target
        push_mod = data.complex.c0 if i == 0 else data.complex.c1
        nb = alpha.source.n_gens
        cols = []
        for j in range(front_mod.n_gens):
            # alpha is the inclusion of the first nb coordinates
            cols.append(beta.image_cols[j] if j < nb
                        else right_mod.zero_column())
        for j in range(right_mod.n_gens):
            cols.append(right_mod.gen_column(j))
        rho = ModHom(push_mod, right_mod, cols)
        out[f"epsilon_{i}_split"] = rho.is_well_defined() and \
            rho.compose(data.inc_right[i]).equals(
                ModHom.identity(right_mod))

    # cokernel comparison in every degree
    for i in range(3):
        ca = dg.alphas[i].cokernel()
        ce = data.inc_right[i].cokernel()
        out[f"coker_{i}_match"] = HomologyReport(ca).same_as(
            HomologyReport(ce))

    # dimension count with residue coefficients
    b_alg = morphism.target.algebra
    t = coefficient_module(b_alg, "residue")
    backs = [dg.back_complex.c0, dg.back_complex.c1]
    fronts = [dg.front_complex.c0, dg.front_complex.c1]
    rights = [dg.right_complex.c0, dg.right_complex.c1]
    pushes = [data.complex.c0, data.complex.c1]
    for i in (0, 1):
        dims = [tensor_module(m, t).k_dimension()
                for m in (pushes[i], fronts[i], rights[i], backs[i])]
        if None in dims:
            out[f"euler_{i}"] = False
        else:
            out[f"euler_{i}"] = dims[0] == dims[1] + dims[2] - dims[3]
    return out
