"""The monoid-side three-term complex of a log factorization.

For (A, M) -> (R, P0) -> (B, N) with h: P0 -> N, let W0 be the kernel
of P0^gp -> N^gp, Q1 the free group on its generators, and W1 the
kernel of Q1 -> W0 (a lattice, hence free).  The complex is

    T (x) W1  -->  T (x) Q1  -->  T (x) P0^gp / M^gp

with integer differentials.  Its homology only depends on the kernel
and cokernel of M^gp -> N^gp, which gives closed-form dimensions used
as an independent cross-check.
"""

from dataclasses import dataclass

from .intlinalg import IntMatrix, lattice_basis, snf
from .abgroups import FpAbGroup
from .modules import (FpModule, ModHom, Complex3, CommutationFailure,
                      tensor_complex)


@dataclass
class KData:
    """Integer data of the right face of the main diagram."""

    w0_inc: IntMatrix       # P0 gens x W0 gens, inclusion into P0^gp
    w0: FpAbGroup           # kernel of P0^gp -> N^gp, on the inc columns
    w1_cols: IntMatrix      # W0 gens x W1 rank, basis of ker(Q1 -> W0)
    quotient: FpAbGroup     # P0^gp / M^gp on the P0 generators

    @property
    def n_q1(self):
        return self.w0.n_gens

    @property
    def n_w1(self):
        return self.w1_cols.ncols


def kdata_from_factorization(fac):
    """KData from the factorization's monoid maps M -> P0 and
    h: P0 -> N."""
    w0_inc, w0 = fac.right.monoid_map.gp().kernel()
    return KData(w0_inc, w0, lattice_basis(w0.relations),
                 fac.left.monoid_map.gp().cokernel())


def w0_coordinates(inc, p_rels, vecs):
    """Canonical coordinates, on the columns of the inclusion `inc` of a
    subgroup of P^gp, of each P^gp vector in `vecs`, or None for one
    that does not lie in it.

    `p_rels` are the relation columns of P^gp; the solves are modulo
    them, so any integer representative of an element works.  One
    Smith form serves every vector.
    """
    if not vecs:
        return []
    res = snf(IntMatrix.from_columns(inc.columns() + p_rels.columns(),
                                     inc.nrows))
    out = []
    for vec in vecs:
        sol = res.solve(vec)
        out.append(None if sol is None else sol[: inc.ncols])
    return out


def group_module(group, algebra):
    """The f.p. abelian group as a module over the algebra (base change
    of the presentation along Z -> k)."""
    cols = [[algebra.from_int(x) for x in c]
            for c in group.relations.columns()]
    return FpModule(algebra, group.n_gens, cols)


def int_matrix_hom(source, target, mat):
    """ModHom whose matrix is an integer matrix cast into the algebra."""
    alg = source.algebra
    cols = [[alg.from_int(mat.rows[i][j]) for i in range(mat.nrows)]
            for j in range(mat.ncols)]
    return ModHom(source, target, cols)


def right_face(kd, alg):
    """The complex W1 -> Q1 -> P0^gp/M^gp base changed to the algebra."""
    f2 = FpModule.free(alg, kd.n_w1)
    f1 = FpModule.free(alg, kd.n_q1)
    f0 = group_module(kd.quotient, alg)
    cx = Complex3(int_matrix_hom(f2, f1, kd.w1_cols),
                  int_matrix_hom(f1, f0, kd.w0_inc))
    if not cx.is_complex():
        raise CommutationFailure("d1 d2 is not zero")
    return cx


def build_k(kd, coefficients):
    """The complex T (x) W1 -> T (x) Q1 -> T (x) P0^gp/M^gp over B.

    `coefficients` is an FpModule over the target algebra.
    """
    return tensor_complex(right_face(kd, coefficients.algebra),
                          coefficients)


def closed_form_dims(monoid_map, t_dim, field):
    """(h0, h1, h2) of the monoid-side complex, predicted from the
    kernel and cokernel of the group completion of M -> N, for a
    coefficient module of k-dimension t_dim."""
    gp = monoid_map.gp()
    _inc, ker = gp.kernel()
    coker = gp.cokernel()
    h0 = t_dim * coker.tensor_dim(field)
    h1 = t_dim * (ker.tensor_dim(field) + coker.tor1_dim(field))
    h2 = t_dim * ker.tor1_dim(field)
    return h0, h1, h2


def check_prop12(kd, monoid_map, coefficients):
    """Compare computed homology of the monoid-side complex of `kd`
    against the closed-form dimensions for the morphism's monoid map
    M -> N; the coefficient module must be finite dimensional.  Returns
    (computed, predicted) dimension triples."""
    t_dim = coefficients.k_dimension()
    if t_dim is None:
        raise ValueError("closed-form check needs finite coefficients")
    h0, h1, h2 = build_k(kd, coefficients).homology()
    computed = (h0.k_dimension(), h1.k_dimension(), h2.k_dimension())
    field = coefficients.algebra.field
    predicted = closed_form_dims(monoid_map, t_dim, field)
    return computed, predicted
