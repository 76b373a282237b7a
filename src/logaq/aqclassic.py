"""Classical three-term cotangent complex of a ring map, degrees 0 to 2.

Given A -> B of finite presentation, adjoin one variable per target
variable to get a surjection R = A[Y] -> B with kernel I, pick a free
cover F -> I, and form

    U/U_0  -->  F/IF  -->  B (x) Omega_{R|A}

with U the syzygies of the chosen ideal generators and U_0 the Koszul
ones.  Homology with coefficients in a B-module T gives the classical
Andre-Quillen homology in degrees 0-2.  The caller picks R -> B and the
cover, so the log pipeline reuses `build_ls` with its own; every term
over R is base changed to B by `AlgebraMap`, the syzygies and their
expressions straight from their packed vectors by `cast_vecs`.

When R has no relations and the cover's leading monomials are pairwise
coprime, the cover is a Groebner basis whose syzygies are the Koszul
ones (Buchberger's first criterion; Eisenbud, Commutative Algebra,
Thm 15.10), so U = U_0 and U/U_0 is the module on no generators:
`build_ls` computes no syzygies, and d2 has no columns.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .gbcore import vec_from_polys
from .groebner import AlgebraMap, adjoin_target_vars
from .modules import (FpModule, ModHom, Complex3, CommutationFailure,
                      tensor_complex, HomologyReport)


@dataclass
class LsData:
    r_to_b: AlgebraMap
    base_nvars: int
    i_gens: list          # tau: F -> I on the free basis of F
    u_vecs: list          # syzygies of i_gens, vectors over F's positions;
                          # empty when U = U_0 by the criterion

    @property
    def r(self):
        return self.r_to_b.source

    @property
    def n_cover(self):
        return len(self.i_gens)

    @property
    def omega_rank(self):
        return self.r.nvars - self.base_nvars

    @cached_property
    def u_basis(self):
        """The tagged basis of the syzygy vectors in F, for expressions
        in them: one per cover, shared by U/U_0 and the log complex."""
        return FpModule.free(self.r, self.n_cover)._tagged(self.u_vecs)


def _syzygies_are_koszul(r, cover):
    """Whether R has no relations and the cover holds nonzero elements
    whose leading monomials are pairwise coprime: then every S-pair of
    the cover reduces to zero by Buchberger's first criterion, and its
    syzygies are generated by the Koszul ones."""
    if r.relations or any(p.is_zero() for p in cover):
        return False
    seen = 0
    for p in cover:
        exp = max(p.coeffs, key=r.order.key)
        support = sum(1 << v for v, e in enumerate(exp) if e)
        if support & seen:
            return False
        seen |= support
    return True


def build_ls(r_to_b, base_nvars, cover):
    """LsData for the surjection R -> B, whose first `base_nvars`
    variables are the base's, with tau: F -> I the given `cover` of its
    kernel I.  The cover holds normal forms in R and is used as given.
    Its syzygy vectors are the reduced Groebner basis of U, or none when
    U = U_0 by `_syzygies_are_koszul`.
    """
    r = r_to_b.source
    u_vecs = [] if _syzygies_are_koszul(r, cover) else \
        FpModule.free(r, 1).syzygies_of(
            [vec_from_polys([p], r.packer) for p in cover])
    return LsData(r_to_b, base_nvars, cover, u_vecs)


def u_mod_u0(data):
    """U/U_0 over B: the syzygy columns modulo the Koszul columns
    tau(e_i) e_j - tau(e_j) e_i for i < j, presented on the syzygy
    columns.

    With no syzygy vectors, U = U_0 and this is the module on no
    generators.  Otherwise they are the reduced Groebner basis of U, so
    one division by them expresses each Koszul column, with no lift.
    The relations are then the lifted second syzygies and the
    expressions, cast to B and not made canonical over R.  A reader of
    them reads only the submodule they span: the pushout of the log
    complex takes them as relations, H2 presents its kernel by
    `ModHom.kernel`, whose reduced bases depend on that span alone, and
    the checks of the squares and of d1 d2 = 0 test membership in it.
    Their reduced basis would cost one more Buchberger run over R: with
    it, the log complex of the Veronese d=5 map took 4.4 times the CPU
    (3.35 s against 0.76 s, medians of 10 runs on one 2-vCPU host),
    while on the benchmark workloads the difference stayed within their
    run-to-run spread.
    """
    r, m = data.r, data.n_cover
    b, n = data.r_to_b.target, len(data.u_vecs)
    if not n:
        return FpModule(b, 0)
    t = data.u_basis
    exprs = []
    for (i, gi), (j, gj) in combinations(enumerate(data.i_gens), 2):
        # tau(e_i) in position j, -tau(e_j) in position i
        col = [None] * m
        col[i], col[j] = -gj, gi
        e = t.express(vec_from_polys(col, r.packer))
        if e is None:
            raise CommutationFailure("a Koszul column is no syzygy")
        exprs.append(e)
    koszul = data.r_to_b.cast_vecs(exprs, n)
    return FpModule(b, n, data.r_to_b.cast_vecs(t.raw, n) + koszul)


def ls_complex(data):
    """The complex U/U_0 -> F/IF -> B (x) Omega_{R|A} over B."""
    r_to_b = data.r_to_b
    c2 = u_mod_u0(data)
    c1 = FpModule.free(r_to_b.target, data.n_cover)
    c0 = FpModule.free(r_to_b.target, data.omega_rank)
    d2 = ModHom(c2, c1, r_to_b.cast_vecs(data.u_vecs, data.n_cover))
    d1 = ModHom(c1, c0, [[r_to_b.apply(f.derivative(v))
                          for v in range(data.base_nvars, data.r.nvars)]
                         for f in data.i_gens])
    cx = Complex3(d2, d1)
    if not cx.is_complex():
        raise CommutationFailure("d1 d2 is not zero")
    return cx


def coefficient_module(b, name):
    """The cyclic coefficient module B/J: J = 0 for "self", J = the
    variables (the residue field at the origin) for "residue"."""
    if name == "self":
        return FpModule.free(b, 1)
    if name == "residue":
        return FpModule(b, 1, [[b.var(v)] for v in b.varnames])
    raise ValueError(f"unknown coefficient option {name!r}")


def aq_classical(a_to_b, coefficients="self"):
    """(H0, H1, H2) HomologyReports of the classical complex with the
    named coefficient module ("self" or "residue")."""
    _r, r_to_b = adjoin_target_vars(a_to_b, [])
    data = build_ls(r_to_b, a_to_b.source.nvars, r_to_b.kernel_generators())
    c = ls_complex(data)
    t = coefficient_module(a_to_b.target, coefficients)
    h0, h1, h2 = tensor_complex(c, t).homology()
    return HomologyReport(h0), HomologyReport(h1), HomologyReport(h2)
