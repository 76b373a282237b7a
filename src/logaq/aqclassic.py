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

For a complete intersection the Koszul relations generate U, so U/U_0
is zero (Lichtenbaum and Schlessinger, Trans. AMS 128, 1967).
`u_mod_u0` finds that from the Koszul columns alone and builds the
module known to be zero, so the second syzygies of U are never lifted,
and H2 and the pushout of the log complex carry the zero (see modules).
"""

from dataclasses import dataclass
from functools import cached_property

from .gbcore import vec_from_polys
from .groebner import AlgebraMap, adjoin_target_vars
from .modules import (FpModule, ModHom, Complex3, CommutationFailure,
                      tensor_complex, HomologyReport)


@dataclass
class LsData:
    r_to_b: AlgebraMap
    base_nvars: int
    i_gens: list          # tau: F -> I on the free basis of F
    u_vecs: list          # syzygies of i_gens, vectors over F's positions

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


def build_ls(r_to_b, base_nvars, cover):
    """LsData for the surjection R -> B, whose first `base_nvars`
    variables are the base's, with tau: F -> I the given `cover` of its
    kernel I.  The cover holds normal forms in R and is used as given.
    """
    u_vecs = FpModule.free(r_to_b.source, 1).syzygies_of(
        [[p] for p in cover], packed=True)
    return LsData(r_to_b, base_nvars, cover, u_vecs)


def u_mod_u0(data):
    """U/U_0 over B: the syzygy columns modulo the Koszul columns
    tau(e_i) e_j - tau(e_j) e_i for i < j, presented on the syzygy
    columns.

    The syzygy vectors are the reduced Groebner basis of U, so one
    division by them expresses each Koszul column, with no lift.  When
    these expressions, cast to B, already trim to no generators, as
    they do for a complete intersection, U/U_0 is `FpModule.zero_on`
    the syzygy columns, known to be zero, and the second syzygies of U
    are never lifted.  Otherwise its relations are the lifted second
    syzygies and then the expressions, cast to B and not made canonical
    over R.  Either way a reader of them reads only the submodule they
    span: the pushout of the log complex takes them as relations, H2
    presents its kernel by `ModHom.kernel`, whose reduced bases depend
    on that span alone, and the checks of the squares and of d1 d2 = 0
    test membership in it.  On the full path, which the Veronese maps
    take, their reduced basis would cost one more Buchberger run over
    R: with it, the log complex of the Veronese d=5 map took 4.4 times
    the CPU (3.35 s against 0.76 s, medians of 10 runs on one 2-vCPU
    host), while on the benchmark workloads the difference stayed
    within their run-to-run spread.
    """
    r, m = data.r, data.n_cover
    b, n = data.r_to_b.target, len(data.u_vecs)
    if not n:
        return FpModule.zero_on(b, 0)
    packer, neg = r.packer, r.field.neg
    gens = [vec_from_polys([g], packer) for g in data.i_gens]
    t = data.u_basis
    exprs = []
    for i in range(m):
        for j in range(i + 1, m):
            # tau(e_i) in position j, -tau(e_j) in position i
            col = {u - (j << packer.top): c for u, c in gens[i].items()}
            col.update((u - (i << packer.top), neg(c))
                       for u, c in gens[j].items())
            e = t.express(col)
            if e is None:
                raise CommutationFailure("a Koszul column is no syzygy")
            exprs.append(e)
    koszul = data.r_to_b.cast_vecs(exprs, n)
    # U/U_0 is the first Koszul homology of the cover.  At a maximal
    # ideal holding the cover it vanishes only if the cover is a regular
    # sequence there (Bruns and Herzog, Cohen-Macaulay Rings, 1.6.19),
    # no longer than R has variables; so a longer cover leaves U/U_0
    # nonzero, or B = 0, where no trim finds a constant, and the zero
    # test would fail anyway
    if m <= r.nvars and not FpModule(b, n, koszul).trim().n_gens:
        return FpModule.zero_on(b, n)
    return FpModule(b, n, data.r_to_b.cast_vecs(t.raw, n) + koszul)


def ls_complex(data):
    """The complex U/U_0 -> F/IF -> B (x) Omega_{R|A} over B."""
    r_to_b = data.r_to_b
    c2 = u_mod_u0(data)
    c1 = FpModule.free(r_to_b.target, data.n_cover)
    c0 = FpModule.free(r_to_b.target, data.omega_rank)
    d2 = ModHom(c2, c1, r_to_b.cast_vecs(data.u_vecs, data.n_cover))
    d1 = ModHom(c1, c0, r_to_b.apply_cols(
        [[f.derivative(v) for v in range(data.base_nvars, data.r.nvars)]
         for f in data.i_gens]))
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
