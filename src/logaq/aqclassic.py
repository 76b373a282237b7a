"""Classical three-term cotangent complex of a ring map, degrees 0 to 2.

Given A -> B of finite presentation, adjoin one variable per target
variable to get a surjection R = A[Y] -> B with kernel I, pick a free
cover F -> I, and form

    U/U_0  -->  F/IF  -->  B (x) Omega_{R|A}

with U the syzygies of the chosen ideal generators and U_0 the Koszul
ones.  Homology with coefficients in a B-module T gives the classical
Andre-Quillen homology in degrees 0-2.  The caller picks R -> B and the
cover, so the log pipeline reuses `build_ls` with its own; every term
over R is base changed to B by `AlgebraMap.apply_cols`.
"""

from dataclasses import dataclass

from .groebner import AlgebraMap, adjoin_target_vars
from .modules import (FpModule, ModHom, Complex3, CommutationFailure,
                      tensor_complex, HomologyReport)


@dataclass
class LsData:
    r_to_b: AlgebraMap
    base_nvars: int
    i_gens: list          # tau: F -> I on the free basis of F
    u_cols: list          # syzygies of i_gens, columns over F

    @property
    def r(self):
        return self.r_to_b.source

    @property
    def n_cover(self):
        return len(self.i_gens)

    @property
    def omega_rank(self):
        return self.r.nvars - self.base_nvars


def build_ls(r_to_b, base_nvars, cover):
    """LsData for the surjection R -> B, whose first `base_nvars`
    variables are the base's, with tau: F -> I the given `cover` of its
    kernel I.  The cover holds normal forms in R and is used as given.
    """
    u_cols = FpModule.free(r_to_b.source, 1).syzygies_of(
        [[p] for p in cover])
    return LsData(r_to_b, base_nvars, cover, u_cols)


def u_mod_u0(data):
    """U/U_0 over B: the syzygy columns modulo the Koszul columns
    tau(e_i) e_j - tau(e_j) e_i for i < j."""
    r, gens, m = data.r, data.i_gens, data.n_cover
    koszul = []
    for i in range(m):
        for j in range(i + 1, m):
            col = [r.zero()] * m
            col[j] = gens[i]
            col[i] = -gens[j]
            koszul.append(col)
    u = FpModule.free(r, m).submodule(data.u_cols, koszul)
    return FpModule(data.r_to_b.target, u.n_gens,
                    data.r_to_b.apply_cols(u.rel_cols))


def ls_complex(data):
    """The complex U/U_0 -> F/IF -> B (x) Omega_{R|A} over B."""
    r_to_b = data.r_to_b
    c2 = u_mod_u0(data)
    c1 = FpModule.free(r_to_b.target, data.n_cover)
    c0 = FpModule.free(r_to_b.target, data.omega_rank)
    d2 = ModHom(c2, c1, r_to_b.apply_cols(data.u_cols))
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
