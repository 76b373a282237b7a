"""Classical three-term cotangent complex of a ring map, degrees 0 to 2.

Given A -> B of finite presentation, adjoin one variable per target
variable to get a surjection R = A[Y] -> B with kernel I, pick a free
cover F -> I, and form

    U/U_0  -->  F/IF  -->  B (x) Omega_{R|A}

with U the syzygies of the chosen ideal generators and U_0 the Koszul
ones.  Homology with coefficients in a B-module T gives the classical
Andre-Quillen homology in degrees 0-2.  The same builder accepts an
externally supplied (R, R->B) and extra leading cover generators so the
log pipeline can reuse it with its own factorization.
"""

from dataclasses import dataclass

from .groebner import PresentedAlgebra, AlgebraMap, adjoin_target_vars
from .modules import (FpModule, ModHom, Complex3, tensor_complex,
                      HomologyReport)


@dataclass
class LsData:
    r: PresentedAlgebra
    b: PresentedAlgebra
    r_to_b: AlgebraMap
    base_nvars: int
    i_gens: list          # tau: F -> I on the free basis of F
    u_cols: list          # syzygies of i_gens, columns over F
    u0_cols: list         # Koszul columns tau(e_i) e_j - tau(e_j) e_i

    @property
    def n_cover(self):
        return len(self.i_gens)

    @property
    def omega_rank(self):
        return self.r.nvars - self.base_nvars


def build_ls(r, b, r_to_b, base_nvars, front_gens=None, extra_gens=()):
    """LsData for the surjection R -> B.

    `front_gens` overrides the canonical cover, the kernel generators
    of R -> B; any `extra_gens` are placed first, so the cover contains
    a free summand on them with tau extending the given values (needed
    when the log pipeline supplies images of its monoid-side ideal
    generators).  Both are normal forms in R, and are used as given.
    """
    if front_gens is None:
        front_gens = r_to_b.kernel_generators()
    i_gens = [*extra_gens, *front_gens]
    r_mod = FpModule.free(r, 1)
    u_cols = r_mod.syzygies_of([[p] for p in i_gens])
    m = len(i_gens)
    u0_cols = []
    for i in range(m):
        for j in range(i + 1, m):
            col = [r.zero()] * m
            col[j] = i_gens[i]
            col[i] = -i_gens[j]
            u0_cols.append(col)
    return LsData(r, b, r_to_b, base_nvars, i_gens, u_cols, u0_cols)


def u_mod_u0(data):
    """U/U_0 as an FpModule over B, generated by the syzygy columns."""
    u = FpModule.free(data.r, data.n_cover).submodule(data.u_cols,
                                                       data.u0_cols)
    rels_b = [[data.r_to_b.apply(p) for p in c] for c in u.rel_cols]
    return FpModule(data.b, u.n_gens, rels_b)


def ls_complex(data):
    """The complex U/U_0 -> F/IF -> B (x) Omega_{R|A} over B."""
    b = data.b
    m = data.n_cover
    c2 = u_mod_u0(data)
    c1 = FpModule.free(b, m)
    c0 = FpModule.free(b, data.omega_rank)
    d2 = ModHom(c2, c1,
                [[data.r_to_b.apply(p) for p in col]
                 for col in data.u_cols])
    d1_cols = []
    for f in data.i_gens:
        col = []
        for v in range(data.base_nvars, data.r.nvars):
            col.append(data.r_to_b.apply(f.derivative(v)))
        d1_cols.append(col)
    d1 = ModHom(c1, c0, d1_cols)
    cx = Complex3(d2, d1)
    if not cx.is_complex():
        raise ValueError("d1 d2 is not zero")
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
    r, r_to_b = adjoin_target_vars(a_to_b, [])
    data = build_ls(r, a_to_b.target, r_to_b, a_to_b.source.nvars)
    c = ls_complex(data)
    t = coefficient_module(a_to_b.target, coefficients)
    h0, h1, h2 = tensor_complex(c, t).homology()
    return HomologyReport(h0), HomologyReport(h1), HomologyReport(h2)
