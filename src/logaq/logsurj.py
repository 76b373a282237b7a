"""Invariants of surjective prelog morphisms.

For (C, Q) -> (B, N) with both C -> B and Q -> N surjective, this
module computes Tor_n^C(B, B) from an iterated-syzygy free resolution,
the two monoid correction terms built from ker(Q^gp -> N^gp), and the
conormal module

    coker( B (x) b/b^2  -->  a/a^2 (+) ker(Q^gp -> N^gp) (x) B )

with a = ker(C -> B) and b = ker(k[Q] -> k[N]).  Tor and a/a^2 present
their syzygies over C and cast them to B with `AlgebraMap.apply_cols`.
The edge-consistency check compares the conormal module against H1 of
the log complex of the same morphism.
"""

from .modules import FpModule, ModHom, HomologyReport, CommutationFailure
from .kcomplex import group_module
from .logls import log_homology, MonoidFace


class LogSurjection:
    """A prelog morphism with surjective ring and monoid maps, plus the
    kernel data the section-two formulas consume."""

    def __init__(self, morphism):
        self.morphism = morphism
        self.c_alg = morphism.source.algebra
        self.b_alg = morphism.target.algebra
        self.face = MonoidFace(morphism)
        if not morphism.ring_map.is_surjective():
            raise ValueError("ring map is not surjective")
        if not self.face.h_alg.is_surjective():
            raise ValueError("monoid map is not surjective")
        self.a_gens = morphism.ring_map.kernel_generators()
        self.kergp_inc, self.kergp = morphism.monoid_map.gp().kernel()


def tor_over_c(s, n):
    """HomologyReports of Tor_i^C(B, B) for i = 0..n, with 0 <= n <= 4:
    resolve B over C, cast the differentials to B, take homology."""
    if not 0 <= n <= 4:
        raise ValueError("depth must be between 0 and 4")
    # cols[i]: C^{r_{i+1}} -> C^{r_i} of the free resolution of B
    ranks = [1, len(s.a_gens)]
    cols = [[[g] for g in s.a_gens]]
    for _step in range(n):
        cols.append(FpModule.free(s.c_alg, ranks[-2]).syzygies_of(cols[-1]))
        ranks.append(len(cols[-1]))
    frees = [FpModule.free(s.b_alg, r) for r in ranks]
    diffs = [ModHom(source, target, s.morphism.ring_map.apply_cols(c))
             for source, target, c in zip(frees[1:], frees, cols)]
    reports = [HomologyReport(diffs[0].cokernel())]
    for low, high in zip(diffs, diffs[1:]):
        reports.append(HomologyReport(low.kernel(high.image_cols)))
    return reports


def w_terms(s, n):
    """The monoid correction term in degree n: ker(Q^gp -> N^gp) (x) B
    for n = 1, its integral torsion (Tor_1^Z with B) for n = 2, zero
    otherwise."""
    b_alg = s.b_alg
    if n == 1:
        return HomologyReport(group_module(s.kergp, b_alg))
    if n == 2:
        return HomologyReport(
            FpModule.free(b_alg, s.kergp.tor1_dim(b_alg.field)))
    return HomologyReport(FpModule.free(b_alg, 0))


def a_conormal(s):
    """a/a^2 (x) B: generated by the chosen generators of a, with the
    syzygies over C cast to B as relations."""
    a = FpModule.free(s.c_alg, 1).submodule([[g] for g in s.a_gens])
    return FpModule(s.b_alg, a.n_gens,
                    s.morphism.ring_map.apply_cols(a.rel_cols))


def conormal_module(s):
    """Cokernel of B (x) b/b^2 -> a/a^2 (+) kergp (x) B."""
    b_alg = s.b_alg
    amod = a_conormal(s)
    kmod = group_module(s.kergp, b_alg)
    na, nk = amod.n_gens, kmod.n_gens
    zero = b_alg.zero()

    rels = [list(c) + [zero] * nk for c in amod.rel_cols]
    rels += [[zero] * na + list(c) for c in kmod.rel_cols]

    face = s.face
    # second component: alpha_B(image of v) * (u - v) in the chosen
    # generators of ker(Q^gp -> N^gp), per binomial x^u - x^v of b
    seconds = face.w0_columns(s.kergp_inc)
    # first component: the image alpha_C(u) - alpha_C(v) in a, expressed
    # in the chosen generators and cast to B
    elts = [[face.p_to_a.apply(g)] for g in face.gens]
    cos = FpModule.free(s.c_alg, 1).express_in([[g] for g in s.a_gens],
                                               elts)
    for co, second in zip(cos, seconds):
        if co is None:
            raise CommutationFailure(
                "kernel binomial image does not lie in a")
        if second is None:
            raise CommutationFailure(
                "kernel binomial does not land in ker gp")
    firsts = s.morphism.ring_map.apply_cols(cos)
    rels += [first + second for first, second in zip(firsts, seconds)]
    return FpModule(b_alg, na + nk, rels)


def check_edge_identity(s):
    """Compare H1 of the log complex against the conormal module.

    Returns (h1_report, conormal_report, agree)."""
    reports = log_homology(s.morphism)
    h1 = reports[1]
    con = HomologyReport(conormal_module(s))
    return h1, con, h1.same_as(con)
