"""Finitely presented abelian groups and their homomorphisms.

A group is Z^n modulo the column span of an integer relation matrix.
Kernels, cokernels, and invariant factors all reduce to Smith normal
form computations from intlinalg; the canonical solve there makes every
choice of generators reproducible.
"""

from .intlinalg import IntMatrix, snf, int_kernel


class FpAbGroup:
    """Z^n_gens / (column span of `relations`)."""

    def __init__(self, n_gens, relations=None):
        self.n_gens = n_gens
        if relations is None:
            relations = IntMatrix.zero(n_gens, 0)
        if relations.nrows != n_gens:
            raise ValueError("relation matrix needs one row per generator")
        self.relations = relations
        self._snf = None

    @classmethod
    def free(cls, n):
        return cls(n)

    def _rel_snf(self):
        if self._snf is None:
            self._snf = snf(self.relations)
        return self._snf

    def invariants(self):
        """(torsion factors > 1 in divisibility order, free rank)."""
        res = self._rel_snf()
        torsion = [d for d in res.invariant_factors if d != 1]
        rank = self.n_gens - res.rank
        return torsion, rank

    def tensor_dim(self, field):
        """dim_k of G tensor_Z k."""
        torsion, rank = self.invariants()
        p = field.characteristic
        if p == 0:
            return rank
        return rank + sum(1 for d in torsion if d % p == 0)

    def tor1_dim(self, field):
        """dim_k of Tor_1^Z(G, k)."""
        torsion, _rank = self.invariants()
        p = field.characteristic
        if p == 0:
            return 0
        return sum(1 for d in torsion if d % p == 0)

    def __repr__(self):
        torsion, rank = self.invariants()
        parts = [f"Z/{d}" for d in torsion] + ["Z"] * rank
        return " + ".join(parts) if parts else "0"


class AbHom:
    """Homomorphism of f.p. abelian groups, as a matrix on generators."""

    def __init__(self, source, target, matrix):
        if matrix.nrows != target.n_gens or matrix.ncols != source.n_gens:
            raise ValueError("matrix shape must be target gens x source gens")
        self.source = source
        self.target = target
        self.matrix = matrix

    def kernel(self):
        """(inclusion matrix, kernel group).

        The inclusion columns generate {x : f(x) = 0 in target} in the
        source generator coordinates; the group presents those columns.
        """
        a = self.matrix
        rt = self.target.relations
        stacked_cols = (a.columns()
                        + [[-x for x in c] for c in rt.columns()])
        stacked = IntMatrix.from_columns(stacked_cols, a.nrows)
        if stacked.ncols == 0:
            stacked = IntMatrix.zero(a.nrows, 0)
        ker = int_kernel(stacked)
        inc_cols = [col[: a.ncols] for col in ker.columns()]
        inc = IntMatrix.from_columns(inc_cols, a.ncols)
        # relations among the inclusion columns, modulo source relations
        rs = self.source.relations
        stacked2 = IntMatrix.from_columns(
            inc.columns() + [[-x for x in c] for c in rs.columns()],
            a.ncols)
        ker2 = int_kernel(stacked2)
        rel_cols = [col[: inc.ncols] for col in ker2.columns()]
        group = FpAbGroup(inc.ncols,
                          IntMatrix.from_columns(rel_cols, inc.ncols))
        return inc, group

    def cokernel(self):
        rels = IntMatrix.from_columns(
            self.target.relations.columns() + self.matrix.columns(),
            self.target.n_gens)
        return FpAbGroup(self.target.n_gens, rels)

    def is_injective(self):
        _inc, ker = self.kernel()
        torsion, rank = ker.invariants()
        return not torsion and rank == 0

    def is_surjective(self):
        torsion, rank = self.cokernel().invariants()
        return not torsion and rank == 0

    def is_isomorphism(self):
        return self.is_injective() and self.is_surjective()
