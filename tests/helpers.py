"""Shared test utilities: morphism construction from input text, the
input texts of the complete-intersection and toric families and of two
log smooth ones (the Veronese and the semistable maps), the lex order,
exact linear algebra over a field and an integer determinant, small
oracles on polynomials, algebras (the leading exponents of an ideal's
basis among them), abelian groups and term orders, the coefficient forms
of the fields, the degree-truncated linear-algebra oracle used to
cross-check Groebner results, a spy that tells a lifted tagged basis
from a Buchberger fallback and from one never lifted, the tagged
Buchberger run that subquotients and expressions are checked against,
the Koszul columns of a cover, U/U_0 presented by all the second
syzygies whatever the module, and the previous forms that code in
`logaq` is checked against: the nested order keys and the
exponent-tuple product and lcm behind the packed terms, the leading term
of a polynomial, the dense presentation trim, the box-walk staircase
count, the fixpoint shift inference and the kernel generators built by a
second Buchberger run."""

from fractions import Fraction
from itertools import product

from logaq.inputspec import parse_input, build_morphism
from logaq.polynomials import Poly, exp_divides
from logaq import gbcore
from logaq.modules import FpModule
from logaq.gbcore import (buchberger_vec, polys_from_vec, reduce_vec,
                          reducer_index, vec_from_polys)
from logaq.groebner import buchberger
from logaq.intlinalg import IntMatrix, snf
from logaq.abgroups import FpAbGroup


def exact_form(c, field):
    """Whether c has the form the field keeps its elements in: over QQ an
    int when integral and a Fraction otherwise, never a float; over F_p
    an int in range(p)."""
    if field.characteristic:
        return type(c) is int and c in range(field.characteristic)
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def morphism(text, field_name=None):
    return build_morphism(parse_input(text), field_name=field_name)


class TaggedBuild:
    """A tagged basis that `FpModule._tagged` built: its module, whether
    its syzygies were lifted since (`lifted`, set when the lift is tried)
    and whether that lift gave up for a Buchberger run (`fell_back`)."""

    def __init__(self, module):
        self.module = module
        self.lifted = False
        self.fell_back = False


def record_tagged_builds(monkeypatch, *scopes):
    """Spy on the tagged bases `FpModule._tagged` builds.

    Returns a list that gets a TaggedBuild for each tagged basis built
    while a function in `scopes` runs, or at any time when there is
    none.  A scope is an (owner, attribute name) pair, rebound for the
    test.  `TaggedGB` lifts its syzygies only on first demand, whenever
    that comes, and runs Buchberger only when the lift returns False.
    """
    builds, depth, records = [], [0], {}
    real_lift, real_tagged = gbcore.TaggedGB._lift, FpModule._tagged

    def lift(self):
        held = real_lift(self)
        record = records.get(self)
        if record is not None:
            record.lifted = True
            record.fell_back = not held
        return held

    def tagged(module, vecs):
        t = real_tagged(module, vecs)
        if depth[0] or not scopes:
            records[t] = TaggedBuild(module)
            builds.append(records[t])
        return t

    def scoped(real):
        def run(*args, **kwargs):
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        return run
    monkeypatch.setattr(gbcore.TaggedGB, "_lift", lift)
    monkeypatch.setattr(FpModule, "_tagged", tagged)
    for owner, name in scopes:
        monkeypatch.setattr(owner, name, scoped(getattr(owner, name)))
    return builds


def tagged_build(columns, relations, n_main, packer, field):
    """(TaggedGB(...) with its syzygies built, whether that fell back to
    a Buchberger run)."""
    runs = [0]
    real = gbcore.buchberger_vec

    def counted(*args):
        runs[0] += 1
        return real(*args)
    gbcore.buchberger_vec = counted
    try:
        t = gbcore.TaggedGB(columns, relations, n_main, packer, field)
        assert t.raw is not None
    finally:
        gbcore.buchberger_vec = real
    return t, runs[0] > 0


class TaggedOracle:
    """The tagged basis of vectors `columns` modulo vectors `relations`,
    built the way the package first did: one Buchberger run on the
    tagged columns and the relations, neither a Groebner basis
    beforehand.

    `syzygies` is the reduced basis of the tag-only elements, over the
    positions of the columns, and `express(v)` the negated tag part of
    v's full normal form: the canonical expression, or None."""

    def __init__(self, columns, relations, n_main, packer, field):
        self.packer, self.field = packer, field
        unit = (0,) * packer.nvars
        tagged = []
        for i, col in enumerate(columns):
            v = dict(col)
            v[packer.pack(n_main + i, unit)] = field.one()
            tagged.append(v)
        gb = buchberger_vec(tagged + list(relations), packer, field)
        self._index = reducer_index(gb, packer)
        self._floor = (1 - n_main) << packer.top
        self._shift = n_main << packer.top
        self.syzygies = [self._tags(g, lambda c: c) for g in gb
                         if max(g) < self._floor]

    def _tags(self, v, coeff):
        return {t + self._shift: coeff(c) for t, c in v.items()
                if t < self._floor}

    def express(self, v):
        nf = reduce_vec(v, self._index, self.packer, self.field)
        if any(t >= self._floor for t in nf):
            return None
        return self._tags(nf, self.field.neg)


def module_oracle(module, columns, modulo=()):
    """TaggedOracle of `columns` modulo `modulo` and the module's
    relation vectors, on columns of Polys; returns (the syzygies as
    columns, a function giving a target's canonical expression as a
    column or None)."""
    alg = module.algebra
    packer, field, n = alg.packer, alg.field, len(columns)
    oracle = TaggedOracle(
        [vec_from_polys(c, packer) for c in columns],
        [vec_from_polys(c, packer) for c in modulo]
        + module._relation_vecs(), module.n_gens, packer, field)

    def express(target):
        e = oracle.express(vec_from_polys(target, packer))
        return None if e is None else polys_from_vec(e, n, packer, field)
    return ([polys_from_vec(s, n, packer, field) for s in oracle.syzygies],
            express)


def koszul_columns(algebra, gens):
    """The Koszul syzygies gens[i] e_j - gens[j] e_i of the elements
    `gens` of the algebra, for i < j, as columns."""
    m = len(gens)
    cols = []
    for i in range(m):
        for j in range(i + 1, m):
            col = [algebra.zero()] * m
            col[j] = gens[i]
            col[i] = -gens[j]
            cols.append(col)
    return cols


def u_mod_u0_by_submodule(data):
    """U/U_0 of an LsData over B the way that does not look for zero:
    the syzygy columns over R modulo the Koszul columns, presented by
    `FpModule.submodule` on all their second syzygies, cast to B."""
    r, m, n = data.r, data.n_cover, len(data.u_vecs)
    free = FpModule.free(r, m)
    u = free.submodule(free._columns(data.u_vecs, m),
                       koszul_columns(r, data.i_gens))
    return FpModule(data.r_to_b.target, n,
                    data.r_to_b.apply_cols(u.rel_cols))


def _names(pool, n):
    """The first n one-letter names of the pool; raises rather than
    silently build a smaller instance."""
    if n > len(pool):
        raise ValueError(f"{n} names asked of the {len(pool)}-name pool "
                         f"{pool!r}")
    return pool[:n]


def ci_text(degrees):
    """k[x..] -> k[x..]/(x_i^{d_i}) over QQ, strict."""
    vs = _names("xyzwvs", len(degrees))
    rels = ", ".join(f'"{v}^{d}"' for v, d in zip(vs, degrees))
    ring_map = ", ".join(f'{v} = "{v}"' for v in vs)
    return f"""[meta]
strict = true
prop12 = true

[field]
name = "QQ"

[source]
vars = [{", ".join(vs)}]
relations = []
gens = []
alpha = {{}}

[target]
vars = [{", ".join(vs)}]
relations = [{rels}]
gens = []
alpha = {{}}

[morphism]
ring_map = {{ {ring_map} }}
monoid_map = {{}}
"""


def toric_text(n):
    """The sum map (k[u_1..u_n], N^n) -> (k[t], N) over F3."""
    return weighted_toric_text((1,) * n, "F3")


def weighted_toric_text(weights, field):
    """(k[u_1..u_n], N^n) -> (k[t], N) sending u_i to t^w_i and the i-th
    monoid generator to w_i, over the named field; a log surjection
    when some weight is 1."""
    n = len(weights)
    vs, gs = _names("uvwxyzrs", n), _names("abcdfghj", n)
    alpha = ", ".join(f'{g} = "{v}"' for g, v in zip(gs, vs))
    ring_map = ", ".join(f'{v} = "t^{w}"' if w > 1 else f'{v} = "t"'
                         for v, w in zip(vs, weights))
    monoid_map = ", ".join(f"{g} = [{w}]" for g, w in zip(gs, weights))
    return f"""[meta]
surjection = true
prop12 = true
alt = true

[field]
name = "{field}"

[source]
vars = [{", ".join(vs)}]
relations = []
gens = [{", ".join(gs)}]
alpha = {{ {alpha} }}

[target]
vars = [t]
relations = []
gens = [e]
alpha = {{ e = "t" }}

[morphism]
ring_map = {{ {ring_map} }}
monoid_map = {{ {monoid_map} }}
"""


def veronese_text(d):
    """(k, trivial) -> (k[z_0..z_d]/(2x2 minors), M) over QQ, with M the
    monoid of the degree-d rational normal curve and alpha(m_i) = z_i:
    toric and log smooth, with H0 = B^2 free and H1 = H2 = 0."""
    zs = [f"z{i}" for i in range(d + 1)]
    ms = [f"m{i}" for i in range(d + 1)]
    rels = []
    for i in range(d):
        for j in range(i + 1, d):
            rels.append(f'"{zs[i]}*{zs[j + 1]} - {zs[i + 1]}*{zs[j]}"')
            u, v = [0] * (d + 1), [0] * (d + 1)
            u[i] += 1
            u[j + 1] += 1
            v[i + 1] += 1
            v[j] += 1
            rels.append(f"[{u}, {v}]")
    alpha = ", ".join(f'{m} = "{z}"' for m, z in zip(ms, zs))
    return f"""[field]
name = "QQ"

[source]
vars = []
relations = []
gens = []
alpha = {{}}

[target]
vars = [{", ".join(zs)}]
relations = [{", ".join(rels)}]
gens = [{", ".join(ms)}]
alpha = {{ {alpha} }}

[morphism]
ring_map = {{}}
monoid_map = {{}}
"""


def semistable_text(n):
    """(k[t], N) -> (k[x_1..x_n], N^n) over QQ with t -> x_1...x_n:
    log smooth, with H0 = B^(n-1) free and H1 = H2 = 0."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    fs = [f"f{i}" for i in range(1, n + 1)]
    alpha = ", ".join(f'{f} = "{x}"' for f, x in zip(fs, xs))
    return f"""[field]
name = "QQ"

[source]
vars = [t]
relations = []
gens = [e]
alpha = {{ e = "t" }}

[target]
vars = [{", ".join(xs)}]
relations = []
gens = [{", ".join(fs)}]
alpha = {{ {alpha} }}

[morphism]
ring_map = {{ t = "{'*'.join(xs)}" }}
monoid_map = {{ e = {[1] * n} }}
"""


def total_degree(p):
    if p.is_zero():
        return -1
    return max(sum(e) for e in p.coeffs)


def mul_monomial(p, exp):
    """p times the monomial x^exp."""
    return Poly({exp_mul(e, exp): c for e, c in p.coeffs.items()}, p.field)


def leading(p, order):
    """(exponent, coefficient) of the leading term of p under `order`."""
    exp = max(p.coeffs, key=order.key)
    return exp, p.coeffs[exp]


def lt_exponents(algebra):
    """Leading exponents of the reduced Groebner basis of the ideal."""
    return [leading(g, algebra.order)[0] for g in algebra.gb()]


def is_trivial(algebra):
    """Whether the quotient is the zero ring (1 lies in the ideal)."""
    g = algebra.gb()
    return len(g) == 1 and g[0].is_constant() and not g[0].is_zero()


def group_from_invariants(torsion, rank=0):
    """Direct sum of Z/d for d in torsion and `rank` copies of Z."""
    n = len(torsion) + rank
    cols = []
    for i, d in enumerate(torsion):
        col = [0] * n
        col[i] = d
        cols.append(col)
    return FpAbGroup(n, IntMatrix.from_columns(cols, n))


def group_elements_equal(group, a, b):
    """Whether the integer vectors a and b are equal in the group."""
    diff = [x - y for x, y in zip(a, b)]
    return snf(group.relations).solve(diff) is not None


class Lex:
    """Pure lexicographic order, a second order for the Groebner tests."""

    @staticmethod
    def key(exp):
        return exp


# The nested sort keys and the exponent-tuple arithmetic the engine used
# before its terms were packed: oracles for the packed ones.

def exp_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def nested_degrevlex(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def nested_block_elim(n_first):
    def key(exp):
        a, b = exp[:n_first], exp[n_first:]
        return (sum(a), tuple(-e for e in reversed(a)),
                sum(b), tuple(-e for e in reversed(b)))
    return key


def nested_pot(okey):
    """Position-over-term key of (position, exponent) terms."""
    def key(term):
        pos, exp = term
        return (-pos, okey(exp))
    return key


def det(a):
    """Integer determinant (Bareiss), for test-sized matrices."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    m = [list(r) for r in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def field_kernel(rows, field):
    """Reduced-echelon basis of the null space of a matrix over a field.

    `rows` is a list of row lists of field elements; returns a list of
    column vectors.  Each basis vector has a 1 in its free coordinate and
    zeros in the other free coordinates.
    """
    if not rows:
        return []
    nc = len(rows[0])
    m = [list(r) for r in rows]
    nr = len(m)
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nr):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.add(x, field.neg(field.mul(f, y)))
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    pivot_set = set(pivots)
    basis = []
    for c in range(nc):
        if c in pivot_set:
            continue
        vec = [field.zero()] * nc
        vec[c] = field.one()
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(m[i][c])
        basis.append(vec)
    return basis


def field_solve(rows, b, field):
    """Canonical solution of the linear system over a field, or None.

    `rows` is the coefficient matrix, `b` the right-hand side; the
    particular solution with all free coordinates zero is returned.
    """
    nr = len(rows)
    if nr == 0:
        return []
    nc = len(rows[0])
    m = [list(r) + [x] for r, x in zip(rows, b)]
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nr):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.add(x, field.neg(field.mul(f, y)))
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if not field.is_zero(m[i][nc]):
            return None
    x = [field.zero()] * nc
    for i, c in enumerate(pivots):
        x[c] = m[i][nc]
    return x


def field_rank(rows, field):
    if not rows:
        return 0
    return len(rows[0]) - len(field_kernel(rows, field))


def monomials_upto(nvars, degree):
    """All exponent vectors of total degree <= degree."""
    out = []
    for exp in product(range(degree + 1), repeat=nvars):
        if sum(exp) <= degree:
            out.append(exp)
    return sorted(out)


def poly_vector(p, basis_index, field):
    """Coefficient vector of p on an exponent-vector basis."""
    v = [field.zero()] * len(basis_index)
    for e, c in p.coeffs.items():
        v[basis_index[e]] = c
    return v


def truncated_ideal_span(gens, nvars, degree, field):
    """Row vectors spanning the degree-<= part of the ideal.

    Valid as the full truncation for homogeneous generators, where
    multiples cannot cancel back down in degree.
    """
    basis = monomials_upto(nvars, degree)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for g in gens:
        d = total_degree(g)
        for m in monomials_upto(nvars, degree - d):
            q = mul_monomial(g, m)
            if all(sum(e) <= degree for e in q.coeffs):
                rows.append(poly_vector(q, index, field))
    return rows, basis, index


def span_rank(rows, field):
    return field_rank(rows, field) if rows else 0


def in_span(rows, vec, field):
    """Whether vec lies in the row span, by a rank comparison."""
    r0 = span_rank(rows, field)
    return span_rank(rows + [vec], field) == r0


def oracle_syzygy_dim(gens, nvars, degree, field):
    """Dimension of { (c_i) : sum c_i g_i = 0, deg(c_i g_i) <= degree }
    computed by plain linear algebra over the field."""
    basis = monomials_upto(nvars, degree)
    index = {e: i for i, e in enumerate(basis)}
    cols = []
    layout = []
    for i, g in enumerate(gens):
        for m in monomials_upto(nvars, degree - total_degree(g)):
            cols.append(poly_vector(mul_monomial(g, m), index, field))
            layout.append((i, m))
    if not cols:
        return 0, layout
    rows = [[c[r] for c in cols] for r in range(len(basis))]
    return len(field_kernel(rows, field)), layout


def syzygy_span_dim(syzygies, gens, nvars, degree, field):
    """Dimension of the degree-truncated span of the computed syzygies,
    in the same coordinate layout as oracle_syzygy_dim."""
    _dim, layout = oracle_syzygy_dim(gens, nvars, degree, field)
    index = {im: j for j, im in enumerate(layout)}
    rows = []
    for s in syzygies:
        bounds = [degree - total_degree(g) for g in gens]
        top = max((bounds[i] - total_degree(s[i])
                   for i in range(len(gens)) if not s[i].is_zero()),
                  default=-1)
        for m in monomials_upto(nvars, max(top, -1) if top >= 0 else -1):
            row = [field.zero()] * len(layout)
            ok = True
            for i, comp in enumerate(s):
                q = mul_monomial(comp, m)
                for e, c in q.coeffs.items():
                    if (i, e) not in index:
                        ok = False
                        break
                    row[index[(i, e)]] = c
                if not ok:
                    break
            if ok:
                rows.append(row)
    return span_rank(rows, field)


def dense_trim(module):
    """`FpModule.trim` by dense columns: after each pivot every remaining
    column is rebuilt and every entry of it normalized."""
    alg = module.algebra
    f = alg.field
    gens = list(range(module.n_gens))
    cols = [[alg.nf(p) for p in c] for c in module.rel_cols]
    while True:
        hit = None
        for ci, col in enumerate(cols):
            for j, p in enumerate(col):
                if p.is_constant() and not p.is_zero():
                    hit = (ci, j)
                    break
            if hit:
                break
        if hit is None:
            break
        ci, j = hit
        pivot = cols.pop(ci)
        u = pivot[j].coeffs[(0,) * alg.nvars]
        inv = f.inv(u)
        new_cols = []
        for col in cols:
            cj = col[j]
            if cj.is_zero():
                new_cols.append([p for i, p in enumerate(col) if i != j])
                continue
            adj = [alg.nf(p - cj.scale(inv) * pivot[i])
                   for i, p in enumerate(col) if i != j]
            new_cols.append(adj)
        cols = new_cols
        gens = [g for i, g in enumerate(gens) if i != j]
    cols = [c for c in cols if any(not p.is_zero() for p in c)]
    return FpModule(alg, len(gens), cols)


def staircase_by_walk(lt_exps, nvars):
    """`staircase_dimension` by testing every point of the bounding box
    against every generator."""
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
    count = 0
    stack = [(0, (0,) * nvars)]
    while stack:
        i, exp = stack.pop()
        if i == nvars:
            if not any(exp_divides(g, exp) for g in lt_exps):
                count += 1
            continue
        for e in range(bounds[i]):
            stack.append((i + 1, exp[:i] + (e,) + exp[i + 1:]))
    return count


def infer_shifts_by_fixpoint(module):
    """`FpModule.infer_shifts` as a fixpoint loop over all constraints:
    each component is propagated from its lowest generator until nothing
    changes, every constraint is checked at the end, and one global
    minimum is subtracted."""
    w = module.algebra.weights
    if not module.algebra.is_graded():
        return None
    n = module.n_gens
    shifts = [None] * n
    constraints = []
    for col in module.rel_cols:
        entries = []
        for j, p in enumerate(col):
            if p.is_zero():
                continue
            degs = p.weighted_degrees(w)
            if len(degs) != 1:
                return None
            entries.append((j, next(iter(degs))))
        for (j1, d1), (j2, d2) in zip(entries, entries[1:]):
            constraints.append((j1, j2, d1 - d2))
    for start in range(n):
        if shifts[start] is not None:
            continue
        shifts[start] = 0
        changed = True
        while changed:
            changed = False
            for j1, j2, diff in constraints:
                if shifts[j1] is not None and shifts[j2] is None:
                    shifts[j2] = shifts[j1] + diff
                    changed = True
                elif shifts[j2] is not None and shifts[j1] is None:
                    shifts[j1] = shifts[j2] - diff
                    changed = True
    for j1, j2, diff in constraints:
        if shifts[j2] - shifts[j1] != diff:
            return None
    m = min(shifts) if shifts else 0
    return [s - m for s in shifts]


def kernel_by_second_run(algebra_map):
    """Kernel generators in two steps: the graph basis elements free of
    target variables, normalized modulo the source ideal and run through
    Buchberger's algorithm again with the source relations; then each
    element of that basis in normal form, zeros and repeats dropped."""
    ring, nt, _ns = algebra_map._graph()
    source = algebra_map.source
    kept = [Poly({exp[nt:]: c for exp, c in g.coeffs.items()}, source.field)
            for g in ring.gb()
            if all(all(e == 0 for e in exp[:nt]) for exp in g.coeffs)]
    out = [q for q in (source.nf(p) for p in kept) if not q.is_zero()]
    basis = buchberger(out + list(source.relations), source.packer,
                       source.field)
    gens, seen = [], set()
    for g in basis:
        q = source.nf(g)
        if q.is_zero() or q in seen:
            continue
        seen.add(q)
        gens.append(q)
    return gens
