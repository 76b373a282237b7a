"""Buchberger engine for submodules of free modules over a polynomial ring.

Vectors are dicts {packed term: coefficient}, with terms packed by the
ring's `Packer` (see polynomials): one int per (position, exponent), so
that integer order is the module order, position-over-term.  Position 0
is greatest, ties are broken by the ring order.  Since earlier positions
dominate outright, every position prefix is an elimination block;
appending tag positions behind the main block therefore tracks
coefficients: Groebner elements with empty main part are syzygies, and
reducing a tagged vector to zero reads off its expression in the
original columns.  A module's relations enter the same basis untagged,
so syzygies and expressions are taken modulo them.

`vec_from_polys` and `polys_from_vec` are the one boundary between
Polys and vectors: each term is packed once on the way in and unpacked
once on the way out.  In between, the leading term of a vector is its
max, a product by a monomial is `+`, a quotient in one position is `-`,
`not (a - b) & packer.guards` says that b divides a in one position, and
`t >> packer.top` is minus t's position, which keys every index by
position here.  A product that reaches the exponent bound sets a guard
bit of its term and raises `ExponentOverflow`.

Ring-level Groebner bases are the one-position case.

A tagged basis has one constructor, `TaggedGB`, whose relations are a
Groebner basis, and the constructor builds it completely.  When the
columns and the relations are together a Groebner basis, as every cover
and every kernel basis is, Schreyer's lift proves it: one reduction per
S-pair leaves a lifted syzygy in the tags (Eisenbud, Commutative
Algebra, Thm 15.10; La Scala and Stillman, J. Symb. Comp. 26, 1998).  A
Buchberger run builds the basis only when a reduction leaves a main
term.  An empty column's unit syzygy stays out of every Buchberger run.
The lifts are kept raw, as generators of the syzygy module; its
reduced Groebner basis, unique for the order and so the same from
either builder, is computed on first demand.

Strategy, after Gebauer and Moeller, "On an installation of Buchberger's
algorithm" (J. Symb. Comp. 6, 1988):

  * S-pairs exist only between elements whose leading terms share a
    position.  Pending pairs sit in a heap keyed by (lcm, i, j), so the
    smallest lcm is taken first (normal strategy), ties by index.  Each
    leading position also keeps its pending pairs, so that criterion B_k
    scans only the new element's position; a pair it drops stays in the
    heap and is skipped when popped.
  * Each new element h updates the pairs.  Criterion B_k drops a pending
    pair {g_i, g_j} in h's position whose lcm the leading term of h
    divides, unless lcm(g_i, h) or lcm(g_j, h) equals it.  Among the new
    pairs {g, h}, criterion M drops a pair whose lcm another new pair's
    lcm divides, and criterion F keeps one pair per lcm.  Buchberger's
    coprime (product) criterion is applied only when both vectors are
    supported in their one common position: there they behave like ring
    elements, elsewhere the criterion is not valid.
  * Older elements whose leading term that of h divides stop making
    pairs and stop serving as reducers.
  * Reduction updates one dict in place.  It takes terms in descending
    order from a min-heap of negated terms with lazy deletion, and finds
    the first reducer whose leading term divides through an index by
    leading position.  Terms past the last position with a reducer
    cannot be reduced and skip the heap.
  * At the end, elements whose leading term another one's divides are
    dropped, each survivor's tail is reduced once against that minimal
    basis, and the result is made monic.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .polynomials import ExponentOverflow, Poly


def vec_from_polys(col, packer):
    """Column of Polys (one per position) to a vector dict."""
    out = {}
    for i, p in enumerate(col):
        if p is None or p.is_zero():
            continue
        shift = i << packer.top
        for exp, c in p.coeffs.items():
            out[packer.monomial(exp) - shift] = c
    return out


def polys_from_vec(v, n_pos, packer, field):
    """Vector dict to a column of n_pos Polys; the positions it leaves
    empty share one zero."""
    cols = {}
    for t, c in v.items():
        pos, exp = packer.unpack(t)
        d = cols.get(pos)
        if d is None:
            d = cols[pos] = {}
        d[exp] = c
    zero = Poly.zero(field)
    return [Poly(cols[i], field) if i in cols else zero
            for i in range(n_pos)]


def _reducer(v, lt):
    """Reducer entry (leading term, tail items, leading coefficient)."""
    return lt, [(t, c) for t, c in v.items() if t != lt], v[lt]


def reducer_index(vecs, packer):
    """Reducers of the nonzero `vecs` by leading position, in list order:
    {minus position: [(leading term, tail items, leading coefficient)]}."""
    index = {}
    for v in vecs:
        if v:
            lt = max(v)
            index.setdefault(lt >> packer.top, []).append(_reducer(v, lt))
    return index


def _add_multiple(work, tail, shift, c, field, guards):
    """work += c * shift * tail in place, for a monomial `shift`; returns
    the terms new to work.

    Coefficients are plain ints and Fractions (see fields), so the loop
    uses the operators: over F_p it reduces each term once mod p, over QQ
    it turns a Fraction with denominator 1 back into an int.  Stored
    terms have clear guard bits, so a product that sets one is new.
    """
    p = field.characteristic
    new = []
    for t, a in tail:
        t += shift
        old = work.get(t)
        s = c * a if old is None else old + c * a
        if p:
            s %= p
        elif s.__class__ is Fraction and s.denominator == 1:
            s = s.numerator
        if old is None:
            if t & guards:
                raise ExponentOverflow("a product has an exponent too "
                                       "large: exponents must be below 2^31")
            work[t] = s
            new.append(t)
        elif s:
            work[t] = s
        else:
            del work[t]
    return new


def reduce_vec(v, basis, packer, field):
    """Full normal form of v against a reducer index (see reducer_index).

    The terms of the result come in descending order: those past the
    last position with a reducer follow the rest, sorted once at the end.
    """
    guards, top = packer.guards, packer.top
    floor = min(basis, default=1) << top
    work = dict(v)
    heap = [-t for t in work if t >= floor]
    heapify(heap)
    result = {}
    while heap:
        lt = -heappop(heap)
        c = work.pop(lt, None)
        if c is None:
            continue        # cancelled after it was pushed
        for glt, tail, glc in basis.get(lt >> top, ()):
            if not (lt - glt) & guards:
                break
        else:
            result[lt] = c
            continue
        # the leading term cancels: only the reducer's tail is added
        factor = field.neg(field.div(c, glc))
        for t in _add_multiple(work, tail, lt - glt, factor, field, guards):
            if t >= floor:
                heappush(heap, -t)
    if work:
        for t in sorted(work, reverse=True):
            result[t] = work[t]
    return result


def _s_vector(ri, rj, lcm, field, guards):
    """S-vector of two reducer entries in one leading position, whose
    leading terms have lcm `lcm`; the cancelling leading terms are left
    out."""
    s = {}
    for (glt, tail, lc), c in ((ri, field.inv(ri[2])),
                               (rj, field.neg(field.inv(rj[2])))):
        _add_multiple(s, tail, lcm - glt, c, field, guards)
    return s


def buchberger_vec(gens, packer, field):
    """Reduced Groebner basis of the submodule generated by `gens`.

    Output is canonical: monic, auto-reduced, sorted by ascending leading
    term.  Deterministic pair selection (normal strategy, smallest lcm).
    """
    guards, top, lcm_of = packer.guards, packer.top, packer.lcm
    elems = []      # per element: (leading term, reducer entry, minus the
    #                 position of its whole support or None)
    active = {}     # leading position -> indices of the elements that
    #                 make pairs and reduce
    reducers = {}   # leading position -> their reducer entries
    pending = {}    # leading position -> {(i, j): lcm} of the pairs not
    #                 yet taken or dropped
    pairs = []      # heap of (lcm, i, j)

    def update(h):
        lt = max(h)
        key = lt >> top
        single = key if min(h) >> top == key else None
        mono = lt - (key << top)
        same = active.setdefault(key, [])
        new = []
        for i in same:
            ilt, _r, isingle = elems[i]
            lcm = lcm_of(ilt, lt)
            new.append((lcm, i, single is not None and isingle == single
                        and lcm - ilt == mono))
        # criteria M and F; a coprime pair is kept here only so that it
        # rules out the pairs whose lcm its lcm divides
        kept = []
        for n, (lcm, i, coprime) in enumerate(new):
            if coprime or not (
                    any(not (lcm - new[m][0]) & guards
                        for m in range(n + 1, len(new)))
                    or any(not (lcm - q) & guards for q, _i, _c in kept)):
                kept.append((lcm, i, coprime))
        # criterion B_k on the pending pairs of h's position
        mine = pending.setdefault(key, {})
        for ij in [ij for ij, lcm in mine.items()
                   if not (lcm - lt) & guards
                   and lcm_of(elems[ij[0]][0], lt) != lcm
                   and lcm_of(elems[ij[1]][0], lt) != lcm]:
            del mine[ij]
        h_idx = len(elems)
        for lcm, i, coprime in kept:
            if not coprime:
                heappush(pairs, (lcm, i, h_idx))
                mine[i, h_idx] = lcm
        elems.append((lt, _reducer(h, lt), single))
        same[:] = [i for i in same if (elems[i][0] - lt) & guards]
        same.append(h_idx)
        reducers[key] = [elems[i][1] for i in same]

    for g in gens:
        if g:
            update(g)
    while pairs:
        lcm, i, j = heappop(pairs)
        if pending[lcm >> top].pop((i, j), None) is None:
            continue        # dropped by criterion B_k
        s = reduce_vec(_s_vector(elems[i][1], elems[j][1], lcm, field,
                                 guards),
                       reducers, packer, field)
        if s:
            update(s)

    # minimal basis: active leading terms are distinct, so drop those
    # that another one properly divides
    minimal = []
    for idx in active.values():
        lts = [elems[i][0] for i in idx]
        minimal += [elems[i] for i, lt in zip(idx, lts)
                    if not any(q != lt and not (lt - q) & guards
                               for q in lts)]
    minimal.sort(key=lambda el: el[0])
    index = {}
    for lt, entry, _single in minimal:
        index.setdefault(lt >> top, []).append(entry)
    out = []
    for lt, (_lt, tail, lc), _single in minimal:
        inv = field.inv(lc)
        v = {lt: field.one()}
        for t, c in reduce_vec(dict(tail), index, packer, field).items():
            v[t] = field.mul(inv, c)
        out.append(v)
    return out


def _tag(columns, n_main, packer, field):
    """Column i with the unit vector in position n_main + i added."""
    zero = (0,) * packer.nvars
    out = []
    for i, col in enumerate(columns):
        v = dict(col)
        v[packer.pack(n_main + i, zero)] = field.one()
        out.append(v)
    return out


class TaggedGB:
    """Tagged basis of columns modulo relations, for syzygies and
    expressions.

    `columns` and `relations` are vectors supported in positions
    < n_main, and `relations` is a Groebner basis.  Column i is tagged
    with the unit vector in position n_main + i; the relations enter
    untagged.  Main positions dominate the tags, so a vector whose main
    part reduces to zero leaves in its tags an expression in the
    columns, modulo the relations, and the tag-only vectors are the
    syzygies.

    An empty column k has the unit syzygy e_k, and no other syzygy has a
    term in position k, so the units stay out of every Buchberger run:
    the reduced basis is the units and that of the other columns'
    syzygies.  A caller passes a column known to be zero as an empty one.

    The constructor builds the basis completely.  Division starts with
    the nonzero columns and the relations, and Schreyer's lift proves
    that these are together a Groebner basis; when it fails, a
    Buchberger run becomes the basis.  `raw` generates the syzygy
    module, over the positions of the columns: the units, then the
    lifted S-pair reductions or the run's reduced basis of the rest.
    `syzygies()` is the reduced basis, unique for the order, so both
    builders give it alike.  `express` gives some expression, not a
    canonical one.
    """

    def __init__(self, columns, relations, n_main, packer, field):
        self.packer = packer
        self.field = field
        # the least term in a main position; tags lie below it, and a
        # tag term moves to its column's position by adding `_shift`
        self._main_floor = (1 - n_main) << packer.top
        self._shift = n_main << packer.top
        tagged = _tag(columns, n_main, packer, field)
        led = [v for col, v in zip(columns, tagged) if col]
        self._units = [self._tags(v)
                       for col, v in zip(columns, tagged) if not col]
        entries = [_reducer(v, max(v)) for v in led + relations]
        self._basis = {}
        for entry in entries:
            self._basis.setdefault(entry[0] >> packer.top, []).append(entry)
        self._syzygies = None
        self._lifts = self._lift(len(led), entries)
        if self._lifts is None:
            gb = buchberger_vec(led + relations, packer, field)
            self._basis = reducer_index(gb, packer)
            self._lifts = [self._tags(g) for g in gb
                           if max(g) < self._main_floor]
            self._syzygies = sorted(self._units + self._lifts, key=max)
        self.raw = self._units + self._lifts

    def _lift(self, n_led, entries):
        """Schreyer's lift: the lifted syzygies of the nonzero columns,
        or None when they and the relations, whose reducer entries
        `entries` are (the first `n_led` of them the columns'), are no
        Groebner basis.

        A tagged column makes S-pairs only with later elements in its
        leading position whose multiplier lcm / (its leading term) is
        minimal under divisibility, ties to the earliest: these are the
        leading terms of the Schreyer lifts, so the kept lifts generate
        every syzygy (Eisenbud, Commutative Algebra, Thm 15.10).  Pairs
        of two relations lift within the relations alone and are left
        out.  Each kept S-vector is reduced once by the led columns and
        the relations: a main term left over means they are no Groebner
        basis; otherwise the tags left are the lifted syzygy.
        """
        packer, field = self.packer, self.field
        guards, top = packer.guards, packer.top
        raw = []
        for a, ra in enumerate(entries[:n_led]):
            lta = ra[0]
            mults = [(packer.lcm(lta, rb[0]) - lta, rb)
                     for rb in entries[a + 1:] if rb[0] >> top == lta >> top]
            for n, (mult, rb) in enumerate(mults):
                if any(not (mult - q) & guards and (q != mult or n2 < n)
                       for n2, (q, _rb) in enumerate(mults)):
                    continue
                s = reduce_vec(_s_vector(ra, rb, lta + mult, field, guards),
                               self._basis, packer, field)
                if s:
                    if next(iter(s)) >= self._main_floor:
                        return None     # terms come in descending order
                    raw.append(self._tags(s))
        return raw

    def _tags(self, v):
        """The tag part of v, moved to the positions of the columns."""
        shift = self._shift
        return {t + shift: c for t, c in v.items() if t < self._main_floor}

    def syzygies(self):
        """The reduced Groebner basis of the syzygy module, over the
        positions of the columns: the units and the reduced basis of
        the lifts; computed once."""
        if self._syzygies is None:
            self._syzygies = sorted(
                self._units + buchberger_vec(self._lifts, self.packer,
                                             self.field), key=max)
        return self._syzygies

    def express(self, v):
        """Coefficients c with v = sum c_i * column_i modulo the
        relations, as a vector over the positions of the columns, or
        None if v is not in their span.

        One division by the basis, so the coefficients are some
        expression, not a canonical one; reducing them modulo
        `syzygies()` gives the canonical one.  The basis is a Groebner
        basis, so a division that leaves a main term proves that v is
        not in the span.
        """
        nf = reduce_vec(v, self._basis, self.packer, self.field)
        if nf and next(iter(nf)) >= self._main_floor:
            return None     # terms come in descending order
        neg = self.field.neg
        return {t: neg(c) for t, c in self._tags(nf).items()}
