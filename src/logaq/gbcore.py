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

A tagged basis is built one of two ways.  A Buchberger run on the
tagged columns and the relations always works.  When the columns,
together with relations that are a Groebner basis, are themselves a
Groebner basis, as every cover of the log and classical complexes is,
Schreyer's lift is cheaper: one reduction per S-pair leaves the lifted
syzygy in the tags (Eisenbud, Commutative Algebra, Thm 15.10), and one
small Buchberger run on the lifts completes the basis.  Both give the
same answers, since the tag-only elements are the reduced Groebner basis
of the syzygy module, unique for the order, and expressions are full
normal forms.

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
    cols = [dict() for _ in range(n_pos)]
    for t, c in v.items():
        pos, exp = packer.unpack(t)
        cols[pos][exp] = c
    return [Poly(d, field) for d in cols]


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
    """Groebner basis of tagged columns, for syzygies and expressions
    modulo relations.

    `columns` and `relations` are vectors supported in positions
    < n_main; column i is tagged with the unit vector in position
    n_main + i before the basis is computed, and the relations enter
    untagged.  Main positions dominate the tags, so:

      * elements with empty main part generate the syzygy module of the
        columns modulo the relations;
      * reducing (v, 0-tags) leaves tag coordinates that express v in the
        columns, modulo the relations, whenever the main part reduces to
        zero.

    The constructor builds the basis by a Buchberger run, `lift` by
    Schreyer's lift.  Either way the elements with empty main part are
    the reduced Groebner basis of the syzygy module, and `express` takes
    a full normal form, which every Groebner basis of the tagged module
    gives alike: both builders answer every question the same.
    """

    def __init__(self, columns, relations, n_main, packer, field):
        tagged = _tag(columns, n_main, packer, field)
        gb = buchberger_vec(tagged + relations, packer, field)
        self._adopt(gb, reducer_index(gb, packer), n_main, len(columns),
                    packer, field)

    @classmethod
    def lift(cls, columns, relations, n_main, packer, field):
        """The tagged basis by Schreyer's lift, or None when the nonzero
        columns and the relations are no Groebner basis.

        `relations` must be a Groebner basis.  A tagged column makes
        S-pairs only with later elements in its leading position whose
        multiplier lcm / (its leading term) is minimal under
        divisibility, ties to the earliest: these are the leading terms
        of the Schreyer lifts, so the kept lifts generate every syzygy.
        Pairs of two relations lift within the relations alone and are
        left out.  Each kept S-vector is reduced once by the led columns
        and the relations: a main term left over means they are no
        Groebner basis; otherwise the tags left are the lifted syzygy.
        A zero column is already one.  The basis is the led columns, the
        relations and the reduced Groebner basis of the syzygies.
        """
        guards, top = packer.guards, packer.top
        led, syz = [], []
        for col, v in zip(columns, _tag(columns, n_main, packer, field)):
            (led if col else syz).append(v)
        elems = led + relations
        entries, index = [], {}
        for v in elems:
            entries.append(_reducer(v, max(v)))
            index.setdefault(entries[-1][0] >> top, []).append(entries[-1])
        main_floor = (1 - n_main) << top
        for a, ra in enumerate(entries[:len(led)]):
            lta = ra[0]
            mults = [(packer.lcm(lta, rb[0]) - lta, rb)
                     for rb in entries[a + 1:] if rb[0] >> top == lta >> top]
            for n, (mult, rb) in enumerate(mults):
                if any(not (mult - q) & guards and (q != mult or n2 < n)
                       for n2, (q, _rb) in enumerate(mults)):
                    continue
                s = reduce_vec(_s_vector(ra, rb, lta + mult, field, guards),
                               index, packer, field)
                if s and next(iter(s)) >= main_floor:
                    return None     # terms come in descending order
                syz.append(s)
        syz = buchberger_vec(syz, packer, field)
        # the syzygies lead in tag positions, the elements in main ones
        index.update(reducer_index(syz, packer))
        t = cls.__new__(cls)
        t._adopt(elems + syz, index, n_main, len(columns), packer, field)
        return t

    def _adopt(self, gb, basis, n_main, n_cols, packer, field):
        """Keep the basis `gb` and its reducer index `basis`."""
        self.gb = gb
        self._basis = basis
        self.n_main = n_main
        self.n_cols = n_cols
        self.packer = packer
        self.field = field
        # the least term in a main position; tags lie below it
        self._main_floor = (1 - n_main) << packer.top

    def tag_part(self, v):
        shift = self.n_main << self.packer.top
        return {t + shift: c for t, c in v.items() if t < self._main_floor}

    def syzygies(self):
        """Generators of the syzygy module, as vectors over tag positions."""
        return [self.tag_part(g) for g in self.gb
                if max(g) < self._main_floor]

    def express(self, v):
        """Coefficients writing v in the columns, or None.

        Returns a list of Polys c_i with v = sum c_i * column_i modulo the
        relations; canonical because the tagged reduction is a full
        normal form.
        """
        nf = reduce_vec(dict(v), self._basis, self.packer, self.field)
        if nf and next(iter(nf)) >= self._main_floor:
            return None     # terms come in descending order
        cols = polys_from_vec(self.tag_part(nf), self.n_cols, self.packer,
                              self.field)
        return [-p for p in cols]
