"""Buchberger engine for submodules of free modules over a polynomial ring.

Vectors are dicts {(position, exponent tuple): coefficient}.  The module
order is position-over-term: position 0 is greatest, ties are broken by
the ring order.  Since earlier positions dominate outright, every
position prefix is an elimination block; appending tag positions behind
the main block therefore tracks coefficients: Groebner elements with
empty main part are syzygies, and reducing a tagged vector to zero reads
off its expression in the original columns.  A module's relations enter
the same basis untagged, so syzygies and expressions are taken modulo
them.

Whatever compares terms here takes the ring's monomial order (see
polynomials), which alone decides how terms compare: `order.term_key(t)`
is a flat tuple of ints, greater for the greater term, and
`order.heap_key(t)` a flat tuple that is smaller for the greater term,
so that a min-heap pops the greatest term first.  Nothing here builds
keys of its own.

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
    position.  Pending pairs sit in a heap keyed by (lcm term, i, j), so
    the smallest lcm is taken first (normal strategy), ties by index.
  * Each new element h updates the pairs.  Criterion B_k drops a pending
    pair {g_i, g_j} whose lcm the leading term of h divides, unless
    lcm(g_i, h) or lcm(g_j, h) equals it.  Among the new pairs {g, h},
    criterion M drops a pair whose lcm another new pair's lcm divides,
    and criterion F keeps one pair per lcm.  Buchberger's coprime
    (product) criterion is applied only when both vectors are supported
    in their one common position: there they behave like ring elements,
    elsewhere the criterion is not valid.
  * Older elements whose leading term that of h divides stop making
    pairs and stop serving as reducers.
  * Reduction updates one dict in place.  It takes terms in descending
    order from a min-heap on `heap_key` with lazy deletion, and finds the
    first reducer whose leading exponent divides through an index by
    leading position.
  * At the end, elements whose leading term another one's divides are
    dropped, each survivor's tail is reduced once against that minimal
    basis, and the result is made monic.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, sub

from .polynomials import Poly, exp_divides, exp_lcm


def vec_leading(v, order):
    t = max(v, key=order.term_key)
    return t, v[t]


def vec_from_polys(col):
    """Column of Polys (one per position) to a vector dict."""
    out = {}
    for i, p in enumerate(col):
        if p is None or p.is_zero():
            continue
        for exp, c in p.coeffs.items():
            out[(i, exp)] = c
    return out


def polys_from_vec(v, n_pos, field):
    cols = [dict() for _ in range(n_pos)]
    for (pos, exp), c in v.items():
        cols[pos][exp] = c
    return [Poly(d, field) for d in cols]


def _reducer(v, lt):
    """Reducer entry (leading exponent, tail items, leading coefficient)."""
    return lt[1], [(t, c) for t, c in v.items() if t != lt], v[lt]


def reducer_index(vecs, order):
    """Reducers of the nonzero `vecs` by leading position, in list order:
    {position: [(leading exponent, tail items, leading coefficient)]}."""
    index = {}
    for v in vecs:
        if v:
            lt, _lc = vec_leading(v, order)
            index.setdefault(lt[0], []).append(_reducer(v, lt))
    return index


def _add_multiple(work, tail, shift, c, field):
    """work += c * x^shift * tail in place; returns the terms new to work.

    Coefficients are plain ints and Fractions (see fields), so the loop
    uses the operators: over F_p it reduces each term once mod p, over QQ
    it turns a Fraction with denominator 1 back into an int.
    """
    p = field.characteristic
    new = []
    for (pos, e), a in tail:
        t = (pos, tuple(map(add, e, shift)))
        old = work.get(t)
        s = c * a if old is None else old + c * a
        if p:
            s %= p
        elif s.__class__ is Fraction and s.denominator == 1:
            s = s.numerator
        if old is None:
            work[t] = s
            new.append(t)
        elif s:
            work[t] = s
        else:
            del work[t]
    return new


def reduce_vec(v, basis, order, field):
    """Full normal form of v against a reducer index (see reducer_index).

    The terms of the result come in descending order.
    """
    key = order.heap_key
    work = dict(v)
    heap = [(key(t), t) for t in work]
    heapify(heap)
    result = {}
    while heap:
        lt = heappop(heap)[1]
        c = work.pop(lt, None)
        if c is None:
            continue        # cancelled after it was pushed
        pos, exp = lt
        for gexp, tail, glc in basis.get(pos, ()):
            if exp_divides(gexp, exp):
                break
        else:
            result[lt] = c
            continue
        # the leading term cancels: only the reducer's tail is added
        factor = field.neg(field.div(c, glc))
        for t in _add_multiple(work, tail, tuple(map(sub, exp, gexp)),
                               factor, field):
            heappush(heap, (key(t), t))
    return result


def _s_vector(ri, rj, lcm, field):
    """S-vector of two reducer entries in one leading position, whose
    leading exponents have lcm `lcm`; the cancelling leading terms are
    left out."""
    s = {}
    for (gexp, tail, lc), c in ((ri, field.inv(ri[2])),
                                (rj, field.neg(field.inv(rj[2])))):
        _add_multiple(s, tail, tuple(map(sub, lcm, gexp)), c, field)
    return s


def _single_position(v):
    pos = None
    for (p, _e) in v:
        if pos is None:
            pos = p
        elif p != pos:
            return None
    return pos


def buchberger_vec(gens, order, field):
    """Reduced Groebner basis of the submodule generated by `gens`.

    Output is canonical: monic, auto-reduced, sorted by ascending leading
    term.  Deterministic pair selection (normal strategy, smallest lcm).
    """
    elems = []      # per element: (leading term, reducer entry, position
    #                 of its whole support or None)
    active = {}     # leading position -> indices of the elements that
    #                 make pairs and reduce
    reducers = {}   # leading position -> their reducer entries
    pairs = []      # heap of (term_key(lcm term), i, j, lcm exponent)
    key = order.term_key

    def update(h):
        lt, _lc = vec_leading(h, order)
        pos, e = lt
        single = _single_position(h)
        same = active.setdefault(pos, [])
        new = []
        for i in same:
            (_pos, ie), _r, isingle = elems[i]
            coprime = (single is not None and isingle == single
                       and all(a == 0 or b == 0 for a, b in zip(ie, e)))
            new.append((exp_lcm(ie, e), i, coprime))
        # criteria M and F; a coprime pair is kept here only so that it
        # rules out the pairs whose lcm its lcm divides
        kept = []
        for n, (lcm, i, coprime) in enumerate(new):
            if coprime or not any(exp_divides(q[0], lcm)
                                  for q in new[n + 1:] + kept):
                kept.append((lcm, i, coprime))
        # criterion B_k on the pending pairs
        live = [p for p in pairs
                if elems[p[1]][0][0] != pos or not exp_divides(e, p[3])
                or exp_lcm(elems[p[1]][0][1], e) == p[3]
                or exp_lcm(elems[p[2]][0][1], e) == p[3]]
        if len(live) < len(pairs):
            heapify(live)
            pairs[:] = live
        h_idx = len(elems)
        for lcm, i, coprime in kept:
            if not coprime:
                heappush(pairs, (key((pos, lcm)), i, h_idx, lcm))
        elems.append((lt, _reducer(h, lt), single))
        same[:] = [i for i in same if not exp_divides(e, elems[i][0][1])]
        same.append(h_idx)
        reducers[pos] = [elems[i][1] for i in same]

    for g in gens:
        if g:
            update(g)
    while pairs:
        _k, i, j, lcm = heappop(pairs)
        s = reduce_vec(_s_vector(elems[i][1], elems[j][1], lcm, field),
                       reducers, order, field)
        if s:
            update(s)

    # minimal basis: active leading terms are distinct, so drop those
    # that another one properly divides
    minimal = []
    for idx in active.values():
        exps = [elems[i][0][1] for i in idx]
        minimal += [elems[i] for i, e in zip(idx, exps)
                    if not any(q != e and exp_divides(q, e) for q in exps)]
    minimal.sort(key=lambda el: key(el[0]))
    index = {}
    for lt, entry, _single in minimal:
        index.setdefault(lt[0], []).append(entry)
    out = []
    for lt, (_e, tail, lc), _single in minimal:
        inv = field.inv(lc)
        v = {lt: field.one()}
        for t, c in reduce_vec(dict(tail), index, order, field).items():
            v[t] = field.mul(inv, c)
        out.append(v)
    return out


def _tag(columns, n_main, nvars, field):
    """Column i with the unit vector in position n_main + i added."""
    zero_exp = (0,) * nvars
    out = []
    for i, col in enumerate(columns):
        v = dict(col)
        v[(n_main + i, zero_exp)] = field.one()
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

    def __init__(self, columns, relations, n_main, nvars, field,
                 ring_order):
        tagged = _tag(columns, n_main, nvars, field)
        gb = buchberger_vec(tagged + relations, ring_order, field)
        self._adopt(gb, reducer_index(gb, ring_order), n_main, len(columns),
                    field, ring_order)

    @classmethod
    def lift(cls, columns, relations, n_main, nvars, field, ring_order):
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
        led, syz = [], []
        for col, v in zip(columns, _tag(columns, n_main, nvars, field)):
            (led if col else syz).append(v)
        elems = led + relations
        entries, index = [], {}
        for v in elems:
            lt, _lc = vec_leading(v, ring_order)
            entries.append((lt, _reducer(v, lt)))
            index.setdefault(lt[0], []).append(entries[-1][1])
        for a, ((pos, ea), ra) in enumerate(entries[:len(led)]):
            mults = [(tuple(max(x, y) - x for x, y in zip(ea, eb)), rb)
                     for (pb, eb), rb in entries[a + 1:] if pb == pos]
            for n, (mult, rb) in enumerate(mults):
                if any(exp_divides(q, mult) and (q != mult or n2 < n)
                       for n2, (q, _rb) in enumerate(mults)):
                    continue
                s = reduce_vec(_s_vector(ra, rb, tuple(map(add, ea, mult)),
                                         field), index, ring_order, field)
                if s and next(iter(s))[0] < n_main:
                    return None     # terms come in descending order
                syz.append(s)
        syz = buchberger_vec(syz, ring_order, field)
        # the syzygies lead in tag positions, the elements in main ones
        index.update(reducer_index(syz, ring_order))
        t = cls.__new__(cls)
        t._adopt(elems + syz, index, n_main, len(columns), field,
                 ring_order)
        return t

    def _adopt(self, gb, basis, n_main, n_cols, field, ring_order):
        """Keep the basis `gb` and its reducer index `basis`."""
        self.gb = gb
        self._basis = basis
        self.n_main = n_main
        self.n_cols = n_cols
        self.field = field
        self.order = ring_order

    def main_part(self, v):
        return {t: c for t, c in v.items() if t[0] < self.n_main}

    def tag_part(self, v):
        return {(t[0] - self.n_main, t[1]): c
                for t, c in v.items() if t[0] >= self.n_main}

    def syzygies(self):
        """Generators of the syzygy module, as vectors over tag positions."""
        return [self.tag_part(g) for g in self.gb
                if all(pos >= self.n_main for pos, _e in g)]

    def express(self, v):
        """Coefficients writing v in the columns, or None.

        Returns a list of Polys c_i with v = sum c_i * column_i modulo the
        relations; canonical because the tagged reduction is a full
        normal form.
        """
        nf = reduce_vec(dict(v), self._basis, self.order, self.field)
        if self.main_part(nf):
            return None
        tags = self.tag_part(nf)
        cols = polys_from_vec(tags, self.n_cols, self.field)
        return [-p for p in cols]
