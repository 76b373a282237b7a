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

Syzygies of an ideal's generators need no tagged basis when the
generators, together with a Groebner basis of the ring's relations, are
themselves a Groebner basis, as every cover of the log and classical
complexes is.  Then `lift_syzygies` reads them off one division per
S-pair (Schreyer's theorem; Eisenbud, Commutative Algebra, Thm 15.10)
and one small Buchberger run on the lifts.  Its output is the tagged
one: main positions dominate the tags, so the tag-only elements of a
tagged basis are the reduced Groebner basis of the syzygy module, which
is unique for the order and sorted the same way.  When a division
leaves a remainder it returns None and the tagged basis is the
fallback.

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
from operator import add, le, sub

from .polynomials import Poly, exp_lcm


def vec_is_zero(v):
    return not v


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


def _divides(e1, e2):
    return all(map(le, e1, e2))


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
            if _divides(gexp, exp):
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
            if coprime or not any(_divides(q[0], lcm)
                                  for q in new[n + 1:] + kept):
                kept.append((lcm, i, coprime))
        # criterion B_k on the pending pairs
        live = [p for p in pairs
                if elems[p[1]][0][0] != pos or not _divides(e, p[3])
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
        same[:] = [i for i in same if not _divides(e, elems[i][0][1])]
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
                    if not any(q != e and _divides(q, e) for q in exps)]
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


def _divide(v, reducers, order, field):
    """Quotients of a division of v that leaves no remainder, or None.

    `reducers` maps a leading position to entries (leading exponent,
    tail items, leading coefficient, index).  Returns [(index, shift,
    coefficient)] with v = sum coefficient * x^shift * element[index],
    taking terms in descending order, or None at the first term that no
    leading term divides.
    """
    key = order.heap_key
    work = dict(v)
    heap = [(key(t), t) for t in work]
    heapify(heap)
    quotients = []
    while heap:
        lt = heappop(heap)[1]
        c = work.pop(lt, None)
        if c is None:
            continue        # cancelled after it was pushed
        pos, exp = lt
        for gexp, tail, glc, k in reducers.get(pos, ()):
            if _divides(gexp, exp):
                break
        else:
            return None
        shift = tuple(map(sub, exp, gexp))
        q = field.div(c, glc)
        quotients.append((k, shift, q))
        for t in _add_multiple(work, tail, shift, field.neg(q), field):
            heappush(heap, (key(t), t))
    return quotients


def lift_syzygies(columns, relations, order, field):
    """Reduced Groebner basis of the syzygies of `columns` modulo the
    Groebner basis `relations`, by Schreyer's theorem, or None.

    The elements are the nonzero columns, then the relations; a zero
    column i gives the unit syzygy e_i.  Each element makes S-pairs only
    with later elements in its leading position whose multiplier
    lcm / (its leading term) is minimal under divisibility, ties to the
    earliest: these are the leading terms of the Schreyer lifts, so the
    kept lifts generate every syzygy.  Pairs of two relations lift
    within the relations alone and are left out.  Each kept S-vector is
    divided with its quotients recorded; the syzygy is the S-pair's
    multipliers less the quotients, on the column coordinates only.

    Returns None when some S-vector leaves a remainder (the elements are
    not a Groebner basis) or when no column is nonzero.  Otherwise the
    result is `buchberger_vec` of the lifts over positions 0..len-1,
    which equals `TaggedGB(columns, relations, ...).syzygies()`.
    """
    m = len(columns)
    elems = []      # per element: (leading term, reducer entry, index)
    units = []
    for k, v in enumerate(columns):
        if v:
            lt, _lc = vec_leading(v, order)
            elems.append((lt, _reducer(v, lt), k))
        else:
            units.append(k)
    n_cols = len(elems)
    if not n_cols:
        return None
    zero_exp = (0,) * len(elems[0][0][1])
    one = field.one()
    syz = [{(k, zero_exp): one} for k in units]
    for k, v in enumerate(relations):
        lt, _lc = vec_leading(v, order)
        elems.append((lt, _reducer(v, lt), m + k))
    reducers = {}
    for lt, entry, k in elems:
        reducers.setdefault(lt[0], []).append((*entry, k))

    for a in range(n_cols):
        (pos, ea), ra, ka = elems[a]
        mults = [(tuple(max(x, y) - x for x, y in zip(ea, eb)), b)
                 for b, ((pb, eb), _rb, _kb) in enumerate(elems[a + 1:], a + 1)
                 if pb == pos]
        for n, (mult, b) in enumerate(mults):
            if any(_divides(q, mult) and (q != mult or n2 < n)
                   for n2, (q, _b) in enumerate(mults)):
                continue
            (_pb, eb), rb, kb = elems[b]
            lcm = tuple(map(add, ea, mult))
            quotients = _divide(_s_vector(ra, rb, lcm, field), reducers,
                                order, field)
            if quotients is None:
                return None
            terms = [(ka, mult, field.inv(ra[2])),
                     (kb, tuple(map(sub, lcm, eb)),
                      field.neg(field.inv(rb[2])))]
            terms += [(k, shift, field.neg(q)) for k, shift, q in quotients]
            s = {}
            for k, shift, c in terms:
                if k < m:
                    _add_multiple(s, [((k, zero_exp), one)], shift, c, field)
            syz.append(s)
    return buchberger_vec(syz, order, field)


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
    """

    def __init__(self, columns, relations, n_main, nvars, field,
                 ring_order):
        self.n_main = n_main
        self.n_cols = len(columns)
        self.field = field
        self.order = ring_order
        zero_exp = (0,) * nvars
        tagged = []
        for i, col in enumerate(columns):
            v = dict(col)
            v[(n_main + i, zero_exp)] = field.one()
            tagged.append(v)
        self.gb = buchberger_vec(tagged + relations, ring_order, field)
        self._basis = reducer_index(self.gb, ring_order)

    def main_part(self, v):
        return {t: c for t, c in v.items() if t[0] < self.n_main}

    def tag_part(self, v):
        return {(t[0] - self.n_main, t[1]): c
                for t, c in v.items() if t[0] >= self.n_main}

    def syzygies(self):
        """Generators of the syzygy module, as vectors over tag positions."""
        out = []
        for g in self.gb:
            if not self.main_part(g):
                out.append(self.tag_part(g))
        return out

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
