"""The input description language for prelog morphisms.

A file has four bracketed sections: field, source, target, morphism.
Ring data (vars, polynomial relations, optional weights), monoid data
(gens, exponent-pair relations, alpha) and the two components of the
morphism are plain `key = value` entries; values are identifiers,
numbers, strings, lists, or `{ k = v }` tables.  Polynomials are signed
sums of `coeff*var^e*...` terms with integer or p/q coefficients.

Parsing validates everything (well-formed relations, alpha respecting
the monoid relations, the morphism commuting with the structure maps)
and canonicalizes the polynomial strings, so printing a parsed spec and
re-parsing gives an equal spec.
"""

from dataclasses import dataclass, field as dc_field

from .fields import field_from_name
from .polynomials import Poly, poly_str
from .groebner import PresentedAlgebra, AlgebraMap
from .monoids import FpMonoid, MonoidHom, PrelogRing, PrelogMorphism


class ParseError(Exception):
    """Syntax error with position information.

    `where` replaces "line N" for an error inside one polynomial string
    of a spec, where the column counts within that string.
    """

    def __init__(self, message, line, col, where=None):
        super().__init__(f"{where or f'line {line}'}, column {col}: "
                         f"{message}")
        self.message = message
        self.line = line
        self.col = col


class SemanticError(Exception):
    """Structurally valid input that violates an invariant."""


# ---------------------------------------------------------------- tokens

_SYMBOLS = "[]{}=,^*+-/"


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", start_line,
                                     start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            toks.append(("str", text[i + 1: j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:      # over int()'s digit limit, or not 0-9
                raise ParseError("integer literal is too long or not "
                                 "decimal", start_line, start_col) from None
            toks.append(("int", value, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(("sym", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", None, line, col))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message):
        t = self.peek()
        raise ParseError(message, t[2], t[3])

    def expect_sym(self, s):
        t = self.next()
        if t[0] != "sym" or t[1] != s:
            raise ParseError(f"expected {s!r}", t[2], t[3])
        return t

    def expect_ident(self):
        t = self.next()
        if t[0] != "ident":
            raise ParseError("expected an identifier", t[2], t[3])
        return t[1]

    def new_key(self, seen):
        """The next identifier, which must not be among `seen`."""
        t = self.peek()
        key = self.expect_ident()
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", t[2], t[3])
        return key

    def sections(self):
        out = {}
        order = []
        while self.peek()[0] != "eof":
            self.expect_sym("[")
            name = self.expect_ident()
            self.expect_sym("]")
            entries = {}
            while self.peek()[0] == "ident":
                key = self.new_key(entries)
                self.expect_sym("=")
                entries[key] = self.value()
            if name in out:
                self.fail(f"duplicate section {name!r}")
            out[name] = entries
            order.append(name)
        return out, order

    def value(self):
        t = self.peek()
        if t[0] == "str" or t[0] == "ident":
            return self.next()[1]
        if t[0] == "int":
            return self.next()[1]
        if t[0] == "sym" and t[1] == "-":
            self.next()
            t2 = self.next()
            if t2[0] != "int":
                raise ParseError("expected a number after '-'", t2[2], t2[3])
            return -t2[1]
        if t[0] == "sym" and t[1] == "[":
            self.next()
            items = []
            if not (self.peek()[0] == "sym" and self.peek()[1] == "]"):
                items.append(self.value())
                while self.peek()[0] == "sym" and self.peek()[1] == ",":
                    self.next()
                    items.append(self.value())
            self.expect_sym("]")
            return items
        if t[0] == "sym" and t[1] == "{":
            self.next()
            table = {}
            if not (self.peek()[0] == "sym" and self.peek()[1] == "}"):
                while True:
                    k = self.new_key(table)
                    self.expect_sym("=")
                    table[k] = self.value()
                    if self.peek()[0] == "sym" and self.peek()[1] == ",":
                        self.next()
                        continue
                    break
            self.expect_sym("}")
            return table
        self.fail("expected a value")


# ----------------------------------------------------- polynomial grammar

def parse_poly(text, varnames, field):
    """Polynomial from a signed sum of coeff*var^e*... terms."""
    toks = _tokenize(text)
    p = _Parser(toks)
    nv = len(varnames)
    index = {v: i for i, v in enumerate(varnames)}
    total = Poly.zero(field)
    sign = 1
    first = True
    while p.peek()[0] != "eof":
        t = p.peek()
        if t[0] == "sym" and t[1] in "+-":
            p.next()
            sign = 1 if t[1] == "+" else -1
        elif not first:
            p.fail("expected '+' or '-' between terms")
        first = False
        coeff = field.one()
        exp = [0] * nv
        saw_factor = False
        while True:
            t = p.peek()
            if t[0] == "int":
                p.next()
                num = t[1]
                if p.peek()[0] == "sym" and p.peek()[1] == "/":
                    p.next()
                    t2 = p.next()
                    if t2[0] != "int":
                        raise ParseError("expected a denominator",
                                         t2[2], t2[3])
                    try:
                        q = field.from_fraction(num, t2[1])
                    except ZeroDivisionError:
                        raise ParseError(f"denominator {t2[1]} is zero in "
                                         f"{field.name}", t2[2], t2[3])
                    coeff = field.mul(coeff, q)
                else:
                    coeff = field.mul(coeff, field.from_int(num))
                saw_factor = True
            elif t[0] == "ident":
                p.next()
                if t[1] not in index:
                    raise ParseError(f"unknown variable {t[1]!r}",
                                     t[2], t[3])
                e = 1
                if p.peek()[0] == "sym" and p.peek()[1] == "^":
                    p.next()
                    t2 = p.next()
                    if t2[0] != "int":
                        raise ParseError("expected an exponent",
                                         t2[2], t2[3])
                    e = t2[1]
                exp[index[t[1]]] += e
                saw_factor = True
            else:
                p.fail("expected a coefficient or a variable")
            if p.peek()[0] == "sym" and p.peek()[1] == "*":
                p.next()
                continue
            break
        if not saw_factor:
            p.fail("empty term")
        if sign < 0:
            coeff = field.neg(coeff)
        total = total + Poly.monomial(tuple(exp), coeff, field)
        sign = 1
    return total


# ------------------------------------------------------------- the spec

@dataclass
class RingDesc:
    vars: list
    relations: list                  # canonical polynomial strings
    weights: list                    # or None
    gens: list                       # monoid generators
    monoid_relations: list           # pairs of exponent lists
    alpha: dict                      # gen -> canonical polynomial string


@dataclass
class InputSpec:
    field_name: str
    source: RingDesc
    target: RingDesc
    ring_map: dict                   # source var -> polynomial string
    monoid_map: dict                 # source gen -> exponent list
    meta: dict = dc_field(default_factory=dict)   # free-form tags


def _want(entries, key, section, default=None, required=False):
    if key not in entries:
        if required:
            raise SemanticError(f"section {section!r} is missing {key!r}")
        return default
    return entries[key]


def _string_list(v, what):
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        raise SemanticError(f"{what} must be a list of names")
    return list(v)


def _split_relations(v, section):
    """Ring relations are strings; monoid relations are pairs of
    exponent lists.  Both may appear in the same list."""
    ring, monoid = [], []
    for item in v or []:
        if isinstance(item, str):
            ring.append(item)
        elif (isinstance(item, list) and len(item) == 2
              and all(isinstance(w, list) for w in item)):
            monoid.append((item[0], item[1]))
        else:
            raise SemanticError(
                f"section {section!r}: relation {item!r} is neither a "
                "polynomial string nor a pair of exponent vectors")
    return ring, monoid


def _ring_desc(entries, section):
    vars_ = _string_list(_want(entries, "vars", section, []), "vars")
    gens = _string_list(_want(entries, "gens", section, []), "gens")
    ring_rels, monoid_rels = _split_relations(
        _want(entries, "relations", section, []), section)
    weights = _want(entries, "weights", section)
    if weights is not None and (not isinstance(weights, list)
                                or len(weights) != len(vars_)
                                or not all(isinstance(w, int) and w > 0
                                           for w in weights)):
        raise SemanticError(
            f"section {section!r}: weights must list one positive "
            "integer per variable")
    alpha = _want(entries, "alpha", section, {})
    if not isinstance(alpha, dict):
        raise SemanticError(f"section {section!r}: alpha must be a table")
    return RingDesc(vars_, ring_rels, weights, gens, monoid_rels,
                    dict(alpha))


def parse_input(text):
    """InputSpec from source text; every invariant is checked here."""
    p = _Parser(_tokenize(text))
    sections, _order = p.sections()
    for required in ("field", "source", "target", "morphism"):
        if required not in sections:
            raise SemanticError(f"missing section {required!r}")
    unknown = set(sections) - {"field", "source", "target", "morphism",
                               "meta"}
    if unknown:
        raise SemanticError(f"unknown sections {sorted(unknown)}")
    fname = _want(sections["field"], "name", "field", required=True)
    if not isinstance(fname, str):
        raise SemanticError("field name must be an identifier")
    source = _ring_desc(sections["source"], "source")
    target = _ring_desc(sections["target"], "target")
    mo = sections["morphism"]
    ring_map = _want(mo, "ring_map", "morphism", {})
    monoid_map = _want(mo, "monoid_map", "morphism", {})
    if not isinstance(ring_map, dict) or not isinstance(monoid_map, dict):
        raise SemanticError("ring_map and monoid_map must be tables")
    spec = InputSpec(fname, source, target, dict(ring_map),
                     dict(monoid_map), dict(sections.get("meta", {})))
    build_morphism(spec)          # validates and canonicalizes in place
    return spec


def _entry_poly(text, varnames, field, section, entry):
    """parse_poly on the polynomial string of one spec entry; a
    ParseError names the section and the entry."""
    if not isinstance(text, str):
        raise SemanticError(f"section {section!r}: {entry} must be a "
                            "polynomial string")
    try:
        return parse_poly(text, varnames, field)
    except ParseError as e:
        raise ParseError(e.message, e.line, e.col,
                         where=f"section {section!r}, {entry}") from None


def _build_prelog(desc, field, section):
    # relations[i] is the i-th polynomial string; monoid relations in
    # the same list are not counted
    relations = [_entry_poly(s, desc.vars, field, section, f"relations[{i}]")
                 for i, s in enumerate(desc.relations)]
    try:
        algebra = PresentedAlgebra(desc.vars, field, relations,
                                   weights=desc.weights)
    except ValueError as e:
        raise SemanticError(f"section {section!r}: {e}")
    for u, v in desc.monoid_relations:
        for w in (u, v):
            if len(w) != len(desc.gens) or not all(
                    isinstance(e, int) and e >= 0 for e in w):
                raise SemanticError(
                    f"section {section!r}: monoid relation word {w!r} "
                    "must list one nonnegative exponent per generator")
    try:
        monoid = FpMonoid(desc.gens, desc.monoid_relations)
    except (ValueError, TypeError) as e:
        raise SemanticError(f"section {section!r}: bad monoid data: {e}")
    alpha = []
    for g in desc.gens:
        if g not in desc.alpha:
            raise SemanticError(
                f"section {section!r}: alpha is missing generator {g!r}")
        alpha.append(_entry_poly(desc.alpha[g], desc.vars, field, section,
                                 f"alpha.{g}"))
    extra = set(desc.alpha) - set(desc.gens)
    if extra:
        raise SemanticError(
            f"section {section!r}: alpha names unknown generators "
            f"{sorted(extra)}")
    ring = PrelogRing(algebra, monoid, alpha)
    for i, (u, v) in enumerate(monoid.relations):
        if not algebra.is_zero(ring.alpha_of(u) - ring.alpha_of(v)):
            raise SemanticError(
                f"section {section!r}: alpha does not respect monoid "
                f"relation {i}")
    return ring


def build_morphism(spec, field_name=None):
    """PrelogMorphism from a spec, canonicalizing its strings in place.

    `field_name` overrides the file's field (for cross-characteristic
    verification runs).
    """
    try:
        field = field_from_name(field_name or spec.field_name)
    except ValueError as e:
        raise SemanticError(str(e))
    src = _build_prelog(spec.source, field, "source")
    tgt = _build_prelog(spec.target, field, "target")

    images = []
    for v in spec.source.vars:
        if v not in spec.ring_map:
            raise SemanticError(f"ring_map is missing variable {v!r}")
        images.append(_entry_poly(spec.ring_map[v], spec.target.vars, field,
                                  "morphism", f"ring_map.{v}"))
    extra = set(spec.ring_map) - set(spec.source.vars)
    if extra:
        raise SemanticError(f"ring_map names unknown variables "
                            f"{sorted(extra)}")
    ring_map = AlgebraMap(src.algebra, tgt.algebra, images)
    if not ring_map.is_well_defined():
        raise SemanticError("ring_map does not respect the source relations")

    words = []
    for g in spec.source.gens:
        if g not in spec.monoid_map:
            raise SemanticError(f"monoid_map is missing generator {g!r}")
        w = spec.monoid_map[g]
        if not isinstance(w, list) or len(w) != len(spec.target.gens) \
                or not all(isinstance(e, int) and e >= 0 for e in w):
            raise SemanticError(
                f"monoid_map image of {g!r} must list one nonnegative "
                "exponent per target generator")
        words.append(tuple(w))
    extra = set(spec.monoid_map) - set(spec.source.gens)
    if extra:
        raise SemanticError(f"monoid_map names unknown generators "
                            f"{sorted(extra)}")
    monoid_map = MonoidHom(src.monoid, tgt.monoid, words)
    if not monoid_map.is_well_defined():
        raise SemanticError(
            "monoid_map does not respect the source monoid relations")
    morphism = PrelogMorphism(src, tgt, ring_map, monoid_map)
    if not morphism.is_well_defined():
        raise SemanticError(
            "ring_map and monoid_map do not commute with alpha")

    if field_name is None:
        _canonicalize(spec, src, tgt, ring_map)
    return morphism


def _canonicalize(spec, src, tgt, ring_map):
    # relations become the reduced Groebner basis, a stable normal form
    spec.source.relations = [poly_str(p, src.algebra.varnames,
                                      src.algebra.order)
                             for p in src.algebra.gb()]
    spec.target.relations = [poly_str(p, tgt.algebra.varnames,
                                      tgt.algebra.order)
                             for p in tgt.algebra.gb()]
    spec.source.alpha = {g: src.algebra.str_of(p)
                         for g, p in zip(spec.source.gens, src.alpha)}
    spec.target.alpha = {g: tgt.algebra.str_of(p)
                         for g, p in zip(spec.target.gens, tgt.alpha)}
    spec.ring_map = {v: tgt.algebra.str_of(p)
                     for v, p in zip(spec.source.vars, ring_map.images)}
    spec.monoid_map = {g: list(spec.monoid_map[g]) for g in spec.source.gens}


# ------------------------------------------------------------- printing

def _fmt_value(v):
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = ", ".join(f"{k} = {_fmt_value(x)}" for k, x in v.items())
        return "{ " + inner + " }"
    raise TypeError(f"cannot print {v!r}")


def _fmt_names(names):
    return "[" + ", ".join(names) + "]"


def _print_ring(out, name, desc):
    out.append(f"[{name}]")
    out.append(f"vars = {_fmt_names(desc.vars)}")
    rels = [_fmt_value(s) for s in desc.relations]
    rels += [_fmt_value([list(u), list(v)])
             for u, v in desc.monoid_relations]
    out.append(f"relations = [{', '.join(rels)}]")
    if desc.weights is not None:
        out.append(f"weights = {_fmt_value(desc.weights)}")
    out.append(f"gens = {_fmt_names(desc.gens)}")
    alpha = {g: desc.alpha[g] for g in desc.gens}
    out.append(f"alpha = {_fmt_value(alpha)}")
    out.append("")


def print_input(spec):
    """Canonical text form; parse_input(print_input(s)) equals s."""
    out = []
    if spec.meta:
        out.append("[meta]")
        for k in sorted(spec.meta):
            out.append(f"{k} = {_fmt_value(spec.meta[k])}")
        out.append("")
    out += ["[field]", f'name = "{spec.field_name}"', ""]
    _print_ring(out, "source", spec.source)
    _print_ring(out, "target", spec.target)
    out.append("[morphism]")
    ring_map = {v: spec.ring_map[v] for v in spec.source.vars}
    out.append(f"ring_map = {_fmt_value(ring_map)}")
    monoid_map = {g: spec.monoid_map[g] for g in spec.source.gens}
    out.append(f"monoid_map = {_fmt_value(monoid_map)}")
    out.append("")
    return "\n".join(out)
