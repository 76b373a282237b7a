"""The input description language: parsing, validation diagnostics,
the canonical-printing round trip, and canonicalization in
`parse_input` alone."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from logaq.fields import QQ
from logaq.inputspec import (parse_input, print_input, build_morphism,
                             parse_poly, ParseError, SemanticError)
from logaq.cli import corpus_instances


GOOD = """
[field]
name = "QQ"

[source]
vars = [s]
relations = ["s^2"]
gens = [e]
alpha = { e = "s" }

[target]
vars = [t]
relations = ["t^4"]
gens = [f]
alpha = { f = "t" }

[morphism]
ring_map = { s = "t^2" }
monoid_map = { e = [2] }
"""


def test_parse_valid():
    spec = parse_input(GOOD)
    assert spec.field_name == "QQ"
    assert spec.source.vars == ["s"]
    assert spec.monoid_map == {"e": [2]}
    m = build_morphism(spec)
    assert m.is_well_defined()


def test_round_trip_direct():
    spec = parse_input(GOOD)
    assert parse_input(print_input(spec)) == spec


def test_build_morphism_leaves_the_spec_and_parse_input_canonicalizes():
    spec = parse_input(GOOD)
    # a hand edit that is valid but not in canonical form
    spec.target.relations = ["t^5 + t^4", "t^4"]
    spec.target.alpha = {"f": "t + t^4 - t^4"}
    spec.ring_map = {"s": "t*t + t^6"}
    edited = copy.deepcopy(spec)
    m = build_morphism(spec)
    assert m.is_well_defined()
    assert spec == edited
    again = parse_input(print_input(spec))
    assert again.target.relations == ["t^4"]
    assert again.target.alpha == {"f": "t"}
    assert again.ring_map == {"s": "t^2"}
    assert again == parse_input(GOOD)


def test_round_trip_corpus():
    for name, spec in corpus_instances():
        assert parse_input(print_input(spec)) == spec, name


def test_comments_and_whitespace():
    text = GOOD.replace('name = "QQ"',
                        'name   =   "QQ"   # the rationals')
    assert parse_input(text) == parse_input(GOOD)


def test_parse_poly():
    p = parse_poly("2*x^2*y + 3*x - 1", ["x", "y"], QQ)
    assert p.coeffs == {(2, 1): QQ.from_int(2), (1, 0): QQ.from_int(3),
                        (0, 0): QQ.from_int(-1)}
    q = parse_poly("1/2*x - y^3", ["x", "y"], QQ)
    assert q.coeffs[(1, 0)] == QQ.from_fraction(1, 2)
    assert parse_poly("0", ["x"], QQ).is_zero()
    assert parse_poly("x*x*x", ["x"], QQ) == parse_poly("x^3", ["x"], QQ)


def test_syntax_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_input("[field\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_poly("x + + y", ["x", "y"], QQ)
    with pytest.raises(ParseError):
        parse_poly("x + z", ["x", "y"], QQ)


def test_missing_section():
    with pytest.raises(SemanticError, match="morphism"):
        parse_input('[field]\nname = "QQ"\n[source]\n[target]\n')


def test_unsupported_field():
    with pytest.raises(SemanticError, match="unsupported field"):
        parse_input(GOOD.replace('"QQ"', '"R"'))


def test_alpha_violating_monoid_relation():
    text = """
[field]
name = "QQ"
[source]
vars = []
gens = []
alpha = {}
[target]
vars = [x, y]
relations = [[[2, 0], [0, 2]]]
gens = [a, b]
alpha = { a = "x", b = "y" }
[morphism]
ring_map = {}
monoid_map = {}
"""
    with pytest.raises(SemanticError, match="alpha does not respect"):
        parse_input(text)


def test_ring_map_violating_relation():
    bad = GOOD.replace('ring_map = { s = "t^2" }',
                       'ring_map = { s = "t" }')
    with pytest.raises(SemanticError):
        parse_input(bad)


def test_monoid_map_violating_relation():
    text = """
[field]
name = "QQ"
[source]
vars = []
relations = [[[2, 0], [0, 2]]]
gens = [a, b]
alpha = { a = "1", b = "1" }
[target]
vars = []
gens = [f]
alpha = { f = "1" }
[morphism]
ring_map = {}
monoid_map = { a = [1], b = [2] }
"""
    with pytest.raises(SemanticError, match="monoid relations"):
        parse_input(text)


def test_morphism_not_commuting_with_alpha():
    # alpha_B(f^1) = t, but the ring map sends alpha_A(e) = s to t^2
    bad = GOOD.replace('monoid_map = { e = [2] }', 'monoid_map = { e = [1] }')
    with pytest.raises(SemanticError, match="do not commute with alpha"):
        parse_input(bad)


def test_duplicate_keys():
    bad = GOOD.replace('vars = [s]\n', 'vars = [s]\nvars = [u]\n')
    with pytest.raises(ParseError, match="duplicate key 'vars'") as e:
        parse_input(bad)
    assert (e.value.line, e.value.col) == (7, 1)
    bad = GOOD.replace('alpha = { e = "s" }', 'alpha = { e = "s", e = "u" }')
    with pytest.raises(ParseError, match="duplicate key 'e'") as e:
        parse_input(bad)
    assert (e.value.line, e.value.col) == (9, 20)


def test_missing_images():
    bad = GOOD.replace('monoid_map = { e = [2] }', 'monoid_map = {}')
    with pytest.raises(SemanticError, match="monoid_map"):
        parse_input(bad)


def test_corpus_files_parse():
    names = [n for n, _ in corpus_instances()]
    assert len(names) >= 10
    assert sorted(names) == names


def test_field_override():
    spec = parse_input(GOOD)
    m2 = build_morphism(spec, field_name="F2")
    assert m2.target.algebra.field.characteristic == 2
    # the override does not disturb the canonical strings
    assert parse_input(print_input(spec)) == spec


# Three source generators with pairwise different images, so a table read
# in file order instead of by key builds a different morphism.
TABLES = {
    "source_alpha": {"a": '"x"', "b": '"y"', "c": '"z"'},
    "target_alpha": {"e": '"s"', "f": '"t"'},
    "ring_map": {"x": '"s*t"', "y": '"t^2"', "z": '"s^3"'},
    "monoid_map": {"a": "[1, 1]", "b": "[0, 2]", "c": "[3, 0]"},
}


def _permuted_text(orders):
    def table(name):
        return "{ " + ", ".join(f"{k} = {TABLES[name][k]}"
                                for k in orders[name]) + " }"
    return f"""
[field]
name = "QQ"

[source]
vars = [x, y, z]
relations = []
gens = [a, b, c]
alpha = {table("source_alpha")}

[target]
vars = [s, t]
relations = []
gens = [e, f]
alpha = {table("target_alpha")}

[morphism]
ring_map = {table("ring_map")}
monoid_map = {table("monoid_map")}
"""


@settings(max_examples=25, deadline=None)
@given(st.fixed_dictionaries(
    {name: st.permutations(sorted(t)) for name, t in TABLES.items()}))
def test_table_key_order_is_irrelevant(orders):
    spec = parse_input(_permuted_text(orders))
    assert spec.monoid_map == {"a": [1, 1], "b": [0, 2], "c": [3, 0]}
    assert spec.ring_map == {"x": "s*t", "y": "t^2", "z": "s^3"}
    assert spec.source.alpha == {"a": "x", "b": "y", "c": "z"}
    assert spec.target.alpha == {"e": "s", "f": "t"}
    canonical = parse_input(_permuted_text(
        {name: sorted(t) for name, t in TABLES.items()}))
    assert print_input(spec) == print_input(canonical)
    again = parse_input(print_input(spec))
    assert again == spec
    assert build_morphism(again).monoid_map.images \
        == build_morphism(canonical).monoid_map.images


# ------------------------------------------------ round trip, generated
#
# Small valid specs as text.  The ring map sends some source variables
# to 0, and every term of a source relation has one of them, so the map
# respects the relations.  Each target generator's alpha is the image
# of a source variable, or 0 or 1, and a source generator's alpha is the
# matching product (plus a term the map kills), so the morphism
# commutes with alpha.

NAME_POOL = ["x", "y", "z", "s", "t", "u", "v", "w", "a", "b", "e", "f",
             "x1", "y_2", "tt", "g0"]
FIELDS = {"QQ": 0, "F2": 2, "F3": 3, "F7": 7}
COMMENT = st.text(st.characters(codec="ascii", exclude_characters="\n\r"),
                  max_size=12)


def _coeff_text(p):
    """A coefficient, multi-digit or fractional; over F_p the
    denominator is a unit."""
    num = st.integers(0, 999).map(str)
    den = st.integers(1, 99).filter(lambda d: not p or d % p)
    return st.one_of(num, st.builds(lambda n, d: f"{n}/{d}", num, den))


@st.composite
def _poly_text(draw, names, p, must=()):
    """A signed sum of terms in `names`; each term has a factor from
    `must` when it is not empty."""
    text = draw(st.sampled_from(["", "-"]))
    for n in range(draw(st.integers(1, 3))):
        factors = []
        if draw(st.booleans()) or not names:
            factors.append(draw(_coeff_text(p)))
        if must:
            factors.append(draw(st.sampled_from(must)))
        for name in draw(st.lists(st.sampled_from(names), max_size=2)
                         if names else st.just([])):
            e = draw(st.integers(1, 3))
            factors.append(name if e == 1 else f"{name}^{e}")
        if n:
            text += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        text += "*".join(factors or ["1"])
    return text


def _draw_names(draw, max_size):
    return draw(st.lists(st.sampled_from(NAME_POOL), unique=True,
                         max_size=max_size))


def _table(draw, items):
    """{ k = v, ... } in a drawn key order, sometimes across lines with
    comments after the commas."""
    entries = [f"{k} = {v}" for k, v in draw(st.permutations(items))]
    if not entries:
        return "{}"
    text = entries[0]
    for entry in entries[1:]:
        sep = f",  # {draw(COMMENT)}\n  " if draw(st.booleans()) else ", "
        text += sep + entry
    return "{ " + text + " }"


def _list(items):
    return "[" + ", ".join(items) + "]"


@st.composite
def spec_texts(draw):
    field = draw(st.sampled_from(sorted(FIELDS)))
    p = FIELDS[field]
    tvars, tgens = _draw_names(draw, 3), _draw_names(draw, 2)
    svars, sgens = _draw_names(draw, 3), _draw_names(draw, 2)
    killed = [v for v in svars if draw(st.booleans())]
    live = [v for v in svars if v not in killed]
    images = {v: "0" if v in killed else draw(_poly_text(tvars, p))
              for v in svars}
    trels = draw(st.lists(_poly_text(tvars, p, must=tvars), max_size=2)) \
        if tvars else []
    srels = draw(st.lists(_poly_text(svars, p, must=killed), max_size=2)) \
        if killed else []
    # each target generator is alpha of a live source variable, 0 or 1
    origin = {f: draw(st.sampled_from(live + ["0", "1"])) for f in tgens}
    talpha = {f: images[o] if o in live else o for f, o in origin.items()}
    words, salpha = {}, {}
    for g in sgens:
        w = [draw(st.integers(0, 2)) for _ in tgens]
        words[g] = _list(str(e) for e in w)
        used = [(o, e) for o, e in zip(origin.values(), w)
                if e and o != "1"]
        alpha = "0" if any(o == "0" for o, _e in used) else "*".join(
            [o if e == 1 else f"{o}^{e}" for o, e in used] or ["1"])
        if killed and draw(st.booleans()):
            extra = draw(_poly_text(svars, p, must=killed))
            alpha += (" " if extra.startswith("-") else " + ") + extra
        salpha[g] = alpha

    def ring(vs, rels, gs, alpha):
        entries = [("vars", _list(vs)), ("gens", _list(gs)),
                   ("alpha", _table(draw, [(g, f'"{a}"')
                                           for g, a in alpha.items()]))]
        if rels or draw(st.booleans()):
            entries.append(("relations", _list(f'"{r}"' for r in rels)))
        if vs and draw(st.booleans()):
            entries.append(("weights", _list(
                str(draw(st.integers(1, 12))) for _ in vs)))
        return entries
    sections = {
        "field": [("name", f'"{field}"')],
        "source": ring(svars, srels, sgens, salpha),
        "target": ring(tvars, trels, tgens, talpha),
        "morphism": [
            ("ring_map", _table(draw, [(v, f'"{i}"')
                                       for v, i in images.items()])),
            ("monoid_map", _table(draw, list(words.items())))],
    }
    meta = draw(st.dictionaries(
        st.sampled_from(["strict", "prop12", "alt", "note", "n", "list"]),
        st.one_of(st.just("true"), st.just('"a # b"'),
                  st.integers(-999, 999).map(str),
                  st.lists(st.integers(0, 99).map(str), max_size=3)
                  .map(_list))))
    if meta or draw(st.booleans()):
        sections["meta"] = list(meta.items())
    lines = []
    for name in draw(st.permutations(sorted(sections))):
        if draw(st.booleans()):
            lines.append(f"# {draw(COMMENT)}")
        lines.append(f"[{name}]")
        for key, value in draw(st.permutations(sections[name])):
            line = f"{key} = {value}"
            if draw(st.booleans()):
                line += f"  # {draw(COMMENT)}"
            lines.append(line)
        lines.append("")
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(spec_texts())
def test_generated_specs_round_trip(text):
    spec = parse_input(text)
    printed = print_input(spec)
    again = parse_input(printed)
    assert again == spec
    assert print_input(again) == printed
