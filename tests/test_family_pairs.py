"""The per-case summary of `family_pairs.py` on synthetic runs, and the
inputs of its cases."""

import helpers
from family_pairs import CASES, summarize
from helpers import morphism


def test_the_summary_gives_medians_wins_and_byte_equality():
    runs = {"parent": [(2.0, "h"), (2.2, "h"), (2.1, "h"), (2.4, "h")],
            "change": [(1.9, "h"), (2.3, "h"), (2.0, "h"), (2.0, "h")]}
    assert summarize("case", runs) == (
        "case: parent 2.150 s -> change 2.000 s (0.930x), parent IQR"
        " 0.175 s, change wins 3/4, bytes equal: yes")
    runs["change"][1] = (2.3, "other")
    assert summarize("case", runs).endswith("bytes equal: no")


def test_every_case_builds_its_morphism():
    for _, family, d, _command in CASES:
        assert morphism(getattr(helpers, family)(d)).is_strict() \
            == (family == "rnc_text")
