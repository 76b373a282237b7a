"""The no-regression verdict of `bench_pairs.py` on synthetic runs."""

from bench_pairs import summarize, within_bound


def test_a_change_within_its_bound_is_yes():
    parent = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert within_bound(parent, [12.0, 12.4, 12.5, 12.3, 12.2], 0.25,
                        True) == "yes"
    assert within_bound(parent, [13.0, 13.1, 12.9, 13.2, 13.0], 0.25,
                        True) == "no"
    # higher is better: a fall beyond the bound is a regression
    rate = [1.0, 1.0, 1.0, 1.0]
    assert within_bound(rate, [1.0, 0.995, 1.0, 0.995], 0.01,
                        False) == "yes"
    assert within_bound(rate, [0.9, 0.9, 0.95, 0.9], 0.01, False) == "no"


def test_a_wide_parent_spread_is_unresolved_unless_every_run_wins():
    parent = [8.0, 10.0, 12.0, 14.0, 9.0]
    assert within_bound(parent, [10.0] * 5, 0.1, True) == "unresolved"
    assert within_bound(parent, [7.0, 7.5, 7.9, 6.0, 7.2], 0.1,
                        True) == "yes"
    assert within_bound(parent, [15.0] * 5, 0.1, False) == "yes"


def test_the_table_prints_the_verdict():
    runs = {"parent": [{"wall_s": 10.0}, {"wall_s": 10.1}],
            "change": [{"wall_s": 14.0}, {"wall_s": 14.1}]}
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    (line,) = summarize(runs, metrics)
    assert line.endswith("gain by the rule: False, within bound 0.25: no")
