"""Tests of the benchmark itself: generators tied to the hand-checked
goldens, references that reject wrong answers, and safe tracing.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import logaq.cli as cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def corpus_spec(name):
    return dict(cli.corpus_instances())[name]


def golden(name):
    return (cli.corpus_dir() / f"{name}.golden.json").read_text()


def test_ci_generator_is_strict_ci():
    spec = cli.parse_input(workloads.ci_text((2, 3)))
    assert spec == corpus_spec("strict_ci")
    assert workloads.homology_op(cli, spec) == golden("strict_ci")


def test_toric_generator_is_toric_sum():
    spec = cli.parse_input(workloads.toric_text(2, "QQ"))
    assert spec == corpus_spec("toric_sum")
    assert workloads.homology_op(cli, spec) == golden("toric_sum")


def test_references_accept_seed_answers_and_reject_wrong_ones():
    spec = cli.parse_input(workloads.toric_text(3, "F3"))
    for op, check in ((workloads.homology_op,
                       workloads.check_toric_homology(3)),
                      (workloads.tor_op, workloads.check_toric_tor(3)),
                      (workloads.conormal_op,
                       workloads.check_toric_conormal(3))):
        out = op(cli, spec)
        assert check(out) is None
        assert check(out.replace('"free_rank": 2', '"free_rank": 3')) \
            is not None
    check = workloads.check_ci((2, 3))
    out = golden("strict_ci")
    assert check(out) is None
    assert check(out.replace('"k_dimension": 12', '"k_dimension": 11')) \
        is not None
    assert workloads.check_ci((2, 2))(out) is not None


def test_verify_reference_needs_every_golden_check():
    instances = {n: {"golden": True} for n in workloads.CORPUS_NAMES}
    ok = {"passed": True, "instances": instances}
    assert workloads.check_verify_all(json.dumps(ok)) is None
    del instances["x3_cover"]
    assert workloads.check_verify_all(json.dumps(ok)) is not None
    assert workloads.check_verify_all(
        json.dumps({"passed": False, "instances": {}})) is not None


def _bound_originals(modules):
    """Every module-level binding and cli.SUITES entry of a probed
    function, plus every probed method, as (owner, key, object)."""
    out = []
    for probe in tracing.PROBES:
        for target in probe.targets:
            owner, attr = tracing._resolve(modules, target)
            obj = vars(owner)[attr]
            if isinstance(owner, type):
                out.append((owner, attr, obj))
                continue
            for mod in modules.values():
                for key, val in vars(mod).items():
                    if val is obj:
                        out.append((mod, key, obj))
            for table in cli.SUITES.values():
                for i, item in enumerate(table):
                    if item is obj:
                        out.append((table, i, obj))
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, list) else vars(owner)[key]


def test_patch_rebinds_every_binding_and_undo_restores():
    modules = tracing.logaq_modules()
    bound = _bound_originals(modules)
    names = {(getattr(o, "__name__", None), k) for o, k, _ in bound}
    # names imported into other modules are among the bindings
    for mod, fn in (("logaq.logsurj", "log_homology"),
                    ("logaq.cli", "log_homology"),
                    ("logaq.logls", "snf"), ("logaq.abgroups", "snf")):
        assert (mod, fn) in names
    assert any(isinstance(o, list) for o, _k, _v in bound)

    rec = tracing.Recorder()
    patch = tracing.Patch(modules, rec)
    try:
        assert not patch.missing
        for owner, key, orig in bound:
            now = _get(owner, key)
            assert now is not orig and now.__wrapped__ is orig
        assert [c.__name__ for c in cli.SUITES["all"]] == [
            f"_verify_{c}" for c in
            ("strict", "prop12", "jz", "edge", "alt", "golden")]
    finally:
        patch.undo()
    for owner, key, orig in bound:
        assert _get(owner, key) is orig


def test_traced_op_prints_the_same_bytes_and_counts_calls():
    spec = cli.parse_input(workloads.toric_text(2, "F3"))
    want = workloads.conormal_op(cli, spec)
    rec = tracing.Recorder()
    patch = tracing.Patch(tracing.logaq_modules(), rec)
    try:
        got = workloads.conormal_op(cli, spec)
    finally:
        patch.undo()
    assert got == want
    summary = rec.summary()
    assert summary["logsurj.conormal_calls"] == 1
    assert summary["logsurj.surjection_calls"] == 1
    assert summary["gbcore.buchberger_calls"] > 0
    assert summary["gbcore.reduce_calls"] >= summary["gbcore.reduce_zero"]


def test_self_time_subtracts_children_and_nesting_counts_once():
    rec = tracing.Recorder()
    outer, child, gb = "logls.diagram", "aqclassic.build_ls", \
        "gbcore.buchberger"
    rec.spans = [[outer, 0.0, 10.0, None],
                 [child, 1.0, 4.0, 0],
                 [outer, 5.0, 7.0, 0],       # nested in an outer span
                 [gb, 7.5, 9.0, 0]]
    s = rec.summary()
    assert s[f"{outer}_s"] == 10.0           # outermost span only
    assert s[f"{outer}.self_s"] == (10.0 - 3.0 - 2.0 - 1.5) + 2.0
    assert s[f"{child}.self_s"] == 3.0
    assert s["gbcore.largest_call_s"] == 1.5


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.metric_units()
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"setup_s", "wall_s", "peak_rss_mb", "success_rate"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
