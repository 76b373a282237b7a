"""Per-layer timing of logaq from outside the package.

A probe wraps one or more functions or methods of a logaq module.  A span
probe records a span (name, start, end, parent) per call; a count probe
only counts calls.  Spans and counters stay in memory and are summarised,
and written out, only when the run ends.

Functions are rebound at every module that binds them by name (and in
module-level tables such as `cli.SUITES`), so a call is seen whichever
module makes it.  Methods are replaced on their class.
"""

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from workloads import WORKLOADS as ALL

CORPUS = ("corpus_verify",)
SURJ = ("corpus_verify", "toric_syzygy")


@dataclass(frozen=True)
class Probe:
    layer: str          # logaq module the metric is named after
    name: str           # metric stem
    targets: tuple      # "module.func" or "module.Class.method"
    span: bool          # span probe (time + calls) or count probe
    expect: tuple       # workloads on which it must record a call
    observe: object = None   # (recorder, args, result) -> None


def _observe_buchberger(rec, args, result):
    rec.counters["gbcore.buchberger_in_vecs"] += len(args[0])
    rec.counters["gbcore.buchberger_out_vecs"] += len(result)


def _observe_reduce(rec, args, result):
    if not result:
        rec.counters["gbcore.reduce_zero"] += 1


def _span(layer, name, *targets, expect=ALL, observe=None):
    return Probe(layer, name, targets, True, expect, observe)


def _count(layer, name, *targets, expect=ALL, observe=None):
    return Probe(layer, name, targets, False, expect, observe)


PROBES = (
    _span("gbcore", "buchberger", "gbcore.buchberger_vec",
          observe=_observe_buchberger),
    _count("gbcore", "tagged_builds", "gbcore.TaggedGB.__init__"),
    _count("gbcore", "reduce_calls", "gbcore.reduce_vec",
           observe=_observe_reduce),
    _span("aqclassic", "build_ls", "aqclassic.build_ls"),
    _span("aqclassic", "u_mod_u0", "aqclassic.u_mod_u0"),
    _span("aqclassic", "ls_complex", "aqclassic.ls_complex"),
    _count("aqclassic", "aq_classical_calls", "aqclassic.aq_classical",
           expect=CORPUS),
    _span("modules", "h0", "modules.Complex3.h0"),
    _span("modules", "h1", "modules.Complex3.h1"),
    _span("modules", "h2", "modules.Complex3.h2"),
    _span("modules", "report", "modules.HomologyReport.__init__"),
    _span("modules", "tensor", "modules.tensor_complex",
          "modules.tensor_module", "modules.tensor_hom", expect=CORPUS),
    _span("modules", "rel_gb", "modules.FpModule.rel_gb"),
    _count("modules", "syzygies_of_calls", "modules.FpModule.syzygies_of"),
    _count("modules", "express_in_calls", "modules.FpModule.express_in",
           expect=SURJ),
    _span("logls", "diagram", "logls.build_diagram1"),
    _span("logls", "assemble", "logls.assemble_log_ls"),
    _count("logls", "log_homology_calls", "logls.log_homology"),
    _span("logls", "compat_check", "logls.check_compatibility_sequence",
          expect=CORPUS),
    _span("inputspec", "build_morphism", "inputspec.build_morphism"),
    _span("groebner", "algebra_gb", "groebner.PresentedAlgebra.gb"),
    _span("groebner", "kernel", "groebner.AlgebraMap.kernel_generators"),
    _span("groebner", "surjectivity",
          "groebner.AlgebraMap.surjectivity_witness", expect=SURJ),
    _span("monoids", "factorization", "monoids.choose_log_factorization"),
    _span("kcomplex", "kdata", "kcomplex.kdata_from_factorization"),
    _span("kcomplex", "prop12", "kcomplex.check_prop12", expect=CORPUS),
    _span("intlinalg", "snf", "intlinalg.snf", expect=CORPUS),
    _span("logsurj", "surjection", "logsurj.LogSurjection.__init__",
          expect=SURJ),
    _span("logsurj", "tor", "logsurj.tor_over_c", expect=("toric_syzygy",)),
    _span("logsurj", "conormal", "logsurj.conormal_module", expect=SURJ),
) + tuple(
    _span("cli", f"verify_{check}", f"cli._verify_{check}", expect=CORPUS)
    for check in ("strict", "prop12", "jz", "edge", "alt", "golden"))

OVERHEAD_METRICS = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for p in PROBES:
        stem = f"{p.layer}.{p.name}"
        if p.span:
            out[f"{stem}_s"] = "s"
            out[f"{stem}.self_s"] = "s"
            out[f"{stem}_calls"] = "count"
        else:
            out[stem] = "count"
    out["gbcore.buchberger_in_vecs"] = "count"
    out["gbcore.buchberger_out_vecs"] = "count"
    out["gbcore.largest_call_s"] = "s"
    out["gbcore.reduce_zero"] = "count"
    out["gbcore.reduce_nonzero_ratio"] = "ratio"
    out.update(OVERHEAD_METRICS)
    return out


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = Counter()

    def span_wrapper(self, name, fn, observe):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(i)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[i][1], spans[i][2] = start, end
            counters[name + "_calls"] += 1
            if observe:
                observe(self, args, result)
            return result
        return wrapper

    def count_wrapper(self, name, fn, observe):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += 1
            if observe:
                observe(self, args, result)
            return result
        return wrapper

    def summary(self):
        """Per-layer metric values of this pass."""
        out = dict.fromkeys(metric_units(), 0)
        out.update(self.counters)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.self_s"] += dur - child[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                out[f"{name}_s"] += dur
            if name == "gbcore.buchberger":
                out["gbcore.largest_call_s"] = max(
                    out["gbcore.largest_call_s"], dur)
        calls = out["gbcore.reduce_calls"]
        out["gbcore.reduce_nonzero_ratio"] = \
            (calls - out["gbcore.reduce_zero"]) / calls if calls else 0.0
        return out


def _resolve(modules, target):
    """(owner, attribute) for "module.func" or "module.Class.method"."""
    mod, *path = target.split(".")
    owner = modules[f"logaq.{mod}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Patch:
    """Probes installed on a set of logaq modules; `undo` restores them."""

    def __init__(self, modules, recorder):
        self.undo_log = []       # (container, key, original)
        self.missing = []
        for probe in PROBES:
            stem = f"{probe.layer}.{probe.name}"
            for target in probe.targets:
                try:
                    owner, attr = _resolve(modules, target)
                    orig = vars(owner)[attr]
                except (KeyError, AttributeError):
                    self.missing.append(target)
                    continue
                make = recorder.span_wrapper if probe.span \
                    else recorder.count_wrapper
                wrapper = make(stem, orig, probe.observe)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper, orig)
                else:
                    self._rebind(modules, orig, wrapper)

    def _set(self, owner, attr, new, orig):
        setattr(owner, attr, new)
        self.undo_log.append((owner, attr, orig))

    def _rebind(self, modules, orig, new):
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, new, orig)
                elif isinstance(val, dict):
                    for table in val.values():
                        if isinstance(table, list):
                            for i, item in enumerate(table):
                                if item is orig:
                                    table[i] = new
                                    self.undo_log.append((table, i, orig))

    def undo(self):
        for container, key, orig in reversed(self.undo_log):
            if isinstance(container, list):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self.undo_log = []


def uncalled(summary, workload, missing):
    """Probes that must record a call on `workload` but recorded none.

    A probe none of whose targets exist any more is skipped: `missing`
    already reports it.
    """
    out = []
    for p in PROBES:
        stem = f"{p.layer}.{p.name}"
        if all(t in missing for t in p.targets):
            continue
        key = f"{stem}_calls" if p.span else stem
        if workload in p.expect and not summary[key]:
            out.append(stem)
    return out


def logaq_modules():
    return {k: v for k, v in sys.modules.items()
            if k == "logaq" or k.startswith("logaq.")}
