"""Benchmark for logaq: one workload per process, one client, closed loop.

    python3 bench/run.py --workload corpus_verify --seed 1 --seconds 36 --trace 0

Whole passes over the workload's ops run back to back, each op starting
when the previous one returns, for as many passes as fit in `--seconds`
(at least one).  Every pass starts from a fresh import of logaq (from
`src/` next to this directory) and freshly built inputs, as a new CLI
process would, so nothing cached in one pass can speed up the next.
That set-up is done SETUP_PER_PASS times before each pass, and the
median over the run is reported.  Every answer is checked against its
reference; a wrong or raising op is counted as failed and the run goes
on.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics.  With `--trace 1` untraced and traced passes
alternate; it reports the per-layer metrics of the traced passes and
the tracing overhead, checks that both kinds of pass print the same
bytes, and writes every span and counter to `.bench_out/` at the end.
"""

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PER_PASS = 3
DEFAULT_SEED = 1


def log(message):
    print(message, file=sys.stderr)


def import_logaq():
    """A fresh import of logaq.cli, which imports every other module."""
    for name in list(sys.modules):
        if name == "logaq" or name.startswith("logaq."):
            del sys.modules[name]
    cli = importlib.import_module("logaq.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"logaq.cli came from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, seed, times):
    """The workload's ops after SETUP_PER_PASS fresh set-ups, each of
    whose durations is appended to `times`."""
    for _ in range(SETUP_PER_PASS):
        # a fresh process has no garbage from earlier imports to collect
        gc.collect()
        start = perf_counter()
        ops = workloads.setup(workload, import_logaq(), random.Random(seed))
        times.append(perf_counter() - start)
    return ops


def run_pass(ops, rng):
    """(seconds spent in ops, {op key: output or None}, failed ops)."""
    order = list(ops)
    rng.shuffle(order)
    wall = 0.0
    outputs = {}
    failed = 0
    for op in order:
        start = perf_counter()
        try:
            out = op.run()
        except Exception:
            wall += perf_counter() - start
            failed += 1
            outputs[op.key] = None
            log(f"{op.key}: raised\n{traceback.format_exc()}")
            continue
        wall += perf_counter() - start
        outputs[op.key] = out
        reason = op.check(out)
        if reason is not None:
            failed += 1
            log(f"{op.key}: wrong answer: {reason}")
    return wall, outputs, failed


def time_for_another(last_start, deadline):
    """Whether a pass as long as the one begun at `last_start` would
    still end by the deadline; this keeps a run within `--seconds`
    whenever a single pass is shorter than that."""
    now = perf_counter()
    return now + (now - last_start) <= deadline


def measure(workload, seed, seconds):
    """End-to-end passes with tracing off; (set-up times, pass times,
    attempted, failed)."""
    order = random.Random(f"order {seed}")
    setups, walls, attempted, failed = [], [], 0, 0
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        ops = set_up(workload, seed, setups)
        wall, _outputs, f = run_pass(ops, order)
        walls.append(wall)
        attempted += len(ops)
        failed += f
        if not time_for_another(start, deadline):
            log(f"pass walls (s): {[round(w, 4) for w in walls]}")
            return setups, walls, attempted, failed


def measure_traced(workload, seed, seconds):
    """Alternating untraced and traced passes; (metrics, attempted,
    failed, problems)."""
    order = random.Random(f"order {seed}")
    untraced, traced, summaries, recorders = [], [], [], []
    attempted, failed, problems = 0, 0, []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        wall_u, out_u, f_u = run_pass(set_up(workload, seed, []), order)
        ops = set_up(workload, seed, [])
        rec = tracing.Recorder()
        patch = tracing.Patch(tracing.logaq_modules(), rec)
        try:
            wall_t, out_t, f_t = run_pass(ops, order)
        finally:
            patch.undo()
        untraced.append(wall_u)
        traced.append(wall_t)
        summaries.append(rec.summary())
        recorders.append(rec)
        attempted += 2 * len(ops)
        failed += f_u + f_t
        differ = sorted(k for k in out_u if out_u[k] != out_t[k])
        if differ:
            problems.append(f"traced output differs for {differ}")
        if not time_for_another(start, deadline):
            break
    if patch.missing:
        log(f"probe targets not found, reported as 0: {patch.missing}")
    uncalled = tracing.uncalled(summaries[-1], workload, patch.missing)
    if uncalled:
        problems.append(f"probes recorded no call: {uncalled}")

    metrics = {}
    for key, unit in tracing.metric_units().items():
        values = [s[key] for s in summaries]
        metrics[key] = statistics.median_low(values) if unit == "count" \
            else statistics.median(values)
    wall_u, wall_t = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = wall_u
    metrics["trace.traced_wall_s"] = wall_t
    metrics["trace.overhead_ratio"] = (wall_t - wall_u) / wall_u
    write_trace(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl", recorders)
    return metrics, attempted, failed, problems


def write_trace(path, recorders):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        for p, rec in enumerate(recorders):
            for name, start, end, parent in rec.spans:
                f.write(json.dumps({"pass": p, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
            f.write(json.dumps({"pass": p,
                                "counters": dict(sorted(rec.counters.items()))})
                    + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "logaq" / "cli.py").is_file():
        log(f"error: no logaq sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        values, attempted, failed, problems = measure_traced(
            args.workload, args.seed, args.seconds)
        for p in problems:
            log(p)
        units = tracing.metric_units()
        correct = failed == 0 and not problems
    else:
        setups, walls, attempted, failed = measure(
            args.workload, args.seed, args.seconds)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - failed / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
                 "success_rate": "ratio"}
        correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
