"""Alternate the benchmark between two checkouts and compare their
end-to-end metrics pair by pair.

    python tests/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds 36]
        [--seed 1] [--workload NAME ...]

PARENT and CHANGE are checkout roots, each with its own `bench/` and
`src/`.  For every workload (by default all that the parent's
`BENCHMARK.json` names), pair i runs `bench/run.py --trace 0` once in
each checkout, the parent first when i is even and the change first
when it is odd.  Both run with `PYTHONDONTWRITEBYTECODE=1`, so that each
run compiles the package from source as the other does.

For each end-to-end metric of `BENCHMARK.json` it prints each side's
median and quartiles, the change's median over the parent's, the
parent's interquartile range and the pairs the change wins, in the
direction the metric calls better (ties count for neither side).  A
gain holds by the pairs rule when the change wins at least nine tenths
of the pairs and the medians differ by more than the parent's
interquartile range.  It also prints whether the change stays within
the metric's `bound`, a share of the parent's median: "yes" when the
change's median is worse than the parent's by at most that share,
"no" when by more, and "unresolved" when the parent's interquartile
range exceeds that share, too wide to tell, unless every change run
beats every parent run.  The last line is a JSON object with every
value measured, {workload: {side: [{metric: value}, ...]}}.  This is a
script, not a test.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root, workload, seed, seconds):
    """{metric: value} of one `bench/run.py --trace 0` run in `root`,
    with "correct" among them."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"bench/run.py in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {name: m["value"] for name, m in report["metrics"].items()}
    out["correct"] = report["correct"]
    return out


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def within_bound(parent, change, bound, lower):
    """"yes", "no" or "unresolved": whether the change's median is worse
    than the parent's by at most `bound` times the parent's median, in
    the direction `lower` (lower is better) or not.  Unresolved when the
    parent's interquartile range exceeds that margin, unless every
    change run beats every parent run."""
    qa, qb = quartiles(parent), quartiles(change)
    margin = bound * abs(qa[1])
    if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
        return "yes"
    if qa[2] - qa[0] > margin:
        return "unresolved"
    worse = qb[1] - qa[1] if lower else qa[1] - qb[1]
    return "yes" if worse <= margin else "no"


def summarize(runs, metrics):
    """Lines of the per-metric table for one workload's runs."""
    lines = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        qa, qb = quartiles(a), quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        iqr = qa[2] - qa[0]
        gain = (wins >= 0.9 * len(a)
                and abs(qb[1] - qa[1]) > iqr
                and (qb[1] < qa[1]) == lower)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        lines.append(
            f"  {name}: parent {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            f" -> change {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            f" ({ratio:.3f}x), parent IQR {iqr:.5g},"
            f" change wins {wins}/{len(a)}, gain by the rule: {gain},"
            f" within bound {m['bound']:g}:"
            f" {within_bound(a, b, m['bound'], lower)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    roots = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    raw = {}
    for workload in names:
        runs = raw[workload] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(roots[side], workload,
                                           args.seed, args.seconds))
            print(f"{workload} pair {i + 1}: " + ", ".join(
                f"{side} wall_s {runs[side][-1]['wall_s']:.5g}"
                for side in SIDES), file=sys.stderr, flush=True)
        correct = all(r["correct"] for side in SIDES for r in runs[side])
        print(f"{workload} (seed {args.seed}, {args.pairs} pairs, "
              f"--seconds {args.seconds}, correct: {correct})")
        for line in summarize(runs, spec["end_to_end"]):
            print(line)
    print(json.dumps(raw))


if __name__ == "__main__":
    main()
