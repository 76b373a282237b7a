"""Alternate the growth families' log homology and Tor between two `src`
trees and compare CPU time and output bytes case by case.

    python tests/family_pairs.py PARENT_SRC CHANGE_SRC [--runs 6]

PARENT_SRC and CHANGE_SRC are `src` directories, each holding a `logaq`
package.  The cases are `homology` of the log Veronese maps d = 5, 6
and of the strict rational normal curves d = 5, 6, and `tor` at depth 4
of the strict rational normal curve d = 5.  Run i of a case runs it once
per tree, each in a fresh subprocess with `PYTHONDONTWRITEBYTECODE=1`,
the parent first when i is even and the change first when it is odd.
A run takes `time.process_time()` around `build_morphism` and the
report, and hashes the report's JSON as the CLI prints it.

For each case it prints each side's median CPU seconds, the change's
median over the parent's, the parent's interquartile range, the runs
the change wins (less CPU than the parent's run of the same pair) and
whether every run of both trees printed the same bytes.  The last line
is a JSON object with every value measured,
{case: {side: [[cpu_s, sha256], ...]}}.  This is a script, not a test.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import SIDES, quartiles

ROOT = Path(__file__).resolve().parent.parent

# (name, input text function of tests/helpers.py, its argument, command)
CASES = (
    ("veronese d=5 homology", "veronese_text", 5, "homology"),
    ("veronese d=6 homology", "veronese_text", 6, "homology"),
    ("strict rnc d=5 homology", "rnc_text", 5, "homology"),
    ("strict rnc d=6 homology", "rnc_text", 6, "homology"),
    ("strict rnc d=5 tor depth 4", "rnc_text", 5, "tor"),
)
TOR_DEPTH = 4

# one run: the input text on standard input, the command as argument;
# prints {"cpu_s": ..., "sha256": ...}
RUN = """
import hashlib, json, sys, time
from logaq.cli import homology_report
from logaq.inputspec import build_morphism, parse_input
from logaq.logsurj import LogSurjection, tor_over_c
spec = parse_input(sys.stdin.read())
start = time.process_time()
mor = build_morphism(spec)
if sys.argv[1] == "homology":
    report = homology_report(mor)
else:
    reports = tor_over_c(LogSurjection(mor), int(sys.argv[2]))
    report = {"command": "tor", "field": mor.target.algebra.field.name,
              "degrees": {str(i): r.to_dict() for i, r in enumerate(reports)}}
cpu = time.process_time() - start
text = json.dumps(report, sort_keys=True, indent=2) + "\\n"
print(json.dumps({"cpu_s": cpu,
                  "sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""


def run_once(src, text, command):
    """(CPU seconds, sha256 of the report) of one run in a fresh
    subprocess on the package in `src`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, command, str(TOR_DEPTH)], input=text,
        env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{command} on {src} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["cpu_s"], out["sha256"]


def summarize(name, runs):
    """The line of one case's runs, {side: [(cpu_s, sha256), ...]}."""
    a = [cpu for cpu, _ in runs["parent"]]
    b = [cpu for cpu, _ in runs["change"]]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(y < x for x, y in zip(a, b))
    same = len({h for side in SIDES for _, h in runs[side]}) == 1
    return (f"{name}: parent {qa[1]:.3f} s -> change {qb[1]:.3f} s"
            f" ({qb[1] / qa[1]:.3f}x), parent IQR {qa[2] - qa[0]:.3f} s,"
            f" change wins {wins}/{len(a)},"
            f" bytes equal: {'yes' if same else 'no'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--runs", type=int, default=6)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import helpers
    srcs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    raw = {}
    for name, family, d, command in CASES:
        text = getattr(helpers, family)(d)
        runs = raw[name] = {side: [] for side in SIDES}
        for i in range(args.runs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(srcs[side], text, command))
        print(summarize(name, runs), flush=True)
    print(json.dumps(raw))


if __name__ == "__main__":
    main()
