"""Hash the output of many CLI commands and every benchmark op, to check
that a change leaves every answer byte for byte as it was.

    python tests/byte_sweep.py [--src DIR] > sweep.txt

Each line is `name exit sha256`, the hash taken of what the command
prints on standard output (standard error names temporary paths and is
left out).  `--src` is the `src` directory of the checkout whose package
runs, by default this one's; run it on two checkouts and `diff` the
outputs.  The inputs are the corpus, the log Veronese maps d <= 5, the
strict rational normal curves d <= 5, the semistable maps n <= 5, ten
complete intersections in up to six variables, the toric sum maps
n <= 5 over QQ, F2 and F3, four weighted toric maps, two zero rings,
the non-graded quotient k -> k[x, y]/(x^2 - x^3, x*y), whose H0 is
told by its Fitting ideal alone, and the map k[u, v] -> k[s, t],
u -> s, v -> s*t + t^2, which hits s but not t.  Each gets `homology`
(self, residue, `--char 2`, `--char 3 --alt-choices`), `conormal`,
`tor`, `tor --char 2`, `kcomplex` (self and residue) and `print`.
Then come the five `verify` suites and the
benchmark workloads' ops at seeds 1-3.  This is a script, not a test.
"""

import argparse
import hashlib
import io
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ("homology", "--format", "json"),
    ("homology", "--coefficients", "residue", "--format", "json"),
    ("homology", "--char", "2", "--format", "json"),
    ("homology", "--char", "3", "--alt-choices", "--format", "json"),
    ("conormal", "--format", "json"),
    ("tor", "--format", "json"),
    ("tor", "--char", "2", "--format", "json"),
    ("kcomplex", "--format", "json"),
    ("kcomplex", "--coefficients", "residue", "--format", "json"),
    ("print",),
)
CIS = ((2, 3), (2, 2, 3), (3, 2, 3), (2, 3, 2, 2), (4, 2, 5), (5, 2, 4),
       (2, 3, 4, 5), (5, 5, 5, 3), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2))
WEIGHTED = (((1, 2, 3), "QQ"), ((1, 2, 3), "F3"), ((1, 2), "F2"),
            ((1, 3, 2, 2), "F3"))
SUITES = ("strict", "prop12", "jz", "edge", "all")
SEEDS = (1, 2, 3)


def inputs(helpers, corpus_dir):
    """(name, text) of every input of the sweep."""
    out = [(p.stem, p.read_text())
           for p in sorted(corpus_dir.glob("*.logaq"))]
    out += [(f"veronese_{d}", helpers.veronese_text(d)) for d in range(2, 6)]
    out += [(f"rnc_{d}", helpers.rnc_text(d)) for d in range(2, 6)]
    out += [(f"semistable_{n}", helpers.semistable_text(n))
            for n in range(2, 6)]
    out += [(f"ci_{'_'.join(map(str, d))}", helpers.ci_text(d)) for d in CIS]
    out += [(f"toric_{n}_{field}",
             helpers.weighted_toric_text((1,) * n, field))
            for n in range(2, 6) for field in ("QQ", "F2", "F3")]
    out += [(f"weighted_{'_'.join(map(str, w))}_{field}",
             helpers.weighted_toric_text(w, field)) for w, field in WEIGHTED]
    strict_ci = (corpus_dir / "strict_ci.logaq").read_text()
    out += [("zero_source", strict_ci.replace(
                'relations = []', 'relations = ["x", "x - 1"]')),
            ("zero_target", strict_ci.replace(
                'relations = ["x^2", "y^3"]', 'relations = ["x", "x - 1"]')),
            ("fitting_nongraded",
             helpers.quotient_text(("x^2 - x^3", "x*y"))),
            ("partly_hit", helpers.partly_hit_text())]
    return out


def digest(data):
    return hashlib.sha256(data.encode()).hexdigest()


def run_cli(cli, argv):
    """(exit code, standard output) of `logaq argv`, in this process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory whose logaq package runs")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests"),
                    str(ROOT / "bench")]
    from logaq import cli
    import helpers
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs(helpers, cli.corpus_dir()):
            path = Path(tmp) / f"{name}.logaq"
            path.write_text(text)
            for command in COMMANDS:
                code, out = run_cli(cli, [command[0], str(path),
                                          *command[1:]])
                print(f"{name}/{'_'.join(command)} {code} {digest(out)}",
                      flush=True)
    for suite in SUITES:
        code, out = run_cli(cli, ["verify", suite, "--format", "json"])
        print(f"verify_{suite} {code} {digest(out)}", flush=True)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.setup(workload, cli, random.Random(seed)):
                key = op.key.replace(" ", "_")
                print(f"{workload}/{seed}/{key} 0 {digest(op.run())}",
                      flush=True)


if __name__ == "__main__":
    main()
