"""Workload inputs, ops and reference checks for the logaq benchmark.

Nothing here imports logaq at module level: `run.py` imports the package
(several times, to time set-up) and hands the freshly imported modules
to `setup`.  Ops look functions up through those modules at call time,
so the traced run's wrappers see every call the benchmark makes.

Every reference below is a closed form or a stored golden file; none is
computed by the code under test.
"""

import json
from dataclasses import dataclass
from math import comb, prod

WORKLOADS = ("corpus_verify", "ci_growth", "toric_syzygy")

# The corpus at the seed commit; `verify all` must report every one of
# these with its golden comparison passing.
CORPUS_NAMES = (
    "log_line", "log_point", "logpoint_quotient", "mixed_cover",
    "monoid_collapse", "strict_ci", "strict_fat_point",
    "strict_hypersurface", "strict_plane_curve", "strict_smooth",
    "toric_sum", "torsion_kernel", "torsion_kummer", "x2_cover", "x3_cover",
)

CI_SIZES = (2, 3, 4)
CI_DEGREES = (2, 5)          # each d_i is drawn uniformly from this range
TORIC_SIZES = (2, 3, 4, 5)
TORIC_FIELD = "F3"
TOR_DEPTH = 4

CI_VARS = "xyzw"
TORIC_VARS = "uvwxy"
TORIC_GENS = "abcdf"         # "e" names the target generator


def ci_text(degrees):
    """Strict complete intersection k[x..] -> k[x..]/(x_i^{d_i}) over QQ.

    With degrees (2, 3) this is the corpus instance `strict_ci`.
    """
    vs = CI_VARS[:len(degrees)]
    rels = ", ".join(f'"{v}^{d}"' for v, d in zip(vs, degrees))
    ring_map = ", ".join(f'{v} = "{v}"' for v in vs)
    return f"""[meta]
strict = true
prop12 = true

[field]
name = "QQ"

[source]
vars = [{", ".join(vs)}]
relations = []
gens = []
alpha = {{}}

[target]
vars = [{", ".join(vs)}]
relations = [{rels}]
gens = []
alpha = {{}}

[morphism]
ring_map = {{ {ring_map} }}
monoid_map = {{}}
"""


def toric_text(n, field):
    """The sum map (k[u_1..u_n], N^n) -> (k[t], N), every u_i and every
    monoid generator sent onto t.

    With n = 2 over QQ this is the corpus instance `toric_sum`.
    """
    vs, gs = TORIC_VARS[:n], TORIC_GENS[:n]
    alpha = ", ".join(f'{g} = "{v}"' for g, v in zip(gs, vs))
    ring_map = ", ".join(f'{v} = "t"' for v in vs)
    monoid_map = ", ".join(f"{g} = [1]" for g in gs)
    return f"""[meta]
surjection = true
prop12 = true
alt = true

[field]
name = "{field}"

[source]
vars = [{", ".join(vs)}]
relations = []
gens = [{", ".join(gs)}]
alpha = {{ {alpha} }}

[target]
vars = [t]
relations = []
gens = [e]
alpha = {{ e = "t" }}

[morphism]
ring_map = {{ {ring_map} }}
monoid_map = {{ {monoid_map} }}
"""


def dump(report):
    """The CLI's `--format json` bytes for a report dict."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------------ ops
#
# Each op calls what the matching CLI command calls, looked up in the
# `cli` module, and returns the bytes that command would print.

def homology_op(cli, spec):
    mor = cli.build_morphism(spec)
    reports = cli.log_homology(mor)
    return dump({
        "command": "homology",
        "field": mor.target.algebra.field.name,
        "coefficients": "self",
        "degrees": {str(d): reports[d].to_dict() for d in range(3)},
    })


def tor_op(cli, spec):
    mor = cli.build_morphism(spec)
    reports = cli.tor_over_c(cli.LogSurjection(mor), TOR_DEPTH)
    return dump({
        "command": "tor",
        "field": mor.target.algebra.field.name,
        "degrees": {str(i): r.to_dict() for i, r in enumerate(reports)},
    })


def conormal_op(cli, spec):
    mor = cli.build_morphism(spec)
    s = cli.LogSurjection(mor)
    return dump({
        "command": "conormal",
        "field": mor.target.algebra.field.name,
        "conormal": cli.HomologyReport(cli.conormal_module(s)).to_dict(),
        "w_terms": {str(n): cli.w_terms(s, n).to_dict() for n in (1, 2)},
    })


def verify_all_op(cli):
    results, failures = cli.run_suite("all", threads=1)
    out = {"command": "verify", "suite": "all",
           "instances": {name: {label: (r is True or r)
                                for label, r in outcomes.items()}
                         for name, outcomes in results},
           "passed": not failures}
    if failures:
        out["first_failure"] = failures[0]
    return dump(out)


# ----------------------------------------------------------- references
#
# Each check takes the op's output bytes and returns None when they match
# the reference, else a one-line reason.

def _k_dims(report):
    return [report["degrees"][str(d)]["k_dimension"] for d in range(3)]


def _free_of_rank(entry, rank):
    """A free B-module of the given rank over the infinite ring k[t]."""
    return (entry["free_rank"] == rank
            and entry["k_dimension"] == (0 if rank == 0 else None))


def check_ci(degrees):
    n = len(degrees)
    want = [0, n * prod(degrees), 0]

    def check(out):
        got = _k_dims(json.loads(out))
        return None if got == want else f"k-dims {got} != {want}"
    return check


def check_toric_homology(n):
    def check(out):
        deg = json.loads(out)["degrees"]
        if _free_of_rank(deg["0"], 0) and _free_of_rank(deg["2"], 0) \
                and _free_of_rank(deg["1"], n - 1):
            return None
        return f"homology is not (0, B^{n - 1}, 0)"
    return check


def check_toric_tor(n):
    def check(out):
        deg = json.loads(out)["degrees"]
        bad = [i for i in range(TOR_DEPTH + 1)
               if not _free_of_rank(deg[str(i)], comb(n - 1, i))]
        return None if not bad else f"Tor_{bad[0]} is not B^C({n - 1},{bad[0]})"
    return check


def check_toric_conormal(n):
    # The conormal module matches H1 = B^{n-1}; the W-terms are
    # ker(Z^n -> Z) (x) B = B^{n-1}, which is torsion free, so W_2 = 0.
    def check(out):
        r = json.loads(out)
        if _free_of_rank(r["conormal"], n - 1) \
                and _free_of_rank(r["w_terms"]["1"], n - 1) \
                and _free_of_rank(r["w_terms"]["2"], 0):
            return None
        return f"conormal or W-terms are not (B^{n - 1}; B^{n - 1}, 0)"
    return check


def check_verify_all(out):
    r = json.loads(out)
    if not r["passed"]:
        return f"verify all failed: {r.get('first_failure')}"
    missing = [n for n in CORPUS_NAMES
               if r["instances"].get(n, {}).get("golden") is not True]
    return None if not missing else f"no passing golden check for {missing}"


# -------------------------------------------------------------- set-up

@dataclass
class Op:
    key: str           # unique within a workload, e.g. "tor n=4"
    run: object        # () -> output bytes
    check: object      # output bytes -> None or a reason


def setup(name, cli, rng):
    """The workload's ops, with inputs drawn from `rng` and parsed.

    Generating and parsing inputs is set-up; `build_morphism` and
    everything after it is part of each op.
    """
    if name == "corpus_verify":
        # loading the corpus is set-up; `run_suite` loads it again inside
        # the op, as `logaq verify all` does
        cli.corpus_instances()
        return [Op("verify all", lambda: verify_all_op(cli),
                   check_verify_all)]
    if name == "ci_growth":
        ops = []
        for n in CI_SIZES:
            degrees = tuple(rng.randint(*CI_DEGREES) for _ in range(n))
            spec = cli.parse_input(ci_text(degrees))
            ops.append(Op(f"homology d={degrees}",
                          lambda spec=spec: homology_op(cli, spec),
                          check_ci(degrees)))
        return ops
    if name == "toric_syzygy":
        ops = []
        for n in TORIC_SIZES:
            spec = cli.parse_input(toric_text(n, TORIC_FIELD))
            ops += [
                Op(f"homology n={n}", lambda spec=spec: homology_op(cli, spec),
                   check_toric_homology(n)),
                Op(f"tor n={n}", lambda spec=spec: tor_op(cli, spec),
                   check_toric_tor(n)),
                Op(f"conormal n={n}", lambda spec=spec: conormal_op(cli, spec),
                   check_toric_conormal(n)),
            ]
        return ops
    raise ValueError(f"unknown workload {name!r}")
