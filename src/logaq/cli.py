"""Command line interface.

Subcommands: homology (the log complex), kcomplex (the monoid-side
complex with its closed-form cross-check), conormal and tor (surjection
invariants), print (canonical form of an input file), and verify (the
invariant suites over the bundled corpus).

Exit codes: 0 success, 1 verification failure, 2 input error,
3 internal consistency failure.
"""

import argparse
import json
import sys
import time
from importlib import resources

from .monoids import FactorizationOptions
from .modules import HomologyReport
from .aqclassic import coefficient_module
from .kcomplex import build_k, check_prop12, kdata_from_factorization
from .logls import (CommutationFailure, log_homology,
                    check_strict_reduction, check_compatibility_sequence)
from .logsurj import (LogSurjection, tor_over_c, w_terms,
                      conormal_module, check_edge_identity)
from .monoids import choose_log_factorization
from .polynomials import ExponentOverflow
from .inputspec import (parse_input, print_input, build_morphism,
                        ParseError, SemanticError)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

ALT_OPTIONS = [
    FactorizationOptions(extra_x=True),
    FactorizationOptions(reverse_x=True),
    FactorizationOptions(extra_x=True, reverse_x=True, front_raw=True),
]


class InputError(Exception):
    pass


def _field_name(char):
    if char is None:
        return None
    return "QQ" if char == 0 else f"F{char}"


def _load(path):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise InputError(str(e))
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e.reason} at byte "
                         f"{e.start})")
    try:
        return parse_input(text)
    except (ParseError, SemanticError) as e:
        raise InputError(f"{path}: {e}")


def _morphism(path, char):
    """The morphism a file describes, over the field `char` names."""
    spec = _load(path)
    try:
        return build_morphism(spec, field_name=_field_name(char))
    except (ParseError, SemanticError) as e:
        raise InputError(f"{path}: {e}")


def _emit(report, fmt, started):
    out = sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2))
        out.write("\n")
        return
    _emit_human(report, out, indent="")
    out.write(f"elapsed: {time.time() - started:.3f}s\n")


def _emit_human(node, out, indent):
    for k in sorted(node):
        v = node[k]
        if isinstance(v, dict):
            out.write(f"{indent}{k}:\n")
            _emit_human(v, out, indent + "  ")
        else:
            out.write(f"{indent}{k} = {json.dumps(v)}\n")


def _degree_list(arg):
    try:
        degrees = sorted({int(x) for x in arg.split(",")})
    except ValueError:
        raise InputError(f"bad degree list {arg!r}")
    if not degrees or degrees[0] < 0 or degrees[-1] > 2:
        raise InputError("degrees must be among 0, 1, 2")
    return degrees


def homology_report(mor, coefficients="self", degrees=(0, 1, 2)):
    """The machine homology report; an instance's golden file records
    it with the defaults."""
    reports = log_homology(mor, coefficients)
    return {
        "command": "homology",
        "field": mor.target.algebra.field.name,
        "coefficients": coefficients,
        "degrees": {str(d): reports[d].to_dict() for d in degrees},
    }


def alt_choices_agree(mor, coefficients="self", degrees=(0, 1, 2)):
    """Whether every factorization in ALT_OPTIONS gives homology reports
    that agree (`HomologyReport.same_as`) with the default one."""
    base = log_homology(mor, coefficients)
    return all(log_homology(mor, coefficients, opt)[d].same_as(base[d])
               for opt in ALT_OPTIONS for d in degrees)


def cmd_homology(args):
    mor = _morphism(args.file, args.char)
    degrees = _degree_list(args.degrees)
    out = homology_report(mor, args.coefficients, degrees)
    agree = True
    if args.alt_choices:
        agree = alt_choices_agree(mor, args.coefficients, degrees)
        out["alt_choices_agree"] = agree
    _emit(out, args.format, args.started)
    return EXIT_OK if agree else EXIT_VERIFY


def cmd_kcomplex(args):
    mor = _morphism(args.file, args.char)
    kd = kdata_from_factorization(choose_log_factorization(mor))
    coeff = coefficient_module(mor.target.algebra, args.coefficients)
    out = {"command": "kcomplex",
           "field": mor.target.algebra.field.name,
           "coefficients": args.coefficients}
    if coeff.k_dimension() is not None:
        computed, predicted = check_prop12(kd, mor.monoid_map, coeff)
        out["computed_dims"] = list(computed)
        out["predicted_dims"] = list(predicted)
        out["agree"] = computed == predicted
        _emit(out, args.format, args.started)
        return EXIT_OK if computed == predicted else EXIT_VERIFY
    h0, h1, h2 = build_k(kd, coeff).homology()
    out["degrees"] = {str(i): HomologyReport(m).to_dict()
                      for i, m in enumerate((h0, h1, h2))}
    _emit(out, args.format, args.started)
    return EXIT_OK


def cmd_conormal(args):
    mor = _morphism(args.file, args.char)
    try:
        s = LogSurjection(mor)
    except ValueError as e:
        raise InputError(str(e))
    out = {"command": "conormal",
           "field": mor.target.algebra.field.name,
           "conormal": HomologyReport(conormal_module(s)).to_dict(),
           "w_terms": {str(n): w_terms(s, n).to_dict() for n in (1, 2)}}
    _emit(out, args.format, args.started)
    return EXIT_OK


def cmd_tor(args):
    mor = _morphism(args.file, args.char)
    try:
        s = LogSurjection(mor)
        reports = tor_over_c(s, args.depth)
    except ValueError as e:
        raise InputError(str(e))
    out = {"command": "tor",
           "field": mor.target.algebra.field.name,
           "degrees": {str(i): r.to_dict() for i, r in enumerate(reports)}}
    _emit(out, args.format, args.started)
    return EXIT_OK


def cmd_print(args):
    spec = _load(args.file)
    sys.stdout.write(print_input(spec))
    return EXIT_OK


# ------------------------------------------------------------ verification

def corpus_dir():
    return resources.files("logaq") / "corpus"


def corpus_instances():
    """Sorted (name, InputSpec) pairs from the bundled corpus."""
    out = []
    for entry in sorted(corpus_dir().iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".logaq"):
            continue
        name = entry.name[: -len(".logaq")]
        try:
            spec = parse_input(entry.read_text())
        except (ParseError, SemanticError) as e:
            raise InputError(f"corpus file {entry.name}: {e}")
        out.append((name, spec))
    return out


def _flag(spec, key):
    return spec.meta.get(key) == "true"


def _verify_strict(name, spec, mor):
    if not _flag(spec, "strict"):
        return None
    _log, _cls, agree = check_strict_reduction(mor)
    return agree or f"{name}: log and classical homology disagree"


def _verify_prop12(name, spec, mor):
    if not _flag(spec, "prop12"):
        return None
    # the integer data does not depend on the field
    kd = kdata_from_factorization(choose_log_factorization(mor))
    for char in (0, 2):
        over = mor
        if mor.target.algebra.field.name != _field_name(char):
            over = build_morphism(spec, field_name=_field_name(char))
        for coeff_name in ("self", "residue"):
            coeff = coefficient_module(over.target.algebra, coeff_name)
            if coeff.k_dimension() is None:
                continue
            computed, predicted = check_prop12(kd, mor.monoid_map, coeff)
            if computed != predicted:
                return (f"{name}: char {char}, {coeff_name}: "
                        f"dims {computed} != predicted {predicted}")
    return True


def _verify_jz(name, spec, mor):
    checks = check_compatibility_sequence(mor)
    bad = sorted(k for k, v in checks.items() if not v)
    return (not bad) or f"{name}: failed {', '.join(bad)}"


def _verify_edge(name, spec, mor):
    if not _flag(spec, "surjection"):
        return None
    _h1, _con, agree = check_edge_identity(LogSurjection(mor))
    return agree or f"{name}: H1 does not match the conormal module"


def _verify_alt(name, spec, mor):
    if not _flag(spec, "alt"):
        return None
    return alt_choices_agree(mor) \
        or f"{name}: homology changed under alternative choices"


def _verify_golden(name, spec, mor):
    path = corpus_dir() / f"{name}.golden.json"
    try:
        want = path.read_text()
    except OSError:
        return f"{name}: missing golden file"
    got = json.dumps(homology_report(mor), sort_keys=True, indent=2) + "\n"
    return got == want or f"{name}: report differs from golden file"


SUITES = {
    "strict": [_verify_strict],
    "prop12": [_verify_prop12],
    "jz": [_verify_jz],
    "edge": [_verify_edge],
    "all": [_verify_strict, _verify_prop12, _verify_jz, _verify_edge,
            _verify_alt, _verify_golden],
}


class InternalFailure(str):
    """Outcome of a check that raised CommutationFailure."""


def run_suite(suite, threads=1):
    """(results, failures): per-instance outcomes, sorted by name.

    Every check of an instance gets the same morphism, so they share
    its log complex and reports.  A check that raises is recorded as
    that instance's failure and the suite goes on; a CommutationFailure
    is recorded as an InternalFailure.

    `threads` accepts only 1, since a thread pool gave no gain; the
    parameter stays while `bench/workloads.py` passes `threads=1`.
    Drop both when the benchmark next changes.
    """
    if threads != 1:
        raise ValueError("run_suite runs on one thread")
    instances = corpus_instances()
    checks = SUITES[suite]

    def run_one(item):
        name, spec = item
        # parse_input built this morphism once already, so it cannot fail
        mor = build_morphism(spec)
        outcomes = {}
        for check in checks:
            label = check.__name__.replace("_verify_", "")
            try:
                r = check(name, spec, mor)
            except CommutationFailure as e:
                r = InternalFailure(
                    f"{name}: internal consistency failure in {label}: {e}")
            except Exception as e:
                r = f"{name}: {type(e).__name__}: {e}"
            if r is not None:
                outcomes[label] = r
        return name, outcomes

    results = [run_one(item) for item in instances]
    failures = []
    for name, outcomes in results:
        for label, r in sorted(outcomes.items()):
            if r is not True:
                failures.append(f"{label}: {r}")
    return results, failures


def cmd_verify(args):
    results, failures = run_suite(args.suite)
    out = {"command": "verify", "suite": args.suite,
           "instances": {name: {label: (r is True or r)
                                for label, r in outcomes.items()}
                         for name, outcomes in results},
           "passed": not failures}
    if failures:
        out["first_failure"] = failures[0]
    _emit(out, args.format, args.started)
    internal = [r for _name, outcomes in results for r in outcomes.values()
                if isinstance(r, InternalFailure)]
    for r in internal:
        print(r, file=sys.stderr)
    if internal:
        return EXIT_INTERNAL
    return EXIT_OK if not failures else EXIT_VERIFY


# ---------------------------------------------------------------- driver

def build_parser():
    top = argparse.ArgumentParser(
        prog="logaq",
        description="logarithmic Andre-Quillen homology in degrees 0-2")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input description file")
        p.add_argument("--char", type=int, default=None,
                       help="override the coefficient field "
                            "characteristic (0 for the rationals)")
        p.add_argument("--format", choices=("human", "json"),
                       default="human")

    p = sub.add_parser("homology", help="homology of the log complex")
    common(p)
    p.add_argument("--degrees", default="0,1,2")
    p.add_argument("--coefficients", default="self",
                   choices=("self", "residue"))
    p.add_argument("--alt-choices", action="store_true",
                   help="recompute under alternative presentations and "
                        "require identical answers")
    p.set_defaults(run=cmd_homology)

    p = sub.add_parser("kcomplex", help="monoid-side complex")
    common(p)
    p.add_argument("--coefficients", default="self",
                   choices=("self", "residue"))
    p.set_defaults(run=cmd_kcomplex)

    p = sub.add_parser("conormal",
                       help="conormal module of a log surjection")
    common(p)
    p.set_defaults(run=cmd_conormal)

    p = sub.add_parser("tor", help="Tor of the underlying surjection")
    common(p)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(run=cmd_tor)

    p = sub.add_parser("print", help="canonical form of an input file")
    p.add_argument("file")
    p.set_defaults(run=cmd_print)

    p = sub.add_parser("verify",
                       help="run an invariant suite over the corpus")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(run=cmd_verify)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.started = time.time()
    try:
        return args.run(args)
    except (InputError, ExponentOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except CommutationFailure as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
