"""Command line driver: reports, exit codes, determinism, suites."""

import json
import shutil
from collections import Counter

import pytest

from logaq import cli
from logaq.cli import main, corpus_dir, run_suite
from logaq.logls import CommutationFailure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_file(name):
    return str(corpus_dir() / f"{name}.logaq")


def test_homology_json(capsys):
    code, out, _ = run(capsys, "homology", corpus_file("log_point"),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["degrees"]["0"]["k_dimension"] == 1
    assert rep["degrees"]["1"]["k_dimension"] == 1
    assert rep["degrees"]["2"]["k_dimension"] == 0


def test_json_deterministic(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "homology", corpus_file("strict_ci"),
                        "--format", "json")
        outs.add(out)
    assert len(outs) == 1
    assert "elapsed" not in next(iter(outs))


def test_human_format_has_timing(capsys):
    code, out, _ = run(capsys, "homology", corpus_file("log_point"))
    assert code == 0
    assert "elapsed" in out


def test_degrees_flag(capsys):
    _, out, _ = run(capsys, "homology", corpus_file("log_point"),
                    "--degrees", "1", "--format", "json")
    assert set(json.loads(out)["degrees"]) == {"1"}


def test_char_override(capsys):
    _, out, _ = run(capsys, "homology", corpus_file("x2_cover"),
                    "--char", "2", "--format", "json")
    assert json.loads(out)["field"] == "F2"


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "homology", "/no/such/file")
    assert code == 2
    assert "error" in err


def test_bad_input_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.logaq"
    p.write_text('[field]\nname = "R"\n[source]\n[target]\n[morphism]\n')
    code, _, err = run(capsys, "homology", str(p))
    assert code == 2
    assert "unsupported field" in err


@pytest.mark.parametrize("digits", ["9" * 400,
                                    "1000000000000000000000000000057"],
                         ids=["400_nines", "31_digits"])
def test_large_characteristic_exit_2(capsys, tmp_path, digits):
    # a prime test by trial division would overflow on the first and not
    # finish on the second; both lie above the 2^31 bound
    text = (corpus_dir() / "log_point.logaq").read_text()
    p = tmp_path / "big.logaq"
    p.write_text(text.replace('name = "QQ"', f'name = "F{digits}"'))
    code, _, err = run(capsys, "homology", str(p))
    assert code == 2
    assert "below 2^31" in err


@pytest.mark.parametrize("name, old, new, where", [
    ("log_point", "prop12 = true", "prop12 = " + "9" * 5000,
     "line 5, column 10: integer literal is too long"),
    ("toric_sum", 'alpha = { e = "t" }', f'alpha = {{ e = "{"9" * 5000}*t" }}',
     "section 'target', alpha.e, column 1: integer literal is too long"),
    ("log_point", 'name = "QQ"', f'name = "F{"9" * 5000}"', "below 2^31"),
], ids=["meta", "polynomial", "field"])
def test_overlong_integer_exit_2(capsys, tmp_path, name, old, new, where):
    # Python's int() refuses more than 4300 digits by default
    text = (corpus_dir() / f"{name}.logaq").read_text()
    assert old in text
    p = tmp_path / "long.logaq"
    p.write_text(text.replace(old, new))
    code, _, err = run(capsys, "homology", str(p))
    assert code == 2
    assert where in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("field, relation, char, where", [
    ("QQ", "1/0*x^2", None,
     "section 'target', relations[0], column 3: denominator 0 is zero in QQ"),
    ("F3", "1/3*x^2", None,
     "section 'target', relations[0], column 3: denominator 3 is zero in F3"),
    ("QQ", "x^2 + 1/3*y", "3",
     "section 'target', relations[0], column 9: denominator 3 is zero in F3"),
], ids=["QQ", "F3", "char_override"])
def test_zero_denominator_exit_2(capsys, tmp_path, field, relation, char,
                                 where):
    text = (corpus_dir() / "strict_ci.logaq").read_text()
    assert '"x^2", "y^3"' in text
    p = tmp_path / "zero.logaq"
    p.write_text(text.replace('"QQ"', f'"{field}"')
                 .replace('"x^2", "y^3"', f'"{relation}", "y^3"'))
    code, _, err = run(capsys, "homology", str(p),
                       *(["--char", char] if char else []))
    assert code == 2
    assert err.startswith(f"error: {p}: ")
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, old, new, where", [
    (["print"], '"x^2", "y^3"', '"q*x^2", "y^3"',
     "section 'target', relations[0], column 1: unknown variable 'q'"),
    (["homology", "--char", "3"], '"x^2", "y^3"', '"x^2 + 1/3*y", "y^3"',
     "section 'target', relations[0], column 9: denominator 3 is zero"),
    (["print"], 'x = "x", y', 'x = "x + z", y',
     "section 'morphism', ring_map.x, column 5: unknown variable 'z'"),
    (["kcomplex", "--char", "2"], 'x = "x", y', 'x = 7, y',
     "section 'morphism': ring_map.x must be a polynomial string"),
], ids=["unknown_variable", "char_denominator", "ring_map", "not_a_string"])
def test_polynomial_error_names_entry_and_file(capsys, tmp_path, command,
                                               old, new, where):
    # the position is the column within the polynomial string, never a
    # line of the file that the string does not sit on
    text = (corpus_dir() / "strict_ci.logaq").read_text()
    assert old in text
    p = tmp_path / "entry.logaq"
    p.write_text(text.replace(old, new))
    code, _, err = run(capsys, command[0], str(p), *command[1:])
    assert code == 2
    assert err.startswith(f"error: {p}: {where}")
    assert "line 1" not in err


def test_kcomplex_command(capsys):
    code, out, _ = run(capsys, "kcomplex", corpus_file("x2_cover"),
                       "--char", "2", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["computed_dims"] == rep["predicted_dims"] == [1, 1, 0]


def test_conormal_command(capsys):
    code, out, _ = run(capsys, "conormal",
                       corpus_file("strict_hypersurface"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["conormal"]["k_dimension"] == 2


def test_tor_command(capsys):
    code, out, _ = run(capsys, "tor", corpus_file("strict_hypersurface"),
                       "--depth", "2", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert [rep["degrees"][str(i)]["k_dimension"]
            for i in range(3)] == [2, 2, 0]


def test_print_round_trip(capsys):
    code, out, _ = run(capsys, "print", corpus_file("torsion_kummer"))
    assert code == 0
    assert "[morphism]" in out


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_threads_only_on_verify(capsys):
    # no subcommand takes --threads, and run_suite runs on one thread
    for argv in (["homology", corpus_file("log_point"), "--threads", "2"],
                 ["verify", "all", "--threads", "4"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "--threads" in capsys.readouterr().err
    with pytest.raises(ValueError):
        run_suite("jz", threads=2)


def test_char_not_on_verify(capsys):
    # verify runs each corpus file over its own field (and prop12 over
    # QQ and F2), so it does not offer a field override
    with pytest.raises(SystemExit) as e:
        main(["verify", "jz", "--char", "2"])
    assert e.value.code == 2
    assert "--char" in capsys.readouterr().err


def test_run_suite_builds_one_diagram_per_morphism_and_options(monkeypatch):
    from logaq import logls
    calls = []
    build = logls.build_diagram1

    def counting(fac):
        calls.append(fac.options)
        return build(fac)
    monkeypatch.setattr(logls, "build_diagram1", counting)
    _results, failures = run_suite("all")
    assert not failures
    # 15 instances once each, plus 3 alt instances under 3 ALT_OPTIONS
    assert len(calls) == 24
    assert sum(o in cli.ALT_OPTIONS for o in calls) == 9


def test_run_suite_builds_one_kdata_per_diagram_and_prop12(monkeypatch):
    from logaq import logls, kcomplex, monoids
    calls = Counter()

    def count(mod, name):
        func = vars(mod)[name]

        def counting(*args):
            calls[name] += 1
            return func(*args)
        monkeypatch.setattr(mod, name, counting)
    # wrap each module's own binding, so every call is seen once
    for mod in (cli, logls, kcomplex, monoids):
        for name in ("kdata_from_factorization", "choose_log_factorization"):
            if name in vars(mod):
                count(mod, name)
    _results, failures = run_suite("all")
    assert not failures
    # one per diagram (24), plus one per prop12 instance (13): the
    # integer data serves both QQ and F2
    assert calls == {"kdata_from_factorization": 37,
                     "choose_log_factorization": 37}


def test_verify_corrupted_golden_exit_1(capsys, tmp_path, monkeypatch):
    src = corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(str(src), work)
    bad = work / "log_point.golden.json"
    bad.write_text(bad.read_text().replace('"k_dimension": 1',
                                           '"k_dimension": 9'))
    monkeypatch.setattr("logaq.cli.corpus_dir", lambda: work)
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    assert "log_point" in rep["first_failure"]


def test_run_suite_names_failures(tmp_path, monkeypatch):
    src = corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(str(src), work)
    (work / "strict_ci.golden.json").write_text("{}\n")
    monkeypatch.setattr("logaq.cli.corpus_dir", lambda: work)
    _results, failures = run_suite("all")
    assert failures
    assert any("strict_ci" in f for f in failures)


def test_verify_commutation_failure_exit_3(capsys, monkeypatch):
    def _verify_jz(name, spec, mor):
        if name == "log_point":
            raise CommutationFailure("square 2 does not commute")
        return True
    monkeypatch.setitem(cli.SUITES, "jz", [_verify_jz])
    code, out, err = run(capsys, "verify", "jz", "--format", "json")
    assert code == 3
    rep = json.loads(out)
    assert rep["passed"] is False
    # the suite went on past the failing instance
    assert rep["instances"]["x3_cover"] == {"jz": True}
    failure = rep["instances"]["log_point"]["jz"]
    assert "log_point" in failure and "jz" in failure
    assert "square 2 does not commute" in failure
    assert "log_point: internal consistency failure in jz" in err
