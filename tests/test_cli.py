"""Command-line interface: dispatch, JSON output, exit codes, stability."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from kreinccr.cli import build_parser, emit_json, load_config, main
from kreinccr.reps import build_schroedinger_theta


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normal_order(capsys):
    code, out, err = run_cli(capsys, "normal-order", "d z")
    assert code == 0 and err == ""
    assert json.loads(out) == {"result": "z d + 1"}


def test_commutator(capsys):
    code, out, _ = run_cli(capsys, "commutator", "a", "a*")
    assert code == 0
    assert json.loads(out) == {"result": "1"}


def test_involve(capsys):
    code, out, _ = run_cli(capsys, "involve", "z d", "--c-matrix", "0,1,1,0")
    assert code == 0
    assert json.loads(out) == {"result": "z d"}


def test_isomap(capsys):
    code, out, _ = run_cli(capsys, "isomap", "a* a", "--v", "1,0,0,1")
    assert code == 0
    assert json.loads(out) == {"result": "z d"}


def test_classify_orbit(capsys):
    code, out, _ = run_cli(capsys, "classify-orbit",
                           "--n3", "0", "--nminus", "1", "--nplus", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "SigmaOne"
    assert doc["q"] == 1


def test_pcf_eval(capsys):
    code, out, _ = run_cli(capsys, "pcf-eval", "--lam", "0", "--x", "0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 1.0) < 1e-14
    assert doc["ode_residual"] < 1e-12


def test_gamma_s_and_project(capsys):
    code, out, _ = run_cli(capsys, "gamma-s", "--alpha", "0.8", "--beta", "0.3",
                           "--coeffs", "1,0,1", "--degree-cap", "14")
    assert code == 0
    doc = json.loads(out)
    assert doc["implementation_residual"] < 1e-9

    code, out, _ = run_cli(capsys, "project", "--k", "2",
                           "--coeffs", "1,1,1", "--degree-cap", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"][2][0] == pytest.approx(1.0)


def test_build_and_verify_pipeline(capsys):
    code, out, _ = run_cli(capsys, "build-rep", "--kind", "schroedinger",
                           "--theta", "-0.5", "--gamma", "1", "--levels", "8")
    assert code == 0
    rep_doc = out

    code, out, _ = run_cli(capsys, "verify-rep", "--rep", rep_doc.strip())
    assert code == 0
    doc = json.loads(out)
    assert doc["star_property_max_residual"] < 1e-10
    assert doc["ccr_max_residual"] < 1e-10


def test_reduce_canonical(capsys):
    code, out, _ = run_cli(capsys, "reduce-canonical", "--v", "1,0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bargmann" and doc["sign"] == 1


def test_multimode_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "multimode-build",
                           "--eta", "+1,-1,+1", "--degree-cap", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 84
    assert doc["gauge_spectrum"] == list(range(7))

    state = tmp_path / "state.json"
    state.write_text('{"cap": 6, "terms": [[[2], [1.0, 0.0]], [[0, 1], [1.0, 0.0]]]}')
    code, out, _ = run_cli(capsys, "spectral-check", "--eta", "+1,-1",
                           "--degree-cap", "6", "--f", f"@{state}", "--g", f"@{state}")
    assert code == 0
    doc = json.loads(out)
    assert doc["nonnegative"] is True

    code, out, _ = run_cli(capsys, "vacuum-descent", "--eta", "+1,-1",
                           "--degree-cap", "6", "--f", f"@{state}")
    assert code == 0
    assert json.loads(out)["on_constant_ray"] is True


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "normal-order", "z ?")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["code"] == "ParseError"
    assert doc["offset"] == 2


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "pcf-eval", "--lam", "25", "--x", "0")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "DomainError"

    code, _, err = run_cli(capsys, "build-rep", "--kind", "schroedinger",
                           "--theta", "0", "--min-level", "-2", "--levels", "6")
    assert code == 1
    assert json.loads(err)["code"] == "NullSubrepresentation"

    code, _, err = run_cli(capsys, "isomap", "a", "--v", "2,0,0,1")
    assert code == 1
    assert json.loads(err)["code"] == "NotUnimodular"


def test_byte_stability(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "verify-rep", "--kind", "schroedinger",
                            "--theta", "-0.25", "--gamma", "2", "--levels", "12")
        outs.add(out)
    assert len(outs) == 1


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "kreinccr.conf"
    cfg.write_text("degree_cap = 10  # default series length\nlambda_window = 5\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "project",
                           "--k", "1", "--coeffs", "1,1")
    assert code == 0
    assert json.loads(out)["degree_cap"] == 10
    # the configured window is tighter than the built-in one
    code, _, err = run_cli(capsys, "--config", str(cfg), "pcf-eval",
                           "--lam", "7", "--x", "0")
    assert code == 1
    assert json.loads(err)["code"] == "DomainError"


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("not_a_key = 3\n")
    from kreinccr.exceptions import ParseError
    with pytest.raises(ParseError):
        load_config(str(cfg))


@pytest.mark.parametrize("content", [None, "tolerance = abc\n"],
                         ids=["missing", "non-numeric"])
def test_unreadable_or_non_numeric_config_is_a_parse_error(capsys, tmp_path, content):
    cfg = tmp_path / "kreinccr.conf"
    if content is not None:
        cfg.write_text(content)
    code, out, err = run_cli(capsys, "--config", str(cfg), "normal-order", "a")
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "ParseError"


@pytest.mark.parametrize("value", ["2.5", "inf", "nan"])
def test_fractional_config_degree_cap_is_a_parse_error(capsys, tmp_path, value):
    cfg = tmp_path / "kreinccr.conf"
    cfg.write_text(f"degree_cap = {value}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "project",
                             "--k", "1", "--coeffs", "1")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["code"] == "ParseError" and "degree_cap" in doc["error"]


_STATE = '{"cap": 3, "terms": [[[1], [1.0, 0.0]]]}'


@pytest.mark.parametrize("argv", [
    ("gamma-s", "--alpha", "1", "--beta", "0.5", "--coeffs", "1,1"),
    ("project", "--k", "1", "--coeffs", "1"),
    ("multimode-build", "--eta", "1"),
    ("spectral-check", "--eta", "1", "--f", _STATE, "--g", _STATE),
    ("vacuum-descent", "--eta", "1", "--f", _STATE),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_degree_cap_is_a_domain_error(capsys, tmp_path, argv, source):
    if source == "flag":
        argv = (*argv, "--degree-cap", "-3")
    else:
        cfg = tmp_path / "kreinccr.conf"
        cfg.write_text("degree_cap = -3\n")
        argv = ("--config", str(cfg), *argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert (doc["code"], doc["degree_cap"]) == ("DomainError", -3)
    assert "-3" in doc["error"]


def test_emit_json_formatting():
    assert emit_json({"b": 1, "a": 0.5}) == '{"a":0.5,"b":1}'
    assert emit_json([True, None, "x"]) == '[true,null,"x"]'
    assert emit_json(1 + 2j) == "[1,2]"
    assert emit_json(0.1) == "0.10000000000000001"
    with pytest.raises(ValueError):
        emit_json(float("nan"))


def test_state_with_more_modes_than_the_rep_is_a_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "spectral-check", "--eta", "+1", "--degree-cap", "3",
        "--f", '{"cap": 3, "terms": [[[0, 1], [1.0, 0.0]]]}',
        "--g", '{"cap": 3, "terms": [[[1], [1.0, 0.0]]]}')
    assert code == 1 and out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["code"] == "DomainError"
    assert (doc["state_modes"], doc["rep_modes"]) == (2, 1)


def test_state_above_the_degree_cap_is_a_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "vacuum-descent", "--eta", "+1", "--degree-cap", "3",
        "--f", '{"cap": 5, "terms": [[[5], [1.0, 0.0]]]}')
    assert code == 1 and out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["code"] == "DomainError"
    assert (doc["state_cap"], doc["degree_cap"]) == (5, 3)


@pytest.mark.parametrize("argv", [
    ("vacuum-descent", "--eta", "+1", "--degree-cap", "3", "--f", '{"cap": 3}'),
    ("spectral-check", "--eta", "+1", "--degree-cap", "3",
     "--f", '{"cap": 3, "terms": [[[1], [1.0]]]}', "--g", '{"cap": 3, "terms": []}'),
    ("vacuum-descent", "--eta", "+1", "--degree-cap", "3", "--f", '{"cap": 3, "terms": ['),
])
def test_malformed_state_json_is_a_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["code"] == "ParseError"


def test_mode_index_with_a_leading_zero_is_rejected(capsys):
    code, out, err = run_cli(capsys, "normal-order", "a_02 - a_2")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "IncompatibleAlgebras"


@pytest.mark.parametrize("argv, level", [
    (("verify-rep", "--levels", "200"), 171),
    (("build-rep", "--kind", "schroedinger", "--theta", "-0.5", "--gamma", "2",
      "--levels", "200"), 135),
])
def test_gram_overflow_is_a_domain_error(capsys, argv, level):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert (doc["code"], doc["level"]) == ("DomainError", level)


def test_overflow_in_a_verb_is_a_non_finite_error(capsys):
    # q = n3^2 + nminus nplus overflows a float inside classify_orbit
    code, out, err = run_cli(capsys, "classify-orbit", "--n3", "1e200",
                             "--nminus", "1e200", "--nplus", "1e200")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["code"] == "NonFinite"


@pytest.mark.parametrize("sign", ["1", "-1"])
def test_verify_rep_at_the_last_finite_gram_level(capsys, sign):
    # the Gram at gamma = 2 is finite up to 134 levels; the residuals never
    # multiply Gram entries, so they stay finite there
    code, out, err = run_cli(capsys, "verify-rep", "--kind", "schroedinger",
                             "--theta", "-0.5", "--gamma", "2", "--levels", "134",
                             "--sign", sign)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert len(report) == 5
    assert all(math.isfinite(r) and r < 1e-10 for r in report.values())


def test_verify_rep_has_no_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify-rep", "--seed", "1"])
    assert e.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_rep_verbs_have_no_flavor(capsys):
    for verb in ("build-rep", "verify-rep"):
        with pytest.raises(SystemExit) as e:
            main([verb, "--kind", "antifock", "--flavor", "bargmann"])
        assert e.value.code == 2
        assert "unrecognized arguments: --flavor" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "build-rep", "--kind", "antifock", "--levels", "2")
    doc = json.loads(out)
    assert code == 0 and doc["label"] == "antifock_bargmann"
    assert doc["params"] == {"levels": 2, "mu": 0.0}


def test_gram_overflow_below_level_zero_prints_one_json_error():
    # a window below level zero also runs the null check; the stderr of a
    # real process shows any warning printed on the way
    import kreinccr

    src = str(Path(kreinccr.__file__).resolve().parents[1])
    argv = ["build-rep", "--kind", "schroedinger", "--theta", "-0.5",
            "--min-level", "-1", "--levels", "200"]
    done = subprocess.run([sys.executable, "-m", "kreinccr.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    err = json.loads(done.stderr)
    assert (err["code"], err["level"]) == ("DomainError", 172)


def test_import_does_not_load_scipy():
    import kreinccr

    src = str(Path(kreinccr.__file__).resolve().parents[1])
    probe = "import sys, kreinccr; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("verify-rep", "--rep", "{}"),
    ("gamma-s", "--alpha", "1", "--beta", "0", "--coeffs-json", "{}"),
    ("vacuum-descent", "--eta", "+1", "--degree-cap", "3",
     "--f", "@no-such-dir/missing.json"),
    ("pcf-eval", "--lam", "abc", "--x", "1"),
    ("pcf-eval", "--lam", "1/0", "--x", "1"),
    ("reduce-canonical", "--v", "1,0,0,1", "--mu", "abc"),
    ("involve", "--c-matrix", "1,0,0,x", "z"),
    ("multimode-build", "--eta", "2"),
])
def test_malformed_cli_input_is_a_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["code"] == "ParseError"


@pytest.mark.parametrize("kind", ["fock", "antifock", "schroedinger"])
def test_one_level_ladder_verifies(capsys, kind):
    code, out, err = run_cli(capsys, "verify-rep", "--kind", kind, "--levels", "0")
    assert code == 0 and err == ""
    assert all(math.isfinite(r) for r in json.loads(out).values())


@pytest.mark.parametrize("kind", ["fock", "antifock", "schroedinger"])
def test_negative_levels_are_a_domain_error(capsys, kind):
    code, out, err = run_cli(capsys, "build-rep", "--kind", kind, "--levels", "-1")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "DomainError"


def test_zero_degree_cap_multimode_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "multimode-build", "--eta", "1", "--degree-cap", "0")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "DomainError"


@pytest.mark.parametrize("eta", ["+1", "+1,-1"])
def test_multimode_gram_overflow_is_a_domain_error(capsys, eta):
    # the Gram entry of z_1^cap is cap!, and 171! is past the doubles
    code, out, err = run_cli(capsys, "multimode-build", "--eta", eta, "--degree-cap", "171")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert (doc["code"], doc["degree_cap"], doc["level"]) == ("DomainError", 171, 171)
    code, out, err = run_cli(capsys, "multimode-build", "--eta", "+1", "--degree-cap", "170")
    assert code == 0 and err == ""
    assert json.loads(out)["dimension"] == 171


def test_an_untyped_failure_is_an_internal_error(capsys):
    # the coefficient array of this cap cannot be allocated
    code, out, err = run_cli(capsys, "project", "--k", "1", "--coeffs", "1",
                             "--degree-cap", "1000000000000000000")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["code"] == "InternalError" and doc["type"].endswith("MemoryError")


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kreinccr ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples(capsys, monkeypatch, tmp_path, line):
    (tmp_path / "state.json").write_text('{"cap": 6, "terms": [[[2, 1], [1.0, 0.0]]]}')
    monkeypatch.chdir(tmp_path)
    command, _, comment = line.partition(" # ")
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0 and err == ""
    if comment.strip().startswith("{"):
        assert out.strip() == comment.strip()


def test_parser_is_reused_without_carrying_state(capsys):
    build_parser.cache_clear()
    usage = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(["project", "--k", "x"])
        usage.append((e.value.code, capsys.readouterr()))
        # a value given in one call is not the default of the next
        code, out, _ = run_cli(capsys, "project", "--k", "1", "--coeffs", "1,1",
                               "--degree-cap", "2")
        assert code == 0 and json.loads(out)["degree_cap"] == 2
        code, out, _ = run_cli(capsys, "project", "--k", "1", "--coeffs", "1,1")
        assert code == 0 and json.loads(out)["degree_cap"] == 16
    assert usage[0] == usage[1]
    assert usage[0][0] == 2 and "usage: kreinccr project" in usage[0][1].err


def test_repeated_in_process_calls_are_cheap(capsys):
    main(["normal-order", "a"])
    start = time.perf_counter()
    for _ in range(100):
        main(["normal-order", "a"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 0.2


def _rep_doc(**changes):
    doc = json.loads(build_schroedinger_theta(theta=-0.5, gamma=2.0, levels=3).to_json())
    return json.dumps({**doc, **changes})


@pytest.mark.parametrize("changes", [
    {"params": {}},                                   # no theta: KeyError in verify_rep
    {"params": {"theta": -0.5}},                      # no gamma
    {"size": 1, "a_band": {"lower": [], "upper": []},
     "adag_band": {"lower": [], "upper": []}},       # 4-entry diagonals at size 1
    {"gram_diagonal": [1.0, 2.0, 3.0]},               # Gram shorter than size
    {"gauge_diagonal": [[0.0, 0.0]] * 5},             # gauge longer than size
    {"a_band": {"lower": [[0.0, 0.0]] * 4, "upper": []}},  # a band longer than size - 1
    {"params": {"theta": -0.5, "gamma": 2.0, "sign": "x"}},  # sign not +-1
    {"params": {"theta": -0.5, "gamma": 2.0, "sign": True}},  # JSON true is not +1
    {"min_level": "x"},                               # min_level not an integer
    {"gram_diagonal": [1.0, 0.0, 2.0, 3.0]},          # a zero Gram entry
    {"gram_diagonal": [1.0, float("inf"), 2.0, 3.0]},  # JSON Infinity
    {"gauge_diagonal": [[-0.5, 0.0], [float("inf"), 0.0], [1.5, 0.0], [2.5, 0.0]]},
    {"a_band": {"lower": [[0.0, 0.0]] * 3,
                "upper": [[1.0, 0.0], [float("nan"), 0.0], [5.0, 0.0]]}},  # JSON NaN
    {"params": {"theta": -0.5, "gamma": float("inf")}},
    {"params": {"theta": float("nan"), "gamma": 2.0}},
    {"params": {"theta": -0.5, "gamma": -2.0}},
    {"params": {"theta": -0.5, "gamma": 10 ** 400}},  # an integer past the doubles
], ids=["no-theta", "no-gamma", "size-1", "short-gram", "long-gauge", "long-band",
        "text-sign", "bool-sign", "text-min-level", "zero-gram", "inf-gram",
        "inf-gauge", "nan-band", "inf-gamma", "nan-theta", "negative-gamma", "huge-gamma"])
def test_inconsistent_rep_json_is_a_parse_error(capsys, changes):
    assert run_cli(capsys, "verify-rep", "--rep", _rep_doc())[0] == 0
    code, out, err = run_cli(capsys, "verify-rep", "--rep", _rep_doc(**changes))
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "ParseError"


def test_a_rep_document_whose_gamma_squared_overflows(capsys):
    argv = ["--kind", "schroedinger", "--theta", "-0.5", "--gamma", "1e200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, one, err = run_cli(capsys, "build-rep", *argv, "--levels", "0")
        assert code == 0 and err == ""
        # one level: no recursion to check, every residual is 0
        code, out, err = run_cli(capsys, "verify-rep", "--rep", one)
        assert code == 0 and err == ""
        assert set(json.loads(out).values()) == {0}
        # more levels: the DomainError the builder of these params raises
        code, _, built = run_cli(capsys, "build-rep", *argv, "--levels", "3")
        doc = _rep_doc(params={"theta": -0.5, "gamma": 1e200, "levels": 3, "sign": 1})
        code2, out, err = run_cli(capsys, "verify-rep", "--rep", doc)
    assert code == code2 == 1 and out == ""
    assert err == built and err.count("\n") == 1
    assert (json.loads(err)["code"], json.loads(err)["level"]) == ("DomainError", 1)
