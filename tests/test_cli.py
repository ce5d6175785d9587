"""The command-line surface: outputs, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jacobiforms.cli import main
from jacobiforms.series import CycloElt, InexactDivision, NonRationalResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohen(capsys):
    code, out, _ = run(capsys, "cohen", "--r", "3", "--N", "3")
    assert code == 0 and out.strip() == "-2/9"
    code, out, _ = run(capsys, "cohen", "--r", "3", "--N", "9/4")
    assert code == 0 and out.strip() == "0"


def test_cohen_precondition(capsys):
    code, _, err = run(capsys, "cohen", "--r", "3", "--N", "-2")
    assert code == 3 and "N >= 0" in err


@pytest.mark.parametrize("text, reason", [("1/0", "zero denominator in '1/0'"),
                                          ("abc", "'abc' is not a rational number")])
def test_cohen_bad_rational_names_the_text(capsys, text, reason):
    code, out, err = run(capsys, "cohen", "--r", "3", "--N", text)
    assert code == 3 and out == "" and err == f"error: parse_rational: {reason}\n"


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "--n", "1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "tau", "--n", "2", "--route", "direct")
    assert code == 0 and out.strip() == "-24"
    code, out, _ = run(capsys, "tau", "--n", "3", "--json")
    payload = json.loads(out)
    assert payload["value"] == "252"
    assert payload["routes"]["via_h3_closed"] == "252"
    assert set(payload["query"]) == {"n"}


def test_tau_side_condition_exit(capsys):
    code, _, err = run(capsys, "tau", "--n", "4", "--route", "via_h3_closed")
    assert code == 3 and "odd" in err


@pytest.mark.parametrize("n", ["-3", "0"])
def test_tau_below_one_is_a_precondition(capsys, n):
    # -3 used to fail inside math.isqrt with its own message
    code, out, err = run(capsys, "tau", "--n", n)
    assert code == 3 and out == "" and err == f"error: tau_applicable_routes expects n >= 1, got {n}\n"


def test_expand_human_and_json(capsys):
    code, out, _ = run(capsys, "expand", "--form", "jacobi_eis:4,1", "--prec", "2")
    assert code == 0
    assert "zeta^(+-2) + 56*zeta^(+-1) + 126" in out
    code, out, _ = run(capsys, "expand", "--form", "eta", "--prec", "2", "--json")
    payload = json.loads(out)
    assert payload["qscale"] == 24 and payload["terms"][0] == [1, "1"]


def test_expand_unknown_form(capsys):
    code, _, err = run(capsys, "expand", "--form", "zeta_function", "--prec", "3")
    assert code == 2 and "unknown" in err


def test_expand_bad_arguments_are_unknown_names(capsys):
    for form in ("ek:seven", "ek", "theta:1", "jacobi_eis:4"):
        code, _, err = run(capsys, "expand", "--form", form, "--prec", "4")
        assert code == 2 and "unknown" in err, form


def test_expand_precondition_exit(capsys):
    code, _, err = run(capsys, "expand", "--form", "theta", "--prec", "0")
    assert code == 3 and "prec >= 1" in err
    code, _, err = run(capsys, "expand", "--form", "ek:3", "--prec", "4")
    assert code == 3 and "even k" in err
    code, out, err = run(capsys, "expand", "--form", "jacobi_eis:5,4", "--prec", "3")
    assert code == 3 and out == "" and "jacobi_eis needs even k >= 4, got 5" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "jacobiforms", "cohen", "--r", "3", "--N", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "-2/9"


def test_verify_glob_matching_nothing(capsys):
    code, out, err = run(capsys, "verify", "--id", "Z*", "--prec", "4")
    assert code == 2 and out == "" and "no identity matches" in err


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run(capsys, "verify", "--id", "T31-theta8", "--prec", "6")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "--id", "INTRO-*", "--prec", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert {p["id"] for p in payload} == {"INTRO-r8", "INTRO-delta8"}
    assert all(p["status"] == "pass" for p in payload)
    assert all(p["build_s"] > 0 and p["compare_s"] > 0 for p in payload)
    code, _, err = run(capsys, "verify", "--id", "NOPE", "--prec", "4")
    assert code == 2
    code, _, err = run(capsys, "verify", "--id", "T31-theta8", "--prec", "0")
    assert code == 3


def test_count(capsys):
    code, out, _ = run(capsys, "count", "r8", "--n", "5", "--oracle")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "2016" and "agrees" in lines[1]
    code, out, _ = run(capsys, "count", "delta8", "--n", "3")
    assert code == 0 and out.strip() == "64"
    # f_1(1) = 0, so odd-argument tuples can pad with zeros: the count is 126
    code, out, _ = run(capsys, "count", "figurate", "--a", "1", "--n", "4", "--odd", "--json")
    payload = json.loads(out)
    assert payload["query"]["odd"] is True and payload["value"] == "126"
    code, _, err = run(capsys, "count", "figurate", "--n", "4")
    assert code == 3 and "--a" in err


@pytest.mark.parametrize("argv", [("r8", "--n", "5", "--a", "3", "--odd", "--json"),
                                  ("delta8", "--n", "5", "--odd"),
                                  ("r16", "--n", "5", "--a", "2")])
def test_count_rejects_figurate_flags_on_plain_counts(capsys, argv):
    code, out, err = run(capsys, "count", *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "--a or --odd" in err


@pytest.mark.parametrize("argv, message", [
    (("--a", "0", "--n", "3"), "r_a8_formula expects a >= 1, got 0"),
    (("--a", "2", "--n", "-1"), "r_a8_formula expects n >= 0, got -1"),
    (("--a", "0", "--n", "3", "--odd"), "r_a8odd_formula expects a >= 1, got 0"),
    (("--a", "2", "--n", "-1", "--odd"), "r_a8odd_formula expects n >= 0, got -1"),
])
def test_count_figurate_preconditions_name_their_function(capsys, argv, message):
    code, out, err = run(capsys, "count", "figurate", *argv)
    assert code == 3 and out == "" and err == f"error: {message}\n"


def test_count_sixteen_variables(capsys):
    code, out, _ = run(capsys, "count", "r16", "--n", "5", "--oracle")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "140736" and "agrees" in lines[1]
    code, out, _ = run(capsys, "count", "delta16", "--n", "5", "--oracle", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["value"] == payload["oracle"] == "6048"
    assert payload["query"] == {"what": "delta16", "n": "5"}
    code, out, err = run(capsys, "count", "delta16", "--n", "4")
    assert code == 3 and out == "" and err == "error: delta16 requires odd n\n"


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "E7", "--max-norm", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"0": "1", "2": "126", "4": "756"}


# `lattice NAME --max-norm 12` prints these counts for norms 0, 2, ..., 12
LATTICE_TO_NORM_12 = {
    "E7": (1, 126, 756, 2072, 4158, 7560, 11592),
    "A7": (1, 56, 420, 896, 2366, 3360, 6440),
    "E8": (1, 240, 2160, 6720, 17520, 30240, 60480),
}


@pytest.mark.parametrize("name", LATTICE_TO_NORM_12)
def test_lattice_output_bytes(capsys, name):
    code, out, _ = run(capsys, "lattice", name, "--max-norm", "12")
    rows = ",\n".join(f'  "{2 * i}": "{c}"' for i, c in enumerate(LATTICE_TO_NORM_12[name]))
    assert code == 0 and out == "{\n" + rows + "\n}\n"


def test_env_default_prec(capsys, monkeypatch):
    monkeypatch.setenv("JF_DEFAULT_PREC", "3")
    code, out, _ = run(capsys, "expand", "--form", "ek:4", "--json")
    payload = json.loads(out)
    assert payload["prec"] == 3


@pytest.mark.parametrize("argv", [("expand", "--form", "eta"), ("verify", "--id", "T31-theta8")],
                         ids=["expand", "verify"])
def test_env_default_prec_is_read_by_one_rule(capsys, monkeypatch, argv):
    # an empty JF_DEFAULT_PREC means unset; one that is not an integer exits 3
    monkeypatch.delenv("JF_DEFAULT_PREC", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("JF_DEFAULT_PREC", "")
    assert run(capsys, *argv)[:2] == unset[:2] and unset[0] == 0
    monkeypatch.setenv("JF_DEFAULT_PREC", "x")
    code, _, err = run(capsys, *argv)
    assert code == 3 and "JF_DEFAULT_PREC must be an integer" in err


def test_output_is_byte_stable(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "expand", "--form", "jacobi_eis:4,4", "--prec", "4", "--json")
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        _, out, _ = run(capsys, "lattice", "A7", "--max-norm", "6")
        outputs.add(out)
    assert len(outputs) == 2


def test_selftest_check_groups():
    from jacobiforms import checks
    names = [name for name, _ in checks.CHECKS]
    # the acceptance suite's criteria plus the cohen/catalog/series property
    # groups and the constructors' second routes
    assert names == ["identity registry", "printed fixtures", "cohen dual definition",
                     "counting oracles", "tau routes", "lattice fixtures",
                     "catalog invariants", "series properties", "constructor cross-checks"]


def test_selftest_exit_codes_and_timings(capsys, monkeypatch):
    from jacobiforms import checks
    passing = ("fake pass", lambda: (True, "fine"))
    failing = ("fake fail", lambda: (False, "broken"))
    monkeypatch.setattr(checks, "CHECKS", (passing, failing))
    code, out, _ = run(capsys, "selftest")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 2
    assert lines[0].startswith("fake pass: pass") and lines[1].startswith("fake fail: FAIL")
    assert all(re.search(r" in \d+\.\d\ds ", line) for line in lines)
    monkeypatch.setattr(checks, "CHECKS", (passing, passing))
    code, out, _ = run(capsys, "selftest")
    assert code == 0 and out.count(": pass in ") == 2
    # a check that raises fails with the exception and the later ones still run
    raising = ("fake raise", lambda: 1 // 0)
    monkeypatch.setattr(checks, "CHECKS", (raising, passing))
    code, out, _ = run(capsys, "selftest")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 2
    assert lines[0].startswith("fake raise: FAIL") and "(ZeroDivisionError: " in lines[0]
    assert lines[1].startswith("fake pass: pass")


@pytest.mark.parametrize("target, exc", [
    ("jacobiforms.identities.verify", RuntimeError("norm-2 certificate failed: complement has != 126 roots")),
    ("jacobiforms.identities.verify", InexactDivision(Fraction(3, 2))),
    ("jacobiforms.catalog.form_by_name", NonRationalResult(Fraction(1, 4), CycloElt.from_root_power(8, 1))),
])
def test_internal_errors_exit_1_without_traceback(capsys, monkeypatch, target, exc):
    def raise_it(*_):
        raise exc
    monkeypatch.setattr(target, raise_it)
    argv = ("verify", "--id", "L32-e8") if target.endswith("verify") else ("expand", "--form", "theta")
    code, out, err = run(capsys, *argv, "--prec", "4")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines() == [f"error: {type(exc).__name__}: {exc}"]


@pytest.mark.parametrize("form, name", [
    ("theta", "theta"), ("theta00", "theta00"), ("theta_const:0,0", "theta_const"),
    ("eta", "eta"), ("delta", "delta"), ("ek:4", "eisenstein"), ("g2", "g2"),
    ("phi:1", "phi"),
])
def test_expand_prec_zero_is_a_precondition(capsys, form, name):
    code, out, err = run(capsys, "expand", "--form", form, "--prec", "0")
    assert code == 3 and out == "" and f"{name} needs prec >= 1" in err


def test_expand_json_round_trips(capsys):
    from jacobiforms.series import FJExp, QSeries
    from jacobiforms import catalog
    _, out, _ = run(capsys, "expand", "--form", "theta", "--prec", "3", "--json")
    parsed = FJExp.from_json_dict(json.loads(out))
    assert parsed.terms == catalog.theta(3).terms
    _, out, _ = run(capsys, "expand", "--form", "delta", "--prec", "5", "--json")
    assert QSeries.from_json_dict(json.loads(out)) == catalog.delta(5)
