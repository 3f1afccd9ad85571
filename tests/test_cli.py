import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

from qshuffle.cli import Q_LIST_MAX, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_spectrum_md_matches_golden(runner, n):
    result = runner.invoke(main, ["spectrum", "--n", str(n), "--format", "md"])
    assert result.exit_code == 0
    assert result.output == (GOLDEN / f"spectrum_n{n}.md").read_text()


def without_elapsed(text):
    """A JSON report with every elapsed_ms field removed, dumped as the CLI
    dumps it: the form its golden file pins."""
    def drop(x):
        if isinstance(x, dict):
            return {k: drop(v) for k, v in x.items() if k != "elapsed_ms"}
        if isinstance(x, list):
            return [drop(v) for v in x]
        return x

    return json.dumps(drop(json.loads(text)), indent=2) + "\n"


@pytest.mark.parametrize("args, golden", [
    (["verify", "--n", "4"], "verify_n4.json"),
    (["verify", "--n", "3", "--route", "specht"], "verify_n3_specht.json"),
    (["eigvectors", "--lam", "3,1", "--q", "7/5"], "eigvectors_3_1_q7_5.json"),
    (["verify", "--n", "5", "--q", "2"], "verify_n5_q2.json"),
])
def test_report_matches_golden(runner, args, golden):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert without_elapsed(result.output) == (GOLDEN / golden).read_text()


def test_spectrum_json(runner):
    result = runner.invoke(main, ["spectrum", "--n", "5", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    rows = data["rows"]
    assert len(rows) == 22  # strips with nonzero multiplicity
    assert sum(r["multiplicity"] for r in rows) == 120
    full = next(r for r in rows if r["lambda"] == [5])
    assert full["eigenvalue_str"] == ("q^8 + 2*q^7 + 3*q^6 + 4*q^5 + 5*q^4 + "
                                      "4*q^3 + 3*q^2 + 2*q + 1")


def test_spectrum_all_rows_includes_zero_multiplicities(runner):
    filtered = json.loads(runner.invoke(
        main, ["spectrum", "--n", "4", "--format", "json"]).output)
    everything = json.loads(runner.invoke(
        main, ["spectrum", "--n", "4", "--format", "json", "--all-rows"]).output)
    assert len(everything["rows"]) > len(filtered["rows"])
    assert all(r["multiplicity"] == 0
               for r in everything["rows"]
               if r not in filtered["rows"])


def test_spectrum_trivial_n1(runner):
    data = json.loads(runner.invoke(
        main, ["spectrum", "--n", "1", "--format", "json"]).output)
    assert data["rows"] == [{
        "lambda": [1], "mu": [], "eigenvalue": {"terms": [[0, "1"]]},
        "eigenvalue_str": "1", "d_mu": 1, "f_lambda": 1, "multiplicity": 1}]


def test_spectrum_csv(runner):
    result = runner.invoke(main, ["spectrum", "--n", "2", "--format", "csv"])
    lines = result.output.splitlines()
    assert lines[0] == "lambda,mu,eigenvalue,d_mu,f_lambda,multiplicity"
    assert lines[1] == "(2),(),q^2 + 2*q + 1,1,1,1"
    result = runner.invoke(main, ["spectrum", "--n", "3", "--format", "csv"])
    assert '"(2,1)","(2,1)",0,1,2,2' in result.output.splitlines()


def test_spectrum_usage_error(runner):
    result = runner.invoke(main, ["spectrum", "--n", "9"])
    assert result.exit_code == 2


def test_charpoly_symbolic(runner):
    result = runner.invoke(main, ["charpoly", "--op", "b2r", "--n", "4"])
    data = json.loads(result.output)
    factors = {f["eigenvalue"]: f["multiplicity"] for f in data["factors"]}
    # [4-j]_q to the power C(4,j) d_j for j in {0, 2, 3, 4}
    assert factors == {"q^3 + q^2 + q + 1": 1, "q + 1": 6, "1": 8, "0": 9}


def test_charpoly_b_and_bstar_agree(runner):
    a = runner.invoke(main, ["charpoly", "--op", "b2r", "--n", "4"]).output
    b = runner.invoke(main, ["charpoly", "--op", "r2b", "--n", "4"]).output
    assert json.loads(a)["factors"] == json.loads(b)["factors"]


def test_charpoly_bruteforce_verdict(runner):
    result = runner.invoke(main, ["charpoly", "--op", "r2r", "--n", "3",
                                  "--q", "2", "--bruteforce"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["oracle_agrees"] is True
    assert data["eigenvalues_at_q"] == {"49": 1, "0": 2, "15": 2, "1": 1}


def test_charpoly_bruteforce_requires_q(runner):
    assert runner.invoke(main, ["charpoly", "--n", "3",
                                "--bruteforce"]).exit_code == 2


def test_verify_passes_and_reports(runner):
    result = runner.invoke(main, ["verify", "--n", "2", "--q", "2,1/2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["all_passed"] is True
    assert report["q_values"] == ["2", "1/2"]
    assert report["route"] == "regular"
    assert all(set(c) == {"check", "passed", "elapsed_ms", "detail"}
               for c in report["checks"])
    assert "scope_note" in report


def test_verify_rejects_inadmissible_q(runner):
    assert runner.invoke(main, ["verify", "--n", "3",
                                "--q", "0"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--n", "3",
                                "--q", "-1"]).exit_code == 2


def test_verify_refuses_a_repeated_q(runner, tmp_path):
    # a value repeated as a rational would run every matrix check twice
    result = runner.invoke(main, ["verify", "--n", "2", "--q", "2,4/2"])
    assert result.exit_code == 2
    assert "q = 4/2 repeats q = 2" in result.output
    assert "Traceback" not in result.output
    cfg = tmp_path / "conf"
    cfg.write_text("q = 1/2, 3, 0.5\n")
    result = runner.invoke(main, ["--config", str(cfg), "verify", "--n", "2"])
    assert result.exit_code == 2
    assert "q = 0.5 repeats q = 1/2" in result.output


def test_verify_refuses_more_than_q_list_max_values(runner):
    values = [str(k) for k in range(2, 3 + Q_LIST_MAX)]
    result = runner.invoke(main, ["verify", "--n", "2", "--q",
                                  ",".join(values)])
    assert result.exit_code == 2
    assert f"{Q_LIST_MAX + 1} q values given; a run takes at most " \
        f"{Q_LIST_MAX}" in result.output
    assert "Traceback" not in result.output
    report = json.loads(runner.invoke(main, [
        "verify", "--n", "1", "--q", ",".join(values[:-1])]).output)
    assert len(report["q_values"]) == Q_LIST_MAX and report["all_passed"]


def test_config_pins_q_default(runner, tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("q = 2  # only one point\n")
    result = runner.invoke(main, ["--config", str(cfg), "verify", "--n", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["q_values"] == ["2"]


@pytest.mark.parametrize("content", [None, b"\xffq = 2\n"])
def test_unreadable_config_is_a_usage_error(runner, tmp_path, content):
    # a directory, and a file that is not UTF-8
    cfg = tmp_path / "conf"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    result = runner.invoke(main, ["--config", str(cfg), "spectrum", "--n",
                                  "3"])
    assert result.exit_code == 2
    assert f"cannot read config {cfg}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["simulate", "--n", "3", "--q", "1000000", "--steps", "200"],
    ["verify", "--n", "2", "--q", "1e5000"],
    ["charpoly", "--n", "2", "--q", "1e5000"],
    ["eigvectors", "--lam", "2,1", "--q", "1e5000"],
    ["verify", "--n", "2", "--q", "1/10001"],
    ["verify", "--n", "2", "--q", "1e99999999999"],
])
def test_oversized_q_is_a_usage_error(runner, args):
    # past the bound on numerator and denominator, or a decimal exponent
    # too large to expand
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "out of range" in result.output
    assert "Traceback" not in result.output


def test_cli_prints_ints_past_the_default_digit_limit(runner):
    # exact values may have more than CPython's default 4,300 digits
    # (simulate --n 5 --q 10000 --steps 200 prints such fractions)
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert runner.invoke(main, ["spectrum", "--n", "2"]).exit_code == 0
        assert len(str(10 ** 5000)) == 5001
    finally:
        sys.set_int_max_str_digits(before)


def test_eigvectors_dump(runner):
    result = runner.invoke(main, ["eigvectors", "--lam", "2,1", "--q", "2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["lambda"] == [2, 1]
    assert len(data["records"]) == 2
    assert {rec["eigenvalue"] for rec in data["records"]} == {"0", "15"}


def test_simulate_csv(runner, tmp_path):
    out = tmp_path / "mix.csv"
    result = runner.invoke(main, ["simulate", "--n", "3", "--q", "2",
                                  "--steps", "3", "--csv", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,tv_exact,tv_float"
    assert len(lines) == 5
    assert lines[1].startswith("0,20/21,")


def test_simulate_rejects_subunit_q(runner):
    assert runner.invoke(main, ["simulate", "--n", "3", "--q", "1/2",
                                "--steps", "2"]).exit_code == 2


def test_flags_report(runner):
    result = runner.invoke(main, ["flags", "--n", "3", "--p", "2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["flag_count"] == 21
    assert report["all_passed"] is True
    cases = {c["case"]: c for c in report["cases"]}
    assert cases["commutation"]["passed"]
    assert cases["spectrum"]["multiplicities"] == {"7": 1, "1": 14, "0": 6}
    assert not any("detail" in case for case in report["cases"])


def test_flags_unsupported(runner):
    assert runner.invoke(main, ["flags", "--n", "5", "--p", "2"]).exit_code == 2


@pytest.mark.parametrize("check", [[], ["--check", "all"],
                                   ["--check", "spectrum"]])
def test_flags_refuses_the_n4_p3_spectrum(runner, check):
    result = runner.invoke(main, ["flags", "--n", "4", "--p", "3"] + check)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1 and "--check commutation" in errors[0]


def test_flags_n4_p3_commutation_passes(runner):
    result = runner.invoke(main, ["flags", "--n", "4", "--p", "3",
                                  "--check", "commutation"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["flag_count"] == 2080
    assert report["cases"] == [{"case": "commutation", "passed": True}]


def test_flags_failing_case_carries_its_witness(runner, monkeypatch):
    from qshuffle import flags

    def broken(space):
        raise flags.CheckFailed("(n, p) = (2, 2): witness")
    monkeypatch.setattr(flags, "x_spectrum_check", broken)
    result = runner.invoke(main, ["flags", "--n", "2", "--p", "2"])
    assert result.exit_code == 1
    commutation, spectrum = json.loads(result.output)["cases"]
    assert "detail" not in commutation
    assert spectrum["passed"] is False
    assert spectrum["detail"] == "CheckFailed: (n, p) = (2, 2): witness"
    assert list(spectrum) == ["case", "passed", "eigenvalues",
                              "multiplicities", "detail"]


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "qshuffle" in result.output


def test_cli_import_does_not_load_sympy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, qshuffle.cli; "
            "assert 'sympy' not in sys.modules, 'sympy was imported'")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_eigvectors_refuses_partitions_of_more_than_six(runner):
    result = runner.invoke(main, ["eigvectors", "--lam", "3,2,1,1"])
    assert result.exit_code == 2
    assert "|lambda| <= 6" in result.output


def test_simulate_rejects_negative_steps(runner):
    result = runner.invoke(main, ["simulate", "--n", "3", "--q", "2",
                                  "--steps", "-1"])
    assert result.exit_code == 2
    assert "--steps must be >= 0" in result.output


def test_simulate_refuses_more_than_200_steps(runner):
    result = runner.invoke(main, ["simulate", "--n", "3", "--q", "2",
                                  "--steps", "201"])
    assert result.exit_code == 2
    assert "--steps must be <= 200" in result.output


@pytest.mark.parametrize("command", [
    ["spectrum", "--n", "3", "--output"],
    ["simulate", "--n", "3", "--steps", "2", "--csv"]])
def test_unwritable_output_path_is_refused(runner, tmp_path, command):
    path = str(tmp_path / "missing" / "out.txt")
    result = runner.invoke(main, command + [path])
    assert result.exit_code == 2
    assert f"Error: cannot write {path}: No such file or directory" in (
        result.output)
    assert "Traceback" not in result.output
