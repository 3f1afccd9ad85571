import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

from qshuffle.cli import Q_LIST_MAX, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


class Runner:
    """Runs one command line in process."""

    @staticmethod
    def invoke(cli, args):
        """The exit code and the text of stdout and stderr together."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                cli.main(args)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        return types.SimpleNamespace(exit_code=code, output=buf.getvalue())


@pytest.fixture()
def runner():
    return Runner()


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
    (["verify", "--n", "3"], "verify_n3.json"),
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


@pytest.mark.parametrize("content", [None, b"\xffq = 2\n", "missing"])
def test_unreadable_config_is_a_usage_error(runner, tmp_path, content):
    # a directory, a file that is not UTF-8, and no file at all
    cfg = tmp_path / "conf"
    if content is None:
        cfg.mkdir()
    elif content != "missing":
        cfg.write_bytes(content)
    result = runner.invoke(main, ["--config", str(cfg), "spectrum", "--n",
                                  "3"])
    assert result.exit_code == 2
    assert f"cannot read config {cfg}" in result.output
    assert "Traceback" not in result.output


def test_unknown_config_key_is_a_usage_error(runner, tmp_path):
    # a typo would otherwise leave verify on its four default q
    cfg = tmp_path / "conf"
    cfg.write_text("qq = 2\n")
    result = runner.invoke(main, ["--config", str(cfg), "verify", "--n", "2"])
    assert result.exit_code == 2
    assert result.output == (f"Error: unknown config key 'qq' in {cfg}; "
                             f"the known keys are q, output_dir\n")


@pytest.mark.parametrize("args, q", [
    (["verify", "--n", "2", "--q", "-1/2"], "-1/2"),
    (["charpoly", "--n", "3", "--q", "-2/3"], "-2/3"),
])
def test_negative_q_is_read_as_a_value(runner, args, q):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report.get("q_values", [report.get("q")]) == [q]


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


# Makes importing click or sympy fail, then runs sys.argv[1:]: a Python
# statement after "-c", or a module after "-m".
WITHOUT_DEPENDENCIES = """
import importlib.abc, runpy, sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] in ("click", "sympy"):
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, Refuse())
flag, target, *sys.argv[1:] = sys.argv[1:]
if flag == "-c":
    exec(target)
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""


def test_cli_import_does_not_load_sympy():
    # neither sympy nor click is needed to import the CLI or to run it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["-c", "import sys, qshuffle.cli; "
                        "assert 'sympy' not in sys.modules, "
                        "'sympy was imported'"],
                 ["-m", "qshuffle.cli", "verify", "--n", "2"],
                 ["-m", "qshuffle.cli", "flags", "--n", "2", "--p", "2"]):
        result = subprocess.run(
            [sys.executable, "-c", WITHOUT_DEPENDENCIES] + argv, env=env,
            capture_output=True, text=True)
        assert result.returncode == 0, (argv, result.stderr)


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


# Every option of each command, as its --help must name them, and a
# command line each command accepts.
COMMANDS = {
    "spectrum": (["--n", "--format", "--all-rows", "--output"],
                 ["--n", "2"]),
    "charpoly": (["--op", "--n", "--q", "--bruteforce"], ["--n", "2"]),
    "verify": (["--n", "--q"], ["--n", "1"]),
    "eigvectors": (["--lam", "--q"], ["--lam", "1"]),
    "simulate": (["--n", "--q", "--steps", "--csv"], ["--n", "2"]),
    "flags": (["--n", "--p", "--check"], ["--n", "2", "--p", "2"]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_help_names_its_options(runner, command):
    options, args = COMMANDS[command]
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    named = {word.strip("[],") for word in result.output.split()
             if word.startswith(("--", "[--"))}
    assert named == set(options) | {"--help"}
    assert runner.invoke(main, [command] + args).exit_code == 0


def _usage_error(result):
    """The one Error: line of a refused command line."""
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    return errors[0]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_refuses_bad_options(runner, command):
    args = COMMANDS[command][1]
    # no prefix abbreviations: --form is not --format
    assert "--form" in _usage_error(
        runner.invoke(main, [command] + args + ["--form", "json"]))
    assert "--n" in _usage_error(
        runner.invoke(main, [command] + args + ["--n", "x"]))


def test_verify_has_no_route_option(runner):
    # every n certifies its spectra one way, on the regular representation
    assert "--route" in _usage_error(
        runner.invoke(main, ["verify", "--n", "4", "--route", "regular"]))


@pytest.mark.parametrize("args", [[], ["shuffle", "--n", "2"], ["-h"]])
def test_no_or_unknown_command_is_a_usage_error(runner, args):
    _usage_error(runner.invoke(main, args))


@pytest.mark.parametrize("command", [None] + list(COMMANDS))
def test_help_matches_golden(runner, monkeypatch, command):
    # argparse wraps help at the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    result = runner.invoke(main, [command, "--help"] if command
                           else ["--help"])
    assert result.exit_code == 0
    name = f"help_{command}.txt" if command else "help.txt"
    assert result.output == (GOLDEN / name).read_text()


# Runs sys.argv[1:] as one command line, if any, then prints the qshuffle
# modules loaded.
LOADED_MODULES = """
import contextlib, io, sys
import qshuffle.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            qshuffle.cli.main(sys.argv[1:])
        except SystemExit as exc:
            assert not exc.code, exc.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("qshuffle"))))
"""

ENGINE = {"qshuffle", "qshuffle.cli", "qshuffle.flags", "qshuffle.hecke",
          "qshuffle.linalg", "qshuffle.qpoly", "qshuffle.symmetric"}
SPECTRA = ENGINE | {"qshuffle.seminormal", "qshuffle.spectra",
                    "qshuffle.tableaux"}


@pytest.mark.parametrize("argv, extra", [
    ([], set()),
    (["flags", "--n", "2", "--p", "2"], set()),
    (["--help"], set()),
    (["--version"], set()),
    (["spectrum", "--n", "2"], SPECTRA),
    (["charpoly", "--n", "2", "--q", "2", "--bruteforce"], SPECTRA),
    (["eigvectors", "--lam", "2,1"], SPECTRA),
    (["simulate", "--n", "2"],
     {"qshuffle.markov", "qshuffle.seminormal", "qshuffle.tableaux"}),
    (["verify", "--n", "1"], SPECTRA | {"qshuffle.markov", "qshuffle.verify"}),
], ids=["import", "flags", "help", "version", "spectrum", "charpoly",
        "eigvectors", "simulate", "verify"])
def test_each_command_loads_only_its_layers(argv, extra):
    # importing the CLI loads the flag engine only; each command loads the
    # layers it runs, in a fresh process
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", LOADED_MODULES] + argv,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) == ENGINE | extra


def test_cli_run_suite_is_verify_run_suite():
    code = ("import sys, qshuffle.cli as cli\n"
            "assert 'qshuffle.verify' not in sys.modules\n"
            "run_suite = cli.run_suite\n"
            "from qshuffle import verify\n"
            "assert run_suite is verify.run_suite\n"
            "assert not hasattr(cli, 'no_such_name')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
