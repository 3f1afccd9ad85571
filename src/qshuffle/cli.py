"""Command-line surface: tables, reports, and verification orchestration.

Importing this module loads the flag engine (flags, hecke, linalg, qpoly,
symmetric), which every command needs; each command loads the other layers
it runs when it runs, so a launch compiles only what it uses.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__, flags as flags_mod, linalg
from .hecke import CheckFailed, b2r, r2b, r2r


def __getattr__(name):
    """cli.run_suite is verify.run_suite; reading it loads the verify layer."""
    if name == "run_suite":
        from .verify import run_suite
        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """A command line or config the CLI refuses: one Error: line, exit 2."""


# The largest numerator and denominator a q may have.  The exact values
# grow with the size of q, and so does the cost of every command: at
# q = 10^4 simulate --n 5 --steps 200 takes 18-23 s of CPU and
# charpoly --n 5 --bruteforce about 17 s (3 s and 1 s at q = 2), at
# q = 10^6 41 s and 21 s (2-CPU machine, Python 3.11).
Q_MAX = 10 ** 4

# A decimal exponent, which Fraction would expand into 10 ** exponent.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9][0-9_]*)\s*$")


def _parse_q(text):
    exponent = _EXPONENT.search(text)
    if exponent is None or abs(int(exponent[1])) <= 1000:
        try:
            q0 = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {text!r}: {exc}")
        if abs(q0.numerator) <= Q_MAX and q0.denominator <= Q_MAX:
            return q0
    raise UsageError(
        f"q = {text} is out of range: its numerator and denominator must "
        f"each be at most {Q_MAX:,} in absolute value")


# The most q values one verify run takes: each q runs every matrix check
# again.  verify --n 5 takes 5.0 s of CPU with the 16 values 2, ..., 11,
# 1/2, 3/2, ..., 11/2 and 8.0 s with 16 values near the size bound,
# 9999/9998, 9997/9996, ... (medians of ten launches, 2-CPU machine,
# Python 3.11; BENCH_one_route.json).
Q_LIST_MAX = 16


def _parse_q_list(text):
    """The distinct q values of a comma-separated list, at most
    Q_LIST_MAX of them."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if len(parts) > Q_LIST_MAX:
        raise UsageError(f"{len(parts)} q values given; a run takes "
                         f"at most {Q_LIST_MAX}")
    values = {}
    for part in parts:
        q0 = _parse_q(part)
        if q0 in values:
            raise UsageError(f"q = {part} repeats q = {values[q0]}")
        values[q0] = part
    return list(values)


def _parse_partition(text):
    from .tableaux import Partition
    try:
        parts = tuple(int(p) for p in text.strip("() ").split(",") if p.strip())
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}")


def _partition_str(p):
    return "(" + ",".join(str(x) for x in p.parts) + ")"


# The keys a config file may set: verify's default --q list, and the
# directory that relative --output and --csv paths are written under.
_CONFIG_KEYS = ("q", "output_dir")


def _load_config(path):
    out = {}
    if not path:
        return out
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: "
                         f"{getattr(exc, 'strerror', None) or exc}")
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r} in {path}; the "
                             f"known keys are {', '.join(_CONFIG_KEYS)}")
        out[key] = value
    return out


def _emit(config, text, output):
    if output:
        prefix = config.get("output_dir")
        if prefix and not output.startswith("/"):
            output = f"{prefix}/{output}"
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(
                f"cannot write {output}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# -- spectrum ----------------------------------------------------------

def spectrum_markdown(n, table):
    rows = [r for r in table if r.multiplicity]
    lines = [f"# Spectrum of the q-random-to-random shuffle, n = {n}", ""]
    lines.append("| lambda | mu | eigenvalue | mult in S^lambda |"
                 " mult in H_n(q) |")
    lines.append("|---|---|---|---|---|")
    for row in rows:
        lines.append(f"| {_partition_str(row.lam)} | {_partition_str(row.mu)}"
                     f" | {row.eigenvalue} | {row.d_mu} | {row.multiplicity} |")
    total = sum(row.multiplicity for row in rows)
    lines += ["", f"Total multiplicity: {total}", ""]
    return "\n".join(lines)


def spectrum_csv(table, all_rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "mu", "eigenvalue", "d_mu", "f_lambda",
                     "multiplicity"])
    for row in table:
        if not all_rows and not row.multiplicity:
            continue
        writer.writerow([_partition_str(row.lam), _partition_str(row.mu),
                         str(row.eigenvalue), row.d_mu, row.f_lambda,
                         row.multiplicity])
    return buf.getvalue()


def spectrum(config, n, fmt, all_rows, output):
    """Closed-form eigenvalue table indexed by horizontal strips."""
    from . import spectra
    if n < 1 or n > 8:
        raise UsageError("supported range: 1 <= n <= 8")
    table = spectra.spectrum_table(n)
    if fmt == "md":
        text = spectrum_markdown(n, table)
    elif fmt == "csv":
        text = spectrum_csv(table, all_rows)
    else:
        rows = [r.to_json() for r in table if all_rows or r.multiplicity]
        text = json.dumps({"n": n, "rows": rows}, indent=2) + "\n"
    _emit(config, text, output)


# -- charpoly ----------------------------------------------------------

def charpoly(config, op_name, n, q_text, bruteforce):
    """Factored characteristic polynomial of a shuffle element."""
    from . import spectra
    from .seminormal import InadmissibleQ, check_admissible
    if n < 1 or n > 8:
        raise UsageError("supported range: 1 <= n <= 8")
    if op_name == "r2r":
        factored = spectra.r2r_charpoly_factored(n)
    else:
        factored = spectra.b_charpoly_factored(n)
    report = {"op": op_name, "n": n,
              "factors": [{"eigenvalue": str(e), "multiplicity": m}
                          for e, m in factored]}
    if q_text is not None:
        q0 = _parse_q(q_text)
        try:
            check_admissible(q0, n)
        except InadmissibleQ as exc:
            raise UsageError(str(exc))
        report["q"] = str(q0)
        roots = spectra.spectrum_at(factored, q0)
        report["eigenvalues_at_q"] = {str(v): m for v, m in roots.items()}
    if bruteforce:
        if q_text is None:
            raise UsageError("--bruteforce needs --q")
        if n > 5:
            raise UsageError("--bruteforce supports n <= 5")
        op = {"r2r": r2r, "b2r": b2r, "r2b": r2b}[op_name](n)
        oracle = spectra.bruteforce_charpoly(op, q0)
        report["oracle_agrees"] = (
            oracle == linalg.poly_from_roots(roots.items()))
    print(json.dumps(report, indent=2))
    if bruteforce and not report["oracle_agrees"]:
        sys.exit(1)


# -- verify ------------------------------------------------------------

def verify_cmd(config, n, q_text):
    """Run every invariant check for one n; exit 0 iff all pass."""
    from .seminormal import InadmissibleQ, check_admissible
    from .verify import run_suite
    if n < 1 or n > 5:
        raise UsageError("verification supports 1 <= n <= 5")
    if q_text is None:
        q_text = config.get("q", "2,3,1/2,7/5")
    q_values = _parse_q_list(q_text)
    if not q_values:
        raise UsageError("empty q list")
    for q0 in q_values:
        try:
            check_admissible(q0, n)
        except InadmissibleQ as exc:
            raise UsageError(str(exc))
    start = time.perf_counter()
    results = run_suite(n, q_values)
    report = {
        "tool": "qshuffle", "version": __version__,
        "n": n, "q_values": [str(q) for q in q_values],
        "route": "regular",  # the one route, kept as a report field
        "checks": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 1),
        "scope_note": (
            "Identities checked symbolically hold for all q; matrix-level "
            "checks certify only the listed exact rational points and are "
            "not a proof of the general-q statements."),
    }
    print(json.dumps(report, indent=2))
    if not report["all_passed"]:
        sys.exit(1)


# -- eigvectors --------------------------------------------------------

def eigvectors(config, lam_text, q_text):
    """Recursive eigenvector basis of one Specht module as JSON."""
    from . import spectra
    from .seminormal import InadmissibleQ, check_admissible
    lam = _parse_partition(lam_text)
    if lam.size > 6:
        raise UsageError("eigenvector construction supports |lambda| <= 6")
    q0 = _parse_q(q_text)
    if q0 <= 0:
        raise UsageError("eigenvector construction needs q > 0")
    try:
        check_admissible(q0, max(lam.size, 1))
        records = spectra.build_eigenbasis(lam, q0)
    except InadmissibleQ as exc:
        raise UsageError(str(exc))
    out = {"lambda": lam.to_json(), "q": str(q0),
           "records": [rec.to_json() for rec in records]}
    print(json.dumps(out, indent=2))


# -- simulate ----------------------------------------------------------

def simulate(config, n, q_text, steps, csv_path):
    """Exact total-variation mixing curve of the normalized walk."""
    from . import markov
    if n < 1 or n > 5:
        raise UsageError("simulation supports 1 <= n <= 5")
    if steps < 0:
        raise UsageError("--steps must be >= 0")
    if steps > 200:  # the exact curve costs more than linearly in --steps
        raise UsageError("--steps must be <= 200")
    q0 = _parse_q(q_text)
    try:
        curve = markov.tv_mixing_curve(n, q0, steps)
    except markov.SubunitQ as exc:
        raise UsageError(str(exc))
    text = markov.mixing_csv(curve)
    _emit(config, text, csv_path)


# -- flags -------------------------------------------------------------

def _flag_case(name, check, space, **fields):
    """One flags report case: the verdict of check(space), the given fields,
    and, on a failure only, the witness that check raised as detail."""
    case = {"case": name}
    try:
        case["passed"] = bool(check(space))
        detail = ""
    except CheckFailed as exc:
        case["passed"] = False
        detail = f"{type(exc).__name__}: {exc}"
    case.update(fields)
    if not case["passed"]:
        case["detail"] = detail
    return case


def flags_cmd(config, n, p, which):
    """Line-insertion operator on complete flags over F_p."""
    try:
        flags_mod.check_size(n, p)
    except flags_mod.UnsupportedSize as exc:
        raise UsageError(str(exc))
    count = flags_mod.flag_count(n, p)
    if which != "commutation" and count > flags_mod.SPECTRUM_MAX_FLAGS:
        raise UsageError(
            f"the spectrum check at n = {n}, p = {p} needs the char poly of "
            f"a {count}x{count} matrix, which does not finish; use "
            f"--check commutation")
    space = flags_mod.FlagSpace(n, p)
    report = {"n": n, "p": p, "flag_count": space.size, "cases": []}
    if which in ("commutation", "all"):
        report["cases"].append(_flag_case(
            "commutation", flags_mod.verify_commutation, space))
    if which in ("spectrum", "all"):
        mults = flags_mod.x_spectrum(space)
        report["cases"].append(_flag_case(
            "spectrum", flags_mod.x_spectrum_check, space,
            eigenvalues=([] if mults is None else sorted(mults)),
            multiplicities=({} if mults is None
                            else {str(k): v for k, v in mults.items()})))
    passed = all(case["passed"] for case in report["cases"])
    report["all_passed"] = passed
    print(json.dumps(report, indent=2))
    if not passed:
        sys.exit(1)


# -- command line ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with the rules of this CLI: every error is a UsageError,
    options are spelled in full, only --help asks for help, and a token
    that starts with one dash is a value, so --q -1/2 reads as a rational
    (no option here has a one-dash name)."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message):
        raise UsageError(message)


_DEFAULT = "(default: %(default)s)"


def _parser(prog):
    parser = _Parser(prog=prog, description=(
        "Exact spectrum and verification tools for the q-random-to-random "
        "shuffle on the Hecke algebra."))
    parser.add_argument("--version", action="version",
                        version=f"qshuffle, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--config", help="Optional key=value file pinning "
                                         "defaults (q, output_dir).")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub.add_argument

    option = command("spectrum", spectrum)
    option("--n", type=int, required=True)
    option("--format", dest="fmt", choices=["json", "csv", "md"],
           default="md", help=_DEFAULT)
    option("--all-rows", action="store_true",
           help="Include multiplicity-0 strip rows (json/csv only).")
    option("--output", help="Write to a file instead of stdout.")

    option = command("charpoly", charpoly)
    option("--op", dest="op_name", choices=["r2r", "b2r", "r2b"],
           default="r2r", help=_DEFAULT)
    option("--n", type=int, required=True)
    option("--q", dest="q_text", metavar="Q",
           help="Evaluate at an exact rational instead of symbolically.")
    option("--bruteforce", action="store_true",
           help="Also compute the char poly of the regular-representation "
                "matrix, the dense oracle, and compare (requires --q, "
                "n <= 5).")

    option = command("verify", verify_cmd)
    option("--n", type=int, required=True)
    option("--q", dest="q_text", metavar="Q",
           help="Comma-separated rationals (default 2,3,1/2,7/5).")

    option = command("eigvectors", eigvectors)
    option("--lam", dest="lam_text", metavar="LAM", required=True,
           help='Partition, e.g. "3,1".')
    option("--q", dest="q_text", metavar="Q", default="2", help=_DEFAULT)

    option = command("simulate", simulate)
    option("--n", type=int, required=True)
    option("--q", dest="q_text", metavar="Q", default="2", help=_DEFAULT)
    option("--steps", type=int, default=10, help=_DEFAULT)
    option("--csv", dest="csv_path", metavar="PATH",
           help="Write the mixing curve as CSV to this path.")

    option = command("flags", flags_cmd)
    option("--n", type=int, required=True)
    option("--p", type=int, required=True)
    option("--check", dest="which",
           choices=["commutation", "spectrum", "all"], default="all",
           help=_DEFAULT)
    return parser


def main(args=None, prog_name="qshuffle", standalone_mode=True):
    """Run one command line, sys.argv[1:] by default, and exit 1 if a check
    failed.  A usage error prints one Error: line on stderr and exits 2,
    or is raised when standalone_mode is false."""
    # exact values may have more digits than int -> str allows by default
    sys.set_int_max_str_digits(0)
    try:
        options = vars(_parser(prog_name).parse_args(args))
        run = options.pop("run")
        run(_load_config(options.pop("config")), **options)
    except UsageError as exc:
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)


# the call form of a click command, which perfbench/run.py uses
main.main = main


if __name__ == "__main__":
    main()
