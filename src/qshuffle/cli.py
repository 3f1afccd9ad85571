"""Command-line surface: tables, reports, and verification orchestration.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from fractions import Fraction

import click

from . import __version__, flags as flags_mod, markov, spectra
from .hecke import CheckFailed
from .seminormal import InadmissibleQ, check_admissible
from .tableaux import Partition
from .verify import run_suite


def _parse_q(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad rational {text!r}: {exc}")


def _parse_q_list(text):
    return [_parse_q(part) for part in text.split(",") if part.strip()]


def _parse_partition(text):
    try:
        parts = tuple(int(p) for p in text.strip("() ").split(",") if p.strip())
        return Partition(parts)
    except ValueError as exc:
        raise click.UsageError(f"bad partition {text!r}: {exc}")


def _partition_str(p):
    return "(" + ",".join(str(x) for x in p.parts) + ")"


def _load_config(path):
    out = {}
    if not path:
        return out
    with open(path) as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _emit(ctx, text, output):
    if output:
        prefix = ctx.obj.get("output_dir")
        if prefix and not output.startswith("/"):
            output = f"{prefix}/{output}"
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise click.UsageError(
                f"cannot write {output}: {exc.strerror or exc}")
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(__version__, prog_name="qshuffle")
@click.option("--config", type=click.Path(exists=True), default=None,
              help="Optional key=value file pinning defaults (q, output_dir).")
@click.pass_context
def main(ctx, config):
    """Exact spectrum and verification tools for the q-random-to-random
    shuffle on the Hecke algebra."""
    ctx.obj = _load_config(config)


# -- spectrum ----------------------------------------------------------

def spectrum_markdown(n):
    rows = [r for r in spectra.spectrum_table(n) if r.multiplicity]
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


def spectrum_csv(n, all_rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "mu", "eigenvalue", "d_mu", "f_lambda",
                     "multiplicity"])
    for row in spectra.spectrum_table(n):
        if not all_rows and not row.multiplicity:
            continue
        writer.writerow([_partition_str(row.lam), _partition_str(row.mu),
                         str(row.eigenvalue), row.d_mu, row.f_lambda,
                         row.multiplicity])
    return buf.getvalue()


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "md"]),
              default="md", show_default=True)
@click.option("--all-rows", is_flag=True,
              help="Include multiplicity-0 strip rows (json/csv only).")
@click.option("--output", default=None, help="Write to a file instead of stdout.")
@click.pass_context
def spectrum(ctx, n, fmt, all_rows, output):
    """Closed-form eigenvalue table indexed by horizontal strips."""
    if n < 1 or n > 8:
        raise click.UsageError("supported range: 1 <= n <= 8")
    if fmt == "md":
        text = spectrum_markdown(n)
    elif fmt == "csv":
        text = spectrum_csv(n, all_rows)
    else:
        rows = [r.to_json() for r in spectra.spectrum_table(n)
                if all_rows or r.multiplicity]
        text = json.dumps({"n": n, "rows": rows}, indent=2) + "\n"
    _emit(ctx, text, output)


# -- charpoly ----------------------------------------------------------

@main.command()
@click.option("--op", "op_name", type=click.Choice(["r2r", "b2r", "r2b"]),
              default="r2r", show_default=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--q", "q_text", default=None,
              help="Evaluate at an exact rational instead of symbolically.")
@click.option("--bruteforce", is_flag=True,
              help="Also compute the regular-representation char poly and "
                   "compare (requires --q, n <= 5).")
@click.pass_context
def charpoly(ctx, op_name, n, q_text, bruteforce):
    """Factored characteristic polynomial of a shuffle element."""
    if n < 1 or n > 8:
        raise click.UsageError("supported range: 1 <= n <= 8")
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
            raise click.UsageError(str(exc))
        report["q"] = str(q0)
        roots = spectra.spectrum_at(factored, q0)
        report["eigenvalues_at_q"] = {str(v): m for v, m in roots.items()}
    if bruteforce:
        if q_text is None:
            raise click.UsageError("--bruteforce needs --q")
        if n > 5:
            raise click.UsageError("--bruteforce supports n <= 5")
        from .hecke import b2r, r2b, r2r
        op = {"r2r": r2r, "b2r": b2r, "r2b": r2b}[op_name](n)
        oracle = spectra.bruteforce_charpoly(op, q0)
        from . import linalg
        report["oracle_agrees"] = (
            oracle == linalg.poly_from_roots(roots.items()))
    click.echo(json.dumps(report, indent=2))
    if bruteforce and not report["oracle_agrees"]:
        sys.exit(1)


# -- verify ------------------------------------------------------------

@main.command(name="verify")
@click.option("--n", "n", type=int, required=True)
@click.option("--q", "q_text", default=None,
              help="Comma-separated rationals (default 2,3,1/2,7/5).")
@click.option("--route", type=click.Choice(["regular", "specht"]),
              default=None,
              help="Char-poly oracle route (default: regular for n <= 4, "
                   "specht for n = 5).")
@click.pass_context
def verify_cmd(ctx, n, q_text, route):
    """Run every invariant check for one n; exit 0 iff all pass."""
    if n < 1 or n > 5:
        raise click.UsageError("verification supports 1 <= n <= 5")
    if q_text is None:
        q_text = ctx.obj.get("q", "2,3,1/2,7/5")
    q_values = _parse_q_list(q_text)
    if not q_values:
        raise click.UsageError("empty q list")
    for q0 in q_values:
        try:
            check_admissible(q0, n)
        except InadmissibleQ as exc:
            raise click.UsageError(str(exc))
    if route is None:
        route = "specht" if n >= 5 else "regular"
    start = time.perf_counter()
    results = run_suite(n, q_values, route)
    report = {
        "tool": "qshuffle", "version": __version__,
        "n": n, "q_values": [str(q) for q in q_values], "route": route,
        "checks": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 1),
        "scope_note": (
            "Identities checked symbolically hold for all q; matrix-level "
            "checks certify only the listed exact rational points, which "
            "suffices for the polynomial identities involved by degree "
            "bounds but is not a proof of the general-q statements."),
    }
    click.echo(json.dumps(report, indent=2))
    if not report["all_passed"]:
        sys.exit(1)


# -- eigvectors --------------------------------------------------------

@main.command()
@click.option("--lam", "lam_text", required=True,
              help='Partition, e.g. "3,1".')
@click.option("--q", "q_text", default="2", show_default=True)
@click.pass_context
def eigvectors(ctx, lam_text, q_text):
    """Recursive eigenvector basis of one Specht module as JSON."""
    lam = _parse_partition(lam_text)
    if lam.size > 6:
        raise click.UsageError("eigenvector construction supports |lambda| "
                               "<= 6")
    q0 = _parse_q(q_text)
    if q0 <= 0:
        raise click.UsageError("eigenvector construction needs q > 0")
    try:
        check_admissible(q0, max(lam.size, 1))
        records = spectra.build_eigenbasis(lam, q0)
    except InadmissibleQ as exc:
        raise click.UsageError(str(exc))
    out = {"lambda": lam.to_json(), "q": str(q0),
           "records": [rec.to_json() for rec in records]}
    click.echo(json.dumps(out, indent=2))


# -- simulate ----------------------------------------------------------

@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--q", "q_text", default="2", show_default=True)
@click.option("--steps", type=int, default=10, show_default=True)
@click.option("--csv", "csv_path", default=None,
              help="Write the mixing curve as CSV to this path.")
@click.pass_context
def simulate(ctx, n, q_text, steps, csv_path):
    """Exact total-variation mixing curve of the normalized walk."""
    if n < 1 or n > 5:
        raise click.UsageError("simulation supports 1 <= n <= 5")
    if steps < 0:
        raise click.UsageError("--steps must be >= 0")
    if steps > 200:  # the exact curve costs more than linearly in --steps
        raise click.UsageError("--steps must be <= 200")
    q0 = _parse_q(q_text)
    try:
        curve = markov.tv_mixing_curve(n, q0, steps)
    except markov.SubunitQ as exc:
        raise click.UsageError(str(exc))
    text = markov.mixing_csv(curve)
    _emit(ctx, text, csv_path)


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


@main.command(name="flags")
@click.option("--n", "n", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--check", "which",
              type=click.Choice(["commutation", "spectrum", "all"]),
              default="all", show_default=True)
@click.pass_context
def flags_cmd(ctx, n, p, which):
    """Line-insertion operator on complete flags over F_p."""
    try:
        flags_mod.check_size(n, p)
    except flags_mod.UnsupportedSize as exc:
        raise click.UsageError(str(exc))
    count = flags_mod.flag_count(n, p)
    if which != "commutation" and count > flags_mod.SPECTRUM_MAX_FLAGS:
        raise click.UsageError(
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
    click.echo(json.dumps(report, indent=2))
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
