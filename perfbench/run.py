"""Time-to-verdict benchmark for the qshuffle CLI.

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src`` and is
not installed.  With ``--trace 0`` the workload's command runs as a pair of
child processes started together and pinned to one CPU: one imports the
program from ``src``, the other imports the frozen seed commit's program
from ``seed/``.  ``cpu_ratio`` is the CPU time of the first over that of the
second.  Both share the CPU, so the host's speed, which on a shared machine
drifts by tens of percent within a minute, cancels out of the ratio.  Pairs
run one after another for about ``--seconds`` seconds, and the metrics are
medians over the pairs.  With ``--trace 1`` the workload runs twice in this
process, once plain and once under the tracer of ``tracer.py``, and the
per-layer metrics come from the traced call.

Every launch's verdict is compared with the one pinned in ``pinned/``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
verdict matched.  No input is random, so ``--seed`` only labels the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The program at the seed commit, the yardstick of cpu_ratio.
SEED_ZIP = HERE / "seed" / "qshuffle-155eae8.zip"

# Each workload: its CLI arguments, the small launch of the same command
# that compiles every module it imports before timing starts, and the kind
# of report it prints.  Why each workload is here is in README.md.
WORKLOADS = {
    "verify-n4": (["verify", "--n", "4"], ["verify", "--n", "2"], "verify"),
    "flags-n3": (["flags", "--n", "3", "--p", "3"],
                 ["flags", "--n", "2", "--p", "2"], "flags"),
}

SETUP_LAUNCHES = 15
# A child still running after this many seconds is killed; a launch of the
# program counts as failed then.
LAUNCH_LIMIT_S = 170.0


# -- verdicts ------------------------------------------------------------

def verdict(kind, report):
    """The pinned fields of one report, as {operation id: value}.

    Timing, ``detail`` and any field not named here are left out, so a
    report that gains fields still matches its pinned verdict.
    """
    if kind == "verify":
        out = {c["check"]: c["passed"] for c in report["checks"]}
        out["all_passed"] = report["all_passed"]
    else:
        out = {"flag_count": report["flag_count"]}
        for case in report["cases"]:
            out[case["case"]] = {
                key: case[key] for key in
                ("passed", "eigenvalues", "multiplicities") if key in case}
        out["all_passed"] = report["all_passed"]
    return out


def pinned(workload):
    with open(HERE / "pinned" / f"{workload}.json") as handle:
        return json.load(handle)


def count_failed(expected, exit_code, text, kind):
    """Pinned operations that did not come out as pinned in one launch."""
    if exit_code != 0:
        return len(expected)
    try:
        got = verdict(kind, json.loads(text))
    except (ValueError, KeyError, TypeError):
        return len(expected)
    missing = object()
    return sum(got.get(key, missing) != value
               for key, value in expected.items())


def verify_family_seconds(report):
    """The verify report's elapsed_ms summed over q for each check family."""
    out = {}
    for check in report["checks"]:
        family = check["check"].split("[")[0]
        out[family] = out.get(family, 0.0) + check["elapsed_ms"] / 1000
    return out


VERIFY_FAMILIES = list(dict.fromkeys(
    key.split("[")[0] for key in pinned("verify-n4") if key != "all_passed"))


# -- untraced: child processes -------------------------------------------

def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def seed_src():
    """The seed's ``src`` directory, unpacked from SEED_ZIP once."""
    target = OUT / SEED_ZIP.stem
    if not (target / "src" / "qshuffle" / "cli.py").is_file():
        with zipfile.ZipFile(SEED_ZIP) as archive:
            archive.extractall(target)
    return target / "src"


def launch(jobs):
    """Start every (argv, env, tag) child at once and wait for all of them.

    Returns one (wall s, cpu s, peak RSS MiB, exit code, stdout) per job.
    """
    OUT.mkdir(exist_ok=True)
    procs, files, results = [], [], []
    try:
        start = time.perf_counter()
        for argv, env, tag in jobs:
            files.append((open(OUT / f"{tag}.stdout", "wb"),
                          open(OUT / f"{tag}.stderr", "wb")))
            procs.append(subprocess.Popen(
                [sys.executable] + argv, stdout=files[-1][0],
                stderr=files[-1][1], env=env, cwd=ROOT))
        for proc in procs:
            killer = threading.Timer(
                max(0.0, start + LAUNCH_LIMIT_S - time.perf_counter()),
                proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            results.append((time.perf_counter() - start,
                            usage.ru_utime + usage.ru_stime,
                            usage.ru_maxrss / 1024, proc.returncode))
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        for handles in files:
            for handle in handles:
                handle.close()
    return [result + ((OUT / f"{tag}.stdout").read_text(),)
            for result, (_argv, _env, tag) in zip(results, jobs)]


def run_untraced(workload, seconds):
    args, warmup, kind = WORKLOADS[workload]
    expected = pinned(workload)
    # Children inherit this: the pair shares one CPU, and so each sees the
    # same host at the same moments.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env, seed_env = child_env(SRC), child_env(seed_src())
    cli = ["-m", "qshuffle.cli"]
    warm = launch([(cli + warmup, env, f"{workload}.warmup"),
                   (cli + warmup, seed_env, f"{workload}.seed-warmup")])
    if any(w[3] != 0 for w in warm):
        raise RuntimeError(f"warm-up launch failed: see {OUT}")
    setup = [launch([(["-c", "import qshuffle.cli"], env,
                      f"{workload}.setup")])[0]
             for _ in range(SETUP_LAUNCHES)]
    if any(s[3] != 0 for s in setup):
        raise RuntimeError(f"import qshuffle.cli failed: see {OUT}")
    pairs, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        jobs = [(cli + args, env, workload),
                (cli + args, seed_env, f"{workload}.seed")]
        if len(pairs) % 2:  # alternate which child starts first
            jobs.reverse()
        results = {tag: r for (_a, _e, tag), r in zip(jobs, launch(jobs))}
        ours, seeds = results[workload], results[f"{workload}.seed"]
        if seeds[3] != 0:
            raise RuntimeError(f"the seed program failed: see {OUT}")
        pairs.append((ours, seeds))
        attempted += len(expected)
        failed += count_failed(expected, ours[3], ours[4], kind)
        elapsed = time.perf_counter() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break

    def median(value):
        return statistics.median(value(ours, seeds) for ours, seeds in pairs)

    metrics = {
        "cpu_ratio": (median(lambda o, s: o[1] / s[1]), "ratio"),
        "peak_rss_mib": (median(lambda o, s: o[2]), "MiB"),
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
    }
    extra = {"cpu_s": (median(lambda o, s: o[1]), "s"),
             "seed_cpu_s": (median(lambda o, s: s[1]), "s"),
             "pair_wall_s": (median(lambda o, s: max(o[0], s[0])), "s"),
             "pairs": (len(pairs), "count"),
             "failed_ratio": (failed / attempted, "1")}
    return metrics, extra, attempted, failed


# -- traced: in process ---------------------------------------------------

def call_cli(main, argv):
    """One in-process CLI call: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=argv, prog_name="qshuffle", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def layer_metrics(sites, layers, report):
    """Per-layer metrics from the tracer summary of one traced call."""
    def get(name, field):
        return sites.get(name, {}).get(field, 0)

    def calls(*names):
        return sum(get(n, "calls") for n in names)

    def self_s(*names):
        return sum(get(n, "self_s") for n in names)

    def keys(*names):
        return [k for n in names for k in get(n, "keys") or []]

    def distinct(*names):
        found = [(n, k) for n in names for k in get(n, "keys") or []]
        return len(set(found)) / len(found) if found else 0.0

    shuffles = ("hecke.b2r", "hecke.r2b", "hecke.r2r")
    words = "seminormal.WordModuleRep.__init__"
    spechts = "seminormal.SpechtRep.__init__"
    out = {
        "qpoly.eval.calls": (calls("qpoly.LaurentPoly.eval"), "count"),
        "qpoly.self_s": (layers.get("qpoly", 0.0), "s"),
        "hecke.self_s": (layers.get("hecke", 0.0), "s"),
        "hecke.mul.calls": (calls("hecke.HeckeElement.__mul__"), "count"),
        "hecke.shuffle.calls": (calls(*shuffles), "count"),
        "hecke.shuffle.distinct_ratio": (distinct(*shuffles), "1"),
        "hecke.regular_rep.calls": (calls("hecke.regular_rep_matrix"),
                                    "count"),
        "hecke.regular_rep.self_s": (self_s("hecke.regular_rep_matrix"), "s"),
        "seminormal.self_s": (layers.get("seminormal", 0.0), "s"),
        "seminormal.apply_jm.calls": (
            calls("seminormal.WordModuleRep.apply_jm"), "count"),
        "seminormal.apply_jm.self_s": (
            self_s("seminormal.WordModuleRep.apply_jm"), "s"),
        "seminormal.apply_idempotent.calls": (
            calls("seminormal.WordModuleRep.apply_idempotent"), "count"),
        "seminormal.apply_idempotent.self_s": (
            self_s("seminormal.WordModuleRep.apply_idempotent"), "s"),
        "seminormal.word_module.builds": (calls(words), "count"),
        "seminormal.word_module.distinct_ratio": (distinct(words), "1"),
        "seminormal.specht.builds": (calls(spechts), "count"),
        "seminormal.specht.distinct_ratio": (distinct(spechts), "1"),
        "linalg.self_s": (layers.get("linalg", 0.0), "s"),
        "linalg.charpoly.calls": (calls("linalg.charpoly"), "count"),
        "linalg.charpoly.self_s": (self_s("linalg.charpoly"), "s"),
        "linalg.charpoly.max_dim": (max(keys("linalg.charpoly"), default=0),
                                    "count"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.self_s": (self_s("linalg.rref"), "s"),
        "linalg.rref.cells": (sum(r * c for r, c in keys("linalg.rref")),
                              "count"),
        "linalg.mat_mul.calls": (calls("linalg.mat_mul"), "count"),
        "linalg.mat_mul.self_s": (self_s("linalg.mat_mul"), "s"),
        "spectra.self_s": (layers.get("spectra", 0.0), "s"),
        "spectra.eigenbasis.calls": (calls("spectra.build_eigenbasis"),
                                     "count"),
        "spectra.eigenbasis.distinct_ratio": (
            distinct("spectra.build_eigenbasis"), "1"),
        "spectra.kernel_basis.distinct_ratio": (
            distinct("spectra.kernel_basis"), "1"),
        "markov.self_s": (layers.get("markov", 0.0), "s"),
        "markov.transition.calls": (calls("markov.transition_matrix"),
                                    "count"),
        "flags.self_s": (layers.get("flags", 0.0), "s"),
        "flags.space.self_s": (self_s("flags.FlagSpace.__init__"), "s"),
        "flags.x_matrix.calls": (calls("flags.FlagSpace.x_matrix"), "count"),
        "flags.element_matrix.self_s": (
            self_s("flags.FlagSpace.element_matrix"), "s"),
        "verify.self_s": (layers.get("verify", 0.0), "s"),
        "verify.checks": (len(report.get("checks", [])), "count"),
    }
    families = (verify_family_seconds(report) if "checks" in report else {})
    for family in VERIFY_FAMILIES:
        out[f"verify.{family}_s"] = (families.get(family, 0.0), "s")
    return out


def run_traced(workload, seed):
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import qshuffle.cli
    from tracer import Tracer

    args, warmup, kind = WORKLOADS[workload]
    expected = pinned(workload)
    call_cli(qshuffle.cli.main, warmup)
    start = time.perf_counter()
    code, plain_text = call_cli(qshuffle.cli.main, args)
    untraced_s = time.perf_counter() - start
    failed = count_failed(expected, code, plain_text, kind)

    tracer = Tracer(workload=workload, run=seed)
    with tracer:
        root = tracer.wrap(call_cli, "cli", "cli.main")
        start = time.perf_counter()
        code, text = root(qshuffle.cli.main, args)
        traced_s = time.perf_counter() - start
    failed += count_failed(expected, code, text, kind)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}.tsv.gz")

    sites, layers = tracer.summary()
    try:
        report = json.loads(plain_text)  # check times without tracer overhead
    except ValueError:
        report = {}
    metrics = layer_metrics(sites, layers, report)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "1")
    extra = {"traced_s": (traced_s, "s"), "untraced_s": (untraced_s, "s"),
             "spans": (len(tracer.spans), "count")}
    return metrics, extra, 2 * len(expected), failed


# -- entry point ------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through launch(), which kills its child


def main(argv=None):
    opts = parse_args(argv)
    if not (SRC / "qshuffle" / "cli.py").is_file():
        print(f"error: no qshuffle sources under {SRC}", file=sys.stderr)
        return 2
    if opts.trace:
        metrics, extra, attempted, failed = run_traced(opts.workload,
                                                       opts.seed)
    else:
        metrics, extra, attempted, failed = run_untraced(opts.workload,
                                                         opts.seconds)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{opts.workload}  {name:40s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
