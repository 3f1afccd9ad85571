"""Fast checks of the benchmark itself: tracer bindings, self times, verdicts."""

import inspect
import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import qshuffle.cli  # noqa: E402,F401  (loads every qshuffle module)


def _bindings():
    """Identity of every module-level and class-level binding in qshuffle."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname != "qshuffle" and not modname.startswith("qshuffle."):
            continue
        for attr, obj in vars(module).items():
            out[(modname, attr)] = id(obj)
            if inspect.isclass(obj) and obj.__module__ == modname:
                for cattr, cobj in vars(obj).items():
                    out[(modname, attr, cattr)] = id(cobj)
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        from qshuffle import cli, hecke, seminormal, verify
        assert verify.r2r is hecke.r2r and hasattr(verify.r2r, "__wrapped__")
        assert cli.run_suite is verify.run_suite
        assert hasattr(cli.run_suite, "__wrapped__")
        assert hasattr(vars(seminormal.WordModuleRep)["apply_jm"],
                       "__wrapped__")
        assert hasattr(vars(hecke.HeckeElement)["__mul__"], "__wrapped__")
    changed = [k for k in before if during.get(k) != before[k]]
    assert len(changed) > 50
    assert {k[0].split(".")[1] for k in changed} >= set(LAYERS) | {"cli"}
    assert _bindings() == before


def test_self_times_sum_to_root_duration():
    tracer = Tracer()

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    leaf = tracer.wrap(lambda: spin(0.002), "t", "leaf")
    mid = tracer.wrap(lambda: (spin(0.001), leaf(), leaf()), "t", "mid")
    root = tracer.wrap(lambda: (mid(), leaf(), mid(), spin(0.001)), "t",
                       "root")
    root()
    own = tracer.self_times()
    assert len(own) == 8 and min(own) >= 0
    _site, start, end, parent = tracer.spans[0]
    assert parent == -1
    assert sum(own) == pytest.approx(end - start, rel=1e-9, abs=1e-12)
    sites, layers = tracer.summary()
    assert sites["leaf"]["calls"] == 5
    assert layers["t"] == pytest.approx(end - start, rel=1e-9, abs=1e-12)


def test_pinned_verdict_mismatch_counts_as_failed():
    expected = run.pinned("verify-n4")
    report = {"checks": [{"check": k, "passed": v, "elapsed_ms": 1.0,
                          "detail": "ignored"}
                         for k, v in expected.items() if k != "all_passed"],
              "all_passed": True, "field_added_later": 1}
    text = json.dumps(report)
    assert run.count_failed(expected, 0, text, "verify") == 0
    report["checks"][3]["passed"] = False
    report["all_passed"] = False
    assert run.count_failed(expected, 0, json.dumps(report), "verify") == 2
    del report["checks"][5]
    assert run.count_failed(expected, 0, json.dumps(report), "verify") == 3
    assert run.count_failed(expected, 1, text, "verify") == len(expected)
    assert run.count_failed(expected, 0, "Traceback", "verify") == len(
        expected)


def test_launch_reaps_every_child_and_reports_each():
    code = "import sys; sum(range(10**6)); sys.exit(int(sys.argv[1]))"
    results = run.launch([(["-c", code, "0"], None, "test-a"),
                          (["-c", code, "3"], None, "test-b")])
    assert [r[3] for r in results] == [0, 3]
    assert all(r[0] > 0 and r[1] > 0 and r[2] > 0 for r in results)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _traced(capsys, workload="flags-n3"):
    code = run.main(["--workload", workload, "--seed", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_failing_check_fails_the_run(monkeypatch, capsys):
    import qshuffle.flags
    monkeypatch.setattr(qshuffle.flags, "verify_commutation",
                        lambda space: False)
    code, result = _traced(capsys)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_traced_counts_repeat_and_names_match_benchmark(capsys):
    code_a, first = _traced(capsys)
    code_b, second = _traced(capsys)
    assert code_a == code_b == 0
    assert first["correct"] and first["failed"] == 0

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if name.endswith((".calls", ".builds", ".distinct_ratio",
                                  ".max_dim", ".cells"))}
    assert counts(first) == counts(second)
    assert counts(first)["flags.x_matrix.calls"] == 4
    assert counts(first)["linalg.charpoly.max_dim"] == 52
    with open(HERE.parent / "BENCHMARK.json") as handle:
        declared = [m["name"] for m in json.load(handle)["per_layer"]]
    assert declared == list(first["metrics"])
