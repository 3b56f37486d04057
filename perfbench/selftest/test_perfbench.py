"""Self-tests of the benchmark: its checks reject wrong outputs, and every
workload runs end to end at the tiny scale.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest
"""

import copy
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(cls):
    wl = cls(ROOT, "tiny")
    wl.setup()
    return wl, [wl.round(random.Random(5))]


# -- each check rejects a deliberately wrong input ----------------------------

LLT = {"llt": {256: 1.1202, 512: 1.1103, 1024: 1.0792}}


def test_convergence_accepts_measured_ratios():
    assert checks.convergence(LLT, 0.10, "llt") == []


@pytest.mark.parametrize("moved", [1.11, 1.13, 0.85])
def test_convergence_rejects_ratio_moved_from_one(moved):
    bad = {"llt": {**LLT["llt"], 1024: moved}}
    assert checks.convergence(bad, 0.10, "llt")


def test_tail_ratio_moved_from_one_rejected():
    good = {1250: 1.000345, 2500: 1.000173, 5000: 1.000086, 10000: 1.000043}
    assert checks.monotone_to_one(good, "tail", 5000, 0.15) == []
    assert checks.monotone_to_one({**good, 5000: 1.0002}, "tail",
                                  5000, 0.15)
    assert checks.monotone_to_one({1250: 1.4, 2500: 1.3, 5000: 1.2},
                                  "tail", 5000, 0.15)


def test_joint_exact_rejects_ratio_moved_from_one():
    wl = workloads.JointExact(ROOT, "full")
    wl.setup()
    rd = workloads.Round()
    rd.outputs["llt"] = [{"theorem_id": f"llt(y={n}:1)", "n": n, "ratio": r}
                         for n, r in LLT["llt"].items()]
    assert wl.check([rd]) == []
    rd.outputs["llt"][-1]["ratio"] = 1.2
    assert any("llt" in e for e in wl.check([rd]))


def test_enumeration_rejects_changed_probability():
    atoms = checks.load_law(ROOT / "steps" / "tilted-singular.json")
    ref = checks.enumerate_local(atoms, (1, 1), 4)
    assert checks.same_local(dict(ref), ref, "n=4") == []
    bad = dict(ref)
    y = next(iter(bad))
    bad[y] *= 1.0 + 1e-9
    assert checks.same_local(bad, ref, "n=4")
    assert checks.same_local({**ref, (99, 99): 1e-20}, ref, "n=4")


def test_conservation_rejects_lost_mass():
    assert checks.conservation(0.25, 0.75, 0.0) == []
    assert checks.conservation(0.25, 0.75 - 1e-11, 0.0)


def test_tail_line_rejects_count_changed_by_one():
    wl, rounds = _tiny(workloads.TailLine)
    assert wl.check(rounds) == []
    for n in wl.sc.counts:
        for delta in (1, -1):
            bad = copy.deepcopy(rounds)
            row = bad[0].outputs[("count", n)][0]
            row["count"] = str(int(row["count"]) + delta)
            assert any(f"n={n}" in e for e in wl.check(bad))


def test_tail_line_rejects_line_sum_off_the_exact_run():
    wl, rounds = _tiny(workloads.TailLine)
    bad = copy.deepcopy(rounds)
    for r in bad[0].outputs["line"]:
        if r["n"] == wl.LINE_CHECK_N:
            r["measured"] += 10 * r["dp_error_bound"] + 1e-18
    assert any("barrier vs exact" in e for e in wl.check(bad))


def test_w_grid_rejects_value_moved_by_bracket_width():
    wl, rounds = _tiny(workloads.WGrid)
    assert wl.check(rounds) == []
    for x in rounds[0].outputs["grid"]:
        bad = copy.deepcopy(rounds)
        e = bad[0].outputs[x]
        bad[0].outputs[x] = type(e)(value=e.value + e.width, upper=e.upper,
                                    lower=e.lower, n_used=e.n_used,
                                    warned=e.warned, history=e.history)
        assert any(f"W{x}" in msg for msg in wl.check(bad))


def test_harmonic_residual_rejects_value_moved_beyond_brackets():
    nbrs = [(0.5, 2.0, 1e-11), (0.5, 4.0, 1e-11)]
    assert checks.harmonic_residual(3.0, 1e-11, nbrs, "x") == []
    assert checks.harmonic_residual(3.0 + 3e-11, 1e-11, nbrs, "x")


def test_w_history_increase_rejected():
    assert checks.nonincreasing([3.0, 2.5, 2.5, 2.4], "h", rel=1e-12) == []
    assert checks.nonincreasing([3.0, 2.5, 2.6, 2.4], "h", rel=1e-12)


def test_mc_rejects_mean_moved_outside_interval():
    wl, rounds = _tiny(workloads.McSurvival)
    assert wl.check(rounds) == []
    bad = copy.deepcopy(rounds)
    for rows in bad[0].outputs.values():
        rows[0]["mean"] += (wl.COVER + 0.5) * rows[0]["half_width_95"] + 0.05
    assert len(wl.check(bad)) >= len(wl.sc.runs)


def test_mc_rejects_worker_count_changing_result():
    wl, rounds = _tiny(workloads.McSurvival)
    bad = copy.deepcopy(rounds)
    key = next(k for k in bad[0].outputs if k[2] != 1)
    row = bad[0].outputs[key][0]
    row["mean"] = math.nextafter(row["mean"], 1.0)
    assert any("threads" in e for e in wl.check(bad))


# -- tracing ------------------------------------------------------------------------

def test_tracer_restores_every_function():
    import quadwalk.dp as dp
    import quadwalk.harmonic as harmonic
    before = (dp.step_measure, harmonic.step_measure)
    with tracing.Tracer() as tr:
        assert harmonic.step_measure is dp.step_measure
        assert dp.step_measure is not before[0]
        dp.run_dp(workloads.load_steps(ROOT / "steps" / "singular.json"),
                  (1, 1), dp.ExitSpec(), 3)
    assert (dp.step_measure, harmonic.step_measure) == before
    names = [s[0] for s in tr.spans]
    assert names.count("dp.step_measure") == 3
    assert all(tr.spans[i][3] == names.index("dp.run_dp")
               for i, n in enumerate(names) if n == "dp.step_measure")


def test_self_times_partition_the_root():
    spans = [["cli.main", 0.0, 10.0, None], ["dp.run_dp", 1.0, 9.0, 0],
             ["dp.step_measure", 2.0, 5.0, 1]]
    assert tracing.self_times(spans) == [2.0, 5.0, 3.0]
    m = tracing.layer_metrics(spans, {})
    assert m["cli.main.self_s"][0] == 2.0
    assert m["dp.self_s"][0] == 8.0


# -- the benchmark end to end at the tiny scale --------------------------------

def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "w-grid", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
