"""CLI: thin-adapter byte identity, formats, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadwalk import ladders, pipeline, singular_steps, solve_drift, validate_steps
from quadwalk.asymptotics import predict_tail
from quadwalk.cli import main
from quadwalk.dp import ExitSpec, count_paths, local_prob, survival_prob
from quadwalk.errors import DegenerateSupportError
from quadwalk.ladders import CrossingSolver
from quadwalk.montecarlo import simulate_survival
from quadwalk.pipeline import ConditionedWalkPipeline
from quadwalk.steps import MAX_CELLS


@pytest.fixture(scope="module")
def steps_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("steps") / "singular.json"
    path.write_text(json.dumps({"steps": [
        {"dx": 1, "dy": -1, "w": 1}, {"dx": 1, "dy": 1, "w": 1},
        {"dx": -1, "dy": 1, "w": 1}]}))
    return str(path)


@pytest.fixture(scope="module")
def tilted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("steps") / "tilted.json"
    path.write_text(json.dumps({"steps": [
        {"dx": 1, "dy": -1, "w": 2}, {"dx": 1, "dy": 1, "w": 1},
        {"dx": -1, "dy": 1, "w": 1}]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_golden(capsys, steps_file):
    code, out, _ = run_cli(capsys, "--steps", steps_file, "dp", "count",
                           "--x", "1,1", "--y", "3,1", "--n", "2")
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize("region,count,line", [
    ("quadrant", "0", "1"), ("upper-half", "1", "2"), ("right-half", "1", "3")])
def test_counts_honour_region(capsys, steps_file, region, count, line):
    # checked against oracles.enumerate_paths on the uniform law
    code, out, _ = run_cli(capsys, "--steps", steps_file, "dp", "count",
                           "--x", "1,1", "--y", "1,1", "--n", "2",
                           "--region", region)
    assert (code, out) == (0, count + "\n")
    code, out, _ = run_cli(capsys, "--steps", steps_file, "dp", "line",
                           "--x", "1,1", "--n", "2", "--region", region)
    assert (code, out) == (0, line + "\n")


def test_tilt_solve_golden(capsys, steps_file):
    for verbose in ([], ["--verbose"]):
        code, out, err = run_cli(capsys, "--steps", steps_file, *verbose,
                                 "tilt", "solve", "--drift", "0.5,0")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "h1,h2,phi"
        tp = solve_drift(singular_steps(), (0.5, 0.0))
        assert row == f"{tp.h[0]!r},{tp.h[1]!r},{tp.phi!r}"
        assert float(row.split(",")[1]) == pytest.approx(-0.5 * math.log(2),
                                                         abs=1e-12)
        assert ("tilted atoms: ((" in err) == bool(verbose)


def test_tilt_solve_out_of_float_range_exit_4(capsys, tmp_path):
    # every step sits near x1 = 1e11: each exp(h.step) of the solved tilt
    # underflows to 0, so phi(h) does too
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"steps": [
        {"dx": 10 ** 11, "dy": 1, "w": 1}, {"dx": 10 ** 11 + 2, "dy": -1, "w": 1},
        {"dx": 10 ** 11, "dy": -1, "w": 1}]}))
    code, out, err = run_cli(capsys, "--steps", str(path), "tilt", "solve",
                             "--drift=100000000000.5,-0.2")
    assert (code, out) == (4, "")
    assert "out of float range" in err and "Traceback" not in err


def test_dp_survive_byte_identity(capsys, tilted_file):
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "dp", "survive",
                           "--x", "1,1", "--n", "50")
    assert code == 0
    sd = validate_steps([((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)])
    p, err = survival_prob(sd, (1, 1), 50, ExitSpec(), barrier="auto")
    assert out.strip().splitlines()[1] == f"50,{p!r},{err!r}"
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "dp", "local",
                           "--x", "1,1", "--y", "11,1", "--n", "20")
    assert code == 0
    p = local_prob(sd, (1, 1), (11, 1), 20, ExitSpec())
    assert out.strip().splitlines() == ["n,probability", f"20,{p!r}"]


@pytest.mark.parametrize("what", ["local", "count"])
def test_dp_needs_y_exit_3(capsys, tilted_file, what):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "dp", what,
                             "--x", "1,1", "--n", "4")
    assert (code, out) == (3, "")
    assert f"dp {what} needs --y" in err


def test_mc_byte_identity(capsys, tilted_file):
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "--seed", "77",
                           "mc", "survive", "--x", "1,1", "--n", "10",
                           "--reps", "10000")
    assert code == 0
    sd = validate_steps([((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)])
    est = simulate_survival(sd, (1, 1), 10, 10000, seed=77)
    assert out.strip().splitlines()[1] == (
        f"{est.mean!r},{est.half_width_95!r},10000,77")


def test_mc_seed_after_subcommand(capsys, tilted_file):
    # the seed is also accepted in trailing position
    code_a, out_a, _ = run_cli(capsys, "--steps", tilted_file, "mc",
                               "survive", "--x", "1,1", "--n", "10",
                               "--reps", "10000", "--seed", "77")
    code_b, out_b, _ = run_cli(capsys, "--steps", tilted_file, "--seed", "77",
                               "mc", "survive", "--x", "1,1", "--n", "10",
                               "--reps", "10000")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_mc_untracked_axis_start_and_the_packed_bound(capsys, tilted_file):
    # x2 starts too high to reach its threshold in 5 steps, so its 3e9 never
    # enters the packed 32-bit state
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "mc", "survive",
                           "--x", "1,3000000000", "--n", "5", "--reps", "100")
    assert code == 0
    assert out.splitlines()[1] == "0.73,0.0870160536912586,100,12345"
    # the tilted law moves at most 1 up and 1 down per axis: n * 2 >= 2^31
    code, out, err = run_cli(capsys, "--steps", tilted_file, "mc", "survive",
                             "--x", "1,1", "--n", str(2 ** 30), "--reps", "100")
    assert (code, out) == (3, "")
    assert "2^31" in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_mc_seed_outside_one_word_exits_3(capsys, tilted_file, seed):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "mc", "survive",
                             "--x", "1,1", "--n", "5", "--reps", "100",
                             "--seed", seed)
    assert (code, out) == (3, "")
    assert "seed must be in [0, 2^64)" in err


def test_harmonic_w_byte_identity(capsys, tilted_file):
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "harmonic-w",
                           "--x", "2,3")
    assert code == 0
    sd = validate_steps([((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)])
    est = ConditionedWalkPipeline.build(sd).w((2, 3))
    row = out.strip().splitlines()[1]
    assert row == f"2,3,{est.lower!r},{est.value!r},{est.upper!r},{est.n_used}"


def test_renewal_csv(capsys, tilted_file):
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "renewal",
                           "--kind", "V", "--max-u", "3")
    assert code == 0
    from quadwalk.ladders import descending_ladder, renewal_V
    sd = validate_steps([((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)])
    table = renewal_V(descending_ladder(sd), 3)
    expected = ["u,value"] + [f"{u},{float(table.values[u])!r}" for u in range(4)]
    lines = out.strip().splitlines()
    assert lines == expected
    assert [float(l.split(",")[1]) for l in lines[1:]] == pytest.approx(
        [2.0, 4.0, 6.0, 8.0], rel=1e-12)


def test_ladders_output(capsys, tilted_file):
    for direction in ("down", "up"):
        code, out, err = run_cli(capsys, "--steps", tilted_file, "ladders",
                                 "--dir", direction)
        assert code == 0
        assert out.splitlines()[0] == "value,prob"
        assert "mean=" in err
    assert out.splitlines()[1:] == ["1,1.0"]  # the up-steps are +1 only


def test_json_format_has_schema_version(capsys, tilted_file):
    for what, key, value in (("moments", "mu1", 0.5), ("lattice", "d1", 2)):
        code, out, _ = run_cli(capsys, "--steps", tilted_file, "--format",
                               "json", "model", what)
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == "1"
        assert obj["result"][0][key] == value


def test_verify_csv_header(capsys, tilted_file):
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "verify", "tail",
                           "--x", "1,1", "--n-schedule", "16,32")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theorem_id,n,measured,predicted,ratio,dp_error_bound"
    assert len(lines) == 3


@pytest.mark.parametrize("theorem, note", [
    ("line", "height 1 unreachable"), ("boundary-llt", "no lattice point at height 1")])
def test_verify_notes_unreachable_heights(capsys, tilted_file, theorem, note):
    # dy = +-1: from x2 = 1 the height 1 is reached at even n only
    code, out, err = run_cli(capsys, "--steps", tilted_file, "verify", theorem,
                             "--n-schedule", "16,17")
    assert code == 0
    assert [r.split(",")[1] for r in out.strip().splitlines()[1:]] == ["16"]
    assert err == f"note: n=17: {note}; skipped\n"


def test_verify_qbar(capsys, steps_file):
    code, out, _ = run_cli(capsys, "--steps", steps_file, "verify", "qbar")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


# Runs every command but the two quadrature oracles in a fresh process and
# prints the scipy modules loaded, then the line counts of the oracles'
# output (header plus 5 qbar and 2 kernel rows), which load scipy on use.
SCIPY_GUARD = """
import contextlib, io, sys
from quadwalk.asymptotics import predict_tail
from quadwalk.cli import main

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["--steps", sys.argv[1], *argv]) == 0, argv
    return buf.getvalue()

for theorem in ("llt", "boundary-llt", "integral", "tail", "line"):
    run("verify", theorem, "--n-schedule", "32,64")
run("harmonic-w", "--x", "2,2")
run("dp", "survive", "--x", "1,1", "--n", "40")
run("dp", "line", "--x", "1,1", "--n", "12")
run("mc", "survive", "--x", "1,1", "--n", "20", "--reps", "1000")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print([len(run("verify", t).splitlines()) for t in ("qbar", "kernel")])
"""


def test_scipy_stays_off_the_import_path(tilted_file):
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", SCIPY_GUARD, tilted_file],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["[]", "[6, 3]"]


def test_missing_steps_file_exit_3(capsys):
    code, _, err = run_cli(capsys, "--steps", "/nonexistent/steps.json",
                           "model", "moments")
    assert code == 3
    assert "error:" in err


def test_no_steps_exit_3(capsys):
    code, _, _ = run_cli(capsys, "model", "moments")
    assert code == 3


def test_validation_error_exit_3(capsys, steps_file):
    # untilted singular walk has nonzero vertical drift: pipeline refuses
    code, _, err = run_cli(capsys, "--steps", steps_file, "harmonic-w",
                           "--x", "1,1")
    assert code == 3
    assert "drift" in err


@pytest.mark.parametrize("text, match", [
    ('{"steps": [{"dx": 1, "dy": 1, "w": NaN}]}', "weight nan"),
    ('{"steps": [{"dx": 1, "dy": 1, "w": Infinity}]}', "weight inf"),
    ('{"steps": [{"dx": 1.5, "dy": 1, "w": 1}]}', "dx 1.5"),
    ('{"steps": [{"dx": true, "dy": 1, "w": 1}]}', "dx True"),
    ('{"steps": "x"}', "list"),
    ('[{"dx": 1, "dy": 1, "w": 1}]', "list"),
    ('{"steps": [{"dx": 1, "dy": 1, "w": 1}, {"dx": 1, "w": 1}]}', "step 1: "),
    ('{"steps": [{"dx": 1, "dy": 1, "w": 1e308}, {"dx": 0, "dy": 1, "w": 1e308}]}',
     "overflows"),
])
def test_bad_step_file_exit_3(capsys, tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "--steps", str(path), "dp", "survive",
                             "--x", "1,1", "--n", "5")
    assert (code, out) == (3, "")
    assert match in err and "Traceback" not in err


def test_usage_error_exit_2(capsys, steps_file):
    code, _, _ = run_cli(capsys, "--steps", steps_file, "dp", "bogus",
                         "--x", "1,1", "--n", "1")
    assert code == 2


def test_point_of_one_coordinate_exit_2(capsys, steps_file):
    code, out, err = run_cli(capsys, "--steps", steps_file, "dp", "survive",
                             "--x", "1", "--n", "1")
    assert (code, out) == (2, "")
    assert "argument --x: expected 'a,b', got '1'" in err


@pytest.mark.parametrize("schedule", ["--n-schedule=0,16", "--n-schedule=-4,16"])
def test_verify_nonpositive_n_exit_3(capsys, tilted_file, schedule):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "verify", "tail",
                             schedule)
    assert code == 3
    assert out == ""
    assert "positive" in err


def test_verify_empty_schedule_exit_3(capsys, tilted_file):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "verify", "tail",
                             "--n-schedule=,")
    assert code == 3
    assert out == ""
    assert "empty" in err


@pytest.mark.parametrize("option", ["--max-steps=5", "--tol=1e-3",
                                    "--no-exact-tail"])
def test_ladders_takes_no_iteration_options(capsys, tilted_file, option):
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "ladders",
                           "--dir", "down", option)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("kind,max_u", [("H", "-3"), ("V", "-1")])
def test_renewal_negative_size_exit_3(capsys, tilted_file, kind, max_u):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "renewal",
                             "--kind", kind, f"--max-u={max_u}")
    assert code == 3
    assert out == ""
    assert "size" in err


@pytest.mark.parametrize("n", ["0", "5"])
def test_mc_start_outside_region_exit_3(capsys, tilted_file, n):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "mc", "survive",
                             "--x", "0,1", "--n", n, "--reps", "100")
    assert code == 3
    assert out == ""
    assert "survival region" in err


def test_mc_region_covers_dp_half_plane(capsys, tilted_file):
    # (0, 2) lies in the upper half-plane but not in the quadrant
    argv = ["--steps", tilted_file, "--format", "json"]
    where = ["--x", "0,2", "--n", "40", "--region", "upper-half"]
    code, out, _ = run_cli(capsys, *argv, "dp", "survive", *where)
    assert code == 0
    exact = json.loads(out)["result"][0]
    code, out, _ = run_cli(capsys, *argv, "--seed", "5", "mc", "survive",
                           *where, "--reps", "20000")
    assert code == 0
    est = json.loads(out)["result"][0]
    assert abs(est["mean"] - exact["probability"]) <= est["half_width_95"]
    code, _, err = run_cli(capsys, *argv, "mc", "survive", "--x", "0,2",
                           "--n", "40", "--reps", "100")
    assert code == 3
    assert "survival region" in err


def test_dp_survive_auto_is_exact_without_horizontal_drift(capsys, tmp_path):
    # 'auto' has no Chernoff rate to size a barrier by on the simple random
    # walk, so it runs the exact DP; an explicit barrier stays an input error
    path = tmp_path / "srw.json"
    path.write_text(json.dumps({"steps": [
        {"dx": dx, "dy": dy, "w": 1}
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]}))
    argv = ["--steps", str(path), "--format", "json"]
    where = ["--x", "1,1", "--n", "10"]
    code, out, _ = run_cli(capsys, *argv, "dp", "survive", *where)
    assert code == 0
    exact = json.loads(out)["result"][0]
    # oracles.enumerate_paths over all 4^10 paths
    assert (exact["probability"], exact["error_bound"]) == (0.11103057861328125, 0.0)
    code, out, _ = run_cli(capsys, *argv, "--seed", "3", "mc", "survive",
                           *where, "--reps", "100000")
    assert code == 0
    est = json.loads(out)["result"][0]
    assert abs(est["mean"] - exact["probability"]) <= est["half_width_95"]
    code, _, err = run_cli(capsys, *argv, "--barrier", "5", "dp", "survive",
                           *where)
    assert code == 3
    assert "positive horizontal drift" in err


def test_dp_survive_refuses_a_barrier_without_a_horizontal_kill(capsys, tilted_file):
    # the upper half-plane never kills x1, so 'auto' runs exact and an
    # explicit barrier is an input error
    argv = ["--steps", tilted_file, "dp", "survive", "--x", "1,1", "--n", "20",
            "--region", "upper-half"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1].endswith(",0.0")
    code, out, err = run_cli(capsys, "--barrier", "5", *argv)
    assert (code, out) == (3, "")
    assert "horizontal kill" in err


@pytest.mark.parametrize("conv, where", [
    ("nonpositive", ("line", "--y2", "0")),
    ("nonpositive", ("line", "--y2", "-3")),
    ("nonpositive", ("boundary-llt", "--y2", "0")),
    ("nonpositive", ("llt", "--y", "32,0")),
    ("nonpositive", ("llt-half", "--y", "32,0")),
    ("negative", ("line", "--y2", "-1")),
    ("negative", ("boundary-llt", "--y2", "-1")),
    ("negative", ("llt", "--y", "32,-2")),
    ("negative", ("llt", "--y=-1,1")),
])
def test_verify_refuses_points_outside_the_region(capsys, tilted_file, conv, where):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "--convention", conv,
                             "verify", *where, "--n-schedule", "64")
    assert (code, out) == (3, "")
    assert "outside the survival region" in err


@pytest.mark.parametrize("conv, where", [
    ("negative", ("line", "--y2", "0")),
    ("negative", ("boundary-llt", "--y2", "0")),
    ("negative", ("llt", "--y", "32,0")),
    ("nonpositive", ("llt-half", "--y", "0,40")),
])
def test_verify_reads_points_on_the_region_edge(capsys, tilted_file, conv, where):
    # height 0 survives the negative convention; the half-plane kills no x1
    code, out, _ = run_cli(capsys, "--steps", tilted_file, "--convention", conv,
                           "verify", *where, "--n-schedule", "65")
    assert code == 0
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("steps, argv, msg", [
    # vertical values {-2, 0, 2}: the ladder solver refuses a law on 2Z
    ([(1, 2), (1, -2), (-1, 0)], ("ladders", "--dir", "down"), "2Z"),
    ([(1, 2), (1, -2), (-1, 0)], ("harmonic-w", "--x", "1,1"), "2Z"),
    # support on one line, with two values on each axis
    ([(1, -1), (3, 1)], ("harmonic-w", "--x", "1,1"), "one line"),
])
def test_lattice_refusals_exit_3(capsys, tmp_path, steps, argv, msg):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"steps": [
        {"dx": dx, "dy": dy, "w": 1} for dx, dy in steps]}))
    code, out, err = run_cli(capsys, "--steps", str(path), *argv)
    assert (code, out) == (3, "")
    assert msg in err


def test_build_refuses_support_on_one_line():
    # zero vertical drift and positive horizontal drift, but rank 1: this
    # used to reach GaussParams and fail there with a plain InputError
    with pytest.raises(DegenerateSupportError, match="one line"):
        ConditionedWalkPipeline.build(validate_steps([((1, -1), 1), ((3, 1), 1)]))


def test_threads_env_not_an_integer_exit_2(capsys, monkeypatch, tilted_file):
    monkeypatch.setenv("QUADWALK_THREADS", "abc")
    code, _, err = run_cli(capsys, "--steps", tilted_file, "mc", "survive",
                           "--x", "1,1", "--n", "5", "--reps", "100")
    assert code == 2
    assert "worker count" in err


def test_threads_zero_exit_2(capsys, tilted_file):
    code, _, err = run_cli(capsys, "--steps", tilted_file, "--threads", "0",
                           "mc", "survive", "--x", "1,1", "--n", "5",
                           "--reps", "100")
    assert code == 2
    assert "worker count" in err


def test_threads_negative_exit_2(capsys, tilted_file):
    code, _, err = run_cli(capsys, "--steps", tilted_file, "mc", "survive",
                           "--x", "1,1", "--n", "5", "--reps", "100",
                           "--threads", "-2")
    assert code == 2
    assert "worker count" in err


def test_numeric_failure_exit_4_with_partial(capsys, monkeypatch, tilted_file):
    # doubling the completed law puts the ladder mass above 1
    real = CrossingSolver.overshoot_matrix
    monkeypatch.setattr(CrossingSolver, "overshoot_matrix",
                        lambda self, h: 2.0 * real(self, h))
    code, out, err = run_cli(capsys, "--steps", tilted_file, "ladders",
                             "--dir", "down")
    assert code == 4
    assert "numeric failure" in err
    obj = json.loads(out)
    assert "partial" in obj


def test_convention_error_exit_3(capsys, monkeypatch, tilted_file):
    # with every residual 0 both kill rules pass, which is a ConventionError
    monkeypatch.setattr(ladders, "harmonicity_residual", lambda *a: 0.0)
    code, out, err = run_cli(capsys, "--steps", tilted_file, "harmonic-w",
                             "--x", "1,1")
    assert (code, out) == (3, "")
    assert err.startswith("error: expected exactly one passing convention")


def test_tilt_solve_target_on_hull_edge_exit_3(capsys, tmp_path):
    # (0.5, 0) is the midpoint of the hull edge (0,-1)-(1,1): no tilt reaches it
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"steps": [
        {"dx": 1, "dy": -1, "w": 1}, {"dx": 0, "dy": -1, "w": 1},
        {"dx": 1, "dy": 1, "w": 1}]}))
    code, out, err = run_cli(capsys, "--steps", str(path), "tilt", "solve",
                             "--drift", "0.5,0")
    assert (code, out) == (3, "")
    assert "(0.5, 0.0)" in err and "nearest edge (1, 1)-(0, -1)" in err


def test_harmonic_w_unmet_tol_exit_4_with_partial(capsys, monkeypatch, tilted_file):
    # a short horizon keeps the run cheap; no tol below the rounding term is met
    monkeypatch.setattr(pipeline, "N_MAX", 64)
    code, out, err = run_cli(capsys, "--steps", tilted_file, "harmonic-w",
                             "--x", "1,1", "--tol", "1e-14")
    assert code == 4
    assert "numeric failure: bracket width" in err
    row = json.loads(out)["partial"]
    est = ConditionedWalkPipeline.build(validate_steps(
        [((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)])).w((1, 1), tol=1e-14)
    assert est.warned and row == {"x1": 1, "x2": 1, "lower": est.lower,
                                  "value": est.value, "upper": est.upper,
                                  "n_used": 64}


def test_verify_notes_an_unmet_w_tol(capsys, monkeypatch, tilted_file):
    # the short horizon leaves W's bracket wider than W_TOL: verify still
    # prints its ratios from that W and exits 0, and says so on stderr
    monkeypatch.setattr(pipeline, "N_MAX", 64)
    code, out, err = run_cli(capsys, "--steps", tilted_file, "verify", "tail",
                             "--x", "1,1", "--n-schedule", "8,16")
    pipe = ConditionedWalkPipeline.build(validate_steps(
        [((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)]))
    est = pipe.w((1, 1))
    assert code == 0 and est.warned
    assert err == (f"note: W at x=(1, 1): bracket width {est.width!r} "
                   f"above tol {pipeline.W_TOL!r}\n")
    predicted = [r.split(",")[3] for r in out.strip().splitlines()[1:]]
    assert predicted == [repr(predict_tail(n, pipe.consts.kappa, est.value))
                         for n in (8, 16)]


@pytest.mark.parametrize("steps, argv", [
    # a step of 1e11 columns: the 2-D box would span 1e11 cells
    ([(10 ** 11, 1, 1), (1, -1, 1), (-1, 1, 1)], ("dp", "survive", "--x", "1,1", "--n", "5")),
    ([(10 ** 11, 1, 1), (1, -1, 1), (-1, 1, 1)], ("dp", "line", "--x", "1,1", "--n", "5")),
    ([(10 ** 11, 1, 1), (1, -1, 1), (-1, 1, 1)],
     ("dp", "count", "--x", "1,1", "--y", "2,2", "--n", "5")),
    # driftless vertical steps 1e11 and -1: 1e11 + 2 polynomial coefficients
    ([(1, 10 ** 11, 1), (1, -1, 10 ** 11), (-1, 0, 1)], ("ladders", "--dir", "down")),
    ([(1, 10 ** 11, 1), (1, -1, 10 ** 11), (-1, 0, 1)], ("renewal", "--kind", "V")),
])
def test_size_cap_exit_3(capsys, tmp_path, steps, argv):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"steps": [
        {"dx": dx, "dy": dy, "w": w} for dx, dy, w in steps]}))
    code, out, err = run_cli(capsys, "--steps", str(path), *argv)
    assert (code, out) == (3, "")
    assert f"above the cap of {MAX_CELLS}" in err


def test_tilt_solve_unreached_target_exit_4(capsys, tmp_path):
    # 1e-12 inside the midpoint of the hull edge (-1,0)-(2,-2): Newton stalls
    # at a residual of 2.8e-13, above its 1e-13
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"steps": [
        {"dx": dx, "dy": dy, "w": w}
        for dx, dy, w in ((-1, 0, 4), (2, -2, 4), (1, -1, 3), (2, 2, 4))]}))
    code, out, err = run_cli(capsys, "--steps", str(path), "tilt", "solve",
                             "--drift", "0.5000000000000006,-0.999999999999999")
    assert (code, out) == (4, "")
    assert "numeric failure: target drift" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_harmonic_w_nonpositive_tol_exit_3(capsys, tilted_file, tol):
    code, out, err = run_cli(capsys, "--steps", tilted_file, "harmonic-w",
                             "--x", "1,1", "--tol", tol)
    assert (code, out) == (3, "")
    assert "--tol must be positive" in err


# -- fuzz: every subcommand on valid and malformed input ----------------------

TILTED = [{"dx": 1, "dy": -1, "w": 2}, {"dx": 1, "dy": 1, "w": 1},
          {"dx": -1, "dy": 1, "w": 1}]
WGRID = [{"dx": 2, "dy": -2, "w": 1}, {"dx": 1, "dy": 1, "w": 1},
         {"dx": -1, "dy": 1, "w": 1}, {"dx": 1, "dy": 0, "w": 1}]
INCREMENTS = st.one_of(st.integers(-2, 2), st.sampled_from([10 ** 11, -10 ** 11]))
RANDOM_LAWS = st.lists(st.fixed_dictionaries(
    {"dx": INCREMENTS, "dy": INCREMENTS, "w": st.integers(1, 4)}),
    min_size=1, max_size=5)
# the law as it is, or broken in one place
AS_IS = st.just(lambda steps: {"steps": steps})
FAULTS = [
    lambda steps: steps,
    lambda steps: "steps",
    lambda steps: {"steps": [{"dx": 1, "dy": 1}] + steps},
    *(lambda steps, w=w: {"steps": [dict(steps[0], w=w)] + steps[1:]}
      for w in (math.nan, math.inf, True, "1")),
    *(lambda steps, d=d: {"steps": [dict(steps[0], dy=d)] + steps[1:]}
      for d in (1.5, 1e11)),
]
# columns that hold a probability or a bound, finite on success
FINITE = {"probability", "error_bound", "dp_error_bound", "measured", "prob",
          "mean", "half_width_95", "lower", "upper"}


def _point(lo=-1, hi=4):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(
        lambda p: f"--x={p[0]},{p[1]}")


def _n():
    return st.integers(-2, 64).map(lambda n: f"--n={n}")


COMMANDS = st.one_of(
    st.tuples(st.just("model"), st.sampled_from(["moments", "lattice"])),
    st.tuples(st.just("tilt"), st.just("solve"),
              st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)).map(
                  lambda d: f"--drift={d[0]!r},{d[1]!r}")),
    st.tuples(st.just("ladders"), st.just("--dir"), st.sampled_from(["down", "up"])),
    st.tuples(st.just("renewal"), st.just("--kind"), st.sampled_from(["V", "H"]),
              st.integers(-2, 64).map(lambda u: f"--max-u={u}")),
    st.tuples(st.just("harmonic-w"), _point(),
              st.sampled_from(["1e-3", "1e-6", "0", "-1", "nan"]).map(
                  lambda t: f"--tol={t}")),
    st.tuples(st.just("dp"), st.sampled_from(["survive", "local", "count", "line"]),
              _point(), _n(), st.sampled_from([[], ["--y=3,1"], ["--y=2,-1"]]),
              st.sampled_from(["quadrant", "upper-half", "right-half"]).map(
                  lambda r: f"--region={r}")),
    st.tuples(st.just("mc"), st.just("survive"), _point(), _n(),
              st.integers(0, 1000).map(lambda r: f"--reps={r}")),
    st.tuples(st.just("verify"),
              st.sampled_from(["tail", "integral", "llt", "llt-half",
                               "boundary-llt", "line", "qbar", "kernel"]),
              _point(1, 3),
              st.lists(st.integers(-2, 64), max_size=3).map(
                  lambda ns: "--n-schedule=" + ",".join(map(str, ns)))),
)


def _flat(parts):
    return [a for p in parts for a in (p if isinstance(p, list) else [p])]


def _rows(out, fmt):
    if fmt == "json":
        return json.loads(out)["result"]
    lines = out.splitlines()
    if len(lines) < 2:  # a bare count
        return []
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


@given(st.one_of(st.sampled_from([TILTED, WGRID]), RANDOM_LAWS),
       AS_IS | st.sampled_from(FAULTS), st.sampled_from(["csv", "json"]),
       st.sampled_from(["nonpositive", "negative"]),
       st.sampled_from(["auto", "0", "6"]), COMMANDS)
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, steps, fault, fmt, conv,
                                barrier, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(fault(steps)))
    argv = ["--steps", str(path), "--format", fmt, "--convention", conv,
            "--barrier", barrier, *_flat(command)]
    out, err = io.StringIO(), io.StringIO()
    # a short W horizon keeps each example cheap
    with patch.object(pipeline, "N_MAX", 64), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for row in _rows(out.getvalue(), fmt):
            for col in FINITE & row.keys():
                assert math.isfinite(float(row[col])), (argv, row)
