"""The four benchmark workloads.

A workload has a set-up (step laws loaded, one pipeline built), a round of
queries that is timed, and checks on what the rounds returned.  Queries
the CLI can answer go through ``quadwalk.cli.main`` in-process with
``--format json``, so every call rebuilds its pipeline as it does for a
user.  The seed orders the queries of a round and draws the Monte Carlo
seeds; it never changes how much work a round does.

Two scales exist: ``full``, which the benchmark measures, and ``tiny``,
which the self-tests run.  At the tiny scale n is too small for the
asymptotic limits, so those limits are checked at the full scale only;
every other check runs at both.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import checks
from quadwalk import cli
from quadwalk.dp import ExitSpec, half_plane_survival, run_dp, survival_prob
from quadwalk.pipeline import ConditionedWalkPipeline
from quadwalk.steps import load_steps

HERE = Path(__file__).resolve().parent
X0 = (1, 1)
W_TOL = 1e-10


class OpFailed(Exception):
    """A CLI query exited with a nonzero code."""


def call_cli(argv) -> list[dict]:
    """Run the CLI in-process with JSON output; return its result rows."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["--format", "json", *argv])
    if rc != 0:
        raise OpFailed(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())["result"]


class Round:
    """Outputs of one round, with its attempted and failed query counts."""

    def __init__(self):
        self.outputs: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, key, fn, *args):
        self.attempted += 1
        try:
            self.outputs[key] = fn(*args)
        except Exception as exc:  # a failed query is counted; the run goes on
            self.failures.append(f"{key}: {exc!r}")


def _ratios(rows) -> dict[str, dict[int, float]]:
    """Rows grouped by theorem id, the moving target point stripped."""
    out: dict[str, dict[int, float]] = {}
    for r in rows:
        key = r["theorem_id"].split("(y=")[0]
        out.setdefault(key, {})[int(r["n"])] = float(r["ratio"])
    return out


# -- joint-exact ----------------------------------------------------------------

@dataclass(frozen=True)
class JointScale:
    schedule: tuple[int, ...]
    limits: dict | None
    ledger_n: int
    enum_n: int
    nominal_s: float


class JointExact:
    """Exact barrier-free joint measure: llt, boundary-llt and integral."""

    name = "joint-exact"
    scales = {
        "full": JointScale((256, 512, 1024),
                           {"llt": 0.10, "boundary-llt": 0.25,
                            "integral": 0.20}, 512, 8, 15.0),
        "tiny": JointScale((16, 32, 64), None, 64, 6, 0.5),
    }

    def __init__(self, root: Path, scale: str):
        self.sc = self.scales[scale]
        self.law = str(root / "steps" / "tilted-singular.json")

    def setup(self):
        self.sd = load_steps(self.law)
        ConditionedWalkPipeline.build(self.sd)

    def round(self, rng) -> Round:
        rd = Round()
        sched = ",".join(str(n) for n in self.sc.schedule)
        theorems = ["llt", "boundary-llt", "integral"]
        rng.shuffle(theorems)
        for th in theorems:
            rd.run(th, call_cli, ["--steps", self.law, "verify", th, "--x",
                                  "1,1", "--n-schedule", sched])
        return rd

    def check(self, rounds) -> list[str]:
        errs = []
        want = set(self.sc.schedule)
        for rd in rounds:
            for th, rows in rd.outputs.items():
                ratios = _ratios(rows)
                for key, by_n in ratios.items():
                    if set(by_n) != want:
                        errs.append(f"{key}: rows at n={sorted(by_n)}")
                if self.sc.limits is not None:
                    errs += checks.convergence(ratios, self.sc.limits[th], th)
        n = self.sc.ledger_n
        m = run_dp(self.sd, X0, ExitSpec(), n, barrier=None)[n]
        errs += checks.conservation(m.alive_mass(), m.killed_mass, m.dropped_mass)
        errs += checks.at_most({n: m.survival()},
                               {n: half_plane_survival(self.sd, X0[1], n)},
                               "survival vs half-plane")
        atoms = checks.load_law(self.law)
        snaps = run_dp(self.sd, X0, ExitSpec(), self.sc.enum_n,
                       snapshots=range(1, self.sc.enum_n + 1), barrier=None)
        for k, mk in snaps.items():
            cells = {(mk.lo1 + i, mk.lo2 + j): float(mk.weights[i, j])
                     for i, j in zip(*mk.weights.nonzero())}
            errs += checks.same_local(cells, checks.enumerate_local(atoms, X0, k),
                                      f"local n={k}")
        return errs


# -- w-grid -----------------------------------------------------------------------

@dataclass(frozen=True)
class GridScale:
    side: int
    far_x1: int
    nominal_s: float


class WGrid:
    """W with brackets on a square grid, plus harmonicity residuals."""

    name = "w-grid"
    scales = {"full": GridScale(8, 100, 5.0), "tiny": GridScale(3, 100, 0.5)}

    def __init__(self, root: Path, scale: str):
        self.sc = self.scales[scale]
        self.law = str(HERE / "steps" / "wgrid.json")

    def setup(self):
        self.sd = load_steps(self.law)
        self.pipe = ConditionedWalkPipeline.build(self.sd)

    def round(self, rng) -> Round:
        rd = Round()
        pipe = ConditionedWalkPipeline.build(self.sd)
        t = pipe.spec.threshold
        side = self.sc.side
        # Columns in seeded order, heights ascending within each: the
        # pipeline regrows its renewal table whenever a query needs a
        # greater height, so this order keeps that work the same for
        # every seed.
        cols = list(range(1, side + 1))
        rng.shuffle(cols)
        grid = [(a, b) for a in cols for b in range(1, side + 1)]
        for x in grid:
            rd.run(x, pipe.w, x, W_TOL)
        for x in grid:
            for dx, dy, _ in self.sd.atoms:
                y = (x[0] + dx, x[1] + dy)
                if y[0] >= t and y[1] >= t:
                    rd.run(y, pipe.w, y, W_TOL)
        far = (self.sc.far_x1, side)
        rd.run(far, pipe.w, far, W_TOL)
        rd.outputs["grid"] = grid
        rd.outputs["far"] = far
        return rd

    def check(self, rounds) -> list[str]:
        errs = []
        pipe = self.pipe
        t = pipe.spec.threshold
        for rd in rounds:
            est = {k: v for k, v in rd.outputs.items() if isinstance(k, tuple)}
            for x, e in sorted(est.items()):
                errs += checks.bracket(e.lower, e.value, e.upper, e.warned,
                                       f"W{x}")
                errs += checks.nonincreasing([h for _, h in e.history],
                                             f"history W{x}", rel=1e-12)
                errs += checks.at_most({x: e.value}, {x: pipe.v_eff(x[1])},
                                       "W vs V_eff", rel=1e-12)
            far = rd.outputs["far"]
            if far in est:
                errs += checks.near_one(est[far].value / pipe.v_eff(far[1]),
                                        0.03, f"W{far}/V_eff")
            for x in rd.outputs["grid"]:
                ys = [((x[0] + dx, x[1] + dy), p) for dx, dy, p in self.sd.atoms
                      if x[0] + dx >= t and x[1] + dy >= t]
                if x in est and all(y in est for y, _ in ys):
                    errs += checks.harmonic_residual(
                        est[x].value, est[x].width / 2,
                        [(p, est[y].value, est[y].width / 2) for y, p in ys],
                        f"W{x}")
        return errs


# -- tail-line --------------------------------------------------------------------

@dataclass(frozen=True)
class TailScale:
    tail: tuple[int, ...]
    line: tuple[int, ...]
    counts: tuple[int, ...]
    late_n: int
    nominal_s: float


class TailLine:
    """Exit-time tail, line sums and exact integer line counts."""

    name = "tail-line"
    scales = {
        "full": TailScale((1250, 2500, 5000, 10000, 20000),
                          (512, 1024, 2048, 4096, 8192),
                          (64, 128, 192, 256), 5000, 6.5),
        "tiny": TailScale((250, 500, 1000), (128, 256, 512),
                          (8, 16, 32), 5000, 0.5),
    }
    LINE_CHECK_N = 512

    def __init__(self, root: Path, scale: str):
        self.sc = self.scales[scale]
        self.law = str(root / "steps" / "tilted-singular.json")
        self.uniform = str(root / "steps" / "singular.json")

    def setup(self):
        self.sd = load_steps(self.law)
        load_steps(self.uniform)
        ConditionedWalkPipeline.build(self.sd)

    def round(self, rng) -> Round:
        rd = Round()
        ops = [("tail", ["--steps", self.law, "verify", "tail", "--x", "1,1",
                         "--n-schedule", ",".join(map(str, self.sc.tail))]),
               ("line", ["--steps", self.law, "verify", "line", "--x", "1,1",
                         "--n-schedule", ",".join(map(str, self.sc.line))])]
        ops += [(("count", n), ["--steps", self.uniform, "dp", "line", "--x",
                                "1,1", "--n", str(n)])
                for n in self.sc.counts]
        rng.shuffle(ops)
        for key, argv in ops:
            rd.run(key, call_cli, argv)
        return rd

    def check(self, rounds) -> list[str]:
        errs = []
        sc = self.sc
        exact_n = max(self.LINE_CHECK_N, *sc.counts)
        exact = run_dp(self.sd, X0, ExitSpec(), exact_n,
                       snapshots={self.LINE_CHECK_N, *sc.counts}, barrier=None)
        half = {n: half_plane_survival(self.sd, X0[1], n) for n in sc.tail}
        modular = checks.line_counts_mod(
            [(dx, dy) for dx, dy, _ in checks.load_law(self.uniform)], X0,
            sc.counts)
        for rd in rounds:
            out = rd.outputs
            for key in ("tail", "line"):
                rows = out.get(key, [])
                errs += [f"{key} n={r['n']}: dp_error_bound "
                         f"{r['dp_error_bound']!r} above 1e-10"
                         for r in rows if not r["dp_error_bound"] <= 1e-10]
            if "tail" in out:
                rows = sorted(out["tail"], key=lambda r: r["n"])
                errs += checks.monotone_to_one(
                    {r["n"]: r["ratio"] for r in rows}, "tail",
                    late_n=sc.late_n, late_limit=0.15)
                surv = {r["n"]: r["measured"] for r in rows}
                errs += checks.nonincreasing([surv[n] for n in sorted(surv)],
                                             "tail survival")
                errs += checks.at_most(surv, half, "survival vs half-plane")
            if "line" in out:
                rows = sorted(out["line"], key=lambda r: r["n"])
                errs += checks.monotone_to_one(
                    {r["n"]: r["ratio"] for r in rows}, "line")
                for r in rows:
                    if r["n"] == self.LINE_CHECK_N:
                        errs += checks.within(
                            r["measured"],
                            exact[self.LINE_CHECK_N].line_sum(1),
                            r["dp_error_bound"], "barrier vs exact line sum")
            for n in sc.counts:
                if ("count", n) in out:
                    count = int(out[("count", n)][0]["count"])
                    errs += checks.count_mod(count, n, modular[n])
                    errs += checks.line_count(count, n, X0[1],
                                              exact[n].line_sum(1))
        return errs


# -- mc-survival ----------------------------------------------------------------

@dataclass(frozen=True)
class McScale:
    runs: tuple[tuple[int, int, int], ...]  # (n, reps, threads)
    nominal_s: float


class McSurvival:
    """Monte Carlo survival against the DP, one and two workers."""

    name = "mc-survival"
    scales = {
        "full": McScale(((100, 1_000_000, 1), (1000, 100_000, 1),
                         (100, 1_000_000, 2)), 9.0),
        "tiny": McScale(((100, 20_000, 1), (1000, 5_000, 1),
                         (100, 20_000, 2)), 0.5),
    }
    COVER = 3.0  # DP within this many 95% half-widths of the MC mean

    def __init__(self, root: Path, scale: str):
        self.sc = self.scales[scale]
        self.law = str(root / "steps" / "tilted-singular.json")

    def setup(self):
        self.sd = load_steps(self.law)

    def round(self, rng) -> Round:
        rd = Round()
        seed = rng.randrange(1, 2 ** 31)
        runs = list(self.sc.runs)
        rng.shuffle(runs)
        for n, reps, threads in runs:
            rd.run((n, reps, threads), call_cli,
                   ["--steps", self.law, "mc", "survive", "--x", "1,1",
                    "--n", str(n), "--reps", str(reps), "--seed", str(seed),
                    "--threads", str(threads)])
        return rd

    def check(self, rounds) -> list[str]:
        errs = []
        truth = {n: survival_prob(self.sd, X0, n, ExitSpec())[0]
                 for n, _, _ in self.sc.runs}
        for rd in rounds:
            out = rd.outputs
            for (n, reps, threads), rows in out.items():
                r = rows[0]
                errs += checks.mc_covers(truth[n], r["mean"], r["half_width_95"],
                                         self.COVER, f"mc n={n} reps={reps}")
                one = out.get((n, reps, 1))
                if threads != 1 and one is not None:
                    errs += checks.identical(rows, one,
                                             f"mc n={n} threads={threads}")
        return errs


WORKLOADS = {w.name: w for w in (JointExact, WGrid, TailLine, McSurvival)}
