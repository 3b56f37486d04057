"""Harmonic function W: brackets, monotonicity, harmonicity, cross-representation."""

import random
from pathlib import Path

import numpy as np
import pytest

from quadwalk import ladders, load_steps, pipeline, validate_steps
from quadwalk.dp import ExitSpec, auto_barrier, run_dp
from quadwalk.harmonic import make_tail_bound, w_check_harmonic, w_rect
from quadwalk.pipeline import ConditionedWalkPipeline
from quadwalk.steps import solve_drift, tilt

from oracles import doob_survival

TILTED = Path(__file__).parents[1] / "steps" / "tilted-singular.json"


def pipe_steps():
    return validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])


def down_jump_steps():
    # aperiodic (d1 = d2 = 1), and a -2 jump from height 1 lands below the
    # quadrant
    return validate_steps([((2, -2), 1.0), ((1, 1), 1.0), ((-1, 1), 1.0),
                           ((1, 0), 1.0)])


@pytest.fixture(scope="module")
def pipe():
    return ConditionedWalkPipeline.build(pipe_steps())


def identity(m):
    """The weight table u -> u on heights 0..m."""
    return np.arange(m + 1.0)


def w_star(p, x, tol=1e-10):
    """W with the identity weight u in place of V, by the pass ``p.w`` runs.

    For a walk whose vertical part is the simple symmetric one this is the
    explicit harmonic function of the counting application.
    """
    L = auto_barrier(p.sd, x, pipeline.BARRIER_TARGET)
    return w_rect(p.sd, x, p.spec, identity, make_tail_bound(p.sd, 1.0), tol,
                  pipeline.N_MAX, L, x)[x]


class TestSeries:
    def test_bracket_structure(self, pipe):
        est = pipe.w((1, 1))
        assert est.lower <= est.value <= est.upper
        assert est.width <= 1e-10
        assert not est.warned

    def test_history_nonincreasing(self, pipe):
        for x in ((1, 1), (2, 3), (5, 1)):
            hist = pipe.w(x).history
            uppers = [u for _, u in hist]
            diffs = np.diff(uppers)
            assert np.all(diffs <= 1e-14)

    def test_reference_value(self, pipe):
        # converged DP constant, frozen as the module's reference
        assert pipe.w((1, 1)).value == pytest.approx(0.7525110094979, abs=5e-11)

    def test_deep_interior_ratio(self, pipe):
        est = pipe.w((100, 100))
        ratio = est.value / pipe.v_eff(100)
        assert 0.99 <= ratio <= 1.01

    def test_certain_exit_gives_zero(self):
        # every step moves left from x1=1: horizontal kill is immediate
        sd = validate_steps([((-1, 1), 1.0), ((-1, -1), 1.0)])
        spec = ExitSpec()
        tb = make_tail_bound(sd, 1.0)
        est = w_rect(sd, (1, 5), spec, identity, tb, 1e-10, 4, 2, (1, 5))[(1, 5)]
        assert est.upper == 0.0
        assert est.value == 0.0

    def test_cache_keyed_on_point_and_tol(self, monkeypatch):
        calls = []
        real = pipeline.w_rect
        monkeypatch.setattr(pipeline, "w_rect",
                            lambda *a: calls.append(a[1]) or real(*a))
        fresh = ConditionedWalkPipeline.build(pipe_steps()).w((3, 3))
        used = ConditionedWalkPipeline.build(pipe_steps())
        loose = used.w((3, 3), 1e-4)
        assert loose.n_used < fresh.n_used
        again = used.w((3, 3))
        assert again == fresh
        used.w((4, 2))  # in the rectangle of (3, 3): no further pass
        assert calls == [(3, 3), (3, 3), (3, 3)]

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_grid_read_upward_takes_few_passes(self, monkeypatch, seed):
        # one pass fills x's barrier block up to height 2 x2, so a column
        # read from the bottom up misses at heights 1, 3 and 7, and the
        # other columns come filled; each miss sizes its barrier once
        calls, barriers = [], []
        real, real_barrier = pipeline.w_rect, pipeline.auto_barrier
        monkeypatch.setattr(pipeline, "w_rect",
                            lambda *a: calls.append(a[1]) or real(*a))
        monkeypatch.setattr(pipeline, "auto_barrier",
                            lambda *a: barriers.append(a[1]) or real_barrier(*a))
        p = ConditionedWalkPipeline.build(load_steps(TILTED))
        cols = list(range(8, 0, -1))
        if seed is not None:
            random.Random(seed).shuffle(cols)
        for x1 in cols:
            for x2 in range(1, 9):
                p.w((x1, x2))
        assert len(calls) <= 8
        assert barriers == calls

    def test_pass_stops_where_every_first_step_kills(self, monkeypatch):
        # every first step from (1, 1) leaves the quadrant, so W(1, 1) = 0
        # is read at n = 1 and the pass ends there; the starts it had not
        # finished are left to their own queries
        law = validate_steps([((0, -2), 1.0), ((-1, 2), 1.0), ((-1, -2), 1.0),
                              ((-2, 0), 1.0), ((2, -1), 1.0)])
        sd, _ = tilt(law, solve_drift(law, (0.3, 0.0)).h)
        used = ConditionedWalkPipeline.build(sd)
        est = used.w((1, 1))
        assert (est.value, est.upper, est.lower, est.n_used) == (0.0, 0.0, 0.0, 1)
        assert all(e.n_used <= 1 for e in used._w_cache.values())
        monkeypatch.setattr(pipeline, "N_MAX", 64)
        for y in [(y1, y2) for y1 in range(1, 5) for y2 in range(1, 5)]:
            fresh = ConditionedWalkPipeline.build(sd).w(y)
            assert repr(used.w(y)) == repr(fresh)

    @pytest.mark.parametrize("seed", [None, 2])
    def test_grid_builds_a_short_v_table(self, monkeypatch, seed):
        # a w-grid round: the 8 x 8 grid, its neighbours and one far start;
        # each pass asks for the heights it reads, not for N_MAX steps
        sizes = []
        real = ladders.renewal_V
        monkeypatch.setattr(ladders, "renewal_V",
                            lambda ld, U: sizes.append(U) or real(ld, U))
        sd = validate_steps([((2, -2), 1), ((1, 1), 1), ((-1, 1), 1), ((1, 0), 1)])
        p = ConditionedWalkPipeline.build(sd)
        cols = list(range(1, 9))
        if seed is not None:
            random.Random(seed).shuffle(cols)
        grid = [(x1, x2) for x1 in cols for x2 in range(1, 9)]
        for x1, x2 in grid:
            p.w((x1, x2))
        for x1, x2 in grid:
            for dx, dy, _ in sd.atoms:
                if x1 + dx >= 1 and x2 + dy >= 1:
                    p.w((x1 + dx, x2 + dy))
        p.w((100, 8))
        assert max(sizes) <= 1024

    @pytest.mark.parametrize("steps", [pipe_steps, down_jump_steps])
    def test_filled_estimate_equals_first_query(self, steps):
        # (3, 2) is filled in by the pass for (1, 5), and must come out
        # exactly as when it is the first point asked for
        first = ConditionedWalkPipeline.build(steps())
        filled = ConditionedWalkPipeline.build(steps())
        filled.w((1, 5))
        assert ((3, 2), 1e-10) in filled._w_cache
        assert filled.w((3, 2)) == first.w((3, 2))

    @pytest.mark.parametrize("steps", [pipe_steps, down_jump_steps])
    def test_matches_forward_run_under_the_same_barrier(self, steps):
        # the forward DP with the same barrier, V-weighted at the end, at
        # every checkpoint of the history
        p = ConditionedWalkPipeline.build(steps())
        height = 100 + 4097 * p.sd.max_abs_dy
        for x in ((1, 1), (2, 5), (5, 2), (100, 8)):
            L = auto_barrier(p.sd, x, 1e-16)
            for est, v in ((p.w(x), p.v_eff_vector(height)),
                           (w_star(p, x), np.arange(height + 1.0))):
                ns = [n for n, _ in est.history]
                assert ns == [0] + [2 ** k for k in range(len(ns) - 1)]
                ms = run_dp(p.sd, x, p.spec, ns[-1], snapshots=ns, barrier=L)
                for n, upper in est.history:
                    lo, d, col = ms[n].vertical_marginal()
                    want = col @ v[lo:lo + d * len(col):d]
                    assert upper == pytest.approx(want, rel=1e-13)

    def test_build_computes_the_weak_ladder_once(self, monkeypatch):
        calls = []
        real = ladders.descending_ladder
        monkeypatch.setattr(ladders, "descending_ladder",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        built = ConditionedWalkPipeline.build(pipe_steps())
        assert len(calls) == 1
        assert built.chi_minus is built.conv_report.ladder

    def test_v_eff_vector_matches_pointwise(self, pipe):
        vec = pipe.v_eff_vector(300)
        assert list(vec) == [pipe.v_eff(u) for u in range(301)]

    def test_positivity_on_grid(self, pipe):
        for x1 in range(1, 8):
            for x2 in range(1, 8):
                assert pipe.w((x1, x2)).lower > 0.0


class TestHarmonicity:
    def test_residual_within_bracket(self, pipe):
        spec = pipe.spec
        for x in ((5, 5), (1, 1), (2, 7), (7, 2)):
            res = w_check_harmonic(pipe.sd, pipe.w_value, x, spec)
            widths = [pipe.w(x).width]
            for dx, dy, _ in pipe.sd.atoms:
                nx = (x[0] + dx, x[1] + dy)
                if nx[0] >= 1 and nx[1] >= 1:
                    widths.append(pipe.w(nx).width)
            assert res <= 3.0 * max(widths)

    def test_zero_evaluator(self, pipe):
        assert w_check_harmonic(pipe.sd, lambda x: 0.0, (4, 4), pipe.spec) == 0.0

    def test_v_only_evaluator(self, pipe):
        # V_eff ignores the horizontal kill: harmonic away from the vertical
        # axis, visibly non-harmonic next to it
        v_eval = lambda x: pipe.v_eff(x[1])
        far = w_check_harmonic(pipe.sd, v_eval, (50, 5), pipe.spec)
        near = w_check_harmonic(pipe.sd, v_eval, (1, 5), pipe.spec)
        assert far <= 1e-12
        assert near > 0.1


class TestKillOnNegative:
    POINTS = ((0, 0), (1, 1), (2, 2), (0, 3))

    @pytest.fixture(scope="class")
    def neg(self):
        return ConditionedWalkPipeline.build(
            pipe_steps(), ladders.BoundaryConvention.KILL_ON_NEGATIVE)

    def test_translate_of_the_default_walk(self, neg, pipe):
        # killing on < 0 from x is killing on <= 0 from x + (1, 1)
        for x in self.POINTS:
            a, b = neg.w(x), pipe.w((x[0] + 1, x[1] + 1))
            assert abs(a.value - b.value) <= max(a.width, b.width)

    def test_harmonic_for_its_own_walk(self, neg):
        # the brackets are about 1e-11 wide
        for x in self.POINTS:
            assert w_check_harmonic(neg.sd, neg.w_value, x, neg.spec) <= 1e-11


class TestHatRepresentation:
    # the Doob-transformed walk V(x2) Phat(sigma_x > n) equals the upper
    # value of W at every finite n, up to the barrier's 1e-16

    def hat(self, p, x, n):
        v = p.v_eff_vector(x[1] + (n + 1) * p.sd.max_abs_dy)
        return doob_survival(p.sd.atoms, x, v, n, p.spec.threshold)

    def test_matches_series_at_finite_n(self, pipe):
        for x, n in (((1, 1), 64), ((3, 2), 32)):
            hist = dict(pipe.w(x).history)
            assert n in hist
            assert self.hat(pipe, x, n) == pytest.approx(hist[n], rel=1e-9)

    def test_matches_series_when_down_jump_passes_zero(self):
        # the Doob weight must only be read at surviving heights
        wpipe = ConditionedWalkPipeline.build(down_jump_steps())
        hist = dict(wpipe.w((1, 1)).history)
        assert 64 in hist
        assert self.hat(wpipe, (1, 1), 64) == pytest.approx(hist[64], rel=1e-9)

    def test_zero_steps_gives_v(self, pipe):
        assert self.hat(pipe, (4, 7), 0) == pytest.approx(pipe.v_eff(7), abs=1e-12)

    def test_ratio_to_v_near_one_deep(self, pipe):
        x = (60, 60)
        assert self.hat(pipe, x, 128) / pipe.v_eff(60) == pytest.approx(1.0, abs=1e-3)


class TestWStar:
    def test_value_in_unit_interval(self, pipe):
        est = w_star(pipe, (1, 1))
        assert 0.0 < est.value <= 1.0

    def test_never_left_walk_keeps_height(self):
        # no step decreases x1, so the horizontal exit never happens and the
        # linear-weight series is the constant martingale value x2
        sd = validate_steps([((1, -1), 1.0), ((1, 1), 1.0)])
        tb = make_tail_bound(sd, 1.0)
        est = w_rect(sd, (3, 5), ExitSpec(), identity, tb, 1e-10, 256, 4,
                     (3, 5))[(3, 5)]
        assert est.value == pytest.approx(5.0, abs=1e-10)
        assert est.width <= 1e-9

    def test_half_of_w_for_fair_vertical(self, pipe):
        # V_eff(u) = 2u for the fair vertical walk, so W = 2 W*
        for x in ((1, 1), (2, 5), (4, 2)):
            assert w_star(pipe, x).value == pytest.approx(
                pipe.w(x).value / 2.0, abs=1e-9)

    def test_ratio_to_height_deep(self, pipe):
        est = w_star(pipe, (80, 80))
        assert est.value / 80.0 == pytest.approx(1.0, abs=1e-3)

