"""Closed-form densities against quadrature oracles; predictor algebra; verify harness."""

import math
from pathlib import Path

import pytest
from scipy import integrate

from quadwalk import load_steps, validate_steps
from quadwalk.asymptotics import (
    AsymptoticConstants,
    GaussParams,
    bm_kernel,
    density_p,
    int_q,
    int_q_quadrature,
    predict_boundary_llt,
    predict_integral,
    predict_line,
    predict_llt,
    predict_tail,
    q_density,
    qbar,
    qbar_convolution,
    verify,
)
from quadwalk.errors import InputError
from quadwalk.ladders import BoundaryConvention
from quadwalk.pipeline import ConditionedWalkPipeline

from oracles import reflected_product_kernel

GP = GaussParams(mu1=0.5, sigma1sq=0.75, sigma2sq=1.0, rho=-0.5)
GP0 = GaussParams(mu1=0.4, sigma1sq=0.9, sigma2sq=1.3, rho=0.0)


@pytest.fixture(scope="module")
def pipe():
    sd = validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])
    return ConditionedWalkPipeline.build(sd)


class TestBmKernel:
    def test_boundary_vanishes(self):
        assert bm_kernel(1.0, (0.0, 1.0), (0.5, 0.0), (0, 0), GP) == 0.0
        assert bm_kernel(1.0, (0.0, 0.0), (0.5, 1.0), (0, 0), GP) == 0.0

    def test_nonpositive_t_rejected(self):
        with pytest.raises(InputError):
            bm_kernel(0.0, (0, 1), (0, 1), (0, 0), GP)

    def test_below_free_gaussian(self):
        for y in ((0.3, 0.8), (1.0, 2.0), (-1.5, 0.2)):
            x, t, mu = (0.1, 0.7), 0.9, (0.5, 0.0)
            k = bm_kernel(t, x, y, mu, GP)
            h1 = y[0] - x[0] - t * mu[0]
            h2 = y[1] - x[1] - t * mu[1]
            quad = (GP.sigma2sq * h1 ** 2 + GP.sigma1sq * h2 ** 2
                    - 2 * GP.rho * h1 * h2) / GP.D
            free = math.exp(-quad / (2 * t)) / (2 * math.pi * t * math.sqrt(GP.D))
            assert 0.0 <= k <= free + 1e-15

    def test_reflection_oracle_rho_zero(self):
        cases = [(0.7, (0.2, 0.5), (1.0, 1.2)), (1.5, (-1.0, 2.0), (2.0, 0.3)),
                 (0.1, (0.0, 0.05), (0.2, 0.1))]
        for t, x, y in cases:
            k = bm_kernel(t, x, y, (0.4, 0.0), GP0)
            r = reflected_product_kernel(t, x, y, (0.4, 0.0),
                                         GP0.sigma1sq, GP0.sigma2sq)
            assert k == pytest.approx(r, abs=1e-12)

    def test_chapman_kolmogorov(self, pipe):
        rows = verify("kernel", pipe)
        for r in rows:
            assert r.measured == pytest.approx(r.predicted, abs=1e-6)


class TestDensityP:
    def test_zero_on_boundary_and_below(self):
        assert density_p((0.3, 0.0), GP) == 0.0
        assert density_p((0.3, -1.0), GP) == 0.0

    def test_nonnegative(self):
        for y1 in (-3, -1, 0, 2):
            for y2 in (0.1, 1.0, 4.0):
                assert density_p((y1, y2), GP) >= 0.0

    def test_integrates_to_one(self):
        val, _ = integrate.dblquad(lambda t2, t1: density_p((t1, t2), GP),
                                   -12, 12, 0, 12, epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_small_height_kernel_ratio(self):
        # conditional density of the killed kernel at x2 = eps approaches p
        eps = 1e-4
        for y in ((0.2, 0.7), (-0.5, 1.5), (1.0, 0.4)):
            k = bm_kernel(1.0, (0.0, eps), y, (0.0, 0.0), GP)
            tail = math.sqrt(2.0 / math.pi) * eps / GP.sigma2
            assert k / tail == pytest.approx(density_p(y, GP), abs=1e-4)


class TestQbar:
    def test_origin_value(self):
        assert qbar(0.0, GP) == pytest.approx(1.0 / (8 * math.sqrt(GP.D)), abs=1e-15)

    def test_symmetry(self):
        for y1 in (0.5, 1.7, 3.0):
            assert qbar(y1, GP) == qbar(-y1, GP)

    @pytest.mark.parametrize("y1", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_convolution_oracle(self, y1):
        assert qbar(y1, GP) == pytest.approx(qbar_convolution(y1, GP), abs=1e-8)


class TestQDensity:
    CONSTS = AsymptoticConstants(kappa=0.5 * math.sqrt(2 / math.pi),
                                 kappa_prime=math.sqrt(2 / math.pi),
                                 int_q=0.5 * math.sqrt(2 / math.pi))

    def test_proportional_to_qbar_sqrt2(self):
        # q(z) = 4 kappa kappa' qbar(sqrt(2) z, 0): dual-path evaluation
        for z in (-2.0, -0.3, 0.0, 0.7, 1.9):
            direct = q_density(z, GP, self.CONSTS)
            via_qbar = (4 * self.CONSTS.kappa * self.CONSTS.kappa_prime
                        * qbar(math.sqrt(2.0) * z, GP))
            assert direct == pytest.approx(via_qbar, rel=1e-15)

    def test_ratio_constant_in_z(self):
        vals = [q_density(z, GP, self.CONSTS) / qbar(math.sqrt(2) * z, GP)
                for z in (-1.0, 0.0, 2.0)]
        assert max(vals) - min(vals) < 1e-14

    def test_int_q_closed_vs_quadrature(self):
        closed = int_q(GP, self.CONSTS.kappa, self.CONSTS.kappa_prime)
        assert closed == pytest.approx(int_q_quadrature(GP, self.CONSTS),
                                       abs=1e-10)

    def test_kappa_prime_vs_kappa_fair_reversal(self, pipe):
        # the reversed vertical walk is again the fair +-1 walk; the strict
        # ascending ladder mean is 1 while the weak descending mean is 1/2,
        # hence kappa' = 2 kappa for this walk
        assert pipe.consts.kappa_prime == pytest.approx(
            2.0 * pipe.consts.kappa, rel=1e-12)


class TestPredictorAlgebra:
    def test_tail_quarter_scaling(self):
        assert predict_tail(100, 0.3, 0.7) / predict_tail(400, 0.3, 0.7) == 2.0

    def test_homogeneity(self):
        c = 3.7
        n, y = 64, (35, 6)
        assert predict_tail(n, c * 0.4, 0.8) == pytest.approx(
            c * predict_tail(n, 0.4, 0.8), rel=1e-15)
        assert predict_llt(y, n, 4, 0.4, c * 0.8, (0.5, 0.0), GP) == pytest.approx(
            c * predict_llt(y, n, 4, 0.4, 0.8, (0.5, 0.0), GP), rel=1e-15)
        consts = AsymptoticConstants(kappa=0.4, kappa_prime=0.9, int_q=0.5)
        assert predict_boundary_llt(y, n, 4, c * 1.0, 0.8, 0.5, GP, consts)== pytest.approx(
            c * predict_boundary_llt(y, n, 4, 1.0, 0.8, 0.5, GP, consts), rel=1e-15)
        assert predict_line(n, 2, c * 1.0, 0.8, consts) == pytest.approx(
            c * predict_line(n, 2, 1.0, 0.8, consts), rel=1e-15)

    def test_llt_positive_iff_above_boundary(self):
        n = 100
        at_mode = (int(n * 0.5), 8)
        on_axis = (int(n * 0.5), 0)
        assert predict_llt(at_mode, n, 4, 0.4, 0.8, (0.5, 0.0), GP) > 0
        assert predict_llt(on_axis, n, 4, 0.4, 0.8, (0.5, 0.0), GP) == 0.0

    def test_integral_predictor_empty_window(self):
        assert predict_integral(64, (0.0, -2.0), 0.4, 0.8, GP) == 0.0


class TestVerticalVariance:
    """kappa carries 1/sigma2, so the predictors hold when sigma22 != 1."""

    @pytest.fixture(scope="class")
    def pipe15(self):
        sd = validate_steps([((2, -2), 1.0), ((1, 1), 1.0), ((-1, 1), 1.0),
                             ((1, 0), 1.0)])
        return ConditionedWalkPipeline.build(sd)

    # without the 1/sigma2 the ratios read 1/sqrt(1.5) = 0.8165 for the
    # tail and 1/1.5 for the two that carry kappa kappa'
    @pytest.mark.parametrize("theorem, want", [
        ("tail", 1.0000), ("line", 0.9997), ("boundary-llt", 0.9955)])
    def test_ratios_at_n_1024(self, pipe15, theorem, want):
        assert pipe15.moments.sigma22 == 1.5
        (row,) = verify(theorem, pipe15, n_schedule=(1024,))
        assert row.ratio == pytest.approx(want, abs=5e-4)


class TestNonProductLattice:
    """The LLT predictors carry index = det Lambda, not d1 d2.

    Both laws have d1 = d2 = 1; with the product lattice the chosen point
    could carry no mass (ratio 0) and the boundary rows read index times 1.
    """

    @pytest.mark.parametrize("law, index, llt_lo, llt_hi", [
        ("lazy-index2", 2, 0.98, 1.02),
        # its n^{-1/2} correction is still about 0.29 at n = 1024
        ("index3", 3, 1.1, 1.5)])
    def test_ratios_at_n_1024(self, monkeypatch, law, index, llt_lo, llt_hi):
        from quadwalk import dp
        sd = load_steps(Path(__file__).parents[1] / "steps" / f"{law}.json")
        pipe = ConditionedWalkPipeline.build(sd)
        assert (pipe.lattice.index, pipe.lattice.d1, pipe.lattice.d2) == (index, 1, 1)
        snaps = dp.run_dp(sd, (1, 2), pipe.spec, 1024, snapshots=(1024,),
                          barrier=None)
        monkeypatch.setattr(dp, "run_dp", lambda *a, **k: snaps)
        (llt,) = verify("llt", pipe, x=(1, 2), n_schedule=(1024,))
        (boundary,) = verify("boundary-llt", pipe, x=(1, 2), n_schedule=(1024,))
        assert llt_lo <= llt.ratio <= llt_hi
        assert boundary.ratio == pytest.approx(1.0, abs=0.02)


class TestVerifyHarness:
    def test_empty_schedule(self, pipe):
        with pytest.raises(InputError, match="empty"):
            verify("tail", pipe, n_schedule=())

    def test_unknown_theorem(self, pipe):
        with pytest.raises(InputError):
            verify("nonsense", pipe)

    def test_qbar_rows(self, pipe):
        rows = verify("qbar", pipe)
        assert len(rows) == 5
        for r in rows:
            assert r.ratio == pytest.approx(1.0, abs=1e-7)

    def test_tail_rows_have_bounds(self, pipe):
        rows = verify("tail", pipe, n_schedule=(32, 64))
        assert [r.n for r in rows] == [32, 64]
        for r in rows:
            assert r.dp_error_bound <= 1e-10
            assert 0.9 < r.ratio < 1.1

    def test_exact_joint_rows_report_pruned_mass(self, pipe):
        from quadwalk.dp import ExitSpec, Region, run_dp
        # by n = 512 the budget rule has peeled edge slabs off the
        # half-plane measure, so the exact run's bound is small but positive
        spec = ExitSpec(region=Region.UPPER_HALF_PLANE)
        m = run_dp(pipe.sd, (1, 1), spec, 512, barrier=None)[512]
        assert m.error_bound() > 0.0
        (row,) = verify("llt-half", pipe, n_schedule=(512,))
        assert row.dp_error_bound == m.error_bound()

    def test_prune_leaves_exact_joint_rows_unchanged(self, pipe, monkeypatch):
        from quadwalk import dp
        measured, bounds = {}, {}
        for budget in (dp.PRUNE_BUDGET, 0.0):
            monkeypatch.setattr(dp, "PRUNE_BUDGET", budget)
            snaps = dp.run_dp(pipe.sd, (1, 1), pipe.spec, 1024,
                              snapshots=(1024,), barrier=None)
            # one run serves the three theorems, which all ask for it
            monkeypatch.setattr(dp, "run_dp", lambda *a, **k: snaps)
            rows = [r for th in ("llt", "boundary-llt", "integral")
                    for r in verify(th, pipe, n_schedule=(1024,))]
            measured[budget] = [r.measured for r in rows]
            bounds[budget] = {r.dp_error_bound for r in rows}
            monkeypatch.undo()
        assert measured[dp.PRUNE_BUDGET] == measured[0.0]
        (pruned,) = bounds[dp.PRUNE_BUDGET]
        assert 0.0 < pruned <= 1024 * dp.PRUNE_BUDGET
        assert bounds[0.0] == {0.0}

    def test_infeasible_y_skipped_with_note(self, pipe):
        notes = []
        rows = verify("llt", pipe, n_schedule=(63, 64), y=(33, 31),
                      notes=notes)
        # y-x=(32,30) is even-even: feasible only at even n
        assert [r.n for r in rows] == [64]
        assert len(notes) == 1

    def test_line_rows(self, pipe):
        rows = verify("line", pipe, n_schedule=(64, 128))
        for r in rows:
            assert r.ratio == pytest.approx(1.0, abs=0.05)


def _w_free(row, pipe, w):
    """A row's prediction over W, and over q at its point for boundary-llt."""
    c = row.predicted / w.value
    if row.theorem_id.startswith("boundary-llt"):
        y1 = int(row.theorem_id.split("=")[1].split(":")[0])
        z1 = (y1 - row.n * pipe.moments.mu1) / math.sqrt(row.n)
        c /= q_density(z1, pipe.gauss, pipe.consts)
    return c


@pytest.mark.parametrize("theorem", ["line", "boundary-llt"])
@pytest.mark.parametrize("y2", [1, 2])
def test_negative_convention_is_the_default_one_step_up(pipe, theorem, y2):
    # the walk killed on negative values from x at height y2 is the walk
    # killed on nonpositive ones from x + (1, 1) at y2 + 1: the same mass,
    # and the same prediction up to W, so H must be read one step up too
    neg = ConditionedWalkPipeline.build(pipe.sd,
                                        BoundaryConvention.KILL_ON_NEGATIVE)
    (a,) = verify(theorem, neg, x=(1, 1), n_schedule=(256, 257), y2=y2)
    (b,) = verify(theorem, pipe, x=(2, 2), n_schedule=(256, 257), y2=y2 + 1)
    assert a.n == b.n
    assert abs(a.measured - b.measured) <= a.dp_error_bound + b.dp_error_bound
    wa, wb = neg.w((1, 1)), pipe.w((2, 2))
    assert max(wa.lower, wb.lower) <= min(wa.upper, wb.upper)
    assert _w_free(a, neg, wa) == pytest.approx(_w_free(b, pipe, wb), rel=1e-12)
