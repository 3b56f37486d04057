"""Acceptance suite: one test per criterion, printed pass lines included.

Shared heavyweight fixtures: one exact (barrier-free) quadrant run to
n=2048 with snapshots, one half-plane run to n=1024, barrier runs for the
tail (n=5000) and the line sums (n=4096).  Run with -s to see the lines.
"""

import math
import time

import pytest
from scipy import integrate

from quadwalk import singular_steps, validate_steps
from quadwalk import asymptotics as asy
from quadwalk.dp import ExitSpec, Region, count_line, count_paths, run_dp, survival_prob
from quadwalk.ladders import (
    BoundaryConvention,
    ascending_ladder,
    descending_ladder,
    renewal_H,
    renewal_V,
    resolve_convention,
)
from quadwalk.montecarlo import simulate_survival
from quadwalk.pipeline import ConditionedWalkPipeline
from quadwalk.steps import solve_drift

from oracles import direct_renewal_series, enumerate_paths, reflected_product_kernel

QUAD = ExitSpec()
X0 = (1, 1)
WINDOWS = ((-1.0, 0.0), (-0.5, 0.0), (-1.0, 0.5), (-0.5, 0.5))


def report(k, detail):
    print(f"\nACCEPTANCE {k} PASS: {detail}")


@pytest.fixture(scope="module")
def tilted():
    return validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])


@pytest.fixture(scope="module")
def pipe(tilted):
    return ConditionedWalkPipeline.build(tilted)


@pytest.fixture(scope="module")
def full_snaps(tilted):
    return run_dp(tilted, X0, QUAD, 2048, snapshots={256, 512, 1024, 2048},
                  barrier=None)


@pytest.fixture(scope="module")
def half_snaps(tilted):
    spec = ExitSpec(region=Region.UPPER_HALF_PLANE)
    return run_dp(tilted, X0, spec, 1024, snapshots={256, 1024}, barrier=None)


@pytest.fixture(scope="module")
def tail_snaps(tilted):
    return run_dp(tilted, X0, QUAD, 5000, snapshots={500, 1000, 2000, 5000},
                  barrier="auto")


@pytest.fixture(scope="module")
def line_snaps(tilted):
    return run_dp(tilted, X0, QUAD, 4096,
                  snapshots={512, 1024, 2048, 4096}, barrier="auto")


def test_criterion_01_enumeration_oracle():
    t0 = time.time()
    sd = singular_steps()
    worst = 0.0
    for n in range(1, 11):
        _, _, counts = enumerate_paths(sd.atoms, X0, n)
        # uniform law: every surviving path weighs exactly 3^-n, so the
        # oracle's float probabilities come from exact integers directly
        surv = sum(counts.values()) / 3 ** n
        m = run_dp(sd, X0, QUAD, n, barrier=None)[n]
        p, _ = survival_prob(sd, X0, n, QUAD, barrier=None)
        worst = max(worst, abs(p - surv))
        for y, cnt in counts.items():
            assert count_paths(sd, X0, y, n) == cnt
            worst = max(worst, abs(m.local(y) - cnt / 3 ** n))
        assert m.survival() == pytest.approx(surv, abs=1e-14)
        assert p == pytest.approx(surv, abs=1e-14)
    elapsed = time.time() - t0
    assert worst <= 1e-14
    assert elapsed < 60.0
    report(1, f"n<=10 enumeration exact; float deviation {worst:.2e}; "
              f"{elapsed:.1f}s")


def test_criterion_02_tilt_closed_forms():
    sd = singular_steps()
    worst_h = worst_phi = 0.0
    for mu1 in (0.3, 0.5, 0.7):
        tp = solve_drift(sd, (mu1, 0.0))
        h1_ref = 0.5 * math.log(mu1 / (1.0 - mu1))
        h2_ref = 0.5 * math.log(mu1)
        worst_h = max(worst_h, abs(tp.h[0] - h1_ref), abs(tp.h[1] - h2_ref))
        worst_phi = max(worst_phi, abs(3.0 * tp.phi - 2.0 / math.sqrt(1 - mu1)))
    assert worst_h <= 1e-12
    assert worst_phi <= 1e-12
    report(2, f"h and 3*phi closed forms: max errors {worst_h:.2e}, {worst_phi:.2e}")


def test_criterion_03_ladder_renewal(tilted):
    ld = descending_ladder(tilted)
    assert ld.truncation_error <= 1e-10
    assert ld.pmf[0] == pytest.approx(0.5, abs=1e-10)
    assert ld.pmf[1] == pytest.approx(0.5, abs=1e-10)
    V = renewal_V(ld, 500)
    assert [V(0), V(1), V(2)] == pytest.approx([2.0, 4.0, 6.0], rel=1e-10)
    oracle = direct_renewal_series({0: 0.5, 1: 0.5}, 2, kmax=200)
    assert [V(0), V(1), V(2)] == pytest.approx(oracle, abs=1e-9)
    H = renewal_H(ascending_ladder(tilted), 100)
    assert list(H.values) == pytest.approx([float(u) for u in range(101)],
                                           rel=1e-12, abs=1e-12)
    slope = V(500) / 500.0 * ld.mean
    assert slope == pytest.approx(1.0, rel=0.02)
    report(3, f"Bernoulli(1/2) ladder trunc={ld.truncation_error:.1e}; "
              f"V(0..2)=2,4,6; H linear to 100; renewal slope off by "
              f"{abs(slope - 1):.2%}")


def test_criterion_04_convention_resolution(tilted):
    rep = resolve_convention(tilted)  # raises unless exactly one
    assert rep.max_residual_selected <= 1e-9
    assert rep.max_residual_rejected > 1e-9
    assert rep.selected is BoundaryConvention.KILL_ON_NEGATIVE
    report(4, f"unique convention {rep.selected.value} "
              f"(residuals {rep.max_residual_selected:.1e} vs "
              f"{rep.max_residual_rejected:.1e}); series V pairs with "
              f"kill-on-nonpositive walks via V(u-1)")


def test_criterion_05_harmonicity_of_W(pipe):
    from quadwalk.harmonic import w_check_harmonic
    worst_ratio = 0.0
    for x1 in range(1, 21):
        for x2 in range(1, 21):
            x = (x1, x2)
            est = pipe.w(x)
            assert est.lower > 0.0  # positivity
            res = w_check_harmonic(pipe.sd, pipe.w_value, x, pipe.spec)
            widths = [est.width]
            for dx, dy, _ in pipe.sd.atoms:
                nx = (x1 + dx, x2 + dy)
                if nx[0] >= 1 and nx[1] >= 1:
                    widths.append(pipe.w(nx).width)
            bound = 3.0 * max(widths)
            assert res <= bound
            worst_ratio = max(worst_ratio, res / bound)
    ratio = pipe.w((100, 100)).value / pipe.v_eff(100)
    assert 0.97 <= ratio <= 1.03
    report(5, f"W harmonic on [1,20]^2 (worst residual at {worst_ratio:.2f} "
              f"of bound), W>0, W/V(100,100)={ratio:.6f}")


def test_criterion_06_tail(pipe, tail_snaps):
    t0 = time.time()
    W = pipe.w_value(X0)
    devs = []
    for n in (500, 1000, 2000, 5000):
        m = tail_snaps[n]
        assert m.error_bound() <= 1e-10
        ratio = m.survival() / asy.predict_tail(n, pipe.consts.kappa, W)
        devs.append(abs(ratio - 1.0))
    assert all(a > b for a, b in zip(devs, devs[1:]))  # monotone toward 1
    assert devs[-1] <= 0.15
    assert time.time() - t0 < 600.0
    report(6, "sqrt(n) P(T>n)/(kappa W) deviations "
              + ", ".join(f"{d:.2e}" for d in devs)
              + f"; bounds <= {max(tail_snaps[n].error_bound() for n in tail_snaps):.1e}")


def test_criterion_07_integral_limit(pipe, full_snaps):
    W = pipe.w_value(X0)
    mu = pipe.moments.mu
    lines = []
    for u in WINDOWS:
        r = {}
        for n in (512, 2048):
            meas = full_snaps[n].window_mass(u, mu)
            pred = asy.predict_integral(n, u, pipe.consts.kappa, W, pipe.gauss)
            r[n] = meas / pred
        assert abs(r[2048] - 1.0) <= 0.20
        assert abs(r[2048] - 1.0) < abs(r[512] - 1.0)
        lines.append(f"u={u}: {r[512]:.3f}->{r[2048]:.3f}")
    report(7, "windowed mass ratios " + "; ".join(lines))


def test_criterion_08_llt(pipe, full_snaps, half_snaps):
    mu = pipe.moments.mu
    W = pipe.w_value(X0)
    errs_q = {}
    errs_h = {}
    for n in (256, 1024):
        y = pipe.nearest_lattice_point(X0, n, (n * mu[0], math.sqrt(n)))
        meas = full_snaps[n].local(y)
        pred = asy.predict_llt(y, n, pipe.lattice.index, pipe.consts.kappa,
                               W, mu, pipe.gauss)
        errs_q[n] = abs(meas / pred - 1.0)
        meas_h = half_snaps[n].local(y)
        # the half-plane prediction is the quadrant one with V(x2) for W
        pred_h = asy.predict_llt(y, n, pipe.lattice.index, pipe.consts.kappa,
                                 pipe.v_eff(X0[1]), mu, pipe.gauss)
        errs_h[n] = abs(meas_h / pred_h - 1.0)
    assert errs_q[1024] <= 0.10 and errs_q[1024] < errs_q[256]
    assert errs_h[1024] <= 0.10 and errs_h[1024] < errs_h[256]
    report(8, f"quadrant LLT rel err {errs_q[256]:.3f}->{errs_q[1024]:.3f}; "
              f"half-plane {errs_h[256]:.3f}->{errs_h[1024]:.3f}")


def test_criterion_09_boundary_llt_and_line(pipe, full_snaps):
    mu1 = pipe.moments.mu1
    W = pipe.w_value(X0)
    H1 = pipe.H(1)
    # boundary local limit at the central feasible y1, height 1
    rb = {}
    for n in (512, 2048):
        y = pipe.nearest_lattice_point(X0, n, (n * mu1, 1), fixed_y2=True)
        pred = asy.predict_boundary_llt(y, n, pipe.lattice.index, H1, W, mu1,
                                        pipe.gauss, pipe.consts)
        rb[n] = full_snaps[n].local(y) / pred
    assert abs(rb[2048] - 1.0) <= 0.25
    assert abs(rb[2048] - 1.0) < abs(rb[512] - 1.0)
    # line sum with the d2 lattice normalization (feasible y1 spacing is h11)
    rl = {}
    for n in (512, 2048):
        pred = asy.predict_line(n, pipe.lattice.d2, H1, W, pipe.consts)
        rl[n] = full_snaps[n].line_sum(1) / pred
    assert abs(rl[2048] - 1.0) <= 0.20
    assert abs(rl[2048] - 1.0) < abs(rl[512] - 1.0)
    # an alternative index normalization overcounts by exactly h11, since the
    # feasible y1 at fixed height have spacing h11; pin the d2 choice by data
    literal = full_snaps[2048].line_sum(1) / (
        pipe.lattice.index * W * H1 * pipe.consts.int_q / 2048 ** 1.5)
    assert literal == pytest.approx(1.0 / pipe.lattice.h11, abs=0.05)
    report(9, f"boundary ratios {rb[512]:.4f}->{rb[2048]:.4f}; line ratios "
              f"{rl[512]:.4f}->{rl[2048]:.4f} (d2 normalization; literal "
              f"index gives {literal:.4f} = 1/h11)")


def test_criterion_10_closed_form_densities(pipe):
    gp = pipe.gauss
    val, _ = integrate.dblquad(lambda t2, t1: asy.density_p((t1, t2), gp),
                               -12, 12, 0, 12, epsabs=1e-10)
    assert val == pytest.approx(1.0, abs=1e-8)
    worst_qbar = max(abs(asy.qbar(y1, gp) - asy.qbar_convolution(y1, gp))
                     for y1 in (-3.0, -1.0, 0.0, 1.0, 3.0))
    assert worst_qbar <= 1e-8
    gp0 = asy.GaussParams(mu1=0.4, sigma1sq=0.9, sigma2sq=1.3, rho=0.0)
    worst_refl = 0.0
    for t, x, y in ((0.7, (0.2, 0.5), (1.0, 1.2)),
                    (1.5, (-1.0, 2.0), (2.0, 0.3))):
        k = asy.bm_kernel(t, x, y, (0.4, 0.0), gp0)
        r = reflected_product_kernel(t, x, y, (0.4, 0.0), gp0.sigma1sq,
                                     gp0.sigma2sq)
        worst_refl = max(worst_refl, abs(k - r))
    assert worst_refl <= 1e-12
    worst_ck = 0.0
    for row in asy.verify("kernel", pipe):
        worst_ck = max(worst_ck, abs(row.measured - row.predicted))
    assert worst_ck <= 1e-6
    report(10, f"int p = {val:.10f}; qbar dev {worst_qbar:.1e}; reflection "
               f"dev {worst_refl:.1e}; Chapman-Kolmogorov dev {worst_ck:.1e}")


def test_criterion_11_enumeration_asymptotics(tilted, line_snaps):
    # r_n = M_n n^{3/2} / 2^{3n/2} via the change-of-measure reconstruction
    x2 = X0[1]
    r = {n: n ** 1.5 * 2 ** ((1 - x2) / 2.0) * line_snaps[n].line_sum(1)
         for n in (512, 1024, 2048, 4096)}
    cauchy = abs(r[4096] / r[2048] - 1.0)
    assert cauchy <= 0.10
    # exact integer M_n for n <= 64 against the float reconstruction
    sing = singular_steps()
    exact_run = run_dp(tilted, X0, QUAD, 64, snapshots=set(range(2, 65, 2)),
                       barrier=None)
    worst = 0.0
    for n in range(2, 65, 2):
        M = count_line(sing, X0, n)
        recon = (2.0 * math.sqrt(2.0)) ** n * 2 ** ((1 - x2) / 2.0) \
            * exact_run[n].line_sum(1)
        if M:
            worst = max(worst, abs(recon / M - 1.0))
    assert worst <= 1e-9
    report(11, f"r_n = {r[512]:.6f}, {r[1024]:.6f}, {r[2048]:.6f}, "
               f"{r[4096]:.6f}; |r_4096/r_2048 - 1| = {cauchy:.1e}; "
               f"integer reconstruction rel dev {worst:.1e}")


def test_criterion_12_monte_carlo(tilted):
    base = simulate_survival(tilted, X0, 100, 100_000, seed=31337, workers=1)
    for workers in (2, 5):
        other = simulate_survival(tilted, X0, 100, 100_000, seed=31337,
                                  workers=workers)
        assert other == base  # bit identical
    truth, _ = survival_prob(tilted, X0, 100, QUAD)
    hits = 0
    for seed in range(200):
        est = simulate_survival(tilted, X0, 100, 100_000, seed=seed)
        if est.low <= truth <= est.high:
            hits += 1
    assert hits >= 180
    report(12, f"bit-identical across workers; CI coverage {hits}/200")
