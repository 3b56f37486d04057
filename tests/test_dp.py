"""Exact DP against brute-force path enumeration, plus barrier and counting checks."""

import math

import numpy as np
import pytest

from quadwalk import singular_steps, validate_steps
from quadwalk.dp import (
    PRUNE_BUDGET,
    ExitSpec,
    QuadrantMeasure,
    Region,
    auto_barrier,
    chernoff_gamma,
    count_line,
    count_paths,
    half_plane_survival,
    local_prob,
    run_dp,
    step_measure,
    survival_prob,
)
from quadwalk.errors import BarrierError, InputError
from quadwalk.ladders import BoundaryConvention, descending_ladder, renewal_V

from oracles import enumerate_paths

QUAD = ExitSpec()


def tilted_singular():
    return validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_quadrant_counts_and_probs(self, n):
        sd = singular_steps()
        x = (1, 1)
        surv, probs, counts = enumerate_paths(sd.atoms, x, n)
        p, err = survival_prob(sd, x, n, QUAD, barrier=None)
        assert p == pytest.approx(surv, abs=1e-14)
        assert err == 0.0
        m = run_dp(sd, x, QUAD, n, barrier=None)[n]
        for y, cnt in counts.items():
            assert count_paths(sd, x, y, n) == cnt
            assert m.local(y) == pytest.approx(probs[y], abs=1e-14)
        # endpoints outside the oracle's support carry no DP mass
        assert m.survival() == pytest.approx(surv, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_tilted_quadrant(self, n):
        sd = tilted_singular()
        surv, probs, _ = enumerate_paths(sd.atoms, (2, 1), n)
        p, _ = survival_prob(sd, (2, 1), n, QUAD, barrier=None)
        assert p == pytest.approx(surv, abs=1e-14)
        for y, pr in probs.items():
            assert local_prob(sd, (2, 1), y, n, QUAD) == pytest.approx(pr, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_half_planes_and_min_identity(self, n):
        sd = singular_steps()
        x = (1, 2)
        surv_q, _, _ = enumerate_paths(sd.atoms, x, n)
        surv_v, _, _ = enumerate_paths(sd.atoms, x, n, kill_x1=False)
        surv_h, _, _ = enumerate_paths(sd.atoms, x, n, kill_x2=False)
        assert half_plane_survival(sd, x[1], n) == pytest.approx(surv_v, abs=1e-14)
        ph, _ = survival_prob(sd, x, n,
                              ExitSpec(region=Region.RIGHT_HALF_PLANE),
                              barrier=None)
        assert ph == pytest.approx(surv_h, abs=1e-14)
        # T_x = min(tau_x, sigma_x): quadrant survival is the AND of both kills
        pq, _ = survival_prob(sd, x, n, QUAD, barrier=None)
        assert pq == pytest.approx(surv_q, abs=1e-14)
        assert pq <= min(surv_v, surv_h) + 1e-15


class TestKnownValues:
    def test_step_measure_from_corner(self):
        m = QuadrantMeasure.point_mass((1, 1), QUAD)
        m2 = step_measure(m, singular_steps())
        assert m2.alive_mass() == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert m2.local((2, 2)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_step_measure_far_from_boundary(self):
        m = QuadrantMeasure.point_mass((10, 10), QUAD)
        m2 = step_measure(m, singular_steps())
        assert m2.killed_mass == 0.0
        assert m2.alive_mass() == pytest.approx(1.0, abs=1e-15)

    def test_survival_examples(self):
        sd = tilted_singular()
        assert survival_prob(sd, (1, 1), 0, QUAD)[0] == 1.0
        assert survival_prob(sd, (1, 1), 1, QUAD)[0] == pytest.approx(0.25, abs=1e-15)
        assert survival_prob(sd, (1, 1), 2, QUAD)[0] == pytest.approx(0.25, abs=1e-15)

    def test_local_examples(self):
        sd = tilted_singular()
        assert local_prob(sd, (1, 1), (3, 1), 2, QUAD) == pytest.approx(1 / 8, abs=1e-15)
        assert local_prob(sd, (1, 1), (1, 3), 2, QUAD) == pytest.approx(1 / 16, abs=1e-15)
        assert local_prob(sd, (1, 1), (2, 1), 2, QUAD) == 0.0  # off-lattice

    def test_half_plane_survival_examples(self):
        sd = tilted_singular()
        assert half_plane_survival(sd, 1, 0) == 1.0
        assert half_plane_survival(sd, 1, 1) == pytest.approx(0.5, abs=1e-15)
        assert half_plane_survival(sd, 1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_half_plane_local_examples(self):
        sd = singular_steps()
        upper = ExitSpec(region=Region.UPPER_HALF_PLANE)
        assert local_prob(sd, (0, 1), (1, 2), 1, upper) == pytest.approx(1 / 3, abs=1e-15)
        # the two-path question: under kill-on-nonpositive the path through
        # (1,0) dies, leaving 1/9; killing on negative keeps it, giving 2/9
        assert local_prob(sd, (0, 1), (2, 1), 2, upper) == pytest.approx(1 / 9, abs=1e-15)
        assert local_prob(
            sd, (0, 1), (2, 1), 2, ExitSpec(region=Region.UPPER_HALF_PLANE,
                                            conv=BoundaryConvention.KILL_ON_NEGATIVE)
        ) == pytest.approx(2 / 9, abs=1e-15)
        # off-lattice endpoint
        assert local_prob(sd, (0, 1), (1, 1), 2, upper) == 0.0

    def test_counting_examples(self):
        sd = singular_steps()
        assert count_paths(sd, (1, 1), (2, 2), 1) == 1
        assert count_paths(sd, (1, 1), (3, 1), 2) == 1
        assert count_paths(sd, (1, 1), (1, 3), 2) == 1
        assert count_line(sd, (1, 1), 0) == 1  # empty path already on the line
        assert count_line(sd, (2, 3), 0) == 0
        assert count_line(sd, (1, 1), 1) == 0
        assert count_line(sd, (1, 1), 2) == 1

    def test_integer_conservation(self):
        sd = singular_steps()
        # counts at n multiply by 3 per step before kill
        from quadwalk.dp import _count_run
        for n in range(1, 7):
            alive = _count_run(sd, (3, 3), n)[0].sum()
            surv, _, counts = enumerate_paths(sd.atoms, (3, 3), n)
            assert alive == sum(counts.values())
            assert alive <= 3 ** n


class TestBarrier:
    def test_auto_barrier_bound(self):
        sd = tilted_singular()
        gamma = chernoff_gamma(sd)
        assert gamma == pytest.approx(math.log(3.0), abs=1e-12)
        L = auto_barrier(sd, (1, 1))
        assert math.exp(-gamma * (L + 1)) <= 1e-12

    def test_barrier_error_within_bound(self):
        sd = tilted_singular()
        exact, _ = survival_prob(sd, (1, 1), 300, QUAD, barrier=None)
        p, err = survival_prob(sd, (1, 1), 300, QUAD, barrier="auto")
        assert abs(p - exact) <= err
        assert err <= 1e-10

    def test_doubling_barrier_changes_less_than_bound(self):
        sd = tilted_singular()
        L = auto_barrier(sd, (1, 1))
        p1, err1 = survival_prob(sd, (1, 1), 300, QUAD, barrier=L)
        p2, _ = survival_prob(sd, (1, 1), 300, QUAD, barrier=2 * L)
        assert abs(p1 - p2) <= err1

    def test_point_mass_takes_the_rate_from_its_law(self):
        # the public step_measure from a barrier point mass bounds its
        # barrier error as run_dp's run does: the first step sets gamma
        sd = tilted_singular()
        m = QuadrantMeasure.point_mass((1, 1), QUAD, barrier=6)
        for _ in range(200):
            m = step_measure(m, sd)
        exact = run_dp(sd, (1, 1), QUAD, 200, barrier=None)[200]
        assert m.leaked_total > 0
        assert abs(m.survival() - exact.survival()) <= m.error_bound()
        run = run_dp(sd, (1, 1), QUAD, 200, barrier=6)[200]
        assert m.gamma.hex() == run.gamma.hex() == chernoff_gamma(sd).hex()
        assert m.error_bound().hex() == run.error_bound().hex()

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_barrier_refused_without_horizontal_drift(self, n):
        # refused before the first step, which would take the rate, so at
        # n = 0 too; 'auto' runs exact there
        sd = validate_steps([((1, 1), 1.0), ((1, -1), 1.0), ((-1, 1), 1.0),
                             ((-1, -1), 1.0)])
        with pytest.raises(InputError, match="positive horizontal drift"):
            run_dp(sd, (1, 1), QUAD, n, barrier=5)
        assert run_dp(sd, (1, 1), QUAD, n, barrier="auto")[n].barrier is None

    def test_barrier_too_small_rejected(self):
        sd = validate_steps([((3, -1), 1.0), ((-3, 1), 1.0), ((3, 1), 1.0)])
        with pytest.raises(BarrierError):
            survival_prob(sd, (4, 1), 5, QUAD, barrier=2)

    @pytest.mark.parametrize("conv", list(BoundaryConvention))
    def test_auto_is_exact_where_x1_is_never_killed(self, conv):
        # no barrier can apply when the region does not kill x1: 'auto'
        # runs the exact DP, as it does on a law without horizontal drift
        sd, spec = tilted_singular(), ExitSpec(Region.UPPER_HALF_PLANE, conv)
        a = run_dp(sd, (1, 1), spec, 200, barrier="auto")[200]
        b = run_dp(sd, (1, 1), spec, 200, barrier=None)[200]
        assert a.barrier is None and a.cells.tobytes() == b.cells.tobytes()
        assert (a.cells.shape, a.lo1, a.lo2) == (b.cells.shape, b.lo1, b.lo2)
        assert (a.survival(), a.error_bound()) == (b.survival(), b.error_bound())
        with pytest.raises(InputError, match="horizontal kill"):
            run_dp(sd, (1, 1), spec, 200, barrier=5)

    def test_vertical_marginal_matches_exact(self):
        sd = tilted_singular()
        snaps_b = run_dp(sd, (1, 1), QUAD, 128, barrier="auto")[128]
        snaps_e = run_dp(sd, (1, 1), QUAD, 128, barrier=None)[128]
        for y2 in (1, 3, 5, 11):
            assert snaps_b.line_sum(y2) == pytest.approx(
                snaps_e.line_sum(y2), abs=1e-13)

    def test_local_query_requires_exact_joint(self):
        sd = tilted_singular()
        m = run_dp(sd, (1, 1), QUAD, 100, barrier="auto")[100]
        with pytest.raises(InputError):
            m.local((50, 1))


class TestBookkeeping:
    def test_float_conservation(self):
        sd = tilted_singular()
        m = run_dp(sd, (1, 1), QUAD, 500, barrier="auto")[500]
        total = m.survival() + m.killed_mass + m.dropped_mass
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_leaked_measure_is_trimmed(self):
        # the leaked line can reach n/2 heights on its coset (stride 2); the
        # budget rule peels its far tails and puts them on the ledger
        sd = tilted_singular()
        n = 5000
        m = run_dp(sd, (1, 1), QUAD, n, barrier="auto")[n]
        assert m.leaked_total > 0
        assert m.stride[1] == 2 and len(m.leaked) < (n / 2) / 4
        assert 0.0 < m.dropped_mass <= n * PRUNE_BUDGET
        total = m.alive_mass() + m.leaked.sum() + m.killed_mass + m.dropped_mass
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_snapshot_times_outside_the_run_rejected(self):
        sd = tilted_singular()
        with pytest.raises(InputError) as info:
            run_dp(sd, (1, 1), QUAD, 100, snapshots={50, 200, -3})
        assert str(info.value) == "snapshot times [-3, 200] are outside [0, 100]"
        assert set(run_dp(sd, (1, 1), QUAD, 100, snapshots={0, 50, 100})) == {0, 50, 100}

    def test_window_masses_sum_to_survival(self):
        sd = tilted_singular()
        n = 256
        m = run_dp(sd, (1, 1), QUAD, n, barrier=None)[n]
        mu = (0.5, 0.0)
        total = 0.0
        for u1 in np.arange(-8.0, 8.0, 1.0):
            for u2 in np.arange(0.0, 8.0, 1.0):
                total += m.window_mass((u1, u2), mu)
        assert total == pytest.approx(m.survival(), abs=1e-12)

    def test_m_repr_reconstruction_small_n(self):
        # M_n(x) = (3 phi)^n e^{h2 (x2-1)} P^{(h)}(x2+S2(n)=1, T_x>n), h=(0,h2*)
        sing = singular_steps()
        tilted = tilted_singular()
        x = (1, 2)
        for n in (8, 16, 31, 32):
            exact = count_line(sing, x, n)
            m = run_dp(tilted, x, QUAD, n, barrier=None)[n]
            recon = (2.0 * math.sqrt(2.0)) ** n * 2 ** ((1 - x[1]) / 2.0) * m.line_sum(1)
            if exact == 0:
                assert recon == pytest.approx(0.0, abs=1e-9)
            else:
                assert recon == pytest.approx(exact, rel=1e-9)


class TestEnvelope:
    def test_half_plane_tail_envelope(self):
        # sqrt(n) P(tau_x > n) / V_eff(x2) stays bounded and settles
        sd = tilted_singular()
        x2 = 3
        ld = descending_ladder(sd)
        v_eff = renewal_V(ld, 10)(x2 - 1)
        ratios = {n: math.sqrt(n) * half_plane_survival(sd, x2, n) / v_eff
                  for n in (10, 100, 1000, 10000)}
        vals = [ratios[n] for n in sorted(ratios)]
        assert max(vals) / min(vals) < 1.2
        kappa_ref = 0.5 * math.sqrt(2 / math.pi)
        assert vals[-1] == pytest.approx(kappa_ref, rel=0.01)

    def test_n_negative_rejected(self):
        with pytest.raises(InputError):
            survival_prob(singular_steps(), (1, 1), -1, QUAD)
