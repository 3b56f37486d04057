"""Monte Carlo determinism and statistical sanity."""

import time

import pytest

from quadwalk import validate_steps
from quadwalk.dp import ExitSpec, Region, survival_prob
from quadwalk.errors import InputError
from quadwalk.montecarlo import simulate_survival


@pytest.fixture(scope="module")
def tilted():
    return validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])


def test_one_step_matches_enumeration(tilted):
    est = simulate_survival(tilted, (1, 1), 1, 10 ** 6, seed=20240801)
    assert abs(est.mean - 0.25) <= est.half_width_95


def test_same_seed_bit_identical(tilted):
    a = simulate_survival(tilted, (1, 1), 50, 200_000, seed=7)
    b = simulate_survival(tilted, (1, 1), 50, 200_000, seed=7)
    assert a == b


def test_worker_count_invariance(tilted):
    ref = simulate_survival(tilted, (1, 1), 50, 200_000, seed=99, workers=1)
    for workers in (2, 3, 8):
        est = simulate_survival(tilted, (1, 1), 50, 200_000, seed=99,
                                workers=workers)
        assert est.mean == ref.mean  # bit identical

def test_different_seeds_differ(tilted):
    a = simulate_survival(tilted, (1, 1), 50, 100_000, seed=1)
    b = simulate_survival(tilted, (1, 1), 50, 100_000, seed=2)
    assert a.mean != b.mean


def test_n_zero_exact(tilted):
    est = simulate_survival(tilted, (1, 1), 0, 1234, seed=5)
    assert est.mean == 1.0
    assert est.half_width_95 == 0.0


def test_reps_must_be_positive(tilted):
    with pytest.raises(InputError):
        simulate_survival(tilted, (1, 1), 5, 0, seed=1)


def test_ci_interval_fields(tilted):
    est = simulate_survival(tilted, (1, 1), 20, 50_000, seed=11)
    assert est.low <= est.mean <= est.high
    assert est.reps == 50_000 and est.seed == 11


def test_quick_coverage(tilted):
    # a 25-seed preview of the acceptance coverage check
    truth, _ = survival_prob(tilted, (1, 1), 100, ExitSpec())
    hits = 0
    for seed in range(25):
        est = simulate_survival(tilted, (1, 1), 100, 100_000, seed=seed)
        if est.low <= truth <= est.high:
            hits += 1
    assert hits >= 21


@pytest.mark.parametrize("region", list(Region))
def test_every_region_matches_dp(tilted, region):
    # only the axes the region kills on may end a path
    spec = ExitSpec(region=region)
    truth, _ = survival_prob(tilted, (1, 1), 20, spec)
    est = simulate_survival(tilted, (1, 1), 20, 200_000, seed=2024, spec=spec)
    assert abs(est.mean - truth) <= 3 * est.half_width_95


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("x", [(0, 1), (1, 0), (-3, 4)])
def test_start_outside_quadrant_raises(tilted, x, n):
    with pytest.raises(InputError, match="survival region"):
        simulate_survival(tilted, x, n, 100, seed=1)


def test_start_checked_against_region(tilted):
    upper = ExitSpec(region=Region.UPPER_HALF_PLANE)
    right = ExitSpec(region=Region.RIGHT_HALF_PLANE)
    for x, spec in (((0, 1), upper), ((1, 0), right)):
        est = simulate_survival(tilted, x, 0, 10, seed=1, spec=spec)
        assert est.mean == 1.0
    with pytest.raises(InputError):
        simulate_survival(tilted, (1, 0), 0, 10, seed=1, spec=upper)
    with pytest.raises(InputError):
        simulate_survival(tilted, (0, 1), 0, 10, seed=1, spec=right)


def test_nonincreasing_in_n(tilted):
    # a block's draws up to step k do not depend on the steps that follow,
    # so for one seed the survivors after n + 1 steps are a subset of those
    # after n steps
    means = [simulate_survival(tilted, (1, 1), n, 40_000, seed=13).mean
             for n in range(0, 41)]
    assert all(b <= a for a, b in zip(means, means[1:]))
    assert means[-1] < means[1]


def test_nonnegative_steps_never_exit():
    sd = validate_steps([((1, 0), 1.0), ((0, 1), 2.0), ((2, 3), 1.0)])
    est = simulate_survival(sd, (1, 1), 200, 20_000, seed=4)
    assert est.mean == 1.0
    assert est.half_width_95 == 0.0


def test_first_step_exit_gives_zero_at_once():
    sd = validate_steps([((1, -1), 1.0), ((-1, -2), 1.0)])
    assert simulate_survival(sd, (1, 1), 1, 20_000, seed=4).mean == 0.0
    t0 = time.perf_counter()
    est = simulate_survival(sd, (1, 1), 10 ** 9, 20_000, seed=4)
    assert time.perf_counter() - t0 < 5.0
    assert est.mean == 0.0
    assert est.half_width_95 == 0.0
