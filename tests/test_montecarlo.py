"""Monte Carlo determinism and statistical sanity."""

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadwalk import validate_steps
from quadwalk.dp import ExitSpec, Region, survival_prob
from quadwalk.errors import InputError
from quadwalk.ladders import BoundaryConvention
from quadwalk.montecarlo import (
    _ADMIT_BELOW,
    _BUCKET_SHIFT,
    BLOCK_SIZE,
    _atom_edges,
    _block_counts,
    _guide,
    _Kernel,
    _kernel,
    _moves,
    simulate_survival,
)
from quadwalk.steps import load_steps

from oracles import mc_block_sizes, mc_block_survivors, mc_estimate

# after normalisation a weight this small rounds the partial sums before
# it to 1.0 when it comes last in atom order
TINY = (1e-17, 3e-17, 1e-300)

# six weights near 1e-6 first in atom order put six edges inside the guide
# table's first bucket, so the pick takes three halving steps there
SPLIT_LAW = [((-2, k), w) for k, w in zip(range(-2, 4), (1e-6, 2e-6, 1.5e-6,
                                                         1e-6, 3e-6, 1e-6))]
SPLIT_LAW += [((-1, 1), 1.0), ((1, -1), 1.0), ((1, 1), 1.0)]

ROOT = Path(__file__).parents[1]


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
    # 13 blocks, and 3: five workers on three blocks leave two without any
    for reps in (200_000, 2 * BLOCK_SIZE + 1):
        ref = simulate_survival(tilted, (1, 1), 50, reps, seed=99, workers=1)
        for workers in (2, 3, 5):
            est = simulate_survival(tilted, (1, 1), 50, reps, seed=99,
                                    workers=workers)
            assert est == ref  # bit identical

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


@st.composite
def mc_laws(draw):
    k = draw(st.integers(2, 6))
    steps = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(0.01, 10.0) | st.sampled_from(TINY),
                            min_size=k, max_size=k))
    return list(zip(steps, weights))


@given(law=mc_laws(), region=st.sampled_from(list(Region)),
       conv=st.sampled_from(list(BoundaryConvention)),
       offset=st.tuples(st.integers(0, 3) | st.integers(0, 150),
                        st.integers(0, 3) | st.integers(0, 150)),
       n=st.integers(0, 40), reps=st.integers(1, 3 * BLOCK_SIZE),
       seed=st.integers(0, 2 ** 64 - 1))
@example(law=[((-1, 1), 1.0), ((1, -1), 1.0), ((1, 1), 1e-17)],
         region=Region.QUADRANT, conv=BoundaryConvention.KILL_ON_NONPOSITIVE,
         offset=(0, 0), n=40, reps=3 * BLOCK_SIZE, seed=2 ** 64 - 1)
@example(law=SPLIT_LAW, region=Region.QUADRANT,
         conv=BoundaryConvention.KILL_ON_NONPOSITIVE, offset=(3, 0), n=40,
         reps=2 * BLOCK_SIZE, seed=5)
@example(law=[((-1, 1), 1.0), ((1, -1), 2.0), ((1, 1), 1.0)],
         region=Region.QUADRANT, conv=BoundaryConvention.KILL_ON_NEGATIVE,
         offset=(0, 1), n=30, reps=2 * BLOCK_SIZE + 123, seed=8)
@example(law=[((-1, 1), 1.0), ((1, -1), 2.0), ((1, 1), 1.0)],
         region=Region.QUADRANT, conv=BoundaryConvention.KILL_ON_NONPOSITIVE,
         offset=(0, 0), n=1, reps=BLOCK_SIZE + 9, seed=3)
@settings(max_examples=30, deadline=None)
def test_matches_float_oracle_bit_for_bit(law, region, conv, offset, n, reps,
                                          seed):
    sd = validate_steps(law)
    spec = ExitSpec(region=region, conv=conv)
    x = tuple(spec.threshold + o for o in offset)
    sizes = mc_block_sizes(reps, BLOCK_SIZE)
    counts = [mc_block_survivors(sd.atoms, spec.kill, x, n, c, seed, b)
              for b, c in enumerate(sizes)]
    kernel = _kernel(sd, x, n, spec)
    assert _block_counts(kernel, n, seed, list(enumerate(sizes))) == counts
    est = simulate_survival(sd, x, n, reps, seed, spec=spec)
    assert (est.mean, est.half_width_95) == mc_estimate(counts, reps)


def test_uniform_is_top_53_bits_of_the_raw_word():
    key = np.array([2 ** 64 - 1, 2], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(1000)
    u = np.random.Generator(np.random.Philox(key=key)).random(1000)
    assert [(int(w) >> 11) * 2.0 ** -53 for w in words] == u.tolist()


def guide_pick(edges, words):
    """Atoms ``_moves`` picks for words, by shifts that are atom indices."""
    guide, passes, padded = _guide(edges)
    atom = np.arange(edges.size + 1, dtype=np.int64)
    kernel = _Kernel(guide=guide, moves=atom[guide], passes=passes,
                     edges=padded, shift=atom, start=0, sign_bits=np.int64(0))
    return _moves(kernel, np.array(words, dtype=np.uint64))


@pytest.mark.parametrize("weights", [
    [0.1, 0.2, 0.3, 0.4], [1 / 3, 1 / 3, 1 / 3], [1e-300, 0.5, 0.5 - 1e-300],
    [1.0, 1e-17, 1e-17], [0.25, 0.25, 0.5], [0.7, 0.1, 0.1, 0.1],
    [1e-6] * 6 + [1 - 6e-6], [0.5 - 4e-6] + [1e-6] * 8 + [0.5 - 4e-6],
    [2.0 ** -12, 1e-6, 1e-6, 1e-6, 1 - 2.0 ** -12 - 3e-6]])
def test_edges_pick_the_float_atom(weights):
    # the float rule at the words either side of every edge and at the top;
    # each edge is the first word that picks the next atom
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    edges = _atom_edges(weights)
    assert len(edges) == np.count_nonzero(cum < 1.0)

    def picks(word):
        float_pick = np.searchsorted(cum, (word >> 11) * 2.0 ** -53,
                                     side="right")
        assert edges.searchsorted(np.uint64(word), side="right") == float_pick
        return float_pick

    picks(2 ** 64 - 1)
    for t in edges.tolist():
        assert picks(t - 1) < picks(t)
    # the guide table picks as searchsorted does at every edge, at either
    # end of the words an edge's top 53 bits cover and about each bucket
    # boundary
    bounds = [b << _BUCKET_SHIFT for b in range(1, 1 << (64 - _BUCKET_SHIFT))]
    words = [0, 1, 2 ** 64 - 1] + [t + d for t in edges.tolist()
                                   for d in (-1, 0, 2 ** 11 - 1)]
    words += [b + d for b in bounds for d in (-1, 0, 1)]
    words = np.array(words, dtype=np.uint64)
    assert guide_pick(edges, words).tolist() == \
        edges.searchsorted(words, side="right").tolist()


@pytest.mark.parametrize("law, passes", [
    ("steps/tilted-singular.json", 0), ("perfbench/steps/wgrid.json", 0),
    ("steps/index3.json", 0), ("steps/singular.json", 1),
    ("steps/lazy-index2.json", 1), (SPLIT_LAW, 3)])
def test_halving_steps_per_law(law, passes):
    # dyadic edges each sit on a bucket boundary of the guide table
    sd = load_steps(ROOT / law) if isinstance(law, str) else validate_steps(law)
    assert _kernel(sd, (1, 1), 10, ExitSpec()).passes == passes


def test_packed_state_bound(tilted):
    # the tilted law steps at most 1 up and 1 down on each axis
    _kernel(tilted, (1, 1), 2 ** 30 - 1, ExitSpec())
    with pytest.raises(InputError, match=r"2\^31"):
        _kernel(tilted, (1, 1), 2 ** 30, ExitSpec())
    # an axis that cannot reach its threshold within n steps is not tracked,
    # so neither its start nor a large n counts against the bound
    _kernel(tilted, (1, 2 ** 31 + 1), 2 ** 31,
            ExitSpec(region=Region.UPPER_HALF_PLANE))


@pytest.mark.parametrize("n, up", [(1, 2 ** 31 - 2), (2, 2 ** 30 - 2)])
def test_fields_stay_exact_up_to_the_bound(n, up):
    # n * (up + 1) is just below 2^31: live fields climb past 2^30, and a
    # field that drops below 0 borrows from the field above it
    sd = validate_steps([((up, -1), 1.0), ((-1, up), 1.0), ((up, up), 1.0),
                         ((-1, -1), 1.0)])
    spec = ExitSpec()
    kernel = _kernel(sd, (1, 1), n, spec)
    for seed in range(3):
        assert _block_counts(kernel, n, seed, [(0, 5000)]) == \
            [mc_block_survivors(sd.atoms, spec.kill, (1, 1), n, 5000, seed, 0)]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_one_word_raises(tilted, seed):
    with pytest.raises(InputError, match=r"seed must be in \[0, 2\^64\)"):
        simulate_survival(tilted, (1, 1), 5, 100, seed=seed)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_seed_at_either_end_runs(tilted, seed):
    est = simulate_survival(tilted, (1, 1), 5, 100, seed=seed)
    assert est.seed == seed


@pytest.mark.parametrize("workers", [1, 2])
def test_memory_follows_the_admission_limit(tilted, workers):
    # A worker admits its next block below BLOCK_SIZE / 4 live paths, so it
    # holds fewer than 1.25 * BLOCK_SIZE, and at most three int64 arrays of
    # them at once (state, words, moves); the guide tables and the rest take
    # less than one more BLOCK_SIZE of int64 per worker.  Stepping all 64
    # blocks of the run at once would not fit.
    assert _ADMIT_BELOW == BLOCK_SIZE // 4
    per_worker = 3 * 1.25 + 1  # int64 arrays of BLOCK_SIZE
    simulate_survival(tilted, (1, 1), 100, 2 * BLOCK_SIZE, seed=3,
                      workers=workers)  # first-call allocations
    tracemalloc.start()
    try:
        simulate_survival(tilted, (1, 1), 100, 2 ** 20, seed=3,
                          workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= workers * per_worker * BLOCK_SIZE * 8
