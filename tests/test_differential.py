"""The propagation kernel against brute-force oracles on random small laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadwalk import singular_steps, validate_steps
from quadwalk.dp import ExitSpec, Region, _count_run, count_line, count_paths, run_dp
from quadwalk.ladders import BoundaryConvention

from oracles import count_states, enumerate_paths

KILLS = {
    Region.QUADRANT: (True, True),
    Region.UPPER_HALF_PLANE: (False, True),
    Region.RIGHT_HALF_PLANE: (True, False),
}


@st.composite
def small_laws(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    steps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    return validate_steps(list(zip(steps, weights)))


@st.composite
def starts(draw, threshold):
    return (draw(st.integers(threshold, threshold + 2)),
            draw(st.integers(threshold, threshold + 2)))


@given(small_laws(), st.sampled_from(list(Region)),
       st.sampled_from(list(BoundaryConvention)), st.integers(0, 6),
       st.data())
@settings(max_examples=60, deadline=None)
def test_run_dp_matches_enumeration(sd, region, conv, n, data):
    spec = ExitSpec(region=region, conv=conv)
    x = data.draw(starts(spec.threshold))
    kill_x1, kill_x2 = KILLS[region]
    surv, probs, _ = enumerate_paths(sd.atoms, x, n, kill_x1=kill_x1,
                                     kill_x2=kill_x2, threshold=spec.threshold)
    m = run_dp(sd, x, spec, n, barrier=None)[n]
    assert m.survival() == pytest.approx(surv, abs=1e-13)
    for y, p in probs.items():
        assert m.local(y) == pytest.approx(p, abs=1e-13)
    # no DP mass off the oracle's support
    for i, j in zip(*m.weights.nonzero()):
        assert (m.lo1 + i, m.lo2 + j) in probs


@given(small_laws(), st.sampled_from(list(BoundaryConvention)),
       st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_counts_match_enumeration(sd, conv, n, data):
    t = ExitSpec(conv=conv).threshold
    x = data.draw(starts(t))
    _, _, counts = enumerate_paths(sd.atoms, x, n, threshold=t)
    for y, c in counts.items():
        got = count_paths(sd, x, y, n, threshold=t)
        assert type(got) is int and got == c
    for y2 in range(t, x[1] + 2 * n + 1):
        got = count_line(sd, x, n, y2=y2, threshold=t)
        assert type(got) is int
        assert got == sum(c for (_, b), c in counts.items() if b == y2)


def test_counts_match_dict_counter_past_float_precision():
    sd = singular_steps()
    n = 64
    want = count_states([(dx, dy) for dx, dy, _ in sd.atoms], (1, 1), n)
    counts, (lo1, lo2) = _count_run(sd, (1, 1), n)
    got = {(lo1 + i, lo2 + j): counts[i, j] for i, j in zip(*counts.nonzero())}
    assert got == want
    assert max(want.values()) > 2 ** 53
    assert count_line(sd, (1, 1), n) == sum(
        c for (_, b), c in want.items() if b == 1)
