"""The propagation kernel against brute-force oracles on random small laws."""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadwalk import dp, pipeline, singular_steps, validate_steps
from quadwalk.dp import (
    ExitSpec,
    QuadrantMeasure,
    Region,
    _count_run,
    count_line,
    count_paths,
    half_plane_survival,
    run_dp,
    step_measure,
    survival_prob,
)
from quadwalk.errors import InputError, QuadwalkError
from quadwalk.harmonic import make_tail_bound, w_rect
from quadwalk.ladders import BoundaryConvention
from quadwalk.pipeline import ConditionedWalkPipeline
from quadwalk.steps import _stride, compute_moments, solve_drift, tilt

from oracles import count_states, enumerate_paths, trim_slabs, walk_step

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


@given(small_laws(), st.sampled_from(list(Region)),
       st.sampled_from(list(BoundaryConvention)), st.integers(0, 6),
       st.data())
@settings(max_examples=60, deadline=None)
def test_counts_match_enumeration(sd, region, conv, n, data):
    spec = ExitSpec(region=region, conv=conv)
    t = spec.threshold
    x = data.draw(starts(t))
    kill_x1, kill_x2 = KILLS[region]
    _, _, counts = enumerate_paths(sd.atoms, x, n, kill_x1=kill_x1,
                                   kill_x2=kill_x2, threshold=t)
    for y, c in counts.items():
        got = count_paths(sd, x, y, n, spec)
        assert type(got) is int and got == c
    for y2 in range(x[1] - 2 * n, x[1] + 2 * n + 1):
        got = count_line(sd, x, n, y2=y2, spec=spec)
        assert type(got) is int
        assert got == sum(c for (_, b), c in counts.items() if b == y2)


def test_counts_match_dict_counter_past_float_precision():
    sd = singular_steps()
    n = 64
    want = count_states([(dx, dy) for dx, dy, _ in sd.atoms], (1, 1), n)
    counts, (lo1, lo2), (d1, d2) = _count_run(sd, (1, 1), n)
    got = {(lo1 + d1 * i, lo2 + d2 * j): counts[i, j]
           for i, j in zip(*counts.nonzero())}
    assert got == want
    assert max(want.values()) > 2 ** 53
    assert count_line(sd, (1, 1), n) == sum(
        c for (_, b), c in want.items() if b == 1)


@pytest.mark.parametrize("conv", list(BoundaryConvention))
@pytest.mark.parametrize("region", list(Region))
def test_die_out_law_matches_enumeration(region, conv):
    # every step lowers x2, so a walk killed on x2 dies at step 4 - t; the
    # right half-plane keeps the symmetric horizontal walk alive.  Once
    # nothing is alive the measures are dropped, not stepped.
    sd = validate_steps([((1, -1), 1.0), ((-1, -1), 1.0)])
    spec = ExitSpec(region=region, conv=conv)
    x, t = (3, 3), spec.threshold
    kill_x1, kill_x2 = KILLS[region]
    ms = run_dp(sd, x, spec, 6, snapshots=range(7))
    for n, m in sorted(ms.items()):
        surv, probs, counts = enumerate_paths(sd.atoms, x, n, kill_x1=kill_x1,
                                              kill_x2=kill_x2, threshold=t)
        assert m.survival() == surv
        assert m.killed_mass + m.dropped_mass == 1.0 - surv
        # 'auto' finds no positive horizontal drift and runs exactly
        assert survival_prob(sd, x, n, spec) == (surv, 0.0)
        assert half_plane_survival(sd, x[1], n, conv) == enumerate_paths(
            sd.atoms, x, n, kill_x1=False, threshold=t)[0]
        if kill_x2 and n >= 4 - t:
            assert surv == 0.0 and m.cells.shape == (0, 0)
        for y in set(probs) | {x, (x[0] + 1, x[1] - n)}:
            assert m.local(y) == probs.get(y, 0.0)
            assert count_paths(sd, x, y, n, spec) == counts.get(y, 0)
        for y2 in range(x[1] - n - 1, x[1] + 1):
            assert m.line_sum(y2) == sum(p for (_, b), p in probs.items() if b == y2)
            got = count_line(sd, x, n, y2=y2, spec=spec)
            assert type(got) is int
            assert got == sum(c for (_, b), c in counts.items() if b == y2)


# -- periodic laws: the measure stored on its lattice coset ----------------------

@st.composite
def periodic_laws(draw, dx_cells=(-2, 1)):
    """Atoms on a_i + d_i Z with d_i in {2, 3} and a_i != 0 mod d_i.

    dx is a_1 + d_1 i with i drawn from ``dx_cells``; (0, 1) gives dx >= 1.
    """
    d = [draw(st.sampled_from((2, 3))) for _ in range(2)]
    a = [draw(st.integers(1, di - 1)) for di in d]
    k = draw(st.integers(min_value=2, max_value=5))
    cells = draw(st.lists(st.tuples(st.integers(*dx_cells), st.integers(-2, 1)),
                          min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    return validate_steps([((a[0] + d[0] * i, a[1] + d[1] * j), w)
                           for (i, j), w in zip(cells, weights)])


@given(periodic_laws(), st.sampled_from(list(Region)),
       st.sampled_from(list(BoundaryConvention)), st.integers(0, 6),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
# a naive sum of this law's 5^6 paths from (1, 1) is 1.3e-13 off the exact
# half-plane survival, which the DP meets
@example(validate_steps([((-1, 1), 0.40728243), ((1, -1), 0.02396221),
                         ((1, 1), 0.26514252), ((1, 3), 0.03848752),
                         ((3, 1), 0.26514252)]),
         Region.QUADRANT, BoundaryConvention.KILL_ON_NONPOSITIVE, 6, (0, 0))
@settings(max_examples=60, deadline=None)
def test_periodic_laws_match_enumeration(sd, region, conv, n, offset):
    spec = ExitSpec(region=region, conv=conv)
    t = spec.threshold
    x = (t + offset[0], t + offset[1])
    kill_x1, kill_x2 = KILLS[region]
    surv, probs, counts = enumerate_paths(sd.atoms, x, n, kill_x1=kill_x1,
                                          kill_x2=kill_x2, threshold=t)
    m = run_dp(sd, x, spec, n, barrier=None)[n]
    assert m.survival() == pytest.approx(surv, abs=1e-13)
    # every point of a box around the reach, on the coset or off it
    r = 5 * n + 1
    box = [(y1, y2) for y1 in range(x[0] - r, x[0] + r + 1)
           for y2 in range(x[1] - r, x[1] + r + 1)]
    for y in box:
        if y in probs:
            assert m.local(y) == pytest.approx(probs[y], abs=1e-13)
        else:
            assert m.local(y) == 0.0
    for y2 in range(x[1] - r, x[1] + r + 1):
        want = sum(p for (_, b), p in probs.items() if b == y2)
        assert m.line_sum(y2) == pytest.approx(want, abs=1e-13)
    mu = (0.5, 0.0)
    s = math.sqrt(n)
    for u in [(u1, u2) for u1 in range(-3, 3) for u2 in range(-3, 3)]:
        want = sum(p for y, p in probs.items()
                   if all(n * mu[k] + u[k] * s <= y[k]
                          < n * mu[k] + (u[k] + 1.0) * s for k in range(2)))
        assert m.window_mass(u, mu) == pytest.approx(want, abs=1e-13)
    surv_v, _, _ = enumerate_paths(sd.atoms, x, n, kill_x1=False, threshold=t)
    assert half_plane_survival(sd, x[1], n, conv) == pytest.approx(surv_v, abs=1e-13)
    for y1, y2 in list(counts) + [(x[0] + 1, x[1]), (x[0], x[1] + 1)]:
        for y in ((y1, y2), (y1 + 1, y2), (y1, y2 + 1)):
            got = count_paths(sd, x, y, n, spec)
            assert type(got) is int and got == counts.get(y, 0)
    for y2 in range(x[1] - r, x[1] + r + 1):
        got = count_line(sd, x, n, y2=y2, spec=spec)
        assert type(got) is int
        assert got == sum(c for (_, b), c in counts.items() if b == y2)


def test_local_is_zero_off_the_coset():
    sd = singular_steps()  # x_i + S_i(n) = x_i + n mod 2
    m = run_dp(sd, (1, 1), ExitSpec(), 9, barrier=None)[9]
    assert m.stride == (2, 2)
    d1, d2 = m.stride
    on = off = 0
    for y1 in range(m.lo1 - 2, m.lo1 + d1 * m.cells.shape[0] + 2):
        for y2 in range(m.lo2 - 2, m.lo2 + d2 * m.cells.shape[1] + 2):
            if (y1 - 1 - 9) % 2 or (y2 - 1 - 9) % 2:
                off += 1
                assert m.local((y1, y2)) == 0.0
                assert count_paths(sd, (1, 1), (y1, y2), 9) == 0
            else:
                on += m.local((y1, y2)) > 0
    assert on == m.cells.size and off > 3 * on
    assert m.line_sum(3) == 0.0 and count_line(sd, (1, 1), 9, 3) == 0


def test_weights_keep_the_dense_layout():
    sd = validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])
    m = QuadrantMeasure.point_mass((2, 3), ExitSpec())
    assert m.weights.tolist() == [[1.0]]
    m = step_measure(m, sd)
    assert m.stride == (2, 2)  # the point mass took the law's stride
    for n in range(1, 8):
        w = m.weights
        assert w.shape == tuple((k - 1) * d + 1 for k, d in zip(m.cells.shape, m.stride))
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                # weights[i, j] is the mass at (lo1 + i, lo2 + j)
                assert w[i, j] == m.local((m.lo1 + i, m.lo2 + j))
        assert (w > 0).sum() == (m.cells > 0).sum()
        m = step_measure(m, sd)


def test_step_law_off_the_measures_lattice_rejected():
    m = step_measure(QuadrantMeasure.point_mass((3, 3), ExitSpec()),
                     singular_steps())
    aperiodic = validate_steps([((1, -1), 1.0), ((2, 1), 1.0), ((-1, 0), 1.0)])
    with pytest.raises(InputError):
        step_measure(m, aperiodic)


@given(periodic_laws(dx_cells=(0, 1)),
       st.sampled_from([Region.QUADRANT, Region.RIGHT_HALF_PLANE]),
       st.sampled_from(list(BoundaryConvention)), st.integers(0, 6),
       st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_periodic_barrier_runs_match_enumeration(sd, region, conv, n, extra, data):
    # every dx >= 1: leaked mass can never come back, so the barrier is exact,
    # and the 2-D box and the leaked line both empty out and refill
    spec = ExitSpec(region=region, conv=conv)
    x = data.draw(starts(spec.threshold))
    kill_x1, kill_x2 = KILLS[region]
    surv, probs, _ = enumerate_paths(sd.atoms, x, n, kill_x1=kill_x1,
                                     kill_x2=kill_x2, threshold=spec.threshold)
    m = run_dp(sd, x, spec, n, barrier=sd.max_abs_dx + extra)[n]
    assert m.survival() == pytest.approx(surv, abs=1e-13)
    r = 5 * n + 1
    for y2 in range(x[1] - r, x[1] + r + 1):
        want = sum(p for (_, b), p in probs.items() if b == y2)
        assert m.line_sum(y2) == pytest.approx(want, abs=1e-13)


def test_emptied_box_stays_on_its_coset():
    # dx >= 1 a.s., so the barrier (L = 4) is exact; by n = 4 all the mass
    # has crossed it, and the empty 2-D box must keep moving with the walk's
    # parity or the leaked line is read one height off on odd steps
    sd = validate_steps([((1, 1), 1.0), ((1, -1), 1.0), ((3, 1), 1.0),
                         ((3, -1), 1.0)])
    spec = ExitSpec()
    ms = run_dp(sd, (1, 1), spec, 8, snapshots=range(9), barrier="auto")
    v = np.arange(64.0) ** 2
    for n in range(5, 9):
        m = ms[n]
        assert m.barrier == 4 and m.alive_mass() == 0.0
        _, probs, _ = enumerate_paths(sd.atoms, (1, 1), n)
        for y2 in range(0, 12):
            want = sum(p for (_, b), p in probs.items() if b == y2)
            assert m.line_sum(y2) == pytest.approx(want, abs=1e-15)
        want = sum(p * v[b] for (_, b), p in probs.items())
        lo, d, col = m.vertical_marginal()
        assert col @ v[lo:lo + d * len(col):d] == pytest.approx(want, rel=1e-14)
    tb = make_tail_bound(sd, 1.0)
    # tol=0 runs every checkpoint up to n_max; L = 25 is out of reach in 7 steps
    exact, barred = (w_rect(sd, (1, 1), spec, lambda m: v[:m + 1], tb, 0.0, 7,
                            L, (1, 1))[(1, 1)] for L in (25, 4))
    assert [n for n, _ in barred.history] == [0, 1, 2, 4, 7]
    assert [w for _, w in barred.history] == pytest.approx(
        [w for _, w in exact.history], rel=1e-14)


# -- run buffers: a run_dp chain against fresh steps, bit for bit ----------------

# lattices that are not a product of their axes' strides, so most stored
# cells are exact zeros: index3.json and a lazy walk on {x1 + x2 even}
NON_PRODUCT_LAWS = [
    validate_steps([((-1, -2), 1), ((2, 1), 2), ((0, 0), 1)]),
    validate_steps([((1, 1), 1), ((1, -1), 1), ((0, 0), 1), ((2, 0), 1)]),
]


@st.composite
def integer_weight_laws(draw):
    k = draw(st.integers(min_value=3, max_value=5))
    steps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return validate_steps(list(zip(steps, weights)))


def _oracle_step(m, sd):
    """``m`` one step on by ``oracles.walk_step``, as a measure."""
    stride = _stride(sd.atoms)
    return replace(m, n=m.n + 1, stride=stride, **walk_step(
        vars(m), sd.atoms, sd.vertical_atoms, m.spec.kill, stride, m.barrier,
        dp.PRUNE_BUDGET))


def _fingerprint(m, mu):
    """Everything a snapshot reports, as bytes and float hex strings.

    Layout is part of it: numpy sums a strided box in another order than a
    contiguous one, so the two can differ in the last bit.
    """
    c = m.cells
    fp = [c.tobytes(), c.shape, c.flags.c_contiguous, m.lo1, m.lo2,
          m.leaked.tobytes(), m.leak_lo]
    fp += [float(v).hex() for v in (m.killed_mass, m.dropped_mass,
                                    m.leaked_total, m.survival(),
                                    m.error_bound(), m.line_sum(1),
                                    m.line_sum(m.lo2))]
    if m.barrier is None or m.leaked_total == 0:
        fp += [m.window_mass(u, mu).hex() for u in ((-1.0, -1.0), (-0.5, 0.0))]
    return fp


@given(st.one_of(integer_weight_laws(), st.sampled_from(NON_PRODUCT_LAWS)),
       st.sampled_from(list(Region)), st.sampled_from(list(BoundaryConvention)),
       st.sampled_from([None, "auto", 0, 2]), st.integers(1, 60), st.data())
@settings(max_examples=40, deadline=None)
def test_run_buffers_match_fresh_steps(sd, region, conv, barrier, n, data):
    spec = ExitSpec(region=region, conv=conv)
    mu1 = compute_moments(sd).mu1
    if barrier is not None and (not spec.kills_x1 or mu1 == 0):
        barrier = None
    if barrier is not None and mu1 < 0:
        # mirrored, the law drifts right and has a Chernoff rate
        sd = validate_steps([((-dx, dy), p) for dx, dy, p in sd.atoms])
    if isinstance(barrier, int):
        barrier += sd.max_abs_dx
    x = data.draw(starts(spec.threshold))
    snaps = {0, 1, n} | set(data.draw(st.lists(st.integers(0, n), max_size=3)))
    ms = run_dp(sd, x, spec, n, snapshots=snaps, barrier=barrier)
    assert set(ms) == snaps
    mu = compute_moments(sd).mu
    # the oracle's chain from the point mass, with fresh arrays at every
    # step; step_measure from a snapshot must land on its next measure
    m = QuadrantMeasure.point_mass(x, spec, barrier=ms[0].barrier,
                                   gamma=ms[0].gamma)
    for k in range(n + 1):
        if k:
            m = _oracle_step(m, sd)
        if k in snaps:
            assert _fingerprint(ms[k], mu) == _fingerprint(m, mu), k
        if k - 1 in snaps:
            assert _fingerprint(step_measure(ms[k - 1], sd), mu) == _fingerprint(m, mu), k


@pytest.mark.parametrize("sd", [
    validate_steps([((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)]),
    NON_PRODUCT_LAWS[0]], ids=["tilted", "index3"])
def test_snapshots_own_their_boxes(sd):
    spec, mu = ExitSpec(), compute_moments(sd).mu
    ms = run_dp(sd, (1, 1), spec, 40, snapshots={5, 6, 7, 40}, barrier=None)
    for n in (5, 6, 7, 40):
        alone = run_dp(sd, (1, 1), spec, n, barrier=None)[n]
        assert _fingerprint(ms[n], mu) == _fingerprint(alone, mu)
    m = ms[40]
    before = _fingerprint(m, mu)
    a, b = step_measure(m, sd), step_measure(m, sd)
    assert _fingerprint(m, mu) == before
    assert _fingerprint(a, mu) == _fingerprint(b, mu)
    assert not np.shares_memory(a.cells, b.cells)
    assert not np.shares_memory(a.cells, m.cells)


def test_run_stops_at_its_last_snapshot():
    sd = validate_steps([((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)])
    with patch.object(dp, "_kill_step", wraps=dp._kill_step) as stepped:
        ms = run_dp(sd, (1, 1), ExitSpec(), 10 ** 6, snapshots={0, 7, 30},
                    barrier=None)
    assert set(ms) == {0, 7, 30} and stepped.call_count == 30


# -- the leaked line stepped as one chain -----------------------------------------

LINE_CHAIN_CAP = 240  # steps of the oracle loop a chain is checked over


@st.composite
def drifting_laws(draw):
    """A small law tilted by exp(h dx), h in [1.5, 4], to positive horizontal drift."""
    law = draw(small_laws())
    assume(max(dx for dx, _, _ in law.atoms) > 0)
    sd = tilt(law, (draw(st.floats(1.5, 4.0)), 0.0))[0]
    assume(compute_moments(sd).mu1 > 0)
    return sd


def _check_line_chain(sd, spec, x, barrier, extra=()):
    """``run_dp`` against a loop of ``oracles.walk_step`` from the point mass.

    The snapshots fall before, at and after the steps where the box and
    then the leaked line empty, and at ``extra``.  Returns the loop's
    measures, one per step.
    """
    L = dp.auto_barrier(sd, x) if barrier == "auto" else barrier
    m = QuadrantMeasure.point_mass(x, spec, barrier=L, gamma=dp.chernoff_gamma(sd))
    ms, n_max = [m], LINE_CHAIN_CAP
    while len(ms) <= n_max:
        m = _oracle_step(m, sd)
        ms.append(m)
        if not (m.cells.size or m.leaked.size):
            n_max = min(n_max, m.n + 8)  # all dead: a few steps more
    snaps = {n_max, *(k for k in extra if k <= n_max)}
    for empty in (lambda m: not m.cells.size,
                  lambda m: not m.cells.size and not m.leaked.size):
        e = next((k for k, m in enumerate(ms) if empty(m)), None)
        if e is not None:
            snaps |= {k for k in (e - 1, e, e + 1, e + 7) if k <= n_max}
    got = run_dp(sd, x, spec, n_max, snapshots=snaps, barrier=barrier)
    assert set(got) == snaps
    mu = compute_moments(sd).mu
    for k in snaps:
        assert got[k].n == k, k
        assert _fingerprint(got[k], mu) == _fingerprint(ms[k], mu), k
    return ms


# every dy is -1 but that of a rare step left: the line dies out
LINE_DIES_OUT = validate_steps([((1, -1), 2.0), ((2, -1), 1.0), ((-1, 0), 1.0)])


@given(drifting_laws(), st.sampled_from([Region.QUADRANT, Region.RIGHT_HALF_PLANE]),
       st.sampled_from(list(BoundaryConvention)), st.sampled_from(["auto", 0, 2]),
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.lists(st.integers(1, LINE_CHAIN_CAP), max_size=3))
@example(LINE_DIES_OUT, Region.QUADRANT, BoundaryConvention.KILL_ON_NONPOSITIVE,
         0, (0, 2), [])
@settings(max_examples=25, deadline=None)
def test_line_chain_matches_step_measure(sd, region, conv, barrier, offset, extra):
    spec = ExitSpec(region=region, conv=conv)
    if barrier != "auto":
        barrier += sd.max_abs_dx
    x = (spec.threshold + offset[0], spec.threshold + offset[1])
    _check_line_chain(sd, spec, x, barrier, extra)


def test_line_chain_where_the_line_dies_out():
    ms = _check_line_chain(LINE_DIES_OUT, ExitSpec(), (1, 3), 2)
    assert ms[-1].leaked_total > 0 and not ms[-1].leaked.size
    assert not ms[-1].cells.size and ms[-1].n < LINE_CHAIN_CAP


def test_line_chain_on_the_right_half_plane():
    # the line has no kill there: once the box is empty, killed mass stays
    sd = validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])
    ms = _check_line_chain(sd, ExitSpec(region=Region.RIGHT_HALF_PLANE),
                           (1, 1), 1)
    e = next(k for k, m in enumerate(ms) if not m.cells.size)
    assert e < LINE_CHAIN_CAP and ms[-1].leaked.size
    assert {m.killed_mass for m in ms[e:]} == {ms[e].killed_mass}


def test_spill_join_peels_within_what_the_step_left():
    # One step of a hand-built barrier measure: the box's own peel spends
    # 6e-34 of the 1e-33 budget on its column at x2 = 4, so the leaked
    # line's low end (5e-34 at x2 = 2) stays through its step and through
    # the join of the spill at x1 = 4 > L, though the whole budget holds it.
    # The spill always outweighs what the box's peel left (its last row is
    # an edge that peel could not take), so a join never empties the line.
    sd = validate_steps([((1, -1), 2), ((1, 1), 1), ((-1, 1), 1)])
    m = QuadrantMeasure(n=1, cells=np.array([[1.2e-33, 0.25, 0.25]]), lo1=3, lo2=5,
                        spec=ExitSpec(), stride=(2, 2), barrier=3,
                        leaked=np.array([1e-33, 0.25]), leak_lo=3,
                        leaked_total=0.25, gamma=dp.chernoff_gamma(sd))
    got, mu = step_measure(m, sd), compute_moments(sd).mu
    assert _fingerprint(got, mu) == _fingerprint(_oracle_step(m, sd), mu)
    assert got.dropped_mass == 6e-34 and got.leak_lo == 2
    assert got.leaked[0] == 5e-34 and got.leaked_total > m.leaked_total


def _half_plane_old_loop(sd, x2, n, conv):
    """``half_plane_survival`` as it stepped before the line chain.

    Per step one ``np.convolve`` with the dense vertical kernel, the kill
    slice, and the exact-zero end peel of ``oracles.trim_slabs``.
    """
    atoms = sd.vertical_atoms
    smin, (d,) = atoms[0][0], _stride(atoms)
    dense = np.zeros((atoms[-1][0] - smin) // d + 1)
    for dy, p in atoms:
        dense[(dy - smin) // d] += p
    alive, lo, t = np.ones(1), x2, conv.threshold
    for _ in range(n):
        alive = np.convolve(alive, dense)
        lo += smin
        k = max(-((lo - t) // d), 0)
        alive, lo = alive[k:], lo + k * d
        alive, (lo,), _ = trim_slabs(alive, (lo,), 0, (d,))
        if not alive.size:
            break
    return float(alive.sum())


@given(st.one_of(small_laws(), periodic_laws()), st.sampled_from(list(BoundaryConvention)),
       st.integers(0, 3), st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_half_plane_survival_matches_its_old_loop(sd, conv, dx2, n):
    x2 = conv.threshold + dx2
    got = half_plane_survival(sd, x2, n, conv)
    assert got.hex() == _half_plane_old_loop(sd, x2, n, conv).hex()


# -- the certified prune -------------------------------------------------------------

def _on_box(m, ref):
    """m's cells placed on ref's box, which holds every live cell of m."""
    out = np.zeros_like(ref.cells)
    if m.cells.any():
        (d1, d2), (n1, n2) = ref.stride, m.cells.shape
        i, j = (m.lo1 - ref.lo1) // d1, (m.lo2 - ref.lo2) // d2
        assert 0 <= i <= ref.cells.shape[0] - n1
        assert 0 <= j <= ref.cells.shape[1] - n2
        out[i:i + n1, j:j + n2] = m.cells
    return out


@given(st.one_of(small_laws(), periodic_laws()), st.sampled_from(list(Region)),
       st.sampled_from(list(BoundaryConvention)), st.integers(20, 80),
       st.data())
@settings(max_examples=40, deadline=None)
def test_pruned_run_is_certified_by_dropped_mass(sd, region, conv, n, data):
    spec = ExitSpec(region=region, conv=conv)
    x = data.draw(starts(spec.threshold))
    m = run_dp(sd, x, spec, n, barrier=None)[n]
    with patch.object(dp, "PRUNE_BUDGET", 0.0):
        full = run_dp(sd, x, spec, n, barrier=None)[n]
    assert full.dropped_mass == 0.0
    kept = _on_box(m, full)
    # a float sum of nonnegative terms is monotone in each term, so the
    # pruned run stays below the full one cell by cell, exactly
    assert (kept <= full.cells).all()
    # the dynamics are linear and positive: in exact arithmetic the full
    # run exceeds the pruned one by at most the peeled mass; in floats each
    # cell is off its exact value by at most gamma relative, which counts
    # only on the cells the prune moved
    gamma = 2 * n * len(sd.atoms) * np.finfo(float).eps
    moved = full.cells[full.cells != kept].sum()
    assert (full.cells - kept).sum() <= (1 + gamma) * (
        m.dropped_mass + 2 * gamma * moved)
    assert m.dropped_mass <= n * dp.PRUNE_BUDGET
    assert m.alive_mass() + m.killed_mass + m.dropped_mass == pytest.approx(
        1.0, abs=1e-12)


# -- W on a rectangle of starts -----------------------------------------------------

def _check_w_rect(sd, spec, x, n, L, v, oracle_barrier):
    """Every start of x's rectangle, at every checkpoint, against enumeration."""
    t = spec.threshold
    # no width is below a negative tol: every checkpoint up to n_max = n runs
    rect = w_rect(sd, x, spec, lambda m: v[:m + 1], make_tail_bound(sd, 1.0),
                  -1.0, n, L, x)
    assert set(rect) == {(y1, y2) for y1 in range(x[0], L - sd.max_abs_dx + 1)
                         for y2 in range(t, x[1] + 1)}
    ns = sorted({0, n} | {2 ** k for k in range(n.bit_length())})
    for y, est in rect.items():
        assert [k for k, _ in est.history] == ns
        assert est.n_used == n and est.warned
        for k, upper in est.history:
            _, probs, _ = enumerate_paths(sd.atoms, y, k, threshold=t,
                                          barrier=oracle_barrier)
            want = sum(p * v[b] for (_, b), p in probs.items())
            assert upper == pytest.approx(want, rel=1e-12, abs=1e-13)


@st.composite
def weights(draw, size):
    """A nonnegative, nondecreasing weight vector of the given length."""
    steps = draw(st.lists(st.floats(0.0, 3.0), min_size=size, max_size=size))
    return np.cumsum(steps)


@given(small_laws(), st.sampled_from(list(BoundaryConvention)),
       st.integers(1, 6), st.integers(0, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_w_rect_matches_enumeration(sd, conv, n, extra, data):
    # the oracle applies the barrier rule: right of column L a path keeps
    # only its vertical kill, as the leaked measure does
    spec = ExitSpec(conv=conv)
    x = data.draw(starts(spec.threshold))
    L = x[0] + sd.max_abs_dx + extra
    v = data.draw(weights(x[1] + (n + 1) * sd.max_abs_dy + 1))
    _check_w_rect(sd, spec, x, n, L, v, oracle_barrier=L)


@given(periodic_laws(dx_cells=(0, 1)), st.sampled_from(list(BoundaryConvention)),
       st.integers(1, 6), st.integers(0, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_w_rect_exact_barrier_matches_enumeration(sd, conv, n, extra, data):
    # every dx >= 1: a path right of the barrier never comes back, so the
    # barrier run equals the plain quadrant walk
    spec = ExitSpec(conv=conv)
    x = data.draw(starts(spec.threshold))
    L = x[0] + sd.max_abs_dx + extra
    v = data.draw(weights(x[1] + (n + 1) * sd.max_abs_dy + 1))
    _check_w_rect(sd, spec, x, n, L, v, oracle_barrier=None)


@given(small_laws(), st.sampled_from(list(BoundaryConvention)),
       st.sampled_from((3.0, 0.3, 1e-10)),
       st.permutations([(y1, y2) for y1 in range(1, 7) for y2 in range(1, 7)]))
@settings(max_examples=10, deadline=None)
def test_w_in_any_query_order_equals_first_queries(law, conv, tol, order):
    # a looser barrier target keeps L, and so each pass, small; both sides
    # use it, and the tolerances spread the starts' own horizons
    try:
        sd, _ = tilt(law, solve_drift(law, (0.3, 0.0)).h)
        built = ConditionedWalkPipeline.build(sd, conv)
    except QuadwalkError:
        assume(False)
    used = replace(built, _w_cache={})
    t = built.spec.threshold
    with patch.object(pipeline, "N_MAX", 32), \
            patch.object(pipeline, "BARRIER_TARGET", 1e-6):
        for y in order:
            x = (y[0] - 1 + t, y[1] - 1 + t)
            # a pipeline that has answered no W query yet
            fresh = replace(built, _w_cache={}).w(x, tol)
            assert repr(used.w(x, tol)) == repr(fresh)
