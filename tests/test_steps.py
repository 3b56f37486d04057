"""Walk model: validation, moments, tilting, drift solving, lattice structure."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadwalk import (
    compute_moments,
    in_lattice_support,
    lattice_decompose,
    singular_steps,
    solve_drift,
    tilt,
    validate_steps,
)
from quadwalk.errors import (
    DegenerateSupportError,
    EmptyStepSetError,
    InfeasibleDriftError,
    InputError,
    NegativeWeightError,
    NumericError,
    ZeroTotalWeightError,
)
from quadwalk import steps
from quadwalk.steps import (TILT_TOL, _Buffers, _kill_step, _line_steps, _peel_line,
                             _step_plan, _trim)

from oracles import convolve_atoms, lattice_index, line_step, trim_slabs

HSTAR = (0.0, -0.5 * math.log(2.0))


FAR_LAW = validate_steps([((10 ** 11, 1), 1), ((10 ** 11 + 2, -1), 1),
                          ((10 ** 11, -1), 1)])


def tilted_singular():
    return validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])


class TestValidateSteps:
    def test_singular_uniform(self):
        sd = singular_steps()
        assert len(sd.atoms) == 3
        for _, _, w in sd.atoms:
            assert w == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_point_mass_normalizes(self):
        sd = validate_steps([((0, 0), 5.0)])
        assert sd.atoms == ((0, 0, 1.0),)

    def test_duplicates_merge(self):
        sd = validate_steps([((1, 0), 1.0), ((1, 0), 2.0)])
        assert sd.atoms == ((1, 0, 1.0),)

    def test_empty_rejected(self):
        with pytest.raises(EmptyStepSetError):
            validate_steps([])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            validate_steps([((1, 0), -1.0)])

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotalWeightError):
            validate_steps([((1, 0), 0.0), ((0, 1), 0.0)])

    def test_normalization_invariant(self):
        sd = validate_steps([((1, 2), 0.3), ((0, -1), 1.9), ((-2, 0), 0.8)])
        assert math.fsum(w for _, _, w in sd.atoms) == pytest.approx(1.0, abs=1e-12)
        # a common weight factor does not change the law
        law = [((1, 2), 3), ((0, -1), 19), ((-2, 0), 8)]
        assert validate_steps([(s, 7 * w) for s, w in law]) == validate_steps(law)

    @pytest.mark.parametrize("step, match", [
        (((1, 0), math.nan), "step 1: weight nan"),
        (((1, 0), math.inf), "step 1: weight inf"),
        (((1, 0), -math.inf), "step 1: weight -inf"),
        (((1, 0), True), "step 1: weight True"),
        (((1, 0), "0.5"), "step 1: weight '0.5'"),
        (((1.5, 0), 1.0), "step 1: dx 1.5"),
        (((True, 0), 1.0), "step 1: dx True"),
        (((1, np.bool_(False)), 1.0), "step 1: dy .*False"),
        (((1, "1"), 1.0), "step 1: dy '1'"),
        (((1, math.nan), 1.0), "step 1: dy nan"),
    ])
    def test_bad_step_refused(self, step, match):
        with pytest.raises(InputError, match=match):
            validate_steps([((0, 1), 1.0), step])

    @pytest.mark.parametrize("second", [(0, 1), (1, 0)])
    def test_overflowing_total_refused(self, second):
        # merged into one inf, or summed past the largest float by fsum
        with pytest.raises(InputError, match="overflows"):
            validate_steps([((0, 1), 1e308), (second, 1e308)])

    def test_integral_increments_of_any_int_or_float_type(self):
        # 1.0 is the integer 1; numpy ints and floats are ints and weights
        sd = validate_steps([((1.0, np.int64(-1)), np.float64(2.0)),
                             ((np.int32(-1), 1), 1)])
        assert sd.atoms == ((-1, 1, 1 / 3), (1, -1, 2 / 3))
        assert all(type(v) is int for dx, dy, _ in sd.atoms for v in (dx, dy))


class TestMoments:
    def test_singular_drift(self):
        m = compute_moments(singular_steps())
        assert m.mu == pytest.approx((1 / 3, 1 / 3), abs=1e-15)

    def test_point_mass(self):
        m = compute_moments(validate_steps([((0, 0), 1.0)]))
        assert m.mu == (0.0, 0.0)
        assert m.sigma11 == 0.0 and m.sigma22 == 0.0 and m.rho == 0.0

    def test_tilted_singular(self):
        # pmf (1/2, 1/4, 1/4) on (1,-1), (1,1), (-1,1)
        m = compute_moments(tilted_singular())
        assert m.mu == pytest.approx((0.5, 0.0), abs=1e-15)
        assert m.sigma11 == pytest.approx(0.75, abs=1e-15)
        assert m.sigma22 == pytest.approx(1.0, abs=1e-15)
        assert m.rho == pytest.approx(-0.5, abs=1e-15)


class TestTilt:
    def test_identity(self):
        sd = singular_steps()
        tilted, tp = tilt(sd, (0.0, 0.0))
        assert tp.phi == pytest.approx(1.0, abs=1e-15)
        for a, b in zip(tilted.atoms, sd.atoms):
            assert a == pytest.approx(b, abs=1e-15)

    def test_hstar(self):
        tilted, tp = tilt(singular_steps(), HSTAR)
        assert tp.phi == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)
        pmf = {(dx, dy): w for dx, dy, w in tilted.atoms}
        assert pmf[(1, -1)] == pytest.approx(0.5, abs=1e-14)
        assert pmf[(1, 1)] == pytest.approx(0.25, abs=1e-14)
        assert pmf[(-1, 1)] == pytest.approx(0.25, abs=1e-14)

    def test_phi_out_of_range_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="out of float range"):
            tilt(singular_steps(), (800, 0))  # exp(800) overflows
        # every step sits near x1 = 1e11, so every exp(h.step) of the
        # solved tilt underflows to 0
        with pytest.raises(NumericError, match="out of float range"):
            solve_drift(FAR_LAW, (1e11 + 0.5, -0.2))

    @pytest.mark.parametrize("mu1", [0.3, 0.5, 0.7])
    def test_c06_closed_form(self, mu1):
        h = (0.5 * math.log(mu1 / (1 - mu1)), 0.5 * math.log(mu1))
        _, tp = tilt(singular_steps(), h)
        assert 3.0 * tp.phi == pytest.approx(2.0 / math.sqrt(1 - mu1), abs=1e-13)


class TestSolveDrift:
    @pytest.mark.parametrize("mu1", [0.3, 0.5, 0.7])
    def test_closed_form(self, mu1):
        tp = solve_drift(singular_steps(), (mu1, 0.0))
        assert tp.h[0] == pytest.approx(0.5 * math.log(mu1 / (1 - mu1)), abs=1e-12)
        assert tp.h[1] == pytest.approx(0.5 * math.log(mu1), abs=1e-12)
        assert 3.0 * tp.phi == pytest.approx(2.0 / math.sqrt(1 - mu1), abs=1e-12)

    def test_natural_drift_gives_zero(self):
        sd = validate_steps([((1, 1), 1.0), ((-1, 0), 2.0), ((0, -1), 1.0)])
        m = compute_moments(sd)
        tp = solve_drift(sd, m.mu)
        assert abs(tp.h[0]) < 1e-10 and abs(tp.h[1]) < 1e-10

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleDriftError):
            solve_drift(singular_steps(), (2.0, 0.0))

    def test_degenerate_support(self):
        sd = validate_steps([((1, 1), 1.0), ((-1, -1), 1.0)])  # collinear
        with pytest.raises(DegenerateSupportError):
            solve_drift(sd, (0.25, 0.0))

    def test_roundtrip(self):
        sd = validate_steps([((2, 1), 1.0), ((-1, 0), 1.0), ((0, -2), 1.0),
                             ((1, 1), 2.0)])
        target = (0.4, -0.1)
        tp = solve_drift(sd, target)
        tilted, _ = tilt(sd, tp.h)
        m = compute_moments(tilted)
        assert m.mu == pytest.approx(target, abs=1e-10)


class TestLattice:
    def test_singular(self):
        ls = lattice_decompose(singular_steps())
        assert (ls.a1, ls.d1, ls.a2, ls.d2) == (1, 2, 1, 2)

    def test_mixed_parity(self):
        sd = validate_steps([((0, 1), 1), ((1, 0), 1), ((0, -1), 1),
                             ((-1, 0), 1), ((1, 1), 1)])
        ls = lattice_decompose(sd)
        assert (ls.a1, ls.d1, ls.a2, ls.d2) == (0, 1, 0, 1)

    def test_even_lattice(self):
        sd = validate_steps([((2, 0), 1), ((4, 2), 1), ((2, -2), 1),
                             ((-2, 0), 1)])
        ls = lattice_decompose(sd)
        assert (ls.a1, ls.d1, ls.a2, ls.d2) == (0, 2, 0, 2)

    def test_degenerate_rejected(self):
        sd = validate_steps([((1, 1), 1), ((1, -1), 1)])
        with pytest.raises(DegenerateSupportError, match="one line"):
            lattice_decompose(sd)

    @pytest.mark.parametrize("raw", [
        [((1, -1), 1), ((3, 1), 1), ((5, 3), 1)],  # two values per axis
        [((2, 2), 1)],
    ])
    def test_support_on_one_line_rejected(self, raw):
        # rank below 2, not a single value on an axis, is the rule
        with pytest.raises(DegenerateSupportError, match="one line"):
            lattice_decompose(validate_steps(raw))

    @pytest.mark.parametrize("raw, basis, index", [
        # lazy law: Lambda = {z1 + z2 even}, both axes aperiodic
        ([((1, 1), .25), ((1, -1), .25), ((0, 0), .3), ((2, 0), .2)],
         (2, 1, 1, 0, 0), 2),
        ([((-1, -2), 1), ((2, 1), 2), ((0, 0), 1)], (3, 2, 1, 0, 0), 3),
        # the lazy law moved by (1, 0): the coset moves, Lambda does not
        ([((2, 1), 1), ((2, -1), 1), ((1, 0), 1), ((3, 0), 1)],
         (2, 1, 1, 1, 0), 2),
    ])
    def test_non_product_lattice(self, raw, basis, index):
        ls = lattice_decompose(validate_steps(raw))
        assert (ls.h11, ls.h12, ls.h22, ls.c1, ls.a2) == basis
        assert ls.index == index
        assert (ls.d1, ls.d2) == (1, 1)

    def test_membership_examples(self):
        ls = lattice_decompose(singular_steps())
        assert in_lattice_support(ls, 2, (2, 0))
        assert not in_lattice_support(ls, 2, (1, 0))

    def test_trivial_lattice_always_true(self):
        sd = validate_steps([((0, 1), 1), ((1, 0), 1), ((0, -1), 1),
                             ((-1, 0), 1), ((1, 1), 1)])
        ls = lattice_decompose(sd)
        for n in range(1, 4):
            for z in itertools.product(range(-3, 4), repeat=2):
                assert in_lattice_support(ls, n, z)

    @pytest.mark.parametrize("raw", [
        [((1, -1), 1), ((1, 1), 1), ((-1, 1), 1)],
        [((2, 0), 1), ((4, 2), 1), ((2, -2), 1), ((-2, 0), 1)],
        [((0, 3), 1), ((3, 0), 1), ((-3, -3), 1), ((3, 3), 1)],
        [((1, 1), .25), ((1, -1), .25), ((0, 0), .3), ((2, 0), .2)],
        [((-1, -2), 1), ((2, 1), 2), ((0, 0), 1)],
    ])
    def test_every_reachable_sum_is_in_support(self, raw):
        sd = validate_steps(raw)
        ls = lattice_decompose(sd)
        steps = [(dx, dy) for dx, dy, _ in sd.atoms]
        for n in range(1, 7):
            reachable = {(0, 0)}
            for _ in range(n):
                reachable = {(a + dx, b + dy) for a, b in reachable
                             for dx, dy in steps}
            for z in reachable:
                assert in_lattice_support(ls, n, z)


finite_weights = st.floats(min_value=0.01, max_value=10.0,
                           allow_nan=False, allow_infinity=False)


@st.composite
def step_sets(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    atoms = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(finite_weights, min_size=n, max_size=n))
    return validate_steps([(a, w) for a, w in zip(atoms, weights)])


@st.composite
def tilt_vectors(draw):
    return (draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))


@given(step_sets(), tilt_vectors())
@settings(max_examples=60, deadline=None)
def test_tilt_roundtrip(sd, h):
    tilted, _ = tilt(sd, h)
    back, tp = tilt(tilted, (-h[0], -h[1]))
    assert len(back.atoms) == len(sd.atoms)
    for a, b in zip(back.atoms, sd.atoms):
        assert a[:2] == b[:2]
        assert a[2] == pytest.approx(b[2], abs=1e-12)


@given(step_sets(), tilt_vectors())
@settings(max_examples=60, deadline=None)
def test_tilted_mean_is_logphi_gradient(sd, h):
    # derivative of log phi at h by central differences, step 1e-6
    tilted, _ = tilt(sd, h)
    m = compute_moments(tilted)
    eps = 1e-6

    def logphi(hh):
        return math.log(math.fsum(
            w * math.exp(hh[0] * dx + hh[1] * dy) for dx, dy, w in sd.atoms))

    g1 = (logphi((h[0] + eps, h[1])) - logphi((h[0] - eps, h[1]))) / (2 * eps)
    g2 = (logphi((h[0], h[1] + eps)) - logphi((h[0], h[1] - eps))) / (2 * eps)
    scale = max(1.0, abs(g1), abs(g2))
    assert abs(m.mu1 - g1) / scale < 1e-6
    assert abs(m.mu2 - g2) / scale < 1e-6


@given(step_sets(), tilt_vectors())
@example(validate_steps([((0, 1), 0.75), ((1, 1), 0.25)]), (1.0, 0.0))
@example(validate_steps([((-3, -3), 0.95), ((-2, 3), 0.045), ((2, 1), 0.005)]),
         (1.0, 0.9))
@settings(max_examples=40, deadline=None)
def test_solve_drift_roundtrip(sd, h):
    # any tilted mean is an interior feasible target
    tilted, _ = tilt(sd, h)
    target = compute_moments(tilted).mu
    try:
        lattice_decompose(sd)
    except DegenerateSupportError:
        # a support on one line has a singular Hessian: refused up front
        with pytest.raises(DegenerateSupportError):
            solve_drift(sd, target)
        return
    tp = solve_drift(sd, target)
    re_tilted, _ = tilt(sd, tp.h)
    assert compute_moments(re_tilted).mu == pytest.approx(target, abs=1e-10)


def _diffs(sd):
    x0, y0 = sd.atoms[0][:2]
    return [(dx - x0, dy - y0) for dx, dy, _ in sd.atoms[1:]]


@given(step_sets())
@settings(max_examples=50, deadline=None)
def test_lattice_matches_minor_oracle(sd):
    diffs = _diffs(sd)
    index = lattice_index(diffs)
    if index == 0:
        with pytest.raises(DegenerateSupportError):
            lattice_decompose(sd)
        return
    ls = lattice_decompose(sd)
    assert ls.index == index
    assert 0 <= ls.h12 < ls.h11 and 0 <= ls.c1 < ls.h11 and 0 <= ls.a2 < ls.h22
    assert ls.d1 == math.gcd(*(u1 for u1, _ in diffs))
    assert ls.d2 == math.gcd(*(u2 for _, u2 in diffs))
    x0, y0 = sd.atoms[0][:2]
    for n in range(3):
        for z in itertools.product(range(-3, 4), repeat=2):
            w = (z[0] - n * x0, z[1] - n * y0)
            # z - n s0 is in Lambda iff adding it leaves the index unchanged
            assert in_lattice_support(ls, n, z) == (
                lattice_index(diffs + [w]) == index)


@given(step_sets(), st.integers(0, 6),
       st.tuples(st.integers(1, 4), st.integers(1, 4)),
       st.tuples(st.floats(-5.0, 20.0), st.floats(-5.0, 20.0)),
       st.integers(0, 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_nearest_lattice_point_is_feasible(sd, n, x, target, lo, fixed_y2):
    assume(lattice_index(_diffs(sd)))
    ls = lattice_decompose(sd)
    y = ls.nearest(x, n, target, lo, fixed_y2)
    if y is None:
        assert fixed_y2 and ls.row(n, round(target[1]) - x[1]) is None
        return
    assert in_lattice_support(ls, n, (y[0] - x[0], y[1] - x[1]))
    assert y[0] >= lo and (fixed_y2 or y[1] >= lo)
    # no feasible neighbour at that height, above lo, is strictly nearer
    for y1 in (y[0] - ls.h11, y[0] + ls.h11):
        assert y1 < lo or abs(y1 - target[0]) >= abs(y[0] - target[0])


def _boundary_segments(points):
    """Ordered pairs (a, b) of points with every point on or left of a -> b."""
    return [(a, b) for a in points for b in points if a != b
            and all((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0
                    for p in points)]


@given(step_sets(), st.integers(0, 99), st.integers(0, 8),
       st.sampled_from([0.0, 2.0 ** -10, 0.25, 1.0, 3.0]))
@example(validate_steps([((1, -1), 1.0), ((0, -1), 1.0), ((1, 1), 1.0)]), 2, 4, 0.0)
@settings(max_examples=60, deadline=None)
def test_solve_drift_refuses_targets_on_or_outside_the_hull(sd, pick, eighths, out):
    # a dyadic point of a boundary segment, moved ``out`` along its outer
    # normal: exact in floats, and on the hull (out = 0) or outside it
    assume(lattice_index(_diffs(sd)))
    segments = _boundary_segments([at[:2] for at in sd.atoms])
    a, b = segments[pick % len(segments)]
    e1, e2 = b[0] - a[0], b[1] - a[1]
    u = eighths / 8
    target = (a[0] + u * e1 + out * e2, a[1] + u * e2 - out * e1)
    with pytest.raises(InfeasibleDriftError, match="nearest edge"):
        solve_drift(sd, target)


def _reached_or_numeric_error(sd, target):
    """``solve_drift`` meets TILT_TOL or raises NumericError; True if it met it."""
    try:
        tp = solve_drift(sd, target)
    except NumericError:
        return False
    mu = compute_moments(tilt(sd, tp.h)[0]).mu
    assert math.hypot(mu[0] - target[0], mu[1] - target[1]) <= TILT_TOL
    return True


@pytest.mark.parametrize("law, target, reached", [
    # Armijo halves the step, then Newton converges
    ([((-2, -2), 2), ((-2, -1), 3), ((-1, 2), 1), ((1, -1), 3)],
     (-1.2499999999999998, 1.2499999999999982), True),
    # 1e-12 inside the midpoint of the edge (-1,0)-(2,-2): every full step
    # passes Armijo, and the residual stays at 2.8e-13 for all 100 steps
    ([((-1, 0), 4), ((2, -2), 4), ((1, -1), 3), ((2, 2), 4)],
     (0.5000000000000006, -0.999999999999999), False),
    # Armijo halves the step, and the residual stalls at 1.2e-13
    ([((-3, -3), 1e-06), ((0, -2), 3), ((1, 0), 2), ((3, 3), 4)],
     (2.99999999999997, 2.999999999999963), False),
    # near the vertex (-2, 2) the tilted law sits on one atom: the Hessian
    # is singular in floats
    ([((-3, -2), 1), ((-2, 2), 3), ((-1, 1), 3), ((0, -3), 1), ((0, 0), 3),
      ((3, 0), 4)], (-1.9999999999985, 1.99999999999725), False),
])
def test_solve_drift_near_the_hull(law, target, reached):
    assert _reached_or_numeric_error(validate_steps(law), target) is reached


@given(step_sets(), st.integers(0, 99), st.integers(1, 7),
       st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12, 1e-15]))
@settings(max_examples=60, deadline=None)
def test_solve_drift_near_an_edge_reaches_tol_or_raises(sd, pick, eighths, eps):
    # a point of a boundary segment, moved eps along its inner normal
    assume(lattice_index(_diffs(sd)))
    segments = _boundary_segments([at[:2] for at in sd.atoms])
    a, b = segments[pick % len(segments)]
    e1, e2 = b[0] - a[0], b[1] - a[1]
    u = eighths / 8
    target = (a[0] + u * e1 - eps * e2, a[1] + u * e2 + eps * e1)
    try:
        _reached_or_numeric_error(sd, target)
    except InfeasibleDriftError:  # rounded onto the edge
        assume(False)


# -- the propagation kernel against its references ----------------------------

def _same(x, y):
    """Same dtype, shape and cells, bit for bit (exact ints for object arrays)."""
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    return x.tolist() == y.tolist() if x.dtype == object else x.tobytes() == y.tobytes()


line_cells = st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                       st.floats(0.0, 2.0 ** -1022, allow_subnormal=True),
                       st.floats(1e-40, 1e-30))


@given(st.lists(line_cells, min_size=1, max_size=12), st.booleans(),
       st.integers(-5, 5), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_trim_line_matches_slab_peel(cells, equal_ends, lo, stride, data):
    # the one peel of a line: the lighter end first, the low end on a tie,
    # and a line peeled to nothing keeps its lo
    a = np.array(cells)
    if equal_ends:
        a[-1] = a[0]
    total = float(a.sum())
    budget = data.draw(st.one_of(st.just(0), st.floats(0.0, total), st.just(total),
                                 st.just(math.inf)))
    got, want = _peel_line(a, lo, stride, budget), trim_slabs(a, (lo,), budget, (stride,))
    assert _same(got[0], want[0]) and (got[1],) == want[1]
    assert float(got[2]).hex() == float(want[2]).hex()


@given(st.lists(line_cells, min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(-2, 2), st.floats(1e-3, 1.0)), min_size=1,
                max_size=3, unique_by=lambda a: a[0]),
       st.integers(1, 3), st.integers(-3, 3), st.none() | st.integers(-4, 6),
       st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_line_steps_match_convolve_and_slab_peel(cells, law, d, lo, kill, steps, data):
    atoms = tuple(sorted((d * s, p) for s, p in law))
    a = np.array(cells)
    budget = data.draw(st.one_of(st.just(0.0), st.floats(0.0, float(a.sum()))))
    plan = _step_plan(atoms, (d,), 1)
    got = _line_steps(a, lo, plan, kill, steps, budget, 0.5, 0.25)
    # the reference: one np.convolve, the kill slice and the generic slab
    # peel per step, sums added one by one
    killed, dropped, left = 0.5, 0.25, budget
    for _ in range(steps):
        a, lo, k, drop = line_step(a, lo, atoms, kill, d, budget)
        killed += k
        dropped += drop
        left = budget - drop
        if not a.size:
            break
    assert got[0].tobytes() == a.tobytes() and got[1] == lo
    assert [float(v).hex() for v in got[2:]] == [v.hex() for v in (killed, dropped, left)]


def test_line_steps_refuse_a_convolution_above_the_cap(monkeypatch):
    atoms = ((-1, 0.25), (0, 0.5), (1, 0.25))  # the line grows 2 cells a step
    a = np.full(4, 0.25)
    monkeypatch.setattr(steps, "MAX_CELLS", 8)
    plan = _step_plan(atoms, (1,), 1)
    got = _line_steps(a, 0, plan, None, 2)  # convolves 6 and 8 cells
    assert len(got[0]) == 8
    with pytest.raises(InputError, match="a line step of 10 entries"):
        _line_steps(a, 0, plan, None, 3)
    with pytest.raises(InputError, match="a line step of 10 entries"):
        _line_steps(np.full(8, 0.125), 0, plan, None, 1)


box_cells = st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                      st.floats(0.0, 2.0 ** -1022, allow_subnormal=True),
                      st.floats(1e-40, 1e-30))


@st.composite
def trim_boxes(draw):
    """A nonnegative 2-D box with zero or tied edges, contiguous or a view."""
    exact = draw(st.booleans())
    n1, n2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cell = st.integers(0, 2 ** 70) if exact else box_cells
    a = np.array(draw(st.lists(cell, min_size=n1 * n2, max_size=n1 * n2)),
                 dtype=object if exact else float).reshape(n1, n2)
    if a.size:
        for edge in draw(st.lists(st.sampled_from(["top", "bottom", "left", "right"]),
                                  max_size=4)):
            a[{"top": (0,), "bottom": (-1,), "left": (slice(None), 0),
               "right": (slice(None), -1)}[edge]] = 0
        tie = draw(st.sampled_from(["none", "rows", "columns", "all"]))
        if tie == "rows":
            a[-1] = a[0]
        elif tie == "columns":
            a[:, -1] = a[:, 0]
        elif tie == "all":  # rows tie with rows, columns with columns
            a[...] = a.flat[0]
    layout = draw(st.sampled_from(["contiguous", "cut", "every other"]))
    if layout == "cut":  # a box cut on x2 by a kill
        wide = np.zeros((n1, n2 + 2), a.dtype)
        wide[:, 2:] = a
        a = wide[:, 2:]
    elif layout == "every other":
        wide = np.zeros((n1, 2 * n2), a.dtype)
        wide[:, ::2] = a
        a = wide[:, ::2]
    return a


@given(trim_boxes(), st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(1, 3), st.integers(1, 3)), st.data())
@settings(max_examples=300, deadline=None)
def test_trim_box_matches_slab_peel(a, lo, stride, data):
    total = float(a.sum())
    budget = data.draw(st.one_of(st.just(0), st.floats(0.0, total), st.just(total),
                                 st.just(math.inf)))
    before = a.copy()
    got = _trim(a, lo, budget, stride, _Buffers(a.dtype))
    want = trim_slabs(a, lo, budget, stride)
    assert _same(got[0], want[0]) and got[1] == want[1]
    assert got[0].flags.c_contiguous == want[0].flags.c_contiguous
    assert type(got[2]) is type(want[2]) and float(got[2]).hex() == float(want[2]).hex()
    assert _same(a, before)


@st.composite
def kernel_cases(draw):
    exact = draw(st.booleans())
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    base = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    if exact:
        weight = st.integers(1, 5)
        cell = st.one_of(st.just(0), st.integers(0, 2 ** 70))
    else:
        weight = st.one_of(st.just(1.0), st.floats(1e-3, 1.0))
        cell = st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                         st.floats(0.0, 2.0 ** -1022, allow_subnormal=True))
    atoms = tuple(
        (base[0] + stride[0] * draw(st.integers(-2, 2)),
         base[1] + stride[1] * draw(st.integers(-2, 2)), draw(weight))
        for _ in range(draw(st.integers(1, 4))))
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = np.array(draw(st.lists(cell, min_size=n1 * n2, max_size=n1 * n2)),
                 dtype=object if exact else float).reshape(n1, n2)
    lo = (draw(st.integers(-3, 6)), draw(st.integers(-3, 6)))
    kill = (draw(st.none() | st.integers(-4, 8)), draw(st.none() | st.integers(-4, 8)))
    return a, lo, atoms, kill, stride


# one set of buffers per dtype, shared by every example as a run shares its
# own: each step must overwrite what an earlier, other-shaped one left there
_RUN_BUFFERS = {False: _Buffers(float, mapped=True), True: _Buffers(object)}


@given(kernel_cases(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_kill_step_matches_atom_by_atom_reference(case, strided, reuse):
    a, lo, atoms, kill, stride = case
    if strided:  # a box cut on x2 and not peeled is a strided view
        wide = np.zeros((a.shape[0], a.shape[1] + 2), a.dtype)
        wide[:, 2:] = a
        a = wide[:, 2:]
    work = _RUN_BUFFERS[a.dtype == object] if reuse else None
    plan = _step_plan(atoms, stride, 2)
    alive, alive_lo, cuts, dropped = _kill_step(a, lo, plan, kill, 0, work)
    ref, smin = convolve_atoms(a, atoms, stride)
    first = [c + s for c, s in zip(lo, smin)]
    # cells killed on each axis: those below its kill line
    k = [0 if kl is None else sum(f + d * i < kl for i in range(n))
         for f, kl, d, n in zip(first, kill, stride, ref.shape)]
    assert _same(cuts[1], ref[:, :k[1]]) and _same(cuts[0], ref[:k[0], k[1]:])
    # laid out as in a fresh box, so their sums round as they would there
    assert cuts[1].strides == ref[:, :k[1]].strides
    assert cuts[0].strides == ref[:k[0], k[1]:].strides
    assert dropped == 0
    rest = ref[k[0]:, k[1]:]
    if not alive.size:
        assert not np.any(rest != 0)
        return
    off = [(c - f) // d - kk for c, f, d, kk in zip(alive_lo, first, stride, k)]
    box = tuple(slice(o, o + n) for o, n in zip(off, alive.shape))
    assert _same(alive, rest[box])
    outside = rest.copy()
    outside[box] = 0
    assert not np.any(outside != 0)  # the budget 0 peels exact zeros only


def test_step_plan_keeps_a_rational_law_apart_from_its_float_twin():
    # Fraction(1, 4) hashes and compares equal to 0.25, so a plan cached on
    # the atoms alone would hand the rational law the float weights
    floats = ((1, -1, 0.5), (1, 1, 0.25), (-1, 1, 0.25))
    exact = tuple((dx, dy, Fraction(w)) for dx, dy, w in floats)
    assert exact == floats
    moves = _step_plan(floats, (1, 1), 2)[3]
    assert [type(p) for p, *_ in moves] == [float] * 3
    moves = _step_plan(exact, (1, 1), 2)[3]
    assert [p for p, *_ in moves] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert [type(p) for p, *_ in moves] == [Fraction] * 3


def test_kill_step_refuses_shifts_off_the_stride():
    atoms = ((0, 0, 0.5), (1, 0, 0.5))
    for _ in range(2):  # the step plan is cached; its refusal is not
        with pytest.raises(InputError, match="off the lattice"):
            _step_plan(atoms, (2, 1), 2)
