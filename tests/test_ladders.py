"""Ladder laws, renewal tables, kappa, Wiener-Hopf and the convention test."""

import math
from collections import defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadwalk import compute_moments, validate_steps
from quadwalk.errors import (
    InputError,
    NonzeroDriftError,
    NumericError,
    UnsupportedLatticeError,
)
from quadwalk.ladders import (
    BoundaryConvention,
    CrossingSolver,
    LadderDist,
    ascending_ladder,
    descending_ladder,
    harmonicity_residual,
    kappa,
    renewal_H,
    renewal_V,
    resolve_convention,
)
from quadwalk.pipeline import ConditionedWalkPipeline

from oracles import direct_renewal_series

SQ2PI = math.sqrt(2.0 / math.pi)


def fair_pm1():
    # horizontal part irrelevant for ladder computations
    return validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])


def lazy_pm1():
    return validate_steps([((0, -1), 1.0), ((0, 0), 2.0), ((0, 1), 1.0)])


def up_two():
    return validate_steps([((0, -1), 2.0), ((0, 2), 1.0)])


class TestDescending:
    def test_fair_is_bernoulli_half(self):
        ld = descending_ladder(fair_pm1())
        assert ld.pmf[0] == pytest.approx(0.5, abs=1e-12)
        assert ld.pmf[1] == pytest.approx(0.5, abs=1e-12)
        assert ld.truncation_error <= 1e-10
        assert ld.mean == pytest.approx(0.5, abs=1e-12)

    def test_lazy_walk(self):
        ld = descending_ladder(lazy_pm1())
        assert ld.pmf[0] == pytest.approx(0.75, abs=1e-12)
        assert ld.pmf[1] == pytest.approx(0.25, abs=1e-12)

    def test_nonzero_drift_rejected(self):
        sd = validate_steps([((0, -1), 1.0)])
        with pytest.raises(NonzeroDriftError):
            descending_ladder(sd)

    def test_strict_variant(self):
        # strict descending of the fair walk never lands at 0
        ld = descending_ladder(fair_pm1(),
                               conv=BoundaryConvention.KILL_ON_NEGATIVE)
        assert set(ld.pmf) == {1}
        assert ld.pmf[1] == pytest.approx(1.0, abs=1e-12)


class TestAscending:
    def test_fair(self):
        ld = ascending_ladder(fair_pm1())
        assert set(ld.pmf) == {1}
        assert ld.mean == pytest.approx(1.0, abs=1e-12)

    def test_lazy(self):
        ld = ascending_ladder(lazy_pm1())
        assert set(ld.pmf) == {1}

    def test_up_two(self):
        # frozen values; test_wiener_hopf_factorization checks the law
        ld = ascending_ladder(up_two())
        assert ld.pmf[1] == pytest.approx(0.5, abs=1e-10)
        assert ld.pmf[2] == pytest.approx(0.5, abs=1e-10)
        assert ld.truncation_error <= 1e-10


class TestRenewal:
    def test_V_bernoulli_series_oracle(self):
        ld = descending_ladder(fair_pm1())
        table = renewal_V(ld, 6)
        assert list(table.values[:3]) == pytest.approx([2.0, 4.0, 6.0], abs=1e-10)
        oracle = direct_renewal_series({0: 0.5, 1: 0.5}, 6, kmax=200)
        assert list(table.values) == pytest.approx(oracle, abs=1e-9)

    def test_V_prefix_independent_of_table_length(self):
        # the pipeline grows its table by doubling and relies on this
        for sd in (fair_pm1(), up_two()):
            ld = descending_ladder(sd)
            short = renewal_V(ld, 100).values
            assert list(renewal_V(ld, 777).values[:101]) == list(short)

    def test_V_negative_argument(self):
        ld = descending_ladder(fair_pm1())
        assert renewal_V(ld, 4)(-1) == 0.0

    def test_V_deterministic(self):
        ld = LadderDist(pmf={1: 1.0}, truncation_error=0.0, mean=1.0)
        table = renewal_V(ld, 10)
        assert list(table.values) == pytest.approx(
            [u + 1.0 for u in range(11)], abs=1e-12)

    def test_V_rejects_zero_mean(self):
        ld = LadderDist(pmf={0: 1.0}, truncation_error=0.0, mean=0.0)
        with pytest.raises(InputError):
            renewal_V(ld, 5)

    def test_H_linear_for_fair(self):
        table = renewal_H(ascending_ladder(fair_pm1()), 100)
        assert list(table.values) == pytest.approx(
            [float(u) for u in range(101)], rel=1e-12, abs=1e-12)

    def test_H_zero_at_zero(self):
        assert renewal_H(ascending_ladder(fair_pm1()), 5)(0) == 0.0

    def test_H_deterministic_two(self):
        ld = LadderDist(pmf={2: 1.0}, truncation_error=0.0, mean=2.0)
        assert renewal_H(ld, 4)(3) == pytest.approx(2.0, abs=1e-12)

    def test_H_series_oracle_up_two(self):
        ld = ascending_ladder(up_two())
        table = renewal_H(ld, 8)
        oracle = direct_renewal_series(ld.pmf, 8, kmax=40, strict_lt=True,
                                       indicator_gt=True)
        assert list(table.values) == pytest.approx(oracle, abs=1e-9)

    def test_tables_monotone(self):
        for sd in (fair_pm1(), lazy_pm1(), up_two()):
            v = renewal_V(descending_ladder(sd), 60).values
            h = renewal_H(ascending_ladder(sd), 60).values
            assert np.all(np.diff(v) >= -1e-12)
            assert np.all(np.diff(h) >= -1e-12)
            assert np.all(v >= 1.0 - 1e-12)

    @pytest.mark.parametrize("sd_fn,mean", [(fair_pm1, 0.5), (lazy_pm1, 0.25)])
    def test_elementary_renewal_slope(self, sd_fn, mean):
        table = renewal_V(descending_ladder(sd_fn()), 500)
        assert table(500) / 500.0 == pytest.approx(1.0 / mean, rel=0.02)

    def test_H_elementary_renewal_slope(self):
        ld = ascending_ladder(up_two())
        table = renewal_H(ld, 500)
        assert table(500) / 500.0 == pytest.approx(1.0 / ld.mean, rel=0.02)


def convolution_renewal_V(ld, U):
    """V summed over the convolution powers of the ladder law, term by term."""
    p0 = ld.pmf.get(0, 0.0)
    pos = np.zeros(ld.max_value() + 1)
    for j, p in ld.pmf.items():
        if j > 0:
            pos[j] = p / (1.0 - p0)
    S, f = np.zeros(U + 1), np.zeros(U + 1)
    f[0] = 1.0
    while f.any():
        S += np.cumsum(f)
        f = np.convolve(f, pos)[:U + 1]
    return S / (1.0 - p0)


@pytest.mark.parametrize("sd_fn", [fair_pm1, lazy_pm1, up_two])
def test_renewal_V_matches_convolution_powers(sd_fn):
    ld = descending_ladder(sd_fn())
    want = convolution_renewal_V(ld, 2000)
    assert renewal_V(ld, 2000).values == pytest.approx(want, rel=1e-12)


@st.composite
def zero_drift_laws(draw, reach=3, most=2):
    """Vertical laws on [-reach, reach] with zero drift, support gcd 1, at
    most ``most`` up and ``most`` down steps, maybe a lazy step."""
    ups = draw(st.lists(st.integers(1, reach), min_size=1, max_size=most,
                        unique=True))
    downs = draw(st.lists(st.integers(1, reach), min_size=1, max_size=most,
                          unique=True))
    assume(math.gcd(*ups, *downs) == 1)
    wu = draw(st.lists(st.floats(0.1, 1.0), min_size=len(ups), max_size=len(ups)))
    wd = draw(st.lists(st.floats(0.1, 1.0), min_size=len(downs),
                       max_size=len(downs)))
    scale = (math.fsum(u * w for u, w in zip(ups, wu))
             / math.fsum(d * w for d, w in zip(downs, wd)))
    steps = ([((0, u), w) for u, w in zip(ups, wu)]
             + [((0, -d), w * scale) for d, w in zip(downs, wd)])
    if draw(st.booleans()):
        steps.append(((0, 0), draw(st.floats(0.1, 1.0))))
    return validate_steps(steps)


@given(zero_drift_laws())
@settings(max_examples=25, deadline=None)
def test_renewal_tables_match_direct_series(sd):
    U = 8
    ld = descending_ladder(sd)
    assert list(renewal_V(ld, U).values) == pytest.approx(
        direct_renewal_series(ld.pmf, U), rel=1e-9, abs=1e-9)
    lp = ascending_ladder(sd)
    assert list(renewal_H(lp, U).values) == pytest.approx(
        direct_renewal_series(lp.pmf, U, strict_lt=True, indicator_gt=True),
        rel=1e-9, abs=1e-9)


class TestMassChecks:
    def test_ladder_mass_above_one_raises(self, monkeypatch):
        # the mass alive after the first step is completed through the
        # crossing solver; doubling its law puts the total mass above 1
        real = CrossingSolver.overshoot_matrix
        monkeypatch.setattr(CrossingSolver, "overshoot_matrix",
                            lambda self, h: 2.0 * real(self, h))
        with pytest.raises(NumericError) as info:
            descending_ladder(fair_pm1())
        assert info.value.residual < -1e-12

    def test_overshoot_outside_unit_interval_raises(self):
        solver = CrossingSolver({-2: 0.25, -1: 0.25, 1: 0.25, 2: 0.25})
        X = solver.overshoot_matrix(np.arange(1, 6))
        assert X.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-12)
        solver.coeffs = 3.0 * solver.coeffs
        with pytest.raises(NumericError):
            solver.overshoot_matrix(np.arange(1, 6))

    def test_interior_root_count_mismatch_is_numeric(self, monkeypatch):
        # with gcd 1 a zero-drift law has exactly d - 1 interior roots, so
        # a miscount can only come from the root finder
        monkeypatch.setattr(np, "roots", lambda c: np.full(len(c) - 1, 2.0))
        with pytest.raises(NumericError, match="interior roots"):
            CrossingSolver({-2: 0.25, -1: 0.25, 1: 0.25, 2: 0.25})

    def test_support_on_a_sublattice_refused_exactly(self):
        # all values in 2Z: z = -1 is a characteristic root as well
        with pytest.raises(UnsupportedLatticeError, match="2Z"):
            CrossingSolver({-2: 0.25, 0: 0.5, 2: 0.25})

    def test_truncation_error_is_signed(self):
        # rounding may leave the completed mass a few ulp above 1; the
        # residual is reported as it is, not clamped to 0
        for sd in (fair_pm1(), lazy_pm1(), up_two()):
            for ld in (descending_ladder(sd), ascending_ladder(sd)):
                assert abs(ld.truncation_error) <= 1e-12
                assert ld.truncation_error == 1.0 - math.fsum(ld.pmf.values())


class TestKappa:
    def test_bernoulli(self):
        assert kappa(descending_ladder(fair_pm1()), 1.0) == pytest.approx(
            0.5 * SQ2PI, abs=1e-12)

    def test_deterministic(self):
        ld = LadderDist(pmf={1: 1.0}, truncation_error=0.0, mean=1.0)
        assert kappa(ld, 1.0) == pytest.approx(SQ2PI, abs=1e-15)
        assert kappa(ld, 2.0) == pytest.approx(0.5 * SQ2PI, abs=1e-15)

    def test_lazy(self):
        # vertical variance 1/2: kappa carries 1 / sqrt(1/2)
        sigma2 = math.sqrt(compute_moments(lazy_pm1()).sigma22)
        assert kappa(descending_ladder(lazy_pm1()), sigma2) == pytest.approx(
            0.25 * SQ2PI * math.sqrt(2.0), abs=1e-12)


class TestConvention:
    def test_exactly_one_passes(self):
        rep = resolve_convention(fair_pm1())
        assert rep.selected is BoundaryConvention.KILL_ON_NEGATIVE
        assert rep.max_residual_selected <= 1e-9
        assert rep.max_residual_rejected > 1e-9

    def test_report_carries_its_ladder(self):
        rep = resolve_convention(fair_pm1())
        assert rep.ladder == descending_ladder(fair_pm1())

    def test_lazy_walk_same_convention(self):
        rep = resolve_convention(lazy_pm1())
        assert rep.selected is BoundaryConvention.KILL_ON_NEGATIVE

    def test_residual_helper_fair(self):
        # V(u) = 2(u+1) for the fair walk: harmonic when killing on < 0
        pmf = {-1: 0.5, 1: 0.5}
        table = np.array([2.0 * (u + 1) for u in range(60)])
        assert harmonicity_residual(
            pmf, table, BoundaryConvention.KILL_ON_NEGATIVE, range(1, 50)) < 1e-12
        assert harmonicity_residual(
            pmf, table, BoundaryConvention.KILL_ON_NONPOSITIVE, [1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("conv,shift", [
        (BoundaryConvention.KILL_ON_NONPOSITIVE, 1),
        (BoundaryConvention.KILL_ON_NEGATIVE, 0)])
    def test_v_eff_pairs_V_with_the_pipeline_kill_rule(self, conv, shift):
        # V is harmonic when killing on < 0, so a walk killed on <= 0 reads
        # it one unit lower
        pipe = ConditionedWalkPipeline.build(fair_pm1(), conv)
        for u in range(8):
            assert pipe.v_eff(u) == pipe.V(u - shift)
        assert list(pipe.v_eff_vector(7)) == [pipe.V(u - shift) for u in range(8)]


@given(zero_drift_laws(reach=4, most=3))
@settings(max_examples=60, deadline=None)
def test_wiener_hopf_factorization(sd):
    # 1 - E z^X = (1 - E z^chi+) (1 - E z^-chi-), chi+ strict ascending and
    # chi- weak descending, compared coefficient by coefficient
    a = ascending_ladder(sd).pmf
    b = descending_ladder(sd).pmf
    lhs, rhs = defaultdict(float, {0: 1.0}), defaultdict(float, {0: 1.0})
    for s, q in sd.vertical_pmf().items():
        lhs[s] -= q
    for j, q in a.items():
        rhs[j] -= q
    for k, q in b.items():
        rhs[-k] -= q
    for (j, qa), (k, qb) in product(a.items(), b.items()):
        rhs[j - k] += qa * qb
    assert max(abs(lhs[s] - rhs[s]) for s in set(lhs) | set(rhs)) <= 1e-12
