"""The library's scipy-free Chernoff rates and window integral against scipy.

scipy is a reference here only: ``dp.chernoff_gamma`` and ``dp._mgf_min``
bisect to adjacent floats, and ``integral_p_window`` integrates y1 in closed
form and y2 by Gauss-Legendre.
"""

import math
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.optimize import brentq, minimize_scalar

from quadwalk import compute_moments, dp, load_steps, validate_steps
from quadwalk.asymptotics import GaussParams, density_p, integral_p_window

ROOT = Path(__file__).parents[1]
TILTED = ROOT / "steps" / "tilted-singular.json"
LAWS = (TILTED, ROOT / "perfbench" / "steps" / "wgrid.json",
        ROOT / "steps" / "index3.json")


def phi(hp, s):
    return math.fsum(p * math.exp(-s * v) for v, p in hp.items())


def dphi(hp, s):
    return math.fsum(-v * p * math.exp(-s * v) for v, p in hp.items())


@st.composite
def drifting_laws(draw):
    """Small laws with mu1 > 0 and a step to the left, so gamma is finite."""
    k = draw(st.integers(min_value=3, max_value=5))
    steps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    sd = validate_steps(list(zip(steps, weights)))
    assume(compute_moments(sd).mu1 > 0 and min(sd.horizontal_pmf()) < 0)
    return sd


def check_gamma(sd):
    hp = sd.horizontal_pmf()
    gamma = dp.chernoff_gamma(sd)
    assert phi(hp, gamma) <= 1.0
    hi = 1.0
    while phi(hp, hi) <= 1.0:
        hi *= 2.0
    s_star = minimize_scalar(lambda s: phi(hp, s), bounds=(1e-9, 50.0),
                             method="bounded", options={"xatol": 1e-12}).x
    ref = brentq(lambda s: math.log(phi(hp, s)), s_star, hi, xtol=1e-300,
                 rtol=4 * sys.float_info.epsilon)
    # both sit where the computed log phi changes sign, which rounding
    # blurs by a few eps over the slope of log phi at the root
    slope = dphi(hp, ref) / phi(hp, ref)
    assert abs(gamma - ref) <= 8 * math.ulp(ref) + 8 * sys.float_info.epsilon / slope
    for x in ((1, 1), (3, 2)):
        with patch.object(dp, "chernoff_gamma", return_value=ref):
            want = dp.auto_barrier(sd, x)
        assert dp.auto_barrier(sd, x) == want


def check_phi_min(sd):
    hp = sd.horizontal_pmf()
    s_star, phi_min = dp._mgf_min(hp)
    assert phi_min == phi(hp, s_star)
    assert dphi(hp, s_star) <= 0 < dphi(hp, math.nextafter(s_star, math.inf))
    ref = minimize_scalar(lambda s: phi(hp, s), bounds=(1e-9, 50.0),
                          method="bounded", options={"xatol": 1e-12})
    assert phi_min == pytest.approx(ref.fun, rel=1e-15, abs=0)


@given(drifting_laws())
@settings(max_examples=60, deadline=None)
def test_gamma_matches_brentq_from_below(sd):
    check_gamma(sd)


@given(drifting_laws())
@settings(max_examples=60, deadline=None)
def test_phi_min_matches_minimize_scalar(sd):
    check_phi_min(sd)


@pytest.mark.parametrize("law", LAWS, ids=lambda p: p.stem)
def test_rates_on_committed_laws(law):
    sd = load_steps(law)
    check_gamma(sd)
    check_phi_min(sd)


def test_tilted_rates_in_closed_form():
    # phi(s) = (3 e^-s + e^s) / 4: s* = ln 3 / 2, phi(s*) = sqrt(3) / 2, gamma = ln 3
    sd = load_steps(TILTED)
    s_star, phi_min = dp._mgf_min(sd.horizontal_pmf())
    assert abs(s_star - math.log(3) / 2) <= math.ulp(s_star)
    assert phi_min == pytest.approx(math.sqrt(3) / 2, rel=1e-15, abs=0)
    assert abs(dp.chernoff_gamma(sd) - math.log(3)) <= 2 * math.ulp(math.log(3))


def window_ref(u, gp):
    lo2 = max(u[1], 0.0)
    return dblquad(lambda t2, t1: density_p((t1, t2), gp), u[0], u[0] + 1.0,
                   lo2, u[1] + 1.0, epsabs=1e-15, epsrel=1e-14)[0]


@st.composite
def gauss_params(draw):
    s1 = draw(st.floats(0.3, 3.0))
    s2 = draw(st.floats(0.3, 3.0))
    r = draw(st.floats(-0.9, 0.9))
    return GaussParams(mu1=draw(st.floats(0.0, 1.0)), sigma1sq=s1 * s1,
                       sigma2sq=s2 * s2, rho=r * s1 * s2)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@given(gauss_params(),
       st.tuples(st.floats(-4.0, 3.0), st.floats(-0.9, 3.0)) | st.just((2.0, 3.0)))
@settings(max_examples=60, deadline=None)
def test_window_matches_dblquad(gp, u):
    assert integral_p_window(u, gp) == pytest.approx(window_ref(u, gp),
                                                     rel=1e-13, abs=1e-15)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("u", [(-1.0, 0.0), (-0.5, 0.5), (2.0, 3.0), (-3.0, 2.0)])
def test_window_on_tilted_law(u):
    gp = GaussParams.from_moments(compute_moments(load_steps(TILTED)))
    assert integral_p_window(u, gp) == pytest.approx(window_ref(u, gp),
                                                     rel=1e-14, abs=0)
