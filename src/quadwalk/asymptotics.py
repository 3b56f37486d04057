"""Closed-form limit densities, asymptotic constants and predictors.

All predictors return the literal predicted value of the finite-n quantity
they model (a probability, or a windowed mass); judging convergence is left
to the verification harness, which pairs each prediction with the exact
dynamic-programming value and emits (n, measured, predicted, ratio) rows.

The boundary density q is derived by the time-reversal decomposition of the
walk at n/2: the n^{-2} coefficient of P(x+S(n)=y, T_x>n) at height y2 is

    index * q((y1 - n mu1)/sqrt(n)) * H(y2) W(x),
    q(z) = 4 kappa kappa' qbar(sqrt(2) z, 0)
         = (kappa kappa' / (2 sqrt(D))) exp(-sigma2^2 z^2 / (2 D)),

with kappa' built from the strict ascending ladder (equivalently the strict
descending ladder of the reversed vertical walk), the combination under
which sqrt(m) P(tau'_y > m) -> kappa' H(y2), and index = det Lambda for the
lattice Lambda of the increments.  Summing over the feasible y1 (spacing
h11) gives the fixed-height line asymptotics with index / h11 = d2:

    P(x2 + S2(n) = y2, T_x > n) ~ d2 W(x) H(y2) int_q / n^{3/2},
    int_q = kappa kappa' sqrt(pi/2) / sigma2.

Both normalizations are validated numerically by the harness.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError
from .steps import Moments

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import ConditionedWalkPipeline

__all__ = [
    "GaussParams",
    "AsymptoticConstants",
    "bm_kernel",
    "density_p",
    "qbar",
    "qbar_convolution",
    "q_density",
    "int_q",
    "int_q_quadrature",
    "integral_p_window",
    "predict_tail",
    "predict_integral",
    "predict_llt",
    "predict_boundary_llt",
    "predict_line",
    "VerifyRow",
    "verify",
]

QUAD_EPSABS = 1e-10
TRUNC_SD = 8.0
# Gauss-Legendre nodes and weights on [-1, 1] for the window's y2 integral
_GL = tuple(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(24))))


class _LazyIntegrate:
    """``scipy.integrate``, imported on first use by the quadrature oracles.

    It stays a module attribute, not a local import, because perfbench's
    tracer replaces ``asymptotics.integrate`` to wrap its quad and dblquad.
    """

    def __getattr__(self, name):
        return getattr(importlib.import_module("scipy.integrate"), name)


integrate = _LazyIntegrate()


@dataclass(frozen=True)
class GaussParams:
    """Drift and covariance feeding every closed-form density."""

    mu1: float
    sigma1sq: float
    sigma2sq: float
    rho: float

    def __post_init__(self):
        if self.sigma1sq <= 0 or self.sigma2sq <= 0:
            raise InputError("variances must be positive")
        if self.D <= 0:
            raise InputError("sigma1^2 sigma2^2 - rho^2 must be positive")

    @property
    def D(self) -> float:
        return self.sigma1sq * self.sigma2sq - self.rho ** 2

    @property
    def sigma2(self) -> float:
        return math.sqrt(self.sigma2sq)

    @classmethod
    def from_moments(cls, m: Moments) -> "GaussParams":
        return cls(mu1=m.mu1, sigma1sq=m.sigma11, sigma2sq=m.sigma22, rho=m.rho)


@dataclass(frozen=True)
class AsymptoticConstants:
    """kappa, kappa' and the integral of the boundary density q."""

    kappa: float
    kappa_prime: float
    int_q: float

    def __post_init__(self):
        if min(self.kappa, self.kappa_prime, self.int_q) <= 0:
            raise InputError("asymptotic constants must be positive")


def bm_kernel(t: float, x, y, mu, gp: GaussParams) -> float:
    """Transition density of Brownian motion killed at leaving the upper half-plane.

    (2 pi t sqrt(D))^-1 (1 - exp(-2 y2 x2 / (t sigma2^2)))
    exp(-Q(y - x - t mu) / (2 t)) with Q the Sigma-inverse quadratic form.
    """
    if t <= 0:
        raise InputError("t must be positive")
    x1, x2 = float(x[0]), float(x[1])
    y1, y2 = float(y[0]), float(y[1])
    if x2 <= 0 or y2 <= 0:
        return 0.0
    h1 = y1 - x1 - t * float(mu[0])
    h2 = y2 - x2 - t * float(mu[1])
    D = gp.D
    quad = (gp.sigma2sq * h1 ** 2 + gp.sigma1sq * h2 ** 2
            - 2 * gp.rho * h1 * h2) / D
    boundary = -math.expm1(-2.0 * y2 * x2 / (t * gp.sigma2sq))
    return boundary * math.exp(-quad / (2 * t)) / (2 * math.pi * t * math.sqrt(D))


def density_p(y, gp: GaussParams) -> float:
    """Limit density of the standardized walk conditioned to stay in the half-plane."""
    y1, y2 = float(y[0]), float(y[1])
    if y2 <= 0:
        return 0.0
    D = gp.D
    quad = (gp.sigma2sq * y1 ** 2 + gp.sigma1sq * y2 ** 2
            - 2 * gp.rho * y1 * y2) / (2 * D)
    return y2 / (gp.sigma2 * math.sqrt(2 * math.pi * D)) * math.exp(-quad)


def qbar(y1: float, gp: GaussParams) -> float:
    """Closed form of the p*p boundary convolution at height 0."""
    D = gp.D
    return math.exp(-gp.sigma2sq * y1 ** 2 / (4 * D)) / (8 * math.sqrt(D))


def qbar_convolution(y1: float, gp: GaussParams,
                     epsabs: float = QUAD_EPSABS) -> float:
    """Quadrature oracle: integral of p(y + yt) p(yt) over R x [0, inf)."""
    s1 = math.sqrt(gp.sigma1sq)
    s2 = gp.sigma2
    lim1 = TRUNC_SD * s1 + abs(y1)
    lim2 = TRUNC_SD * s2

    def f(t2, t1):
        return density_p((y1 + t1, t2), gp) * density_p((t1, t2), gp)

    val, _ = integrate.dblquad(f, -lim1, lim1, 0.0, lim2, epsabs=epsabs)
    return val


def q_density(y1: float, gp: GaussParams, consts: AsymptoticConstants) -> float:
    """Boundary LLT density q(z) = 4 kappa kappa' qbar(sqrt(2) z, 0)."""
    pref = consts.kappa * consts.kappa_prime / (2.0 * math.sqrt(gp.D))
    return pref * math.exp(-gp.sigma2sq * y1 ** 2 / (2.0 * gp.D))


def int_q(gp: GaussParams, kappa: float, kappa_prime: float) -> float:
    """Closed-form integral of q: kappa kappa' sqrt(pi/2) / sigma2."""
    return kappa * kappa_prime * math.sqrt(math.pi / 2.0) / gp.sigma2


def int_q_quadrature(gp: GaussParams, consts: AsymptoticConstants,
                     epsabs: float = QUAD_EPSABS) -> float:
    lim = TRUNC_SD * math.sqrt(gp.D) / gp.sigma2
    val, _ = integrate.quad(lambda z: q_density(z, gp, consts), -lim, lim,
                            epsabs=epsabs)
    return val


def _normal_mass(a: float, b: float) -> float:
    """P(a <= Z < b) for a standard normal Z; erfc in the tails, where erf cancels."""
    if b <= 0:
        a, b = -b, -a
    if a >= 0:
        return 0.5 * (math.erfc(a / math.sqrt(2)) - math.erfc(b / math.sqrt(2)))
    return 0.5 * (math.erf(b / math.sqrt(2)) - math.erf(a / math.sqrt(2)))


def integral_p_window(u, gp: GaussParams) -> float:
    """Integral of p over the unit square u + [0,1)^2.

    Given y2, y1 is Gaussian with mean rho y2 / s^2 and variance D / s^2,
    s = sigma2, so the y1 integral is (y2 / s^2) exp(-y2^2 / (2 s^2))
    P(u1 <= y1 < u1 + 1), an entire function of y2 that 24-node
    Gauss-Legendre integrates.
    """
    u1, u2 = float(u[0]), float(u[1])
    lo2 = max(u2, 0.0)
    if lo2 >= u2 + 1.0:
        return 0.0
    half, mid = 0.5 * (u2 + 1.0 - lo2), 0.5 * (u2 + 1.0 + lo2)
    s2sq = gp.sigma2sq
    sd1 = math.sqrt(gp.D / s2sq)
    total = 0.0
    for t, w in _GL:
        y2 = mid + half * t
        m1 = gp.rho * y2 / s2sq
        total += w * (y2 / s2sq * math.exp(-y2 * y2 / (2.0 * s2sq))
                      * _normal_mass((u1 - m1) / sd1, (u1 + 1.0 - m1) / sd1))
    return half * total


# -- predictors (literal finite-n values; no asymptotic judgment) ----------

def predict_tail(n: int, kappa: float, W: float) -> float:
    """kappa W / sqrt(n)."""
    return kappa * W / math.sqrt(n)


def predict_integral(n: int, u, kappa: float, W: float, gp: GaussParams) -> float:
    """kappa W int_{u+Delta} p / sqrt(n) for the unit window Delta."""
    return kappa * W * integral_p_window(u, gp) / math.sqrt(n)


def predict_llt(y, n: int, index: int, kappa: float, W: float,
                mu, gp: GaussParams) -> float:
    """index kappa W p((y - n mu)/sqrt(n)) / n^{3/2}, index = det Lambda."""
    s = math.sqrt(n)
    z = ((y[0] - n * mu[0]) / s, (y[1] - n * mu[1]) / s)
    return index * kappa * W * density_p(z, gp) / n ** 1.5


def predict_boundary_llt(y, n: int, index: int, H_y2: float, W: float,
                         mu1: float, gp: GaussParams,
                         consts: AsymptoticConstants) -> float:
    """index q((y1 - n mu1)/sqrt(n)) H(y2) W / n^2, index = det Lambda."""
    z1 = (y[0] - n * mu1) / math.sqrt(n)
    return index * q_density(z1, gp, consts) * H_y2 * W / n ** 2


def predict_line(n: int, d2: int, H_y2: float, W: float,
                 consts: AsymptoticConstants) -> float:
    """d2 W H(y2) int_q / n^{3/2}, d2 = h22 = index / h11 (feasible y1 spacing h11)."""
    return d2 * W * H_y2 * consts.int_q / n ** 1.5


# -- verification harness ---------------------------------------------------

@dataclass(frozen=True)
class VerifyRow:
    theorem_id: str
    n: int
    measured: float
    predicted: float
    ratio: float
    dp_error_bound: float


def _row(tid, n, measured, predicted, err=0.0) -> VerifyRow:
    ratio = measured / predicted if predicted != 0 else math.inf
    return VerifyRow(theorem_id=tid, n=n, measured=measured,
                     predicted=predicted, ratio=ratio, dp_error_bound=err)


DEFAULT_WINDOWS = ((-1.0, 0.0), (-0.5, 0.0), (-1.0, 0.5), (-0.5, 0.5))


def verify(theorem_id: str, pipe: "ConditionedWalkPipeline", x=(1, 1),
           n_schedule=(256, 512, 1024, 2048), y=None, y2: int = 1,
           windows=DEFAULT_WINDOWS, notes=None) -> list[VerifyRow]:
    """Compare exact DP values against the matching predictor.

    Returns one row per (n, point); lattice-infeasible requests are skipped
    with a note appended to ``notes`` (a list, when supplied).
    ``n_schedule`` must be nonempty, with every n positive.  ``llt-half``
    kills on x2 only, and its prediction is ``predict_llt`` with V(x2) in
    place of W.
    """
    from . import dp as dpmod

    def note(msg):
        if notes is not None:
            notes.append(msg)

    schedule = sorted(set(int(n) for n in n_schedule))
    if not schedule:
        raise InputError("the n schedule is empty")
    if schedule[0] <= 0:
        raise InputError(f"schedule entries must be positive, got {schedule[0]}")
    rows: list[VerifyRow] = []
    gp = pipe.gauss
    mu = pipe.moments.mu

    if theorem_id == "qbar":
        for y1 in (-3.0, -1.0, 0.0, 1.0, 3.0):
            rows.append(_row(f"qbar(y1={y1})", 0,
                             qbar_convolution(y1, gp), qbar(y1, gp)))
        return rows

    if theorem_id == "kernel":
        samples = [(0.5, 0.7, (0.0, 0.4), (0.3, 0.8)),
                   (1.0, 1.0, (-0.5, 1.0), (1.5, 0.5))]
        for s, t, xx, yy in samples:
            lim1 = TRUNC_SD * math.sqrt((s + t) * gp.sigma1sq) + abs(xx[0]) + abs(yy[0]) + (s + t) * abs(gp.mu1)
            lim2 = TRUNC_SD * math.sqrt((s + t) * gp.sigma2sq) + xx[1] + yy[1]
            mu_v = (gp.mu1, 0.0)
            val, _ = integrate.dblquad(
                lambda z2, z1: bm_kernel(s, xx, (z1, z2), mu_v, gp)
                * bm_kernel(t, (z1, z2), yy, mu_v, gp),
                -lim1, lim1, 0.0, lim2, epsabs=1e-9,
            )
            rows.append(_row(f"kernel(ck:s={s},t={t})", 0, val,
                             bm_kernel(s + t, xx, yy, mu_v, gp)))
        return rows

    if theorem_id not in ("tail", "integral", "llt", "llt-half",
                          "boundary-llt", "line"):
        raise InputError(f"unknown theorem id {theorem_id!r}")
    half = theorem_id == "llt-half"
    spec = (dpmod.ExitSpec(region=dpmod.Region.UPPER_HALF_PLANE,
                           conv=pipe.spec.conv) if half else pipe.spec)
    W = pipe.v_eff(x[1]) if half else pipe.w_value(x)
    snaps = dpmod.run_dp(pipe.sd, x, spec, schedule[-1], snapshots=schedule,
                         barrier="auto" if theorem_id in ("tail", "line") else None)
    kappa = pipe.consts.kappa
    for n in schedule:
        m = snaps[n]
        err = m.error_bound()
        if theorem_id == "tail":
            rows.append(_row("tail", n, m.survival(), predict_tail(n, kappa, W), err))
        elif theorem_id == "integral":
            rows += [_row(f"integral(u={u[0]}:{u[1]})", n, m.window_mass(u, mu),
                          predict_integral(n, u, kappa, W, gp), err)
                     for u in windows]
        elif theorem_id == "line":
            if pipe.lattice.row(n, y2 - x[1]) is None:
                note(f"n={n}: height {y2} unreachable; skipped")
                continue
            rows.append(_row(f"line(y2={y2})", n, m.line_sum(y2), predict_line(
                n, pipe.lattice.d2, pipe.H(y2), W, pipe.consts), err))
        elif theorem_id == "boundary-llt":
            yy = pipe.nearest_lattice_point(x, n, (n * mu[0], y2), fixed_y2=True)
            if yy is None:
                note(f"n={n}: no lattice point at height {y2}; skipped")
                continue
            pred = predict_boundary_llt(yy, n, pipe.lattice.index, pipe.H(y2),
                                        W, mu[0], gp, pipe.consts)
            rows.append(_row(f"boundary-llt(y={yy[0]}:{yy[1]})", n,
                             m.local(yy), pred, err))
        else:  # llt and llt-half
            if y is None:
                yy = pipe.nearest_lattice_point(
                    x, n, (n * mu[0], max(math.sqrt(n), pipe.spec.threshold)))
            else:
                yy = tuple(y)
                if not pipe.feasible(x, n, yy):
                    note(f"n={n}: y={yy} not in the reachable lattice; skipped")
                    continue
            pred = predict_llt(yy, n, pipe.lattice.index, kappa, W, mu, gp)
            rows.append(_row(f"{theorem_id}(y={yy[0]}:{yy[1]})", n,
                             m.local(yy), pred, err))
    return rows
