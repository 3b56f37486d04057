"""The quadrant harmonic function W.

W(x) is the limit of the nonincreasing sequence E[V(x2 + S2(n)); T_x > n],
where V is the renewal function paired with the walk's kill rule.  Each
evaluation is one dynamic-programming run with V-weighted terminal
aggregation; the bracket below the monotone upper value comes from a
Chernoff bound on late horizontal exits combined with the linear growth of
V.  The Doob-transformed walk (transition weights V(y2)/V(x2)) yields
W(x) = V(x2) * Phat(sigma_x > n), algebraically equal at every finite n and
used as a cross-check.  Both run on the package's one propagation kernel,
``steps._kill_step``: the series through ``dp.step_measure``, the Doob walk
directly with V as the kernel's per-height weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .dp import ExitSpec, QuadrantMeasure, chernoff_gamma, step_measure
from .errors import InputError
from .steps import StepDistribution, _kill_step, _stride

__all__ = [
    "HarmonicEstimate",
    "TailBound",
    "w_series",
    "w_hat_survival",
    "w_check_harmonic",
    "export_w_grid",
]


@dataclass(frozen=True)
class HarmonicEstimate:
    """Bracketed value of W(x)."""

    value: float
    upper: float
    lower: float
    n_used: int
    warned: bool = False
    history: tuple[tuple[int, float], ...] = ()

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class TailBound:
    """Ingredients for the bracket on E[V(x2+S2(sigma)); sigma > n].

    ``phi_min`` is min_s E[exp(-s X1)] and ``s_star`` its argmin, so
    P(sigma_x = k) <= exp(-s* x1) phi_min^k; ``v_slope`` bounds V(u) <= v_slope*u
    (the geometric resummation gives V_weak(u) <= (u+1)/(1-p0)).
    """

    s_star: float
    phi_min: float
    v_slope: float
    max_dy: int

    def tail(self, x, n: int) -> float:
        """Bound on sum_{k>n} E[V(x2+S2(k)); tau>k, sigma=k]."""
        if self.phi_min >= 1.0:
            return math.inf
        if self.phi_min == 0.0:
            return 0.0
        r = self.phi_min
        a = self.v_slope * (x[1] + 0.0)
        b = self.v_slope * self.max_dy
        g = r ** (n + 1) / (1 - r)
        return math.exp(-self.s_star * x[0]) * (
            (a + b * (n + 1)) * g + b * r * g / (1 - r)
        )


def make_tail_bound(sd: StepDistribution, v_slope: float) -> TailBound:
    """Chernoff ingredients for the W bracket."""
    hp = sd.horizontal_pmf()
    if min(hp) >= 0:
        # the walk never moves left: sigma_x is impossible from x1 >= 1
        return TailBound(s_star=0.0, phi_min=0.0, v_slope=v_slope,
                         max_dy=sd.max_abs_dy())

    def neg_mgf(s):
        return math.fsum(p * math.exp(-s * v) for v, p in hp.items())

    res = minimize_scalar(neg_mgf, bounds=(1e-9, 50.0), method="bounded",
                          options={"xatol": 1e-12})
    return TailBound(s_star=float(res.x), phi_min=float(res.fun),
                     v_slope=v_slope, max_dy=sd.max_abs_dy())


def _v_weighted_mass(m: QuadrantMeasure, v_eff: np.ndarray) -> float:
    """sum over the measure of V_eff at the vertical coordinate."""
    lo, d, col = m.vertical_marginal()
    hi = lo + d * len(col)
    if hi - d + 1 > len(v_eff):
        raise InputError(f"V table too short: need {hi - d + 1}, have {len(v_eff)}")
    return float(col @ v_eff[lo:hi:d])


def w_series(sd: StepDistribution, x, spec: ExitSpec, v_eff: np.ndarray,
             tail_bound: TailBound, n_max: int = 2048, tol: float = 1e-10,
             barrier: int | None = None) -> HarmonicEstimate:
    """Bracketed W(x) = lim_n E[V_eff(x2 + S2(n)); T_x > n].

    The expectation is evaluated along n = 2^k; it is nonincreasing and
    supplies the upper end of the bracket, the Chernoff tail bound the
    lower end.  Stops as soon as the bracket is narrower than ``tol``;
    if that never happens the widest-n estimate is returned with
    ``warned=True``.
    """
    gamma = chernoff_gamma(sd) if barrier is not None else math.inf
    m = QuadrantMeasure.point_mass(x, spec, barrier=barrier, gamma=gamma)
    checkpoints = []
    k = 1
    while k <= n_max:
        checkpoints.append(k)
        k *= 2
    if not checkpoints or checkpoints[-1] != n_max:
        checkpoints.append(n_max)
    history = [(0, _v_weighted_mass(m, v_eff))]
    best = None
    for n_target in checkpoints:
        while m.n < n_target:
            m = step_measure(m, sd)
        upper = _v_weighted_mass(m, v_eff)
        history.append((m.n, upper))
        width = tail_bound.tail(x, m.n)
        # barrier bias: leaked mass never horizontally killed again
        if m.barrier is not None and m.leaked_total > 0:
            vmax_reach = x[1] + m.n * tail_bound.max_dy
            width += (m.leaked_total * math.exp(-m.gamma * (m.barrier + 1))
                      * tail_bound.v_slope * vmax_reach)
        # float accumulation allowance for the DP sums
        width += 1e-13 * max(1.0, upper) * math.sqrt(max(m.n, 1))
        best = HarmonicEstimate(
            value=upper - 0.5 * min(width, upper),
            upper=upper,
            lower=max(upper - width, 0.0),
            n_used=m.n,
            warned=False,
            history=tuple(history),
        )
        if best.width <= tol:
            return best
    return HarmonicEstimate(
        value=best.value, upper=best.upper, lower=best.lower,
        n_used=best.n_used, warned=True, history=best.history,
    )


def w_hat_survival(sd: StepDistribution, x, spec: ExitSpec,
                   v_eff: np.ndarray, n_max: int) -> float:
    """V_eff(x2) * Phat(sigma_x > n_max) under the V-transformed kernel.

    The kernel Phat(x, y) = V_eff(y2)/V_eff(x2) P(step) is killed on
    leaving the quadrant; where V_eff vanishes at killed heights only the
    horizontal kill removes mass.  Algebraically equal to the w_series
    expectation at the same n.
    """
    x1, x2 = int(x[0]), int(x[1])
    t = spec.threshold
    if x1 < t or x2 < t:
        raise InputError(f"start {x} is outside the survival region")
    if v_eff[x2] <= 0:
        raise InputError("V_eff vanishes at the starting height")
    A, lo, stride = np.ones((1, 1)), (x1, x2), _stride(sd.atoms)
    for _ in range(n_max):
        A, lo, _, _ = _kill_step(A, lo, sd.atoms, (t, t), stride, weight=v_eff)
    return float(v_eff[x2] * A.sum())


def w_check_harmonic(sd: StepDistribution, w_eval, x, spec: ExitSpec) -> float:
    """|W(x) - sum_steps p W(x + step) 1{survive}|."""
    t = spec.threshold
    s = 0.0
    for dx, dy, w in sd.atoms:
        nx = (x[0] + dx, x[1] + dy)
        ok = True
        if spec.kills_x1 and nx[0] < t:
            ok = False
        if spec.kills_x2 and nx[1] < t:
            ok = False
        if ok:
            s += w * w_eval(nx)
    return abs(w_eval(x) - s)


def export_w_grid(estimates: dict[tuple[int, int], HarmonicEstimate], fh) -> None:
    """CSV export: x1, x2, lower, value, upper, n_used."""
    fh.write("x1,x2,lower,value,upper,n_used\n")
    for (x1, x2) in sorted(estimates):
        e = estimates[(x1, x2)]
        fh.write(f"{x1},{x2},{e.lower!r},{e.value!r},{e.upper!r},{e.n_used}\n")
