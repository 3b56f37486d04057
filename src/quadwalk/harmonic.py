"""The quadrant harmonic function W.

W(x) is the limit of the nonincreasing sequence E[V(x2 + S2(n)); T_x > n],
where V is the renewal function paired with the walk's kill rule.  One
backward pass evaluates it at every start of a rectangle: the iterate
f_{k+1}(y) = sum_s p f_k(y + s), f_0 = V, is that expectation at time k for
all y at once.  The bracket below the monotone upper value comes from a
Chernoff bound on late horizontal exits combined with the linear growth of
V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# step_measure is re-exported: the benchmark's tracer test reads it here
from .dp import ExitSpec, _mgf_min, chernoff_gamma, step_measure  # noqa: F401
from .errors import BarrierError, InputError
from .steps import StepDistribution, compute_moments

__all__ = [
    "HarmonicEstimate",
    "TailBound",
    "w_rect",
    "w_check_harmonic",
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

    ``s_star`` is where the bisected phi' of phi(s) = E[exp(-s X1)] turns
    positive on [1e-9, 50] and ``phi_min`` is phi(s*); P(sigma_x = k) <=
    exp(-s x1) phi(s)^k at every s > 0, so the pair is a bound however s* is
    rounded.  ``v_slope`` bounds V(u) <= v_slope*u
    (the geometric resummation gives V_weak(u) <= (u+1)/(1-p0)).  ``gamma``
    is the barrier rate of ``dp.chernoff_gamma``, 0 without a positive drift.
    """

    s_star: float
    phi_min: float
    v_slope: float
    max_dy: int
    gamma: float

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

    def leak(self, x, n: int, barrier: int) -> float:
        """Barrier bias after n steps: leaked mass (at most 1) never killed again."""
        return (math.exp(-self.gamma * (barrier + 1)) * self.v_slope
                * (x[1] + n * self.max_dy))


def make_tail_bound(sd: StepDistribution, v_slope: float) -> TailBound:
    """Chernoff ingredients for the W bracket."""
    hp = sd.horizontal_pmf()
    if min(hp) >= 0:
        # the walk never moves left: sigma_x is impossible from x1 >= 1
        return TailBound(s_star=0.0, phi_min=0.0, v_slope=v_slope,
                         max_dy=sd.max_abs_dy(), gamma=math.inf)

    s_star, phi_min = _mgf_min(hp)
    gamma = chernoff_gamma(sd) if compute_moments(sd).mu1 > 0 else 0.0
    return TailBound(s_star=s_star, phi_min=phi_min, v_slope=v_slope,
                     max_dy=sd.max_abs_dy(), gamma=gamma)


def _pull(g: np.ndarray, atoms, origin, shape) -> np.ndarray:
    """out[i] = sum over (shift, ..., p) atoms of p * g[origin + shift + i]."""
    out = np.zeros(shape)
    for *shift, p in atoms:
        out += p * g[tuple(slice(o + s, o + s + k)
                           for o, s, k in zip(origin, shift, shape))]
    return out


def w_rect(sd: StepDistribution, x, spec: ExitSpec, v: np.ndarray,
           tail_bound: TailBound, tol: float, n_max: int,
           barrier: int) -> dict[tuple[int, int], HarmonicEstimate]:
    """Bracketed W(y) = lim_n E[v(y2 + S2(n)); T_y > n] on x's rectangle.

    The rectangle [x1, L - max|dx|] x [t, x2], L = ``barrier`` and t the
    quadrant threshold, holds the starts whose ``auto_barrier`` equals x's
    and whose a-priori bracket is no wider.  The backward iterate
    f_{k+1}(y) = sum_s p f_k(y + s), f_0 = v, runs on the strip
    [t, L] x [t, x2 + N max(dy)], which loses its top max(dy) rows per step;
    f is 0 at killed points, and past column L it is the vertical-only
    iterate of v, as the forward run's leaked measure is.  Each start is read
    at n = 1, 2, 4, ... and n_max, and takes the first n whose bracket is
    within ``tol`` (``warned=True`` if none).  The horizon N is the first
    such n for x's a-priori width, whose upper value v(x2 + max|dy|) bounds
    f_n for V and for the identity weight of a driftless vertical walk
    (optional stopping).  A value depends only on its own start, so every
    rectangle that holds a start gives it the same estimate.
    """
    x1, x2 = int(x[0]), int(x[1])
    t, max_dx = spec.threshold, sd.max_abs_dx()
    if not (spec.kills_x1 and spec.kills_x2 and spec.contains((x1, x2))):
        raise InputError(f"start {x} is not inside the quadrant")
    if barrier < x1 + max_dx:
        raise BarrierError(f"barrier {barrier} below x1 + max |dx| = {x1 + max_dx}")

    def width(y, n, upper):
        return (tail_bound.tail(y, n) + tail_bound.leak(y, n, barrier)
                + 1e-13 * max(1.0, upper) * math.sqrt(max(n, 1)))

    checkpoints = [1 << k for k in range(n_max.bit_length())]
    if checkpoints[-1] != n_max:
        checkpoints.append(n_max)
    v_top = float(v[x2 + tail_bound.max_dy])
    N = next((n for n in checkpoints if width((x1, x2), n, v_top) <= tol), n_max)

    dxs, dys = [a[0] for a in sd.atoms], [a[1] for a in sd.atoms]
    left, right = max(-min(dxs), 0), max(max(dxs), 0)
    down, up = max(-min(dys), 0), max(max(dys), 0)
    if x2 + N * up >= len(v):
        raise InputError(f"V table too short: need {x2 + N * up + 1}, have {len(v)}")
    ncol = barrier - t + 1
    h = np.asarray(v[t:x2 + N * up + 1], dtype=float)
    f = np.tile(h, (ncol, 1))
    rect = (slice(x1 - t, barrier - max_dx - t + 1), slice(0, x2 - t + 1))
    snaps = [f[rect]]
    for k in range(1, N + 1):
        hp = np.concatenate((np.zeros(down), h))
        g = np.zeros((left + ncol + right, len(hp)))
        g[left + ncol:] = hp
        g[left:left + ncol, down:] = f
        f = _pull(g, sd.atoms, (left, down), (ncol, len(h) - up))
        h = _pull(hp, sd.vertical_atoms, (down,), (len(h) - up,))
        if k in checkpoints:
            snaps.append(f[rect])
    ns = [0] + [n for n in checkpoints if n <= N]

    out = {}
    for y1, col in zip(range(x1, barrier - max_dx + 1), np.stack(snaps, -1).tolist()):
        for y2, uppers in zip(range(t, x2 + 1), col):
            for c in range(1, len(ns)):
                w = width((y1, y2), ns[c], uppers[c])
                lower = max(uppers[c] - w, 0.0)
                if uppers[c] - lower <= tol:
                    break
            out[y1, y2] = HarmonicEstimate(
                value=uppers[c] - 0.5 * min(w, uppers[c]), upper=uppers[c],
                lower=lower, n_used=ns[c], warned=uppers[c] - lower > tol,
                history=tuple(zip(ns[:c + 1], uppers[:c + 1])))
    return out


def w_check_harmonic(sd: StepDistribution, w_eval, x, spec: ExitSpec) -> float:
    """|W(x) - sum_steps p W(x + step) 1{survive}|."""
    s = 0.0
    for dx, dy, w in sd.atoms:
        nx = (x[0] + dx, x[1] + dy)
        if spec.contains(nx):
            s += w * w_eval(nx)
    return abs(w_eval(x) - s)
