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
from .steps import StepDistribution, _check_size, compute_moments

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

    def width(self, y1, y2, n: int, upper, barrier: int):
        """Bracket width of W after n steps at the starts y1 x y2.

        The tail bound on sum_{k>n} E[V(x2+S2(k)); tau>k, sigma=k], plus the
        barrier bias (leaked mass, at most 1, never killed again), plus a
        rounding term.  ``y1`` is a sequence of columns and ``y2`` an integer
        array of heights; the result broadcasts to (len(y1), len(y2)) with
        ``upper``, and each entry has the bits of the same formula on floats.
        """
        if self.phi_min >= 1.0:
            tail = math.inf
        elif self.phi_min == 0.0:
            tail = 0.0
        else:
            r = self.phi_min
            a = self.v_slope * (y2 + 0.0)
            b = self.v_slope * self.max_dy
            g = r ** (n + 1) / (1 - r)
            decay = np.array([[math.exp(-self.s_star * c)] for c in y1])
            tail = decay * ((a + b * (n + 1)) * g + b * r * g / (1 - r))
        leak = (math.exp(-self.gamma * (barrier + 1)) * self.v_slope
                * (y2 + n * self.max_dy))
        return (tail + leak
                + 1e-13 * np.where(upper > 1.0, upper, 1.0) * math.sqrt(max(n, 1)))


def make_tail_bound(sd: StepDistribution, v_slope: float) -> TailBound:
    """Chernoff ingredients for the W bracket."""
    hp = sd.horizontal_pmf()
    if min(hp) >= 0:
        # the walk never moves left: sigma_x is impossible from x1 >= 1
        return TailBound(s_star=0.0, phi_min=0.0, v_slope=v_slope,
                         max_dy=sd.max_abs_dy, gamma=math.inf)

    s_star, phi_min = _mgf_min(hp)
    gamma = chernoff_gamma(sd) if compute_moments(sd).mu1 > 0 else 0.0
    return TailBound(s_star=s_star, phi_min=phi_min, v_slope=v_slope,
                     max_dy=sd.max_abs_dy, gamma=gamma)


def _pull(g: np.ndarray, atoms, origin, shape) -> np.ndarray:
    """out[i] = sum over (shift, ..., p) atoms of p * g[origin + shift + i]."""
    out = np.zeros(shape)
    for *shift, p in atoms:
        out += p * g[tuple(slice(o + s, o + s + k)
                           for o, s, k in zip(origin, shift, shape))]
    return out


def w_rect(sd: StepDistribution, x, spec: ExitSpec, v_table,
           tail_bound: TailBound, tol: float, n_max: int, barrier: int,
           block: tuple[int, int]) -> dict[tuple[int, int], HarmonicEstimate]:
    """Bracketed W(y) = lim_n E[v(y2 + S2(n)); T_y > n] on a block of starts.

    ``block`` = (first column, top row) spans the starts
    [first, L - max|dx|] x [t, top], L = ``barrier`` and t the quadrant
    threshold; (x1, x2) is x's own rectangle.  ``v_table(m)`` is the array
    v(0..m), asked for the heights the pass reads: to top + max|dy|, then to
    top + N max(dy) once x's horizon N is known.  The backward iterate
    f_{k+1}(y) = sum_s p f_k(y + s), f_0 = v, runs on the strip [t, L] x
    [t, top + N max(dy)], which loses its top max(dy) rows per step; f is 0
    at killed points, and past column L it is the vertical-only iterate of
    v, as the forward run's leaked measure is.
    Each start y is read at n = 1, 2, 4, ... up to its own a-priori horizon
    N_y, the first such n (or n_max) whose width for the upper value
    v(y2 + max|dy|) is within ``tol``; that value bounds f_n for V and for
    the identity weight of a driftless vertical walk (optional stopping).
    It takes the first n whose bracket is within ``tol``, and N_y, with
    ``warned=True``, if none is.  The pass runs to x's horizon N, or stops
    at the first checkpoint where x's upper value reads 0 (with tol >= 0 its
    estimate is then final).  The iterate at a cell does not depend on the
    strip's extent, so the result holds each start of the block whose
    reading ends by the last checkpoint run, exactly as a pass for that
    start alone gives it.  That covers each start whose N_y is at most that
    checkpoint, and so all of x's rectangle when the pass runs to N.
    """
    x1, x2 = int(x[0]), int(x[1])
    t, max_dx = spec.threshold, sd.max_abs_dx
    if not (spec.kills_x1 and spec.kills_x2 and spec.contains((x1, x2))):
        raise InputError(f"start {x} is not inside the quadrant")
    if barrier < x1 + max_dx:
        raise BarrierError(f"barrier {barrier} below x1 + max |dx| = {x1 + max_dx}")
    first, top = block
    if not (t <= first <= x1 and top >= x2):
        raise InputError(f"block {block} does not hold the start {x}")
    y1 = range(first, barrier - max_dx + 1)
    y2 = np.arange(t, top + 1)
    at_x = (x1 - first, x2 - t)
    ncol = barrier - t + 1
    _check_size(ncol * len(y2), "the W block")

    # each start's horizon, as the index of its checkpoint in ns_all
    ns_all = [0] + [1 << k for k in range(n_max.bit_length())]
    if ns_all[-1] != n_max:
        ns_all.append(n_max)
    v_top = v_table(top + tail_bound.max_dy)[y2 + tail_bound.max_dy]
    horizon = np.full((len(y1), len(y2)), len(ns_all) - 1)
    for c in range(len(ns_all) - 1, 0, -1):
        within = tail_bound.width(y1, y2, ns_all[c], v_top, barrier) <= tol
        horizon = np.where(within, c, horizon)
    N = ns_all[horizon[at_x]]

    dxs, dys = [a[0] for a in sd.atoms], [a[1] for a in sd.atoms]
    left, right = max(-min(dxs), 0), max(max(dxs), 0)
    down, up = max(-min(dys), 0), max(max(dys), 0)
    _check_size(ncol * (top + N * up - t + 1), "the W strip")
    h = v_table(top + N * up)[t:]
    f = np.tile(h, (ncol, 1))
    cells = (slice(first - t, barrier - max_dx - t + 1), slice(0, top - t + 1))
    snaps = [f[cells].copy()]
    for k in range(1, N + 1):
        hp = np.concatenate((np.zeros(down), h))
        g = np.zeros((left + ncol + right, len(hp)))
        g[left + ncol:] = hp
        g[left:left + ncol, down:] = f
        f = _pull(g, sd.atoms, (left, down), (ncol, len(h) - up))
        h = _pull(hp, sd.vertical_atoms, (down,), (len(h) - up,))
        if k in ns_all:
            snaps.append(f[cells].copy())
            if tol >= 0 and snaps[-1][at_x] == 0.0:
                break
    ns = ns_all[:len(snaps)]

    # each start's reading: the first checkpoint within tol, or its horizon;
    # np.where picks as the scalar max/min did, signed zeros and NaN alike
    uppers = np.stack(snaps)
    read = np.zeros(horizon.shape, dtype=int)
    width = lower = uppers[0]
    for c in range(1, len(ns)):
        w = tail_bound.width(y1, y2, ns[c], uppers[c], barrier)
        low = np.where(0.0 > uppers[c] - w, 0.0, uppers[c] - w)
        now = (read == 0) & ((uppers[c] - low <= tol) | (horizon == c))
        read = np.where(now, c, read)
        width, lower = np.where(now, w, width), np.where(now, low, lower)
    upper = np.take_along_axis(uppers, read[None], 0)[0]
    value = upper - 0.5 * np.where(upper < width, upper, width)
    warned = upper - lower > tol

    out = {}
    rows = zip(read.tolist(), value.tolist(), upper.tolist(), lower.tolist(),
               warned.tolist(), np.moveaxis(uppers, 0, -1).tolist())
    for a, col in zip(y1, rows):
        for b, (c, val, hi, lo, warn, hist) in zip(range(t, top + 1), zip(*col)):
            if c:
                out[a, b] = HarmonicEstimate(
                    value=val, upper=hi, lower=lo, n_used=ns[c], warned=warn,
                    history=tuple(zip(ns[:c + 1], hist[:c + 1])))
    return out


def w_check_harmonic(sd: StepDistribution, w_eval, x, spec: ExitSpec) -> float:
    """|W(x) - sum_steps p W(x + step) 1{survive}|."""
    s = 0.0
    for dx, dy, w in sd.atoms:
        nx = (x[0] + dx, x[1] + dy)
        if spec.contains(nx):
            s += w * w_eval(nx)
    return abs(w_eval(x) - s)
