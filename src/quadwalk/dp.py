"""Exact finite-n dynamics of the killed walk by sparse measure propagation.

The alive sub-probability measure is stored as a dense array over its
(shrink-wrapped) bounding box and advanced one step at a time by the
package's single propagation kernel, ``steps._kill_step``; mass landing
outside the survival region is removed and accounted.  For quadrant runs
with positive horizontal drift a truncation barrier L may be enabled: mass
crossing x1 > L migrates to a one-dimensional vertical measure that keeps
the vertical kill but drops the horizontal one.  The resulting error is
bounded by the leaked mass times the Chernoff bound exp(-gamma (L+1)) on
the walk ever returning, gamma the positive root of E[exp(-gamma X1)] = 1.

The half-plane survival runs the same kernel on the vertical marginal, and
exact path counts run it on an object array of Python integers (no prune,
no barrier).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import BarrierError, InputError
from .ladders import BoundaryConvention
from .steps import PRUNE_DEFAULT, StepDistribution, _kill_step, _trim

__all__ = [
    "Region",
    "ExitSpec",
    "QuadrantMeasure",
    "step_measure",
    "run_dp",
    "survival_prob",
    "local_prob",
    "half_plane_survival",
    "half_plane_local",
    "count_paths",
    "count_line",
    "chernoff_gamma",
    "auto_barrier",
]


class Region(enum.Enum):
    QUADRANT = "quadrant"
    UPPER_HALF_PLANE = "upper-half-plane"
    RIGHT_HALF_PLANE = "right-half-plane"


@dataclass(frozen=True)
class ExitSpec:
    """Survival region plus the kill rule at its boundary."""

    region: Region = Region.QUADRANT
    conv: BoundaryConvention = BoundaryConvention.KILL_ON_NONPOSITIVE

    @property
    def threshold(self) -> int:
        """Lowest surviving coordinate value."""
        return 1 if self.conv is BoundaryConvention.KILL_ON_NONPOSITIVE else 0

    @property
    def kills_x1(self) -> bool:
        return self.region in (Region.QUADRANT, Region.RIGHT_HALF_PLANE)

    @property
    def kills_x2(self) -> bool:
        return self.region in (Region.QUADRANT, Region.UPPER_HALF_PLANE)


@dataclass
class QuadrantMeasure:
    """Alive measure after n steps, with leak and kill bookkeeping.

    ``weights[i, j]`` is the mass at (lo1 + i, lo2 + j).  ``leaked`` is the
    vertical distribution of mass that crossed the barrier, indexed from
    ``leak_lo``.  Total mass alive + leaked + killed + dropped is conserved.
    """

    n: int
    weights: np.ndarray
    lo1: int
    lo2: int
    spec: ExitSpec
    barrier: int | None = None
    leaked: np.ndarray = field(default_factory=lambda: np.zeros(0))
    leak_lo: int = 0
    killed_mass: float = 0.0
    dropped_mass: float = 0.0
    leaked_total: float = 0.0
    gamma: float = math.inf  # Chernoff rate for the barrier bound

    @classmethod
    def point_mass(cls, x, spec: ExitSpec, barrier: int | None = None,
                   gamma: float = math.inf):
        x1, x2 = int(x[0]), int(x[1])
        t = spec.threshold
        if spec.kills_x1 and x1 < t or spec.kills_x2 and x2 < t:
            raise InputError(f"start {x} is not inside the survival region")
        return cls(n=0, weights=np.ones((1, 1)), lo1=x1, lo2=x2, spec=spec,
                   barrier=barrier, gamma=gamma)

    # -- observables ------------------------------------------------------

    def alive_mass(self) -> float:
        return float(self.weights.sum())

    def survival(self) -> float:
        return float(self.weights.sum() + self.leaked.sum())

    def error_bound(self) -> float:
        """Bound on the barrier-induced survival error plus pruned mass."""
        leak_err = 0.0
        if self.barrier is not None and self.leaked_total > 0:
            leak_err = self.leaked_total * math.exp(-self.gamma * (self.barrier + 1))
        return leak_err + self.dropped_mass

    def _require_exact_joint(self):
        if self.barrier is not None and self.leaked_total > 0:
            raise InputError(
                "joint-position query on a barrier-truncated measure"
            )

    def local(self, y) -> float:
        self._require_exact_joint()
        i = int(y[0]) - self.lo1
        j = int(y[1]) - self.lo2
        if 0 <= i < self.weights.shape[0] and 0 <= j < self.weights.shape[1]:
            return float(self.weights[i, j])
        return 0.0

    def vertical_marginal(self) -> tuple[int, np.ndarray]:
        """(lowest x2, array of masses) including any leaked component."""
        col = self.weights.sum(axis=0)
        lo = self.lo2
        if self.leaked.size:
            lo = min(lo, self.leak_lo)
            hi = max(self.lo2 + len(col), self.leak_lo + len(self.leaked))
            out = np.zeros(hi - lo)
            out[self.lo2 - lo:self.lo2 - lo + len(col)] += col
            out[self.leak_lo - lo:self.leak_lo - lo + len(self.leaked)] += self.leaked
            return lo, out
        return lo, col

    def line_sum(self, y2: int) -> float:
        """P(x2 + S2(n) = y2, alive) -- valid also under a barrier."""
        lo, col = self.vertical_marginal()
        j = y2 - lo
        if 0 <= j < len(col):
            return float(col[j])
        return 0.0

    def row(self, y2: int) -> tuple[int, np.ndarray]:
        """(lowest x1, masses along the horizontal line x2 = y2)."""
        self._require_exact_joint()
        j = y2 - self.lo2
        if 0 <= j < self.weights.shape[1]:
            return self.lo1, self.weights[:, j].copy()
        return self.lo1, np.zeros(0)

    def window_mass(self, u, mu, n: int | None = None) -> float:
        """Mass with ((pos - n*mu)/sqrt(n)) in the half-open unit square u + [0,1)^2."""
        self._require_exact_joint()
        n = self.n if n is None else n
        s = math.sqrt(n)
        lo_c = []
        hi_c = []
        for k in range(2):
            a = n * mu[k] + u[k] * s
            b = n * mu[k] + (u[k] + 1.0) * s
            lo_c.append(int(math.ceil(a)))
            hi_c.append(int(math.ceil(b)) - 1)
        i0 = max(lo_c[0] - self.lo1, 0)
        i1 = min(hi_c[0] - self.lo1 + 1, self.weights.shape[0])
        j0 = max(lo_c[1] - self.lo2, 0)
        j1 = min(hi_c[1] - self.lo2 + 1, self.weights.shape[1])
        if i0 >= i1 or j0 >= j1:
            return 0.0
        return float(self.weights[i0:i1, j0:j1].sum())

    def to_csv(self, fh) -> None:
        fh.write("x1,x2,weight\n")
        idx = np.argwhere(self.weights > 0)
        for i, j in idx:
            fh.write(f"{self.lo1 + i},{self.lo2 + j},{self.weights[i, j]!r}\n")


def chernoff_gamma(sd: StepDistribution) -> float:
    """Positive root gamma of E[exp(-gamma X1)] = 1; inf if X1 >= 0 a.s."""
    hp = sd.horizontal_pmf()
    mu1 = math.fsum(v * p for v, p in hp.items())
    if mu1 <= 0:
        raise InputError("Chernoff barrier rate needs positive horizontal drift")
    if min(hp) >= 0:
        return math.inf  # the walk can never move left of its start

    def logmgf(s):
        return math.log(math.fsum(p * math.exp(-s * v) for v, p in hp.items()))

    hi = 1.0
    while logmgf(hi) <= 0:
        hi *= 2.0
        if hi > 1e6:
            raise InputError("no positive Chernoff root found")
    return float(brentq(logmgf, 1e-12, hi, xtol=1e-14, rtol=1e-15))


def auto_barrier(sd: StepDistribution, x, target: float = 1e-12) -> int:
    """Smallest barrier L with exp(-gamma(L+1)) <= target."""
    gamma = chernoff_gamma(sd)
    if math.isinf(gamma):
        L = 0
    else:
        L = int(math.ceil(-math.log(target) / gamma)) + 1
    return max(L, sd.max_abs_dx(), int(x[0]) + sd.max_abs_dx())


def step_measure(m: QuadrantMeasure, sd: StepDistribution) -> QuadrantMeasure:
    """One convolution-and-kill step; returns a fresh measure."""
    if m.barrier is not None and m.barrier < sd.max_abs_dx():
        raise BarrierError(
            f"barrier {m.barrier} smaller than max |dx| {sd.max_abs_dx()}"
        )
    t = m.spec.threshold
    kill = (t if m.spec.kills_x1 else None, t if m.spec.kills_x2 else None)
    new, (lo1, lo2), cuts, drop = _kill_step(m.weights, (m.lo1, m.lo2),
                                             sd.atoms, kill)
    killed = m.killed_mass
    for cut in cuts:
        killed += float(cut.sum())
    dropped = m.dropped_mass + float(drop)

    # evolve any previously leaked mass (vertical kill only)
    leaked, leak_lo = m.leaked, m.leak_lo
    leaked_total = m.leaked_total
    if leaked.size:
        leaked, (leak_lo,), (cut,), drop = _kill_step(
            leaked, (leak_lo,), sorted(sd.vertical_pmf().items()), kill[1:])
        killed += float(cut.sum())
        dropped += float(drop)

    # migrate mass beyond the barrier into the vertical-only measure
    if m.barrier is not None and lo1 + new.shape[0] - 1 > m.barrier:
        keep = max(m.barrier - lo1 + 1, 0)
        spill = new[keep:, :].sum(axis=0)
        amt = float(spill.sum())
        if amt > 0:
            leaked_total += amt
            lo = min(leak_lo, lo2)
            out = np.zeros(max(leak_lo + len(leaked), lo2 + len(spill)) - lo)
            out[leak_lo - lo:leak_lo - lo + len(leaked)] += leaked
            out[lo2 - lo:lo2 - lo + len(spill)] += spill
            leaked, (leak_lo,), drop = _trim(out, (lo,), PRUNE_DEFAULT)
            dropped += float(drop)
        new = new[:keep, :]
    return QuadrantMeasure(
        n=m.n + 1, weights=new, lo1=lo1, lo2=lo2, spec=m.spec,
        barrier=m.barrier, leaked=leaked, leak_lo=leak_lo,
        killed_mass=killed, dropped_mass=dropped,
        leaked_total=leaked_total, gamma=m.gamma,
    )


def run_dp(sd: StepDistribution, x, spec: ExitSpec, n_max: int,
           snapshots=(), barrier: int | str | None = None,
           barrier_target: float = 1e-12) -> dict[int, QuadrantMeasure]:
    """Propagate n_max steps, returning the measures at the snapshot times.

    ``barrier='auto'`` sizes the barrier so the error bound is below
    ``barrier_target``; ``barrier=None`` keeps the exact joint measure.
    """
    if n_max < 0:
        raise InputError("n must be >= 0")
    gamma = math.inf
    L = None
    if barrier is not None:
        if not spec.kills_x1:
            raise InputError("a barrier only makes sense with a horizontal kill")
        gamma = chernoff_gamma(sd)
        L = auto_barrier(sd, x, barrier_target) if barrier == "auto" else int(barrier)
        if L < sd.max_abs_dx():
            raise BarrierError(f"barrier {L} smaller than max |dx|")
    m = QuadrantMeasure.point_mass(x, spec, barrier=L, gamma=gamma)
    want = set(snapshots) if snapshots else {n_max}
    out: dict[int, QuadrantMeasure] = {}
    if 0 in want:
        out[0] = m
    for _ in range(n_max):
        m = step_measure(m, sd)
        if m.n in want:
            out[m.n] = m
    return out


def survival_prob(sd: StepDistribution, x, n: int, spec: ExitSpec,
                  barrier: int | str | None = "auto",
                  barrier_target: float = 1e-12) -> tuple[float, float]:
    """(P(exit time > n), error bound)."""
    if not spec.kills_x1:
        barrier = None
    m = run_dp(sd, x, spec, n, snapshots={n}, barrier=barrier,
               barrier_target=barrier_target)[n]
    return m.survival(), m.error_bound()


def local_prob(sd: StepDistribution, x, y, n: int, spec: ExitSpec) -> float:
    """P(x + S(n) = y, exit time > n), exact (no barrier)."""
    m = run_dp(sd, x, spec, n, snapshots={n}, barrier=None)[n]
    return m.local(y)


def half_plane_survival(sd: StepDistribution, x2: int, n: int,
                        conv: BoundaryConvention = BoundaryConvention.KILL_ON_NONPOSITIVE
                        ) -> float:
    """P(tau_x > n): exact 1-D dynamic program, no barrier needed."""
    if n < 0:
        raise InputError("n must be >= 0")
    kill = (ExitSpec(conv=conv).threshold,)
    if x2 < kill[0]:
        raise InputError(f"start height {x2} is outside the region")
    atoms = sorted(sd.vertical_pmf().items())
    alive, lo = np.ones(1), (x2,)
    for _ in range(n):
        alive, lo, _, _ = _kill_step(alive, lo, atoms, kill)
    return float(alive.sum())


def half_plane_local(sd: StepDistribution, x, y, n: int,
                     conv: BoundaryConvention = BoundaryConvention.KILL_ON_NONPOSITIVE
                     ) -> float:
    """P(x + S(n) = y, tau_x > n): vertical kill only, x1 enumerated exactly."""
    spec = ExitSpec(region=Region.UPPER_HALF_PLANE, conv=conv)
    m = run_dp(sd, x, spec, n, snapshots={n}, barrier=None)[n]
    return m.local(y)


def _count_run(sd: StepDistribution, x, n: int, threshold: int = 1):
    """Exact integer path counts after n steps (quadrant kill).

    Returns (counts, (lo1, lo2)): an object array of Python ints over the
    bounding box of the reachable states, ``counts[i, j]`` at (lo1+i, lo2+j).
    """
    if n < 0:
        raise InputError("n must be >= 0")
    lo = (int(x[0]), int(x[1]))
    if min(lo) < threshold:
        raise InputError(f"start {x} is not inside the survival region")
    atoms = [(dx, dy, 1) for dx, dy, _ in sd.atoms]
    counts = np.ones((1, 1), dtype=object)
    for _ in range(n):
        counts, lo, _, _ = _kill_step(counts, lo, atoms, (threshold, threshold),
                                      prune=0)
    return counts, lo


def count_paths(sd: StepDistribution, x, y, n: int, threshold: int = 1) -> int:
    """Exact number of n-step paths x -> y staying inside the quadrant."""
    counts, (lo1, lo2) = _count_run(sd, x, n, threshold)
    i, j = int(y[0]) - lo1, int(y[1]) - lo2
    if 0 <= i < counts.shape[0] and 0 <= j < counts.shape[1]:
        return counts[i, j]
    return 0


def count_line(sd: StepDistribution, x, n: int, y2: int = 1,
               threshold: int = 1) -> int:
    """M_n(x): paths of length n from x ending on the line x2 = y2.

    M_0(x) = 1 when x already sits on the line (empty path), else 0.
    """
    counts, (_, lo2) = _count_run(sd, x, n, threshold)
    j = y2 - lo2
    return counts[:, j].sum() if 0 <= j < counts.shape[1] else 0
