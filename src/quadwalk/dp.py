"""Exact finite-n dynamics of the killed walk by sparse measure propagation.

The alive sub-probability measure is stored over its (shrink-wrapped)
bounding box on the reachable lattice coset: after n steps coordinate i
lies in x_i + a_i n + d_i Z, so with strides (d1, d2) from the step law
cell (i, j) stands for (lo1 + d1 i, lo2 + d2 j) and the d1*d2 - 1 other
residue classes, exact zeros, are never stored.  It is advanced one step
at a time by the package's 2-D propagation kernel, ``steps._kill_step``;
mass landing outside the survival region is removed and accounted.

The kernel lays the box out in rows of the grown box's width, so each atom
adds one contiguous run of a flat array.  ``run_dp`` steps a run as one
loop (``_step_to``) that carries the box, its lo, the leaked line and the
killed, dropped and leaked mass from step to step, derives the law's
step plans once and builds a ``QuadrantMeasure`` only at the snapshots;
``step_measure`` is one step of that loop.  The loop steps in one
``steps._Buffers``: the padded input, the output box and a scratch,
grown geometrically and never freed between steps.  A run's box is thus
a view the next step overwrites, so ``run_dp`` copies each snapshot out,
except the last, which keeps its buffer.  Every array that is summed, a
snapshot copy included, keeps the shape and strides a fresh step gives
it: numpy sums a strided box row by row and a contiguous one as one flat
run, and the two round differently.  The values are those of fresh
arrays, bit for bit.

Each step may also peel whole edge rows and columns off the box, lightest
first, while the mass peeled in that step stays within ``PRUNE_BUDGET``
(1e-33).  The peeled mass is summed into ``dropped_mass``, so after n steps
dropped_mass <= n * PRUNE_BUDGET.  The dynamics are linear and positive, so
that mass bounds the error of every event probability, and
``error_bound()`` reports it.

A run whose region kills x1, on a law with positive horizontal drift,
may enable a truncation barrier L; ``run_dp``'s ``barrier='auto'`` sizes
one where both hold and runs exact elsewhere.  Mass crossing x1 > L
migrates to a one-dimensional vertical measure that keeps the vertical
kill but drops the horizontal one.  The leaked measure lies on the same
vertical coset.  It steps by ``steps._line_steps``, its ends peeled from
what the 2-D box left of the step's budget, and the spill joins it
through the line kernel's own end walk, ``steps._peel_line``, with what
the line step left.  No mass re-enters the box, so once every cell has
crossed or been killed the box is empty, shape (0, 0), and only the line
moves.
The loop then steps the line as one ``_line_steps`` chain up to the next
snapshot, each step with the whole budget, since an empty box peels
nothing; once the line is empty too it goes straight to the next
snapshot.  On the tilted law from (1, 1) the box is empty
from n = 540 on, so this is most of a long tail run.  The barrier error
is bounded by the leaked mass times the Chernoff bound exp(-gamma (L+1))
on the walk ever returning, gamma the positive root of
E[exp(-gamma X1)] = 1, which a measure's first step takes from the law,
as it takes the strides; ``error_bound()`` adds the bound to the dropped
mass.

The half-plane survival runs the line kernel on the vertical marginal, and
exact path counts run the 2-D kernel on an object array of Python integers
(no barrier), each on the same coset storage.  Both report no bound, so they
peel exact-zero edges only and drop nothing, and both stop at the first
step that leaves nothing alive.  Every run kills by its
``ExitSpec``, the one owner of the kill rule: ``ExitSpec.kill`` names the
lowest surviving value on each axis the region kills.  Exact path counts
honour a half-plane region too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import BarrierError, InputError
from .ladders import BoundaryConvention
from .steps import (StepDistribution, _Buffers, _kill_step, _line_steps,
                    _peel_line, _step_plan, _stride, compute_moments)

# Mass that a DP step may peel off the edges of a measure,
# shared by its trims: after n steps dropped_mass <= n * PRUNE_BUDGET.
PRUNE_BUDGET = 1e-33

__all__ = [
    "Region",
    "ExitSpec",
    "QuadrantMeasure",
    "step_measure",
    "run_dp",
    "survival_prob",
    "local_prob",
    "half_plane_survival",
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
        """Lowest surviving coordinate value on a killed axis."""
        return self.conv.threshold

    @property
    def kills_x1(self) -> bool:
        return self.region in (Region.QUADRANT, Region.RIGHT_HALF_PLANE)

    @property
    def kills_x2(self) -> bool:
        return self.region in (Region.QUADRANT, Region.UPPER_HALF_PLANE)

    @cached_property
    def kill(self) -> tuple[int | None, int | None]:
        """Per-axis lowest surviving value, None on an axis never killed."""
        t = self.threshold
        return (t if self.kills_x1 else None, t if self.kills_x2 else None)

    def contains(self, x) -> bool:
        """Whether the point x lies inside the survival region."""
        return all(k is None or c >= k for c, k in zip(x, self.kill))


def _coset_index(y: int, lo: int, d: int, size: int) -> int | None:
    """Index of coordinate y in cells at lo + d*i, None when off the cells."""
    i, r = divmod(y - lo, d)
    return i if r == 0 and 0 <= i < size else None


def _add_lines(lo_a: int, a: np.ndarray, lo_b: int, b: np.ndarray, d: int):
    """Sum of two 1-D measures on one coset of stride d: (lo, array)."""
    if not b.size:
        return lo_a, a
    if not a.size:
        return lo_b, b
    lo = min(lo_a, lo_b)
    out = np.zeros((max(lo_a + d * len(a), lo_b + d * len(b)) - lo) // d)
    for c, arr in ((lo_a, a), (lo_b, b)):
        k = (c - lo) // d
        out[k:k + len(arr)] += arr
    return lo, out


@dataclass
class QuadrantMeasure:
    """Alive measure after n steps, with leak and kill bookkeeping.

    ``cells[i, j]`` is the mass at (lo1 + d1 i, lo2 + d2 j), (d1, d2) =
    ``stride``; no other point carries mass.  ``weights`` expands it to the
    dense unit-stride box.  ``leaked`` is the vertical distribution of mass
    that crossed the barrier, ``leaked[k]`` at height leak_lo + d2 k.
    Total mass alive + leaked + killed + dropped is conserved.
    """

    n: int
    cells: np.ndarray
    lo1: int
    lo2: int
    spec: ExitSpec
    stride: tuple[int, int] = (1, 1)
    barrier: int | None = None
    leaked: np.ndarray = field(default_factory=lambda: np.zeros(0))
    leak_lo: int = 0
    killed_mass: float = 0.0
    dropped_mass: float = 0.0
    leaked_total: float = 0.0
    gamma: float = math.inf  # barrier bound's Chernoff rate: the first step sets it

    @classmethod
    def point_mass(cls, x, spec: ExitSpec, barrier: int | None = None):
        """Unit mass at x; its first step sets the law's stride and rate."""
        x1, x2 = int(x[0]), int(x[1])
        if not spec.contains(x):
            raise InputError(f"start {x} is not inside the survival region")
        return cls(n=0, cells=np.ones((1, 1)), lo1=x1, lo2=x2, spec=spec,
                   barrier=barrier)

    @property
    def weights(self) -> np.ndarray:
        """Dense box: ``weights[i, j]`` is the mass at (lo1 + i, lo2 + j).

        Built anew on each access, d1*d2 times the size of ``cells``.
        """
        shape = [(n - 1) * d + 1 if n else 0
                 for n, d in zip(self.cells.shape, self.stride)]
        out = np.zeros(shape, dtype=self.cells.dtype)
        out[::self.stride[0], ::self.stride[1]] = self.cells
        return out

    # -- observables ------------------------------------------------------

    def alive_mass(self) -> float:
        return float(self.cells.sum())

    def survival(self) -> float:
        return float(self.cells.sum() + self.leaked.sum())

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
        (d1, d2), (n1, n2) = self.stride, self.cells.shape
        i = _coset_index(int(y[0]), self.lo1, d1, n1)
        j = _coset_index(int(y[1]), self.lo2, d2, n2)
        if i is None or j is None:
            return 0.0
        return float(self.cells[i, j])

    def vertical_marginal(self) -> tuple[int, int, np.ndarray]:
        """(lo, d2, col): mass at x2 = lo + d2 k is col[k], leaked mass included."""
        d = self.stride[1]
        lo, col = _add_lines(self.lo2, self.cells.sum(axis=0),
                             self.leak_lo, self.leaked, d)
        return lo, d, col

    def line_sum(self, y2: int) -> float:
        """P(x2 + S2(n) = y2, alive) -- valid also under a barrier."""
        lo, d, col = self.vertical_marginal()
        j = _coset_index(y2, lo, d, len(col))
        return 0.0 if j is None else float(col[j])

    def window_mass(self, u, mu) -> float:
        """Mass with ((pos - n*mu)/sqrt(n)) in the half-open unit square u + [0,1)^2."""
        self._require_exact_joint()
        n, s = self.n, math.sqrt(self.n)
        box = []
        for k, (lo, d, size) in enumerate(zip((self.lo1, self.lo2), self.stride,
                                              self.cells.shape)):
            a = n * mu[k] + u[k] * s
            b = n * mu[k] + (u[k] + 1.0) * s
            # cells with lo + d*i in [ceil(a), ceil(b) - 1]
            i0 = max(-((lo - math.ceil(a)) // d), 0)
            i1 = min((math.ceil(b) - 1 - lo) // d + 1, size)
            if i0 >= i1:
                return 0.0
            box.append(slice(i0, i1))
        return float(self.cells[tuple(box)].sum())


def _bisect(f, lo: float, hi: float) -> float:
    """Last float a of [lo, hi] with f(a) <= 0 where the increasing f turns positive."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) <= 0 else (lo, mid)
    return lo


def _mgf(hp: dict[int, float], s: float, k: int = 0) -> float:
    """k-th derivative of phi(s) = E[exp(-s X1)] for the horizontal law ``hp``."""
    # for k <= 1 only the terms of steps v < 0 overflow, and they are positive
    try:
        return math.fsum(p * (-v) ** k * math.exp(-s * v) for v, p in hp.items())
    except OverflowError:
        return math.inf


def _mgf_min(hp: dict[int, float]) -> tuple[float, float]:
    """(s*, phi(s*)) for the argmin s* of the convex phi on [1e-9, 50]."""
    s = _bisect(lambda s: _mgf(hp, s, 1), 1e-9, 50.0)
    return s, _mgf(hp, s)


def chernoff_gamma(sd: StepDistribution) -> float:
    """Positive root gamma of phi(s) = E[exp(-s X1)] = 1; inf if X1 >= 0 a.s.

    phi is convex with phi(0) = 1 and slope -mu1 < 0 at 0, so it increases
    on (s*, inf) through its one positive root.  Bisection there, to
    adjacent floats, returns the end whose computed phi is <= 1, so gamma
    exceeds the root by no more than the rounding of phi itself allows and
    exp(-gamma (L+1)) is a bound up to that rounding.
    """
    hp = sd.horizontal_pmf()
    if compute_moments(sd).mu1 <= 0:
        raise InputError("Chernoff barrier rate needs positive horizontal drift")
    if min(hp) >= 0:
        return math.inf  # the walk can never move left of its start
    hi = 1.0
    while _mgf(hp, hi) <= 1:
        hi *= 2.0
        if hi > 1e6:
            raise InputError("no positive Chernoff root found")
    return _bisect(lambda s: _mgf(hp, s) - 1, _mgf_min(hp)[0], hi)


def auto_barrier(sd: StepDistribution, x, target: float = 1e-12) -> int:
    """Smallest barrier L with exp(-gamma(L+1)) <= target."""
    gamma = chernoff_gamma(sd)
    if math.isinf(gamma):
        L = 0
    else:
        L = int(math.ceil(-math.log(target) / gamma)) + 1
    return max(L, sd.max_abs_dx, int(x[0]) + sd.max_abs_dx)


def step_measure(m: QuadrantMeasure, sd: StepDistribution) -> QuadrantMeasure:
    """One convolution-and-kill step; returns a fresh measure.

    The point mass at n = 0 takes the stride of ``sd`` and, with a barrier,
    its rate gamma; every later measure keeps its own, of the same law.
    This is one step of the loop ``run_dp`` steps a run by, on fresh arrays.
    """
    if m.barrier is not None and m.barrier < sd.max_abs_dx:
        raise BarrierError(
            f"barrier {m.barrier} smaller than max |dx| {sd.max_abs_dx}"
        )
    return _step_to(m, sd, m.n + 1)


def _step_to(m: QuadrantMeasure, sd: StepDistribution, n: int,
             work: _Buffers | None = None) -> QuadrantMeasure:
    """``m`` stepped on to time n, one convolution-and-kill step at a time.

    The loop carries the box, its lo, the leaked line and the killed,
    dropped and leaked mass, and builds a measure only at the end.  Steps
    run in ``work``, the buffers of a ``run_dp`` run, so the box returned
    may be a view of them; without it each step has fresh arrays.  Once
    the box is empty only the line moves: the rest of the steps are one
    ``_line_steps`` chain, each step with the whole budget.
    """
    kill, L = m.spec.kill, m.barrier
    d1, d2 = stride = _stride(sd.atoms) if m.n == 0 else m.stride
    gamma = chernoff_gamma(sd) if m.n == 0 and L is not None else m.gamma
    plan = _step_plan(sd.atoms, stride, 2)
    line = None if L is None else _step_plan(sd.vertical_atoms, (d2,), 1)
    t, cells, lo1, lo2 = m.n, m.cells, m.lo1, m.lo2
    leaked, leak_lo, leaked_total = m.leaked, m.leak_lo, m.leaked_total
    killed, dropped = m.killed_mass, m.dropped_mass
    while t < n and cells.size:
        t += 1
        # each trim gets what the ones before it left of this step's budget
        cells, (lo1, lo2), cuts, drop = _kill_step(cells, (lo1, lo2), plan, kill,
                                                   PRUNE_BUDGET, work)
        for cut in cuts:
            if cut.size:  # an empty cut adds 0.0, which changes nothing
                killed += float(cut.sum())
        # the cuts are views of the step's output buffer: let them go, so
        # that a buffer the next step outgrows is freed at once
        del cuts, cut
        budget = PRUNE_BUDGET - float(drop)
        dropped += float(drop)
        # evolve any previously leaked mass (vertical kill only)
        if leaked.size:
            leaked, leak_lo, killed, dropped, budget = _line_steps(
                leaked, leak_lo, line, kill[1], 1, budget, killed, dropped)
        # migrate mass beyond the barrier into the vertical-only measure
        if (L is not None and cells.size
                and lo1 + d1 * (cells.shape[0] - 1) > L):
            keep = max((L - lo1) // d1 + 1, 0)
            spill = cells[keep:, :].sum(axis=0)
            amt = float(spill.sum())
            if amt > 0:
                leaked_total += amt
                lo, out = _add_lines(leak_lo, leaked, lo2, spill, d2)
                leaked, leak_lo, drop = _peel_line(out, lo, d2, budget)
                dropped += drop
            # an emptied box keeps no columns: their zero sums would join
            # the line at a stale lo2
            cells = cells[:keep, :] if keep else np.zeros((0, 0))
    if t < n and leaked.size:
        leaked, leak_lo, killed, dropped, _ = _line_steps(
            leaked, leak_lo, line, kill[1], n - t, PRUNE_BUDGET, killed, dropped)
    return QuadrantMeasure(
        n=n, cells=cells, lo1=lo1, lo2=lo2, spec=m.spec, stride=stride,
        barrier=L, leaked=leaked, leak_lo=leak_lo, killed_mass=killed,
        dropped_mass=dropped, leaked_total=leaked_total, gamma=gamma)


def _owned(a: np.ndarray) -> np.ndarray:
    """Copy of the 2-D ``a`` that sums as it does: contiguous, or rows as wide."""
    if a.flags.c_contiguous:
        return a.copy()
    out = np.empty((a.shape[0], a.strides[0] // a.itemsize), a.dtype)[:, :a.shape[1]]
    out[...] = a
    return out


def run_dp(sd: StepDistribution, x, spec: ExitSpec, n_max: int,
           snapshots=(), barrier: int | str | None = None
           ) -> dict[int, QuadrantMeasure]:
    """The measures at the snapshot times up to n_max (n_max alone by default).

    Stepping stops at the last snapshot.

    ``barrier=None`` keeps the exact joint measure.  ``barrier='auto'``
    sizes one by ``auto_barrier``, error bound below 1e-12, where a barrier
    can apply, and runs exact where none can: when ``spec`` does not kill
    x1, or the law has no positive horizontal drift to size one by.  An
    explicit barrier there raises ``InputError``, and so does a snapshot
    time outside [0, n_max].  Each snapshot owns its box and steps with
    fresh arrays.
    """
    if n_max < 0:
        raise InputError("n must be >= 0")
    want = set(snapshots) if snapshots else {n_max}
    if outside := sorted(t for t in want if not 0 <= t <= n_max):
        raise InputError(f"snapshot times {outside} are outside [0, {n_max}]")
    L = None
    if barrier is not None and spec.kills_x1 and compute_moments(sd).mu1 > 0:
        L = auto_barrier(sd, x) if barrier == "auto" else int(barrier)
        if L < sd.max_abs_dx:
            raise BarrierError(f"barrier {L} smaller than max |dx|")
    elif barrier not in (None, "auto"):  # refused before any step, so at n_max = 0 too
        raise InputError("a barrier only makes sense with a horizontal kill"
                         if not spec.kills_x1 else
                         "Chernoff barrier rate needs positive horizontal drift")
    m = QuadrantMeasure.point_mass(x, spec, barrier=L)
    out: dict[int, QuadrantMeasure] = {}
    if 0 in want:
        out[0] = m
    work = _Buffers(mapped=True)
    stops = sorted(t for t in want if t > 0)
    for stop in stops:
        m = _step_to(m, sd, stop, work)
        # the next step overwrites the buffers; the last box is kept
        if stop != stops[-1]:
            m = replace(m, cells=_owned(m.cells))
        out[stop] = m
    return out


def survival_prob(sd: StepDistribution, x, n: int, spec: ExitSpec,
                  barrier: int | str | None = "auto") -> tuple[float, float]:
    """(P(exit time > n), error bound)."""
    m = run_dp(sd, x, spec, n, snapshots={n}, barrier=barrier)[n]
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
    kill = conv.threshold
    if x2 < kill:
        raise InputError(f"start height {x2} is outside the region")
    atoms = sd.vertical_atoms
    alive = _line_steps(np.ones(1), x2, _step_plan(atoms, _stride(atoms), 1),
                        kill, n)[0]
    return float(alive.sum())


def _count_run(sd: StepDistribution, x, n: int, spec: ExitSpec = ExitSpec()):
    """Exact integer path counts after n steps, killed as ``spec`` kills.

    Returns (counts, (lo1, lo2), (d1, d2)): an object array of Python ints
    over the bounding box of the reachable states on their coset,
    ``counts[i, j]`` at (lo1 + d1 i, lo2 + d2 j).
    """
    if n < 0:
        raise InputError("n must be >= 0")
    lo = (int(x[0]), int(x[1]))
    if not spec.contains(lo):
        raise InputError(f"start {x} is not inside the survival region")
    atoms = tuple((dx, dy, 1) for dx, dy, _ in sd.atoms)
    stride = _stride(atoms)
    plan = _step_plan(atoms, stride, 2)
    counts, work = np.ones((1, 1), dtype=object), _Buffers(object)
    for _ in range(n):
        counts, lo, _, _ = _kill_step(counts, lo, plan, spec.kill, 0, work)
        if not counts.size:
            break
    return counts, lo, stride


def count_paths(sd: StepDistribution, x, y, n: int,
                spec: ExitSpec = ExitSpec()) -> int:
    """Exact number of n-step paths x -> y staying inside ``spec``'s region."""
    counts, (lo1, lo2), (d1, d2) = _count_run(sd, x, n, spec)
    i = _coset_index(int(y[0]), lo1, d1, counts.shape[0])
    j = _coset_index(int(y[1]), lo2, d2, counts.shape[1])
    return 0 if i is None or j is None else counts[i, j]


def count_line(sd: StepDistribution, x, n: int, y2: int = 1,
               spec: ExitSpec = ExitSpec()) -> int:
    """M_n(x): paths of length n from x inside ``spec``'s region ending on x2 = y2.

    M_0(x) = 1 when x already sits on the line (empty path), else 0.
    """
    counts, (_, lo2), (_, d2) = _count_run(sd, x, n, spec)
    j = _coset_index(y2, lo2, d2, counts.shape[1])
    return 0 if j is None else counts[:, j].sum()
