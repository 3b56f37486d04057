"""Finite-support lattice step distributions.

A step set is a weighted list of integer increments (dx, dy).  This module
normalizes and validates step sets, computes exact first and second moments,
finds the lattice Lambda the increments generate, the one record of integer
facts about the support, and implements exponential tilting together with a
Newton solver that finds the tilt achieving a prescribed drift.

It also holds the package's two propagation kernels: ``_kill_step``, a
single step of a walk killed on leaving a box, on a 2-D measure of floats
or of exact Python integers, and ``_line_steps``, a chain of such steps on
a 1-D float measure.  They advance every exact DP in ``dp``.
The measure is stored on a coset of the per-axis superlattice of Lambda:
with stride d (``_stride``, the d_i of ``LatticeStructure``) cell i stands
for coordinate lo + d*i, since after any number of steps from one start every
reachable coordinate lies in one class modulo d.  The other d-1 classes,
exact zeros in a unit-stride box, are never stored.  After each step the
measure's edges are peeled while their mass fits the caller's budget, and
what was peeled is returned; budget 0 removes exact zeros only.  ``_trim``
peels a box's lightest edge row or column, ``_peel_line`` a line's lighter
end, and ``_peel_line`` is also the peel where ``dp``'s barrier spill
joins the leaked line.  A measure peeled or killed to nothing has no
cells, and callers stop stepping it: mass only ever leaves a killed walk.

The kernels run tens of thousands of steps in a long run, so they keep
their per-step Python work small.  ``_step_plan`` derives what a law's
atoms mean for a measure (least shifts, cell offsets, the off-lattice
check, the dense 1-D convolution kernel); a chain derives its plan once
and hands it to every step.  In ``_kill_step`` each atom's box is one
contiguous run of the flat output, and a caller stepping one measure many
times passes a ``_Buffers`` that keeps the step's arrays, so no box is
allocated per step.  ``_trim`` sums the four edge slabs of the box once
and, after each peel, only the slabs that peel changed.  ``_line_steps``
runs its whole chain in one call: a step is one ``np.convolve``, a kill
slice and a ``_peel_line`` walk inward from the two ends, and no measure
object is built per step.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSupportError,
    EmptyStepSetError,
    InfeasibleDriftError,
    InputError,
    NegativeWeightError,
    NumericError,
    ZeroTotalWeightError,
)

# Entries that one kernel buffer, dense line kernel or root-finding matrix
# may hold (128 MiB of float64): a larger one is refused, not allocated.
MAX_CELLS = 1 << 24

__all__ = [
    "StepDistribution",
    "Moments",
    "LatticeStructure",
    "TiltParams",
    "validate_steps",
    "compute_moments",
    "tilt",
    "solve_drift",
    "lattice_decompose",
    "in_lattice_support",
    "load_steps",
    "singular_steps",
]


@dataclass(frozen=True)
class StepDistribution:
    """Normalized finite-support step law on Z^2.

    ``atoms`` holds distinct (dx, dy, weight) triples, the weights summing to 1.
    """

    atoms: tuple[tuple[int, int, float], ...]

    def vertical_pmf(self) -> dict[int, float]:
        """Marginal law of dy."""
        out: dict[int, float] = {}
        for _, dy, w in self.atoms:
            out[dy] = out.get(dy, 0.0) + w
        return out

    @cached_property
    def vertical_atoms(self) -> tuple[tuple[int, float], ...]:
        """(dy, p) atoms of the vertical marginal in increasing dy, built once."""
        return tuple(sorted(self.vertical_pmf().items()))

    def horizontal_pmf(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for dx, _, w in self.atoms:
            out[dx] = out.get(dx, 0.0) + w
        return out

    @cached_property
    def max_abs_dx(self) -> int:
        return max(abs(dx) for dx, _, _ in self.atoms)

    @cached_property
    def max_abs_dy(self) -> int:
        return max(abs(dy) for _, dy, _ in self.atoms)


@dataclass(frozen=True)
class Moments:
    """Mean, variances (sigma11, sigma22) and covariance rho of a step law."""

    mu1: float
    mu2: float
    sigma11: float
    sigma22: float
    rho: float

    @property
    def mu(self) -> tuple[float, float]:
        return (self.mu1, self.mu2)


@dataclass(frozen=True)
class LatticeStructure:
    """The lattice Lambda the increments generate, and the walk's coset of it.

    Lambda has the Hermite basis (h11, 0), (h12, h22) with 0 <= h12 < h11
    and ``index`` h11 h22 = det Lambda.  After n steps the displacement lies
    in n c + Lambda, c = (c1, a2) reduced to 0 <= a2 < h22, 0 <= c1 < h11.
    Coordinate i alone lies in a_i n + d_i Z: d1 = gcd(h11, h12), d2 = h22.
    """

    h11: int
    h12: int
    h22: int
    c1: int
    a2: int

    @property
    def index(self) -> int:
        return self.h11 * self.h22

    @property
    def d1(self) -> int:
        return math.gcd(self.h11, self.h12)

    @property
    def a1(self) -> int:
        return self.c1 % self.d1

    @property
    def d2(self) -> int:
        return self.h22

    def row(self, n: int, z2: int) -> int | None:
        """z1 mod h11 for (z1, z2) in n c + Lambda; None if there is no z1."""
        k, r = divmod(z2 - self.a2 * n, self.h22)
        return None if r else (self.c1 * n + k * self.h12) % self.h11

    def nearest(self, x, n: int, target, lo: int, fixed_y2: bool = False):
        """Point y with y - x in n c + Lambda nearest ``target``: y2, then y1.

        Both are >= lo, except that ``fixed_y2`` takes y2 = target[1] as it
        is (None if that height is off the lattice); ties round down.
        """
        if fixed_y2:
            y2 = int(round(target[1]))
        else:
            y2 = _nearest_residue(target[1], x[1] + self.a2 * n, self.h22, lo)
        r1 = self.row(n, y2 - x[1])
        if r1 is None:
            return None
        return (_nearest_residue(target[0], x[0] + r1, self.h11, lo), y2)


@dataclass(frozen=True)
class TiltParams:
    """Tilt vector h and the moment generating value phi(h)."""

    h: tuple[float, float]
    phi: float


def _increment(v, what: str) -> int:
    """``v`` as an integer increment; ``what`` names it in the error.

    An int (numpy's too) is taken as it is, and so is a float whose value
    is an integer, such as the 1.0 a JSON writer may emit for 1.  Anything
    else, bools included, raises ``InputError``.
    """
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise InputError(f"{what} {v!r} is not an integer")


def validate_steps(raw) -> StepDistribution:
    """Merge duplicate increments, validate weights and normalize.

    ``raw`` is an iterable of ((dx, dy), weight) or (dx, dy, weight).
    Increments are integers (see ``_increment``) and weights finite real
    numbers, not bools; anything else raises ``InputError`` naming the
    step by its place in ``raw``.
    """
    items = list(raw)
    if not items:
        raise EmptyStepSetError("step set is empty")
    merged: dict[tuple[int, int], float] = {}
    for i, item in enumerate(items):
        if len(item) == 2:
            (dx, dy), w = item
        else:
            dx, dy, w = item
        dx, dy = _increment(dx, f"step {i}: dx"), _increment(dy, f"step {i}: dy")
        if (isinstance(w, bool) or not isinstance(w, numbers.Real)
                or not math.isfinite(w)):
            raise InputError(f"step {i}: weight {w!r} is not a finite number")
        w = float(w)
        if w < 0:
            raise NegativeWeightError(f"negative weight {w} for step ({dx},{dy})")
        merged[(dx, dy)] = merged.get((dx, dy), 0.0) + w
    try:
        total = math.fsum(merged.values())
    except OverflowError:  # the exact sum is past the largest float
        total = math.inf
    if not math.isfinite(total):
        raise InputError("total weight overflows a float")
    if total <= 0:
        raise ZeroTotalWeightError("total weight is zero")
    atoms = tuple(
        (dx, dy, w / total) for (dx, dy), w in sorted(merged.items()) if w > 0
    )
    if not atoms:
        raise ZeroTotalWeightError("total weight is zero")
    return StepDistribution(atoms=atoms)


def singular_steps() -> StepDistribution:
    """Uniform law on {(1,-1), (1,1), (-1,1)}."""
    return validate_steps([((1, -1), 1.0), ((1, 1), 1.0), ((-1, 1), 1.0)])


def compute_moments(sd: StepDistribution) -> Moments:
    """Exact first and second central moments of the atom law."""
    m1 = math.fsum(dx * w for dx, _, w in sd.atoms)
    m2 = math.fsum(dy * w for _, dy, w in sd.atoms)
    s11 = math.fsum((dx - m1) ** 2 * w for dx, _, w in sd.atoms)
    s22 = math.fsum((dy - m2) ** 2 * w for _, dy, w in sd.atoms)
    s12 = math.fsum((dx - m1) * (dy - m2) * w for dx, dy, w in sd.atoms)
    return Moments(mu1=m1, mu2=m2, sigma11=s11, sigma22=s22, rho=s12)


def tilt(sd: StepDistribution, h) -> tuple[StepDistribution, TiltParams]:
    """Exponentially tilt the law: weights scaled by exp(h.step)/phi(h).

    A tilt whose phi(h) overflows a float or underflows to 0 (every
    exp(h.step) out of range) raises ``NumericError``.
    """
    h1, h2 = float(h[0]), float(h[1])
    try:
        weights = [w * math.exp(h1 * dx + h2 * dy) for dx, dy, w in sd.atoms]
        phi = math.fsum(weights)
    except OverflowError:
        phi = math.inf
    if not 0 < phi < math.inf:
        raise NumericError(f"tilt h = {(h1, h2)}: phi(h) = {phi} is out of float range")
    atoms = tuple(
        (dx, dy, wt / phi) for (dx, dy, _), wt in zip(sd.atoms, weights)
    )
    return StepDistribution(atoms=atoms), TiltParams(h=(h1, h2), phi=phi)


def _grad_hess_logphi(sd: StepDistribution, h):
    """log phi, its gradient (= tilted mean) and Hessian (= tilted covariance)."""
    h = np.asarray(h, dtype=float)
    dx = np.array([a[0] for a in sd.atoms], dtype=float)
    dy = np.array([a[1] for a in sd.atoms], dtype=float)
    w = np.array([a[2] for a in sd.atoms], dtype=float)
    logits = h[0] * dx + h[1] * dy + np.log(w)
    top = logits.max()
    p = np.exp(logits - top)
    total = p.sum()
    p /= total
    mx = float(p @ dx)
    my = float(p @ dy)
    cxx = float(p @ (dx - mx) ** 2)
    cyy = float(p @ (dy - my) ** 2)
    cxy = float(p @ ((dx - mx) * (dy - my)))
    return (top + math.log(total), np.array([mx, my]),
            np.array([[cxx, cxy], [cxy, cyy]]))


def _cross(o, a, b):
    """(a - o) x (b - o): > 0 when o, a, b turn counter-clockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points) -> list[tuple[int, int]]:
    """Vertices of the convex hull of integer points, counter-clockwise.

    Andrew's monotone chain on exact integers; points on an edge are dropped.
    """
    pts = sorted(set(points))

    def chain(seq):
        out: list = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


def _require_interior(sd: StepDistribution, target: tuple[float, float]) -> None:
    """Raise ``InfeasibleDriftError`` unless ``target`` is strictly inside the hull.

    Exact: the hull has integer vertices and each float coordinate of the
    target is taken as the ``Fraction`` it equals.  The error names the
    hull edge nearest the target.
    """
    if not all(map(math.isfinite, target)):
        raise InfeasibleDriftError(f"target drift {target} is not finite")
    t = tuple(Fraction(c) for c in target)
    hull = _hull([(dx, dy) for dx, dy, _ in sd.atoms])
    edges = list(zip(hull, hull[1:] + hull[:1]))
    if all(_cross(a, b, t) > 0 for a, b in edges):
        return

    def dist2(edge):
        (a1, a2), (b1, b2) = edge
        e1, e2 = b1 - a1, b2 - a2
        u = min(max(Fraction((t[0] - a1) * e1 + (t[1] - a2) * e2, e1 * e1 + e2 * e2), 0), 1)
        return (t[0] - a1 - u * e1) ** 2 + (t[1] - a2 - u * e2) ** 2

    a, b = min(edges, key=dist2)
    raise InfeasibleDriftError(
        f"target drift {target} is not strictly inside the hull of the support: "
        f"nearest edge {a}-{b}, at distance {math.sqrt(dist2((a, b)))!r}"
    )


TILT_TOL = 1e-13  # solve_drift's |tilted mean - target| at the end
TILT_MAX_ITER = 100  # its Newton steps, each of length <= 1


def solve_drift(sd: StepDistribution, target_mu) -> TiltParams:
    """Find h with tilted drift equal to ``target_mu`` by damped Newton.

    A target on or outside the convex hull of the support has no tilt and
    is refused up front by an exact test (``InfeasibleDriftError``), and so
    is a support on one line (``lattice_decompose``), whose tilt Hessian is
    singular.  Newton then iterates on grad log phi(h) = target with steps
    of length <= 1, halved until the convex objective log phi(h) - h.target
    decreases by the Armijo fraction.  An interior target it cannot reach to
    ``TILT_TOL`` in ``TILT_MAX_ITER`` steps (a singular Hessian, or no
    descent left) is a ``NumericError``.
    """
    lattice_decompose(sd)
    shown = (float(target_mu[0]), float(target_mu[1]))
    _require_interior(sd, shown)
    target = np.array(shown)
    h = np.zeros(2)
    logphi, grad, hess = _grad_hess_logphi(sd, h)
    res = float(np.linalg.norm(grad - target))
    for _ in range(TILT_MAX_ITER):
        if res <= TILT_TOL:
            break
        try:
            delta = np.linalg.solve(hess, target - grad)
        except np.linalg.LinAlgError:  # the tilted law sits on one atom
            break
        # a long Newton step can land where the Hessian is nearly singular
        delta /= max(1.0, float(np.linalg.norm(delta)))
        f = logphi - h @ target
        slope = float((grad - target) @ delta)
        step = 1.0
        for _ in range(60):
            h_new = h + step * delta
            logphi_new, grad_new, hess_new = _grad_hess_logphi(sd, h_new)
            res_new = float(np.linalg.norm(grad_new - target))
            if (logphi_new - h_new @ target <= f + 1e-4 * step * slope
                    or res_new <= TILT_TOL):
                break
            step *= 0.5
        else:
            break  # no descent left at this precision
        h, logphi, grad, hess, res = h_new, logphi_new, grad_new, hess_new, res_new
    # the law that tilt builds rounds apart from the log-sum-exp mean above
    tilted, tp = tilt(sd, h)
    res = math.dist(compute_moments(tilted).mu, shown)
    if res > TILT_TOL:
        raise NumericError(f"target drift {shown} not reached: residual {res:.3e}",
                           residual=res)
    return tp


def _stride(atoms) -> tuple[int, ...]:
    """Per-axis gcd of the shift differences of (shift, ..., p) ``atoms``.

    Every shift on axis ax lies in one class modulo the result's entry;
    an axis with a single shift value gets 1.
    """
    out = []
    for shifts in list(zip(*atoms))[:-1]:
        d = 0
        for s in shifts:
            d = math.gcd(d, s - shifts[0])
        out.append(d or 1)
    return tuple(out)


def lattice_decompose(sd: StepDistribution) -> LatticeStructure:
    """Lattice of the atom differences s - s0 in Hermite form; rank < 2 raises.

    Extended Euclid on the heights of the row (h12, h22) and a difference
    leaves a row at their gcd and a first-axis vector, which joins h11.
    """
    (x0, y0), h11, row = sd.atoms[0][:2], 0, (0, 0)
    for dx, dy, _ in sd.atoms[1:]:
        u = (dx - x0, dy - y0)
        while u[1]:
            q = row[1] // u[1]
            row, u = u, (row[0] - q * u[0], row[1] - q * u[1])
        h11 = math.gcd(h11, u[0])
    h12, h22 = row if row[1] >= 0 else (-row[0], -row[1])
    if not h11 * h22:
        raise DegenerateSupportError("step support lies on one line")
    k, a2 = divmod(y0, h22)
    return LatticeStructure(h11, h12 % h11, h22, (x0 - k * h12) % h11, a2)


def in_lattice_support(ls: LatticeStructure, n: int, z) -> bool:
    """True iff the displacement z lies in n c + Lambda, reachable modulo Lambda."""
    r1 = ls.row(n, int(z[1]))
    return r1 is not None and (int(z[0]) - r1) % ls.h11 == 0


def _nearest_residue(target: float, residue: int, d: int, lo: int) -> int:
    """The c = residue mod d with c >= lo nearest ``target``; ties round down."""
    c = int(round(target))
    c += (residue - c) % d
    if c - d >= lo and abs(c - d - target) <= abs(c - target):
        c -= d
    return max(c, lo + ((residue - lo) % d))


def load_steps(path) -> StepDistribution:
    """Read a step-set JSON file: {"steps": [{"dx": int, "dy": int, "w": number}, ...]}.

    A file of any other shape raises ``InputError`` naming what is wrong:
    the top level, the ``steps`` value, or the entry that is not an object
    with those three keys.
    """
    with open(path) as fh:
        obj = json.load(fh)
    steps = obj.get("steps") if isinstance(obj, dict) else None
    if not isinstance(steps, list):
        raise InputError('a step file is one object whose "steps" is a list')
    raw = []
    for i, s in enumerate(steps):
        if not (isinstance(s, dict) and {"dx", "dy", "w"} <= s.keys()):
            raise InputError(f'step {i}: {s!r} is not an object with keys "dx", "dy", "w"')
        raw.append((s["dx"], s["dy"], s["w"]))
    return validate_steps(raw)


def _check_size(size: int, what: str) -> None:
    """Raise ``InputError`` if ``what`` of ``size`` entries is above ``MAX_CELLS``."""
    if size > MAX_CELLS:
        raise InputError(f"{what} of {size} entries is above the cap of {MAX_CELLS}")


class _Buffers:
    """Flat arrays one run of ``_kill_step`` reuses from step to step.

    Slot 0 holds the padded input, slot 1 the output box and slot 2 the
    scratch for p * a, which also takes ``_trim``'s copy of the kept box.
    ``take`` returns the first ``size`` entries of a slot.  A slot too
    short for them grows to ``size`` or to half again its length, whichever
    is more, so a run that keeps its buffers reallocates a slot a few dozen
    times in all, and a fresh one allocates exact sizes.

    Buffers a run keeps are built with ``mapped=True``: each float slot is
    then an anonymous memory map, whose pages become resident only when a
    step first writes them, and a slot that grows returns its old pages at
    once, where a slot from malloc would leave a hole in its heap.  Buffers
    for one step take plain ``np.empty`` slots, since a map per slot per
    step costs page faults.  No slot grows past ``MAX_CELLS`` entries.
    """

    __slots__ = ("dtype", "mapped", "slots")

    def __init__(self, dtype=float, mapped=False):
        self.dtype = np.dtype(dtype)
        self.mapped = mapped and self.dtype != object  # references cannot live in a raw map
        self.slots = [np.empty(0, self.dtype)] * 3

    def take(self, k: int, size: int) -> np.ndarray:
        buf = self.slots[k]
        if buf.size < size:
            _check_size(size, "a kernel buffer")
            buf = self.slots[k] = self._new(max(size, buf.size + buf.size // 2))
        return buf[:size]

    def _new(self, n: int) -> np.ndarray:
        if not self.mapped:
            return np.empty(n, self.dtype)
        import mmap
        return np.frombuffer(mmap.mmap(-1, n * self.dtype.itemsize), self.dtype)


def _trim(a: np.ndarray, lo: tuple, budget, stride: tuple, work: _Buffers):
    """Peel edge rows and columns off a nonnegative 2-D box within a mass budget.

    ``a[i, j]`` is at (lo1 + d1*i, lo2 + d2*j), (d1, d2) = ``stride``.  The
    lightest of the box's edge slabs (first and last row, first and last
    column) is peeled for as long as the total peeled stays <= ``budget``;
    budget 0 peels exact-zero edges only, and a tie peels the first of them
    in that order.  Returns (box, lo, dropped), ``dropped`` the sum of the
    peeled slabs in peel order.  A box peeled to nothing comes back with no
    cells, shape (0, 0).

    The four slabs are summed once; a peel then sums the slab it uncovers
    and the two across it, which lost a cell, and keeps the sum of the
    opposite one, the same slice as before.  A row is summed on the view
    ``a[r0:r0 + 1, c0:c1]`` of the box left and a column on ``a[r0:r1,
    c0:c0 + 1]``, the views a peel that sums all four slabs each round
    would sum, so every sum and every choice is the same as there.  A
    peeled box that is not contiguous is copied into the scratch slot of
    ``work``, so it comes back contiguous.
    """
    dropped = 0
    if not a.size:  # a kill took every row or column
        return np.zeros((0, 0), a.dtype), lo, dropped
    add = np.add.reduce
    r1, c1 = a.shape
    r0 = c0 = 0
    top, bottom = add(a[:1], None), add(a[-1:], None)
    left, right = add(a[:, :1], None), add(a[:, -1:], None)
    while True:
        mass, k = top, 0
        if bottom < mass:
            mass, k = bottom, 1
        if left < mass:
            mass, k = left, 2
        if right < mass:
            mass, k = right, 3
        if dropped + mass > budget:
            break
        dropped += mass
        if k == 0:
            r0 += 1
        elif k == 1:
            r1 -= 1
        elif k == 2:
            c0 += 1
        else:
            c1 -= 1
        if r0 == r1 or c0 == c1:
            return np.zeros((0, 0), a.dtype), lo, dropped
        # sum the slab the peel uncovered and the two across it, which
        # lost a cell; the opposite slab is the same slice as before
        if k < 2:
            if k:
                bottom = add(a[r1 - 1:r1, c0:c1], None)
            else:
                top = add(a[r0:r0 + 1, c0:c1], None)
            left, right = add(a[r0:r1, c0:c0 + 1], None), add(a[r0:r1, c1 - 1:c1], None)
        else:
            if k == 3:
                right = add(a[r0:r1, c1 - 1:c1], None)
            else:
                left = add(a[r0:r1, c0:c0 + 1], None)
            top, bottom = add(a[r0:r0 + 1, c0:c1], None), add(a[r1 - 1:r1, c0:c1], None)
    kept = a[r0:r1, c0:c1]
    if kept.shape == a.shape:
        return a, lo, dropped
    lo = (lo[0] + stride[0] * r0, lo[1] + stride[1] * c0)
    if kept.flags.c_contiguous:
        return kept, lo, dropped
    out = work.take(2, kept.size).reshape(kept.shape)
    out[...] = kept
    return out, lo, dropped


def _step_plan(atoms: tuple, stride: tuple, nd: int):
    """How the kernels move a measure by ``atoms``, derived once per law.

    Returns (stride, smin, grow, moves, dense): ``smin`` the least shift on
    each axis, ``moves`` one (p, offset, ...) per atom in atom order, an
    offset (shift - min shift) / d cells on each axis, ``grow`` the largest
    offset on each axis, and ``dense`` for nd = 1 the atoms summed into one
    read-only convolution kernel (else None).  A shift off its axis's class
    modulo the stride raises ``InputError``.  A chain derives its plan once
    and passes it to every step.
    """
    shifts = list(zip(*atoms))[:nd]
    smin = tuple(min(c) for c in shifts)
    if any((s - s0) % d for c, s0, d in zip(shifts, smin, stride) for s in c):
        raise InputError(f"step shifts {shifts} are off the lattice of stride {stride}")
    offs = [[(s - s0) // d for s in c] for c, s0, d in zip(shifts, smin, stride)]
    moves = tuple((at[nd], *o) for at, *o in zip(atoms, *offs))
    dense = None
    if nd == 1:
        _check_size(max(offs[0]) + 1, "a line kernel")
        dense = np.zeros(max(offs[0]) + 1)
        for p, i in moves:
            dense[i] += p
        dense.flags.writeable = False
    return stride, smin, tuple(max(o) for o in offs), moves, dense


def _kill_step(a: np.ndarray, lo: tuple, plan: tuple, kill, budget=0,
               work: _Buffers | None = None):
    """One step of a walk killed on leaving a box: convolve, kill, peel edges.

    ``a`` is a nonempty 2-D measure with ``a[i, j]`` at coordinate
    (lo1 + d1*i, lo2 + d2*j), of any dtype that adds: float64, or object
    holding Python ints for exact path counts.  ``plan`` is the law's
    ``_step_plan(atoms, (d1, d2), 2)``, all shifts of an axis in one class
    modulo its stride (see ``_stride``); an atom moves the array by
    (shift - min shift) / d cells.  ``kill[ax]`` is the lowest surviving
    coordinate on an axis, or None.  A line steps by ``_line_steps``.

    ``a`` is copied into rows of the output box's width n2 + grow2, zero
    padded, so that each atom's box of the output is one contiguous run of
    its flat array, at offset i * width + j.  The first atom's product is
    written over its run, the head and tail outside it are zeroed, and the
    other atoms add theirs in atom order: each cell sums the products of a
    per-box convolution in the same order, plus p * 0 = +0.0 from the
    padding, which changes no nonnegative value.  The arrays come from
    ``work``, which a caller stepping one measure many times keeps for the
    whole run; without it they are fresh.  The output box keeps the shape
    and row-major layout of a fresh array, so every cut and slab summed
    below is laid out, and rounds, as it would be in one.

    Returns (alive, lo, cuts, dropped): ``cuts[ax]`` is the slice killed
    below ``kill[ax]``, its last entry at the highest coset point below it
    (kill[ax] - 1 at stride 1; the last axis is cut first); ``dropped`` is
    the mass of the edge slabs ``_trim`` peeled, at most ``budget`` in all.
    The default budget 0 drops nothing but exact zeros.  ``alive`` has no
    cells once nothing survives; callers do not step it further.  ``alive``
    and ``cuts`` may be views of ``work``'s arrays, valid until its next
    step.
    """
    stride, (s1, s2), (g1, g2), moves, _ = plan
    work = _Buffers(a.dtype) if work is None else work
    rows, n = a.shape
    width = n + g2
    size = (rows - 1) * width + n  # extent of a laid out at that width
    buf = work.take(0, rows * width)
    pad = buf.reshape(rows, width)
    pad[:, :n] = a
    pad[:, n:] = 0
    src = buf[:size]
    flat = work.take(1, (rows + g1) * width)
    for k, (p, o1, o2) in enumerate(moves):
        at = o1 * width + o2
        run = flat[at:at + size]
        if k == 0:
            # every cell outside the first run is 0 and 0 + x == x:
            # write the run, zero the rest
            flat[:at] = 0
            flat[at + size:] = 0
            if p == 1:
                run[...] = src
            else:
                np.multiply(src, p, out=run)
        elif p == 1:
            run += src
        else:
            run += np.multiply(src, p, out=work.take(2, size))
    new = flat.reshape(rows + g1, width)
    (d1, d2), (kill1, kill2) = stride, kill
    lo1, lo2 = lo[0] + s1, lo[1] + s2
    # first cell at or above kill: ceil((kill - lo) / stride)
    k = 0 if kill2 is None else max(-((lo2 - kill2) // d2), 0)
    cut2, new, lo2 = new[:, :k], new[:, k:], lo2 + k * d2
    k = 0 if kill1 is None else max(-((lo1 - kill1) // d1), 0)
    cut1, new, lo1 = new[:k], new[k:], lo1 + k * d1
    new, lo, dropped = _trim(new, (lo1, lo2), budget, stride, work)
    return new, lo, (cut1, cut2), dropped


def _peel_line(a: np.ndarray, lo: int, d: int, budget):
    """Peel the ends of a 1-D float measure, ``a[i]`` at lo + d*i.

    The lighter end goes first, the low one on a tie, while the total
    peeled stays <= ``budget``; budget 0 peels exact zeros only.  Ends are
    compared and summed as Python floats, the same doubles as numpy's.
    Returns (kept, lo, dropped), ``kept`` a view of ``a``; a line peeled
    to nothing comes back as ``a[:0]`` with the lo it had.
    """
    i0, i1, drop = 0, len(a), 0.0
    while i0 < i1:
        first, last = float(a[i0]), float(a[i1 - 1])
        high = last < first
        mass = last if high else first
        if drop + mass > budget:
            break
        drop += mass
        if high:
            i1 -= 1
        else:
            i0 += 1
    if i0 == i1:
        return a[:0], lo, drop
    return a[i0:i1], lo + d * i0, drop


def _line_steps(a: np.ndarray, lo: int, plan: tuple, kill: int | None,
                steps: int, budget=0.0, killed=0.0, dropped=0.0):
    """``steps`` steps of a walk on a line killed below ``kill``.

    ``a`` is a nonempty float64 measure with ``a[i]`` at lo + d*i,
    ``plan`` the ``_step_plan(atoms, (d,), 1)`` of (shift, p) ``atoms`` in
    one class modulo d, and ``kill`` the lowest surviving coordinate, or
    None.  A step is one
    ``np.convolve`` with the law's dense kernel; the mass below ``kill``
    is added to ``killed``, and then ``_peel_line`` peels the ends within
    ``budget`` and the mass it peeled is added to ``dropped``.  Every step
    gets the whole budget, and the default 0 peels exact zeros only.
    Stepping stops at the first step that leaves no cells.  A step whose
    convolution would hold more than ``MAX_CELLS`` entries raises
    ``InputError`` before it allocates.

    Returns (a, lo, killed, dropped, left): ``left`` is the budget the
    last step left, and ``a`` (shape (0,) once nothing survives) may be a
    view of a convolution output.
    """
    (d,), (smin,), _, _, dense = plan
    cap = MAX_CELLS - len(dense) + 1  # longest line a step may convolve
    left = budget
    for _ in range(steps):
        if len(a) > cap:  # then this raises
            _check_size(len(a) + len(dense) - 1, "a line step")
        a = np.convolve(a, dense)
        lo += smin
        # a step that kills nothing adds nothing: killed + 0.0 == killed
        if kill is not None and lo < kill:
            k = -((lo - kill) // d)  # first cell at or above kill
            # numpy sums a one-cell slice to its cell: skip the sum() call,
            # the dearest part of a step after the convolution
            killed += float(a[0] if k == 1 else a[:k].sum())
            a = a[k:]
            lo += k * d
        a, lo, drop = _peel_line(a, lo, d, budget)
        dropped += drop
        left = budget - drop
        if not a.size:
            break
    return a, lo, killed, dropped, left
