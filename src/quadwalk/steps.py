"""Finite-support lattice step distributions.

A step set is a weighted list of integer increments (dx, dy).  This module
normalizes and validates step sets, computes exact first and second moments,
finds the lattice Lambda the increments generate, the one record of integer
facts about the support, and implements exponential tilting together with a
Newton solver that finds the tilt achieving a prescribed drift.

It also holds ``_kill_step``, the one propagation kernel of the package:
a single step of a walk killed on leaving a box, on a 1-D or 2-D measure of
floats or of exact Python integers.  It advances every exact DP in ``dp``.
The measure is stored on a coset of the per-axis superlattice of Lambda:
with stride d (``_stride``, the d_i of ``LatticeStructure``) cell i stands
for coordinate lo + d*i, since after any number of steps from one start every
reachable coordinate lies in one class modulo d.  The other d-1 classes,
exact zeros in a unit-stride box, are never stored.  After each step
``_trim`` peels the lightest edge rows and columns while their mass fits
the caller's budget and returns what it peeled; the default budget 0
removes exact zeros only.  A measure peeled or killed to nothing has no
cells, and callers stop stepping it: mass only ever leaves a killed walk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSupportError,
    EmptyStepSetError,
    InfeasibleDriftError,
    InputError,
    NegativeWeightError,
    ZeroTotalWeightError,
)

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

    ``atoms`` holds distinct (dx, dy, weight) triples with the weights
    summing to 1; ``total_weight`` is the weight sum before normalization.
    """

    atoms: tuple[tuple[int, int, float], ...]
    total_weight: float

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

    def max_abs_dx(self) -> int:
        return max(abs(dx) for dx, _, _ in self.atoms)

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


def validate_steps(raw) -> StepDistribution:
    """Merge duplicate increments, validate weights and normalize.

    ``raw`` is an iterable of ((dx, dy), weight) or (dx, dy, weight).
    """
    items = list(raw)
    if not items:
        raise EmptyStepSetError("step set is empty")
    merged: dict[tuple[int, int], float] = {}
    for item in items:
        if len(item) == 2:
            (dx, dy), w = item
        else:
            dx, dy, w = item
        dx, dy, w = int(dx), int(dy), float(w)
        if w < 0:
            raise NegativeWeightError(f"negative weight {w} for step ({dx},{dy})")
        merged[(dx, dy)] = merged.get((dx, dy), 0.0) + w
    total = math.fsum(merged.values())
    if total <= 0:
        raise ZeroTotalWeightError("total weight is zero")
    atoms = tuple(
        (dx, dy, w / total) for (dx, dy), w in sorted(merged.items()) if w > 0
    )
    if not atoms:
        raise ZeroTotalWeightError("total weight is zero")
    return StepDistribution(atoms=atoms, total_weight=total)


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
    """Exponentially tilt the law: weights scaled by exp(h.step)/phi(h)."""
    h1, h2 = float(h[0]), float(h[1])
    weights = [w * math.exp(h1 * dx + h2 * dy) for dx, dy, w in sd.atoms]
    phi = math.fsum(weights)
    atoms = tuple(
        (dx, dy, wt / phi) for (dx, dy, _), wt in zip(sd.atoms, weights)
    )
    return StepDistribution(atoms=atoms, total_weight=phi), TiltParams(h=(h1, h2), phi=phi)


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


def solve_drift(sd: StepDistribution, target_mu, tol: float = 1e-13,
                max_iter: int = 100) -> TiltParams:
    """Find h with tilted drift equal to ``target_mu`` by damped Newton.

    Newton iterates on grad log phi(h) = target with steps of length <= 1,
    halved until the convex objective log phi(h) - h.target decreases by the
    Armijo fraction; divergence of |h| beyond 1e3, or no descent left above
    ``tol``, is reported as an infeasible target (on or outside the hull).
    A support on one line is rejected up front by ``lattice_decompose``,
    since its tilt Hessian is singular.
    """
    lattice_decompose(sd)
    target = np.asarray(target_mu, dtype=float)
    h = np.zeros(2)
    logphi, grad, hess = _grad_hess_logphi(sd, h)
    res = float(np.linalg.norm(grad - target))
    for _ in range(max_iter):
        if res <= tol:
            break
        try:
            delta = np.linalg.solve(hess, target - grad)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSupportError(str(exc)) from exc
        # a full Newton step from far away can land where the tilted law
        # sits on one atom and the Hessian is numerically singular
        delta /= max(1.0, float(np.linalg.norm(delta)))
        f = logphi - h @ target
        slope = float((grad - target) @ delta)
        step = 1.0
        for _ in range(60):
            h_new = h + step * delta
            logphi_new, grad_new, hess_new = _grad_hess_logphi(sd, h_new)
            res_new = float(np.linalg.norm(grad_new - target))
            if (logphi_new - h_new @ target <= f + 1e-4 * step * slope
                    or res_new <= tol):
                break
            step *= 0.5
        else:
            break  # no descent left at this precision
        h, logphi, grad, hess, res = h_new, logphi_new, grad_new, hess_new, res_new
        if np.linalg.norm(h) > 1e3:
            raise InfeasibleDriftError(
                f"target drift {tuple(target)} infeasible: |h| diverged"
            )
    if res > tol:
        raise InfeasibleDriftError(
            f"target drift {tuple(target)} not reached: residual {res:.3e}"
        )
    return tilt(sd, h)[1]


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
    """Read a step-set JSON file: {"steps": [{"dx": int, "dy": int, "w": number}, ...]}."""
    with open(path) as fh:
        obj = json.load(fh)
    return validate_steps([(s["dx"], s["dy"], s["w"]) for s in obj["steps"]])


def _trim(a: np.ndarray, lo: tuple, budget, stride: tuple):
    """Peel edge slabs off a nonnegative 1-D or 2-D ``a`` within a mass budget.

    ``a[i]`` is at coordinate lo + stride*i on each axis.  The lightest of
    the box's edge slabs (first and last row, first and last column) is
    peeled for as long as the total peeled stays <= ``budget``; budget 0
    peels exact-zero edges only.  Returns (array, lo, dropped), ``dropped``
    the sum of the peeled slabs.  An array peeled to nothing comes back
    with no cells, shape (0,) * ndim.
    """
    span = [[0, n] for n in a.shape]
    dropped = 0
    while all(s0 < s1 for s0, s1 in span):
        box = [slice(s0, s1) for s0, s1 in span]
        best = None
        for ax, (s0, s1) in enumerate(span):
            for side, i in ((0, s0), (1, s1 - 1)):
                mass = a[tuple(box[:ax] + [slice(i, i + 1)] + box[ax + 1:])].sum()
                if best is None or mass < best[0]:
                    best = (mass, ax, side)
        mass, ax, side = best
        if dropped + mass > budget:
            break
        dropped += mass
        span[ax][side] += 1 - 2 * side
    if any(s0 >= s1 for s0, s1 in span):
        return np.zeros((0,) * a.ndim, dtype=a.dtype), lo, dropped
    if all(sp == [0, n] for sp, n in zip(span, a.shape)):
        return a, lo, dropped
    lo = tuple(c + d * s0 for c, d, (s0, _) in zip(lo, stride, span))
    return np.ascontiguousarray(a[tuple(box)]), lo, dropped


def _kill_step(a: np.ndarray, lo: tuple, atoms, kill, stride: tuple, budget=0):
    """One step of a walk killed on leaving a box: convolve, kill, peel edges.

    ``a`` is a nonempty 1-D or 2-D measure with ``a[i]`` at coordinate
    lo + d*i, with one offset lo and one stride d per axis, of any dtype
    that adds: float64, or object holding Python ints for exact path counts.
    ``atoms`` are (shift, ..., p) tuples with one shift per axis, all shifts
    of an axis in one class modulo its stride (see ``_stride``); an atom
    moves the array by (shift - min shift) / d cells.  ``kill[ax]`` is the
    lowest surviving coordinate on an axis, or None.

    Returns (alive, lo, cuts, dropped): ``cuts[ax]`` is the slice killed
    below ``kill[ax]``, its last entry at the highest coset point below it
    (kill[ax] - 1 at stride 1; the last axis is cut first); ``dropped`` is
    the mass of the edge slabs ``_trim`` peeled, at most ``budget`` in all.
    The default budget 0 drops nothing but exact zeros.  ``alive`` has no
    cells once nothing survives; callers do not step it further.
    """
    nd = a.ndim
    shifts = list(zip(*atoms))[:nd]
    smin = [min(c) for c in shifts]
    if any((s - s0) % d for c, s0, d in zip(shifts, smin, stride) for s in c):
        raise InputError(f"step shifts {shifts} are off the lattice of stride {stride}")
    offs = [[(s - s0) // d for s in c] for c, s0, d in zip(shifts, smin, stride)]
    if nd == 1 and a.dtype != object:
        # one np.convolve call costs far less than per-atom adds on the
        # short line measures of leaked mass and half-planes
        dense = np.zeros(max(offs[0]) + 1)
        for i, (_, p) in zip(offs[0], atoms):
            dense[i] += p
        new = np.convolve(a, dense)
    else:
        new = np.zeros([n + max(o) for n, o in zip(a.shape, offs)], dtype=a.dtype)
        tmp = None  # scratch for p * a, freed before _trim copies the box
        for at, *at_offs in zip(atoms, *offs):
            box = tuple(slice(i, i + n) for i, n in zip(at_offs, a.shape))
            if at[nd] == 1:
                new[box] += a
            else:
                tmp = np.multiply(a, at[nd], out=tmp)
                new[box] += tmp
        del tmp
    lo = [c + s0 for c, s0 in zip(lo, smin)]
    cuts = [None] * nd
    for ax in reversed(range(nd)):
        # first cell at or above kill[ax]: ceil((kill - lo) / stride)
        k = 0 if kill[ax] is None else max(-((lo[ax] - kill[ax]) // stride[ax]), 0)
        head = (slice(None),) * ax
        cuts[ax] = new[head + (slice(None, k),)]
        new = new[head + (slice(k, None),)]
        lo[ax] += k * stride[ax]
    new, lo, dropped = _trim(new, tuple(lo), budget, stride)
    return new, lo, cuts, dropped
