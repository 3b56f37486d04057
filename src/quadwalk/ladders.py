"""Ladder heights of the vertical component and their renewal functions.

The weak descending ladder height is the nonnegative overshoot -S2 at the
first time the vertical walk is <= 0; the strict ascending ladder height is
S2 at the first time it is > 0.  Both laws take one step and one closed
form: a first step that leaves the half-line is its own overshoot, and from
the height where any other first step lands, ``CrossingSolver`` gives the
first-entry law through the bounded solutions of the step recurrence
(characteristic roots inside the unit disk).

The renewal series V built from the weak ladder law satisfies the one-step
harmonicity identity under exactly one kill rule; ``resolve_convention``
finds which one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConventionError,
    DegenerateSupportError,
    InputError,
    NonzeroDriftError,
    NumericError,
    UnsupportedLatticeError,
)
from .steps import StepDistribution, _check_size

__all__ = [
    "BoundaryConvention",
    "LadderDist",
    "RenewalTable",
    "descending_ladder",
    "ascending_ladder",
    "renewal_V",
    "renewal_H",
    "kappa",
    "harmonicity_residual",
    "resolve_convention",
    "ConventionReport",
]

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
DRIFT_TOL = 1e-10  # largest |E[dy]| of a driftless vertical walk
XMAX_CONVENTION = 50  # the convention check reads heights 1..XMAX_CONVENTION
HARMONIC_TOL = 1e-9  # and passes a one-step residual up to this
# Rounding allowed on a probability or a total mass before it counts as
# a numeric failure: ladder mass above 1, overshoot laws outside [0, 1].
MASS_TOL = 1e-12


class BoundaryConvention(enum.Enum):
    """Kill rule for a coordinate: exit on <= 0, or exit on < 0."""

    KILL_ON_NONPOSITIVE = "nonpositive"
    KILL_ON_NEGATIVE = "negative"

    @property
    def threshold(self) -> int:
        """Lowest surviving coordinate value."""
        return 1 if self is BoundaryConvention.KILL_ON_NONPOSITIVE else 0


@dataclass(frozen=True)
class LadderDist:
    """Ladder height law with truncation bookkeeping."""

    pmf: dict[int, float]
    truncation_error: float  # signed: 1 - total mass, negative by rounding
    mean: float

    def max_value(self) -> int:
        return max(self.pmf) if self.pmf else 0


@dataclass(frozen=True)
class RenewalTable:
    """Tabulated renewal function on integers 0..U, U = len(values) - 1."""

    values: np.ndarray

    def __call__(self, u: int) -> float:
        if u < 0:
            return 0.0
        if u >= len(self.values):
            size = len(self.values) - 1
            raise InputError(f"renewal table of size {size} queried at {u}")
        return float(self.values[u])


class CrossingSolver:
    """First-entry law into (-inf, 0] for a zero-drift bounded lattice walk.

    For a walk with step pmf p on [-d, u] the function h -> P(first entry
    at -j | start h) solves the step recurrence for h >= 1 with indicator
    boundary values on {1-d, ..., 0}.  The bounded solutions are spanned by
    the constant together with z^h over the d-1 characteristic roots with
    |z| < 1, after removing the double root at z = 1 forced by zero drift.
    A law whose values share a factor g > 1, whose g-th roots of unity are
    roots too, is refused exactly, by gcd.
    """

    def __init__(self, pmf: dict[int, float]):
        vals = sorted(pmf)
        self.d = -vals[0]
        self.u = vals[-1]
        if self.d < 1 or self.u < 1:
            raise DegenerateSupportError(
                "crossing solver needs both up and down steps"
            )
        g = math.gcd(*vals)
        if g > 1:
            raise UnsupportedLatticeError(
                f"vertical steps all lie in {g}Z; rescale the walk")
        deg = self.u + self.d
        # np.roots takes the roots as eigenvalues of a matrix of (deg - 2)^2 entries
        _check_size(deg * deg, "the characteristic polynomial's matrix")
        coeffs = np.zeros(deg + 1)
        for s, p in pmf.items():
            coeffs[s + self.d] += p
        coeffs[self.d] -= 1.0
        # deflate the double root at z=1 (zero drift): two synthetic divisions
        quot = coeffs
        for _ in range(2):
            quot, rem = self._divide_by_z_minus_1(quot)
            if abs(rem) > 1e-9:
                raise NonzeroDriftError(
                    f"characteristic polynomial remainder {rem:.2e} at z=1"
                )
        roots = np.roots(quot[::-1]) if len(quot) > 1 else np.array([])
        inside = [z for z in roots if abs(z) < 1 - 1e-8]
        if len(inside) != self.d - 1:
            raise NumericError(
                f"expected {self.d - 1} interior roots, found {len(inside)}"
            )
        self.roots = np.array([1.0 + 0j] + inside)
        # boundary rows x = 0, -1, ..., 1-d so that column j solves the
        # indicator at x = -j
        xs = np.arange(0, -self.d, -1)
        M = self.roots[None, :] ** xs[:, None]
        self.coeffs = np.linalg.solve(M, np.eye(self.d, dtype=complex))

    @staticmethod
    def _divide_by_z_minus_1(c):
        # c[k] is the coefficient of z^k; returns quotient and remainder
        n = len(c) - 1
        quot = np.zeros(n, dtype=float)
        carry = 0.0
        for k in range(n, 0, -1):
            carry += c[k]
            quot[k - 1] = carry
        rem = carry + c[0]
        return quot, rem

    def overshoot_matrix(self, heights: np.ndarray) -> np.ndarray:
        """X[h_i, j] = P(first entry into <=0 lands at -j | start heights[i])."""
        powers = self.roots[None, :] ** heights[:, None]
        X = (powers @ self.coeffs).real
        if X.size and (X.min() < -MASS_TOL or X.max() > 1.0 + MASS_TOL):
            raise NumericError(
                f"overshoot probabilities in [{X.min():.3e}, {X.max():.3e}], "
                f"outside [0, 1] by more than {MASS_TOL:.0e}"
            )
        return np.clip(X, 0.0, 1.0)  # rounding only, at most MASS_TOL


def _ladder_engine(pmf: dict[int, float], conv: BoundaryConvention) -> LadderDist:
    """Descending ladder of the walk with law ``pmf``: one step, then the solver.

    The walk starts at 0 and is absorbed below ``conv.threshold``: weak
    (KILL_ON_NONPOSITIVE) on position <= 0, overshoot -pos >= 0; strict
    (KILL_ON_NEGATIVE) on position < 0, overshoot -pos >= 1.
    """
    mean = math.fsum(v * p for v, p in pmf.items())
    if abs(mean) > DRIFT_TOL:
        raise NonzeroDriftError(f"vertical drift {mean:.3e} is not zero")
    solver = CrossingSolver(pmf)  # refuses a law without up or down steps
    vals = sorted(pmf)
    kill = conv.threshold             # lowest alive height
    absorbed = np.zeros(1 - vals[0])  # index = overshoot -pos
    for s in vals:
        if s < kill:
            absorbed[-s] = pmf[s]  # a first step below kill is the overshoot
    alive = [s for s in vals if s >= kill]
    # the solver absorbs on <= 0: shift heights by 1 - kill, and its
    # overshoot j is the ladder's overshoot j + 1 - kill
    heights = np.array(alive) + 1 - kill
    absorbed[1 - kill:1 - kill + solver.d] += (
        np.array([pmf[s] for s in alive]) @ solver.overshoot_matrix(heights))
    out = {j: float(m) for j, m in enumerate(absorbed) if m > 0.0}
    residual = 1.0 - math.fsum(absorbed)
    if residual < -MASS_TOL:
        raise NumericError(
            f"ladder mass exceeds 1 by {-residual:.3e} (tolerance {MASS_TOL:.0e})",
            residual=residual, partial=out)
    return LadderDist(pmf=out, truncation_error=residual,
                      mean=math.fsum(j * p for j, p in out.items()))


def descending_ladder(sd: StepDistribution,
                      conv: BoundaryConvention = BoundaryConvention.KILL_ON_NONPOSITIVE
                      ) -> LadderDist:
    """Descending ladder height law of the vertical component.

    KILL_ON_NONPOSITIVE gives the weak ladder (-S2 at the first time
    S2 <= 0, overshoot 0 allowed); KILL_ON_NEGATIVE the strict one.
    """
    return _ladder_engine(sd.vertical_pmf(), conv)


def ascending_ladder(sd: StepDistribution) -> LadderDist:
    """Strict ascending ladder height law: S2 at the first time S2 > 0.

    Computed as the strict descending ladder of the reflected walk.
    """
    pmf = {-v: p for v, p in sd.vertical_pmf().items()}
    return _ladder_engine(pmf, BoundaryConvention.KILL_ON_NEGATIVE)


def _renewal_mass(pmf: dict[int, float], U: int) -> np.ndarray:
    """u_0..u_U of u_0 = 1, u_k = sum_{j >= 1} pmf[j] u_{k-j}.

    u_k is the mass the renewal process with step law ``pmf`` (its atoms
    j >= 1) puts on k, sum_m P(Z_m = k), in O(U * len(pmf)) operations.
    Each entry depends only on the earlier ones, so a longer table repeats
    a shorter one exactly.
    """
    if U < 0:
        raise InputError(f"renewal table size must be >= 0, got {U}")
    _check_size(U + 1, "a renewal table")
    steps = sorted((j, p) for j, p in pmf.items() if j > 0)
    u = [1.0] + [0.0] * U
    for k in range(1, U + 1):
        total = 0.0
        for j, p in steps:
            if j > k:
                break
            total += p * u[k - j]
        u[k] = total
    return np.array(u)


def renewal_V(ld: LadderDist, U: int) -> RenewalTable:
    """V(u) = 1_{u>=0} + sum_k P(chi_1 + ... + chi_k <= u) for the weak law.

    The atom at 0 is resummed geometrically: with p0 = P(chi = 0) and
    chi~ the law conditioned positive, V(u) = (1/(1-p0)) sum_{k>=0}
    P(chi~_1 + ... + chi~_k <= u), a finite sum since chi~ >= 1.
    """
    if ld.mean <= 0:
        raise InputError("weak ladder mean must be positive for V")
    p0 = ld.pmf.get(0, 0.0)
    if p0 >= 1.0 - 1e-15:
        raise InputError("ladder law has all mass at overshoot 0")
    pos = {j: p / (1.0 - p0) for j, p in ld.pmf.items()}
    S = np.cumsum(_renewal_mass(pos, U))
    return RenewalTable(values=S / (1.0 - p0))


def renewal_H(ld: LadderDist, U: int) -> RenewalTable:
    """H(u) = 1_{u>0} + sum_k P(chi+_1 + ... + chi+_k < u), strict ascent."""
    if ld.pmf.get(0, 0.0) > 0:
        raise InputError("strict ascending ladder law cannot charge 0")
    # for u >= 1 the k = 0 term P(Z_0 < u) is the indicator, and
    # P(Z_k < u) = P(Z_k <= u-1): the renewal CDF shifted right by one
    H = np.cumsum(_renewal_mass(ld.pmf, U))[:U]
    return RenewalTable(values=np.concatenate(([0.0], H)))


def kappa(ld: LadderDist, sigma2: float) -> float:
    """sqrt(2/pi) times the ladder mean over sigma2, the walk's vertical sd.

    With V(x) ~ x / E[chi] this makes kappa V(x) / sqrt(n) the Brownian
    tail sqrt(2/pi) x / (sigma2 sqrt(n)) for large x.
    """
    return SQRT_2_OVER_PI * ld.mean / sigma2


def harmonicity_residual(vert_pmf: dict[int, float], table: np.ndarray,
                         conv: BoundaryConvention, heights) -> float:
    """Max over x2 in ``heights`` of |f(x2) - E[f(x2 + X2); survive]|.

    ``table[u]`` is f(u) for u = 0..U; a step survives when it lands at or
    above ``conv.threshold``.
    """
    t = conv.threshold
    return max(
        abs(table[x2] - math.fsum(p * table[x2 + dy]
                                  for dy, p in vert_pmf.items()
                                  if x2 + dy >= t))
        for x2 in heights)


@dataclass(frozen=True)
class ConventionReport:
    """Outcome of the V-harmonicity convention test."""

    selected: BoundaryConvention
    max_residual_selected: float
    max_residual_rejected: float
    ladder: LadderDist    # the weak descending ladder law the test built V from


def resolve_convention(sd: StepDistribution) -> ConventionReport:
    """Find the unique kill rule under which the weak-ladder series V is harmonic.

    The series V is always built from the weak descending ladder law;
    what varies is whether the one-step identity holds when killing on <= 0
    or on < 0.  Exactly one rule must pass, to ``HARMONIC_TOL`` on x2 in
    [1, XMAX_CONVENTION], otherwise a ConventionError is raised.
    """
    pmf = sd.vertical_pmf()
    ld = descending_ladder(sd)
    maxdy = max(abs(v) for v in pmf)
    table = renewal_V(ld, XMAX_CONVENTION + maxdy + 1).values
    heights = range(1, XMAX_CONVENTION + 1)
    residuals = {conv: harmonicity_residual(pmf, table, conv, heights)
                 for conv in BoundaryConvention}
    passing = [c for c, r in residuals.items() if r <= HARMONIC_TOL]
    if len(passing) != 1:
        raise ConventionError(
            f"expected exactly one passing convention, residuals: "
            + ", ".join(f"{c.value}={r:.3e}" for c, r in residuals.items())
        )
    selected = passing[0]
    rejected = next(c for c in BoundaryConvention if c is not selected)
    return ConventionReport(
        selected=selected,
        max_residual_selected=residuals[selected],
        max_residual_rejected=residuals[rejected],
        ladder=ld,
    )
