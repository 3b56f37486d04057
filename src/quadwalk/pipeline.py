"""Assembly of the conditioned-walk pipeline.

Given a normalized step law with driftless vertical component and positive
horizontal drift, this builds every downstream ingredient in one place:
moments and lattice structure, both ladder laws, the renewal tables, the
boundary-convention resolution (which fixes how V pairs with the kill
rule of the pipeline's exit spec), the Gaussian parameters, the
asymptotic constants, and the harmonic function W of the pipeline's
V, evaluated a rectangle of starts at a time and cached by (point, tol).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import ladders
from .asymptotics import AsymptoticConstants, GaussParams, int_q
from .dp import ExitSpec, Region, auto_barrier
from .errors import InputError, NonzeroDriftError
from .harmonic import HarmonicEstimate, TailBound, make_tail_bound, w_rect
from .ladders import BoundaryConvention, ConventionReport, LadderDist, RenewalTable
from .steps import LatticeStructure, Moments, StepDistribution, compute_moments, lattice_decompose, in_lattice_support

__all__ = ["ConditionedWalkPipeline"]

N_MAX = 4096  # last checkpoint of the W iterate
W_TOL = 1e-10  # default bracket width of W
BARRIER_TARGET = 1e-16  # exp(-gamma (L + 1)) for the W barrier L


def _grown(table: RenewalTable | None, U: int, build) -> RenewalTable:
    """``table`` if it covers 0..U, else ``build(size)``: size >= U, doubled.

    Both renewal tables are prefix-stable (``ladders._renewal_mass``), so a
    rebuild changes no value, and happens O(log U) times.
    """
    size = 0 if table is None else len(table.values) - 1
    if table is not None and size >= U:
        return table
    return build(max(U, 64, 2 * size))


@dataclass
class ConditionedWalkPipeline:
    """Everything derived from one step law, built once and shared."""

    sd: StepDistribution
    moments: Moments
    lattice: LatticeStructure
    gauss: GaussParams
    chi_minus: LadderDist
    chi_plus: LadderDist
    conv_report: ConventionReport
    consts: AsymptoticConstants
    spec: ExitSpec
    h_residual: float
    _V: RenewalTable = field(repr=False, default=None)
    _H: RenewalTable = field(repr=False, default=None)
    _w_cache: dict = field(repr=False, default_factory=dict)
    _tail_bound: TailBound = field(repr=False, default=None)

    @classmethod
    def build(cls, sd: StepDistribution,
              conv: BoundaryConvention = BoundaryConvention.KILL_ON_NONPOSITIVE
              ) -> "ConditionedWalkPipeline":
        moments = compute_moments(sd)
        if abs(moments.mu2) > ladders.DRIFT_TOL:
            raise NonzeroDriftError(
                f"vertical drift {moments.mu2:.3e}: tilt the walk first (a "
                f"drift along +x2 is the paper's case after swapping x1 and x2)"
            )
        if moments.mu1 <= 0:
            raise InputError("horizontal drift must be positive")
        lattice = lattice_decompose(sd)
        gauss = GaussParams.from_moments(moments)
        conv_report = ladders.resolve_convention(sd)
        chi_minus = conv_report.ladder
        chi_plus = ladders.ascending_ladder(sd)
        kap = ladders.kappa(chi_minus, gauss.sigma2)
        kap_p = ladders.kappa(chi_plus, gauss.sigma2)
        consts = AsymptoticConstants(kappa=kap, kappa_prime=kap_p,
                                     int_q=int_q(gauss, kap, kap_p))
        pipe = cls(
            sd=sd, moments=moments, lattice=lattice, gauss=gauss,
            chi_minus=chi_minus, chi_plus=chi_plus, conv_report=conv_report,
            consts=consts, spec=ExitSpec(region=Region.QUADRANT, conv=conv),
            h_residual=0.0,
            _tail_bound=make_tail_bound(sd, 1.0 / (1.0 - chi_minus.pmf.get(0, 0.0))),
        )
        # H must be harmonic for the reversed vertical walk killed on <= 0
        pmf = {-v: p for v, p in sd.vertical_pmf().items()}
        xmax = ladders.XMAX_CONVENTION
        table = pipe._ensure_H(xmax + max(map(abs, pmf)) + 1).values
        pipe.h_residual = ladders.harmonicity_residual(
            pmf, table, BoundaryConvention.KILL_ON_NONPOSITIVE, range(1, xmax + 1))
        if pipe.h_residual > ladders.HARMONIC_TOL:
            raise ladders.ConventionError(
                f"H fails reversed-walk harmonicity: residual {pipe.h_residual:.3e}"
            )
        return pipe

    # -- renewal tables ----------------------------------------------------

    def _ensure_V(self, U: int) -> RenewalTable:
        self._V = _grown(self._V, U, partial(ladders.renewal_V, self.chi_minus))
        return self._V

    def _ensure_H(self, U: int) -> RenewalTable:
        self._H = _grown(self._H, U, partial(ladders.renewal_H, self.chi_plus))
        return self._H

    def V(self, u: int) -> float:
        """The literal weak-ladder renewal series, 0 below 0."""
        return self._ensure_V(u)(u)

    def H(self, u: int) -> float:
        return self._ensure_H(u)(u)

    @property
    def v_shift(self) -> int:
        """Shift making u -> V(u - v_shift) harmonic for the walk ``spec`` kills."""
        return self.spec.threshold - self.conv_report.selected.threshold

    def v_eff(self, u: int) -> float:
        """Renewal function paired with the walk killed by ``spec``."""
        return self.V(u - self.v_shift)

    def h_eff(self, y2: int) -> float:
        """H at the end height y2 of the walk killed by ``spec``.

        H is harmonic for the reversed walk killed on <= 0; height y2 of
        the walk ``spec`` kills below t is height y2 + 1 - t of that one.
        """
        return self.H(y2 + 1 - self.spec.threshold)

    def v_eff_vector(self, max_height: int) -> np.ndarray:
        """v_eff at heights 0..max_height: the weight table of ``w_rect``."""
        values = self._ensure_V(max_height).values[:max_height + 1 - self.v_shift]
        return np.concatenate((np.zeros(self.v_shift), values))

    # -- harmonic function W -------------------------------------------------

    def w(self, x, tol: float = W_TOL) -> HarmonicEstimate:
        """Estimate at x, cached by (point, tol).

        A miss runs one ``w_rect`` pass over x's barrier block: the starts
        whose ``auto_barrier`` is x's L, at heights t .. 2 x2.  L is
        max(the law's own L, max|dx|, x1 + max|dx|): when L > x1 + max|dx|
        it is the law's own and the block is the columns [t, L - max|dx|],
        else it is x1 + max|dx| and the block is the column x1 alone.  The
        pass asks ``v_eff_vector`` for the heights it reads.  The horizon
        comes from x, and a start is cached when the pass reaches the end of
        its own reading, which holds at least for each start whose own
        a-priori horizon is at most x's.  Each estimate cached equals the one
        a query at its own point would compute, ``history`` included.
        """
        x = (int(x[0]), int(x[1]))
        if (x, tol) not in self._w_cache:
            L = auto_barrier(self.sd, x, BARRIER_TARGET)
            t = self.spec.threshold
            first = t if L > x[0] + self.sd.max_abs_dx else x[0]
            block = w_rect(self.sd, x, self.spec, self.v_eff_vector,
                           self._tail_bound, tol, N_MAX, L, (first, 2 * x[1]))
            self._w_cache.update(((y, tol), est) for y, est in block.items())
        return self._w_cache[x, tol]

    def w_value(self, x) -> float:
        return self.w(x).value

    # -- lattice helpers -----------------------------------------------------

    def feasible(self, x, n: int, y) -> bool:
        return in_lattice_support(self.lattice, n,
                                  (y[0] - x[0], y[1] - x[1]))

    def nearest_lattice_point(self, x, n: int, target, fixed_y2: bool = False):
        """Feasible point of D_n(x) in the region nearest ``target``; see
        ``LatticeStructure.nearest``."""
        return self.lattice.nearest(x, n, target, self.spec.threshold, fixed_y2)
