"""Stochastic cross-check of the dynamic-programming probabilities.

Paths are simulated in fixed-size blocks; block b draws from a Philox
stream keyed by (seed, b), so the result depends only on (seed, reps) and
is bit-identical no matter how blocks are distributed over workers.

Only the paths still alive are stepped: each step draws one uniform per
survivor, and a block stops once it has none left.  Earlier versions drew
a uniform for every path at every step, so a given seed now gives other
numbers than it did then, from the same distribution.  Only the
coordinates that the exit spec kills on are tracked.

Plain Monte Carlo on purpose: the DP is the precision tool, this is an
independence check.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dp import ExitSpec
from .errors import InputError
from .steps import StepDistribution

__all__ = ["McEstimate", "simulate_survival", "BLOCK_SIZE"]

BLOCK_SIZE = 1 << 14


@dataclass(frozen=True)
class McEstimate:
    """Bernoulli mean with a 95% normal-approximation interval."""

    mean: float
    half_width_95: float
    reps: int
    seed: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width_95

    @property
    def high(self) -> float:
        return self.mean + self.half_width_95


def _survival_count(arrays, x, n, count, seed, block_idx) -> int:
    """Paths of one block alive after n steps.

    ``arrays`` is (cum, shifts): the atoms' cumulative weights and, per
    killed axis, the atoms' shift on it; ``x`` is the start on those axes,
    measured from the axis' lowest surviving value, so a path dies below 0.
    """
    cum, shifts = arrays
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block_idx], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    pos = [np.full(count, xi, dtype=np.int64) for xi in x]
    for _ in range(n):
        if not pos[0].size:
            break
        idx = np.searchsorted(cum, rng.random(pos[0].size), side="right")
        keep = None
        for p, s in zip(pos, shifts):
            p += s[idx]
            keep = p >= 0 if keep is None else keep & (p >= 0)
        pos = [p[keep] for p in pos]
    return pos[0].size


def simulate_survival(sd: StepDistribution, x, n: int, reps: int, seed: int,
                      workers: int = 1,
                      spec: ExitSpec | None = None) -> McEstimate:
    """Fraction of simulated paths with exit time > n.

    A path dies when a coordinate that ``spec`` kills on drops below its
    threshold.  Identical (seed, reps) give bit-identical estimates for any
    worker count; reps are processed in blocks of BLOCK_SIZE paths.
    """
    if reps < 1:
        raise InputError("reps must be >= 1")
    if n < 0:
        raise InputError("n must be >= 0")
    spec = spec or ExitSpec()
    if not spec.contains(x):
        raise InputError(f"start {x} is not inside the survival region")
    if n == 0:
        return McEstimate(mean=1.0, half_width_95=0.0, reps=reps, seed=seed)
    atoms = sd.atoms
    cum = np.cumsum([w for _, _, w in atoms])
    cum[-1] = 1.0  # guard the top edge against rounding
    axes = [i for i, k in enumerate(spec.kill) if k is not None]
    shifts = [np.array([atom[i] for atom in atoms], dtype=np.int64)
              for i in axes]
    x0 = [int(x[i]) - spec.kill[i] for i in axes]
    blocks = list(enumerate(min(BLOCK_SIZE, reps - start)
                            for start in range(0, reps, BLOCK_SIZE)))

    def work(item):
        idx, count = item
        return _survival_count((cum, shifts), x0, n, count, seed, idx)

    if workers <= 1:
        counts = [work(it) for it in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(work, blocks))
    hits = sum(counts)
    mean = hits / reps
    hw = 1.96 * math.sqrt(mean * (1.0 - mean) / reps)
    return McEstimate(mean=mean, half_width_95=hw, reps=reps, seed=seed)
