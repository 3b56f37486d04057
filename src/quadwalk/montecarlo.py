"""Stochastic cross-check of the dynamic-programming probabilities.

Paths are simulated in fixed-size blocks; block b draws from a Philox
stream keyed by (seed, b), so the result depends only on (seed, reps) and
is bit-identical no matter how blocks are distributed over workers.  The
seed must lie in [0, 2^64): it is one 64-bit word of the key.

Only the paths still alive are stepped: each step draws one raw 64-bit
word per survivor, and a block stops once it has none left.  The word's
top 53 bits are the uniform ``(word >> 11) * 2**-53`` that
``Generator.random`` returns from the same stream, and the atom is the
one the cumulative weights give that uniform; the comparison is done on
the integer word, exactly.

Only the coordinates that the exit spec kills on, and that can reach
their threshold within n steps, are tracked, packed into one int64 per
path (see ``_kernel``).

Plain Monte Carlo on purpose: the DP is the precision tool, this is an
independence check.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dp import ExitSpec
from .errors import InputError
from .steps import StepDistribution

__all__ = ["McEstimate", "simulate_survival", "BLOCK_SIZE"]

BLOCK_SIZE = 1 << 14
_FIELD_LIMIT = 1 << 31  # values a packed 32-bit field holds with its sign


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


def _atom_edges(weights) -> np.ndarray:
    """Integer word edges that pick the same atom as the float rule did.

    The float rule picks ``searchsorted(cum, u, side="right")`` with ``u =
    (word >> 11) * 2**-53``; ``cum[j] <= u`` holds exactly when ``word >=
    ceil(cum[j] * 2**53) << 11``.  A partial sum that rounds to 1.0 or
    above is never reached by a uniform, so it gets no edge, which keeps
    every edge below 2**64.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard the top edge against rounding
    return np.array([math.ceil(math.ldexp(c, 53)) << 11 for c in cum if c < 1.0],
                    dtype=np.uint64)


class _Kernel(NamedTuple):
    """Packed per-path state of one (law, start, n, spec).

    Each tracked axis holds its distance above the threshold in a 32-bit
    field; ``sign_bits`` has the top bit of every field set, so a path is
    alive iff ``state & sign_bits == 0``.
    """

    edges: np.ndarray   # uint64, see _atom_edges
    shift: np.ndarray   # int64 packed shift per atom
    start: int          # packed start
    sign_bits: np.int64


def _kernel(sd: StepDistribution, x, n: int, spec: ExitSpec) -> _Kernel:
    """Pack the axes that can kill within n steps into one int64 per path.

    An axis starting at least n * (largest down-step) above its threshold
    is not tracked.  A tracked one stays below n * (largest up-step +
    largest down-step) while alive, which must fit in a field's 31 value
    bits.  Then a step leaves every field of a live path exact, and a field
    that goes negative sets its own sign bit, so the borrow it takes from
    the field above only ever lands on a dead path.
    """
    atoms = sd.atoms
    start = sign = field = 0
    shift = [0] * len(atoms)
    for i, k in enumerate(spec.kill):
        if k is None:
            continue
        s = [atom[i] for atom in atoms]
        up, down = max(0, max(s)), max(0, -min(s))
        x0 = int(x[i]) - k
        if x0 >= n * down:
            continue  # cannot reach the threshold within n steps
        if n * (up + down) >= _FIELD_LIMIT:
            raise InputError(
                f"n * (largest up-step + largest down-step) on axis {i + 1} "
                f"is {n * (up + down)}, past the Monte Carlo bound 2^31")
        start += x0 << field
        shift = [t + (si << field) for t, si in zip(shift, s)]
        sign |= 1 << (field + 31)
        field += 32
    return _Kernel(edges=_atom_edges([w for _, _, w in atoms]),
                   shift=np.array(shift, dtype=np.int64), start=start,
                   sign_bits=np.uint64(sign).astype(np.int64))


def _survival_count(kernel: _Kernel, n: int, count: int, seed: int,
                    block_idx: int) -> int:
    """Paths of one block alive after n steps."""
    edges, shift, start, sign_bits = kernel
    if not sign_bits:
        return count  # no tracked axis: no path can die
    bits = np.random.Philox(key=np.array([seed, block_idx], dtype=np.uint64))
    state = np.full(count, start, dtype=np.int64)
    for _ in range(n):
        if not state.size:
            break
        state += shift[edges.searchsorted(bits.random_raw(state.size),
                                          side="right")]
        state = state[(state & sign_bits) == 0]
    return state.size


def simulate_survival(sd: StepDistribution, x, n: int, reps: int, seed: int,
                      workers: int = 1,
                      spec: ExitSpec | None = None) -> McEstimate:
    """Fraction of simulated paths with exit time > n.

    A path dies when a coordinate that ``spec`` kills on drops below its
    threshold.  Identical (seed, reps) give bit-identical estimates for any
    worker count; reps are processed in blocks of BLOCK_SIZE paths.  A seed
    outside [0, 2^64) and an n past the packed-state bound (see
    ``_kernel``) raise InputError.
    """
    if reps < 1:
        raise InputError("reps must be >= 1")
    if n < 0:
        raise InputError("n must be >= 0")
    if not 0 <= seed < 1 << 64:
        raise InputError(f"seed must be in [0, 2^64), got {seed}")
    spec = spec or ExitSpec()
    if not spec.contains(x):
        raise InputError(f"start {x} is not inside the survival region")
    if n == 0:
        return McEstimate(mean=1.0, half_width_95=0.0, reps=reps, seed=seed)
    kernel = _kernel(sd, x, n, spec)
    blocks = list(enumerate(min(BLOCK_SIZE, reps - start)
                            for start in range(0, reps, BLOCK_SIZE)))

    def work(item):
        idx, count = item
        return _survival_count(kernel, n, count, seed, idx)

    if workers <= 1:
        counts = [work(it) for it in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(work, blocks))
    hits = sum(counts)
    mean = hits / reps
    hw = 1.96 * math.sqrt(mean * (1.0 - mean) / reps)
    return McEstimate(mean=mean, half_width_95=hw, reps=reps, seed=seed)
