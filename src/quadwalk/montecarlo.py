"""Stochastic cross-check of the dynamic-programming probabilities.

Paths are simulated in fixed-size blocks; block b draws from a Philox
stream keyed by (seed, b), so the result depends only on (seed, reps) and
is bit-identical no matter how blocks are distributed over workers.  The
seed must lie in [0, 2^64): it is one 64-bit word of the key.

Only the paths still alive are stepped: each step draws one raw 64-bit
word per survivor.  The word's top 53 bits are the uniform
``(word >> 11) * 2**-53`` that ``Generator.random`` returns from the same
stream, and the atom is the one the cumulative weights give that uniform;
the comparison is done on the integer word, exactly.  The pick reads a
guide table by the word's top 12 bits, which gives the atom at once when
no edge between atoms falls inside that bucket, and otherwise narrows to
it by a few halving steps over the bucket's edges (see ``_guide``).

Each worker steps its blocks as one queue: it takes them in index order,
admits the next while fewer than BLOCK_SIZE / 4 paths are live, and runs
each step's pick, move and kill once over the live paths of every block in
flight, while each block still draws its own words from its own stream.
A block leaves after its n-th step or once it has no paths left.

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
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .dp import ExitSpec
from .errors import InputError
from .steps import StepDistribution

__all__ = ["McEstimate", "simulate_survival", "BLOCK_SIZE"]

BLOCK_SIZE = 1 << 14
_FIELD_LIMIT = 1 << 31  # values a packed 32-bit field holds with its sign
_BUCKET_BITS = 12  # top word bits that index the guide table
_BUCKET_SHIFT = 64 - _BUCKET_BITS
_ADMIT_BELOW = BLOCK_SIZE // 4  # a worker admits blocks while fewer live


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

    guide: np.ndarray   # atom of each bucket's first word, see _guide
    moves: np.ndarray   # int64 packed shift of that atom
    passes: int         # halving steps inside a bucket
    edges: np.ndarray   # uint64 edges >> 11, padded with 2**53
    shift: np.ndarray   # int64 packed shift per atom
    start: int          # packed start
    sign_bits: np.int64


def _guide(edges: np.ndarray):
    """Guide table of the top _BUCKET_BITS word bits, passes, padded edges.

    ``guide[b]`` is the number of edges at or below bucket b's first word,
    so the atom of a word in bucket b, if no edge lies strictly inside it.
    ``passes`` is the bit length of the most edges strictly inside one
    bucket, which that many halving steps over ``guide[b]`` and the edges
    after it resolve (see ``_moves``).
    """
    starts = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) << _BUCKET_SHIFT
    guide = edges.searchsorted(starts, side="right")
    inside = np.append(edges.searchsorted(starts[1:], side="left"),
                       edges.size) - guide
    passes = int(inside.max()).bit_length()
    padded = np.append(edges >> 11,
                       np.full((1 << passes) - 1, 1 << 53, dtype=np.uint64))
    return guide, passes, padded


def _moves(kernel: _Kernel, words: np.ndarray) -> np.ndarray:
    """``shift[edges.searchsorted(words, side="right")]``; overwrites words.

    When no bucket holds an edge inside, a bucket's atom is the pick and
    one gather of ``moves`` gives its shift.  Otherwise the halving steps
    compare top 53 bits: an edge is a multiple of 2**11, so it is at or
    below a word exactly when its top 53 bits are at or below the word's,
    and those never reach the padding 2**53, so the search stays inside
    ``edges``.
    """
    if not kernel.passes:
        words >>= _BUCKET_SHIFT
        return kernel.moves.take(words.view(np.int64))
    words >>= 11
    pick = kernel.guide.take((words >> (_BUCKET_SHIFT - 11)).view(np.int64))
    for p in reversed(range(kernel.passes)):
        pick += (kernel.edges.take(pick + ((1 << p) - 1)) <= words) << p
    return kernel.shift.take(pick)


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
    shift = np.array(shift, dtype=np.int64)
    guide, passes, edges = _guide(_atom_edges([w for _, _, w in atoms]))
    return _Kernel(guide=guide, moves=shift[guide], passes=passes,
                   edges=edges, shift=shift, start=start,
                   sign_bits=np.uint64(sign).astype(np.int64))


def _block_counts(kernel: _Kernel, n: int, seed: int,
                  blocks: list[tuple[int, int]]) -> list[int]:
    """Paths alive after n steps in each of ``blocks``, (index, paths) pairs.

    The blocks are stepped as one queue in the order given: the next one
    joins while fewer than _ADMIT_BELOW paths are live, and a block leaves
    from the front after its n-th step, or wherever it is once it has no
    paths.  The live paths are one array in block order, and each block
    draws its own survivors' words from its own stream, so its count is
    the one it would have alone.
    """
    if not kernel.sign_bits:
        return [paths for _, paths in blocks]  # no tracked axis: no path dies
    counts = [0] * len(blocks)
    draws, live, pos, ends = [], [], [], []  # per block in flight
    state = np.empty(0, dtype=np.int64)
    admitted = t = 0
    while True:
        while admitted < len(blocks) and state.size < _ADMIT_BELOW:
            idx, paths = blocks[admitted]
            key = np.array([seed, idx], dtype=np.uint64)
            draws.append(np.random.Philox(key=key).random_raw)
            live.append(paths)
            pos.append(admitted)
            ends.append(t + n)
            state = np.append(state, np.full(paths, kernel.start, np.int64))
            admitted += 1
        if not live:
            return counts
        words = (draws[0](live[0]) if len(live) == 1 else
                 np.concatenate([d(c) for d, c in zip(draws, live)]))
        state += _moves(kernel, words)
        del words  # before the compress makes a second state
        alive = (state & kernel.sign_bits) == 0
        live = np.add.reduceat(alive, list(accumulate(live[:-1], initial=0)),
                               dtype=np.intp).tolist()
        state = state[alive]
        t += 1
        done = ends.count(t)  # the front blocks, admitted n steps ago
        if done or 0 in live:
            for j in range(done):
                counts[pos[j]] = live[j]
            state = state[sum(live[:done]):]
            keep = [j for j in range(done, len(live)) if live[j]]
            draws, live, pos, ends = ([a[j] for j in keep]
                                      for a in (draws, live, pos, ends))


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
    workers = max(1, min(workers, len(blocks)))
    cuts = [len(blocks) * i // workers for i in range(workers + 1)]
    shares = [blocks[a:b] for a, b in zip(cuts, cuts[1:])]

    def work(share):
        return sum(_block_counts(kernel, n, seed, share))

    if workers == 1:
        hits = work(blocks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(work, shares))
    mean = hits / reps
    hw = 1.96 * math.sqrt(mean * (1.0 - mean) / reps)
    return McEstimate(mean=mean, half_width_95=hw, reps=reps, seed=seed)
