"""Independent brute-force oracles for the test suite.

These deliberately share no code with the library: paths are enumerated
one by one, renewal series are summed term by term from their definition.
"""

import itertools
import math

import numpy as np


def enumerate_paths(atoms, x, n, kill_x1=True, kill_x2=True, threshold=1,
                    barrier=None):
    """Walk every |atoms|^n path explicitly.

    atoms: list of (dx, dy, prob).  Returns (survival probability,
    {endpoint: probability}, {endpoint: path count}) where survival means
    every intermediate and final position respects the kill predicates.
    Once a path stands right of column ``barrier`` it keeps only the
    vertical kill for the rest of its steps.
    """
    surv = 0.0
    endpoint_prob = {}
    endpoint_count = {}
    for combo in itertools.product(range(len(atoms)), repeat=n):
        a, b = x
        p = 1.0
        ok = True
        crossed = False
        for i in combo:
            dx, dy, w = atoms[i]
            a += dx
            b += dy
            p *= w
            if (kill_x1 and not crossed and a < threshold) or (kill_x2 and b < threshold):
                ok = False
                break
            crossed = crossed or (barrier is not None and a > barrier)
        if ok:
            surv += p
            endpoint_prob[(a, b)] = endpoint_prob.get((a, b), 0.0) + p
            endpoint_count[(a, b)] = endpoint_count.get((a, b), 0) + 1
    return surv, endpoint_prob, endpoint_count


def doob_survival(atoms, x, v, n, threshold=1):
    """V(x2) * Phat(sigma_x > n) for the V-transformed walk, point by point.

    atoms: list of (dx, dy, prob); v[u] is V at height u.  Mass moves from
    (a, b) to (a + dx, b + dy) with weight prob * v[b + dy] / v[b], and is
    killed where either coordinate falls below ``threshold``.  No barrier:
    both kills hold at every step.
    """
    cur = {tuple(x): 1.0}
    for _ in range(n):
        nxt = {}
        for (a, b), mass in cur.items():
            for dx, dy, p in atoms:
                na, nb = a + dx, b + dy
                if na >= threshold and nb >= threshold:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + mass * p * v[nb] / v[b]
        cur = nxt
    return v[x[1]] * math.fsum(cur.values())


def count_states(steps, x, n, threshold=1):
    """Exact path counts by endpoint after n steps in the quadrant, as a dict.

    steps: list of (dx, dy).  Each state's count is pushed along every step
    in turn, with Python integers, so the counts never lose precision.
    """
    cur = {tuple(x): 1}
    for _ in range(n):
        nxt = {}
        for (a, b), c in cur.items():
            for dx, dy in steps:
                na, nb = a + dx, b + dy
                if na >= threshold and nb >= threshold:
                    nxt[(na, nb)] = nxt.get((na, nb), 0) + c
        cur = nxt
    return cur


def direct_renewal_series(pmf, U, kmax=None, strict_lt=False, indicator_gt=False):
    """Literal renewal series from the definition, truncated at kmax terms.

    With kmax=None the sum runs until no partial sum at most U + 1 keeps a
    probability above 1e-18.  A fixed cut drops sum_{k>kmax} P(Z_k <= u),
    which a lazy law keeps large: 3e-9 at u = 8, kmax = 200 for the weak
    ladder law {0: 5/6, 1: 1/6}.

    V-style: 1_{u>=0} + sum_{k=1..kmax} P(Z_k <= u)
    H-style (strict_lt=True, indicator_gt=True):
        1_{u>0} + sum_k P(Z_k < u)
    """
    values = []
    for u in range(U + 1):
        total = (1.0 if (u > 0 or not indicator_gt) else 0.0)
        dist = {0: 1.0}
        k = 0
        while dist and (kmax is None or k < kmax):
            k += 1
            nxt = {}
            for z, pz in dist.items():
                for j, pj in pmf.items():
                    nxt[z + j] = nxt.get(z + j, 0.0) + pz * pj
            dist = {z: p for z, p in nxt.items() if z <= U + 1 and p > 1e-18}
            if strict_lt:
                total += math.fsum(p for z, p in dist.items() if z < u)
            else:
                total += math.fsum(p for z, p in dist.items() if z <= u)
        values.append(total)
    return values


def lattice_index(vectors):
    """det of the lattice the integer 2-vectors generate, 0 below rank 2.

    The index of a lattice in Z^2 is the gcd of the 2x2 minors of any
    generating set, so every pair of vectors is checked.
    """
    g = 0
    for (u1, u2), (v1, v2) in itertools.combinations(vectors, 2):
        g = math.gcd(g, u1 * v2 - u2 * v1)
    return g


def trim_slabs(a, lo, budget, stride):
    """Generic slab peel, the reference for ``steps._trim``.

    Each round sums every edge slab of the box (first and last row, first
    and last column) and peels the lightest, the first of equals in that
    order, while the total peeled stays <= ``budget``.  Returns (array, lo,
    dropped) with ``dropped`` summed in peel order; an array peeled to
    nothing has shape (0,) * ndim.
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


def convolve_atoms(a, atoms, stride):
    """Unkilled step of a measure on a stride-``stride`` coset, atom by atom.

    A zero box, then ``p * a`` added at each atom's cell offset in atom
    order (``a`` itself when p is 1).  Returns (array, smin): the least
    shift per axis, where the array's first cell moved.
    """
    nd = a.ndim
    smin = [min(at[ax] for at in atoms) for ax in range(nd)]
    offs = [[(at[ax] - smin[ax]) // stride[ax] for ax in range(nd)] for at in atoms]
    shape = [n + max(o[ax] for o in offs) for ax, n in enumerate(a.shape)]
    out = np.zeros(shape, dtype=a.dtype)
    for at, off in zip(atoms, offs):
        box = tuple(slice(i, i + n) for i, n in zip(off, a.shape))
        out[box] += a if at[nd] == 1 else a * at[nd]
    return out, smin


def gauss1(z, var):
    return math.exp(-z * z / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def reflected_product_kernel(t, x, y, mu, sigma1sq, sigma2sq):
    """rho = 0 oracle: free horizontal Gaussian times reflected vertical kernel."""
    horiz = gauss1(y[0] - x[0] - t * mu[0], t * sigma1sq)
    vert = gauss1(y[1] - x[1] - t * mu[1], t * sigma2sq) - gauss1(
        y[1] + x[1] - t * mu[1], t * sigma2sq
    )
    return horiz * vert


def mc_block_survivors(atoms, kill, x, n, count, seed, block_idx):
    """Paths of one Monte Carlo block alive after n steps, by float uniforms.

    atoms: list of (dx, dy, prob); kill: per axis the lowest surviving
    value, None on an axis never killed.  The block's stream is
    Generator(Philox(key=(seed, block_idx))); each step draws one uniform
    per survivor with ``random``, picks the atom by ``searchsorted`` over
    the cumulative weights and moves every killed coordinate in an array
    of its own.
    """
    cum = np.cumsum([w for _, _, w in atoms])
    cum[-1] = 1.0
    axes = [i for i, k in enumerate(kill) if k is not None]
    shifts = [np.array([atom[i] for atom in atoms], dtype=np.int64)
              for i in axes]
    key = np.array([seed, block_idx], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    pos = [np.full(count, int(x[i]) - kill[i], dtype=np.int64) for i in axes]
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


def mc_block_sizes(reps, block_size):
    """Paths per block when reps are cut into blocks of block_size."""
    return [min(block_size, reps - start) for start in range(0, reps, block_size)]


def mc_estimate(counts, reps):
    """(mean, 95% normal half-width) from the per-block survivor counts."""
    mean = sum(counts) / reps
    return mean, 1.96 * math.sqrt(mean * (1.0 - mean) / reps)
