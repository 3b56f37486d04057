"""Output checks of the benchmark, kept free of quadwalk imports.

Every check returns a list of failure messages; an empty list is a pass.
Each compares a workload's output either with a property the method must
have or with a value computed here apart from the library.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# A few units in the last place of the terms summed by a residual.
ROUNDING = 8 * 2.0 ** -52


def convergence(ratios: dict[str, dict[int, float]], limit: float,
                label: str) -> list[str]:
    """|ratio - 1| at the largest n is within ``limit`` and below its value
    at the smallest n, for every series."""
    errs = []
    for key, by_n in sorted(ratios.items()):
        lo, hi = min(by_n), max(by_n)
        dev_lo, dev_hi = abs(by_n[lo] - 1.0), abs(by_n[hi] - 1.0)
        if not dev_hi < dev_lo:
            errs.append(f"{label} {key}: |ratio-1| {dev_hi:.3e} at n={hi} "
                        f"not below {dev_lo:.3e} at n={lo}")
        if not dev_hi <= limit:
            errs.append(f"{label} {key}: |ratio-1| {dev_hi:.3e} at n={hi} "
                        f"above {limit}")
    return errs


def monotone_to_one(by_n: dict[int, float], label: str,
                    late_n: int | None = None,
                    late_limit: float | None = None) -> list[str]:
    """|ratio - 1| decreases strictly along n, and is within ``late_limit``
    for every n >= ``late_n``."""
    errs = []
    ns = sorted(by_n)
    devs = [abs(by_n[n] - 1.0) for n in ns]
    for (n0, d0), (n1, d1) in zip(zip(ns, devs), zip(ns[1:], devs[1:])):
        if not d1 < d0:
            errs.append(f"{label}: |ratio-1| {d1:.3e} at n={n1} not below "
                        f"{d0:.3e} at n={n0}")
    if late_n is not None:
        for n, d in zip(ns, devs):
            if n >= late_n and not d <= late_limit:
                errs.append(f"{label}: |ratio-1| {d:.3e} at n={n} above "
                            f"{late_limit}")
    return errs


def at_most(values: dict, caps: dict, label: str, rel: float = 0.0) -> list[str]:
    """values[k] <= caps[k] * (1 + rel) for every key."""
    return [f"{label} at {k}: {values[k]!r} above {caps[k]!r}"
            for k in sorted(values) if not values[k] <= caps[k] * (1.0 + rel)]


def nonincreasing(seq, label: str, rel: float = 0.0) -> list[str]:
    """seq[i+1] <= seq[i] * (1 + rel) for every i."""
    return [f"{label}: {b!r} after {a!r} at position {i + 1}"
            for i, (a, b) in enumerate(zip(seq, seq[1:]))
            if not b <= a * (1.0 + rel)]


def conservation(alive: float, killed: float, dropped: float,
                 tol: float = 1e-12) -> list[str]:
    """alive + killed + dropped = 1 within ``tol``."""
    resid = alive + killed + dropped - 1.0
    if not abs(resid) <= tol:
        return [f"mass ledger off by {resid:.3e}"]
    return []


def load_law(path) -> list[tuple[int, int, float]]:
    """Atoms (dx, dy, probability) of a step-set JSON file."""
    with open(path) as fh:
        raw = json.load(fh)["steps"]
    total = math.fsum(float(s["w"]) for s in raw)
    return [(int(s["dx"]), int(s["dy"]), float(s["w"]) / total) for s in raw]


def enumerate_local(atoms, x, n: int, threshold: int = 1) -> dict:
    """{endpoint: probability} over every |atoms|^n path that stays in the
    quadrant, each path walked one step at a time."""
    out: dict[tuple[int, int], float] = {}
    for combo in itertools.product(atoms, repeat=n):
        a, b = x
        p = 1.0
        for dx, dy, w in combo:
            a += dx
            b += dy
            p *= w
            if a < threshold or b < threshold:
                break
        else:
            out[(a, b)] = out.get((a, b), 0.0) + p
    return out


def same_local(dp_cells: dict, enum_cells: dict, label: str,
               rel: float = 1e-12) -> list[str]:
    """Both maps hold the same points with values equal to ``rel``."""
    errs = []
    for y in sorted(set(dp_cells) | set(enum_cells)):
        a, b = dp_cells.get(y, 0.0), enum_cells.get(y, 0.0)
        if not abs(a - b) <= rel * max(abs(a), abs(b)):
            errs.append(f"{label} at {y}: dp {a!r} vs enumeration {b!r}")
    return errs


def bracket(lower: float, value: float, upper: float, warned: bool,
            label: str) -> list[str]:
    """No warning and 0 < lower <= value <= upper."""
    errs = []
    if warned:
        errs.append(f"{label}: estimate warned")
    if not 0.0 < lower <= value <= upper:
        errs.append(f"{label}: bracket {lower!r} <= {value!r} <= {upper!r} "
                    f"violated")
    return errs


def harmonic_residual(value: float, half_width: float, neighbours,
                      label: str) -> list[str]:
    """|W(x) - sum p W(y)| is within half_width(x) + sum p half_width(y).

    ``neighbours`` lists (p, value, half_width) for the surviving targets.
    The allowance adds a few units of rounding of the residual's terms.
    """
    resid = abs(value - math.fsum(p * v for p, v, _ in neighbours))
    allow = half_width + math.fsum(p * h for p, _, h in neighbours)
    allow += ROUNDING * (abs(value) + math.fsum(p * abs(v) for p, v, _ in neighbours))
    if not resid <= allow:
        return [f"{label}: harmonicity residual {resid:.3e} above {allow:.3e}"]
    return []


def near_one(ratio: float, tol: float, label: str) -> list[str]:
    if not abs(ratio - 1.0) <= tol:
        return [f"{label}: ratio {ratio!r} not within {tol} of 1"]
    return []


def line_count(count: int, n: int, x2: int, tilted_line: float,
               rel: float = 1e-9) -> list[str]:
    """M_n = (2 sqrt 2)^n 2^((1 - x2)/2) P~(x2 + S2(n) = 1, T > n).

    The uniform three-step law and its zero-drift tilt put weight
    2^(-3n/2) 2^((x2-1)/2) on every path from height x2 to height 1.
    """
    recon = (2.0 * math.sqrt(2.0)) ** n * 2.0 ** ((1 - x2) / 2.0) * tilted_line
    if not abs(recon - count) <= rel * abs(count):
        return [f"line count n={n}: {count} vs reconstruction {recon!r}"]
    return []


PRIME = 2 ** 31 - 1


def line_counts_mod(steps, x, ns, p: int = PRIME, y2: int = 1,
                    threshold: int = 1) -> dict[int, int]:
    """{n: number of n-step quadrant paths from x ending at height y2, mod p}.

    An integer dynamic program on a box large enough that no path leaves
    it; index c holds coordinate c, and rows or columns below the
    threshold are zeroed after every step.
    """
    nmax = max(ns)
    reach1 = x[0] + nmax * max(abs(dx) for dx, _ in steps) + 1
    reach2 = x[1] + nmax * max(abs(dy) for _, dy in steps) + 1
    a = np.zeros((reach1, reach2), dtype=np.int64)
    a[x[0], x[1]] = 1
    out = {}
    for k in range(1, nmax + 1):
        b = np.zeros_like(a)
        for dx, dy in steps:
            src = a[max(0, -dx):reach1 - max(0, dx), max(0, -dy):reach2 - max(0, dy)]
            b[max(0, dx):reach1 + min(0, dx), max(0, dy):reach2 + min(0, dy)] += src
        b[:threshold, :] = 0
        b[:, :threshold] = 0
        a = b % p
        if k in ns:
            out[k] = int(a[:, y2].sum() % p)
    return out


def count_mod(count: int, n: int, expected: int, p: int = PRIME) -> list[str]:
    """An exact count agrees with the modular count."""
    if count % p != expected:
        return [f"line count n={n}: {count} is {count % p} mod {p}, "
                f"the modular count is {expected}"]
    return []


def within(a: float, b: float, bound: float, label: str) -> list[str]:
    if not abs(a - b) <= bound:
        return [f"{label}: |{a!r} - {b!r}| above {bound!r}"]
    return []


def mc_covers(truth: float, mean: float, half_width: float, multiple: float,
              label: str) -> list[str]:
    """|mean - truth| <= multiple * half_width."""
    if not abs(mean - truth) <= multiple * half_width:
        return [f"{label}: MC mean {mean!r} +- {half_width!r} misses DP "
                f"{truth!r} by more than {multiple} half-widths"]
    return []


def identical(a, b, label: str) -> list[str]:
    if a != b:
        return [f"{label}: {a!r} differs from {b!r}"]
    return []
