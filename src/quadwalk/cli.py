"""Command-line front end.

Every subcommand is a thin adapter over the library: the numbers printed
are exactly the values the corresponding functions return (floats are
emitted with repr, i.e. shortest round-trip).  Results go to stdout in CSV
(default) or JSON; diagnostics go to stderr.

Exit codes: 0 success, 2 usage error, 3 input-validation error, 4 numeric
failure (tolerance unmet; the partial result is still emitted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import SimpleNamespace

from . import asymptotics, dp, ladders, montecarlo
from .errors import InputError, NumericError, QuadwalkError
from .ladders import BoundaryConvention
from .pipeline import W_TOL, ConditionedWalkPipeline
from .steps import compute_moments, lattice_decompose, load_steps, solve_drift, tilt

SCHEMA_VERSION = "1"

_CONV = {
    "nonpositive": BoundaryConvention.KILL_ON_NONPOSITIVE,
    "negative": BoundaryConvention.KILL_ON_NEGATIVE,
}

_REGION = {
    "quadrant": dp.Region.QUADRANT,
    "upper-half": dp.Region.UPPER_HALF_PLANE,
    "right-half": dp.Region.RIGHT_HALF_PLANE,
}


def _pair(text, cast=float):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return (cast(parts[0]), cast(parts[1]))


def _int_pair(text):
    return _pair(text, cast=int)


def _int_list(text):
    return [int(p) for p in text.split(",") if p]


def _workers(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be a positive integer, got {text!r}")
    return n


def _barrier(text):
    return "auto" if text == "auto" else int(text)


class Table:
    """Uniform result payload: named columns plus rows."""

    def __init__(self, columns, rows, scalar_key=None):
        self.columns = columns
        self.rows = rows
        self.scalar_key = scalar_key  # emit bare value in CSV mode

    def emit(self, fmt, out):
        if fmt == "json":
            body = [dict(zip(self.columns, row)) for row in self.rows]
            json.dump({"schema_version": SCHEMA_VERSION, "result": body},
                      out, default=str)
            out.write("\n")
            return
        if self.scalar_key is not None and len(self.rows) == 1:
            out.write(f"{self.rows[0][self.columns.index(self.scalar_key)]}\n")
            return
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(_fmt_cell(c) for c in row) + "\n")


def _fmt_cell(c):
    if isinstance(c, float):
        return repr(c)
    return str(c)


def _load(args):
    if not args.steps:
        raise InputError("no step-set file given (use --steps PATH)")
    try:
        return load_steps(args.steps)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read step set {args.steps!r}: {exc}") from exc


def _pipeline(args) -> ConditionedWalkPipeline:
    return ConditionedWalkPipeline.build(_load(args), conv=_CONV[args.convention])


# -- subcommand handlers -----------------------------------------------------

def cmd_model(args):
    sd = _load(args)
    if args.what == "moments":
        m = compute_moments(sd)
        return Table(["mu1", "mu2", "sigma11", "sigma22", "rho"],
                     [[m.mu1, m.mu2, m.sigma11, m.sigma22, m.rho]])
    ls = lattice_decompose(sd)
    return Table(["a1", "d1", "a2", "d2"], [[ls.a1, ls.d1, ls.a2, ls.d2]])


def cmd_tilt_solve(args):
    sd = _load(args)
    tp = solve_drift(sd, args.drift)
    tilted, _ = tilt(sd, tp.h)
    rows = [[tp.h[0], tp.h[1], tp.phi]]
    if args.verbose:
        print(f"tilted atoms: {tilted.atoms}", file=sys.stderr)
    return Table(["h1", "h2", "phi"], rows)


def cmd_ladders(args):
    sd = _load(args)
    if args.dir == "down":
        ld = ladders.descending_ladder(sd, conv=_CONV[args.convention])
    else:
        ld = ladders.ascending_ladder(sd)
    print(f"mean={ld.mean!r} truncation_error={ld.truncation_error!r}",
          file=sys.stderr)
    rows = [[v, ld.pmf[v]] for v in sorted(ld.pmf)]
    return Table(["value", "prob"], rows)


def cmd_renewal(args):
    sd = _load(args)
    if args.kind == "V":
        ld = ladders.descending_ladder(sd, conv=_CONV[args.convention])
        table = ladders.renewal_V(ld, args.max_u)
    else:
        ld = ladders.ascending_ladder(sd)
        table = ladders.renewal_H(ld, args.max_u)
    rows = [[u, float(v)] for u, v in enumerate(table.values)]
    return Table(["u", "value"], rows)


def cmd_harmonic_w(args):
    if not args.tol > 0:
        raise InputError(f"--tol must be positive, got {args.tol!r}")
    pipe = _pipeline(args)
    est = pipe.w(args.x, tol=args.tol)
    table = Table(["x1", "x2", "lower", "value", "upper", "n_used"],
                  [[args.x[0], args.x[1], est.lower, est.value, est.upper,
                    est.n_used]])
    if est.warned:
        raise NumericError(
            f"bracket width {est.width!r} above tol {args.tol!r}",
            residual=est.width, partial=dict(zip(table.columns, table.rows[0])))
    return table


def cmd_dp(args):
    sd = _load(args)
    spec = dp.ExitSpec(region=_REGION[args.region], conv=_CONV[args.convention])
    if args.what == "survive":
        p, err = dp.survival_prob(sd, args.x, args.n, spec,
                                  barrier=args.barrier)
        return Table(["n", "probability", "error_bound"],
                     [[args.n, p, err]])
    if args.what in ("local", "count") and args.y is None:
        raise InputError(f"dp {args.what} needs --y")
    if args.what == "local":
        p = dp.local_prob(sd, args.x, args.y, args.n, spec)
        return Table(["n", "probability"], [[args.n, p]])
    if args.what == "count":
        c = dp.count_paths(sd, args.x, args.y, args.n, spec)
        return Table(["count"], [[str(c)]], scalar_key="count")
    c = dp.count_line(sd, args.x, args.n, spec=spec)
    return Table(["count"], [[str(c)]], scalar_key="count")


def cmd_mc(args):
    sd = _load(args)
    spec = dp.ExitSpec(region=_REGION[args.region], conv=_CONV[args.convention])
    est = montecarlo.simulate_survival(sd, args.x, args.n, args.reps,
                                       args.seed, workers=args.threads,
                                       spec=spec)
    return Table(["mean", "half_width_95", "reps", "seed"],
                 [[est.mean, est.half_width_95, est.reps, est.seed]])


def cmd_verify(args):
    tid = args.theorem
    if tid in ("qbar", "kernel"):
        sd = _load(args)
        m = compute_moments(sd)
        pipe = SimpleNamespace(gauss=asymptotics.GaussParams.from_moments(m),
                               moments=m)
    else:
        pipe = _pipeline(args)
    notes: list[str] = []
    rows = asymptotics.verify(tid, pipe, x=args.x,
                              n_schedule=args.n_schedule, y=args.y,
                              y2=args.y2, notes=notes)
    for msg in notes:
        print(f"note: {msg}", file=sys.stderr)
    return Table(
        ["theorem_id", "n", "measured", "predicted", "ratio",
         "dp_error_bound"],
        [[r.theorem_id, r.n, r.measured, r.predicted, r.ratio,
          r.dp_error_bound] for r in rows],
    )


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quadwalk",
        description="Quadrant-killed lattice walks: exact DP, ladder/renewal "
                    "functions, harmonic function, asymptotic verification.",
    )
    p.add_argument("--steps", help="step-set JSON file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--convention", choices=tuple(_CONV), default="nonpositive")
    p.add_argument("--barrier", type=_barrier, default="auto",
                   help="truncation barrier (integer or 'auto')")
    # a string default goes through _workers too, so a bad
    # QUADWALK_THREADS is a usage error like a bad --threads
    p.add_argument("--threads", type=_workers,
                   default=os.environ.get("QUADWALK_THREADS", "1"))
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("model", help="moments or lattice decomposition")
    sp.add_argument("what", choices=("moments", "lattice"))
    sp.set_defaults(func=cmd_model)

    sp = sub.add_parser("tilt", help="exponential change of measure")
    sp.add_argument("what", choices=("solve",))
    sp.add_argument("--drift", type=_pair, required=True,
                    help="target drift 'mu1,mu2'")
    sp.set_defaults(func=cmd_tilt_solve)

    sp = sub.add_parser("ladders", help="ladder height distribution")
    sp.add_argument("--dir", choices=("down", "up"), required=True)
    sp.set_defaults(func=cmd_ladders)

    sp = sub.add_parser("renewal", help="renewal function table")
    sp.add_argument("--kind", choices=("V", "H"), required=True)
    sp.add_argument("--max-u", type=int, default=100)
    sp.set_defaults(func=cmd_renewal)

    sp = sub.add_parser("harmonic-w", help="harmonic function W(x)")
    sp.add_argument("--x", type=_int_pair, required=True)
    sp.add_argument("--tol", type=float, default=W_TOL)
    sp.set_defaults(func=cmd_harmonic_w)

    sp = sub.add_parser("dp", help="exact dynamic programming")
    sp.add_argument("what", choices=("survive", "local", "count", "line"))
    sp.add_argument("--x", type=_int_pair, required=True)
    sp.add_argument("--y", type=_int_pair, default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--region", choices=tuple(_REGION), default="quadrant")
    sp.set_defaults(func=cmd_dp)

    sp = sub.add_parser("mc", help="Monte Carlo cross-check")
    sp.add_argument("what", choices=("survive",))
    sp.add_argument("--x", type=_int_pair, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--region", choices=tuple(_REGION), default="quadrant")
    # accepted after the subcommand too; SUPPRESS keeps the global value
    # when they are absent here
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--threads", type=_workers, default=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("verify", help="compare DP truth to predictions")
    sp.add_argument("theorem", choices=("tail", "integral", "llt", "llt-half",
                                        "boundary-llt", "line", "qbar",
                                        "kernel"))
    sp.add_argument("--x", type=_int_pair, default=(1, 1))
    sp.add_argument("--y", type=_int_pair, default=None)
    sp.add_argument("--y2", type=int, default=1)
    sp.add_argument("--n-schedule", type=_int_list,
                    default=[256, 512, 1024, 2048])
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        table = args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if exc.partial is not None:
            json.dump({"schema_version": SCHEMA_VERSION,
                       "partial": exc.partial}, sys.stdout, default=str)
            sys.stdout.write("\n")
        return 4
    except QuadwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    table.emit(args.format, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
