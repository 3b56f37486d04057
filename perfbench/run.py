"""quadwalk benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (set-up, wall and CPU
time of a round, peak resident set); with ``--trace 1`` they are the
per-layer figures of a traced round and the tracing overhead.  Details of
each run go to ``perfbench/results/``.
"""

import time

T_START = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        import os
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE_AT_START = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every size, for the self-tests")
    return p.parse_args(argv)


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def timed_round(wl, rng):
    wall, cpu = time.perf_counter(), time.process_time()
    rd = wl.round(rng)
    return rd, time.perf_counter() - wall, time.process_time() - cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadwalk" / "__init__.py").is_file():
        fail(f"no quadwalk sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import quadwalk
    if Path(quadwalk.__file__).resolve().parent != SRC / "quadwalk":
        fail(f"imported quadwalk from {quadwalk.__file__}, not from {SRC}")
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](ROOT, args.scale)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer:
            wl.setup()
    else:
        wl.setup()
    setup_s = AGE_AT_START + time.perf_counter() - T_START

    # The round count follows from --seconds and a fixed nominal round
    # length, so every run of a workload does the same work.
    k = max(1, int(args.seconds // wl.sc.nominal_s))
    rng = random.Random(args.seed)
    rounds, walls, cpus = [], [], []
    warmup_s = None
    if tracer:
        # warm-up, so that the untraced rounds compared with the traced
        # one do not pay the first-run cost either
        rd, warmup_s, _ = timed_round(wl, rng)
        rounds.append(rd)
    for _ in range(k):
        rd, wall, cpu = timed_round(wl, rng)
        rounds.append(rd)
        walls.append(wall)
        cpus.append(cpu)
    if tracer:
        with tracer:
            rd, traced_wall, _ = timed_round(wl, rng)
        rounds.append(rd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(rd.attempted for rd in rounds)
    failures = [f for rd in rounds for f in rd.failures]
    try:
        errors = wl.check(rounds)
    except Exception as exc:  # a check that cannot run fails the run
        errors = [f"check raised {exc!r}"]

    if tracer:
        layer = tracing.layer_metrics(tracer.spans, tracer.counters)
        layer["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=k, round_wall_s=walls, round_cpu_s=cpus,
                  warmup_wall_s=warmup_s, errors=errors, failures=failures)
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        with open(out_dir / f"{stem}.spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    for msg in errors + failures:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
