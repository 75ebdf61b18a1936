"""Benchmark of the neoms package: one workload per run.

    python3 perfbench/run.py --workload {cli,sweep,relax} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program under test is the `src/neoms` next to this
directory, and the random draws come from `tests/draws.py`.  One process
generates the load, with no threads of its own and BLAS limited to one
thread.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
same metrics by name with their units, and the environment.  README.md in
this directory says what each workload and metric is for, and why times are
scaled by the host probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 11          # setup_s is the median of this many set-ups
STARTUP_SAMPLES = 5         # samples of `python -c ...` in a traced run
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
PROBE_LOOPS = 100_000
PROBE_NOMINAL_S = 0.005     # the probe's time that defines a reference second

END_TO_END = {              # name: unit
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_s": "s",
    "mix_wall_s": "s",
    "points_per_s": "1/s",
}
# what the generic metrics are called in each workload's own terms
WORKLOAD_NAMES = {
    "cli": {"op_p50_s": "invocation_p50_s", "mix_wall_s": "mix_wall_s",
            "points_per_s": "figure points per second"},
    "sweep": {"points_per_s": "points_per_s"},
    "relax": {"points_per_s": "settled_per_s",
              "mix_wall_s": "more than half is fail_s"},
}
PER_LAYER_UNITS = {
    "cli.interp_s": "s", "cli.import_s": "s", "cli.main_s": "s",
    "config.parse_s": "s", "config.parse_calls": "count",
    "config.snapshot_s": "s",
    "model.derive_s": "s", "model.derive_calls": "count",
    "steady_state.coeffs_s": "s", "steady_state.solve_roots_s": "s",
    "steady_state.solve_roots_calls": "count",
    "steady_state.roots_returned": "count",
    "steady_state.fields_s": "s", "steady_state.fields_calls": "count",
    "stability.classify_s": "s", "stability.classify_calls": "count",
    "stability.unstable_share": "share",
    "bifurcation.self_s": "s", "bifurcation.window_s": "s",
    "bifurcation.hysteresis_s": "s",
    "output.serialize_s": "s", "output.bytes": "bytes",
    "dynamics.relax_self_s": "s", "dynamics.ivp_s": "s",
    "dynamics.ivp_calls": "count", "dynamics.nfev": "count",
    "dynamics.us_per_rhs": "us", "dynamics.settled": "count",
    "dynamics.nfev_per_settled": "count",
    "dynamics.ivp_calls_per_settled": "count",
    "dynamics.fail_nfev": "count",
    "trace.overhead_pct": "%",
}
TIME_UNITS = ("s", "us")


class Record(NamedTuple):
    kind: int           # index of the op in the mix
    wall: float         # s, as measured
    ok: bool
    work: int
    probe: float        # s, mean of the host probes just before and after

    @property
    def ref(self) -> float:
        """The wall time in reference seconds, at the probe's host speed.

        The host's speed drifts by tens of percent within seconds, much the
        same for the probe as for the program; scaling each op by the probes
        taken around it removes most of that drift.
        """
        return self.wall * PROBE_NOMINAL_S / self.probe


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation timed out")


def _fail(name: str, reason: str) -> None:
    print(f"FAILED {name}: {reason}", file=sys.stderr, flush=True)


def host_probe() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def run_op(op, timeout: float) -> tuple[float, bool, int]:
    """(wall seconds, ok, work) of one call of `op`, under a timeout.

    Garbage left by the previous op is collected first, so that its cost is
    not charged to whichever op happens to cross the collector's threshold.
    """
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        result = op.run()
    except (Exception, OpTimeout) as exc:
        result = exc
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    expected = op.expect is not None and isinstance(result, op.expect)
    if isinstance(result, BaseException) and not expected:
        _fail(op.name, f"{type(result).__name__}: {result}")
        return wall, False, 0
    if op.expect is not None and not expected:
        _fail(op.name, f"returned instead of raising {op.expect.__name__}")
        return wall, False, 0
    try:
        work = op.check(result)
    except Exception as exc:
        _fail(op.name, f"wrong output: {type(exc).__name__}: {exc}")
        return wall, False, 0
    return wall, True, work


def run_ops(ops, kinds, timeout: float) -> list[Record]:
    """Run `ops[k]` for each k of `kinds`, probing the host between ops."""
    records = []
    before = host_probe()
    for k in kinds:
        wall, ok, work = run_op(ops[k], timeout)
        after = host_probe()
        records.append(Record(k, wall, ok, work, 0.5 * (before + after)))
        before = after
    return records


def run_rounds(ops, seconds: float, timeout: float) -> list[Record]:
    """Cycle through `ops` for `seconds`, and at least once through all."""
    start = time.perf_counter()

    def kinds():
        i = 0
        while i < len(ops) or time.perf_counter() - start < seconds:
            yield i % len(ops)
            i += 1

    return run_ops(ops, kinds(), timeout)


def time_scale(records) -> float:
    """Reference seconds per wall second over the whole run.

    Used for the traced layer times, which are not taken between probes.
    """
    return PROBE_NOMINAL_S / statistics.median(r.probe for r in records)


def end_to_end(ops, records) -> dict:
    times: dict[int, list[float]] = {}
    work: dict[int, int] = {}
    for r in records:
        times.setdefault(r.kind, []).append(r.ref)
        if r.ok:
            work[r.kind] = r.work
    med = {k: statistics.median(v) for k, v in times.items()}
    rate_kinds = [k for k in med if ops[k].expect is None]
    return {
        # each op of the mix counts once, at its median, whichever ops the
        # run had time to repeat
        "op_p50_s": statistics.median(med.values()),
        # one pass over the mix, each op at its median
        "mix_wall_s": sum(med.values()),
        "points_per_s": (sum(work.get(k, 0) for k in rate_kinds)
                         / sum(med[k] for k in rate_kinds)),
    }


def _python_wall(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   timeout=120)
    return time.perf_counter() - t0


def startup_metrics() -> dict:
    interp = statistics.median(_python_wall("pass")
                               for _ in range(STARTUP_SAMPLES))
    imp = statistics.median(_python_wall("import neoms.cli")
                            for _ in range(STARTUP_SAMPLES))
    return {"cli.interp_s": interp, "cli.import_s": imp - interp}


def traced_run(workload, seed, ops, seconds, timeout):
    """Alternate untraced and traced passes over the whole mix.

    Returns (records, metrics, scale).  Per-layer times are medians over the
    traced passes; counts come from the first traced pass (every pass does
    the same work).  The overhead compares the two kinds of pass by their
    time in reference seconds.
    """
    from tracer import Tracer, layer_metrics

    metrics = startup_metrics()
    tr = Tracer()
    records, walls, layers = [], {False: [], True: []}, []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        # alternate which side goes first, so drift cancels between pairs
        for traced in (False, True) if len(layers) % 2 == 0 else (True, False):
            lo = len(tr)
            if traced:
                tr.install()
            try:
                rec = run_ops(ops, range(len(ops)), timeout)
            finally:
                tr.uninstall()
            records += rec
            walls[traced].append(sum(r.ref for r in rec))
            if traced:
                invocations = len(ops) if workload == "cli" else 0
                layers.append(layer_metrics(tr, lo, len(tr), invocations))
    for name in layers[0]:
        values = [m[name] for m in layers]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                print(f"warning: {name} differs between passes: {values}",
                      file=sys.stderr)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    scale = time_scale(records)
    for name in metrics:
        if PER_LAYER_UNITS[name] in TIME_UNITS:
            metrics[name] *= scale
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1)
    OUT_DIR.mkdir(exist_ok=True)
    tr.write_csv(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
    return records, metrics, scale


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, records, scale: float) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_probe_median_s": statistics.median(r.probe for r in records),
        "time_scale": scale,
    }


def timed_setup(args):
    """(set-up time in reference seconds, ops) of the workload.

    Set-up is timed once per interpreter, so each sample is scaled by the
    host probes taken just before and after it, as an op is.
    """
    before = host_probe()
    t0 = time.perf_counter()
    import workloads
    ops = workloads.SETUP[args.workload](args.seed, ROOT)
    wall = time.perf_counter() - t0
    probe = 0.5 * (before + host_probe())
    return wall * PROBE_NOMINAL_S / probe, ops


def setup_sample(args) -> float:
    """Set-up time of the workload in a fresh interpreter, in reference s."""
    p = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(p.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli", "sweep", "relax"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up once and exit (used internally)")
    args = ap.parse_args(argv)

    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "neoms" / "__init__.py").is_file() \
            or not (tests / "draws.py").is_file():
        print(f"error: no neoms sources under {src} or no {tests}/draws.py",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    sys.path[:0] = [str(src), str(tests)]
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_s, ops = timed_setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import neoms
    import workloads
    if Path(neoms.__file__).resolve().parent != src / "neoms":
        print(f"error: imported neoms from {neoms.__file__}", file=sys.stderr)
        return 2

    timeout = workloads.OP_TIMEOUT_S
    if args.trace:
        if args.workload == "cli":
            ops = workloads.setup_cli_inprocess(args.seed, ROOT)
        records, metrics, scale = traced_run(args.workload, args.seed, ops,
                                             args.seconds, timeout)
        units = PER_LAYER_UNITS
    else:
        records = run_rounds(ops, args.seconds, timeout)
        scale = time_scale(records)
        metrics = end_to_end(ops, records)
        # for cli, the largest `python -m neoms` child; nothing else has
        # been waited for yet
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF)
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        samples = [setup_s] + [setup_sample(args)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(samples)
        units = END_TO_END

    failed = sum(1 for r in records if not r.ok)
    aliases = WORKLOAD_NAMES[args.workload] if not args.trace else {}
    for name in units:
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:34s} {metrics[name]:>16.6g} {units[name]}{alias}")
    print(f"{'ops_attempted':34s} {len(records):>16d} count")
    print(f"{'ops_failed':34s} {failed:>16d} count")
    env = environment(args, records, scale)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
