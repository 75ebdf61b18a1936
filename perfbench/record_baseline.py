"""Record every workload, untraced and traced, into perfbench/baseline.json.

    python3 perfbench/record_baseline.py

Each (workload, seed) is run once with `--trace 0` and once with
`--trace 1`, for the `run_seconds` of BENCHMARK.json.  The file keeps every
run's environment and result, plus the median of each metric over the seeds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "sweep", "relax")
SEEDS = (1, 2, 3)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    lines = p.stdout.splitlines()
    env = next(ln for ln in lines if ln.startswith("environment "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "environment": json.loads(env[len("environment "):]),
            "result": json.loads(lines[-1])}


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "run_seconds"]
    runs, summary = [], {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            group = [run(workload, s, seconds, trace) for s in SEEDS]
            runs += group
            values: dict[str, list[float]] = {}
            for r in group:
                for name, m in r["result"]["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            summary.setdefault(workload, {})[
                "per_layer" if trace else "end_to_end"] = {
                name: statistics.median(v) for name, v in values.items()}
            summary[workload]["failed" if not trace else "failed_traced"] = \
                sum(r["result"]["failed"] for r in group)
            print(f"{workload} trace={trace}: done", file=sys.stderr)
    doc = {"seconds": seconds, "seeds": list(SEEDS),
           "summary": summary, "runs": runs}
    (HERE / "baseline.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
