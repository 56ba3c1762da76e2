"""Run every workload over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py [--seeds 0 1] [--seconds N]

It prints each run's report (every metric by name and unit, the stage
throughputs, fail_rate and machine facts), then for each workload and
end-to-end metric the median, the first and third quartiles over the
seeds, and their distance as a share of the median next to the metric's
bound.  Seed 0 is the seed the workload sizes were chosen on and seed 1 is
held out, so the default run checks a claimed gain on a seed it was not
tuned on.  Per-layer metrics and the tracing overhead come from
`run.py --trace 1`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """Run run.py untraced; print its report and return its JSON result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartiles, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)

    names = [w["name"] for w in BENCHMARK["workloads"]]
    results = {w: [run_once(w, seed, args.seconds) for seed in args.seeds] for w in names}

    print(f"\n{'workload':10s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload in names:
        for m in BENCHMARK["end_to_end"]:
            med, q1, q3, sp = spread([r["metrics"][m["name"]]["value"] for r in results[workload]])
            print(f"{workload:10s} {m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:8.4f} {m['bound']:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
