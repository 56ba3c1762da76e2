"""transecg benchmark: run one workload through the real CLI stages.

    python3 perfbench/run.py --workload {train,ingest,explain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each CLI stage runs in its own fresh
process, one at a time (a closed loop with one client); BLAS keeps its
default thread count.  The run sets up its inputs several times, warms up,
then repeats passes of the workload's stages for `--seconds` and checks
every output.  The last line of stdout is the JSON
result: end-to-end metrics with `--trace 0`, per-layer metrics from traced
passes (alternating with untraced ones) with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, per_layer, per_layer_spec  # noqa: E402
from workloads import WORKLOADS, RunError, run_stage  # noqa: E402

SETUP_REPEATS = 3
# warm-up passes (checked, not timed) fill the page and bytecode caches and
# take the CPU past its short turbo burst into its sustained clock
WARMUP_S = 6.0
MIN_TIMED_PASSES = 2


def machine_facts() -> dict:
    """nproc, library versions, and the BLAS library and its thread count."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym).restype = ctypes.c_int
                threads = getattr(handle, sym)()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def measure(workload, base: Path, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = []
    for k in range(SETUP_REPEATS):
        work = base / f"setup{k}"
        t0 = time.perf_counter()
        workload.setup(work, seed)
        setup_s.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(base / f"setup{k - 1}")

    passes, attempted, failed, problems = [], 0, 0, []

    def run_pass(kind: str) -> None:
        nonlocal attempted, failed
        workload.clear_outputs(work)
        results = [run_stage(work, cmd, kind == "traced") for cmd in workload.commands(work)]
        for res in results:
            attempted += 1
            if res.rc != 0:
                failed += 1
                problems.append(f"{res.stage} exited {res.rc}: {res.stderr.strip()[-500:]}")
                continue
            found, extra_attempted, extra_failed = workload.check(work, res)
            attempted += extra_attempted
            failed += extra_failed + (1 if found else 0)
            problems.extend(f"{res.stage}: {p}" for p in found)
        passes.append((kind, results))

    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < WARMUP_S:
        run_pass("warm")
    timed = 0
    deadline = time.perf_counter() + seconds
    while timed < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        run_pass("traced" if trace and timed % 2 == 0 else "plain")
        timed += 1
    return {"setup_s": setup_s, "passes": passes,
            "attempted": attempted, "failed": failed, "problems": problems}


def _completed(run: dict, kind: str) -> list[list]:
    return [res for k, res in run["passes"] if k == kind and all(r.rc == 0 for r in res)]


def end_to_end(workload, run: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Contract metrics, and the per-stage throughput figures named per workload."""
    ok = _completed(run, "plain")
    if not ok:
        raise RunError("no pass completed")
    values = {
        "items_per_s": statistics.median(
            workload.items / sum(r.stage_s for r in res) for res in ok),
        "peak_rss_mb": statistics.median(max(r.maxrss_kb for r in res) / 1024 for res in ok),
        # every stage process, warm-up included, pays the same start-up
        "startup_s": statistics.median(
            r.startup_s for _, res in run["passes"] for r in res if r.rc == 0),
        "setup_s": statistics.median(run["setup_s"]),
    }
    named = {
        name: statistics.median(
            workload.items / next(r.stage_s for r in res if r.stage == stage) for res in ok)
        for name, stage in workload.rates.items()
    }
    return values, named


def traced_metrics(run: dict) -> tuple[dict[str, float], dict[str, float], list[str]]:
    def stage_sum(results):
        return sum(r.stage_s for r in results)

    traced, plain = _completed(run, "traced"), _completed(run, "plain")
    if not traced or not plain:
        raise RunError("need at least one traced and one untraced pass")
    overhead_ms = 1e3 * (statistics.median(map(stage_sum, traced))
                         - statistics.median(map(stage_sum, plain)))
    values, tails = per_layer(
        [[{"trace": r.trace, "tape_leaked": r.tape_leaked} for r in res] for res in traced],
        overhead_ms)
    missing = sorted({m for res in traced for r in res for m in r.trace["missing"]})
    return values, tails, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "transecg" / "cli.py").is_file():
        print(f"perfbench: no transecg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()
    try:
        run = measure(workload, base, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics, tails, missing = traced_metrics(run)
            units = {name: unit for name, unit, _, _ in per_layer_spec()}
        else:
            metrics, named = end_to_end(workload, run)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()
    facts["loadavg_after"] = os.getloadavg()

    kinds = [k for k, _ in run["passes"]]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(kinds) - kinds.count('warm')} timed + {kinds.count('warm')} warm-up  "
          f"items/pass {workload.items}")
    for p in run["problems"][:20]:
        print(f"  FAILED {p}")
    if args.trace:
        for name, v in metrics.items():
            if v:
                q = f"  (p{tails[name]:g})" if name in tails else ""
                print(f"  {name:48s} {v:14.6g} {units[name]}{q}")
        if missing:
            print(f"  not traced (absent from the program): {', '.join(missing)}")
        for _, res in run["passes"][:1]:
            leaks = ", ".join(f"{r.stage} {r.tape_leaked} ({r.tape_leaked / workload.items:g}/item)"
                              for r in res)
            print(f"  tape nodes left after each stage: {leaks}")
    else:
        for name, v in {**metrics, **named}.items():
            unit = units.get(name, "1/s")
            print(f"  {name:28s} {v:14.6g} {unit}")
    print(f"  fail_rate {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']}/{run['attempted']} operations)")
    print("machine " + json.dumps(facts))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
