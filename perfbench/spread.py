"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload table-d3] [--trace 1]
                                [--out summary.json]

Each run is a separate ``run.py`` process, started one after another.
For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound in ``BENCHMARK.json``.  ``--out`` also writes the figures and the
environment (CPU, versions, the program's pool threads) as JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads as wl


def environment():
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open("/proc/cpuinfo") as fh:
        env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                           if line.startswith("model name")), "unknown")
    l3 = "/sys/devices/system/cpu/cpu0/cache/index3"
    if os.path.exists(l3):
        with open(os.path.join(l3, "size")) as fh:
            env["l3"] = fh.read().strip()
        with open(os.path.join(l3, "shared_cpu_list")) as fh:
            env["l3_shared_cpus"] = fh.read().strip()
    return env


def pool_threads(workload, seed):
    """Distinct threads that ran ``cli.table_cell`` spans in a traced run."""
    path = os.path.join(run.WORK, "spans", f"{workload}-seed{seed}.csv")
    with open(path, newline="") as fh:
        return len({r["thread"] for r in csv.DictReader(fh) if r["name"] == "cli.table_cell"})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    first, last = (int(s) for s in args.seeds.split("-"))
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    summary = {"seconds": seconds, "seeds": [first, last], "workloads": {}}
    for name in names:
        values, failed = {}, 0
        threads = set()
        for seed in range(first, last + 1):
            done = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            if args.trace and name.startswith("table-"):
                threads.add(pool_threads(name, seed))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items() if k in bounds),
                file=sys.stderr)
            print("".join(line for line in done.stderr.splitlines(True)
                          if line.startswith("wall ")), end="", file=sys.stderr)
        rows = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "runs": len(vals)}
            if not args.trace:
                print(f"{name:11s} {metric:12s} median {med:14.6g}  q1 {q1:14.6g}  "
                      f"q3 {q3:14.6g}  spread {spread:.4f}  bound {bounds.get(metric)}")
        summary["workloads"][name] = {"failed": failed, "metrics": rows}
        if threads:
            summary["workloads"][name]["pool_threads"] = sorted(threads)
        print(f"{name}: {failed} failures", file=sys.stderr)
    if args.out:
        summary["environment"] = environment()
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
