"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py --seeds 0-31 [--workload table-d3]

Runs one pass of each workload per seed and stores its outputs in
``perfbench/reference/<workload>.json``.  Record only on a commit whose
outputs are known good: later commits must match them within a relative
1e-12.  Seeds already recorded are checked against their reference and
kept as they are; only missing seeds are added.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads as wl


def format_reference(refs):
    """JSON with one line per seed, in seed order."""
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k])}" for k in sorted(refs, key=int)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    cli = run.import_cli()
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    for name in names:
        refs = run.load_reference(name)
        for seed in range(first, last + 1):
            work_dir = os.path.join(run.WORK, f"record-{name}-seed{seed}-{os.getpid()}")
            try:
                runner = run.Runner(cli, wl.WORKLOADS[name], seed, work_dir)
                runner.run_pass()
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if runner.failed:
                print(f"{name} seed {seed}: failed, not recorded", file=sys.stderr)
                return 1
            if str(seed) in refs:
                print(f"{name} seed {seed}: matches its reference", file=sys.stderr)
            else:
                refs[str(seed)] = runner.first
                print(f"{name} seed {seed}: recorded", file=sys.stderr)
        os.makedirs(os.path.dirname(run.reference_path(name)), exist_ok=True)
        with open(run.reference_path(name), "w") as fh:
            fh.write(format_reference(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
