"""dpdfit benchmark: closed-loop passes over CLI invocations, in process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scalar-sgd --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of this checkout, never from an
installed copy; without ``src/`` the run exits 2 and prints no result.
One interpreter drives ``dpdfit.cli.main`` directly and starts no
threads of its own (``table-compare`` runs its own pool).  Set-up is
timed in fresh interpreters, which are waited for; the samples are
spread over the timed passes, so that ``setup_s`` sees the same host
as the passes.

After one untimed warm-up pass at reduced size, a run times whole
passes over the workload's invocations (see ``workloads.py``) until
``--seconds`` have passed and at least ``MIN_PASSES`` passes are done.
Right after each invocation the run times the reference computation
of ``calibration.py`` on each CPU, for ``CALIBRATION_SHARE`` of the
invocation's time in all, and weighs the CPUs by where the invocation
ran (``calibration.burst``).  The invocation's time in cal is its
wall time over the mean of the calibration figure just before it and
just after it, and ``pass_cal`` is the median over passes of the
pass's time in cal.  The
wall times of the passes and the number of calibration samples go to
stderr.
Every invocation is checked: exit code 0,
the density-evaluation count it implies, the reference outputs of this
seed (when ``reference/<workload>.json`` holds it) within a relative
1e-12, and byte equality with the first pass of the run.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` untraced and traced passes
alternate, the kernel micro-measurements run after them, and the line
holds the per-layer metrics.  Spans of the last traced pass are written
to ``perfbench/.work/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter, process_time, thread_time

import calibration
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 11
MIN_PASSES = 2  # passes of the table and large-n workloads take 7-13 s
CALIBRATION_SHARE = 0.2
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import dpdfit.cli; "
    "print(time.perf_counter() - t)"
)


def import_cli():
    """``dpdfit.cli`` from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "dpdfit", "cli.py")):
        raise ImportError(f"no dpdfit sources under {SRC}")
    sys.path.insert(0, SRC)
    import dpdfit.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(dpdfit.cli.__file__))) != SRC:
        raise ImportError(f"dpdfit was imported from {dpdfit.cli.__file__}")
    return dpdfit.cli


def import_seconds():
    """Time for a fresh interpreter to import ``dpdfit.cli``."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def reference_path(workload_name):
    return os.path.join(HERE, "reference", f"{workload_name}.json")


def load_reference(workload_name):
    """Recorded outputs by seed, then by invocation label."""
    try:
        with open(reference_path(workload_name)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Runner:
    """Runs and checks passes of one workload at one seed."""

    def __init__(self, cli, workload, seed, work_dir):
        self.cli, self.workload, self.seed, self.work_dir = cli, workload, seed, work_dir
        self.reference = load_reference(workload.name).get(str(seed))
        self.first = {}
        self.attempted = self.failed = 0
        self.cal = None  # figure of the latest calibration burst
        self.cal_samples = 0

    def _call(self, argv):
        try:
            with contextlib.redirect_stdout(sys.stderr):
                return self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None

    def warm_up(self):
        dirs = self._dirs("warm")
        for inv in self.workload.invocations:
            self._call(wl.argv_for(inv, self.seed, dirs, self.workload.warmup))
            self.calibrate(1.0)

    def calibrate(self, seconds, own=1.0):
        """Sets ``cal`` from a calibration burst of ``CALIBRATION_SHARE``
        of ``seconds``, for work that spent the share ``own`` of its CPU
        time on this thread."""
        self.cal, count = calibration.burst(CALIBRATION_SHARE * seconds, own)
        self.cal_samples += count

    def _dirs(self, tag):
        return {inv.label: os.path.join(self.work_dir, tag, inv.label)
                for inv in self.workload.invocations}

    def run_pass(self):
        """One pass; returns (seconds inside the CLI, the same in cal,
        density evaluations)."""
        dirs = self._dirs("pass")
        seconds = cals = 0.0
        evals = 0
        for inv in self.workload.invocations:
            self.attempted += 1
            shutil.rmtree(dirs[inv.label], ignore_errors=True)  # no stale outputs
            start, cpu, own = perf_counter(), process_time(), thread_time()
            rc = self._call(wl.argv_for(inv, self.seed, dirs))
            took = perf_counter() - start
            cpu, own = process_time() - cpu, thread_time() - own
            before = self.cal
            self.calibrate(took, min(1.0, own / cpu) if cpu else 1.0)
            seconds += took
            cals += took / statistics.mean([before or self.cal, self.cal])
            problems, count = self.check(inv, dirs[inv.label], rc)
            evals += count
            if problems:
                self.failed += 1
                print(f"FAILED {inv.label}: " + "; ".join(problems[:5]), file=sys.stderr)
        return seconds, cals, evals

    def check(self, inv, out_dir, rc):
        if rc != 0:
            return [f"exit code {rc}"], 0
        try:
            got = wl.read_outputs(inv, out_dir)
            count = wl.evaluations(inv, got)
        except (OSError, IndexError, ValueError) as exc:
            return [f"unreadable outputs: {exc!r}"], 0
        problems = []
        if count != inv.evals:
            problems.append(f"{count} density evaluations, expected {inv.evals}")
        if self.reference is not None:
            problems += wl.compare(self.reference[inv.label], got)
        problems += wl.compare(self.first.setdefault(inv.label, got), got, exact=True)
        return problems, count


def end_to_end(runner, seconds):
    import_seconds()  # may compile bytecode; not a sample
    runner.warm_up()
    passes, imports = [], []
    timed = 0.0  # seconds spent in passes; set-up samples come on top
    while len(passes) < MIN_PASSES or timed < seconds:
        start = perf_counter()
        passes.append(runner.run_pass())
        timed += perf_counter() - start
        while len(imports) < SETUP_SAMPLES * min(1.0, timed / seconds):
            imports.append(import_seconds())
    times = [p[0] for p in passes]
    print(f"wall pass_s over {len(times)} passes: " + ", ".join(f"{t:.3f}" for t in times)
          + f"; median {statistics.median(times):.4f}; {runner.cal_samples} calibration "
          "samples", file=sys.stderr)
    return {
        "setup_s": statistics.median(imports),
        "pass_cal": statistics.median(cals for _, cals, _ in passes),
        "evals_per_cal": statistics.median(evals / cals for _, cals, evals in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(runner, seconds, names):
    import micro
    import tracer as tr

    tracer = tr.Tracer()
    tr.instrument(tracer)
    runner.warm_up()
    plain, traced, spans = [], [], []
    calls, own, busy, counts = Counter(), Counter(), Counter(), Counter()
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(runner.run_pass())
            continue
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        spans = list(tracer.spans)
        for name, (c, s, d) in tr.layer_totals(spans).items():
            calls[name] += c
            own[name] += s
            busy[name] += d
        counts.update(tracer.counts)
        tracer.reset()
    tr.write_spans(os.path.join(WORK, "spans",
                                f"{runner.workload.name}-seed{runner.seed}.csv"), spans)

    # Per traced pass; a layer the workload never calls reads 0.
    n = len(traced)
    per_pass = Counter()
    for suffix, counter in (("self_s", own), ("calls", calls), ("busy_s", busy)):
        per_pass.update({f"{name}.{suffix}": v / n for name, v in counter.items()})
    per_pass.update({key: v / n for key, v in counts.items()})

    def ratio(a, b):
        return per_pass[a] / per_pass[b] if per_pass[b] else 0.0

    per_pass["models.log_pdf.points_per_s"] = ratio("models.log_pdf.points",
                                                    "models.log_pdf.self_s")
    per_pass["gradients.proposal.zero_weight_share"] = ratio(
        "gradients.proposal.zero_weight", "gradients.proposal.draws")
    per_pass["cli.table_compare.concurrency"] = ratio("cli.table_cell.busy_s",
                                                      "cli.table_compare.busy_s")
    per_pass["trace.overhead"] = (statistics.median(p[0] for p in traced)
                                  / statistics.median(p[0] for p in plain))
    # Share of the time inside the CLI that a layer span below it covers.
    per_pass["trace.coverage"] = 1 - ratio("cli.main.self_s", "cli.main.busy_s")
    with contextlib.redirect_stdout(sys.stderr):
        per_pass.update(micro.measure(runner.seed, runner.work_dir))
    return {name: per_pass[name] for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        runner = Runner(cli, wl.WORKLOADS[args.workload], args.seed, work_dir)
        if runner.reference is None:
            print(f"no reference outputs for seed {args.seed}: checking counts and "
                  "repeatability only", file=sys.stderr)
        if args.trace:
            values = per_layer(runner, args.seconds, list(units))
        else:
            values = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           "BENCHMARK.json")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
