"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, that a
perturbed reference output is counted as a failed invocation (and so
lowers ``ok_ratio``), that a difference inside the tolerance is not,
that the ``data.csv`` summary catches changed and reordered values, and
that tracing restores every patched attribute and leaves outputs
byte-identical.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import run
import tracer as tr
import workloads as wl


def check(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def span_arithmetic():
    # id, name, start, end, parent, thread
    spans = [
        (1, "root", 0, 100, 0, 1),
        (2, "a", 10, 40, 1, 1),
        (3, "a.child", 20, 30, 2, 1),
        (4, "b", 50, 60, 1, 1),
        (5, "pool", 100, 200, 0, 1),
        (6, "cell", 110, 160, 5, 2),  # two pool threads, overlapping
        (7, "cell", 130, 180, 5, 3),
        (8, "late", 190, 250, 5, 2),  # runs past its parent's end
    ]
    own = tr.self_times(spans)
    check(own == {1: 60, 2: 20, 3: 10, 4: 10, 5: 20, 6: 50, 7: 50, 8: 60},
          f"self time is duration minus the union of child intervals: {own}")
    totals = tr.layer_totals(spans)
    check(totals["cell"][0] == 2 and abs(totals["cell"][2] - 100e-9) < 1e-15,
          "layer totals count calls and sum durations")


def data_summary_check():
    work_dir = os.path.join(run.WORK, f"selftest-data-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        def summary(rows):
            path = os.path.join(work_dir, "data.csv")
            with open(path, "w") as fh:
                fh.write("x_1,outlier\n" + "".join(f"{x!r},{o}\n" for x, o in rows))
            return wl.data_summary(path)

        rows = [(0.25, 0), (-1.5, 1), (3.0, 0)]
        want = {"data.csv": summary(rows)}
        for label, changed, fails in (
                ("a value moved by 1e-9 relative", [(0.25 * (1 + 1e-9), 0)] + rows[1:], True),
                ("a value moved by 1e-14 relative", [(0.25 * (1 + 1e-14), 0)] + rows[1:], False),
                ("two rows swapped", [rows[1], rows[0], rows[2]], True)):
            got = {"data.csv": summary(changed)}
            check(bool(wl.compare(want, got)) == fails,
                  f"data.csv summary: {label} {'fails' if fails else 'passes'}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def output_check(cli):
    inv = wl.WORKLOADS["scalar-sgd"].invocations[0]
    workload = wl.Workload("selftest", (inv,), ())
    work_dir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        runner = run.Runner(cli, workload, 0, work_dir)
        runner.reference = None
        runner.run_pass()
        good = runner.first
        check(runner.failed == 0, "an unperturbed run passes")

        header, final = good[inv.label]["trace.csv"]
        col = header.index("theta_1")
        print("the one FAILED line that follows is expected")
        for factor, fails in ((1 + 1e-9, True), (1 + 1e-14, False)):
            ref = copy.deepcopy(good)
            ref[inv.label]["trace.csv"][1][col] = repr(float(final[col]) * factor)
            runner = run.Runner(cli, workload, 0, work_dir)
            runner.reference = ref
            runner.run_pass()
            ok_ratio = (runner.attempted - runner.failed) / runner.attempted
            check((runner.failed == 1 and ok_ratio == 0.0) if fails else ok_ratio == 1.0,
                  f"reference perturbed by {factor - 1:.0e} relative "
                  f"{'fails' if fails else 'passes'} (ok_ratio {ok_ratio})")

        tracer = tr.Tracer()
        tr.instrument(tracer)
        before = [getattr(owner, attr) for owner, attr, _, _ in tracer.patches]
        tracer.install()
        try:
            traced = run.Runner(cli, workload, 0, work_dir)
            traced.first = copy.deepcopy(good)
            traced.run_pass()
        finally:
            tracer.uninstall()
        check(traced.failed == 0, "traced outputs are byte-identical to untraced ones")
        check(len(tracer.spans) > 0 and tracer.counts["optim.steps"] == 500,
              "the traced pass recorded spans and counts")
        check(before == [getattr(owner, attr) for owner, attr, _, _ in tracer.patches],
              "uninstall restores every patched attribute")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    span_arithmetic()
    data_summary_check()
    output_check(run.import_cli())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
