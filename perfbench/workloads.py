"""Workloads of the dpdfit benchmark and the check of their outputs.

A workload is a fixed list of CLI invocations run one after another
(closed loop, one client).  The workload seed is passed on to every
invocation as ``--seed``; nothing else depends on it.

Each invocation names the output files the check reads:

* ``trace.csv`` -- the header and the final row;
* ``estimate.csv`` and ``table.csv`` -- every row;
* ``data.csv`` -- a summary (see ``data_summary``), so that the values
  ``Dataset.to_csv`` writes are pinned without storing 22 MB.

Numbers must match the reference within a relative difference of
``REL_TOL``; every other cell must match exactly.  Sums in the
``data.csv`` summary may differ by ``REL_TOL`` times the matching sum
of absolute values, the most that per-value differences of ``REL_TOL``
can move them.  The density
evaluations of an invocation (the paper's ``complexity = t * (n + m)``)
must equal the count the invocation implies, exactly.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple  # CLI arguments, without --seed and --out-dir
    files: tuple  # output files the check reads
    evals: int  # density evaluations the invocation must report
    replications: int = 1  # table.csv complexity is per replication


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    warmup: tuple  # extra flags appended for the untimed warm-up call


def _trace(label, preset, steps, *extra):
    # paper-4.1 presets: n = 1000, m = 10.
    return Invocation(label, ("trace", "--config", preset) + extra,
                      ("trace.csv",), steps * (1000 + 10))


def _table(label, preset, d, replications, *extra):
    # paper-4.2 presets: T = 300, n = 500, m in {3, 10, 50}, M in {3, 10, 50}.
    per_rep = sum(300 * (500 + m) for m in (3, 10, 50))
    per_rep += sum(300 * (500 + mm**d) for mm in (3, 10, 50))
    return Invocation(label, ("table-compare", "--config", preset) + extra,
                      ("table.csv",), per_rep * replications, replications)


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scalar-sgd",
            (
                _trace("4.1-i", "paper-4.1-i", 500),
                _trace("4.1-ii", "paper-4.1-ii", 1000),
                _trace("4.1-iii", "paper-4.1-iii", 1000),
                _trace("4.1-iv", "paper-4.1-iv", 1000),
                _trace("4.1-i-gamma", "paper-4.1-i", 500, "--divergence", "gamma"),
            ),
            ("--T", "3"),
        ),
        Workload(
            "table-d3",
            (_table("4.2-d3", "paper-4.2-d3", 3, 2, "--replications", "2"),),
            ("--T", "2"),
        ),
        Workload(
            "large-n-io",
            (
                Invocation("write",
                           ("fit", "--config", "paper-4.1-i", "--n", "1000000",
                            "--T", "20"),
                           ("estimate.csv", "trace.csv", "data.csv"),
                           20 * (1_000_000 + 10)),
                Invocation("read", ("fit", "--data", "{write}/data.csv", "--T", "20"),
                           ("estimate.csv", "trace.csv"), 20 * (1_000_000 + 10)),
            ),
            ("--n", "2000"),
        ),
    )
}


def argv_for(inv, seed, out_dirs, warmup=()):
    """Full CLI argument list; ``{label}`` names another invocation's
    output directory."""
    args = [a.format(**out_dirs) for a in inv.argv]
    return args + list(warmup) + ["--seed", str(seed), "--out-dir", out_dirs[inv.label]]


def read_outputs(inv, out_dir):
    """The outputs the check compares, as plain JSON-able values."""
    out = {}
    for name in inv.files:
        path = os.path.join(out_dir, name)
        if name == "data.csv":
            out[name] = data_summary(path)
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        out[name] = [rows[0], rows[-1]] if name == "trace.csv" else rows
    return out


def data_summary(path):
    """Header, row count and, per column, the sum, the sum weighted by
    row number (which a reordering moves), their sums of absolute values,
    the minimum and the maximum."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    row = np.arange(1, len(values) + 1, dtype=float)
    columns = []
    for col in values.T:
        columns.append({
            "sum": float(col.sum()), "abs_sum": float(np.abs(col).sum()),
            "row_sum": float((row * col).sum()),
            "row_abs_sum": float((row * np.abs(col)).sum()),
            "min": float(col.min()), "max": float(col.max()),
        })
    return {"header": header, "rows": len(values), "columns": columns}


def _summary_differs(want, have):
    """Messages for ``data_summary`` results that differ beyond ``REL_TOL``."""
    if (want["header"], want["rows"], len(want["columns"])) != (
            have["header"], have["rows"], len(have["columns"])):
        return ["header, row count or column count differs"]
    problems = []
    for j, (w, h) in enumerate(zip(want["columns"], have["columns"])):
        scale = {"sum": "abs_sum", "row_sum": "row_abs_sum"}
        for key, a in w.items():
            b = h[key]
            tol = REL_TOL * max(abs(w[scale.get(key, key)]), abs(h[scale.get(key, key)]))
            if abs(a - b) > tol:
                problems.append(f"column {j} {key}: {b!r} != {a!r}")
    return problems


def evaluations(inv, outputs):
    """Density evaluations reported by the outputs of one invocation."""
    if "table.csv" in outputs:
        header, *rows = outputs["table.csv"]
        col = header.index("complexity")
        return sum(int(r[col]) for r in rows) * inv.replications
    header, final = outputs["trace.csv"]
    return int(final[header.index("complexity")])


def _cell_differs(a, b):
    if a == b:
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return True
    return abs(x - y) > REL_TOL * max(abs(x), abs(y))


def compare(expected, got, exact=False):
    """Differences between two ``read_outputs`` results, as messages.

    With ``exact`` every cell and the ``data.csv`` summary must match
    exactly; otherwise numbers may differ by ``REL_TOL`` relative.
    """
    problems = []
    for name, want in expected.items():
        have = got.get(name)
        if isinstance(want, dict):  # data.csv
            if not isinstance(have, dict):
                problems.append(f"{name}: summary missing")
            elif exact:
                problems += [f"{name}: summary differs"] if want != have else []
            else:
                problems += [f"{name}: {p}" for p in _summary_differs(want, have)]
            continue
        if have is None or [len(r) for r in want] != [len(r) for r in have]:
            problems.append(f"{name}: shape differs from reference")
            continue
        for i, (rw, rh) in enumerate(zip(want, have)):
            for j, (a, b) in enumerate(zip(rw, rh)):
                if (a != b) if exact else _cell_differs(a, b):
                    problems.append(f"{name}[{i}][{j}]: {b!r} != {a!r}")
    return problems
