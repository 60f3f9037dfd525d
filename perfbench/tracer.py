"""Spans around the calls into each dpdfit layer, recorded from outside.

``Tracer.install`` replaces module attributes and class methods of the
package with wrappers that record a span per call; ``uninstall`` puts
the originals back, so untraced passes run the unmodified program.
Wrappers only observe arguments and results, so tracing never changes
outputs or random streams.

A span is ``(id, name, start_ns, end_ns, parent_id, thread_id)``.  Each
thread keeps its own stack; the first span of a pool thread is parented
to the span the main thread is inside (``cli.table_compare``).  Spans
stay in memory and are written by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import csv
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

NS = 1e-9


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._next_id = itertools.count(1).__next__
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self.patches = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, value):
        with self._lock:
            self.counts[key] += value

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)``
        may add counts once the span has ended."""
        spans, next_id, stack_of = self.spans, self._next_id, self._stack
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next_id()
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, after))
        else:
            new = self.wrap(name, raw, after)
        self.patches.append((owner, attr, raw, new))

    def install(self):
        for owner, attr, _, new in self.patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw, _ in reversed(self.patches):
            setattr(owner, attr, raw)

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "thread"])
        writer.writerows(spans)


def _points(x):
    return int(np.shape(x)[0]) if np.ndim(x) else 1


def instrument(tracer):
    """Register a wrapper at every layer boundary the benchmark reports."""
    from dpdfit import cli, divergence, gradients, models
    from dpdfit.datagen import Dataset

    for attr, span in (("main", "cli.main"), ("cmd_table_compare", "cli.table_compare"),
                       ("_table_cell_run", "cli.table_cell")):
        tracer.patch(cli, attr, span)

    def descent(args, result):
        tracer.count("optim.steps", len(result.trace) - 1)
        tracer.count("optim.diverged", int(result.diverged))

    tracer.patch(cli, "sgd_run", "optim.sgd_run", descent)
    tracer.patch(cli, "gd_run", "optim.gd_run", descent)
    for name in ("stochastic_grad_dpd", "stochastic_grad_gamma", "lattice_grad_dpd"):
        tracer.patch(cli, name, f"gradients.{name}")
    tracer.patch(gradients, "data_term", "gradients.data_term")
    tracer.patch(gradients, "_draw_proposal", "gradients.proposal")

    def weights(args, result):
        w = result[1]
        tracer.count("gradients.proposal.draws", int(w.size))
        tracer.count("gradients.proposal.zero_weight", int(np.count_nonzero(w == 0)))

    tracer.patch(gradients, "_proposal_terms", "gradients.proposal", weights)
    tracer.patch(gradients, "lattice_points", "divergence.lattice_points")
    tracer.patch(divergence, "lattice_points", "divergence.lattice_points")
    tracer.patch(cli, "empirical_dpce", "divergence.objective")
    tracer.patch(cli, "empirical_gce", "divergence.objective")
    for name in ("mle_normal", "mle_inverse_normal", "mle_gompertz", "mle_mixture",
                 "mle_isonormal"):
        tracer.patch(cli, name, "mle.init")
    tracer.patch(cli, "contaminated_sample", "datagen.contaminated_sample")

    def written(args, result):
        tracer.count("datagen.to_csv.bytes", os.path.getsize(args[1]))

    def read(args, result):  # args[0] is the class
        tracer.count("datagen.from_csv.bytes", os.path.getsize(args[1]))

    tracer.patch(Dataset, "to_csv", "datagen.to_csv", written)
    tracer.patch(Dataset, "from_csv", "datagen.from_csv", read)

    def points(kernel):
        def after(args, result):
            tracer.count(f"models.{kernel}.points", _points(args[2]))
        return after

    for cls in models.Model.__subclasses__():
        for kernel in ("log_pdf", "score", "sample"):
            if kernel in cls.__dict__:
                after = points(kernel) if kernel != "sample" else None
                tracer.patch(cls, kernel, f"models.{kernel}", after)


def self_times(spans):
    """Self time of every span, in ns: its duration minus the part of it
    that the union of its children's intervals covers.  Children in
    pool threads may overlap one another."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans):
    """Per span name: (calls, summed self time in s, summed duration in s)."""
    own = self_times(spans)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, _, _ in spans:
        t = totals[name]
        t[0] += 1
        t[1] += own[sid] * NS
        t[2] += (end - start) * NS
    return totals

