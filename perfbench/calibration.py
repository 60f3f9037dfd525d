"""A fixed reference computation whose time tracks the host's speed.

The benchmark shares a few CPUs of a host with other tenants, and the
speed of each CPU it gets drifts by a third and more, often within a
second, and the CPUs drift apart.  Most kinds of work slow alike, so a
run also times this computation on each CPU right after each
invocation, and the end-to-end metrics give the time of an invocation
as a multiple of the time this computation took around it: a "cal"
(see ``run.py``).  Wall times in seconds go to stderr.

The computation uses Python and numpy only, never ``dpdfit``, so a
change to the program can change it only by leaving threads at work
between invocations.  It mixes what the workloads do:
formatting, parsing and allocating small Python objects, as CSV code
does; many numpy calls on small arrays, as a gradient step does; and a
few passes over arrays of 2 MB, written in place so that the run's peak
memory barely grows.  Its inputs are fixed.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20230711)
_VALUES = _RNG.normal(size=4000).tolist()
_SMALL = _RNG.random(1000)
_LARGE = _RNG.random(250_000)
_OUT = np.empty((2, _LARGE.size))


def sample():
    """Seconds that one run of the reference computation takes."""
    start = perf_counter()
    rows = [[repr(v), "0"] for v in _VALUES]
    total = sum(float(r[0]) for r in rows)
    a = _SMALL
    for _ in range(800):
        a = np.exp(-a * a) + np.log1p(a)
    b, c = _OUT
    for _ in range(4):
        np.multiply(_LARGE, -_LARGE, out=b)
        np.exp(b, out=b)
        np.log1p(_LARGE, out=c)
        b += c
    total += float(a[0] + b[0])
    seconds = perf_counter() - start
    if not np.isfinite(total):
        raise RuntimeError("calibration computation went wrong")
    return seconds


def current_cpu():
    """The CPU this thread runs on."""
    with open("/proc/thread-self/stat") as fh:
        stat = fh.read()
    return int(stat[stat.rindex(")") + 2:].split()[36])  # field 39, processor


def burst(seconds, own=1.0):
    """Calibration figure for work that ran last on this thread's CPU and
    spent the share ``own`` of its CPU time on this thread.

    Samples are taken in turn on each CPU this thread may use, this
    thread's CPU first, for about ``seconds`` in all and at least one on
    each.  The figure is the mean of the median sample on each CPU,
    weighted by where the work ran: its share on this thread on this
    thread's CPU, and the rest, on other threads, evenly over all CPUs.
    So work on this thread is measured against the CPU it ran on, and
    work on a thread pool against all of them.  Returns the figure and
    the number of samples.
    """
    cpus = os.sched_getaffinity(0)
    here = current_cpu()
    samples = {cpu: [] for cpu in sorted(cpus, key=lambda cpu: cpu != here)}
    spent = 0.0
    try:
        while not spent or spent < seconds:
            for cpu, taken in samples.items():
                os.sched_setaffinity(0, {cpu})
                taken.append(sample())
                spent += taken[-1]
    finally:
        os.sched_setaffinity(0, {here})  # carry on where the work ran
        os.sched_setaffinity(0, cpus)
    medians = [statistics.median(taken) for taken in samples.values()]
    spread = (1.0 - own) * statistics.mean(medians)
    return own * medians[0] + spread, sum(map(len, samples.values()))
