"""The benchmark still runs against dpdfit.

``perfbench/tracer.py`` wraps module attributes and class methods by
name and reads their results; a rename or an API change in the package
would break the benchmark's traced runs only.  These tests load the
tracer and the micro-measurements by path, trace one small run, take
every micro-measurement once, and run the harness's self-test.
"""

import importlib.util
import math
import os
import subprocess
import sys

from dpdfit import cli, optim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(argv):
    """``cli.main(argv)`` under the tracer; the tracer, once uninstalled."""
    tr = _load("tracer")
    tracer = tr.Tracer()
    tr.instrument(tracer)  # raises KeyError if a patched name is gone
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert cli.sgd_run is optim.sgd_run  # the originals are back
    return tracer


def test_traced_run_counts_objective_once_per_record(tmp_path):
    """Also: the draws join the data's kernel call, and the tracer still
    sees each step's ``(terms, weights)`` once, 5 steps of m = 10 draws."""
    tracer = _traced_run(["trace", "--config", "paper-4.1-i", "--T", "5",
                          "--out-dir", str(tmp_path)])
    names = [span[1] for span in tracer.spans]
    assert names.count("divergence.objective") == 6  # t = 0 .. 5
    assert names.count("optim.sgd_run") == 1
    assert tracer.counts["optim.steps"] == 5
    assert names.count("gradients.stochastic_grad_dpd") == 5
    assert names.count("gradients.data_term") == 0  # the step sums the data itself
    assert tracer.counts["gradients.proposal.draws"] == 50
    # the seams the benchmark patches: _draw_proposal and _proposal_terms
    # once a step each, one MLE start, one sample of data and 5 of draws
    assert names.count("gradients.proposal") == 10
    assert names.count("mle.init") == 1
    assert names.count("models.sample") == 6


def test_traced_run_counts_zero_weight_draws(tmp_path):
    """A fixed normal proposal 100 sd away from the data gives every draw
    an importance weight of 0, and the tracer counts all 50 of them."""
    tracer = _traced_run(["trace", "--T", "5", "--proposal=normal:100,1",
                          "--out-dir", str(tmp_path)])
    assert tracer.counts["gradients.proposal.draws"] == 50
    assert tracer.counts["gradients.proposal.zero_weight"] == 50
    names = [span[1] for span in tracer.spans]
    assert names.count("gradients.proposal") == 10
    assert names.count("mle.init") == 1
    assert names.count("models.sample") == 1  # the data only: the draws are the proposal's


def test_traced_gamma_run_calls_the_patched_estimator(tmp_path):
    """The CLI looks the gradient estimators up when a run starts, so the
    tracer's wrappers see every gamma step."""
    tracer = _traced_run(["trace", "--config", "paper-4.1-i", "--divergence", "gamma",
                          "--T", "5", "--out-dir", str(tmp_path)])
    names = [span[1] for span in tracer.spans]
    assert names.count("gradients.stochastic_grad_gamma") == 5
    assert names.count("optim.sgd_run") == 1
    assert names.count("divergence.objective") == 6  # t = 0 .. 5


def test_traced_table_draws_each_replication_once(tmp_path, monkeypatch):
    """The 6 cells of a replication share its sample and its MLE start, so
    2 replications make 12 cell spans on 2 samples and 2 starts.  The tracer
    records spans in its own process only: on 2 CPUs the cells run on forked
    workers, and only the samples and the starts are traced."""
    argv = ["table-compare", "--config", "paper-4.2-d2", "--replications", "2", "--T", "3"]
    for cpus, cells in ((2, 0), (1, 12)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        tracer = _traced_run(argv + ["--out-dir", str(tmp_path / str(cpus))])
        names = [span[1] for span in tracer.spans]
        assert names.count("cli.table_compare") == 1
        assert names.count("cli.table_cell") == cells
        assert names.count("mle.init") == 2
        assert names.count("datagen.contaminated_sample") == 2

def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` writes only under ``perfbench/.work/``."""
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_micro_measurements_run(tmp_path):
    """``perfbench/micro.py`` calls the kernels, the gradient pieces, the
    descent loop and the CSV I/O directly; with no minimum batch time
    each batch is one call."""
    micro = _load("micro")
    micro.MIN_BATCH_S = 0
    out = micro.measure(0, str(tmp_path))
    assert out and all(math.isfinite(v) and v > 0 for v in out.values()), out
