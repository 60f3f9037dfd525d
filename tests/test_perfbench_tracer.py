"""The benchmark's tracer still finds every name it patches in dpdfit.

``perfbench/tracer.py`` wraps module attributes and class methods by
name; a rename in the package would break the benchmark's traced runs
only.  These tests load the tracer by path and trace one small run.
"""

import importlib.util
import os

from dpdfit import cli, optim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_objective_once_per_record(tmp_path):
    tr = _load_tracer()
    tracer = tr.Tracer()
    tr.instrument(tracer)  # raises KeyError if a patched name is gone
    tracer.install()
    try:
        rc = cli.main(["trace", "--config", "paper-4.1-i", "--T", "5",
                       "--out-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert cli.sgd_run is optim.sgd_run  # the originals are back
    names = [span[1] for span in tracer.spans]
    assert names.count("divergence.objective") == 6  # t = 0 .. 5
    assert names.count("optim.sgd_run") == 1
    assert tracer.counts["optim.steps"] == 5
