"""The demos print the same bytes as when these digests were recorded.

Each demo is seeded, so its stdout is deterministic; a refactor that
keeps every number the same keeps these SHA-256 digests.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import dpdfit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = {
    "01_robust_normal_fit.py":
        "3dacc895b0e71c97b3a5586293cd574da334b2b021c3f3e27004742c76266a88",
    "02_general_families.py":
        "8c345dedddd4cda997ca192a7bf0221f0df661e4d9cd031b1b8b387ce826676f",
    "03_gamma_scale_recovery.py":
        "35edcea731c1dab8b14832e7bdb4c7cebaa07143e0825be2f7863f2578eab09d",
    "04_sgd_vs_numerical_integration.py":
        "5a7a7913f50cc140d4daa9ffee41ba3b6cde793d0d11bb920c2560f14a296077",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_stdout_digest(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpdfit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                          capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[demo]
