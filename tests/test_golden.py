"""Golden digests of the scalar presets' ``trace.csv``.

Speed-ups of the model kernels and gradient estimators must leave every
preset output byte-identical.  These SHA-256 digests were recorded at
the default seed before the fused ``log_pdf_and_score`` kernels; change
them only for an intended numeric change, and say so in CHANGES.md.
"""

import hashlib

import pytest

from dpdfit.cli import main

GOLDEN = {
    "paper-4.1-i": "43c093cd8aa34aecf6b1e6ec7ae1d28466bb33d1b0e38e09c1f2f3bd77712c2c",
    "paper-4.1-ii": "19807fe2ab55ebf78931c2b76b842c63e5ef7f9ab6440be1c941b923f160052e",
    "paper-4.1-iii": "392268fc1b597e025bc7a8fd2c0f90265cc155b242977cc9e8f2420221d6117d",
    "paper-4.1-iv": "83f1617a50774e87628df994d4fcceb3dc682deb4c0c68d2db8b8e237d793d4b",
    "paper-4.1-i --divergence gamma":
        "616b9899fd0a3c3edd9bbf6fe09f68287ebe4ed21ecb1779d79c4970bffd8fc5",
}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_trace_digest(run, tmp_path):
    preset, *extra = run.split()
    rc = main(["trace", "--config", preset, *extra, "--out-dir", str(tmp_path)])
    assert rc == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[run]
