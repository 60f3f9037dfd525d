"""Golden digests of preset outputs.

Speed-ups and refactors must leave every preset output byte-identical.
These SHA-256 digests were recorded at the default seed: the ``trace.csv``
ones before the fused ``log_pdf_and_score`` kernels, the ``estimate.csv``
and ``table.csv`` ones before ``fit``/``trace`` shared one run path and
``table-compare`` drew its samples through the ``fit`` data path, and the
``data.csv``, ``curves.csv``, fixed-normal ``trace.csv`` and gamma
``estimate.csv`` ones before every family took one shape-generic point
path and the stochastic descents one run helper, and the ``isonormal3`` and
``paper-4.2-d2`` ``data.csv`` ones before ``Dataset`` wrote its CSV in
blocks and read it with ``np.loadtxt``.  The ``paper-4.2-d3`` ``table.csv``
and the ``n = 20000`` ``estimate.csv`` were recorded before the lattice and
data terms were evaluated in blocks of points; they are the runs whose
kernel calls exceed one block.  The ``n = 20000`` ``data.csv`` was recorded
before a sample of more than one CSV block was written on a worker thread,
in blocks of 16384 rows.  Change them only for an intended numeric change,
and say so in CHANGES.md.
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


# (command line, output file) -> digest
OUTPUTS = {
    ("fit --config paper-4.1-i", "estimate.csv"):
        "febe9eddead37245950253d56c13565af52adad46d22f6b06ec3cac32662c56d",
    ("fit --config paper-4.1-ii", "estimate.csv"):
        "addb54c6bdce1ae8e6f2c4acc2613907ca6be357cc2f076570f3e589e3a37cfd",
    ("fit --config paper-4.1-iii", "estimate.csv"):
        "9aeb299d64240da0361cb891aa7d00f80eb1fcf19ee3ebea648b975e84cc93de",
    ("fit --config paper-4.1-iv", "estimate.csv"):
        "d646ce760bd9637b3c1cd589d0eed480ce87c6f344b2d378348339cefbf6ef2d",
    ("table-compare --config paper-4.2-d2 --replications 2 --T 30", "table.csv"):
        "4a72efaa122f43a04f282b9d30c7c8162c70be896783e5f2b8edd1d9a1403978",
    ("table-compare --config paper-4.2-d3 --replications 2 --T 30", "table.csv"):
        "86d62d8fd1ef43673bfe50fc5e26edc314e9e1a7df708f85d2e489a9e83ff492",
    ("fit --config paper-4.1-i --n 20000 --T 20", "estimate.csv"):
        "0346afee6cc8290f6e9ede2ddd98938b8482711c344a2794dadf494c47aa8e89",
    ("fit --config paper-4.1-i", "data.csv"):
        "e0635fe8666a656887cde3e0792fe9ba7a7ff726a0627b7d7ac5a969f1a9aefc",
    ("density-curves --config paper-4.1-iii --T 200", "curves.csv"):
        "4dd15be4e931d37c3d927f20bc5370d99eaf5af2b1480e7d5a4604ee0b88e1a9",
    ("fit --config paper-4.1-i --proposal normal:0,3 --T 200", "trace.csv"):
        "791f22152361a7a59d1bd3aab088a9ee652abadfd559ab4e0269fd299dfeaacb",
    ("fit --model isonormal3 --proposal normal:0,0,0,2 --T 100", "trace.csv"):
        "98795c69825b0328886dda2bedcc8d199dda3f59a13b8cd1725726008e56783d",
    ("fit --config paper-4.1-ii --divergence gamma --T 200", "estimate.csv"):
        "1e8dc493435b34c9a96dc7a0aa9bc6686fc27f63cbd94b610b686069d46e7204",
    ("fit --model isonormal3 --T 5", "data.csv"):
        "7e690562070c30896539a079474c3d68f55a502dde02da4525387a4ba3637872",
    ("fit --config paper-4.2-d2 --T 5", "data.csv"):
        "689030a97f945dbc722a4629feb44704f6d7b9b9217ad870f7ed09c3b20c3c15",
    ("fit --n 20000 --T 3", "data.csv"):
        "3fbaaf8a593d4d1e684dfed6f27b660bf0eae61e51b9f3d25ba44bb933d5743e",
}


@pytest.mark.parametrize("run,name", sorted(OUTPUTS), ids=lambda v: v)
def test_output_digest(run, name, tmp_path):
    rc = main(run.split() + ["--out-dir", str(tmp_path)])
    assert rc == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == OUTPUTS[run, name]
