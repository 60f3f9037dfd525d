import contextlib
import csv
import dataclasses
import glob
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from concurrent.futures import process
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpdfit
from dpdfit import cli, gradients
from dpdfit.cli import _THREADED_CSV_ROWS, DEFAULTS, PRESETS, main
from dpdfit.datagen import Dataset
from dpdfit.divergence import BLOCK, empirical_dpce, empirical_gce
from dpdfit.optim import StepDecay


def read_csv(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


FAST = ["--T", "40", "--n", "200", "--seed", "3"]
# starts past the descent's bound, as it prints them (a gamma run appends log c = 0)
STARTS = {"--truth=1e9,1": "880000001.2331969, 324961533.0641584",
          "--init=1e9,1": "1000000000.0, 0.999999499999875",
          "--init=0,1e9": "0.0, 1000000000.0"}


def check_record(out, argv, err, evaluations):
    """``out/run.json`` records the run of ``argv``: exactly its six fields, the SHA-256
    of its resolved configuration without ``out_dir`` and ``data``, no stop when ``err``
    is empty and else the reason of that stderr line first, and ``evaluations``.
    Returns the stops."""
    with open(os.path.join(out, "run.json")) as fh:
        record = json.load(fh)
    assert list(record) == ["command", "config_sha256", "seed", "versions",
                            "density_evaluations", "stops"]
    cfg = cli.resolve_config(cli._read_command_line(argv)[1])
    assert record["command"] == argv[0] and record["seed"] == int(cfg["seed"])
    experiment = repr(sorted((k, v) for k, v in cfg.items() if k not in ("out_dir", "data")))
    assert record["config_sha256"] == hashlib.sha256(experiment.encode()).hexdigest()
    assert record["versions"] == {"python": platform.python_version(),
                                  "numpy": np.__version__, "dpdfit": dpdfit.__version__}
    assert record["density_evaluations"] == evaluations
    if err:
        assert record["stops"][0] == err.removeprefix("error: ").removesuffix("\n")
    else:
        assert record["stops"] == []
    return record["stops"]


def last_complexity(out):
    """The ``complexity`` of the last row of ``out/trace.csv``."""
    header, rows = read_csv(os.path.join(out, "trace.csv"))
    return int(rows[-1][header.index("complexity")])


class TestFit:
    def test_writes_all_artifacts(self, tmp_path):
        argv = ["fit", "--model", "normal", "--out-dir", str(tmp_path)] + FAST
        rc = main(argv)
        assert rc == 0
        for name in ("config.echo", "data.csv", "estimate.csv", "trace.csv", "run.json"):
            assert (tmp_path / name).exists()
        _, rows = read_csv(tmp_path / "estimate.csv")
        assert last_complexity(tmp_path) == int(rows[0][-1]) == 8400
        check_record(tmp_path, argv, "", 8400)

    def test_trace_header_is_exact(self, tmp_path):
        main(["fit", "--model", "normal", "--out-dir", str(tmp_path)] + FAST)
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["t", "eta", "complexity", "theta_1", "theta_2",
                          "objective_exact", "scale_c", "mse"]
        assert len(rows) == 41  # t = 0 .. 40
        assert rows[0][0] == "0"
        assert rows[1][2] == "210"  # complexity 1 * (n + m)

    def test_estimate_contents(self, tmp_path):
        main(["fit", "--model", "normal", "--out-dir", str(tmp_path)] + FAST)
        header, rows = read_csv(tmp_path / "estimate.csv")
        assert header == ["mu", "sigma", "objective", "complexity"]
        mu, sigma = float(rows[0][0]), float(rows[0][1])
        assert np.isfinite(mu) and sigma > 0
        assert rows[0][3] == "8400"  # 40 * (200 + 10)

    def test_gamma_run_reports_scale(self, tmp_path):
        rc = main(["fit", "--model", "normal", "--divergence", "gamma",
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 0
        header, rows = read_csv(tmp_path / "estimate.csv")
        assert "scale_c" in header
        scale = float(rows[0][header.index("scale_c")])
        assert 0.0 < scale < 2.0

    @pytest.mark.parametrize("n", [1000, 200_000])
    def test_gamma_run_whose_data_densities_vanish_exits_zero(self, tmp_path, capsys, n):
        """From mu = 1000 every ``p(x_i)**gamma`` underflows to 0, so the gamma
        cross entropy is ``-log(0) / gamma``: the objective columns read inf,
        which they only monitor, and the run exits 0 with every output, as
        its DPD twin does, whether ``data.csv`` is written after the descent
        or during it."""
        rc = main(["fit", "--divergence", "gamma", "--init=1000,1", "--T", "3", "--n", str(n),
                   "--out-dir", str(tmp_path)])
        assert rc == 0 and capsys.readouterr().err == ""
        assert sorted(os.listdir(tmp_path)) == ["config.echo", "data.csv", "estimate.csv",
                                                "run.json", "trace.csv"]
        header, rows = read_csv(tmp_path / "trace.csv")
        assert [row[header.index("objective_exact")] for row in rows] == ["inf"] * 4
        header, rows = read_csv(tmp_path / "estimate.csv")
        assert rows[0][header.index("objective")] == "inf"

    def test_fits_user_csv_without_truth(self, tmp_path):
        data = Dataset(points=np.random.default_rng(0).normal(1.0, 2.0, 300),
                       is_outlier=np.zeros(300, dtype=bool))
        data.to_csv(tmp_path / "input.csv")
        out = tmp_path / "out"
        rc = main(["fit", "--model", "normal", "--data",
                   str(tmp_path / "input.csv"), "--out-dir", str(out), "--T", "60"])
        assert rc == 0
        header, rows = read_csv(out / "trace.csv")
        assert rows[-1][header.index("mse")] == ""  # no reference parameters
        assert not (out / "data.csv").exists()

    def test_invalid_beta_exits_one(self, tmp_path):
        rc = main(["fit", "--model", "normal", "--beta", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_unknown_model_exits_one(self, tmp_path):
        rc = main(["fit", "--model", "cauchy", "--out-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("content", ["", "x_1,outlier\n", "x_1,outlier\r\n\r\n\n"],
                             ids=["empty", "header-only", "header-and-blank-lines"])
    def test_csv_without_rows_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "input.csv"
        path.write_text(content)
        rc = main(["fit", "--data", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no data rows" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_csv_with_non_finite_value_exits_one(self, tmp_path, capsys, value):
        path = tmp_path / "input.csv"
        path.write_text(f"x_1\n0.5\n{value}\n1.5\n")
        rc = main(["fit", "--data", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: non-finite value in the data\n"

    def test_csv_with_a_byte_that_is_not_text_exits_one(self, tmp_path, capsys):
        path = tmp_path / "input.csv"
        path.write_bytes(b"x_1\n0.5\n1.5\xff\n")
        rc = main(["fit", "--data", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {path}: line 3: byte 0xff at file offset "
                                           "11 is not utf-8 text (invalid start byte)\n")
        assert os.listdir(tmp_path / "out") == ["config.echo"]

    @pytest.mark.parametrize("model,content,message", [
        ("normal", "x_1,outlier\n0.5,0\n1.5\n",
         "line 3: the number of columns changed from 2 to 1"),
        ("normal", "x_1\n0.5\n1.5,2.0\n", "line 3: the number of columns changed from 1 to 2"),
        ("normal", "x_1\n0.5,1.0\n1.5,2.0\n", "2 columns in the data rows, 1 in the header"),
        ("isonormal2", "x_1,x_2,outlier\n0.5,1.0\n1.5,2.0\n",
         "2 columns in the data rows, 3 in the header"),
        ("normal", "x_1\n0.5\nabc\n", "line 3: could not convert string 'abc'"),
        ("normal", "x_1\r\n\r\n0.5\r\n\r\n1.5\r\nabc\r\n",
         "line 6: could not convert string 'abc'"),
        ("normal", "x_1\n\n0.5\r\n\r\n1_0\n", "line 5: could not convert string '1_0'"),
        ("normal", "x_1,outlier\n0.5,0\n1.5,0.5\n", "outlier labels must be 0 or 1"),
        ("normal", "x_1,outlier\n0.5,0\n1.5,nan\n", "outlier labels must be 0 or 1"),
        ("normal", "x_1,outlier\n0.5,0\n1.5,2\n", "outlier labels must be 0 or 1"),
        ("normal", "x_1\n0.5\n1e200\n-1e200\n", "value outside [-1e+50, 1e+50] in the data"),
    ], ids=["short-row", "long-row", "every-row-long", "label-missing", "not-a-number",
            "not-a-number-after-empty-lines", "numpy-only-rejects", "label-0.5",
            "label-nan", "label-2", "past-magnitude-bound"])
    def test_malformed_csv_exits_one(self, tmp_path, capsys, model, content, message):
        path = tmp_path / "input.csv"
        path.write_text(content)
        rc = main(["fit", "--model", model, "--data", str(path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert err.count("\n") == 1 and " at row " not in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    @pytest.mark.parametrize("model,init", [
        ("normal", "0,-1"), ("normal", "0,0"), ("normal", "0,nan"),
        ("mixture", "-5,1,0,-1,0.6"),
    ])
    def test_init_with_invalid_sigma_exits_one(self, tmp_path, capsys, model, init):
        rc = main(["fit", "--model", model, f"--init={init}",
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: init: sigma must be finite and > 0") and err.count("\n") == 1
        assert not (tmp_path / "estimate.csv").exists()

    @pytest.mark.parametrize("key,args", [
        ("eta0", ["fit", "--eta0", "nan"]),
        ("beta", ["fit", "--beta", "nan"]),
        ("beta", ["fit", "--beta", "inf"]),
        ("gamma", ["fit", "--divergence", "gamma", "--gamma", "nan"]),
        ("outlier_sd", ["fit", "--outlier-sd", "nan"]),
        ("outlier_mean", ["fit", "--outlier-mean", "inf"]),
        ("init", ["fit", "--init=nan,1"]),
        ("init", ["fit", "--model", "isonormal2", "--init=0.5,inf"]),
        ("betas", ["density-curves", "--betas", "0.5,nan"]),
        ("grid_extent", ["table-compare", "--config", "paper-4.2-d2",
                         "--replications", "2", "--grid-extent", "nan"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_non_finite_number_exits_one(self, tmp_path, capsys, key, args):
        rc = main(args + ["--out-dir", str(tmp_path)] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("model,flag,value,message", [
        ("normal", "--proposal", "normal:0,0,1",
         "--proposal normal: mean has 2 value(s) per point, but normal needs 1"),
        ("normal", "--outlier-mean", "1,2",
         "--outlier-mean has 2 value(s) per point, but normal needs 1"),
        ("isonormal2", "--outlier-mean", "1,2,3",
         "--outlier-mean has 3 value(s) per point, but isonormal2 needs 1 or 2"),
    ], ids=["normal-proposal", "normal-outlier-mean", "isonormal2-outlier-mean"])
    def test_point_size_mismatch_exits_one(self, tmp_path, capsys, model, flag, value,
                                           message):
        rc = main(["fit", "--model", model, f"{flag}={value}",
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("model,content,size,need", [
        ("normal", "x_1,x_2\n0.5,1.0\n1.5,2.0\n-0.5,0.0\n", 2, 1),
        ("isonormal2", "x_1\n0.5\n1.5\n-0.5\n", 1, 2),
    ], ids=["normal-2-columns", "isonormal2-1-column"])
    def test_csv_of_wrong_dimension_exits_one(self, tmp_path, capsys, model, content,
                                              size, need):
        path = tmp_path / "input.csv"
        path.write_text(content)
        rc = main(["fit", "--model", model, "--data", str(path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path} has {size} value(s) per point, but {model} needs {need}\n")

    def test_isonormal1_exits_one(self, tmp_path, capsys):
        rc = main(["fit", "--model", "isonormal1", "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert "use normal for d = 1" in err and err.count("\n") == 1

    def test_gompertz_mle_without_interior_root_exits_one(self, tmp_path, capsys):
        """At omega = 100 this sample's likelihood peaks above the shape
        bracket of the MLE; the error says so."""
        rc = main(["fit", "--model", "gompertz", "--truth", "100,1", "--xi", "0",
                   "--T", "5", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: Gompertz MLE: the profile score of omega has one sign on "
            "(0.0001, 20), so the likelihood peaks outside that bracket; "
            "give a start with --init\n")

    def test_gompertz_mle_peak_below_bracket_starts_at_exponential_limit(self, tmp_path):
        """At omega = 0.001 this sample's likelihood peaks at omega -> 0,
        below the bracket; the descent starts from its lower end."""
        rc = main(["fit", "--model", "gompertz", "--truth", "0.001,1", "--xi", "0",
                   "--T", "5", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "estimate.csv")
        assert 0 < float(rows[0][header.index("omega")]) < 1e-3

    @pytest.mark.parametrize("command", ["fit", "trace"])
    def test_divergence_exits_two(self, tmp_path, capsys, command):
        argv = [command, "--model", "normal", "--eta0", "1e12", "--out-dir", str(tmp_path)] + FAST
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: diverged at step 1: candidate theta[")
        assert err.endswith(" is past PARAM_LIMIT = 1e+08\n")
        assert len(check_record(tmp_path, argv, err, last_complexity(tmp_path))) == 1

    @pytest.mark.parametrize("args,stop", [
        (["paper-4.1-ii", "--eta0", "100"], "step 3: gradient[0] is NaN"),
        (["paper-4.1-ii", "--eta0", "1e6"], "step 2: gradient[0] is NaN"),
        (["paper-4.1-iii", "--eta0", "1e6"], "step 2: gradient[0] is NaN"),
        (["paper-4.1-i", "--divergence", "gamma", "--eta0", "100"], "step 3: gradient[0] is NaN"),
        (["paper-4.1-i", "--divergence", "gamma", "--eta0", "1e4"], "step 2: gradient[0] is -inf"),
        (["paper-4.1-i", "--divergence", "gamma", "--eta0", "1e6"], "step 2: gradient[0] is NaN"),
    ], ids=["inverse-normal-100", "inverse-normal-1e6", "gompertz-1e6",
            "gamma-100", "gamma-1e4", "gamma-1e6"])
    def test_log_coordinate_past_double_range_exits_two(self, tmp_path, capsys, args, stop):
        """Once ``exp`` of a log-space coordinate overflows to inf or
        underflows to 0, the gradient is NaN or inf and the descent stops:
        exit 2, with one error line naming the step and the check, no
        warning and no traceback.  In the Gompertz run every data
        log-density is NaN from step 1 on; the NaN reaches the descent
        instead of a zero gradient that freezes theta."""
        rc = main(["fit", "--config", *args, "--T", "50", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: diverged at {stop}\n"

    def test_diverged_table_cell_is_named(self, tmp_path, capsys):
        """Exit 2 from the table names the first diverged cell's method,
        size and replication, in the order of ``table.csv``."""
        argv = ["table-compare", "--config", "paper-4.2-d2", "--eta0", "1e9", "--T", "5",
                "--replications", "3", "--out-dir", str(tmp_path)]
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            "error: diverged at step 1: candidate theta[0] = -1.91936e+08 is past "
            "PARAM_LIMIT = 1e+08 (sgd size 3, replication 1 of 3)\n")
        assert (tmp_path / "table.csv").exists()
        _, rows = read_csv(tmp_path / "table.csv")
        stops = check_record(tmp_path, argv, err, 3 * sum(int(row[4]) for row in rows))
        named = [re.search(r"\((\S+) size (\d+), replication (\d) of 3\)$", s) for s in stops]
        cells = [(row[0], row[1]) for row in rows]
        order = [(cells.index(m.group(1, 2)), int(m.group(3))) for m in named]
        assert order == sorted(order) and len(set(order)) == len(order) > 1

    def test_diverged_density_curve_fit_is_named(self, tmp_path, capsys):
        """Every diverged fit is a stop, named, in column order; the record counts
        ``n + m`` evaluations for each step a fit took before its stop."""
        argv = ["density-curves", "--eta0", "1e12", "--out-dir", str(tmp_path)] + FAST
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: diverged at step 1: candidate theta[")
        assert err.endswith(" is past PARAM_LIMIT = 1e+08 (pdf_beta_0.1 fit)\n")
        stops = json.loads((tmp_path / "run.json").read_text())["stops"]
        fits = [re.search(r"\((\S+) fit\)$", s).group(1) for s in stops]
        assert fits == ["pdf_beta_0.1", "pdf_beta_0.5", "pdf_beta_1"]
        steps = [int(re.match(r"diverged at step (\d+):", s).group(1)) - 1 for s in stops]
        check_record(tmp_path, argv, err, (200 + 10) * sum(steps))

    @pytest.mark.parametrize("args, start", [
        *(pytest.param([command, flag], STARTS[flag], id=f"{flag}-{command}")
          for flag in STARTS for command in ("fit", "trace")),
        pytest.param(["density-curves", "--truth=1e9,1"], STARTS["--truth=1e9,1"],
                     id="--truth=1e9,1-density-curves"),
        pytest.param(["fit", "--divergence", "gamma", "--init=1e9,1"],
                     STARTS["--init=1e9,1"] + ", 0.0", id="--init=1e9,1-fit-gamma"),
    ])
    def test_start_past_param_limit_exits_one(self, tmp_path, capsys, args, start):
        """Such a start passes the 1e50 magnitude bound but lies past the
        descent's 1e8 bound, so the first step could only be rejected: the
        run exits 1 naming the bound, before any output but ``config.echo``
        (and before a large sample's ``data.csv`` writer starts), instead of
        a silent 2."""
        rc = main([*args, "--T", "5", "--n", "50", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: initial parameters [{start}] lie past "
                                           "the descent's bound |theta| <= 1e+08\n")
        assert sorted(os.listdir(tmp_path)) == ["config.echo"]

    def test_truth_the_sampler_cannot_draw_exits_one(self, tmp_path, capsys):
        """numpy's wald sampler returns 0.0 at a huge mu / lam; the run says
        that its truth drew points outside the support, not that its data
        are bad."""
        rc = main(["fit", "--model", "inverse-normal", "--truth=1e20,1", "--T", "5",
                   "--n", "50", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: truth: ") and err.count("\n") == 1
        assert "outside the support" in err

    @pytest.mark.parametrize("model, name", [
        ("normal", "mle_normal"), ("inverse-normal", "mle_inverse_normal"),
        ("gompertz", "mle_gompertz"), ("mixture", "mle_mixture"),
        ("isonormal2", "mle_isonormal"),
    ])
    def test_mle_start_calls_its_family_initializer_once(self, tmp_path, monkeypatch,
                                                         model, name):
        """Through ``cli``'s global of that name, looked up at call time."""
        calls = []
        initializer = getattr(cli, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return initializer(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
        rc = main(["fit", "--model", model, "--T", "1", "--n", "200", "--xi", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert calls == [name]

    def test_family_without_mle_initializer_fails_loudly(self, monkeypatch):
        class Novel(type(cli.get_model("normal"))):
            name = "novel"

        run = cli.read_config(dict(DEFAULTS, n="20"), "fit")
        ds = cli._dataset(run)
        for name in ("mle_normal", "mle_inverse_normal", "mle_gompertz", "mle_mixture",
                     "mle_isonormal"):
            monkeypatch.setattr(cli, name, None)  # a fall-through would call None
        with pytest.raises(KeyError, match="novel"):
            cli._initial_theta(dataclasses.replace(run, model=Novel()), ds)

    @pytest.mark.filterwarnings("error")
    def test_gompertz_start_on_lifetime_scale_data_is_silent(self, tmp_path, capsys):
        """1,000 draws of Gompertz(0.01, 0.01), up to about 215: the MLE's
        profile derivative overflows toward its bracket's top, and nothing is said."""
        model = cli.get_model("gompertz")
        x = model.sample(model.from_natural_values((0.01, 0.01)), np.random.default_rng(0), 1000)
        Dataset(points=x, is_outlier=np.zeros(x.size, dtype=bool)).to_csv(tmp_path / "g.csv")
        rc = main(["fit", "--model", "gompertz", "--data", str(tmp_path / "g.csv"), "--T", "5",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("truth, message", [
        ("1e-10,1e-10", "Gompertz MLE: the rate at omega = 0.0001 is 0, not a finite number > 0; "
                        "give a start with --init"),
        ("1e10,1e-300", "truth: 44 of 44 gompertz draws fell outside the support or overflowed; "
                        "numpy's sampler fails at these parameters"),
    ])
    def test_gompertz_sample_that_no_start_fits_exits_one(self, tmp_path, capsys, truth,
                                                         message):
        """A rate that underflows to 0 at the MLE's shape, and truth draws that
        overflow at a huge omega / lam, each end in one line naming the cause."""
        rc = main(["fit", "--model", "gompertz", f"--truth={truth}", "--T", "3", "--n", "50",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["config.echo"]

    @pytest.mark.parametrize("raised, line", [
        (MemoryError(), "out of memory: the run's arrays do not fit"),
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "Unable to allocate 7.28 TiB for an array"),
    ])
    def test_memory_error_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch, raised,
                                                  line):
        """Never a real allocation: one that the host cannot meet may be granted
        and then killed."""
        def no_memory(*args):
            raise raised

        monkeypatch.setattr(cli, "sgd_run", no_memory)
        rc = main(["fit", "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert os.listdir(tmp_path) == ["config.echo"]

    def test_explicit_init(self, tmp_path):
        rc = main(["fit", "--model", "normal", "--init", "0.5,2.0",
                   "--out-dir", str(tmp_path), "--T", "0", "--n", "50"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "estimate.csv")
        assert float(rows[0][0]) == pytest.approx(0.5)
        assert float(rows[0][1]) == pytest.approx(2.0)


def check_eta_and_complexity(rows, schedule, cost):
    """Rows ``t = 0, 1, ...`` with ``eta = schedule.at(t)`` (0.0 at the
    start) and ``complexity = t * cost``."""
    assert [int(row[0]) for row in rows] == list(range(len(rows)))
    for t, row in enumerate(rows):
        assert float(row[1]) == (schedule.at(t) if t else 0.0)
        assert int(row[2]) == t * cost


class TestTrace:
    def test_eta_and_complexity_computed_from_t(self, tmp_path):
        argv = ["trace", "--config", "paper-4.1-i", "--T", "30", "--out-dir", str(tmp_path)]
        rc = main(argv)
        assert rc == 0
        _, rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 31
        check_eta_and_complexity(rows, StepDecay(1.0, 0.7, 25), 1010)
        check_record(tmp_path, argv, "", 30 * 1010)

    def test_diverged_run_stops_at_failed_step(self, tmp_path):
        rc = main(["fit", "--config", "paper-4.1-ii", "--eta0", "100", "--T", "50",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        _, rows = read_csv(tmp_path / "trace.csv")
        assert 1 < len(rows) < 51
        check_eta_and_complexity(rows, StepDecay(100.0, 0.7, 25), 1010)
        assert not (tmp_path / "estimate.csv").exists()

    def test_zero_steps_gives_initial_record_only(self, tmp_path):
        rc = main(["trace", "--model", "normal", "--T", "0", "--n", "100",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 1 and rows[0][0] == "0"

    def test_objective_column_empty_without_closed_form(self, tmp_path):
        rc = main(["trace", "--model", "gompertz", "--xi", "0.01",
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 0
        header, rows = read_csv(tmp_path / "trace.csv")
        col = header.index("objective_exact")
        assert all(row[col] == "" for row in rows)

    @pytest.mark.parametrize("divergence", ["dpd", "gamma"])
    def test_columns_recomputed_from_each_recorded_iterate(self, tmp_path, monkeypatch,
                                                           divergence):
        """``objective_exact``, ``scale_c`` and ``mse`` of every row, the
        initial state included, are those of that row's parameters."""
        results = []

        def sgd_run(*args, **kwargs):
            results.append(run_sgd(*args, **kwargs))
            return results[-1]

        run_sgd = cli.sgd_run
        monkeypatch.setattr(cli, "sgd_run", sgd_run)
        rc = main(["trace", "--config", "paper-4.1-i", "--divergence", divergence,
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 0
        header, rows = read_csv(tmp_path / "trace.csv")
        model = cli.get_model("normal")
        truth = model.from_natural_values([0.0, 1.0])
        points = Dataset.from_csv(tmp_path / "data.csv").points
        (result,) = results
        assert len(rows) == len(result.trace) == 41
        for row, params in zip(rows, result.trace):
            value = dict(zip(header, row))
            theta = np.array([float(value["theta_1"]), float(value["theta_2"])])
            np.testing.assert_array_equal(theta, params[:2])
            assert float(value["mse"]) == float(((theta - truth) ** 2).sum())
            if divergence == "gamma":
                objective = empirical_gce(model, theta, points, 0.5)
                assert float(value["scale_c"]) == float(np.exp(params[-1]))
            else:
                objective = empirical_dpce(model, theta, points, 0.5)
                assert value["scale_c"] == ""
            assert float(value["objective_exact"]) == float(objective)

    def test_gamma_trace_switches_no_error_state_per_step(self, tmp_path, monkeypatch):
        """What is fixed for a run is decided once: a gamma ``trace`` enters
        ``np.errstate`` from ``cli`` as often at 5 steps as at 50."""
        errstate, callers = np.errstate, []

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_filename)
            return errstate(*args, **kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        counts = []
        for T in (5, 50):
            callers.clear()
            assert main(["trace", "--config", "paper-4.1-i", "--divergence", "gamma", "--T",
                         str(T), "--out-dir", str(tmp_path / str(T))]) == 0
            counts.append(callers.count(cli.__file__))
        assert counts[0] == counts[1] > 0


class TestObjectiveColumn:
    """``objective_exact`` is the mean of the data weights of the step taken
    from each iterate; an iterate that starts no step is evaluated afresh.
    Either way every row holds the bytes of the objective recomputed from
    the data at that row's theta."""

    @pytest.mark.parametrize("args,rc", [
        (["trace", "--config", "paper-4.1-i"], 0),
        (["trace", "--config", "paper-4.1-i", "--divergence", "gamma"], 0),
        (["fit", "--model", "isonormal2"], 0),
        (["trace", "--config", "paper-4.1-i", "--divergence", "gamma", "--eta0", "1e6",
          "--T", "50"], 2),
    ], ids=["dpd", "gamma", "isonormal2", "gamma-diverged"])
    def test_every_row_is_the_objective_at_its_theta(self, tmp_path, args, rc):
        assert main(args + ["--out-dir", str(tmp_path)]) == rc
        cfg = dict(line.split(" = ", 1)
                   for line in (tmp_path / "config.echo").read_text().splitlines())
        model = cli.get_model(cfg["model"])
        points = Dataset.from_csv(tmp_path / "data.csv").points
        header, rows = read_csv(tmp_path / "trace.csv")
        names = [name for name in header if name.startswith("theta_")]
        for row in rows:
            value = dict(zip(header, row))
            theta = np.array([float(value[name]) for name in names])
            if cfg["divergence"] == "gamma":
                want = empirical_gce(model, theta, points, float(cfg["gamma"]))
            else:
                want = empirical_dpce(model, theta, points, float(cfg["beta"]))
            assert value["objective_exact"] == repr(float(want))
        if rc == 2:  # the last accepted iterate, at c = inf, started the failed step
            assert len(rows) == 2 and rows[-1][header.index("scale_c")] == "inf"


class TestDataPasses:
    """Points seen by ``Model.log_pdf`` and ``Model.log_pdf_and_score``."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []
        for name in ("log_pdf", "log_pdf_and_score"):
            def counted(model, theta, x, kernel=getattr(cli.Model, name)):
                seen.append(np.shape(x)[0])
                return kernel(model, theta, x)
            monkeypatch.setattr(cli.Model, name, counted)
        return seen

    @pytest.mark.parametrize("divergence", ["dpd", "gamma"])
    def test_closed_form_fit_evaluates_the_data_once_a_step(self, tmp_path, seen, divergence):
        """Each step's one kernel call sees the n data points and the m draws,
        and its data weights give the exact objective of the iterate it
        starts from; only the last iterate's objective evaluates the data."""
        n, m, T = 1000, 10, 20
        assert main(["fit", "--divergence", divergence, "--T", str(T),
                     "--out-dir", str(tmp_path)]) == 0
        assert sum(seen) == (T + 1) * n + T * m

    def test_run_without_closed_form_evaluates_the_data_once_a_step(self, tmp_path, seen):
        """No exact objective is recorded, so no pass is added or saved."""
        n, m, T = 1000, 10, 20
        assert main(["trace", "--config", "paper-4.1-ii", "--T", str(T),
                     "--out-dir", str(tmp_path)]) == 0
        assert sum(seen) == T * (n + m)

    @pytest.mark.parametrize("argv,descents", [(["fit"], 1), (["density-curves"], 3),
                                               (["fit", "--divergence", "gamma"], 1)])
    def test_each_descent_reads_its_data_once(self, tmp_path, monkeypatch, argv, descents):
        """``cli._sgd`` prepares the sample once: a descent reads its data once at any
        step count, and a DPD step joins no arrays (the gamma gradient appends its
        scale coordinate to theta's)."""
        reads, joins = [], []
        data_points, concatenate = gradients._data_points, np.concatenate

        def read(*args):
            reads.append(args)
            return data_points(*args)

        def join(*args, **kwargs):
            joins.append(args)
            return concatenate(*args, **kwargs)

        monkeypatch.setattr(gradients, "_data_points", read)
        monkeypatch.setattr(np, "concatenate", join)
        counts = []
        for T in (2, 20):
            reads.clear()
            joins.clear()
            assert main(argv + ["--T", str(T), "--out-dir", str(tmp_path / str(T))]) == 0
            counts.append((len(reads), len(joins)))
        assert counts[0][0] == counts[1][0] == descents
        if "gamma" not in argv:
            assert counts[0][1] == counts[1][1]


class TestCsvWriter:
    """``cli._write_csv`` writes a file as one ``\\r\\n``-joined string: the bytes of
    ``csv.writer``, since no field the commands write needs quoting."""

    @staticmethod
    def csv_writer_bytes(rows):
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        return text.getvalue().encode()

    def test_same_bytes_as_csv_writer(self, tmp_path):
        names = ["t", "eta", "complexity", "objective_exact", "scale_c", "mse", "objective",
                 "method", "size", "mean_mse", "sd_mse", "x", "hist_count", "pdf_mle"]
        for name in ("normal", "inverse-normal", "gompertz", "mixture", "isonormal3"):
            names += cli.get_model(name).natural_names
        names += [f"theta_{i}" for i in range(1, 6)]
        names += [f"pdf_beta_{b:g}" for b in (0.1, 0.5, 1.0, 1e-5, 1e-300, 10.0)]
        fields = [cli._fmt(v) for v in (None, np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                                         -1.7976931348623157e308, 0.1, 1e16, np.float64(2.5))]
        fields += [0, -7, 2**63, 10**40, "sgd", "gd-ni"]
        rows = [(fields * len(names))[i:i + len(names)] for i in range(len(fields))]
        run = dataclasses.replace(cli.read_config(dict(DEFAULTS), "fit"), out_dir=str(tmp_path))
        cli._write_csv(run, "out.csv", names, iter(rows))
        assert (tmp_path / "out.csv").read_bytes() == self.csv_writer_bytes([names, *rows])

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "mixture"], ["fit", "--divergence", "gamma"],
        ["fit", "--model", "isonormal2", "--init", "-0.0,1e7", "--eta0", "1e12"],
        ["density-curves", "--model", "gompertz", "--betas", "0.1,1e-300,10"],
        ["table-compare", "--model", "isonormal2", "--replications", "2", "--m-values", "3",
         "--big-m-values", "3"]])
    def test_every_command_writes_csv_writer_bytes(self, tmp_path, argv):
        """Each CSV a command writes, but ``data.csv`` (``Dataset.to_csv``), is what
        ``csv.writer`` writes for the fields ``csv.reader`` reads back from it."""
        assert main(argv + ["--T", "3", "--n", "40", "--out-dir", str(tmp_path)]) in (0, 2)
        written = sorted(p for p in tmp_path.glob("*.csv") if p.name != "data.csv")
        assert written
        for path in written:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert path.read_bytes() == self.csv_writer_bytes(rows)


class TestDataCsvWriter:
    """A sample of more than ``cli._THREADED_CSV_ROWS`` rows is written on a
    worker thread while the descent runs; the run joins it before any other
    output and before ``main`` returns."""

    LARGE = ["--n", str(_THREADED_CSV_ROWS + 1), "--T", "2"]

    @pytest.fixture
    def writers(self, monkeypatch):
        """The thread of each ``Dataset.to_csv`` call."""
        writers, to_csv = [], Dataset.to_csv

        def recorded(ds, path):
            writers.append(threading.current_thread())
            return to_csv(ds, path)
        monkeypatch.setattr(Dataset, "to_csv", recorded)
        return writers

    @pytest.mark.parametrize("command", ["fit", "density-curves"])
    @pytest.mark.parametrize("n, worker", [(_THREADED_CSV_ROWS, False),
                                           (_THREADED_CSV_ROWS + 1, True)])
    def test_a_large_sample_is_written_on_a_worker(self, tmp_path, writers, command, n,
                                                   worker):
        rc = main([command, "--n", str(n), "--T", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert [w is not threading.main_thread() for w in writers] == [worker]

    @pytest.mark.parametrize("command", ["fit", "trace", "density-curves"])
    @pytest.mark.parametrize("n", ["50", str(_THREADED_CSV_ROWS + 1)])
    def test_unwritable_data_csv_exits_one_before_other_outputs(self, tmp_path, capsys,
                                                                 command, n):
        (tmp_path / "data.csv").mkdir()
        rc = main([command, "--n", n, "--T", "2", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "data.csv" in err
        assert sorted(os.listdir(tmp_path)) == ["config.echo", "data.csv"]

    @pytest.mark.parametrize("command", ["fit", "trace", "density-curves"])
    @pytest.mark.parametrize("code, extra", [(0, []), (2, ["--eta0", "1e12"]), (1, None)],
                             ids=["exit-0", "exit-2", "exit-1"])
    def test_no_thread_outlives_main(self, tmp_path, capsys, writers, command, code, extra):
        if extra is None:  # the worker starts, and fails
            (tmp_path / "data.csv").mkdir()
        before = set(threading.enumerate())
        rc = main([command, *self.LARGE, *(extra or []), "--out-dir", str(tmp_path)])
        assert rc == code, capsys.readouterr().err
        assert not set(threading.enumerate()) - before
        assert len(writers) == 1 and writers[0] is not threading.main_thread()
        assert not writers[0].is_alive()


class TestConfigHandling:
    def test_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 50\nbeta = 0.25  # inline comment\n")
        out = tmp_path / "out"
        rc = main(["fit", "--model", "normal", "--config", str(cfg),
                   "--n", "80", "--T", "10", "--out-dir", str(out)])
        assert rc == 0
        echoed = dict(
            line.split(" = ")
            for line in (out / "config.echo").read_text().splitlines()
        )
        assert echoed["n"] == "80"        # flag wins
        assert echoed["beta"] == "0.25"   # file beats default

    def test_one_parser_keeps_no_flag_between_runs(self, tmp_path):
        """A flag of one ``main`` run does not carry into the next."""
        for n, args in (("80", ["--n", "80"]), (cli.DEFAULTS["n"], [])):
            out = tmp_path / n
            assert main(["fit", "--T", "3", "--out-dir", str(out), *args]) == 0
            assert f"n = {n}\n" in (out / "config.echo").read_text()

    @pytest.mark.parametrize("args,message", [
        (["fit", "--m", "0"], "m must be >= 1"),
        (["fit", "--divergence", "gamma", "--gamma", "0"], "gamma must be > 0"),
        (["density-curves", "--m", "0"], "m must be >= 1"),
        (["fit", "--replications", "0"], "replications must be >= 1"),
        (["fit", "--beta=1e308"], "beta must be <= 10"),
        (["fit", "--beta=10.000001"], "beta must be <= 10"),
        (["fit", "--divergence", "gamma", "--gamma=1e308"], "gamma must be <= 10"),
        (["density-curves", "--betas=0.5,1e308"], "betas must be <= 10"),
        (["trace", "--outlier-sd=1e308"],
         "outlier_sd (the outlier spread) must lie in [0, 1e+50], got 1e+308"),
        (["fit", "--truth=0,1e200"],
         "truth: sigma must be finite and > 0, at most 1e+50, got 1e+200"),
        (["fit", "--init=0,1e200"],
         "init: sigma must be finite and > 0, at most 1e+50, got 1e+200"),
        (["fit", "--model", "mixture", "--truth=-5,1e200,0,1,0.6"],
         "truth: sigma must be finite and > 0, at most 1e+50, got 1e+200"),
        (["fit", "--truth=0,-1"], "truth: sigma must be finite and > 0"),
        (["fit", "--model", "mixture", "--init=-5,1,0,1,1.5"],
         "init: mixing weight must lie strictly inside (0, 1)"),
        (["fit", "--model", "inverse-normal", "--truth=-1,3"],
         "truth: inverse-normal parameters must be positive, "
         "got InverseNormalParams(mu=-1.0, lam=3.0)"),
        (["fit", "--model", "gompertz", "--init=1,-2"],
         "init: gompertz parameters must be positive, got GompertzParams(omega=1.0, lam=-2.0)"),
        (["fit", "--xi=1.5"], "xi must be < 1, got '1.5'"),
        (["fit", "--xi=-0.1"], "xi must be >= 0, got '-0.1'"),
        (["fit", "--decay-rate=2"], "decay_rate must be < 1, got '2'"),
        (["fit", "--decay-rate=0"], "decay_rate must be > 0, got '0'"),
        (["fit", "--decay-period=0"], "decay_period must be >= 1, got '0'"),
        (["fit", "--grid-extent=-1"], "grid_extent must be > 0, got '-1'"),
        (["fit", "--data=no-such-file.csv"], "data 'no-such-file.csv' is not a readable file"),
        (["fit", "--data=."], "data '.' is not a readable file"),
        (["fit", "--truth=1e200,1"], "truth must be finite, in [-1e+50, 1e+50], got 1e+200,1.0"),
        (["fit", "--init=1e200,1"], "init must be finite, in [-1e+50, 1e+50], got 1e+200,1.0"),
        (["fit", "--outlier-mean=1e300"],
         "outlier_mean (the outlier centre) must lie in [-1e+50, 1e+50], got [1e+300]"),
        (["fit", "--outlier-mean=1e100"],
         "outlier_mean (the outlier centre) must lie in [-1e+50, 1e+50], got [1e+100]"),
        (["fit", "--proposal=normal:0,1e200"],
         "fixed normal proposal needs a finite sd > 0, at most 1e+50, got 1e+200"),
        (["fit", "--proposal=normal:1e308,1"],
         "fixed normal proposal needs a finite mean in [-1e+50, 1e+50], got [1e+308]"),
        (["table-compare", "--config", "paper-4.2-d2", "--replications", "2", "--T", "3",
          "--grid-extent", "1e200"], "grid_extent must be <= 1e+50, got '1e200'"),
        (["table-compare", "--config", "paper-4.2-d2", "--replications", "2", "--T", "3",
          "--grid-extent", "1e308"], "grid_extent must be <= 1e+50, got '1e308'"),
        (["table-compare", "--model", "isonormal7", "--grid-extent", "1e50", "--big-m-values",
          "2", "--m-values", "3", "--n", "60", "--replications", "2", "--T", "3"],
         "grid_extent 1e50 gives isonormal7 grids of 2 nodes a weight past the double range"),
        (["table-compare", "--config", "paper-4.2-d2", "--replications", "2", "--T", "3",
          "--eta0=1e308"], "eta0 must be <= 1e+50, got '1e308'"),
        (["fit", "--eta0=1e308", "--T", "3"], "eta0 must be <= 1e+50, got '1e308'"),
        (["fit", "--big-m-values=1"], "big_m_values must be >= 2, got '1'"),
        (["fit", "--big-m-values=0"], "big_m_values must be >= 2, got '0'"),
        (["fit", "--big-m-values=-1"], "big_m_values must be >= 2, got '-1'"),
        (["table-compare", "--config", "paper-4.2-d2", "--big-m-values=3,1"],
         "big_m_values must be >= 2, got '1'"),
        (["table-compare", "--model", "normal"], "table-compare requires an isonormal<d> model"),
        (["table-compare", "--config", "paper-4.2-d2", "--T", "0"],
         "T must be >= 1 for table-compare"),
        (["density-curves", "--model", "isonormal2"],
         "density-curves requires a univariate model"),
        (["fit", "--betas=0.5,0.5"], "betas 0.5 and 0.5 both name column pdf_beta_0.5"),
        (["fit", "--divergence", "foo"], "divergence must be dpd or gamma, got 'foo'"),
        (["fit", "--n", "abc"], "n must be an integer, got 'abc'"),
        (["fit", "--seed", "1.5"], "seed must be an integer, got '1.5'"),
        (["fit", "--truth", "1,2,3"], "truth for normal needs 2 values"),
        (["fit", "--proposal", "normal:1"], "proposal normal:<mean...>,<sd> needs mean and sd"),
        (["fit", "--proposal", "foo"], "unknown proposal 'foo'"),
        (["table-compare", "--config", "paper-4.2-d2", "--m-values=,", "--big-m-values=,", "--T",
          "2"], "big_m_values must list at least one value, got ','"),
        (["table-compare", "--config", "paper-4.2-d2", "--big-m-values="],
         "big_m_values must list at least one value, got ''"),
        (["table-compare", "--config", "paper-4.2-d2", "--m-values=,"],
         "m_values must list at least one value, got ','"),
        (["density-curves", "--betas=,"], "betas must list at least one value, got ','"),
        (["fit", "--outlier-mean="], "outlier_mean must list at least one value, got ''"),
        (["fit", "--proposal=normal:"], "proposal must list at least one value, got ''"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_bad_value_exits_one_before_anything_is_written(self, tmp_path, capsys,
                                                            args, message):
        """Every key, and then the subcommand's rules, are checked before the
        output directory is created.  The case's own flags follow ``FAST``."""
        out = tmp_path / "out"
        rc = main(args[:1] + FAST + args[1:] + ["--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("lines,message", [
        (["n = 50", "beta 0.5"], "run.cfg:2: expected 'key = value'"),
        (["", "# comment only", "fixed_outlier_count = maybe"],
         "fixed_outlier_count must be true/false, got 'maybe'"),
    ])
    def test_bad_config_file_exits_one_before_anything_is_written(self, tmp_path, capsys,
                                                                  lines, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["fit", "--config", str(cfg), "--out-dir", str(out)] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [["fit", "--out-dir", "out", "--bogus"],
                                      ["fit", "--out-dir", "out", "--T"], [],
                                      ["fits", "--out-dir", "out"],
                                      ["--out-dir", "out", "fit"]],
                             ids=["unknown flag", "flag without value", "no subcommand",
                                  "unknown subcommand", "flag before the subcommand"])
    def test_unparsable_command_line_exits_one_before_anything_is_written(self, tmp_path,
                                                                         capsys, args):
        """The parser's own errors take ``main``'s exit-1 path too."""
        with _inside(tmp_path):
            rc = main(args)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [["-h"], ["--help"], ["fit", "--help"],
                                      ["table-compare", "--T", "3", "-h", "--bogus"]])
    def test_help_prints_the_usage_and_exits_zero(self, tmp_path, capsys, args):
        """``-h``/``--help`` where a subcommand or a flag stands: ``main`` prints
        the module text and every flag to stdout and returns 0, writing nothing."""
        with _inside(tmp_path):
            assert main(args) == 0
        out, err = capsys.readouterr()
        assert out.startswith(cli.__doc__) and err == ""
        assert out.split()[-len(cli._FLAGS):] == list(cli._FLAGS)
        assert os.listdir(tmp_path) == []

    def test_help_after_a_flag_is_its_value(self, tmp_path, capsys):
        rc = main(["fit", "--init", "-h", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: init must be a number, got '-h'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("truth", "-5,1,0,1,0.6"), ("init", "-5,1,0,1,0.6"),
                                           ("outlier_mean", "-1")])
    def test_value_after_a_flag_may_start_with_a_dash(self, tmp_path, key, value):
        """``--key v``, ``--key=v`` and the config line ``key = v`` run alike."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        echoes = []
        for i, args in enumerate([[flag, value], [f"{flag}={value}"], ["--config", str(cfg)]]):
            (tmp_path / str(i)).mkdir()
            with _inside(tmp_path / str(i)):
                assert main(["fit", "--model", "mixture", "--T", "2", "--n", "50",
                             "--out-dir", "out", *args]) == 0
            echoes.append((tmp_path / str(i) / "out" / "config.echo").read_bytes())
        assert echoes[0] == echoes[1] == echoes[2]
        assert f"{key} = {value}\n".encode() in echoes[0]

    def test_flag_value_is_stripped_as_a_config_value_is(self, tmp_path):
        """So ``config.echo``, read back as a config file, names the same run."""
        with _inside(tmp_path):
            assert main(["fit", "--T", "1", "--n", "50", "--model", " normal ",
                         "--out-dir", " out "]) == 0
        assert os.listdir(tmp_path) == ["out"]
        echo = (tmp_path / "out" / "config.echo").read_text()
        assert "model = normal\n" in echo and "out_dir = out\n" in echo

    def test_empty_out_dir_exits_one_naming_it(self, tmp_path, capsys):
        with _inside(tmp_path):
            rc = main(["fit", "--out-dir="] + FAST)
        assert rc == 1
        assert capsys.readouterr().err == "error: out_dir must name a directory, got ''\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [["--see", "3"], ["--fixed"], ["--gri", "3"],
                                      ["--big-m", "4"], ["--fixed-outlier-count"]])
    def test_flag_that_is_no_whole_key_and_value_exits_one(self, tmp_path, capsys, args):
        """A config file takes whole keys only, and so does the command line:
        no prefix of a flag is read as the flag, and every flag takes a value."""
        out = tmp_path / "out"
        rc = main(["fit", *args, "--T", "1", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["false", "true"])
    def test_fixed_outlier_count_flag_takes_a_value(self, tmp_path, value):
        """So a flag can undo the ``true`` of the paper-4.2 presets."""
        rc = main(["fit", "--config", "paper-4.2-d2", "--fixed-outlier-count", value, "--T", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert f"fixed_outlier_count = {value}\n" in (tmp_path / "config.echo").read_text()

    def test_readme_lists_every_flag_of_every_subcommand(self):
        """README's ``Flags (any subcommand)`` sentence, in the order of the flag
        table that every subcommand reads, ``--config`` and then ``DEFAULTS``."""
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            listed = re.search(r"Flags \(any subcommand\): `([^`]*)`", fh.read()).group(1).split()
        assert listed == list(cli._FLAGS)
        assert list(cli._FLAGS.values()) == ["config", *DEFAULTS]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_missing_config_rejected(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path)]) == 1

    def test_presets_resolve(self, tmp_path):
        rc = main(["trace", "--config", "paper-4.1-i", "--T", "5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        echoed = (tmp_path / "config.echo").read_text()
        assert "xi = 0.1" in echoed
        assert all(name.startswith("paper-4") for name in PRESETS)

    # SHA-256 of repr(sorted(resolve_config(...).items())) for each preset.  First
    # recorded from the literal preset dicts that the two recipes replaced; then,
    # when big_m folded into big_m_values, re-derived from those recorded dicts
    # with big_m dropped and an empty big_m_values set to big_m's value
    RESOLVED = {
        "paper-4.1-i": "80381870cea36f05b4f4e755d6dfea72136648e100b7e8cf1fb7cbc6c81bc82b",
        "paper-4.1-ii": "feab8a29078eea500a1c0e3d856f4e573706949ebb99334dbd4e45c128fdb2a3",
        "paper-4.1-iii": "7af745099f4765db5a59c4b14905980693285bfd529e857d95968f830c151aa6",
        "paper-4.1-iv": "53a0ee83f8258b1604c317f7a5e2c06accd33dc0a02e8eb64aa332e09988738b",
        "paper-4.2-d2": "ac21aea281dda146f7aa1c5ad2531a858593ab5550795fc73365148fd68ea18f",
        "paper-4.2-d3": "05e18bf048b0d02aa4c87b94690dd44c3c0ace0d7475323ed6bedd0e137f7012",
        "paper-4.2-d4": "827b0d27a68a40793b57c12adf61511b59e39aa3859f06f0adadbd16776081a9",
    }

    @pytest.mark.parametrize("name", sorted(RESOLVED))
    def test_preset_resolves_to_its_recorded_configuration(self, name):
        assert sorted(PRESETS) == sorted(self.RESOLVED)
        _, flags = cli._read_command_line(["fit", "--config", name])
        resolved = repr(sorted(cli.resolve_config(flags).items()))
        assert hashlib.sha256(resolved.encode()).hexdigest() == self.RESOLVED[name]

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["fit", "--model", "mixture", "--xi", "0.01", "--T", "30",
                  "--n", "300", "--seed", "11", "--out-dir", str(out)])
            outs.append((out / "trace.csv").read_bytes()
                        + (out / "estimate.csv").read_bytes()
                        + (out / "data.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_one_experiment_in_two_directories_records_one_digest(self, tmp_path):
        """``config_sha256`` leaves out where a run reads and writes: one preset run
        into two directories, then fit again from each one's ``data.csv``, records one
        digest a command, and ``run.json`` the same bytes."""
        records = {}
        for sub in ("a", "b"):
            out = tmp_path / sub
            argv = ["trace", "--config", "paper-4.1-i", "--T", "5", "--out-dir", str(out)]
            assert main(argv) == 0
            check_record(out, argv, "", 5 * 1010)
            again = ["fit", "--config", "paper-4.1-i", "--T", "5", "--data",
                     str(out / "data.csv"), "--out-dir", str(out / "again")]
            assert main(again) == 0
            check_record(out / "again", again, "", 5 * 1010)
            records[sub] = [(out / "run.json").read_bytes(),
                            (out / "again" / "run.json").read_bytes()]
        assert records["a"] == records["b"]
        assert records["a"][0] != records["a"][1]  # trace and fit


def _job_key(run, method, size, rep):
    """``(method, size, rep)`` of a table job, its size as ``table.csv`` writes it."""
    return method, size if method == "sgd" else size.total_points(run.model), rep


def _recorded_cells(tmp_path, monkeypatch):
    """Patches ``cli._table_cell_run`` to append its process id and job to a file
    under ``tmp_path``, which forked workers share; returns a reader of the file,
    ``[(pid, (method, size, rep)), ...]``."""
    path, cell_run = tmp_path / "cells", cli._table_cell_run

    def cell(run, method, size, rep, *rest):
        with open(path, "a") as fh:
            fh.write("{} {} {} {}\n".format(os.getpid(), *_job_key(run, method, size, rep)))
        return cell_run(run, method, size, rep, *rest)

    def read():
        lines = (line.split() for line in path.read_text().splitlines())
        return [(int(pid), (method, int(size), int(rep))) for pid, method, size, rep in lines]

    monkeypatch.setattr(cli, "_table_cell_run", cell)
    return read


class TestTableCompare:
    def test_structure_and_complexity(self, tmp_path):
        argv = ["table-compare", "--model", "isonormal2", "--T", "20",
                "--n", "100", "--replications", "3",
                "--m-values", "5", "--big-m-values", "3",
                "--truth", "0.5,0.5", "--outlier-mean", "100.5,100.5",
                "--outlier-sd", "0.1", "--xi", "0.01",
                "--decay-period", "20", "--out-dir", str(tmp_path)]
        rc = main(argv)
        assert rc == 0
        header, rows = read_csv(tmp_path / "table.csv")
        assert header == ["method", "size", "mean_mse", "sd_mse", "complexity"]
        assert rows[0][:2] == ["sgd", "5"] and rows[0][4] == str(20 * 105)
        assert rows[1][:2] == ["gd-ni", "9"] and rows[1][4] == str(20 * 109)
        assert float(rows[0][2]) >= 0.0
        check_record(tmp_path, argv, "", 3 * (20 * 105 + 20 * 109))

    def test_rejects_data(self, tmp_path, capsys):
        """table-compare draws one sample per replication; it reads no CSV."""
        path = tmp_path / "input.csv"
        path.write_text("x_1,x_2\n0.5,0.5\n")
        rc = main(["table-compare", "--config", "paper-4.2-d2", "--data", str(path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--data" in err and err.count("\n") == 1
        assert not (tmp_path / "out" / "table.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--T", "0", "T must be >= 1 for table-compare"),
        ("--grid-extent", "nan", "grid_extent must be finite"),
        ("--grid-extent", "0", "grid_extent must be > 0, got '0'"),
        ("--beta", "-1", "beta must be > 0"),
        ("--m-values", "0", "m_values must be >= 1"),
        ("--eta0", "0", "eta0 must be finite and > 0"),
        ("--decay-rate", "2", "decay_rate must be < 1, got '2'"),
    ])
    def test_bad_value_exits_one_before_any_cell_runs(self, tmp_path, capsys,
                                                      monkeypatch, flag, value, message):
        def cell(*args):
            raise AssertionError("a table cell ran")

        monkeypatch.setattr(cli, "_table_cell_run", cell)
        rc = main(["table-compare", "--config", "paper-4.2-d2", "--replications", "2",
                   f"{flag}={value}", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "table.csv").exists()

    def test_requires_isonormal(self, tmp_path):
        rc = main(["table-compare", "--model", "normal",
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_single_value_flags_define_cells(self, tmp_path):
        rc = main(["table-compare", "--model", "isonormal2", "--T", "10",
                   "--n", "60", "--replications", "2", "--m", "4",
                   "--big-m-values", "3", "--truth", "0.5,0.5",
                   "--outlier-mean", "100.5,100.5", "--outlier-sd", "0.1",
                   "--xi", "0.01", "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "table.csv")
        assert [r[:2] for r in rows] == [["sgd", "4"], ["gd-ni", "9"]]

    @pytest.mark.parametrize("flags, cells", [
        (["--m", "4"], [["sgd", "4"], ["gd-ni", "9"], ["gd-ni", "100"], ["gd-ni", "2500"]]),
        (["--big-m-values", "4"], [["sgd", "3"], ["sgd", "10"], ["sgd", "50"], ["gd-ni", "16"]]),
        (["--m", "4", "--m-values", "5,6", "--big-m-values", "4"],
         [["sgd", "5"], ["sgd", "6"], ["gd-ni", "16"]]),
        (["--m-values="], [["sgd", "10"], ["gd-ni", "9"], ["gd-ni", "100"], ["gd-ni", "2500"]]),
    ])
    def test_single_value_flag_beats_the_preset_list(self, tmp_path, flags, cells):
        rc = main(["table-compare", "--config", "paper-4.2-d2", "--T", "2", "--n", "60",
                   "--replications", "2", "--out-dir", str(tmp_path)] + flags)
        assert rc == 0
        _, rows = read_csv(tmp_path / "table.csv")
        assert [r[:2] for r in rows] == cells

    @pytest.mark.parametrize("cpus, reps, width", [(1, 4, None), (3, 4, 3), (3, 1, 2),
                                                   (16, 5, 8)])
    def test_pool_no_wider_than_the_usable_cpus(self, tmp_path, monkeypatch, cpus, reps,
                                                width):
        """Width ``min(8, jobs, CPUs)``, the jobs being 2 cells times ``reps``; at one
        CPU there is no pool and every cell runs in this process."""
        widths, cells = [], _recorded_cells(tmp_path, monkeypatch)

        class Pool(process.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(process, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        rc = main(["table-compare", "--config", "paper-4.2-d2", "--T", "3", "--n", "60",
                   "--replications", str(reps), "--m-values", "4", "--big-m-values", "3",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert widths == ([width] if width else [])
        pids = [pid for pid, _ in cells()]
        assert len(pids) == 2 * reps
        if width:
            assert os.getpid() not in pids and len(set(pids)) <= width
        else:
            assert set(pids) == {os.getpid()}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("flags", [
        ["--n", "60", "--m-values", "4", "--big-m-values", "200,3"],
        ["--n", "60", "--m-values", "4", "--big-m-values", "3"],
        # the cells on both sides of BLOCK points a step: no size rule picks the pooled ones
        ["--n", str(BLOCK - 4), "--m-values", "3,4", "--big-m-values", "3"],
    ])
    def test_every_cell_runs_on_a_worker_longest_first(self, tmp_path, monkeypatch, flags):
        """At two CPUs every job goes on the pool, submitted by ``n + size`` from the
        longest, ties in the order of the table's rows and then replications."""
        submitted, cells = [], _recorded_cells(tmp_path, monkeypatch)

        class Pool(process.ProcessPoolExecutor):
            def submit(self, fn, run, method, size, rep, *rest):
                submitted.append(_job_key(run, method, size, rep))
                return super().submit(fn, run, method, size, rep, *rest)

        monkeypatch.setattr(process, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rc = main(["table-compare", "--config", "paper-4.2-d2", "--T", "3", "--replications", "3",
                   "--out-dir", str(tmp_path / "out")] + flags)
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "table.csv")
        jobs = [(method, int(size), rep) for method, size, *_ in rows for rep in range(3)]
        assert submitted == sorted(jobs, key=lambda job: -job[1])  # a stable sort
        ran = cells()
        assert os.getpid() not in {pid for pid, _ in ran}
        assert sorted(job for _, job in ran) == sorted(jobs)
        assert multiprocessing.active_children() == []

    def test_each_cell_reads_its_sample_once(self, tmp_path, monkeypatch):
        """A cell prepares its sample in the process that runs it: at any step count the
        500-point sample is read once for each of the 3 ``sgd`` and 3 ``gd-ni`` cells
        (the lattice nodes, points of their own, are read once a step)."""
        reads, data_points = [], gradients._data_points

        def read(data, *args):
            reads.append(len(getattr(data, "points", data)))
            return data_points(data, *args)

        monkeypatch.setattr(gradients, "_data_points", read)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        counts = []
        for T in (2, 20):
            reads.clear()
            assert main(["table-compare", "--config", "paper-4.2-d2", "--replications", "1",
                         "--T", str(T), "--out-dir", str(tmp_path / str(T))]) == 0
            counts.append(reads.count(500))
        assert counts == [6, 6]

    def test_pooled_table_is_the_same_on_one_cpu_and_three(self, tmp_path, monkeypatch):
        tables = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = tmp_path / str(cpus)
            rc = main(["table-compare", "--config", "paper-4.2-d2", "--T", "3", "--n", "60",
                       "--replications", "3", "--m-values", "4,10", "--big-m-values", "3,200",
                       "--out-dir", str(out)])
            assert rc == 0
            tables.append((out / "table.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("flag", ["--init=9,9", "--proposal=normal:0.5,1"])
    def test_cells_take_init_and_proposal(self, tmp_path, monkeypatch, flag):
        """On two CPUs, so that the workers get the ``Run`` of each flag pickled."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["table-compare", "--config", "paper-4.2-d2", "--T", "5", "--n", "60",
                "--replications", "2", "--m-values", "4", "--big-m-values", "3"]
        assert main(args + ["--out-dir", str(tmp_path / "default")]) == 0
        assert main(args + [flag, "--out-dir", str(tmp_path / "flag")]) == 0
        default, changed = ((tmp_path / d / "table.csv").read_text()
                            for d in ("default", "flag"))
        if flag.startswith("--init"):
            assert default.splitlines()[1:] != changed.splitlines()[1:]
        else:  # only the sgd rows draw from the proposal
            assert default.splitlines()[1] != changed.splitlines()[1]
            assert default.splitlines()[2] == changed.splitlines()[2]

    @pytest.mark.parametrize("raised, line", [
        (MemoryError(), "out of memory: the run's arrays do not fit"),
        (ValueError("a cell's own message"), "a cell's own message"),
    ])
    def test_error_in_a_pooled_cell_exits_one_with_one_line(self, tmp_path, capsys,
                                                            monkeypatch, raised, line):
        """The error of a worker's cell reaches ``main`` with its message, and no
        worker outlives ``main``."""
        pids = tmp_path / "pids"

        def failing(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise raised

        monkeypatch.setattr(cli, "lattice_grad_dpd", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "out"
        rc = main(["table-compare", "--config", "paper-4.2-d2", "--T", "3", "--n", "60",
                   "--replications", "2", "--m-values", "4", "--big-m-values", "200",
                   "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert os.listdir(out) == ["config.echo"]
        ran = {int(pid) for pid in pids.read_text().split()}
        assert ran and os.getpid() not in ran
        assert multiprocessing.active_children() == []

    def test_killed_worker_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch):
        """A worker that ends without a result, here by SIGKILL as the kernel's
        out-of-memory killer sends it, makes exit 1, not a traceback."""
        parent = os.getpid()

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("a lattice cell ran in the test's own process")

        monkeypatch.setattr(cli, "lattice_grad_dpd", killed)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rc = main(["table-compare", "--config", "paper-4.2-d2", "--T", "3", "--n", "60",
                   "--replications", "2", "--m-values", "4", "--big-m-values", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: a table worker ended without a result\n"
        assert os.listdir(tmp_path) == ["config.echo"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["table-compare", "density-curves"])
    def test_dpd_commands_reject_gamma(self, tmp_path, capsys, command):
        rc = main([command, "--config", "paper-4.2-d2" if command == "table-compare"
                   else "paper-4.1-i", "--divergence", "gamma",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {command} fits the DPD; it takes no --divergence gamma\n"
        assert not (tmp_path / "data.csv").exists()


class TestProposals:
    def test_fixed_normal_proposal_runs(self, tmp_path):
        rc = main(["fit", "--model", "normal", "--proposal", "normal:0,2",
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 0

    def test_support_mismatch_exits_one(self, tmp_path):
        rc = main(["fit", "--model", "gompertz", "--xi", "0.01",
                   "--proposal", "normal:0,2", "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1

    @pytest.mark.parametrize("spec", ["normal:0,0", "normal:0,-1", "normal:0,nan",
                                      "normal:nan,1"])
    def test_invalid_fixed_normal_exits_one(self, tmp_path, capsys, spec):
        rc = main(["fit", "--model", "normal", "--proposal", spec,
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fixed normal proposal") and err.count("\n") == 1

    def test_malformed_proposal_exits_one(self, tmp_path):
        rc = main(["fit", "--model", "normal", "--proposal", "bogus",
                   "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1


class TestDensityCurves:
    def test_grid_and_density_columns(self, tmp_path):
        argv = ["density-curves", "--model", "normal", "--n", "400",
                "--T", "60", "--betas", "0.1,0.5", "--seed", "2",
                "--out-dir", str(tmp_path)]
        rc = main(argv)
        assert rc == 0
        check_record(tmp_path, argv, "", 2 * 60 * (400 + 10))  # two fits of T steps
        header, rows = read_csv(tmp_path / "curves.csv")
        assert header == ["x", "hist_count", "pdf_mle", "pdf_beta_0.1",
                          "pdf_beta_0.5"]
        assert len(rows) == 512
        xs = np.array([float(r[0]) for r in rows])
        data = Dataset.from_csv(tmp_path / "data.csv").points
        assert xs[0] == pytest.approx(data.min() - 1.0)
        assert xs[-1] == pytest.approx(data.max() + 1.0)
        counts = np.array([int(r[1]) for r in rows])
        assert counts.sum() == 400
        for col in (2, 3, 4):
            pdf = np.array([float(r[col]) for r in rows])
            assert np.all(pdf >= 0)
            assert np.trapezoid(pdf, xs) <= 1.0 + 1e-2

    def test_rejects_multivariate_model(self, tmp_path):
        rc = main(["density-curves", "--model", "isonormal2",
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("betas,named", [("0.1,0.1000001,0.5", ("0.1", "0.1000001")),
                                             ("0.5,0.5", ("0.5", "0.5"))])
    def test_betas_naming_one_column_exit_one_before_any_fit(self, tmp_path, capsys,
                                                             monkeypatch, betas, named):
        def fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(cli, "_sgd", fit)
        rc = main(["density-curves", "--betas", betas, "--out-dir", str(tmp_path)] + FAST)
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: betas {named[0]} and {named[1]} both name column "
                       f"pdf_beta_{named[0]}\n")
        assert not (tmp_path / "curves.csv").exists()

    def test_failed_mle_start_leaves_only_the_config_echo(self, tmp_path, capsys):
        """As with ``fit``: ``data.csv`` is written with ``curves.csv``, after the fits."""
        rc = main(["density-curves", "--n", "1", "--T", "3", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: need 2 or more observations, got 1\n"
        assert sorted(os.listdir(tmp_path)) == ["config.echo"]

    def test_gompertz_curves_suppress_outlier_bump(self, tmp_path):
        """The robust curve puts less mass at the outlier location than
        the MLE curve."""
        rc = main(["density-curves", "--config", "paper-4.1-iii",
                   "--betas", "0.5", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        xs = np.array([float(r[0]) for r in rows])
        at_ten = int(np.argmin(np.abs(xs - 10.0)))
        mle = float(rows[at_ten][header.index("pdf_mle")])
        robust = float(rows[at_ten][header.index("pdf_beta_0.5")])
        assert robust < mle


class TestCleanDataConsistency:
    def test_fit_recovers_truth_without_contamination(self, tmp_path):
        rc = main(["fit", "--model", "normal", "--xi", "0", "--beta", "0.5",
                   "--n", "1000", "--seed", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "estimate.csv")
        assert float(rows[0][header.index("mu")]) == pytest.approx(0.0, abs=0.1)
        assert float(rows[0][header.index("sigma")]) == pytest.approx(1.0, abs=0.1)


def _python(*args, cwd=None):
    """``python *args`` in a fresh interpreter that imports this checkout's dpdfit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpdfit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        """dpdfit imports no scipy; only the tests do.  Nor does it load
        argparse: the command line is read by the config file's rules."""
        code = ("import sys, dpdfit.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "print('argparse' in sys.modules)")
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]", "False"]

    def test_cli_import_does_not_load_multiprocessing(self):
        """``table-compare`` imports its process pool when it makes one: the
        import would add about a tenth to ``import dpdfit.cli``.  Likewise
        ``main`` imports ``json`` and ``hashlib`` only to write ``run.json``, and
        the CSVs are written without ``csv``."""
        code = ("import sys, dpdfit.cli; print(sorted(m for m in sys.modules if m in "
                "('multiprocessing', 'concurrent.futures.process', 'json', 'hashlib', 'csv')))")
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]


class TestEntryPoint:
    def test_module_runs_as_a_program(self, tmp_path):
        """``python -m dpdfit.cli``, which calls ``entry``, the console script's target."""
        shown = _python("-m", "dpdfit.cli", "--help", cwd=tmp_path)
        assert shown.returncode == 0 and shown.stderr == ""
        assert shown.stdout.startswith(cli.__doc__)
        bare = _python("-m", "dpdfit.cli", cwd=tmp_path)
        assert bare.returncode == 1 and bare.stdout == ""
        assert bare.stderr.startswith("error: ") and bare.stderr.count("\n") == 1
        assert os.listdir(tmp_path) == []
        fit = _python("-m", "dpdfit.cli", "fit", "--init", "-0.5,1", "--T", "2", "--n", "50",
                      "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
        assert fit.returncode == 0 and fit.stdout == fit.stderr == ""
        assert "init = -0.5,1\n" in (tmp_path / "out" / "config.echo").read_text()


@contextlib.contextmanager
def _inside(path):
    """Run with ``path`` as the working directory."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


# edge values of every kind a flag reads: numbers at and past the double
# range, empty and malformed text, lists, valid names of other keys, and a
# few ordinary values, so that some runs get as far as the descent
EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "", "abc", "1,2",
               "0,0,0", "-1,nan", "1,,2", "normal:0,1", "normal:nan,1", "current", "mle",
               "isonormal2", "gompertz", "mixture", "gamma", "true",
               "0.5", "2", "0.5,0.5", "-5,1,0,1,0.6"]

# a value of one of these keys may be reported under the other
ALIASES = {"m": ("m", "m_values"), "m_values": ("m", "m_values")}
# the exits 1 that only the drawn sample decides, after config.echo is written:
# the MLE start fails, or the start lies past the descent's bound
SAMPLE_DEPENDENT = re.compile(r"error: (need \d+ or more observations|zero-variance sample|"
                              r"inverse normal requires|degenerate sample|Gompertz |"
                              r"all-zero sample|every EM restart collapsed|initial parameters \[)")


def _names(line, key):
    """Whether ``line`` names ``key``, an alias of it, or the flag of either."""
    return any(re.search(rf"\b{k}\b", line) or "--" + k.replace("_", "-") in line
               for k in ALIASES.get(key, (key,)))


def _contained_run(argv, out):
    """``main(argv)`` in a fresh working directory, every warning an error:
    checks that it exits 0, 1 or 2 with one ``error:`` line on stderr, or none
    on exit 0, and returns the code, those lines and the sorted files of
    ``out`` (None when no such directory was made)."""
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, _inside(tmp),
          contextlib.redirect_stderr(err), warnings.catch_warnings()):
        warnings.simplefilter("error")
        rc = main(argv)
        written = sorted(os.listdir(out)) if out and os.path.isdir(out) else None
    assert rc in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return rc, lines, written


# truth values from far below to far above the families' usual scales
TRUTH_VALUES = ["1e-300", "1e-30", "1e-10", "1e-3", "1", "1e3", "1e10", "1e30", "1e49"]


_TRUTHS_RUN = []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from(["gompertz", "inverse-normal"]),
       truth=st.tuples(st.sampled_from(TRUTH_VALUES), st.sampled_from(TRUTH_VALUES)))
def _every_truth_exits_zero_one_or_two(model, truth):
    _TRUTHS_RUN.append((model, truth))
    _contained_run(["fit", "--model", model, "--truth=" + ",".join(truth), "--T", "3",
                    "--n", "50", "--out-dir", "out"], "out")


class TestInputContract:
    """Whatever the flags, a run exits 0, 1 or 2 and raises or warns nothing
    (every warning is an error here); exits 1 and 2 print exactly one
    stderr line, and exit 0 prints nothing to stderr.  An exit 1 names a
    drawn key (``n`` or one of ``values``) and leaves no ``--out-dir``,
    unless the sample decides it (``SAMPLE_DEPENDENT``): then the directory
    holds ``config.echo`` alone."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(["fit", "trace", "table-compare", "density-curves"]),
           n=st.integers(1, 50),
           values=st.dictionaries(st.sampled_from(sorted(DEFAULTS)), st.sampled_from(EDGE_VALUES),
                                  min_size=1, max_size=2))
    def test_every_input_exits_zero_one_or_two(self, command, n, values):
        argv = [command, "--T", "3", "--n", str(n), "--out-dir", "out"]
        if command == "table-compare":
            argv += ["--model", "isonormal2", "--replications", "2"]
        for key, value in values.items():
            argv.append(f"--{key.replace('_', '-')}={value}")
        rc, lines, written = _contained_run(argv, values.get("out_dir", "out"))
        if rc == 1 and SAMPLE_DEPENDENT.match(lines[0]):
            assert written == ["config.echo"], (argv, lines, written)
        elif rc == 1:
            assert any(_names(lines[0], key) for key in ["n", *values]), (argv, lines)
            assert written is None, (argv, lines, written)

    def test_every_positive_family_truth_exits_zero_one_or_two(self):
        """Draws that overflow, MLE starts whose derivative or rate overflows,
        and kernels that overflow in a diverging descent all end in their one
        line, or in none, without a warning; hypothesis runs every pair."""
        _TRUTHS_RUN.clear()
        _every_truth_exits_zero_one_or_two()
        assert len(set(_TRUTHS_RUN)) == 2 * len(TRUTH_VALUES) ** 2


def _resolved(argv, config_lines=()):
    """``main(argv)`` up to its subcommand, which is stubbed out, in a fresh working
    directory that holds ``config_lines`` as ``run.cfg``: the exit code, the stderr
    lines and each ``config.echo`` written, by path."""
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, _inside(tmp), contextlib.redirect_stderr(err),
          mock.patch.object(cli, "cmd_fit", lambda run: ([], 0))):
        with open("run.cfg", "w") as fh:
            fh.writelines(line + "\n" for line in config_lines)
        rc = main(argv)
        echoes = {path: open(path).read() for path in glob.glob("**/config.echo", recursive=True)}
    return rc, err.getvalue().splitlines(), echoes


_FORMS_RUN = []


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(DEFAULTS)), value=st.sampled_from(EDGE_VALUES),
       repeated=st.booleans())
def _three_forms_read_alike(key, value, repeated):
    _FORMS_RUN.append((key, value, repeated))
    # a repeated key is first set to the edge value listed before ``value``
    values = [EDGE_VALUES[EDGE_VALUES.index(value) - 1], value] if repeated else [value]
    flag = "--" + key.replace("_", "-")
    out = [] if key == "out_dir" else ["--out-dir", "out"]
    in_file = _resolved(["fit", *out, "--config", "run.cfg"], [f"{key} = {v}" for v in values])
    pairs = _resolved(["fit", *out, *itertools.chain.from_iterable((flag, v) for v in values)])
    joined = _resolved(["fit", *out, *(f"{flag}={v}" for v in values)])
    assert pairs == in_file and joined == in_file, (key, values, in_file, pairs, joined)


class TestOneReader:
    def test_config_line_flag_pair_and_joined_flag_read_alike(self):
        """For every key and edge value, the config line ``key = v``, the flag
        pair ``--key v`` and the flag ``--key=v`` give the same ``config.echo``,
        or the same one exit-1 line; so do two of each, the last value winning.
        Hypothesis runs every key, value and repetition."""
        _FORMS_RUN.clear()
        _three_forms_read_alike()
        assert len(set(_FORMS_RUN)) == 2 * len(DEFAULTS) * len(EDGE_VALUES)
