"""Command-line harness for robust density-power fitting experiments.

Subcommands
-----------
fit             fit one model to synthetic or CSV data, write estimate + trace
trace           per-iteration monitoring run (exact objective, scale, MSE)
table-compare   stochastic descent vs numerical-integration descent grid
density-curves  gridded density of the MLE and each robust fit, for plotting

Every run writes ``config.echo`` with the fully resolved configuration.
Configuration precedence: command-line flags > ``--config`` file or
named preset > built-in defaults.  Config files are plain
``key = value`` lines; ``--config`` also accepts one of the named
presets listed in ``PRESETS``.

Exit codes: 0 success, 1 configuration or I/O error, 2 numerical
divergence.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .datagen import ContaminationSpec, Dataset, contaminated_sample
from .divergence import ClosedForm, Lattice, empirical_dpce, empirical_gce
from .gradients import CurrentModel, FixedNormal, lattice_grad_dpd, stochastic_grad_dpd, stochastic_grad_gamma
from .mle import mle_gompertz, mle_inverse_normal, mle_isonormal, mle_mixture, mle_normal
from .models import IsoNormal, get_model
from .optim import Monitors, StepDecay, gd_run, sgd_run


class ConfigError(Exception):
    pass


DEFAULTS = {
    "model": "normal",
    "divergence": "dpd",
    "beta": "0.5",
    "gamma": "0.5",
    "m": "10",
    "big_m": "10",
    "grid_extent": "2.0",
    "T": "500",
    "eta0": "1.0",
    "decay_rate": "0.7",
    "decay_period": "25",
    "n": "1000",
    "xi": "0.1",
    "outlier_mean": "10.0",
    "outlier_sd": "1.0",
    "seed": "0",
    "replications": "10",
    "fixed_outlier_count": "false",
    "proposal": "current",
    "init": "mle",
    "truth": "",
    "betas": "0.1,0.5,1.0",
    "m_values": "",      # table-compare cells; falls back to m
    "big_m_values": "",  # table-compare cells; falls back to big_m
    "data": "",
    "out_dir": ".",
}

# Benchmark presets: the four scalar-model settings and the d-variate
# comparison grids.  Outliers are N(10, 1) for the scalar settings and
# an isotropic cloud at truth + 100 with spread 0.1 for the d-variate
# ones, whose datasets carry an exact outlier count.
PRESETS = {
    "paper-4.1-i": {
        "model": "normal", "truth": "0,1", "n": "1000", "xi": "0.1",
        "outlier_mean": "10.0", "outlier_sd": "1.0",
        "T": "500", "eta0": "1.0", "decay_rate": "0.7", "decay_period": "25",
        "beta": "0.5", "gamma": "0.5", "m": "10",
    },
    "paper-4.1-ii": {
        "model": "inverse-normal", "truth": "1,3", "n": "1000", "xi": "0.1",
        "outlier_mean": "10.0", "outlier_sd": "1.0",
        "T": "1000", "eta0": "1.0", "decay_rate": "0.7", "decay_period": "25",
        "beta": "0.5", "m": "10",
    },
    "paper-4.1-iii": {
        "model": "gompertz", "truth": "1,0.1", "n": "1000", "xi": "0.01",
        "outlier_mean": "10.0", "outlier_sd": "1.0",
        "T": "1000", "eta0": "0.5", "decay_rate": "0.7", "decay_period": "25",
        "beta": "0.5", "m": "10",
    },
    "paper-4.1-iv": {
        "model": "mixture", "truth": "-5,1,0,1,0.6", "n": "1000", "xi": "0.01",
        "outlier_mean": "10.0", "outlier_sd": "1.0",
        "T": "1000", "eta0": "1.0", "decay_rate": "0.7", "decay_period": "25",
        "beta": "0.5", "m": "10",
    },
    "paper-4.2-d2": {
        "model": "isonormal2", "truth": "0.5,0.5", "n": "500", "xi": "0.01",
        "outlier_mean": "100.5,100.5", "outlier_sd": "0.1",
        "fixed_outlier_count": "true",
        "T": "300", "eta0": "1.0", "decay_rate": "0.7", "decay_period": "20",
        "beta": "0.5", "m": "10", "grid_extent": "2.0",
        "m_values": "3,10,50", "big_m_values": "3,10,50", "replications": "10",
    },
    "paper-4.2-d3": {
        "model": "isonormal3", "truth": "0.5,0.5,0.5", "n": "500", "xi": "0.01",
        "outlier_mean": "100.5,100.5,100.5", "outlier_sd": "0.1",
        "fixed_outlier_count": "true",
        "T": "300", "eta0": "1.0", "decay_rate": "0.7", "decay_period": "20",
        "beta": "0.5", "m": "10", "grid_extent": "2.0",
        "m_values": "3,10,50", "big_m_values": "3,10,50", "replications": "10",
    },
    "paper-4.2-d4": {
        "model": "isonormal4", "truth": "0.5,0.5,0.5,0.5", "n": "500", "xi": "0.01",
        "outlier_mean": "100.5,100.5,100.5,100.5", "outlier_sd": "0.1",
        "fixed_outlier_count": "true",
        "T": "300", "eta0": "1.0", "decay_rate": "0.7", "decay_period": "20",
        "beta": "0.5", "m": "10", "grid_extent": "2.0",
        "m_values": "10", "big_m_values": "3", "replications": "10",
    },
}

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    """One ``--key`` flag per ``DEFAULTS`` key (``_`` written ``-``), in
    ``DEFAULTS`` order, for every subcommand."""
    parser = _Parser(prog="dpdfit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "trace", "table-compare", "density-curves"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="config file path or preset name")
        for key in DEFAULTS:
            flag = "--" + key.replace("_", "-")
            if key == "divergence":
                p.add_argument(flag, choices=["dpd", "gamma"], default=None)
            elif key == "fixed_outlier_count":
                p.add_argument(flag, action="store_const", const="true", default=None)
            else:
                p.add_argument(flag, default=None)
    return parser


def _read_config_file(path):
    if path in PRESETS:
        return dict(PRESETS[path])
    if not os.path.exists(path):
        raise ConfigError(f"config {path!r} is neither a file nor a preset")
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def resolve_config(args):
    """Merge defaults, config file / preset, and explicit flags."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(_read_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    return cfg


def _as_float(cfg, key):
    try:
        value = float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    return value


def _as_int(cfg, key):
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from None


def _as_bool(cfg, key):
    v = cfg[key].strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true/false, got {cfg[key]!r}")


def _float_list(text, key, finite=True):
    """Comma-separated numbers, all finite unless ``finite=False``."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated numbers") from None
    if finite and not all(map(math.isfinite, values)):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return values


def _int_list(text, key):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers") from None


def _theta_from_naturals(model, values, key):
    """Unconstrained coordinates from a flat list of natural parameters."""
    if len(values) != len(model.natural_names):
        raise ConfigError(
            f"{key} for {model.name} needs {len(model.natural_names)} values"
        )
    theta = model.from_natural_values(values)  # names an invalid scale or weight
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key} must be finite, got {','.join(map(repr, values))}")
    return theta


def _truth_theta(cfg, model):
    """Unconstrained true parameters, or None when fitting foreign data."""
    if cfg["data"]:
        return None
    text = cfg["truth"]
    values = _float_list(text, "truth") if text else model.default_truth
    return _theta_from_naturals(model, values, "truth")


def _check_point_shape(model, shape, source, shared=False):
    """ConfigError unless ``shape`` is that of one point of ``model`` or,
    with ``shared``, one value for every coordinate."""
    if shape == model.point_shape or (shared and shape == (1,)):
        return
    need = f"1 or {model.dim_x}" if shared and model.dim_x > 1 else f"{model.dim_x}"
    raise ConfigError(f"{source} has {math.prod(shape)} value(s) per point, "
                      f"but {model.name} needs {need}")


def _dataset(cfg, model, truth, *stream):
    """The ``--data`` CSV, or a contaminated sample drawn from
    ``default_rng([seed, *stream, 0])``."""
    if cfg["data"]:
        ds = Dataset.from_csv(cfg["data"])
        _check_point_shape(model, ds.points.shape[1:], cfg["data"])
        return ds
    outlier_mean = np.asarray(_float_list(cfg["outlier_mean"], "outlier_mean"))
    _check_point_shape(model, outlier_mean.shape, "--outlier-mean", shared=True)
    spec = ContaminationSpec(
        model=model,
        truth=truth,
        outlier_mean=outlier_mean,
        outlier_sd=_as_float(cfg, "outlier_sd"),
        xi=_as_float(cfg, "xi"),
        n=_as_int(cfg, "n"),
        fixed_count=_as_bool(cfg, "fixed_outlier_count"),
    )
    rng = np.random.default_rng([_as_int(cfg, "seed"), *stream, 0])
    return contaminated_sample(spec, rng)


def _initial_theta(cfg, model, ds):
    choice = cfg["init"]
    if choice != "mle":
        # from_natural checks the values and names the parameter at fault
        return _theta_from_naturals(model, _float_list(choice, "init", finite=False), "init")
    if isinstance(model, IsoNormal):
        return mle_isonormal(ds)
    if model.name == "normal":
        return mle_normal(ds)
    if model.name == "inverse-normal":
        return mle_inverse_normal(ds)
    if model.name == "gompertz":
        return mle_gompertz(ds)
    if model.name == "mixture":
        return mle_mixture(ds, rng=np.random.default_rng([_as_int(cfg, "seed"), 2]))
    raise ConfigError(f"no MLE initializer for {model.name}")


def _proposal(cfg, model):
    text = cfg["proposal"].strip()
    if text == "current":
        return CurrentModel()
    if text.startswith("normal:"):
        # FixedNormal checks the values and names them
        parts = _float_list(text[len("normal:"):], "proposal", finite=False)
        if len(parts) < 2:
            raise ConfigError("proposal normal:<mean...>,<sd> needs mean and sd")
        mean = np.asarray(parts[:-1])
        _check_point_shape(model, mean.shape, "--proposal normal: mean", shared=True)
        return FixedNormal(mean=mean, sd=parts[-1])
    raise ConfigError(f"unknown proposal {cfg['proposal']!r}")


def _schedule(cfg):
    return StepDecay(
        eta0=_as_float(cfg, "eta0"),
        rate=_as_float(cfg, "decay_rate"),
        period=_as_int(cfg, "decay_period"),
    )


def _dpd_sgd(cfg, model, ds, theta0, beta, m, proposal, *stream, monitors=None):
    """Stochastic DPD descent from ``theta0`` with ``m`` proposal draws a
    step, on the stream ``default_rng([seed, *stream, 1])``, at a cost of
    ``n + m`` density evaluations a step."""

    def grad(th, rng):
        return stochastic_grad_dpd(model, th, ds.points, beta, m, proposal, rng).g

    rng = np.random.default_rng([_as_int(cfg, "seed"), *stream, 1])
    return sgd_run(grad, theta0, _schedule(cfg), _as_int(cfg, "T"), rng,
                   monitors=monitors, cost_per_iter=ds.n + m)


def _monitors(cfg, model, ds, truth, gamma_mode):
    objective = None
    if model.closed_form_r is not None:
        backend = ClosedForm()
        if gamma_mode:
            gamma = _as_float(cfg, "gamma")

            def objective(psi):
                return empirical_gce(model, psi[:-1], ds.points, gamma, backend)

        else:
            beta = _as_float(cfg, "beta")

            def objective(th):
                return empirical_dpce(model, th, ds.points, beta, backend).value

    theta_star = None if truth is None else np.asarray(truth, dtype=float)
    return Monitors(objective=objective, theta_star=theta_star,
                    track_scale=gamma_mode)


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _write_config_echo(cfg, out_dir):
    with open(os.path.join(out_dir, "config.echo"), "w") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")


def _write_trace(path, model, result):
    s = model.dim_param
    names = [f"theta_{i + 1}" for i in range(s)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eta", "complexity"] + names
                        + ["objective_exact", "scale_c", "mse"])
        for rec in result.trace:
            theta = rec.params[:s]
            writer.writerow(
                [rec.t, _fmt(rec.eta), rec.complexity]
                + [_fmt(v) for v in theta]
                + [_fmt(rec.objective), _fmt(rec.scale_c), _fmt(rec.mse)]
            )


def _write_estimate(path, model, result, gamma_mode):
    final = result.final_record
    theta = final.params[: model.dim_param]
    header = list(model.natural_names)
    row = [_fmt(v) for v in model.natural_values(theta)]
    if gamma_mode:
        header.append("scale_c")
        row.append(_fmt(final.scale_c))
    header += ["objective", "complexity"]
    row += [_fmt(final.objective), str(final.complexity)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(row)


def cmd_fit(cfg, write_estimate=True):
    """One stochastic run, written as ``data.csv`` (synthetic data only),
    ``estimate.csv`` and ``trace.csv``; ``trace`` skips ``estimate.csv``."""
    model = get_model(cfg["model"])
    truth = _truth_theta(cfg, model)
    ds = _dataset(cfg, model, truth)
    theta0 = _initial_theta(cfg, model, ds)
    proposal = _proposal(cfg, model)
    gamma_mode = cfg["divergence"] == "gamma"
    m = _as_int(cfg, "m")
    if m < 1:
        raise ConfigError("m must be >= 1")
    n_steps = _as_int(cfg, "T")
    if n_steps < 0:
        raise ConfigError("T must be >= 0")
    monitors = _monitors(cfg, model, ds, truth, gamma_mode)

    if gamma_mode:
        gamma = _as_float(cfg, "gamma")
        if gamma <= 0:
            raise ConfigError("gamma must be positive")

        def grad(psi, rng):
            return stochastic_grad_gamma(
                model, psi[:-1], float(np.exp(psi[-1])), ds.points, gamma, m,
                proposal, rng,
            ).g

        start = np.concatenate([theta0, [0.0]])  # scale starts at c = 1
        result = sgd_run(grad, start, _schedule(cfg), n_steps,
                         np.random.default_rng([_as_int(cfg, "seed"), 1]),
                         monitors=monitors, cost_per_iter=ds.n + m)
    else:
        beta = _as_float(cfg, "beta")
        if beta <= 0:
            raise ConfigError("beta must be positive")
        result = _dpd_sgd(cfg, model, ds, theta0, beta, m, proposal, monitors=monitors)

    out_dir = cfg["out_dir"]
    if not cfg["data"]:
        ds.to_csv(os.path.join(out_dir, "data.csv"))
    if write_estimate:
        _write_estimate(os.path.join(out_dir, "estimate.csv"), model, result, gamma_mode)
    _write_trace(os.path.join(out_dir, "trace.csv"), model, result)
    return 2 if result.diverged else 0


def _table_cell_run(cfg, model, truth, lattices, method, size, rep):
    """One replication of one table cell; returns (mse, diverged).
    ``lattices`` maps each ``gd-ni`` size to its quadrature grid."""
    ds = _dataset(cfg, model, truth, rep)
    theta0 = mle_isonormal(ds)
    beta = _as_float(cfg, "beta")
    monitors = Monitors(theta_star=np.asarray(truth, dtype=float))

    if method == "sgd":
        result = _dpd_sgd(cfg, model, ds, theta0, beta, size, CurrentModel(), rep,
                          monitors=monitors)
    else:
        schedule = _schedule(cfg)
        n_steps = _as_int(cfg, "T")
        backend = lattices[size]
        omega = float(np.mean([schedule.at(t) for t in range(1, n_steps + 1)]))

        def grad(th):
            return lattice_grad_dpd(model, th, ds.points, beta, backend)

        result = gd_run(grad, theta0, omega, n_steps, monitors=monitors,
                        cost_per_iter=ds.n + backend.total_points(model))
    return result.final_record.mse, result.diverged


def cmd_table_compare(cfg):
    if cfg["data"]:
        raise ConfigError("table-compare draws its own samples; it takes no --data")
    model = get_model(cfg["model"])
    if not isinstance(model, IsoNormal):
        raise ConfigError("table-compare requires an isonormal<d> model")
    truth = _truth_theta(cfg, model)
    reps = _as_int(cfg, "replications")
    if reps < 1:
        raise ConfigError("replications must be >= 1")
    n_steps = _as_int(cfg, "T")
    if n_steps < 1:
        raise ConfigError("T must be >= 1 for table-compare")
    n = _as_int(cfg, "n")

    m_values = _int_list(cfg["m_values"] or cfg["m"], "m_values")
    big_m_values = _int_list(cfg["big_m_values"] or cfg["big_m"], "big_m_values")
    cells = [("sgd", m) for m in m_values]
    cells += [("gd-ni", mm) for mm in big_m_values]
    extent = _as_float(cfg, "grid_extent")
    lattices = {mm: Lattice(extent=extent, nodes=mm) for mm in big_m_values}

    jobs = [(method, size, rep) for method, size in cells for rep in range(reps)]
    with ThreadPoolExecutor(max_workers=min(8, reps)) as pool:
        outcomes = list(
            pool.map(lambda job: _table_cell_run(cfg, model, truth, lattices, *job), jobs)
        )

    any_diverged = False
    with open(os.path.join(cfg["out_dir"], "table.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "size", "mean_mse", "sd_mse", "complexity"])
        for i, (method, size) in enumerate(cells):
            chunk = outcomes[i * reps:(i + 1) * reps]
            mses = np.array([c[0] for c in chunk])
            any_diverged = any_diverged or any(c[1] for c in chunk)
            if method == "sgd":
                size_out, complexity = size, n_steps * (n + size)
            else:
                total = size ** model.d
                size_out, complexity = total, n_steps * (n + total)
            sd = mses.std(ddof=1) if reps > 1 else 0.0
            writer.writerow([method, size_out, _fmt(mses.mean()), _fmt(sd),
                             complexity])
    return 2 if any_diverged else 0


def cmd_density_curves(cfg):
    out_dir = cfg["out_dir"]
    model = get_model(cfg["model"])
    if model.dim_x != 1:
        raise ConfigError("density-curves requires a univariate model")
    truth = _truth_theta(cfg, model)
    ds = _dataset(cfg, model, truth)
    if not cfg["data"]:
        ds.to_csv(os.path.join(out_dir, "data.csv"))
    theta_mle = _initial_theta(cfg, model, ds)
    proposal = _proposal(cfg, model)
    m = _as_int(cfg, "m")

    fits = {}
    diverged = False
    for beta in _float_list(cfg["betas"], "betas"):
        if beta <= 0:
            raise ConfigError("betas must be positive")
        result = _dpd_sgd(cfg, model, ds, theta_mle, beta, m, proposal)
        fits[beta] = result.final_params
        diverged = diverged or result.diverged

    grid = np.linspace(ds.points.min() - 1.0, ds.points.max() + 1.0, 512)
    counts = np.histogram(ds.points, bins=grid)[0]
    columns = {"pdf_mle": np.exp(model.log_pdf(theta_mle, grid))}
    for beta, theta in fits.items():
        columns[f"pdf_beta_{beta:g}"] = np.exp(model.log_pdf(theta, grid))

    with open(os.path.join(out_dir, "curves.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "hist_count"] + list(columns))
        for i, x in enumerate(grid):
            count = int(counts[i]) if i < counts.size else 0
            writer.writerow([_fmt(x), count] + [_fmt(c[i]) for c in columns.values()])
    return 2 if diverged else 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        command = {
            "fit": cmd_fit,
            "trace": lambda cfg: cmd_fit(cfg, write_estimate=False),
            "table-compare": cmd_table_compare,
            "density-curves": cmd_density_curves,
        }[args.command]
        os.makedirs(cfg["out_dir"], exist_ok=True)
        _write_config_echo(cfg, cfg["out_dir"])
        return command(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
