"""Command-line harness for robust density-power fitting experiments.

Subcommands
-----------
fit             fit one model to synthetic or CSV data, write estimate + trace
trace           fit without estimate.csv; trace.csv holds every iterate
table-compare   stochastic descent vs numerical-integration descent grid
density-curves  gridded density of the MLE and each robust fit, for plotting

Configuration precedence: command-line flags > ``--config`` file or
named preset > built-in defaults.  Config files are plain ``key = value``
lines; ``--config`` also accepts one of the ``PRESETS``.  ``read_config``
checks the resolved configuration before anything is written; every run
then writes it to ``config.echo``.

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
from dataclasses import dataclass

import numpy as np

from .datagen import ContaminationSpec, Dataset, contaminated_sample
from .divergence import ClosedForm, Lattice, empirical_dpce, empirical_gce
from .gradients import CurrentModel, FixedNormal, lattice_grad_dpd, stochastic_grad_dpd, stochastic_grad_gamma
from .mle import mle_gompertz, mle_inverse_normal, mle_isonormal, mle_mixture, mle_normal
from .models import IsoNormal, Model, get_model
from .optim import StepDecay, gd_run, sgd_run


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
            if key == "fixed_outlier_count":
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


def _number(text, key, kind=float, above=None, finite=True):
    """``text`` as one ``kind``: finite unless ``finite=False``, and
    greater than ``above`` when that is given."""
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {text!r}") from None
    if finite and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    if above is not None and value <= above:
        bound = f">= {above + 1}" if kind is int else f"> {above}"
        raise ConfigError(f"{key} must be {bound}, got {text!r}")
    return value


def _numbers(text, key, kind=float, above=None, finite=True):
    """Comma-separated :func:`_number` values; empty items are skipped."""
    return [_number(v, key, kind, above, finite) for v in text.split(",") if v.strip()]


def _as_bool(text, key):
    v = text.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true/false, got {text!r}")


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


def _check_point_shape(model, shape, source, shared=False):
    """ConfigError unless ``shape`` is that of one point of ``model`` or,
    with ``shared``, one value for every coordinate."""
    if shape == model.point_shape or (shared and shape == (1,)):
        return
    need = f"1 or {model.dim_x}" if shared and model.dim_x > 1 else f"{model.dim_x}"
    raise ConfigError(f"{source} has {math.prod(shape)} value(s) per point, "
                      f"but {model.name} needs {need}")


def _proposal(text, model):
    text = text.strip()
    if text == "current":
        return CurrentModel()
    if text.startswith("normal:"):
        # FixedNormal checks the values and names them
        parts = _numbers(text[len("normal:"):], "proposal", finite=False)
        if len(parts) < 2:
            raise ConfigError("proposal normal:<mean...>,<sd> needs mean and sd")
        mean = np.asarray(parts[:-1])
        _check_point_shape(model, mean.shape, "--proposal normal: mean", shared=True)
        if model.support != "real":  # else found only at the first descent step
            raise ConfigError("fixed normal proposal does not cover the support "
                              f"of {model.name}")
        return FixedNormal(mean=mean, sd=parts[-1])
    raise ConfigError(f"unknown proposal {text!r}")


@dataclass(frozen=True)
class Run:
    """A resolved configuration, every value typed and checked.  ``truth``
    and ``spec`` are None with ``--data``, ``init`` None for the MLE start;
    ``lattices`` holds the grid of each ``big_m_values`` size, in order."""

    model: Model
    truth: np.ndarray | None
    spec: ContaminationSpec | None
    init: np.ndarray | None
    proposal: CurrentModel | FixedNormal
    schedule: StepDecay
    beta: float
    gamma: float
    m: int
    T: int
    n: int
    seed: int
    replications: int
    betas: list
    m_values: list
    lattices: tuple
    gamma_mode: bool
    data: str
    out_dir: str


def read_config(cfg):
    """The :class:`Run` of a resolved configuration: every key is read and
    checked whatever the subcommand, but ``--data`` leaves the synthetic-data
    keys (``truth``, ``xi``, ``outlier_*``, ``fixed_outlier_count``) unread."""

    def num(key, kind=float, above=None):
        return _number(cfg[key], key, kind, above)

    model = get_model(cfg["model"])
    if cfg["divergence"] not in ("dpd", "gamma"):
        raise ConfigError(f"divergence must be dpd or gamma, got {cfg['divergence']!r}")
    n = num("n", int, above=0)
    truth = spec = init = None
    if not cfg["data"]:
        values = _numbers(cfg["truth"], "truth") if cfg["truth"] else model.default_truth
        truth = _theta_from_naturals(model, values, "truth")
        outlier_mean = np.asarray(_numbers(cfg["outlier_mean"], "outlier_mean"))
        _check_point_shape(model, outlier_mean.shape, "--outlier-mean", shared=True)
        spec = ContaminationSpec(
            model=model, truth=truth, outlier_mean=outlier_mean,
            outlier_sd=num("outlier_sd"), xi=num("xi"), n=n,
            fixed_count=_as_bool(cfg["fixed_outlier_count"], "fixed_outlier_count"),
        )
    if cfg["init"] != "mle":
        # from_natural checks the values and names the parameter at fault
        values = _numbers(cfg["init"], "init", finite=False)
        init = _theta_from_naturals(model, values, "init")
    extent = num("grid_extent")
    big_m_values = _numbers(cfg["big_m_values"] or cfg["big_m"], "big_m_values", int)
    return Run(
        model=model, truth=truth, spec=spec, init=init,
        proposal=_proposal(cfg["proposal"], model),
        schedule=StepDecay(eta0=num("eta0"), rate=num("decay_rate"),
                           period=num("decay_period", int)),
        beta=num("beta", above=0),
        gamma=num("gamma", above=0),
        m=num("m", int, above=0),
        T=num("T", int, above=-1),
        n=n,
        seed=num("seed", int, above=-1),
        replications=num("replications", int, above=0),
        betas=_numbers(cfg["betas"], "betas", above=0),
        m_values=_numbers(cfg["m_values"] or cfg["m"], "m_values", int, above=0),
        lattices=tuple(Lattice(extent=extent, nodes=mm) for mm in big_m_values),
        gamma_mode=cfg["divergence"] == "gamma",
        data=cfg["data"],
        out_dir=cfg["out_dir"],
    )


def _dataset(run, *stream):
    """The ``--data`` CSV, or a contaminated sample drawn from
    ``default_rng([seed, *stream, 0])``."""
    if run.data:
        ds = Dataset.from_csv(run.data)
        _check_point_shape(run.model, ds.points.shape[1:], run.data)
        return ds
    return contaminated_sample(run.spec, np.random.default_rng([run.seed, *stream, 0]))


def _initial_theta(run, ds):
    model = run.model
    if run.init is not None:
        return run.init
    if isinstance(model, IsoNormal):
        return mle_isonormal(ds)
    if model.name == "normal":
        return mle_normal(ds)
    if model.name == "inverse-normal":
        return mle_inverse_normal(ds)
    if model.name == "gompertz":
        return mle_gompertz(ds)
    if model.name == "mixture":
        return mle_mixture(ds, rng=np.random.default_rng([run.seed, 2]))
    raise ConfigError(f"no MLE initializer for {model.name}")


def _sgd(run, grad, theta0, *stream):
    """Descent on ``default_rng([seed, *stream, 1])``."""
    rng = np.random.default_rng([run.seed, *stream, 1])
    return sgd_run(grad, theta0, run.schedule, run.T, rng)


def _dpd_sgd(run, ds, theta0, beta, m, *stream):
    """Stochastic DPD descent with ``m`` draws a step from ``run.proposal``."""
    def grad(th, rng):
        return stochastic_grad_dpd(run.model, th, ds.points, beta, m, run.proposal, rng).g
    return _sgd(run, grad, theta0, *stream)


def _mse(run, params):
    """``||theta - truth||^2`` over the truth's coordinates; None without a truth."""
    if run.truth is None:
        return None
    return float(((params[:len(run.truth)] - run.truth) ** 2).sum())


def _iterate_columns(run, ds, params):
    """The ``objective_exact``, ``scale_c`` and ``mse`` of one recorded
    iterate, each None where it does not apply: the exact objective needs
    a closed-form family, the scale a gamma run and the MSE a known truth."""
    model, objective = run.model, None
    if model.closed_form_r is not None and run.gamma_mode:
        objective = empirical_gce(model, params[:-1], ds.points, run.gamma, ClosedForm())
    elif model.closed_form_r is not None:
        objective = empirical_dpce(model, params, ds.points, run.beta, ClosedForm()).value
    scale = None
    if run.gamma_mode:
        with np.errstate(over="ignore"):  # a diverged run may end at c = inf
            scale = float(np.exp(params[-1]))
    return objective, scale, _mse(run, params)


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _write_config_echo(cfg, out_dir):
    with open(os.path.join(out_dir, "config.echo"), "w") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")


def _write_trace(path, run, trace, columns, cost):
    """One row per iterate ``t``: the step size that reached it (0.0 for
    the start), ``t * cost`` density evaluations, its coordinates and its
    :func:`_iterate_columns`."""
    s = run.model.dim_param
    names = [f"theta_{i + 1}" for i in range(s)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eta", "complexity"] + names
                        + ["objective_exact", "scale_c", "mse"])
        for t, (theta, values) in enumerate(zip(trace, columns)):
            eta = run.schedule.at(t) if t else 0.0
            writer.writerow([t, _fmt(eta), t * cost]
                            + [_fmt(v) for v in theta[:s]]
                            + [_fmt(v) for v in values])


def _write_estimate(path, model, final, columns, complexity, gamma_mode):
    """The ``final`` iterate, with ``columns`` its :func:`_iterate_columns`."""
    objective, scale, _ = columns
    header = list(model.natural_names)
    row = [_fmt(v) for v in model.natural_values(final[: model.dim_param])]
    if gamma_mode:
        header.append("scale_c")
        row.append(_fmt(scale))
    header += ["objective", "complexity"]
    row += [_fmt(objective), str(complexity)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(row)


def cmd_fit(run, write_estimate=True):
    """One stochastic run, written as ``data.csv`` (synthetic data only),
    ``estimate.csv`` and ``trace.csv``; ``trace`` skips ``estimate.csv``."""
    model = run.model
    ds = _dataset(run)
    theta0 = _initial_theta(run, ds)
    if run.gamma_mode:
        def grad(psi, rng):
            with np.errstate(over="ignore"):
                c = float(np.exp(psi[-1]))
            if not 0.0 < c < math.inf:  # log c left the double range
                return np.full(psi.shape, np.nan)
            return stochastic_grad_gamma(
                model, psi[:-1], c, ds.points, run.gamma, run.m, run.proposal, rng,
            ).g

        start = np.concatenate([theta0, [0.0]])  # scale starts at c = 1
        result = _sgd(run, grad, start)
    else:
        result = _dpd_sgd(run, ds, theta0, run.beta, run.m)
    trace, cost = result.trace, ds.n + run.m  # density evaluations a step
    columns = [_iterate_columns(run, ds, theta) for theta in trace]
    if not run.data:
        ds.to_csv(os.path.join(run.out_dir, "data.csv"))
    if write_estimate:
        _write_estimate(os.path.join(run.out_dir, "estimate.csv"), model, trace[-1],
                        columns[-1], (len(trace) - 1) * cost, run.gamma_mode)
    _write_trace(os.path.join(run.out_dir, "trace.csv"), run, trace, columns, cost)
    return 2 if result.diverged else 0


def _table_cell_run(run, method, size, rep):
    """One replication of one table cell; returns (mse, diverged).  ``size``
    is the draw count of an ``sgd`` cell and the ``Lattice`` of a ``gd-ni`` one."""
    ds = _dataset(run, rep)
    theta0 = _initial_theta(run, ds)
    if method == "sgd":
        result = _dpd_sgd(run, ds, theta0, run.beta, size, rep)
    else:
        omega = float(np.mean([run.schedule.at(t) for t in range(1, run.T + 1)]))

        def grad(th):
            return lattice_grad_dpd(run.model, th, ds.points, run.beta, size)
        result = gd_run(grad, theta0, omega, run.T)
    return _mse(run, result.trace[-1]), result.diverged


def cmd_table_compare(run):
    if run.data:
        raise ConfigError("table-compare draws its own samples; it takes no --data")
    model = run.model
    if not isinstance(model, IsoNormal):
        raise ConfigError("table-compare requires an isonormal<d> model")
    if run.T < 1:
        raise ConfigError("T must be >= 1 for table-compare")
    if run.gamma_mode:
        raise ConfigError("table-compare fits the DPD; it takes no --divergence gamma")

    reps = run.replications
    cells = [("sgd", m) for m in run.m_values] + [("gd-ni", g) for g in run.lattices]
    jobs = [(method, size, rep) for method, size in cells for rep in range(reps)]
    with ThreadPoolExecutor(max_workers=min(8, reps)) as pool:
        outcomes = list(pool.map(lambda job: _table_cell_run(run, *job), jobs))

    with open(os.path.join(run.out_dir, "table.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "size", "mean_mse", "sd_mse", "complexity"])
        for i, (method, size) in enumerate(cells):
            chunk = outcomes[i * reps:(i + 1) * reps]
            mses = np.array([c[0] for c in chunk])
            total = size if method == "sgd" else size.total_points(model)
            sd = mses.std(ddof=1) if reps > 1 else 0.0
            writer.writerow([method, total, _fmt(mses.mean()), _fmt(sd),
                             run.T * (run.n + total)])
    return 2 if any(diverged for _, diverged in outcomes) else 0


def cmd_density_curves(run):
    model = run.model
    if model.dim_x != 1:
        raise ConfigError("density-curves requires a univariate model")
    if run.gamma_mode:
        raise ConfigError("density-curves fits the DPD; it takes no --divergence gamma")
    betas = {}  # column name -> beta
    for beta in run.betas:
        name = f"pdf_beta_{beta:g}"
        if name in betas:
            raise ConfigError(f"betas {betas[name]!r} and {beta!r} both name column {name}")
        betas[name] = beta
    ds = _dataset(run)
    if not run.data:
        ds.to_csv(os.path.join(run.out_dir, "data.csv"))
    theta_mle = _initial_theta(run, ds)

    fits = {name: _dpd_sgd(run, ds, theta_mle, beta, run.m) for name, beta in betas.items()}

    grid = np.linspace(ds.points.min() - 1.0, ds.points.max() + 1.0, 512)
    counts = np.histogram(ds.points, bins=grid)[0]
    columns = {"pdf_mle": np.exp(model.log_pdf(theta_mle, grid))}
    for name, result in fits.items():
        columns[name] = np.exp(model.log_pdf(result.trace[-1], grid))

    with open(os.path.join(run.out_dir, "curves.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "hist_count"] + list(columns))
        for i, x in enumerate(grid):
            count = int(counts[i]) if i < counts.size else 0
            writer.writerow([_fmt(x), count] + [_fmt(c[i]) for c in columns.values()])
    return 2 if any(result.diverged for result in fits.values()) else 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        run = read_config(cfg)
        command = {
            "fit": cmd_fit,
            "trace": lambda run: cmd_fit(run, write_estimate=False),
            "table-compare": cmd_table_compare,
            "density-curves": cmd_density_curves,
        }[args.command]
        os.makedirs(run.out_dir, exist_ok=True)
        _write_config_echo(cfg, run.out_dir)
        return command(run)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
