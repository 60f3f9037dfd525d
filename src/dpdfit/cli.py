"""Command-line harness for robust density-power fitting experiments.

usage: dpdfit <subcommand> [--<key> <value> | --<key>=<value>] ...

Subcommands
-----------
fit             fit one model to synthetic or CSV data, write estimate + trace
trace           fit without estimate.csv; trace.csv holds every iterate
table-compare   stochastic descent vs numerical-integration descent grid
density-curves  gridded density of the MLE and each robust fit, for plotting

Each flag is ``--config`` or a whole config key (``_`` written ``-``), and the token after
it is its value, whatever it reads: ``--init -0.5,1`` is the config line ``init = -0.5,1``.
Flags beat a ``--config`` file or preset (``PRESETS``), which beats ``DEFAULTS``; the last
of a repeated key wins, and a list that reads no value exits 1 (an empty ``m_values`` falls
back to ``m``).  ``read_config`` checks the result before anything is written, and every
run writes it to ``config.echo``.

Exit codes: 0 success, 1 configuration or I/O error, 2 numerical divergence.
A ``cmd_*`` returns its stop reasons in output order and its density evaluations; ``main``
alone turns them into the code, prints the one ``error:`` line of an exit 1 or 2 (the first
stop's, on exit 2) and, on exits 0 and 2, writes ``run.json`` after every other output.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import select
import signal
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .datagen import ContaminationSpec, Dataset, contaminated_sample
from .divergence import Lattice, empirical_dpce, empirical_gce
from .gradients import (CurrentModel, FixedNormal, PreparedSample, lattice_grad_dpd,
                        stochastic_grad_dpd, stochastic_grad_gamma)
from .mle import mle_gompertz, mle_inverse_normal, mle_isonormal, mle_mixture, mle_normal
from .models import MAGNITUDE_MAX, IsoNormal, Model, get_model
from .optim import StepDecay, checked_start, gd_run, sgd_run


DEFAULTS = {
    "model": "normal",
    "divergence": "dpd",
    "beta": "0.5",
    "gamma": "0.5",
    "m": "10",
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
    "m_values": "",        # table-compare sgd cells; falls back to m
    "big_m_values": "10",  # table-compare gd-ni grids, nodes per axis
    "data": "",
    "out_dir": ".",
}
# Largest beta or gamma: far above the usual (0, 1], p**beta underflows to 0
POWER_MAX = 10.0
# Larger synthetic samples write data.csv on a forked child (cut-off measured: README)
_FORKED_CSV_ROWS = 131072

# Benchmark presets, stated apart from DEFAULTS so that no default moves
# them: the four scalar-model settings (outliers N(10, 1)) and the
# d-variate comparison grids (an isotropic cloud at truth + 100 with
# spread 0.1, and an exact outlier count).
_PAPER = {"beta": "0.5", "m": "10", "decay_rate": "0.7"}
_SCALAR = {**_PAPER, "n": "1000", "outlier_mean": "10.0", "outlier_sd": "1.0", "decay_period": "25"}
_CELLS = "3,10,50"  # table draw counts m, and grid nodes M per axis


def _isonormal_preset(d, m_values=_CELLS, big_m_values=_CELLS):
    return {**_PAPER, "model": f"isonormal{d}", "truth": ",".join(["0.5"] * d), "n": "500",
            "xi": "0.01", "outlier_mean": ",".join(["100.5"] * d), "outlier_sd": "0.1",
            "fixed_outlier_count": "true", "T": "300", "eta0": "1.0", "decay_period": "20",
            "grid_extent": "2.0", "m_values": m_values, "big_m_values": big_m_values,
            "replications": "10"}


PRESETS = {
    "paper-4.1-i": {**_SCALAR, "model": "normal", "truth": "0,1", "xi": "0.1",
                    "T": "500", "eta0": "1.0", "gamma": "0.5"},
    "paper-4.1-ii": {**_SCALAR, "model": "inverse-normal", "truth": "1,3", "xi": "0.1",
                     "T": "1000", "eta0": "1.0"},
    "paper-4.1-iii": {**_SCALAR, "model": "gompertz", "truth": "1,0.1", "xi": "0.01",
                      "T": "1000", "eta0": "0.5"},
    "paper-4.1-iv": {**_SCALAR, "model": "mixture", "truth": "-5,1,0,1,0.6", "xi": "0.01",
                     "T": "1000", "eta0": "1.0"},
    "paper-4.2-d2": _isonormal_preset(2),
    "paper-4.2-d3": _isonormal_preset(3),
    "paper-4.2-d4": _isonormal_preset(4, m_values="10", big_m_values="3"),  # 50^4: no baseline
}

COMMANDS = ("fit", "trace", "table-compare", "density-curves")
_FLAGS = {"--" + key.replace("_", "-"): key for key in ("config", *DEFAULTS)}  # DEFAULTS order


def _read_command_line(argv):
    """``(command, {key: value})`` of ``argv``, read by the rules of the module text;
    ``command`` is None where ``-h`` or ``--help`` stands for the subcommand or a flag."""
    command, *args = argv or [""]
    if command in ("-h", "--help"):
        return None, {}
    if command not in COMMANDS:
        raise ValueError(f"expected a subcommand ({', '.join(COMMANDS)}), got {command!r}")
    values, tokens = {}, iter(args)
    for token in tokens:
        if token in ("-h", "--help"):
            return None, {}
        flag, eq, value = token.partition("=")
        if flag not in _FLAGS:
            raise ValueError(f"expected a flag (--config or --<config key>), got {flag!r}")
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"flag {flag} needs a value")
        values[_FLAGS[flag]] = value.strip()  # as a config file's value is
    return command, values


def _read_config_file(path):
    if path in PRESETS:
        return dict(PRESETS[path])
    if not os.path.exists(path):
        raise ValueError(f"config {path!r} is neither a file nor a preset")
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def resolve_config(flags):
    """Merge defaults, the ``config`` file or preset, and the other keys of ``flags``."""
    cfg = dict(DEFAULTS)
    if flags.get("config"):
        cfg.update(_read_config_file(flags["config"]))
    cfg.update((key, value) for key, value in flags.items() if key != "config")
    if "m" in flags and "m_values" not in flags:  # m is also fit's draw count
        cfg["m_values"] = ""  # so the sgd cells fall back to --m, not to the preset's list
    return cfg


def _number(text, key, kind=float, above=None, finite=True, at_most=None, at_least=None,
            below=None):
    """``text`` as one ``kind``: finite unless ``finite=False``, and inside
    each of the bounds ``above``, ``at_least``, ``at_most`` and ``below`` given."""
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {text!r}") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text!r}")
    if above is not None and value <= above:
        raise ValueError(f"{key} must be > {above}, got {text!r}")
    if at_least is not None and value < at_least:
        raise ValueError(f"{key} must be >= {at_least:g}, got {text!r}")
    if at_most is not None and value > at_most:
        raise ValueError(f"{key} must be <= {at_most:g}, got {text!r}")
    if below is not None and value >= below:
        raise ValueError(f"{key} must be < {below:g}, got {text!r}")
    return value


def _numbers(text, key, kind=float, **checks):
    """Comma-separated :func:`_number` values, at least one; empty items are skipped."""
    values = [_number(v, key, kind, **checks) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(f"{key} must list at least one value, got {text!r}")
    return values


def _as_bool(text, key):
    v = text.lower()
    if v not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"{key} must be true/false, got {text!r}")
    return v in ("true", "1", "yes")


def _theta_from_naturals(model, values, key):
    """Unconstrained coordinates from a flat list of natural parameters."""
    if len(values) != len(model.natural_names):
        raise ValueError(
            f"{key} for {model.name} needs {len(model.natural_names)} values"
        )
    try:
        theta = model.from_natural_values(values)
    except ValueError as exc:  # the family's check names the scale, weight or values
        raise ValueError(f"{key}: {exc}") from None
    if not all(abs(v) <= MAGNITUDE_MAX for v in values):  # also False for NaN
        raise ValueError(f"{key} must be finite, in [-{MAGNITUDE_MAX:g}, {MAGNITUDE_MAX:g}], "
                          f"got {','.join(map(repr, values))}")
    return theta


def _check_point_shape(model, shape, source, shared=False):
    """ValueError unless ``shape`` is that of one point of ``model`` or,
    with ``shared``, one value for every coordinate."""
    if shape == model.point_shape or (shared and shape == (1,)):
        return
    need = f"1 or {model.dim_x}" if shared and model.dim_x > 1 else f"{model.dim_x}"
    raise ValueError(f"{source} has {math.prod(shape)} value(s) per point, "
                      f"but {model.name} needs {need}")


def _proposal(text, model):
    if text == "current":
        return CurrentModel()
    if text.startswith("normal:"):
        # FixedNormal checks the values and names them
        parts = _numbers(text[len("normal:"):], "proposal", finite=False)
        if len(parts) < 2:
            raise ValueError("proposal normal:<mean...>,<sd> needs mean and sd")
        mean = np.asarray(parts[:-1])
        _check_point_shape(model, mean.shape, "--proposal normal: mean", shared=True)
        if model.support != "real":  # else found only at the first descent step
            raise ValueError("fixed normal proposal does not cover the support "
                              f"of {model.name}")
        return FixedNormal(mean=mean, sd=parts[-1])
    raise ValueError(f"unknown proposal {text!r}")


@dataclass(frozen=True)
class Run:
    """A resolved configuration, every value typed and checked: ``spec`` is
    None with ``--data``, ``init`` None for the MLE start, ``betas`` maps each
    ``curves.csv`` column to its beta, ``lattices`` holds each ``big_m_values`` grid."""

    model: Model
    spec: ContaminationSpec | None
    init: np.ndarray | None
    proposal: CurrentModel | FixedNormal
    schedule: StepDecay
    beta: float
    gamma: float
    m: int
    T: int
    seed: int
    replications: int
    betas: dict
    m_values: list
    lattices: tuple
    gamma_mode: bool
    data: str
    out_dir: str


def read_config(cfg, command):
    """The :class:`Run` of a resolved configuration: every key is read and
    checked whatever the subcommand, but ``--data`` leaves the synthetic-data
    keys (``truth``, ``xi``, ``outlier_*``, ``fixed_outlier_count``) unread.
    Then the rules of ``command`` are checked."""

    def num(key, kind=float, **checks):
        return _number(cfg[key], key, kind, **checks)

    model = get_model(cfg["model"])
    if cfg["divergence"] not in ("dpd", "gamma"):
        raise ValueError(f"divergence must be dpd or gamma, got {cfg['divergence']!r}")
    if not cfg["out_dir"]:  # else os.makedirs('') fails naming no key
        raise ValueError("out_dir must name a directory, got ''")
    n = num("n", int, at_least=1)
    spec = init = None
    if cfg["data"]:  # checked before main makes the output directory
        if not (os.path.isfile(cfg["data"]) and os.access(cfg["data"], os.R_OK)):
            raise ValueError(f"data {cfg['data']!r} is not a readable file")
    else:
        values = _numbers(cfg["truth"], "truth") if cfg["truth"] else model.default_truth
        truth = _theta_from_naturals(model, values, "truth")
        outlier_mean = np.asarray(_numbers(cfg["outlier_mean"], "outlier_mean"))
        _check_point_shape(model, outlier_mean.shape, "--outlier-mean", shared=True)
        spec = ContaminationSpec(
            model=model, truth=truth, outlier_mean=outlier_mean,
            outlier_sd=num("outlier_sd"), xi=num("xi", at_least=0, below=1), n=n,
            fixed_count=_as_bool(cfg["fixed_outlier_count"], "fixed_outlier_count"),
        )
    if cfg["init"] != "mle":
        values = _numbers(cfg["init"], "init", finite=False)
        init = _theta_from_naturals(model, values, "init")
    extent = num("grid_extent", above=0, at_most=MAGNITUDE_MAX)
    big_m_values = _numbers(cfg["big_m_values"], "big_m_values", int, at_least=2)
    lattices = tuple(Lattice(extent=extent, nodes=mm) for mm in big_m_values)
    for lattice in lattices:
        try:
            lattice.weight(model)
        except OverflowError:
            raise ValueError(f"grid_extent {cfg['grid_extent']} gives {model.name} grids of "
                              f"{lattice.nodes} nodes a weight past the double range") from None
    betas = {}
    for beta in _numbers(cfg["betas"], "betas", above=0, at_most=POWER_MAX):
        name = f"pdf_beta_{beta:g}"
        if name in betas:
            raise ValueError(f"betas {betas[name]!r} and {beta!r} both name column {name}")
        betas[name] = beta
    run = Run(
        model=model, spec=spec, init=init,
        proposal=_proposal(cfg["proposal"], model),
        schedule=StepDecay(eta0=num("eta0", at_most=MAGNITUDE_MAX),
                           rate=num("decay_rate", above=0, below=1),
                           period=num("decay_period", int, at_least=1)),
        beta=num("beta", above=0, at_most=POWER_MAX),
        gamma=num("gamma", above=0, at_most=POWER_MAX),
        m=num("m", int, at_least=1),
        T=num("T", int, at_least=0),
        seed=num("seed", int, at_least=0),
        replications=num("replications", int, at_least=1),
        betas=betas,
        m_values=_numbers(cfg["m_values"] or cfg["m"], "m_values", int, at_least=1),
        lattices=lattices,
        gamma_mode=cfg["divergence"] == "gamma",
        data=cfg["data"],
        out_dir=cfg["out_dir"],
    )
    if command == "table-compare":
        if run.data:
            raise ValueError("table-compare draws its own samples; it takes no --data")
        if not isinstance(model, IsoNormal):
            raise ValueError("table-compare requires an isonormal<d> model")
        if run.T < 1:
            raise ValueError("T must be >= 1 for table-compare")
    if command == "density-curves" and model.dim_x != 1:
        raise ValueError("density-curves requires a univariate model")
    if run.gamma_mode and command in ("table-compare", "density-curves"):
        raise ValueError(f"{command} fits the DPD; it takes no --divergence gamma")
    return run


def _dataset(run, *stream):
    """The ``--data`` CSV, or a contaminated sample drawn from
    ``default_rng([seed, *stream, 0])``."""
    if run.data:
        ds = Dataset.from_csv(run.data)  # reads every finite double, as to_csv writes it
        _check_point_shape(run.model, ds.points.shape[1:], run.data)
        if max(ds.points.max(), -ds.points.min()) > MAGNITUDE_MAX:
            raise ValueError(f"{run.data}: value outside [-{MAGNITUDE_MAX:g}, "
                              f"{MAGNITUDE_MAX:g}] in the data")
        return ds
    return contaminated_sample(run.spec, np.random.default_rng([run.seed, *stream, 0]))


def _initial_theta(run, ds):
    """The descent's start, checked against its bound: ``run.init``, or the MLE
    of the model's family (its class's ``name``: an IsoNormal's own carries its
    d) on ``ds``, with ``log c = 0`` appended in gamma mode.  Only the
    mixture's EM draws, from ``default_rng([seed, 2])``."""
    theta = run.init if run.init is not None else {  # read the mle_* names as they stand
        "normal": mle_normal, "inverse-normal": mle_inverse_normal, "gompertz": mle_gompertz,
        "isonormal": mle_isonormal,
        "mixture": lambda ds: mle_mixture(ds, rng=np.random.default_rng([run.seed, 2])),
    }[type(run.model).name](ds)
    return checked_start(np.append(theta, 0.0) if run.gamma_mode else theta)


def _sgd(run, ds, theta0, beta, m, *stream, data_means=None):
    """Stochastic descent from ``theta0`` with ``m`` draws a step from
    ``run.proposal``, on ``default_rng([seed, *stream, 1])``: of the DPD at
    ``beta`` or, with ``run.gamma_mode``, of the gamma objective on ``theta0 =
    (theta, log c)``.  Given a list ``data_means``, each step appends the mean
    of its data weights ``p(x_i)**power``, at the iterate it starts from."""
    estimator, power = ((stochastic_grad_gamma, run.gamma) if run.gamma_mode
                        else (stochastic_grad_dpd, beta))
    sample = PreparedSample(ds.points, m)

    def grad(psi, rng):
        est = estimator(run.model, psi, sample, power, m, run.proposal, rng)
        if data_means is not None:  # the bytes of ndarray.mean, in half its time
            data_means.append(float(np.add.reduce(est.data_weights) / est.data_weights.size))
        return est.g
    rng = np.random.default_rng([run.seed, *stream, 1])
    with np.errstate(all="ignore"):  # a non-finite gradient stops the run, naming its step
        return sgd_run(grad, theta0, run.schedule, run.T, rng)


def _mse(run, theta):
    """``||theta - truth||^2`` of one iterate, or the list of a trace's; None without a truth."""
    return None if run.spec is None else ((theta - run.spec.truth) ** 2).sum(axis=-1).tolist()


def _fmt(value):
    return "" if value is None else repr(float(value))


def _write_csv(run, name, header, rows):
    """``run.out_dir/name``: ``header``, then ``rows``, as ``csv.writer`` writes them unquoted."""
    with open(os.path.join(run.out_dir, name), "w", newline="") as fh:
        fh.write("".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows]))


def _write_trace(run, theta, columns, cost):
    """One row per iterate ``t``: the step size that reached it (0.0 for the start),
    ``t * cost`` density evaluations, its ``theta`` row and its entry of each of ``columns``,
    the ``objective_exact``, ``scale_c`` and ``mse`` lists (a None column writes empty fields)."""
    header = ["t", "eta", "complexity"] + [f"theta_{i + 1}" for i in range(theta.shape[1])]
    columns = [column or [None] * len(theta) for column in columns]
    rows = ([t, _fmt(run.schedule.at(t) if t else 0.0), t * cost]
            + list(map(repr, row)) + [_fmt(v) for v in values]
            for t, (row, *values) in enumerate(zip(theta.tolist(), *columns)))
    _write_csv(run, "trace.csv", header + ["objective_exact", "scale_c", "mse"], rows)


def _write_estimate(run, final, objective, scale, complexity):
    """The ``final`` theta row, its exact ``objective`` and, in gamma mode, its ``scale``."""
    values = dict(zip(run.model.natural_names, run.model.natural_values(final)))
    if scale is not None:
        values["scale_c"] = scale
    values["objective"] = objective
    _write_csv(run, "estimate.csv", list(values) + ["complexity"],
               [[_fmt(v) for v in values.values()] + [complexity]])


def _fork_cpus():
    """The CPUs this process may run on where ``os.fork`` exists, else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) if hasattr(os, "fork") else 1


@contextlib.contextmanager
def _forked(what, tasks, width):
    """Runs ``tasks``, functions of no argument, in order after the ``with`` body or, at a
    ``width`` above 1, on up to ``width`` children forked as the body starts: an idle child
    is sent the next task's index and pickles back its result or error.  After a failed
    task none is sent, and the children running later ones are killed.  Every child is
    reaped before the ``with`` exits, even if a fork or the body raises; then the yielded
    list takes the results in order, or the first error in order is raised."""
    children, busy, ended, results = {}, {}, {}, []  # keyed by a child's result reader
    waiting = list(range(len(tasks)))[::-1] if width > 1 else []

    def send(reader):  # the next task's index, a line on the child's orders pipe
        busy[reader] = waiting.pop()
        os.write(children[reader][1], b"%d\n" % busy[reader])

    try:
        while waiting and len(children) < width:
            (order_r, order_w), (result_r, result_w) = os.pipe(), os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # say, BlockingIOError at the process limit
                for fd in (order_r, order_w, result_r, result_w):
                    os.close(fd)
                raise
            if pid == 0:  # the child ends here on every path
                with contextlib.suppress(BaseException):
                    os.close(order_w)  # the parent's end, whose closing ends the orders
                    with open(order_r, "rb") as orders, open(result_w, "wb") as out:
                        for line in orders:  # until the parent closes its end
                            try:
                                sent = True, tasks[int(line)]()
                            except BaseException as exc:
                                sent = False, exc
                            pickle.dump(sent, out)
                            out.flush()
                    os._exit(0)
                os._exit(1)
            os.close(order_r)
            os.close(result_w)
            reader = open(result_r, "rb")
            children[reader] = pid, order_w
            send(reader)
        yield results
        while busy:
            reader = select.select(list(busy), [], [])[0][0]
            i = busy.pop(reader)
            try:
                ended[i] = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):  # it sent nothing, or not all
                pid, orders = children.pop(reader)
                reader.close()
                os.close(orders)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"signal {-code}" if code < 0 else f"exit status {code}"  # say, for memory
                ended[i] = False, ChildProcessError(f"{what} ended by {how} without its result")
            failed = [j for j, (ok, _) in ended.items() if not ok]
            if waiting and not failed and reader in children:
                send(reader)
            for other, j in busy.items():  # only an earlier task can fail earlier
                if failed and j > min(failed):
                    os.kill(children[other][0], signal.SIGKILL)
    finally:  # a child ends at the end of its orders, once its task is done
        for _, orders in children.values():
            os.close(orders)
        for reader, (pid, orders) in children.items():
            reader.read()
            reader.close()
            os.waitpid(pid, 0)
    for ok, value in (ended[i] for i in sorted(ended)):
        if not ok:
            raise value
        results.append(value)
    results.extend(task() for task in tasks if width < 2)


def _writing_data_csv(run, ds):
    """A ``with`` that writes a synthetic sample to ``data.csv`` after its body or on a child."""
    path = os.path.join(run.out_dir, "data.csv")
    return _forked("the data.csv writer", [] if run.data else [lambda: ds.to_csv(path)],
                   _fork_cpus() if ds.n > _FORKED_CSV_ROWS else 1)


def cmd_fit(run, write_estimate=True):
    """One stochastic run, written as ``data.csv`` (synthetic data only),
    ``estimate.csv`` and ``trace.csv``; ``trace`` and a diverged run skip
    ``estimate.csv``.  Returns ``(stops, evaluations)``, as :func:`main` reads them."""
    ds = _dataset(run)
    theta0 = _initial_theta(run, ds)
    # step t + 1 starts from iterate t, so its data weights give iterate t's
    # exact objective; only an iterate that starts no step is evaluated afresh
    means = [] if run.model.closed_form_r is not None else None
    with _writing_data_csv(run, ds):
        result = _sgd(run, ds, theta0, run.beta, run.m, data_means=means)
        s, cost = run.model.dim_param, ds.n + run.m  # density evaluations a step
        theta = result.trace[:, :s]
        # each column None where it does not apply: the exact objective needs a
        # closed-form family, the scale a gamma run (whose trace ends in log c)
        objective, power = ((empirical_gce, run.gamma) if run.gamma_mode
                            else (empirical_dpce, run.beta))
        objectives = None if means is None else [
            objective(run.model, th, ds.points, power, mean_pow=mean)
            for th, mean in itertools.zip_longest(theta, means)]
        with np.errstate(over="ignore"):  # a diverged gamma run may end at c = inf
            scales = np.exp(result.trace[:, s]).tolist() if run.gamma_mode else None
    evaluations = (len(theta) - 1) * cost  # the last row's complexity
    if write_estimate and not result.diverged:
        _write_estimate(run, theta[-1], objectives and objectives[-1], scales and scales[-1],
                        evaluations)
    _write_trace(run, theta, [objectives, scales, _mse(run, theta)], cost)
    return [result.reason] if result.diverged else [], evaluations


def _table_cell_run(run, method, size, rep, ds, theta0):
    """Replication ``rep`` of one table cell, on its sample ``ds`` and start ``theta0``;
    returns (mse, reason), the reason None unless the run diverged.  ``size``
    is the draw count of an ``sgd`` cell and the ``Lattice`` of a ``gd-ni`` one."""
    if method == "sgd":
        result = _sgd(run, ds, theta0, run.beta, size, rep)
    else:
        omega = float(np.mean([run.schedule.at(t) for t in range(1, run.T + 1)]))
        sample = PreparedSample(ds.points)  # read once, in the process that runs the cell
        result = gd_run(lambda th: lattice_grad_dpd(run.model, th, sample, run.beta, size),
                        theta0, omega, run.T)
    return _mse(run, result.trace[-1]), result.reason


def cmd_table_compare(run):
    """One job per cell per replication; every cell of a replication fits its one sample
    from its one start.  The jobs run longest first by ``n + size``, ties in the order of
    the table's rows and then replications: in this process on one usable CPU, else on
    at most 8 :func:`_forked` workers.  The error raised is the first in that order."""
    reps = run.replications
    cells = [("sgd", m, m) for m in run.m_values] + [("gd-ni", g, g.total_points(run.model))
                                                     for g in run.lattices]
    starts = [(ds, _initial_theta(run, ds)) for ds in (_dataset(run, rep) for rep in range(reps))]
    jobs = sorted(((i, rep) for i in range(len(cells)) for rep in range(reps)),
                  key=lambda job: -cells[job[0]][2])  # a stable sort
    tasks = [lambda i=i, rep=rep: _table_cell_run(run, *cells[i][:2], rep, *starts[rep])
             for i, rep in jobs]
    with _forked("a table worker", tasks, min(8, _fork_cpus())) as results:
        pass
    outcomes = dict(zip(jobs, results))

    rows, stops = [], []
    for i, (method, _, total) in enumerate(cells):
        cell = [outcomes[i, rep] for rep in range(reps)]
        mses = np.array([mse for mse, _ in cell])
        sd = mses.std(ddof=1) if reps > 1 else 0.0
        rows.append([method, total, _fmt(mses.mean()), _fmt(sd), run.T * (run.spec.n + total)])
        stops += [f"{reason} ({method} size {total}, replication {rep + 1} of {reps})"
                  for rep, (_, reason) in enumerate(cell) if reason is not None]
    _write_csv(run, "table.csv", ["method", "size", "mean_mse", "sd_mse", "complexity"], rows)
    return stops, reps * sum(row[-1] for row in rows)


def cmd_density_curves(run):
    ds = _dataset(run)
    theta_mle = _initial_theta(run, ds)
    with _writing_data_csv(run, ds):
        fits = {name: _sgd(run, ds, theta_mle, beta, run.m) for name, beta in run.betas.items()}
        grid = np.linspace(ds.points.min() - 1.0, ds.points.max() + 1.0, 512)
        counts = np.histogram(ds.points, bins=grid)[0]
        columns = {"pdf_mle": np.exp(run.model.log_pdf(theta_mle, grid))}
        for name, result in fits.items():
            columns[name] = np.exp(run.model.log_pdf(result.trace[-1], grid))

    rows = ([_fmt(x), int(counts[i]) if i < counts.size else 0]
            + [_fmt(c[i]) for c in columns.values()] for i, x in enumerate(grid))
    _write_csv(run, "curves.csv", ["x", "hist_count"] + list(columns), rows)
    return ([f"{result.reason} ({name} fit)" for name, result in fits.items() if result.diverged],
            (ds.n + run.m) * sum(len(result.trace) - 1 for result in fits.values()))


def _write_record(run, command, cfg, stops, evaluations):
    """``run.json``, in one write: what ran, from what, on what, at what cost, and its stops."""
    import hashlib  # here, as json is: `import dpdfit.cli` would pay for either
    import json
    experiment = sorted(item for item in cfg.items() if item[0] not in ("out_dir", "data"))
    digest = hashlib.sha256(repr(experiment).encode()).hexdigest()
    versions = {"python": sys.version.split()[0], "numpy": np.__version__, "dpdfit": __version__}
    with open(os.path.join(run.out_dir, "run.json"), "w") as fh:
        fh.write(json.dumps({"command": command, "config_sha256": digest, "seed": run.seed,
                             "versions": versions, "density_evaluations": evaluations,
                             "stops": stops}) + "\n")


def main(argv=None):
    try:
        name, flags = _read_command_line(sys.argv[1:] if argv is None else argv)
        if name is None:
            print(__doc__ + "\nFlags (any subcommand):", *_FLAGS, sep="\n  ")
            return 0
        cfg = resolve_config(flags)
        run = read_config(cfg, name)
        command = {"fit": cmd_fit, "trace": lambda run: cmd_fit(run, write_estimate=False),
                   "table-compare": cmd_table_compare, "density-curves": cmd_density_curves}[name]
        os.makedirs(run.out_dir, exist_ok=True)
        with open(os.path.join(run.out_dir, "config.echo"), "w") as fh:
            fh.writelines(f"{key} = {cfg[key]}\n" for key in sorted(cfg))
        stops, evaluations = command(run)
        _write_record(run, name, cfg, stops, evaluations)  # every child is reaped
        if not stops:
            return 0
        reason, code = stops[0], 2
    except (ValueError, OSError) as exc:
        reason, code = exc, 1
    except MemoryError as exc:  # numpy's names the array; a bare MemoryError() names nothing
        reason, code = str(exc) or "out of memory: the run's arrays do not fit", 1
    print(f"error: {reason}", file=sys.stderr)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
