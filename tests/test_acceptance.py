"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every Monte Carlo check runs at a fixed seed so the suite is
deterministic end to end.
"""

import hashlib
import json
import time

import numpy as np
from scipy.stats import ks_2samp

from spinprobe.spin_algebra import coherent_x_state
from spinprobe.generators import ModelParams, master_evolve
from spinprobe.ito_calculus import (
    DT,
    dA,
    dAstar,
    dL,
    qsde_coefficients,
    qsde_product,
    unitarity_defect,
)
from spinprobe import filters, trajectory as traj, charfuncs as cf
from spinprobe.cli import main as cli_main
from spinprobe.trajectory import _Collector, _simulate_block

K_GRID = np.linspace(-5.0, 5.0, 41)


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_qsde_algebra():
    started = time.time()
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(100):
        params = ModelParams.build(
            j=rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
            alpha=rng.uniform(0.5, 4.0),
            kappa=rng.uniform(0.0, 2 * np.pi),
            phi=rng.uniform(0.0, 2 * np.pi),
            T=1.0,
            dt=1e-2,
        )
        t = rng.uniform(0.0, 3.0)
        for name in ("U0", "U", "Uprime", "Ubar"):
            worst = max(worst, unitarity_defect(qsde_coefficients(name, params, t)).max_norm())

    # displaced-picture generator reproduced coefficient by coefficient
    params = ModelParams.build(j=1.5, alpha=2.4, kappa=0.85, phi=1.2, T=1.0, dt=1e-2)
    m = params.space.fz_levels()
    f = params.drive(0.0)
    c = np.diag(np.cos(params.kappa * m)).astype(complex)
    s = np.diag(np.sin(params.kappa * m)).astype(complex)
    eye = np.eye(params.space.dim)
    expected = {
        dL("x", "x"): c - eye,
        dL("y", "y"): c - eye,
        dL("x", "y"): -s,
        dL("y", "x"): s,
        dAstar("x"): f * (c - eye),
        dA("x"): np.conj(f) * (c - eye),
        dAstar("y"): f * s,
        dA("y"): -np.conj(f) * s,
        DT: abs(f) ** 2 * (c - eye),
    }
    prod = qsde_product(
        qsde_coefficients("Weyl", params).adjoint(), qsde_coefficients("U", params)
    ).prune(1e-15)
    table_err = max(np.max(np.abs(prod.coeff(key) - val)) for key, val in expected.items())
    table_err = max(table_err, 0.0 if set(prod.coeffs) <= set(expected) else np.inf)

    elapsed = time.time() - started
    report(
        1,
        worst < 1e-12 and table_err < 1e-13,
        f"max unitarity defect {worst:.2e}, product table error {table_err:.2e}",
        elapsed,
        1.0,
    )


def test_criterion_02_filter_consistency():
    started = time.time()
    worst = 0.0
    n_paths = 34  # per (scheme, spin): 102 per scheme
    for scheme in filters.SCHEMES:
        for j in (0.5, 1.0, 2.0):
            params = ModelParams.build(j=j, alpha=3.0, kappa=0.2, T=0.15, dt=1e-4)
            rho0 = coherent_x_state(params.space).rho
            col = _Collector(scheme, params.n_steps, n_paths, params.space.dim, keep_states=True)
            _simulate_block(scheme, params, 77, list(range(n_paths)), rho0, col)
            obs_all = col.events if scheme == "polarimetry" else col.dy
            lin = filters.run_filter(scheme, "linear", params, obs_all, keep_states=True)   # one batched replay
            worst = max(worst, float(np.max(np.abs(lin.states - col.states))))
    elapsed = time.time() - started
    report(
        2,
        worst <= 1e-8,
        f"sup |normalize(linear) - normalized| = {worst:.2e} over 102 paths x 3 schemes",
        elapsed,
        60.0,
    )


def test_criterion_03_tower_property():
    started = time.time()
    params = ModelParams.build(j=1.0, alpha=4.0, kappa=0.25, T=1.0, dt=1e-3)
    rho0 = coherent_x_state(params.space)
    snapshots = np.arange(100, 1001, 100)  # 10 grid times
    masters = {
        "finite": master_evolve(rho0, params, generator="finite")[1],
        "limit": master_evolve(rho0, params, generator="limit")[1],
    }
    worst_ratio = 0.0
    for scheme, gen in (("polarimetry", "finite"), ("homodyne", "finite"), ("limit", "limit")):
        summary = traj.run_ensemble(
            params, scheme, 5000, base_seed=101, rho0=rho0, snapshot_indices=snapshots
        )
        for k, idx in enumerate(snapshots):
            dist = np.linalg.norm(summary.mean_rho[k] - masters[gen][idx])
            worst_ratio = max(worst_ratio, dist / (5 * summary.sem_rho_frob[k]))
    elapsed = time.time() - started
    report(
        3,
        worst_ratio <= 1.0,
        f"max Frobenius distance / (5 x MC se) = {worst_ratio:.2f} (N=5000, 3 schemes, 10 times)",
        elapsed,
        300.0,
    )


def test_criterion_04_poisson_counts():
    started = time.time()
    params = ModelParams.build(j=0.5, alpha=10.0, kappa=0.05, T=1.0, dt=1e-4)
    lam = params.alpha**2 * params.T  # 100
    n = 2000
    space = params.space
    states = {
        "coherent_x (not F_z-diagonal)": (coherent_x_state(space).rho, 404),
        "top F_z level (commutes)": (np.diag([1.0, 0.0]).astype(complex), 405),
    }
    ok = True
    details = []
    for label, (rho0, seed) in states.items():
        s = traj.run_ensemble(params, "polarimetry", n, base_seed=seed, rho0=rho0)
        total = s.terminals["counts_xi"] + s.terminals["counts_eta"]
        mean_err = abs(total.mean() - lam)
        var_err = abs(total.var(ddof=1) - lam)
        mean_band = 3 * np.sqrt(lam / n)
        var_band = 3 * lam * np.sqrt(2.0 / (n - 1)) + lam * params.alpha**2 * params.dt
        ok = ok and mean_err < mean_band and var_err < var_band
        details.append(f"{label}: mean off {mean_err:.2f}<{mean_band:.2f}, var off {var_err:.1f}<{var_band:.1f}")
    elapsed = time.time() - started
    report(4, ok, "; ".join(details), elapsed, 60.0)


def test_criterion_05_charfunc_oracles():
    started = time.time()
    n = 4000
    params = ModelParams.build(j=0.5, alpha=4.0, kappa=0.25, T=1.0, dt=1e-4)  # M = 1
    rho0 = coherent_x_state(params.space).rho
    p_diag = np.diagonal(rho0).real
    band = 4.0 / np.sqrt(n)

    pol = traj.run_ensemble(params, "polarimetry", n, base_seed=505, rho0=rho0)
    hom = traj.run_ensemble(params, "homodyne", n, base_seed=606, rho0=rho0)
    lim = traj.run_ensemble(params, "limit", n, base_seed=707, rho0=rho0)

    cases = {
        "plus": (cf.charfunc_plus_analytic(K_GRID, params).values, pol),
        "minus": (cf.charfunc_minus_analytic(K_GRID, params, p_diag).values, pol),
        "homodyne": (cf.charfunc_homodyne_analytic(K_GRID, params, p_diag).values, hom),
        "limit": (cf.charfunc_limit_analytic(K_GRID, params.M, p_diag, params.T).values, lim),
    }
    ok = True
    details = []
    for process, (analytic, source) in cases.items():
        emp = cf.empirical_charfunc(source, process, K_GRID).values
        frac = float(np.mean(np.abs(emp - analytic) <= band))
        ok = ok and frac >= 0.95
        details.append(f"{process} {100 * frac:.0f}%")
    elapsed = time.time() - started
    report(
        5,
        ok,
        f"grid fraction within 4/sqrt(N): {', '.join(details)} (need >=95%)",
        elapsed,
        300.0,
    )


def test_criterion_06_strong_driving_convergence():
    started = time.time()
    study = cf.convergence_study(1.0, [2.0, 4.0, 8.0, 16.0], K_GRID, 1.0, np.array([0.5, 0.5]))
    decreasing = bool(np.all(np.diff(study.d_polarimetry) < 0) and np.all(np.diff(study.d_homodyne) < 0))
    rates_ok = abs(study.rate_polarimetry - 2.0) <= 0.3 and abs(study.rate_homodyne - 2.0) <= 0.3
    elapsed = time.time() - started
    report(
        6,
        decreasing and rates_ok,
        f"distances decreasing; rates {study.rate_polarimetry:.2f} / {study.rate_homodyne:.2f} (2.0 +/- 0.3)",
        elapsed,
        10.0,
    )


def test_criterion_07_equivalence_ks():
    started = time.time()
    n = 4000
    params = ModelParams.build(j=0.5, alpha=16.0, M=1.0, T=1.0, dt=5e-5)
    rho0 = coherent_x_state(params.space).rho
    pol = traj.run_ensemble(params, "polarimetry", n, base_seed=808, rho0=rho0)
    hom = traj.run_ensemble(params, "homodyne", n, base_seed=909, rho0=rho0)
    stat, pvalue = ks_2samp(pol.terminals["y_minus"], hom.terminals["y"], method="asymp")
    elapsed = time.time() - started
    report(
        7,
        pvalue > 0.01,
        f"two-sample KS on Y-_T vs Y_T: statistic {stat:.4f}, p = {pvalue:.3f} (> 0.01)",
        elapsed,
        300.0,
    )


def test_criterion_08_innovation_martingales():
    # the standard error of a martingale's ensemble mean comes from its
    # predictable quadratic variation: the mean compensator for counting
    # innovations, t itself for diffusive ones
    started = time.time()
    n = 300
    ok = True
    details = []
    qv_worst = 0.0
    for scheme in filters.SCHEMES:
        params = ModelParams.build(j=0.5, alpha=3.0, kappa=0.2, T=1.0, dt=1e-4)
        s = traj.run_ensemble(params, scheme, n, base_seed=111)
        if scheme == "polarimetry":
            checks = []
            for name in ("inn_xi", "inn_eta"):
                compensator = s.series_mean[f"counts_{name[4:]}"] - s.series_mean[name]
                sem = np.sqrt(np.maximum(compensator, 0.0) / n)
                checks.append((name, s.series_mean[name], sem))
        else:
            checks = [("inn", s.series_mean["inn"], np.sqrt(s.params.time_grid() / n))]
        for name, mean, sem in checks:
            mask = sem > 0
            ratio = float(np.max(np.abs(mean[mask]) / (3 * sem[mask])))
            ok = ok and ratio <= 1.0
            details.append(f"{scheme}/{name} max|mean|/3se={ratio:.2f}")
        if scheme != "polarimetry":
            rel = np.abs(s.terminals["qv"] / params.T - 1.0)
            qv_worst = max(qv_worst, float(np.max(rel)))
            ok = ok and np.max(rel) <= 0.05
    details.append(f"QV worst relative error {qv_worst:.3f} (<=0.05)")
    elapsed = time.time() - started
    report(8, ok, "; ".join(details), elapsed, 120.0)


def test_criterion_09_conditional_squeezing():
    started = time.time()
    params = ModelParams.build(j=1.0, alpha=4.0, kappa=0.25, T=1.0, dt=1e-3)  # M = 1
    rho0 = coherent_x_state(params.space)
    s = traj.run_ensemble(params, "limit", 2000, base_seed=222, rho0=rho0)
    var_start = s.series_mean["var_z"][0]
    var_end = s.series_mean["var_z"][-1]
    squeezed = var_end < params.j / 2
    mean_fz = s.series_mean["fz"]
    sem_fz = s.series_sem["fz"]
    mask = sem_fz > 0
    martingale = bool(np.all(np.abs(mean_fz[mask] - mean_fz[0]) <= 3 * sem_fz[mask]))
    elapsed = time.time() - started
    report(
        9,
        squeezed and martingale,
        f"mean Var(F_z): {var_start:.3f} -> {var_end:.3f} (< J/2 = {params.j / 2}); "
        f"estimator mean constant within 3se: {martingale}",
        elapsed,
        120.0,
    )


def test_criterion_10_determinism(tmp_path):
    started = time.time()
    base = [
        "ensemble", "--J", "1/2", "--alpha", "3.0", "--kappa", "0.2", "--T", "0.2",
        "--dt", "1e-3", "--scheme", "polarimetry", "--N", "300", "--seed", "17",
    ]
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert cli_main(base + ["--outdir", str(outs[0]), "--threads", "1"]) == 0
    assert cli_main(base + ["--outdir", str(outs[1]), "--threads", "4"]) == 0
    assert cli_main(["ensemble", "--config", str(outs[0] / "manifest.json"),
                     "--outdir", str(outs[2]), "--threads", "2"]) == 0

    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    names = ("ensemble.csv", "terminals.csv", "mean_states.json")
    identical = all(digest(outs[0] / n) == digest(outs[1] / n) == digest(outs[2] / n) for n in names)
    manifests_agree = (
        json.load(open(outs[0] / "manifest.json"))["outputs"]
        == json.load(open(outs[2] / "manifest.json"))["outputs"]
    )
    elapsed = time.time() - started
    report(
        10,
        identical and manifests_agree,
        "byte-identical outputs across thread counts and manifest re-run",
        elapsed,
        120.0,
    )
