import numpy as np
import pytest

from spinprobe.generators import ModelParams
from spinprobe import trajectory as traj
from spinprobe.charfuncs import (
    TestFunction,
    charfunc_analytic,
    charfunc_analytic_path,
    charfunc_homodyne_analytic,
    charfunc_limit_analytic,
    charfunc_minus_analytic,
    charfunc_plus_analytic,
    convergence_study,
    empirical_charfunc,
    empirical_charfunc_path,
    pair_integral,
)

K_GRID = np.linspace(-5.0, 5.0, 41)


def params_for(j=0.5, alpha=4.0, kappa=0.25, **kw):
    kw.setdefault("T", 1.0)
    kw.setdefault("dt", 1e-3)
    return ModelParams.build(j=j, alpha=alpha, kappa=kappa, **kw)


# ---------------------------------------------------------------------------
# analytic forms against independent closed-form oracles
# ---------------------------------------------------------------------------

def test_plus_trivial_and_frozen_value():
    p = params_for(alpha=10.0, kappa=0.05)
    phi = charfunc_plus_analytic(np.array([0.0]), p)
    assert phi.values[0] == pytest.approx(1.0, abs=1e-15)
    # alpha^2 = 100, k = 1, t = 1
    phi = charfunc_plus_analytic(np.array([1.0]), p, t=1.0)
    frozen = np.exp(100.0 * (np.exp(-1j / 100.0) - 1.0))
    assert phi.values[0] == pytest.approx(frozen, abs=1e-14)


def test_plus_tends_to_deterministic_time():
    k = np.array([0.7, -2.0])
    target = np.exp(-1j * k * 1.0)
    for alpha, tol in ((10.0, 1e-1), (100.0, 1e-3)):
        p = params_for(alpha=alpha, kappa=0.01)
        got = charfunc_plus_analytic(k, p, t=1.0).values
        assert np.max(np.abs(got - target)) < tol


def test_minus_matches_poisson_mixture_oracle():
    # independent derivation: conditioned on the F_z level, the two channels
    # are Poisson with rates alpha^2 (1 +/- sin(2 kappa m))/2 and Y- jumps by
    # +/- 1/alpha
    rng = np.random.default_rng(0)
    for j in (0.5, 1.0, 2.0):
        p = params_for(j=j, alpha=rng.uniform(1, 4), kappa=rng.uniform(0.1, 1.0))
        m = p.space.fz_levels()
        probs = rng.dirichlet(np.ones(p.space.dim))
        got = charfunc_minus_analytic(K_GRID, p, probs, t=p.T).values
        r_xi = 0.5 * p.alpha**2 * (1 + np.sin(2 * p.kappa * m))
        r_eta = 0.5 * p.alpha**2 * (1 - np.sin(2 * p.kappa * m))
        oracle = np.zeros_like(K_GRID, dtype=complex)
        for i in range(m.size):
            oracle += probs[i] * np.exp(
                p.T
                * (
                    r_xi[i] * (np.exp(-1j * K_GRID / p.alpha) - 1)
                    + r_eta[i] * (np.exp(1j * K_GRID / p.alpha) - 1)
                )
            )
        assert np.max(np.abs(got - oracle)) < 1e-12


def test_minus_no_coupling_real_symmetric():
    p = params_for(kappa=0.0, alpha=2.0)
    got = charfunc_minus_analytic(K_GRID, p, np.array([0.5, 0.5])).values
    assert np.max(np.abs(got.imag)) < 1e-14
    expected = np.exp(p.T * p.alpha**2 * (np.cos(K_GRID / p.alpha) - 1.0))
    assert np.max(np.abs(got - expected)) < 1e-13


def test_minus_single_level_closed_form():
    p = params_for(j=0.5, alpha=2.0, kappa=0.3)
    k = 1.7
    got = charfunc_minus_analytic(k, p, np.array([1.0, 0.0]), t=p.T).values[0]
    lam = p.alpha**2 * (np.cos(k / p.alpha) - 1) - 1j * p.alpha**2 * np.sin(k / p.alpha) * np.sin(p.kappa)
    assert got == pytest.approx(np.exp(p.T * lam), abs=1e-14)


def test_homodyne_closed_forms():
    p = params_for(kappa=0.0, alpha=2.0)
    got = charfunc_homodyne_analytic(K_GRID, p, np.array([0.5, 0.5])).values
    assert np.max(np.abs(got - np.exp(-K_GRID**2 * p.T / 2))) < 1e-14
    p = params_for(j=0.5, alpha=3.0, kappa=0.4)
    got = charfunc_homodyne_analytic(K_GRID, p, np.array([0.5, 0.5])).values
    expected = np.exp(-K_GRID**2 * p.T / 2) * np.cos(2 * p.alpha * np.sin(p.kappa / 2) * K_GRID * p.T)
    assert np.max(np.abs(got - expected)) < 1e-13


def test_limit_closed_forms():
    got = charfunc_limit_analytic(K_GRID, 1.0, np.array([0.5, 0.5]), 1.0).values
    assert np.max(np.abs(got - np.exp(-K_GRID**2 / 2) * np.cos(K_GRID))) < 1e-14
    got = charfunc_limit_analytic(K_GRID, 0.0, np.array([0.5, 0.5]), 1.0).values
    assert np.max(np.abs(got - np.exp(-K_GRID**2 / 2))) < 1e-14


@pytest.mark.parametrize("process", ["plus", "minus", "homodyne", "limit"])
def test_hermitian_symmetry_bound_and_unit_origin(process):
    p = params_for(j=1.0, alpha=2.5, kappa=0.6)
    probs = np.array([0.2, 0.5, 0.3])
    kwargs = {"params": p, "p": probs} if process != "limit" else {"M": p.M, "p": probs}
    from spinprobe.charfuncs import charfunc_analytic

    phi = charfunc_analytic(process, K_GRID, t=p.T, **kwargs)
    phi_neg = charfunc_analytic(process, -K_GRID, t=p.T, **kwargs)
    assert np.max(np.abs(phi_neg.values - np.conj(phi.values))) < 1e-13
    assert np.all(np.abs(phi.values) <= 1.0 + 1e-12)
    origin = charfunc_analytic(process, 0.0, t=p.T, **kwargs)
    assert origin.values[0] == pytest.approx(1.0, abs=1e-14)


def test_piecewise_path_matches_product_of_pieces():
    p = params_for(j=0.5, alpha=2.0, kappa=0.3, T=1.0, dt=0.25)
    kf = TestFunction(np.array([1.0, 1.0, -2.0, 0.5]), 0.25)
    probs = np.array([0.6, 0.4])
    got = charfunc_analytic_path("minus", kf, params=p, p=probs)
    # oracle: per level multiply the per-piece exponents before mixing
    m = p.space.fz_levels()
    total = 0.0
    for i in range(2):
        expo = 0.0
        for k in kf.values:
            lam = p.alpha**2 * (np.cos(k / p.alpha) - 1) - 1j * p.alpha**2 * np.sin(
                k / p.alpha
            ) * np.sin(2 * p.kappa * m[i])
            expo += 0.25 * lam
        total += probs[i] * np.exp(expo)
    assert got == pytest.approx(total, abs=1e-14)


# ---------------------------------------------------------------------------
# empirical functionals
# ---------------------------------------------------------------------------

def test_empirical_zero_k_is_one_exactly():
    p = params_for(j=0.5, alpha=3.0, kappa=0.2, T=0.2)
    s = traj.run_ensemble(p, "polarimetry", 50, base_seed=1)
    phi = empirical_charfunc(s, "minus", np.array([0.0, 1.0]))
    assert phi.values[0] == 1.0 + 0.0j
    assert phi.stderr[0] == 0.0


def test_empirical_matches_analytic_no_coupling():
    p = params_for(j=0.5, alpha=3.0, kappa=0.0, T=0.5, dt=5e-4)
    n = 600
    s = traj.run_ensemble(p, "polarimetry", n, base_seed=2)
    emp = empirical_charfunc(s, "minus", K_GRID)
    ana = charfunc_minus_analytic(K_GRID, p, np.array([0.5, 0.5])).values
    frac = np.mean(np.abs(emp.values - ana) <= 4.0 / np.sqrt(n))
    assert frac >= 0.95


def test_empirical_from_records_and_path_pairing():
    p = params_for(j=0.5, alpha=3.0, kappa=0.2, T=0.2)
    # per-trajectory records from the same streams and block run_ensemble uses
    records = traj._simulate_full("polarimetry", p, 0, None, False, list(range(40)))
    k = np.array([0.5, 2.0])
    phi = empirical_charfunc(records, "minus", k)
    kf = TestFunction.constant(k[0], p.n_steps, p.dt)
    # constant test function pairs to k * Y_T exactly
    for rec in records[:5]:
        assert pair_integral(rec, "minus", kf) == pytest.approx(k[0] * rec.y_minus[-1], abs=1e-12)
    path_phi = empirical_charfunc_path(records, "minus", kf)
    assert path_phi == pytest.approx(complex(phi.values[0]), abs=1e-12)
    s = traj.run_ensemble(p, "polarimetry", 40, base_seed=0)
    phi_ens = empirical_charfunc(s, "minus", k)
    assert np.max(np.abs(phi_ens.values - phi.values)) < 1e-12


def test_empirical_requires_data():
    with pytest.raises(ValueError):
        empirical_charfunc([], "minus", K_GRID)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_rate_near_two():
    st = convergence_study(1.0, [2.0, 4.0, 8.0, 16.0], K_GRID, 1.0, np.array([0.5, 0.5]))
    assert np.all(np.diff(st.d_polarimetry) < 0)
    assert np.all(np.diff(st.d_homodyne) < 0)
    assert 1.7 <= st.rate_polarimetry <= 2.3
    assert 1.7 <= st.rate_homodyne <= 2.3
    assert np.allclose(st.kappas, 1.0 / st.alphas)


def test_convergence_singleton():
    st = convergence_study(1.0, [4.0], K_GRID, 1.0, np.array([0.5, 0.5]))
    assert st.d_polarimetry.shape == (1,)
    assert np.isnan(st.rate_polarimetry)


def test_convergence_rejects_bad_alphas():
    with pytest.raises(ValueError):
        convergence_study(1.0, [4.0, 2.0], K_GRID, 1.0, np.array([0.5, 0.5]))


def test_polarimetry_homodyne_equivalence_in_limit():
    # both finite-alpha functionals converge to the same limit form
    probs = np.array([0.3, 0.7])
    limit_vals = charfunc_limit_analytic(K_GRID, 1.0, probs, 1.0).values
    sup = []
    for alpha in (4.0, 32.0):
        p = ModelParams.build(j=0.5, alpha=alpha, M=1.0, T=1.0, dt=1.0)
        d_minus = np.max(np.abs(charfunc_minus_analytic(K_GRID, p, probs).values - limit_vals))
        d_hom = np.max(np.abs(charfunc_homodyne_analytic(K_GRID, p, probs).values - limit_vals))
        sup.append(max(d_minus, d_hom))
    assert sup[1] < 2e-2 * sup[0]


@pytest.mark.parametrize("process", ["minus", "homodyne"])
def test_path_rejects_wrong_length_probabilities(process):
    # both analytic forms resolve (levels, probabilities) the same way and name the mismatch
    p = ModelParams.build(j=1.0, alpha=2.0, kappa=0.3, T=0.1, dt=0.01)
    kfun = TestFunction.constant(0.7, p.n_steps, p.dt)
    with pytest.raises(ValueError, match="probability vector length does not match"):
        charfunc_analytic_path(process, kfun, params=p, p=np.full(2, 0.5))
    with pytest.raises(ValueError, match="probability vector length does not match"):
        charfunc_analytic(process, 0.7, params=p, p=np.full(2, 0.5))
