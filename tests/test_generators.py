import numpy as np
import pytest

from spinprobe.spin_algebra import SpinSpace, make_spin_ops, coherent_x_state, random_density
from spinprobe.generators import (
    ModelParams,
    lindblad_heisenberg,
    lindblad_schrodinger,
    limit_lindblad,
    master_evolve,
)


def params_for(j=0.5, alpha=2.0, kappa=0.6, **kw):
    kw.setdefault("T", 1.0)
    kw.setdefault("dt", 1e-3)
    return ModelParams.build(j=j, alpha=alpha, kappa=kappa, **kw)


# ---------------------------------------------------------------------------
# ModelParams
# ---------------------------------------------------------------------------

def test_params_reconciliation():
    p = ModelParams.build(j=0.5, alpha=4.0, kappa=0.25)
    assert p.M == pytest.approx(1.0, abs=1e-14)
    p = ModelParams.build(j=0.5, alpha=8.0, M=1.0)
    assert p.kappa == pytest.approx(0.125, abs=1e-14)
    p = ModelParams.build(j=0.5, kappa=0.5, M=1.0)
    assert p.alpha == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        ModelParams.build(j=0.5, alpha=4.0, kappa=0.25, M=2.0)
    with pytest.raises(ValueError):
        ModelParams.build(j=0.5, alpha=4.0)
    with pytest.raises(ValueError):
        ModelParams.build(j=0.5, alpha=1.0, kappa=0.1, T=1.0, dt=3e-4)  # grid mismatch


def test_params_schedule():
    p = ModelParams.build(
        j=0.5, alpha=2.0, kappa=0.1, T=1.0, dt=0.25, alpha_schedule=((0.0, 2.0), (0.5, 1.0))
    )
    assert p.alpha_of(0.0) == 2.0
    assert p.alpha_of(0.49) == 2.0
    assert p.alpha_of(0.5) == 1.0
    assert p.drive_power(0.75) == 1.0
    with pytest.raises(ValueError):
        ModelParams.build(j=0.5, alpha=2.0, kappa=0.1, alpha_schedule=((0.5, 1.0),))


# ---------------------------------------------------------------------------
# finite-drive generator
# ---------------------------------------------------------------------------

def test_fz_and_identity_annihilated():
    p = params_for(j=1.5)
    _, _, fz = make_spin_ops(p.space)
    assert np.max(np.abs(lindblad_heisenberg(fz, p))) < 1e-14
    assert np.max(np.abs(lindblad_heisenberg(np.eye(p.space.dim), p))) < 1e-14


def test_heisenberg_halfspin_fx_closed_form():
    # brute-force 2x2 oracle: L(F_x) = -alpha^2 (1 - cos kappa) F_x
    p = params_for(j=0.5, alpha=1.7, kappa=0.9)
    fx, _, fz = make_spin_ops(p.space)
    c = np.diag(np.cos(p.kappa * np.diag(fz).real))
    s = np.diag(np.sin(p.kappa * np.diag(fz).real))
    oracle = p.alpha**2 * (s @ fx @ s + c @ fx @ c - fx)
    got = lindblad_heisenberg(fx, p)
    assert np.max(np.abs(got - oracle)) < 1e-14
    assert np.max(np.abs(got + p.alpha**2 * (1 - np.cos(p.kappa)) * fx)) < 1e-13


def test_schrodinger_diagonal_stationary_and_traceless():
    rng = np.random.default_rng(0)
    p = params_for(j=1.0)
    diag = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
    assert np.max(np.abs(lindblad_schrodinger(diag, p))) < 1e-14
    for _ in range(5):
        rho = random_density(p.space, rng).rho
        assert abs(np.trace(lindblad_schrodinger(rho, p))) < 1e-13


@pytest.mark.parametrize("b_field", [0.0, 0.8])
def test_duality_trace_pairing(b_field):
    rng = np.random.default_rng(1)
    p = params_for(j=1.0, B=b_field)
    for _ in range(50):
        rho = random_density(p.space, rng).rho
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(lindblad_schrodinger(rho, p) @ x)
        rhs = np.trace(rho @ lindblad_heisenberg(x, p))
        assert abs(lhs - rhs) < 1e-12
        lhs = np.trace(limit_lindblad(rho, p, picture="schrodinger") @ x)
        rhs = np.trace(rho @ limit_lindblad(x, p, picture="heisenberg"))
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# limit generator
# ---------------------------------------------------------------------------

def test_limit_examples():
    p = params_for(j=0.5, alpha=2.0, kappa=0.5)  # M = 1
    fx, _, fz = make_spin_ops(p.space)
    assert np.max(np.abs(limit_lindblad(fz, p))) < 1e-14
    assert np.max(np.abs(limit_lindblad(fx, p) + 0.5 * p.M * fx)) < 1e-13


def test_finite_to_limit_richardson():
    # at fixed M the finite-drive generator approaches the limit one as
    # O(alpha^-2): successive errors under alpha doubling shrink ~4x
    big_m = 1.3
    space = SpinSpace.from_j(1.0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    errs = []
    for alpha in (10.0, 20.0, 40.0):
        p = ModelParams.build(j=1.0, alpha=alpha, M=big_m, T=1.0, dt=1e-3)
        errs.append(np.max(np.abs(lindblad_heisenberg(x, p) - limit_lindblad(x, p))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


# ---------------------------------------------------------------------------
# master integrator
# ---------------------------------------------------------------------------

def test_master_diagonal_constant():
    p = params_for(j=1.0)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    _, states = master_evolve(rho0, p, generator="finite")
    assert np.max(np.abs(states - rho0)) < 1e-12


def test_master_limit_halfspin_closed_form():
    p = params_for(j=0.5, alpha=4.0, kappa=0.25)  # M = 1
    rho0 = coherent_x_state(p.space)
    times, states = master_evolve(rho0, p, generator="limit")
    fx, _, _ = make_spin_ops(p.space)
    got = np.einsum("tij,ji->t", states, fx).real
    assert np.max(np.abs(got - 0.5 * np.exp(-p.M * times / 2))) < 1e-9


def test_master_trace_preservation():
    rng = np.random.default_rng(3)
    p = params_for(j=1.0, T=0.5)
    rho0 = random_density(p.space, rng)
    for gen in ("finite", "limit"):
        _, states = master_evolve(rho0, p, generator=gen)
        traces = np.einsum("tii->t", states).real
        assert np.max(np.abs(traces - 1.0)) < 1e-10


def test_master_fz_moments_conserved():
    rng = np.random.default_rng(4)
    p = params_for(j=1.5, T=0.5)
    _, _, fz = make_spin_ops(p.space)
    rho0 = random_density(p.space, rng)
    for gen in ("finite", "limit"):
        _, states = master_evolve(rho0, p, generator=gen)
        for n in (1, 2, 3):
            series = np.einsum("tij,ji->t", states, np.linalg.matrix_power(fz, n)).real
            assert np.max(np.abs(series - series[0])) < 1e-10


def test_master_positivity_floor_random_states():
    rng = np.random.default_rng(5)
    p = params_for(j=1.0, T=0.2, dt=2e-3, alpha=3.0, kappa=0.3)
    for _ in range(100):
        rho0 = random_density(p.space, rng)
        _, states = master_evolve(rho0, p, generator="finite")
        assert np.linalg.eigvalsh(states[-1])[0] >= -1e-9


def test_master_bfield_precession():
    # kappa = 0 leaves only the field: <F_x>(t) = J cos(Bt), <F_z>(t) = -J sin(Bt)
    p = params_for(j=1.0, alpha=2.0, kappa=0.0, B=1.3, T=1.0, dt=5e-4)
    rho0 = coherent_x_state(p.space)
    times, states = master_evolve(rho0, p, generator="finite")
    fx, _, fz = make_spin_ops(p.space)
    got_x = np.einsum("tij,ji->t", states, fx).real
    got_z = np.einsum("tij,ji->t", states, fz).real
    assert np.max(np.abs(got_x - np.cos(p.B * times))) < 1e-8
    assert np.max(np.abs(got_z + np.sin(p.B * times))) < 1e-8


def test_master_dimension_mismatch():
    p = params_for(j=1.0)
    with pytest.raises(ValueError):
        master_evolve(np.eye(2) / 2, p)


@pytest.mark.parametrize("generator", ["finite", "limit"])
def test_master_schedule_switch_equals_joined_constant_runs(generator):
    # each RK4 step holds the drive at its start, so a switch at t = 0.3 acts
    # from step 30 on: the scheduled run is two constant-drive runs joined at
    # t = 0.3, bit for bit (the limit generator reads params.M, not the schedule)
    kw = dict(j=2.0, kappa=0.3, dt=0.01)
    rho0 = coherent_x_state(SpinSpace.from_j(2.0)).rho
    _, states = master_evolve(rho0, params_for(alpha=3.0, T=0.6, alpha_schedule=((0.0, 3.0), (0.3, 6.0)), **kw),
                              generator)
    _, head = master_evolve(rho0, params_for(alpha=3.0, T=0.3, **kw), generator)
    tail_alpha = 6.0 if generator == "finite" else 3.0
    _, tail = master_evolve(head[-1], params_for(alpha=tail_alpha, T=0.3, **kw), generator)
    assert np.array_equal(states, np.concatenate([head, tail[1:]]))
