import json
from math import comb

import numpy as np
import pytest

from spinprobe.spin_algebra import (
    SpinSpace,
    DensityState,
    make_spin_ops,
    op_function,
    l_xi_eta,
    coherent_x_state,
    matrix_to_json,
    matrix_from_json,
)


def taylor_expm(a, scalings=8):
    """Independent matrix exponential: scale, 25-term Taylor series, square."""
    a = np.asarray(a, dtype=complex) / 2**scalings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, 25):
        term = term @ a / n
        out = out + term
    for _ in range(scalings):
        out = out @ out
    return out


def test_spin_space_validation():
    assert SpinSpace.from_j(0.5).dim == 2
    assert SpinSpace.from_j(3).dim == 7
    assert SpinSpace.from_j(2.5).twice_j == 5
    with pytest.raises(ValueError):
        SpinSpace.from_j(0.3)
    with pytest.raises(ValueError):
        SpinSpace(0)


def test_fz_examples():
    _, _, fz = make_spin_ops(SpinSpace.from_j(0.5))
    assert np.allclose(fz, np.diag([0.5, -0.5]))
    _, _, fz = make_spin_ops(SpinSpace.from_j(1))
    assert np.allclose(fz, np.diag([1.0, 0.0, -1.0]))


def test_casimir_trace_j1():
    fx, fy, fz = make_spin_ops(SpinSpace.from_j(1))
    assert np.trace(fx @ fx + fy @ fy + fz @ fz).real == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 8, 13, 21, 40])
def test_commutator_algebra(twice_j):
    fx, fy, fz = make_spin_ops(SpinSpace(twice_j))
    for a, b, c in ((fx, fy, fz), (fy, fz, fx), (fz, fx, fy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12


def test_op_function_examples():
    space = SpinSpace.from_j(0.5)
    _, _, fz = make_spin_ops(space)
    assert np.allclose(op_function(np.cos, 0.0 * fz), np.eye(2))
    assert np.allclose(op_function(lambda x: np.sin(np.pi * x), fz), np.diag([1.0, -1.0]))
    _, _, fz1 = make_spin_ops(SpinSpace.from_j(1))
    assert np.allclose(op_function(lambda x: x**2, fz1), np.diag([1.0, 0.0, 1.0]))


def test_op_function_rejects_non_diagonal():
    fx, _, _ = make_spin_ops(SpinSpace.from_j(0.5))
    with pytest.raises(ValueError):
        op_function(np.cos, fx)


def test_l_xi_eta_examples():
    space = SpinSpace.from_j(0.5)
    lxi, leta = l_xi_eta(0.0, space)
    assert np.allclose(lxi, np.eye(2))
    assert np.allclose(leta, np.eye(2))
    lxi, leta = l_xi_eta(np.pi / 2, space)
    assert np.allclose(lxi, np.diag([np.sqrt(2.0), 0.0]))
    assert np.allclose(leta, np.diag([0.0, np.sqrt(2.0)]))


@pytest.mark.parametrize("j", [0.5, 1, 2.5, 7])
def test_l_xi_eta_identities(j):
    rng = np.random.default_rng(42)
    space = SpinSpace.from_j(j)
    _, _, fz = make_spin_ops(space)
    for kappa in rng.uniform(0.0, 2 * np.pi, 10):
        lxi, leta = l_xi_eta(kappa, space)
        assert np.max(np.abs(lxi @ lxi + leta @ leta - 2 * np.eye(space.dim))) < 1e-12
        sin2k = op_function(lambda x: np.sin(2 * kappa * x), fz)
        assert np.max(np.abs(lxi @ lxi - leta @ leta - 2 * sin2k)) < 1e-12


def test_coherent_x_half_spin():
    rho = coherent_x_state(SpinSpace.from_j(0.5)).rho
    assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-12)
    _, _, fz = make_spin_ops(SpinSpace.from_j(0.5))
    assert abs(np.trace(rho @ fz)) < 1e-12


def test_coherent_x_moments():
    # oracle: brute-force rotation of the top F_z level with an independent
    # Taylor expm, then direct evaluation of the moments
    for j in (0.5, 1, 2):
        space = SpinSpace.from_j(j)
        fx, fy, fz = make_spin_ops(space)
        rot = taylor_expm(-1j * (np.pi / 2) * fy)
        psi = rot[:, 0]
        rho_oracle = np.outer(psi, psi.conj())
        rho = coherent_x_state(space).rho
        assert np.max(np.abs(rho - rho_oracle)) < 1e-12
        assert np.trace(rho @ fx).real == pytest.approx(j, abs=1e-12)
    # frozen value: J=1, trace(rho Fz^2) = J/2
    space = SpinSpace.from_j(1)
    _, _, fz = make_spin_ops(space)
    rho = coherent_x_state(space).rho
    assert np.trace(rho @ fz @ fz).real == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("j", [0.5, 1, 2, 5, 25, 50])
def test_coherent_x_state_matches_expm_oracle(j):
    # the binomial closed form against exp(-i (pi/2) F_y) applied to the top F_z level
    from scipy.linalg import expm

    space = SpinSpace.from_j(j)
    n = space.twice_j
    psi = expm(-1j * (np.pi / 2) * make_spin_ops(space)[1])[:, 0]
    rho = coherent_x_state(space).rho
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-15
    assert np.array_equal(np.diagonal(rho).real, [comb(n, k) / 2**n for k in range(n + 1)])
    assert not np.diagonal(rho).imag.any()
    assert np.trace(rho) == 1.0


def test_coherent_x_rotation_fixed_point():
    rng = np.random.default_rng(3)
    for j in (0.5, 1.5):
        space = SpinSpace.from_j(j)
        fx, _, _ = make_spin_ops(space)
        rho = coherent_x_state(space).rho
        for theta in rng.uniform(0, 2 * np.pi, 5):
            u = taylor_expm(-1j * theta * fx)
            assert np.max(np.abs(u @ rho @ u.conj().T - rho)) < 1e-12


def test_coherent_x_state_is_a_fresh_value():
    # the matrix is built once per space; each state still owns its array
    space = SpinSpace.from_j(2)
    a = coherent_x_state(space).rho
    first = a.copy()
    a[0, 0] = 7.0
    b = coherent_x_state(space).rho
    assert b is not a and b.flags.writeable
    assert np.array_equal(b, first)
    assert coherent_x_state(SpinSpace.from_j(1)).dim == 3


def test_density_state_validation():
    with pytest.raises(ValueError):
        DensityState(np.diag([1.2, -0.2]))
    with pytest.raises(ValueError):
        DensityState(np.array([[0.5, 0.5], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        DensityState(np.diag([0.7, 0.7]))
    DensityState(np.diag([0.7, 0.7]), normalized=False)
    with pytest.raises(ValueError):
        DensityState(np.diag([0.0, 0.0]), normalized=False)


def test_clip_positive():
    # The master-equation integrator clips integrator drift through
    # project_positive with floor 0.
    from spinprobe.filters import project_positive

    rho = np.diag([1.0 + 5e-8, -5e-8])
    out = project_positive(rho, 0.0)
    assert np.linalg.eigvalsh(out)[0] >= 0.0
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


def test_matrix_serialization_roundtrip():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    data = matrix_to_json(m)
    assert data[0][1] == [pytest.approx(m[0, 1].real), pytest.approx(m[0, 1].imag)]
    assert np.array_equal(matrix_from_json(data), m)


def _matrix_lists(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def test_matrix_serialization_of_stacks_views_and_real_input():
    from spinprobe.generators import ModelParams
    from spinprobe.trajectory import simulate_homodyne

    params = ModelParams.build(j=1.0, alpha=3.0, kappa=0.2, B=0.5, T=0.01, dt=1e-3)
    rec = simulate_homodyne(params, 3, keep_states=True)
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stack[0, 0, 0] = -0.0 - 0.0j
    cases = {
        "record states": rec.states,
        "one record state": rec.states[0],
        "transpose": rec.states[1].T,
        "strided stack": stack[::2, :, 1:],
        "stack": stack,
        "real": rng.standard_normal((4, 4)),
    }
    for name, m in cases.items():
        data = matrix_to_json(m)
        if m.ndim == 2:
            expected = _matrix_lists(m)
            assert np.array_equal(matrix_from_json(data), m), name
        else:
            expected = [_matrix_lists(r) for r in m]
            assert np.array_equal(np.array([matrix_from_json(r) for r in data]), m), name
        assert data == expected, name
        assert json.dumps(data) == json.dumps(expected), name
        assert {type(x) for x in np.ravel(np.array(data, dtype=object))} == {float}, name
