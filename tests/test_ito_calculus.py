import numpy as np
import pytest

from spinprobe.generators import ModelParams
from spinprobe.spin_algebra import l_xi_eta
from spinprobe.ito_calculus import (
    DT,
    QNoiseExpr,
    basis_change,
    basis_increments,
    dA,
    dAstar,
    dL,
    ito_product,
    qsde_coefficients,
    qsde_product,
    unitarity_defect,
)


BASES = ("xy", "circular", "xieta")


def unit_expr(key, dim=2, basis="xy"):
    return QNoiseExpr(dim, basis, {key: np.eye(dim, dtype=complex)})


def random_expr(rng, dim=2):
    coeffs = {}
    for key in basis_increments("xy"):
        coeffs[key] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return QNoiseExpr(dim, "xy", coeffs)


def params_for(j=1.0, alpha=2.0, kappa=0.7, phi=0.3):
    return ModelParams.build(j=j, alpha=alpha, kappa=kappa, phi=phi, T=1.0, dt=1e-2)


# ---------------------------------------------------------------------------
# Ito table
# ---------------------------------------------------------------------------

def test_table_examples():
    prod = ito_product(unit_expr(dA("x")), unit_expr(dAstar("x")))
    assert list(prod.coeffs) == [DT]
    assert np.allclose(prod.coeff(DT), np.eye(2))

    prod = ito_product(unit_expr(dL("x", "y")), unit_expr(dL("y", "x")))
    assert list(prod.coeffs) == [dL("x", "x")]

    anything = random_expr(np.random.default_rng(0))
    assert ito_product(unit_expr(dAstar("x")), anything).is_zero(0.0)
    assert ito_product(unit_expr(dAstar("y")), anything).is_zero(0.0)


def test_table_associativity_exhaustive():
    keys = basis_increments("xy")
    exprs = {k: unit_expr(k) for k in keys}
    for k1 in keys:
        for k2 in keys:
            for k3 in keys:
                left = ito_product(ito_product(exprs[k1], exprs[k2]), exprs[k3])
                right = ito_product(exprs[k1], ito_product(exprs[k2], exprs[k3]))
                assert (left - right).is_zero(0.0), (k1, k2, k3)


def test_adjoint_antihomomorphism():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, y = random_expr(rng), random_expr(rng)
        lhs = ito_product(x, y).adjoint()
        rhs = ito_product(y.adjoint(), x.adjoint())
        assert (lhs - rhs).max_norm() < 1e-12


def test_adjoint_involution_and_labels():
    rng = np.random.default_rng(2)
    x = random_expr(rng)
    assert (x.adjoint().adjoint() - x).max_norm() == 0.0
    e = unit_expr(dL("x", "y")).scale(2j)
    adj = e.adjoint()
    assert list(adj.coeffs) == [dL("y", "x")]
    assert np.allclose(adj.coeff(dL("y", "x")), -2j * np.eye(2))


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

def test_gauge_circular_formula():
    # dL[+,+] = (dL[x,x] + dL[y,y] - i dL[y,x] + i dL[x,y]) / 2
    plus = basis_change(unit_expr(dL("+", "+"), basis="circular"), "xy")
    assert np.allclose(plus.coeff(dL("x", "x")), 0.5 * np.eye(2))
    assert np.allclose(plus.coeff(dL("y", "y")), 0.5 * np.eye(2))
    assert np.allclose(plus.coeff(dL("x", "y")), 0.5j * np.eye(2))
    assert np.allclose(plus.coeff(dL("y", "x")), -0.5j * np.eye(2))


def test_field_circular_formula():
    # dA[+] = -(dA[x] + i dA[y]) / sqrt(2); the creator takes the conjugate weights
    r = 1.0 / np.sqrt(2.0)
    plus = basis_change(unit_expr(dA("+"), basis="circular"), "xy")
    assert np.allclose(plus.coeff(dA("x")), -r * np.eye(2))
    assert np.allclose(plus.coeff(dA("y")), -1j * r * np.eye(2))
    plus = basis_change(unit_expr(dAstar("+"), basis="circular"), "xy")
    assert np.allclose(plus.coeff(dAstar("x")), -r * np.eye(2))
    assert np.allclose(plus.coeff(dAstar("y")), 1j * r * np.eye(2))


def test_counting_sum_is_basis_free():
    # dL[xi,xi] + dL[eta,eta] = dL[x,x] + dL[y,y]
    total = basis_change(
        unit_expr(dL("xi", "xi"), basis="xieta") + unit_expr(dL("eta", "eta"), basis="xieta"),
        "xy",
    ).prune(1e-15)
    assert sorted(total.coeffs) == sorted([dL("x", "x"), dL("y", "y")])
    assert np.allclose(total.coeff(dL("x", "x")), np.eye(2))
    assert np.allclose(total.coeff(dL("y", "y")), np.eye(2))


def test_dt_unchanged_under_basis_change():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((2, 2))
    expr = QNoiseExpr(2, "xy", {DT: c})
    for target in ("circular", "xieta"):
        out = basis_change(expr, target)
        assert list(out.coeffs) == [DT]
        assert np.allclose(out.coeff(DT), c)


def test_basis_roundtrip_identity():
    # every ordered pair of bases maps directly, circular <-> xieta included,
    # and agrees with the route through xy
    rng = np.random.default_rng(4)
    xy = random_expr(rng)
    for source in BASES:
        expr = basis_change(xy, source)
        for target in BASES:
            there = basis_change(expr, target)
            assert there.basis == target
            via_xy = basis_change(basis_change(expr, "xy"), target)
            assert (there - via_xy).max_norm() < 1e-14, (source, target)
            back = basis_change(there, source)
            assert (back - expr).max_norm() < 1e-14, (source, target)


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        basis_change(unit_expr(DT), "diagonal")


# ---------------------------------------------------------------------------
# QSDE coefficient records
# ---------------------------------------------------------------------------

def test_u0_circular_view():
    params = params_for()
    m = params.space.fz_levels()
    circ = basis_change(qsde_coefficients("U0", params), "circular").prune(1e-15)
    assert sorted(circ.coeffs) == sorted([dL("+", "+"), dL("-", "-")])
    assert np.allclose(circ.coeff(dL("+", "+")), np.diag(np.exp(1j * params.kappa * m) - 1))
    assert np.allclose(circ.coeff(dL("-", "-")), np.diag(np.exp(-1j * params.kappa * m) - 1))


def test_u0_kappa_zero_is_zero():
    params = ModelParams.build(j=1.5, alpha=2.0, kappa=0.0, T=1.0, dt=1e-2)
    assert qsde_coefficients("U0", params).prune(1e-15).is_zero(0.0)


def test_ubar_coefficients():
    params = params_for(j=1.0, alpha=3.0, kappa=0.4, phi=0.9)
    m = params.space.fz_levels()
    sqm = np.sqrt(params.M)
    g = qsde_coefficients("Ubar", params)
    assert np.allclose(g.coeff(dA("y")), sqm * np.exp(-1j * params.phi) * np.diag(m))
    assert np.allclose(g.coeff(dAstar("y")), -sqm * np.exp(1j * params.phi) * np.diag(m))
    assert np.allclose(g.coeff(DT), -0.5 * params.M * np.diag(m**2))
    assert dA("x") not in g.coeffs and dAstar("x") not in g.coeffs


def test_v_and_vprime_share_vacuum_visible_coefficients():
    # the record propagators must agree with U / Uprime on the creation and
    # dt coefficients; that is what makes the Bayes-formula substitution work
    params = params_for(alpha=1.7, kappa=1.1, phi=2.0)
    u = qsde_coefficients("U", params)
    v = qsde_coefficients("V", params)
    for key in (dAstar("x"), dAstar("y"), DT):
        assert np.max(np.abs(u.coeff(key) - v.coeff(key))) < 1e-14
    uprime = qsde_coefficients("Uprime", params)
    vprime = qsde_coefficients("Vprime", params)
    for key in (dAstar("x"), dAstar("y"), DT):
        assert np.max(np.abs(uprime.coeff(key) - vprime.coeff(key))) < 1e-14


def test_vprime_in_polarimeter_channels():
    # each channel a = xi, eta counts through its gauge term L_a - 1 and
    # carries the displaced drive f / sqrt(2); there is no cross-channel gauge
    params = params_for(alpha=1.7, kappa=1.1, phi=2.0)
    f = params.drive(0.0)
    lxi, leta = l_xi_eta(params.kappa, params.space)
    eye = np.eye(params.space.dim)
    want = {DT: 0.5 * abs(f) ** 2 * (lxi + leta - 2 * eye)}
    for ch, lch in (("xi", lxi - eye), ("eta", leta - eye)):
        want[dL(ch, ch)] = lch
        want[dA(ch)] = np.conj(f) / np.sqrt(2.0) * lch
        want[dAstar(ch)] = f / np.sqrt(2.0) * lch
    got = basis_change(qsde_coefficients("Vprime", params), "xieta").prune(1e-14)
    assert sorted(got.coeffs) == sorted(want)
    for key, c in want.items():
        assert np.max(np.abs(got.coeff(key) - c)) < 1e-14, key


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        qsde_coefficients("W", params_for())


# ---------------------------------------------------------------------------
# unitarity
# ---------------------------------------------------------------------------

def test_unitarity_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(25):
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
            defect = unitarity_defect(qsde_coefficients(name, params, t))
            assert defect.max_norm() < 1e-12, name


def test_weyl_unitarity_needs_squared_dt_coefficient():
    params = params_for()
    g = qsde_coefficients("Weyl", params)
    assert unitarity_defect(g).max_norm() < 1e-12
    # the linear-in-|f| variant is not an isometry
    broken = g.set(DT, -0.5 * abs(params.drive(0.0)) * np.eye(g.dim, dtype=complex))
    assert unitarity_defect(broken).max_norm() > 1e-3


def test_broken_isometry_shows_on_dt():
    params = params_for()
    g = qsde_coefficients("U", params)
    broken = QNoiseExpr(g.dim, g.basis, {k: c for k, c in g.coeffs.items() if k != DT})
    defect = unitarity_defect(broken)
    assert defect.max_norm() > 1e-3
    assert np.max(np.abs(defect.coeff(DT))) > 1e-3


# ---------------------------------------------------------------------------
# generator composition
# ---------------------------------------------------------------------------

def test_qsde_product_weyl_adjoint_with_u_gives_uprime():
    rng = np.random.default_rng(6)
    for _ in range(5):
        params = ModelParams.build(
            j=rng.choice([0.5, 1.0, 2.0]),
            alpha=rng.uniform(0.5, 3.0),
            kappa=rng.uniform(0.0, 2 * np.pi),
            phi=rng.uniform(0.0, 2 * np.pi),
            T=1.0,
            dt=1e-2,
        )
        weyl_adj = qsde_coefficients("Weyl", params).adjoint()
        u = qsde_coefficients("U", params)
        prod = qsde_product(weyl_adj, u)
        uprime = qsde_coefficients("Uprime", params)
        assert (prod - uprime).max_norm() < 1e-13


def test_uprime_dt_coefficient():
    params = params_for(alpha=2.2, kappa=0.9)
    m = params.space.fz_levels()
    fp = params.drive_power(0.0)
    prod = qsde_product(qsde_coefficients("Weyl", params).adjoint(), qsde_coefficients("U", params))
    expected = fp * np.diag(np.cos(params.kappa * m) - 1.0)
    assert np.max(np.abs(prod.coeff(DT) - expected)) < 1e-12


def test_qsde_product_with_zero():
    g1 = qsde_coefficients("U", params_for())
    zero = QNoiseExpr.zero(g1.dim)
    assert (qsde_product(g1, zero) - g1).max_norm() == 0.0
    assert (qsde_product(zero, g1) - g1).max_norm() == 0.0


def test_vacuum_only_products_make_no_dt():
    # annihilator times gauge cannot close into dt
    g1 = unit_expr(dA("x"))
    g2 = unit_expr(dL("x", "y")) + unit_expr(dL("y", "x"))
    prod = ito_product(g1, g2)
    assert DT not in prod.prune(1e-15).coeffs
    # only dA . dA* pairs create a dt term
    g3 = unit_expr(dAstar("x"))
    assert DT in ito_product(g1, g3).coeffs
