import numpy as np
import pytest

from spinprobe.spin_algebra import SpinSpace, coherent_x_state, make_spin_ops, random_density, l_xi_eta
from spinprobe.generators import ModelParams, lindblad_schrodinger
from spinprobe import trajectory as traj
from spinprobe.filters import (
    JUMP_BOUND,
    FilterState,
    ObservationIncrement,
    build_kernels,
    check_jump_bound,
    finish_step,
    homodyne_raw,
    increment,
    limit_raw,
    pol_drift_raw,
    pol_jump_raw,
    polarimetry_rates,
    run_filter,
    step,
)


def params_for(j=0.5, alpha=2.0, kappa=0.5, **kw):
    kw.setdefault("T", 1.0)
    kw.setdefault("dt", 1e-3)
    return ModelParams.build(j=j, alpha=alpha, kappa=kappa, **kw)


def fz_eigenstate(space, index):
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rates_balanced_without_coupling():
    p = params_for(kappa=0.0, alpha=3.0)
    st = FilterState.initial("polarimetry", "normalized", p)
    r_xi, r_eta = polarimetry_rates(st, p)
    assert r_xi == pytest.approx(0.5 * p.alpha**2, abs=1e-12)
    assert r_eta == pytest.approx(0.5 * p.alpha**2, abs=1e-12)


def test_rates_top_level_quarter_wave():
    p = params_for(j=0.5, kappa=np.pi / 2, alpha=1.5)
    st = FilterState(fz_eigenstate(p.space, 0), "polarimetry", "normalized")
    r_xi, r_eta = polarimetry_rates(st, p)
    assert r_xi == pytest.approx(p.alpha**2, abs=1e-12)
    assert r_eta == pytest.approx(0.0, abs=1e-12)


def test_rates_sum_to_flux():
    rng = np.random.default_rng(0)
    for j in (0.5, 1.5):
        p = params_for(j=j, alpha=2.5, kappa=1.1)
        for _ in range(10):
            st = FilterState(random_density(p.space, rng).rho, "polarimetry", "normalized")
            r_xi, r_eta = polarimetry_rates(st, p)
            assert r_xi + r_eta == pytest.approx(p.alpha**2, abs=1e-12)


# ---------------------------------------------------------------------------
# counting filter
# ---------------------------------------------------------------------------

def test_polarimetry_count_projects_quarter_wave():
    # brute-force 2x2 oracle: L_xi = diag(sqrt 2, 0) applied to the coherent
    # state leaves the top F_z level
    p = params_for(j=0.5, kappa=np.pi / 2, alpha=1.0)
    st = FilterState.initial("polarimetry", "normalized", p)
    out = step(st, ObservationIncrement.count("xi", p.dt), p)
    assert np.max(np.abs(out.rho - np.diag([1.0, 0.0]))) < 1e-12


def test_polarimetry_diagonal_states_invariant():
    rng = np.random.default_rng(1)
    p = params_for(j=1.0, alpha=2.0, kappa=0.8)
    rho = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
    st = FilterState(rho.copy(), "polarimetry", "normalized")
    drifted = step(st, ObservationIncrement.none(p.dt), p)
    off = drifted.rho - np.diag(np.diag(drifted.rho))
    assert np.max(np.abs(off)) < 1e-15
    jumped = step(st, ObservationIncrement.count("eta", p.dt), p)
    lxi, leta = l_xi_eta(p.kappa, p.space)
    oracle = leta @ rho @ leta
    oracle /= np.trace(oracle).real
    assert np.max(np.abs(jumped.rho - oracle)) < 1e-13


def test_polarimetry_no_coupling_any_record_constant():
    p = params_for(j=1.0, kappa=0.0, alpha=3.0, dt=1e-2, T=0.1)
    rho0 = coherent_x_state(p.space).rho
    events = np.array([0, 1, 0, 2, 1, 0, 0, 2, 0, 1])
    run = run_filter("polarimetry", "normalized", p, events, keep_states=True)
    assert np.max(np.abs(run.states - rho0)) < 1e-12


def test_counting_drift_is_identity_without_field():
    rng = np.random.default_rng(2)
    p = params_for(j=1.5, alpha=2.0, kappa=0.9)
    kern = build_kernels(p)
    rho = random_density(p.space, rng).rho
    out = pol_drift_raw(rho, kern)
    assert np.max(np.abs(out - rho)) < 1e-16


def test_impossible_count_rejected():
    p = params_for(j=0.5, kappa=np.pi / 2)
    st = FilterState(fz_eigenstate(p.space, 0), "polarimetry", "normalized")
    with pytest.raises(ValueError):
        step(st, ObservationIncrement.count("eta", p.dt), p)


def test_zakai_raw_linearity():
    rng = np.random.default_rng(3)
    p = params_for(j=1.0, alpha=2.0, kappa=0.7)
    kern = build_kernels(p)
    a, b = 0.6, -1.3

    def rand_mat():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    for step in (
        lambda m: pol_drift_raw(m, kern),
        lambda m: pol_jump_raw(pol_drift_raw(m, kern), kern, "xi"),
        lambda m: homodyne_raw(m, kern, 0.037, p.alpha),
        lambda m: limit_raw(m, kern, -0.021),
    ):
        s1, s2 = rand_mat(), rand_mat()
        assert np.max(np.abs(step(a * s1 + b * s2) - a * step(s1) - b * step(s2))) < 1e-12


def test_zakai_likelihood_oracle_diagonal_state():
    # for an F_z eigenstate the record likelihood factorizes over events:
    # no-count steps contribute 1, an a-count multiplies the trace by the
    # diagonal entry of L_a^2
    p = params_for(j=1.0, alpha=2.0, kappa=0.6, dt=1e-2, T=0.2)
    level = 1  # m = 0 is boring (rates balanced); use index 1 -> m = 0... pick 0
    level = 0
    rho0 = fz_eigenstate(p.space, level)
    events = np.array([0, 1, 0, 0, 2, 0, 1, 1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 2])
    run = run_filter("polarimetry", "linear", p, events, rho0=rho0)
    lxi2, leta2 = build_kernels(p).level_rows[4:6]
    expected = 0.0
    for ev in events:
        if ev == 1:
            expected += np.log(0.5 * lxi2[level] * 2)  # pi_a relative to rate alpha^2/2
        elif ev == 2:
            expected += np.log(0.5 * leta2[level] * 2)
    # the stored loglik tracks trace factors: jump factor is pi_a = L_a^2 entry
    expected = sum(np.log(lxi2[level]) for ev in events if ev == 1)
    expected += sum(np.log(leta2[level]) for ev in events if ev == 2)
    assert run.loglik[-1] == pytest.approx(expected, abs=1e-10)


def test_zakai_no_coupling_trace_constant():
    p = params_for(j=0.5, kappa=0.0, alpha=3.0, dt=1e-3, T=0.05)
    rec = traj.simulate_polarimetry(p, seed=5)
    run = run_filter("polarimetry", "linear", p, rec.events)
    assert np.max(np.abs(run.loglik)) < 1e-10


def _jump_bound_verdict(check, params, times):
    try:
        check("polarimetry", params, times)
    except ValueError as exc:
        return str(exc)
    return None


def _jump_bound_by_loop(scheme, params, times):
    """The bound as a loop over the times, each read through ModelParams.drive_power."""
    a2dt = max(params.drive_power(t) for t in times) * params.dt
    if a2dt > JUMP_BOUND:
        raise ValueError(f"alpha^2 dt = {a2dt:.4g} exceeds the one-jump bound {JUMP_BOUND}; reduce dt")


def test_jump_bound_matches_the_loop_over_the_grid():
    # a strong entry (alpha^2 dt = 0.4) counts only if it is in force at some
    # step start, by alpha_of's t0 <= t + GRID_TOL rule
    dt, T, tol = 1e-3, 0.2, 1e-9
    last = (round(T / dt) - 1) * dt
    starts = [last, T, last + tol, last - 0.5 * tol, last + 0.5 * tol, last + 2 * tol, T - 0.5 * tol, T + 0.5 * tol, 0.05]
    rng = np.random.default_rng(23)
    schedules = [((0.0, 3.0), (t0, 20.0)) for t0 in starts]
    schedules += [((0.0, 20.0), (t0, 3.0)) for t0 in starts]
    for _ in range(300):
        # random starts, some packed inside one step and some past T; amplitudes around sqrt(0.1 / dt) = 10
        t0s = np.sort(rng.choice(np.r_[rng.uniform(0.0, T + 0.01, 4), rng.uniform(0.0, 3 * dt, 2)],
                                 rng.integers(0, 6), replace=False))
        schedules.append(((0.0, rng.uniform(0.0, 11.0)),) + tuple((t0, rng.uniform(0.0, 15.0)) for t0 in t0s if t0 > 0))
    schedules.append(None)
    verdicts = set()
    for sched in schedules:
        p = params_for(alpha=3.0, kappa=0.1, dt=dt, T=T, alpha_schedule=sched)
        # the per-step drives that the propagation loop reads are alpha_of's at every step start
        drives = p.alphas(p.time_grid()[:-1])
        assert np.array_equal(drives, [p.alpha_of(i * dt) for i in range(p.n_steps)]), sched
        for times in (p.time_grid()[:-1], [last], [0.0], rng.uniform(0.0, T, 3)):
            want = _jump_bound_verdict(_jump_bound_by_loop, p, times)
            assert _jump_bound_verdict(check_jump_bound, p, times) == want, (sched, times)
            verdicts.add(want is None)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# pathwise Kallianpur-Striebel across schemes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
@pytest.mark.parametrize("j", [0.5, 1.0])
def test_kallianpur_striebel_pathwise(scheme, j):
    p = params_for(j=j, alpha=3.0, kappa=0.2, dt=1e-3, T=0.2)
    sim = {
        "polarimetry": traj.simulate_polarimetry,
        "homodyne": traj.simulate_homodyne,
        "limit": traj.simulate_limit,
    }[scheme]
    for seed in (1, 2):
        rec = sim(p, seed=seed, keep_states=True)
        obs = rec.events if scheme == "polarimetry" else rec.dy
        lin = run_filter(scheme, "linear", p, obs, keep_states=True)
        assert np.max(np.abs(lin.states - rec.states)) < 1e-8
        norm = run_filter(scheme, "normalized", p, obs, keep_states=True)
        assert np.max(np.abs(norm.states - rec.states)) < 1e-8
        assert np.all(norm.loglik == 0.0)


# ---------------------------------------------------------------------------
# diffusive filters
# ---------------------------------------------------------------------------

def test_homodyne_eigenstate_fixed_point():
    p = params_for(j=1.0, alpha=2.0, kappa=0.5, dt=1e-3, T=0.05)
    rho0 = fz_eigenstate(p.space, 2)
    rng = np.random.default_rng(4)
    dy = 2 * p.alpha * np.sin(p.kappa * p.space.fz_levels()[2]) * p.dt + np.sqrt(p.dt) * rng.standard_normal(50)
    run = run_filter("homodyne", "normalized", p, dy, rho0=rho0, keep_states=True)
    assert np.max(np.abs(run.states - rho0)) < 1e-12


def test_homodyne_no_coupling_constant():
    p = params_for(j=0.5, alpha=2.0, kappa=0.0, dt=1e-3, T=0.05)
    rng = np.random.default_rng(5)
    rho0 = coherent_x_state(p.space).rho
    run = run_filter("homodyne", "normalized", p, np.sqrt(p.dt) * rng.standard_normal(50), keep_states=True)
    assert np.max(np.abs(run.states - rho0)) < 1e-12


def test_homodyne_small_kappa_moment_update():
    # d<Fz> = 2 alpha kappa Var(Fz) (dy - 2 alpha kappa <Fz> dt) + O(kappa^3)
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    for kappa in (1e-2, 1e-3):
        p = params_for(j=0.5, alpha=2.0, kappa=kappa, dt=1e-6)
        fz = make_spin_ops(p.space)[2]
        mean0 = np.trace(rho @ fz).real
        var0 = np.trace(rho @ fz @ fz).real - mean0**2
        for g in (1.0, -0.6):
            dy = float(np.sqrt(p.dt) * g)
            st = FilterState(rho.copy(), "homodyne", "normalized")
            out = step(st, ObservationIncrement.diffusive(dy, p.dt), p)
            got = np.trace(out.rho @ fz).real - mean0
            formula = 2 * p.alpha * kappa * var0 * (dy - 2 * p.alpha * kappa * mean0 * p.dt)
            assert abs(got - formula) <= 10 * kappa**3 * (abs(dy) + p.dt)


def test_limit_eigenstate_fixed_point_all_records():
    p = params_for(j=1.0, alpha=2.0, kappa=0.5, dt=1e-3, T=0.05)
    rho0 = fz_eigenstate(p.space, 0)
    rng = np.random.default_rng(6)
    run = run_filter("limit", "normalized", p, rng.standard_normal(50) * 0.1, rho0=rho0, keep_states=True)
    assert np.max(np.abs(run.states - rho0)) < 1e-12


def test_limit_estimator_driven_by_innovation_only():
    # substituting F_z: dpi(F_z) = 2 sqrt(M) Var(F_z) dW with no drift term
    p = params_for(j=1.0, alpha=2.0, kappa=0.5, dt=1e-8)
    rng = np.random.default_rng(7)
    rho = random_density(p.space, rng).rho
    fz = make_spin_ops(p.space)[2]
    mean0 = np.trace(rho @ fz).real
    var0 = np.trace(rho @ fz @ fz).real - mean0**2
    g = 0.7
    dy = 2 * np.sqrt(p.M) * mean0 * p.dt + np.sqrt(p.dt) * g
    st = FilterState(rho, "limit", "normalized")
    out = step(st, ObservationIncrement.diffusive(dy, p.dt), p)
    got = np.trace(out.rho @ fz).real - mean0
    dw = dy - 2 * np.sqrt(p.M) * mean0 * p.dt
    assert abs(got - 2 * np.sqrt(p.M) * var0 * dw) <= 5 * (dy**2 + p.dt)


def test_normalized_step_consistent_with_innovations_form():
    # one Euler step of the innovations-form normalized equation differs
    # from the normalization of the exact linear step by O(dt) only
    p0 = dict(j=1.0, alpha=2.0, kappa=0.5)
    rng = np.random.default_rng(8)
    rho = random_density(SpinSpace.from_j(1.0), rng).rho
    g = 0.83
    diffs = []
    for dt in (1e-3, 1e-4, 1e-5):
        p = params_for(**p0, dt=dt, T=10 * dt)
        kern = build_kernels(p)
        dy = float(np.sqrt(dt) * g)
        st = FilterState(rho.copy(), "homodyne", "normalized")
        ours = step(st, ObservationIncrement.diffusive(dy, dt), p).rho
        s = kern.level_rows[3]   # sin(kappa m)
        s_exp = np.trace(rho @ np.diag(s)).real
        coupling = np.add.outer(s, s) * rho - 2 * s_exp * rho
        literal = (
            rho
            + lindblad_schrodinger(rho, p) * dt
            + p.alpha * coupling * (dy - 2 * p.alpha * s_exp * dt)
        )
        literal /= np.trace(literal).real
        diffs.append(np.max(np.abs(ours - literal)))
    assert diffs[0] / diffs[1] == pytest.approx(10.0, rel=0.3)
    assert diffs[1] / diffs[2] == pytest.approx(10.0, rel=0.3)


@pytest.mark.parametrize("scheme", ["homodyne", "limit"])
@pytest.mark.parametrize("j", [0.5, 2.0, 5.0])
def test_exact_linear_filter_closed_form(scheme, j):
    # for B = 0 the linear filter is a function of the integrated record Y_T
    # alone; the stepped filter must reproduce it to rounding after 1000 steps
    p = params_for(j=j, alpha=3.0, kappa=0.2, dt=1e-3, T=1.0)
    rng = np.random.default_rng(13)
    rho0 = random_density(p.space, rng).rho
    dy = 0.5 * p.dt + np.sqrt(p.dt) * rng.standard_normal(p.n_steps)
    y, t = dy.sum(), p.T
    m = p.space.fz_levels()
    if scheme == "limit":
        d = np.exp(-p.M * m**2 * t + np.sqrt(p.M) * m * y)
        sigma = d[:, None] * rho0 * d[None, :]
    else:
        a, c, s = p.alpha, np.cos(p.kappa * m), np.sin(p.kappa * m)
        g = np.exp(-0.5 * a**2 * t * s**2 + a * y * s)
        sigma = np.exp(a**2 * t * (np.outer(c, c) - 1.0)) * (g[:, None] * rho0 * g[None, :])
    tr = np.trace(sigma).real
    run = run_filter(scheme, "linear", p, dy, rho0=rho0, keep_states=True)
    assert np.max(np.abs(run.states[-1] - sigma / tr)) < 1e-12
    assert abs(run.loglik[-1] - np.log(tr)) < 1e-12


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
@pytest.mark.parametrize("j,B", [(5.0, 0.0), (2.0, 0.5)])
def test_filter_steps_positive_without_projection(scheme, j, B, monkeypatch):
    # the filter path never screens or projects; positivity comes from the step itself
    from spinprobe import filters

    def forbidden(*args, **kwargs):
        raise AssertionError("the filter path screened or projected a state")

    monkeypatch.setattr(filters, "project_positive", forbidden)
    monkeypatch.setattr(filters, "min_eig_hermitian", forbidden)
    p = params_for(j=j, alpha=4.0, kappa=0.25, B=B, dt=1e-3, T=0.1)
    rho0 = coherent_x_state(p.space).rho
    col = traj._Collector(scheme, p.n_steps, 20, p.space.dim, keep_states=True)
    traj._simulate_block(scheme, p, base_seed=3, indices=list(range(20)), rho0=rho0, collector=col)
    assert np.min(np.linalg.eigvalsh(col.states)) >= -1e-12
    obs = col.events if scheme == "polarimetry" else col.dy
    for b in range(3):
        run = run_filter(scheme, "linear", p, obs[b], rho0=rho0, keep_states=True)
        assert np.min(np.linalg.eigvalsh(run.states)) >= -1e-12


@pytest.mark.parametrize("j", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("B", [0.0, 0.5])
def test_homodyne_raw_matches_direct_factorization(j, B):
    # oracle: the unsplit Schur factor C = exp(a^2 dt (c c^T - 1)) and g = exp(-a^2 dt s^2 / 2 + a dy s),
    # built here from cos/sin; homodyne_raw takes C_hat o (q g sigma g q), Strang-split for B != 0
    rng = np.random.default_rng(16)
    p = params_for(j=j, alpha=3.0, kappa=0.3, B=B, dt=1e-3)
    kern = build_kernels(p)
    m = p.space.fz_levels()
    c, s, a = np.cos(p.kappa * m), np.sin(p.kappa * m), p.alpha
    C = np.exp(a * a * p.dt * (np.outer(c, c) - 1.0))
    sigma = np.stack([random_density(p.space, rng).rho for _ in range(3)])
    dy = np.sqrt(p.dt) * rng.standard_normal(3)
    for k in range(3):
        g = np.exp(-0.5 * a * a * p.dt * s**2 + a * dy[k] * s)
        inner = sigma[k] if B == 0.0 else kern.U_half @ sigma[k] @ kern.U_half.conj().T
        want = C * (g[:, None] * inner * g[None, :])
        if B != 0.0:
            want = kern.U_half @ want @ kern.U_half.conj().T
        assert np.max(np.abs(homodyne_raw(sigma[k], kern, dy[k], a) - want)) < 1e-13
        assert np.max(np.abs(homodyne_raw(sigma, kern, dy, a)[k] - want)) < 1e-13


def test_pol_jump_raw_codes_match_channel_masks():
    # per-state event codes apply the channel masks L_a o L_a^T, and code 0 leaves a state unchanged, bit for bit
    rng = np.random.default_rng(17)
    p = params_for(j=1.5, alpha=2.0, kappa=0.7, B=0.5)
    kern = build_kernels(p)
    m = p.space.fz_levels()
    lxi, leta = np.cos(p.kappa * m) + np.sin(p.kappa * m), np.cos(p.kappa * m) - np.sin(p.kappa * m)
    sigma = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    out = pol_jump_raw(sigma, kern, np.array([0, 1, 2], dtype=np.int8))
    assert np.array_equal(out[0], sigma[0])
    assert np.array_equal(out[1], np.outer(lxi, lxi) * sigma[1])
    assert np.array_equal(out[2], np.outer(leta, leta) * sigma[2])
    assert np.array_equal(out[1], pol_jump_raw(sigma[1], kern, "xi"))
    assert np.array_equal(out[2], pol_jump_raw(sigma[2], kern, "eta"))


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne"])
@pytest.mark.parametrize("j", [0.5, 2.0, 5.0])
def test_alpha_schedule_level_path_matches_matrix_step(scheme, j):
    # a drive switch at t = 0.1: the B = 0 replay (level weights, one LevelSchur per drive)
    # follows the matrix step across it; polarimetry also at a constant drive with
    # many counts, where only the states that count take a step
    cases = [params_for(j=j, alpha=2.0, kappa=0.3, dt=1e-3, T=0.2, alpha_schedule=((0.0, 2.0), (0.1, 4.0)))]
    assert set(build_kernels(cases[0]).C_levels) == {2.0, 4.0}
    if scheme == "polarimetry":
        cases.append(params_for(j=j, alpha=9.0, kappa=0.3, dt=1e-3, T=0.2))
    sim = traj.simulate_polarimetry if scheme == "polarimetry" else traj.simulate_homodyne
    for p in cases:
        rec = sim(p, seed=19)
        obs = rec.events if scheme == "polarimetry" else rec.dy
        if p.alpha_schedule is None:
            assert np.count_nonzero(obs) >= 8
        run = run_filter(scheme, "linear", p, obs, keep_states=True)
        st = FilterState.initial(scheme, "linear", p)
        for k, ob in enumerate(obs):
            if scheme == "polarimetry":
                inc = ObservationIncrement(p.dt, event=(None, "xi", "eta")[ob])
            else:
                inc = ObservationIncrement.diffusive(ob, p.dt)
            st = step(st, inc, p)
            assert np.max(np.abs(st.rho - run.states[k + 1])) < 1e-12, (k, st.t)
            assert st.loglik == pytest.approx(run.loglik[k + 1], abs=1e-12)
        assert st.t == pytest.approx(p.T)


def test_kernels_built_once_and_read_only():
    p = params_for(j=2.0, alpha=3.0, kappa=0.2, B=0.5)
    assert p.space is p.space
    kern = build_kernels(p)
    assert build_kernels(params_for(j=2.0, alpha=3.0, kappa=0.2, B=0.5)) is kern
    for arr in (kern.count_rows, kern.levels, kern.U_half, kern.C_levels[p.alpha].C_hat):
        with pytest.raises(ValueError):
            arr[0, ...] = 0.0
    with pytest.raises(TypeError):
        kern.C_levels[p.alpha + 1.0] = kern.C_levels[p.alpha]


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
def test_fz_diagonal_invariance(scheme):
    rng = np.random.default_rng(9)
    p = params_for(j=1.5, alpha=2.0, kappa=0.8, dt=1e-3, T=0.05)
    rho0 = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
    sim = {
        "polarimetry": traj.simulate_polarimetry,
        "homodyne": traj.simulate_homodyne,
        "limit": traj.simulate_limit,
    }[scheme]
    rec = sim(p, seed=11, rho0=rho0, keep_states=True)
    off = rec.states - np.einsum("tij,ij->tij", rec.states, np.eye(4))
    assert np.max(np.abs(off)) < 1e-14


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
def test_positivity_along_trajectories(scheme):
    # 1000 random trajectories per scheme: 10 random initial states, 100
    # record realizations each, all steps checked
    rng = np.random.default_rng(10)
    p = params_for(j=1.0, alpha=3.0, kappa=0.3, dt=1e-3, T=0.1)
    for block in range(10):
        rho0 = random_density(p.space, rng).rho
        col = traj._Collector(scheme, p.n_steps, 100, p.space.dim, keep_states=True)
        traj._simulate_block(scheme, p, base_seed=block, indices=list(range(100)), rho0=rho0, collector=col)
        assert np.min(np.linalg.eigvalsh(col.states)) >= -1e-7


def test_project_positive_clips_and_renormalizes():
    from spinprobe.filters import project_positive

    bad = np.diag([1.05, -0.05]).astype(complex)
    for rho in (bad, np.diag([1.0 + 5e-8, -5e-8])):
        out = project_positive(rho)
        assert np.linalg.eigvalsh(out)[0] >= 0.0
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


def test_bfield_filtering_precession():
    # kappa = 0 with a field: the record carries no information, so every
    # filter reduces to Larmor precession of the means
    p = params_for(j=1.0, alpha=2.0, kappa=0.0, B=1.3, dt=1e-4, T=0.2)
    rec = traj.simulate_homodyne(p, seed=3)
    assert np.max(np.abs(rec.fx - np.cos(p.B * rec.t))) < 1e-3
    assert np.max(np.abs(rec.fz + np.sin(p.B * rec.t))) < 1e-3
    rec = traj.simulate_polarimetry(p, seed=3)
    assert np.max(np.abs(rec.fx - np.cos(p.B * rec.t))) < 1e-3


def test_count_regrouping_symmetric_identity():
    # regrouping the two count updates into sum/difference processes yields
    # 2(cXc + sXs) and the symmetric cross term 2(cXs + sXc)
    rng = np.random.default_rng(11)
    p = params_for(j=1.5, alpha=2.0, kappa=0.9)
    space = p.space
    lxi, leta = l_xi_eta(p.kappa, space)
    m = space.fz_levels()
    c = np.diag(np.cos(p.kappa * m)).astype(complex)
    s = np.diag(np.sin(p.kappa * m)).astype(complex)
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        total = lxi @ x @ lxi + leta @ x @ leta
        diff = lxi @ x @ lxi - leta @ x @ leta
        assert np.max(np.abs(total - 2 * (c @ x @ c + s @ x @ s))) < 1e-12
        assert np.max(np.abs(diff - 2 * (c @ x @ s + s @ x @ c))) < 1e-12


def test_mode_and_observation_validation():
    p = params_for()
    st_norm = FilterState.initial("polarimetry", "normalized", p)
    with pytest.raises(ValueError):
        step(st_norm, ObservationIncrement.none(2 * p.dt), p)
    with pytest.raises(ValueError):
        step(st_norm, ObservationIncrement.diffusive(0.1, p.dt), p)
    st_h = FilterState.initial("homodyne", "normalized", p)
    with pytest.raises(ValueError):
        step(st_h, ObservationIncrement.none(p.dt), p)
    with pytest.raises(ValueError):
        ObservationIncrement.count("zeta", p.dt)
    with pytest.raises(ValueError):
        ObservationIncrement.diffusive(np.inf, p.dt)
    with pytest.raises(ValueError, match="unknown mode"):
        run_filter("homodyne", "smoothed", p, np.zeros(p.n_steps))


@pytest.mark.parametrize("scheme", ["homodyne", "limit"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dy_rejected(scheme, bad):
    # a NaN or infinite dy must raise, not turn the replay's states, fz and loglik into NaN
    p = params_for(j=1.0, alpha=2.0, kappa=0.4, dt=1e-3, T=0.01)
    dy = np.sqrt(p.dt) * np.random.default_rng(14).standard_normal(p.n_steps)
    dy[4] = bad
    with pytest.raises(ValueError):
        run_filter(scheme, "linear", p, dy)
    # the step itself gives a NaN trace (the m = 0 level meets 0 * inf), which finish_step rejects
    rho0 = coherent_x_state(p.space).rho
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        finish_step(increment(scheme, rho0, bad, p.alpha_of(0.0), build_kernels(p)))


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
@pytest.mark.parametrize("j,B", [(0.5, 0.0), (2.0, 0.0), (2.0, 0.5)])
def test_run_filter_batch_equals_single_replays(scheme, j, B):
    # a (batch, n) record replays as one batch with a leading batch axis, bit
    # for bit the single replays; a single record still gives one row
    p = params_for(j=j, alpha=6.0, kappa=0.3, B=B, dt=1e-3, T=0.1)
    sim = {"polarimetry": traj.simulate_polarimetry, "homodyne": traj.simulate_homodyne,
           "limit": traj.simulate_limit}[scheme]
    obs = np.stack([getattr(sim(p, seed=s), "events" if scheme == "polarimetry" else "dy") for s in range(5)])
    if scheme == "polarimetry":
        assert np.count_nonzero(obs) >= 10
    fields = ("fx", "fz", "fz2", "var_z", "purity", "loglik", "states")
    for mode in ("linear", "normalized"):
        batch = run_filter(scheme, mode, p, obs, keep_states=True)
        assert np.array_equal(batch.t, p.time_grid())
        for b, record in enumerate(obs):
            one = run_filter(scheme, mode, p, record, keep_states=True)
            for name in fields:
                got, want = getattr(batch, name), getattr(one, name)
                assert got.shape == (len(obs),) + want.shape and np.array_equal(got[b], want), (mode, name)
            assert one.fx.shape == (p.n_steps + 1,)
    assert run_filter(scheme, "linear", p, obs[:2]).states is None
    for bad in (obs[:, :-1], obs[None], obs[0][:-1]):
        with pytest.raises(ValueError, match="observation increments"):
            run_filter(scheme, "linear", p, bad)


def test_step_functions_match_run_filter():
    # the public per-step API and the replay loop share kernels; one path of
    # each scheme must agree to rounding
    p = params_for(j=1.0, alpha=2.0, kappa=0.4, dt=1e-3, T=0.01)
    events = np.array([0, 1, 0, 0, 2, 0, 0, 0, 0, 1])
    run = run_filter("polarimetry", "linear", p, events, keep_states=True)
    st = FilterState.initial("polarimetry", "linear", p)
    for ev in events:
        obs = (
            ObservationIncrement.none(p.dt)
            if ev == 0
            else ObservationIncrement.count("xi" if ev == 1 else "eta", p.dt)
        )
        st = step(st, obs, p)
    assert np.max(np.abs(st.rho - run.states[-1])) < 1e-13
    assert st.loglik == pytest.approx(run.loglik[-1], abs=1e-12)

    rng = np.random.default_rng(12)
    dys = np.sqrt(p.dt) * rng.standard_normal(10)
    run = run_filter("limit", "normalized", p, dys, keep_states=True)
    st = FilterState.initial("limit", "normalized", p)
    for dy in dys:
        st = step(st, ObservationIncrement.diffusive(dy, p.dt), p)
    assert np.max(np.abs(st.rho - run.states[-1])) < 1e-13
    run = run_filter("homodyne", "linear", p, dys, keep_states=True)
    st = FilterState.initial("homodyne", "linear", p)
    for dy in dys:
        st = step(st, ObservationIncrement.diffusive(dy, p.dt), p)
    assert np.max(np.abs(st.rho - run.states[-1])) < 1e-13

    # run_filter keeps B = 0 states as level weights, on both sides of
    # LEVEL_LOOP_MAX; filters.step is the matrix reference. At B = 0.5 both
    # sides take the matrix step. The moments come from the level sums, not
    # from the states, so they are checked against the reference states too.
    cases = [(s, j, 0.0) for j in (0.5, 1.5, 5.0) for s in ("polarimetry", "homodyne", "limit")]
    for scheme, j, B in cases + [("homodyne", 2.0, 0.5)]:
        p = params_for(j=j, alpha=2.0, kappa=0.25, B=B, dt=1e-3, T=0.2)
        f_x, _, f_z = make_spin_ops(p.space)
        if scheme == "polarimetry":
            record = rng.choice(3, size=p.n_steps, p=[0.96, 0.02, 0.02])
            obs = [ObservationIncrement.none(p.dt) if ev == 0 else
                   ObservationIncrement.count("xi" if ev == 1 else "eta", p.dt) for ev in record]
        else:
            record = 0.3 * p.dt + np.sqrt(p.dt) * rng.standard_normal(p.n_steps)
            obs = [ObservationIncrement.diffusive(dy, p.dt) for dy in record]
        run = run_filter(scheme, "linear", p, record, keep_states=True)
        st = FilterState.initial(scheme, "linear", p)
        for k, ob in enumerate(obs):
            st = step(st, ob, p)
            assert np.max(np.abs(st.rho - run.states[k + 1])) < 1e-12, (scheme, j, k)
            assert st.loglik == pytest.approx(run.loglik[k + 1], abs=1e-12)
            fz, fz2 = st.expectation(f_z), st.expectation(f_z @ f_z)
            want = dict(fx=st.expectation(f_x), fz=fz, fz2=fz2, var_z=fz2 - fz**2, purity=st.expectation(st.rho))
            for name, value in want.items():
                assert getattr(run, name)[k + 1] == pytest.approx(value, abs=1e-12), (scheme, j, k, name)


@pytest.mark.parametrize("j", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("B", [0.5, 900.0])
def test_field_rotations_match_expm(j, B):
    # U and U_half come from one cached eigh of F_y
    from scipy.linalg import expm

    p = params_for(j=j, B=B, T=0.01)
    kern = build_kernels(p)
    f_y = make_spin_ops(p.space)[1]
    assert np.max(np.abs(kern.U - expm(-1j * B * p.dt * f_y))) < 1e-13
    assert np.max(np.abs(kern.U_half - expm(-0.5j * B * p.dt * f_y))) < 1e-13


def test_homodyne_strong_drive_no_diagonal_underflow():
    # alpha^2 dt = 1.6: the Schur factor's diagonal exp(-alpha^2 dt s_m^2)
    # underflows within a few hundred steps if kept in the shared level factor,
    # and the weights of the empty levels overflow unless they stay 0; only the
    # top level is populated and the filter must stay there
    p = params_for(j=2.0, alpha=40.0, kappa=0.5, dt=1e-3, T=1.0)
    rho0 = fz_eigenstate(p.space, 0)
    dy = np.sqrt(p.dt) * np.random.default_rng(15).standard_normal(p.n_steps)
    run = run_filter("homodyne", "linear", p, dy, rho0=rho0)
    assert np.max(np.abs(run.fz - 2.0)) < 1e-12
    st = FilterState(rho0, "homodyne", "linear")
    for y in dy:
        st = step(st, ObservationIncrement.diffusive(y, p.dt), p)
    assert run.loglik[-1] == pytest.approx(st.loglik, rel=1e-9)
