import threading

import numpy as np
import pytest

from spinprobe.spin_algebra import coherent_x_state
from spinprobe.generators import ModelParams, master_evolve
from spinprobe import trajectory as traj


def params_for(j=0.5, alpha=2.0, kappa=0.5, **kw):
    kw.setdefault("T", 1.0)
    kw.setdefault("dt", 1e-3)
    return ModelParams.build(j=j, alpha=alpha, kappa=kappa, **kw)


def test_seed_repeatability_bit_identical():
    p = params_for(alpha=3.0, kappa=0.3, T=0.2)
    a = traj.simulate_polarimetry(p, seed=42)
    b = traj.simulate_polarimetry(p, seed=42)
    assert np.array_equal(a.events, b.events)
    assert np.array_equal(a.fx, b.fx)
    assert np.array_equal(a.inn_xi, b.inn_xi)
    c = traj.simulate_polarimetry(p, seed=43)
    assert not np.array_equal(a.events, c.events)
    d1 = traj.simulate_homodyne(p, seed=42)
    d2 = traj.simulate_homodyne(p, seed=42)
    assert np.array_equal(d1.dy, d2.dy)


def test_counting_series_invariants():
    p = params_for(alpha=3.0, kappa=0.4, T=0.5)
    rec = traj.simulate_polarimetry(p, seed=1)
    assert np.all(np.diff(rec.counts_xi) >= 0)
    assert np.all(np.diff(rec.counts_eta) >= 0)
    assert np.array_equal(
        rec.y_plus * p.alpha**2, (rec.counts_xi + rec.counts_eta).astype(float)
    )
    assert np.array_equal(rec.y_minus * p.alpha, (rec.counts_xi - rec.counts_eta).astype(float))
    # one categorical draw per step: never two counts in one step
    assert np.max(rec.events) <= 2


def test_total_counts_poisson_no_coupling():
    # kappa = 0: total counts are Binomial(n, alpha^2 dt) ~ Poisson(alpha^2 T)
    p = params_for(alpha=5.0, kappa=0.0, T=1.0, dt=1e-3)
    s = traj.run_ensemble(p, "polarimetry", 400, base_seed=7)
    total = s.terminals["counts_xi"] + s.terminals["counts_eta"]
    lam = p.alpha**2 * p.T
    assert abs(total.mean() - lam) < 3 * np.sqrt(lam / 400)
    assert abs(total.var() - lam) < 3 * lam * np.sqrt(2.0 / 400) + lam * p.alpha**2 * p.dt


def test_diagonal_state_rate_split():
    # |m=+1/2> at kappa=pi/6: r_xi = alpha^2 (1 + sin kappa)/2 = 3/4 alpha^2
    kappa = np.pi / 6
    p = params_for(j=0.5, alpha=2.0, kappa=kappa, T=1.0, dt=1e-3)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    s = traj.run_ensemble(p, "polarimetry", 400, base_seed=11, rho0=rho0)
    lam_xi = 0.5 * p.alpha**2 * (1 + np.sin(kappa)) * p.T
    lam_eta = 0.5 * p.alpha**2 * (1 - np.sin(kappa)) * p.T
    assert abs(s.terminals["counts_xi"].mean() - lam_xi) < 3 * np.sqrt(lam_xi / 400)
    assert abs(s.terminals["counts_eta"].mean() - lam_eta) < 3 * np.sqrt(lam_eta / 400)


def test_homodyne_no_coupling_is_wiener():
    p = params_for(alpha=2.0, kappa=0.0, T=1.0, dt=1e-3)
    s = traj.run_ensemble(p, "homodyne", 500, base_seed=3)
    y = s.terminals["y"]
    assert abs(y.mean()) < 3 * np.sqrt(p.T / 500)
    assert abs(y.var() - p.T) < 3 * p.T * np.sqrt(2.0 / 500)


def test_limit_eigenstate_gaussian_output():
    # |m> fixed point: Ybar_T ~ Normal(2 sqrt(M) m T, T)
    p = params_for(j=0.5, alpha=2.0, kappa=0.5, T=1.0, dt=1e-3)  # M = 1
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    s = traj.run_ensemble(p, "limit", 500, base_seed=5, rho0=rho0)
    y = s.terminals["y"]
    assert abs(y.mean() - 1.0) < 3 * np.sqrt(p.T / 500)
    assert abs(y.var() - p.T) < 3 * p.T * np.sqrt(2.0 / 500)


def test_innovation_mean_and_quadratic_variation():
    p = params_for(j=0.5, alpha=2.0, kappa=0.4, T=0.5, dt=1e-3)
    rec = traj.simulate_homodyne(p, seed=9)
    steps = np.diff(rec.inn)
    assert abs(np.sum(steps)) == pytest.approx(abs(rec.inn[-1]), abs=1e-12)
    qv = np.sum(steps**2)
    assert abs(qv - p.T) < 5 * p.T * np.sqrt(2 * p.dt / p.T)
    s = traj.run_ensemble(p, "homodyne", 300, base_seed=13)
    inn_mean = s.series_mean["inn"]
    inn_sem = s.series_sem["inn"]
    mask = inn_sem > 0
    assert np.all(np.abs(inn_mean[mask]) <= 4 * inn_sem[mask])


def test_y_plus_concentrates_on_time():
    p = params_for(j=0.5, alpha=6.0, kappa=0.1, T=1.0, dt=1e-3)
    s = traj.run_ensemble(p, "polarimetry", 300, base_seed=17)
    y_plus = s.terminals["y_plus"]
    assert abs(y_plus.mean() - p.T) < 3 * np.sqrt(p.T / p.alpha**2 / 300)
    assert y_plus.var() <= 1.2 * p.T / p.alpha**2


def test_ensemble_single_matches_simulate():
    p = params_for(j=1.0, alpha=3.0, kappa=0.2, T=0.2)
    rec = traj.simulate_polarimetry(p, seed=23)
    s = traj.run_ensemble(p, "polarimetry", 1, base_seed=23)
    assert np.array_equal(s.series_mean["fx"], rec.fx)
    assert np.array_equal(s.series_mean["inn_xi"], rec.inn_xi)
    assert s.terminals["counts_xi"][0] == rec.counts_xi[-1]
    rec = traj.simulate_limit(p, seed=23)
    s = traj.run_ensemble(p, "limit", 1, base_seed=23)
    assert np.array_equal(s.series_mean["fz"], rec.fz)
    assert s.terminals["y"][0] == pytest.approx(rec.y[-1], abs=1e-15)
    # at B = 0 the states are built from level weights only at the snapshots
    # (and on every step for keep_states); both must build the same matrices
    p = params_for(j=5.0, alpha=4.0, kappa=0.25, T=0.05)
    rec = traj.simulate_homodyne(p, seed=23, keep_states=True)
    s = traj.run_ensemble(p, "homodyne", 1, base_seed=23)
    assert np.array_equal(s.mean_rho, rec.states[s.snapshot_indices])
    # every terminal is the last entry of the same path's record series; N = 300
    # runs as slices of 256 and 44 in the ensemble and as one block of records
    for j, B in ((0.5, 0.0), (2.0, 0.5)):
        p = params_for(j=j, alpha=3.0, kappa=0.2, B=B, T=0.1)
        for scheme in ("polarimetry", "homodyne", "limit"):
            s = traj.run_ensemble(p, scheme, 300, base_seed=23)
            records = traj._simulate_full(scheme, p, 23, None, False, list(range(300)))
            for name, values in s.terminals.items():
                if name == "qv":   # no record series: the sum of the squared innovation increments
                    qv = [np.sum(np.diff(rec.inn) ** 2) for rec in records]
                    assert np.max(np.abs(values - qv)) <= 1e-12, (scheme, j)
                    continue
                last = np.array([getattr(rec, name)[-1] for rec in records])
                assert values.dtype == last.dtype and np.array_equal(values, last), (scheme, j, name)


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
def test_thread_count_invariance(scheme, monkeypatch):
    cases = [(params_for(j=j, alpha=4.0, kappa=0.25, B=B, T=0.02), N)
             for j, B in ((5.0, 0.0), (2.0, 0.5)) for N in (263, 1000)]
    for p, N in [(params_for(j=0.5, alpha=3.0, kappa=0.2, T=0.1), 150)] + cases:
        with monkeypatch.context() as m:
            if N == 150:
                m.setattr(traj, "BLOCK", 64)
            runs = [traj.run_ensemble(p, scheme, N, base_seed=29, threads=k) for k in (1, 2, 3, 4)]
        for other in runs[1:]:
            for name in runs[0].series_mean:
                assert np.array_equal(runs[0].series_mean[name], other.series_mean[name])
                assert np.array_equal(runs[0].series_sem[name], other.series_sem[name])
            assert np.array_equal(runs[0].mean_rho, other.mean_rho)
            assert np.array_equal(runs[0].sem_rho_frob, other.sem_rho_frob)
            for name in runs[0].terminals:
                assert np.array_equal(runs[0].terminals[name], other.terminals[name])


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
def test_terminals_pass_equals_full_pass(scheme, monkeypatch):
    # series=False skips fx, purity, the per-step sums and the snapshots but
    # leaves every terminal the same bits, on the level path (B = 0, J = 1/2,
    # 2 and 5) and on the matrix path (B = 0.5), in one batch or three
    monkeypatch.setattr(traj, "BLOCK", 64)
    for j, B in ((0.5, 0.0), (2.0, 0.0), (5.0, 0.0), (2.0, 0.5)):
        p = params_for(j=j, alpha=4.0, kappa=0.25, B=B, T=0.05)
        full = traj.run_ensemble(p, scheme, 150, base_seed=53)
        if scheme == "polarimetry":
            assert np.count_nonzero(full.terminals["counts_xi"]) > 10
        for threads in (1, 3):
            s = traj.run_ensemble(p, scheme, 150, base_seed=53, threads=threads, series=False)
            assert s.series_mean == {} and s.series_sem == {}
            assert s.snapshot_indices.size == 0 and s.mean_rho.shape == (0, p.space.dim, p.space.dim)
            assert s.sem_rho_frob.shape == (0,)
            assert s.terminals.keys() == full.terminals.keys()
            for name, values in full.terminals.items():
                got = s.terminals[name]
                assert got.dtype == values.dtype and np.array_equal(got, values), (j, B, threads, name)
    with pytest.raises(ValueError):
        traj.run_ensemble(p, scheme, 3, base_seed=1, snapshot_indices=[0, 5], series=False)


def _same_bits(a, b):
    """Whether two outputs (arrays, or dicts of them) hold the same dtypes and bits."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("j", [0.5, 5.0])
@pytest.mark.parametrize("schedule", [None, ((0.0, 10.0), (0.1305, 4.0), (0.2, 10.0))])
def test_counting_outputs_invariant_to_chunk(j, schedule, monkeypatch):
    # B = 0 polarimetry decides its counts once per chunk of CHUNK steps, in
    # rounds over each row's candidate steps; CHUNK = 1 is the per-step
    # decision order. alpha^2 dt = 0.1 (the one-jump bound) makes rows count
    # several times within one chunk. Ensembles (both passes, threads 1 and
    # 3), records with states and linear replays keep every bit at any CHUNK,
    # and the terminals pass keeps the full pass's terminals
    from spinprobe.filters import run_filter

    p = params_for(j=j, alpha=10.0, kappa=0.3, T=0.3, alpha_schedule=schedule)   # 300 steps
    monkeypatch.setattr(traj, "BLOCK", 64)
    fields = ("events", "fx", "fz", "fz2", "var_z", "purity", "loglik", "inn_xi", "inn_eta", "counts_xi", "states")

    def outputs():
        out = []
        for threads in (1, 3):
            full = traj.run_ensemble(p, "polarimetry", 150, base_seed=71, threads=threads)
            ends = traj.run_ensemble(p, "polarimetry", 150, base_seed=71, threads=threads, series=False)
            assert _same_bits(ends.terminals, full.terminals)
            out += [full.terminals, full.series_mean, full.series_sem, full.mean_rho, full.sem_rho_frob]
        records = traj._simulate_full("polarimetry", p, 73, None, True, list(range(6)))
        out += [{name: getattr(rec, name) for name in fields} for rec in records]
        replay = run_filter("polarimetry", "linear", p, np.stack([rec.events for rec in records]), keep_states=True)
        out.append({name: getattr(replay, name) for name in ("fx", "fz", "var_z", "purity", "loglik", "states")})
        return out

    want = outputs()
    counts = want[0]["counts_xi"] + want[0]["counts_eta"]
    assert np.count_nonzero(counts >= 3) > 100   # rows count several times within one 128-step chunk
    for chunk in (1, 7):
        monkeypatch.setattr(traj, "CHUNK", chunk)
        got = outputs()
        assert all(_same_bits(a, b) for a, b in zip(got, want)), chunk


@pytest.mark.parametrize("j", [0.5, 5.0])
def test_no_count_step_leaves_state_unchanged(j):
    # at B = 0 a polarimetry step without a count leaves the filter state, its
    # moments and loglik unchanged bit for bit (no renormalization by traces
    # of 1 +- ulp); only the steps that count move them
    from spinprobe.filters import run_filter

    p = params_for(j=j, alpha=9.0, kappa=0.3, T=0.5)   # alpha^2 dt = 0.081: about 40 counts
    rec = traj.simulate_polarimetry(p, seed=61)
    lin = run_filter("polarimetry", "linear", p, rec.events)
    quiet = rec.events == 0
    assert np.count_nonzero(~quiet) >= 20
    for run in (rec, lin):
        for name in ("fx", "fz", "var_z", "purity", "loglik"):
            series = getattr(run, name)
            assert np.array_equal(series[1:][quiet], series[:-1][quiet]), name
        assert np.mean(run.loglik[1:][~quiet] != run.loglik[:-1][~quiet]) > 0.5   # the counts do move it


def test_trajectory_rng_is_philox_keyed_by_seed_and_index():
    for key in ((0, 0), (2**64 - 1, 5), (7, 2**40)):
        got = traj.trajectory_rng(*key)
        want = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        assert isinstance(got, np.random.Generator)
        assert np.array_equal(got.random(300), want.random(300))
        assert np.array_equal(got.standard_normal(300), want.standard_normal(300))


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_thread_pool_capped_at_cpu_count(monkeypatch, cpus, workers):
    # threads = 10**6 asks for one batch per slice (20 here); the pool gets at
    # most os.cpu_count() workers, and a serial stand-in starts no thread
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    p = params_for(T=0.02)
    monkeypatch.setattr(traj, "BLOCK", 2)
    ref = traj.run_ensemble(p, "limit", 40, base_seed=3)
    monkeypatch.setattr(traj, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(traj.os, "cpu_count", lambda: cpus)
    threads_before = threading.active_count()
    s = traj.run_ensemble(p, "limit", 40, base_seed=3, threads=10**6)
    assert threading.active_count() == threads_before
    assert started == [workers]
    assert len(traj._batches(40, 10**6)) == 20
    for name in ref.series_mean:
        assert np.array_equal(s.series_mean[name], ref.series_mean[name])
    assert np.array_equal(s.terminals["y"], ref.terminals["y"])


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne", "limit"])
@pytest.mark.parametrize("j,B", [(0.5, 0.0), (1.0, 0.0), (1.5, 0.0), (2.0, 0.5), (5.0, 0.0)])
def test_rows_independent_of_batch_width(scheme, j, B):
    # a trajectory's path, moments and states are the same bits in a batch of
    # any width, a batch of one included
    p = params_for(j=j, alpha=4.0, kappa=0.25, B=B, T=0.02)
    rho0 = coherent_x_state(p.space).rho
    n, dim = p.n_steps, p.space.dim

    def run(indices):
        col = traj._Collector(scheme, n, len(indices), dim, keep_states=True)
        return traj._simulate_block(scheme, p, 47, indices, rho0, col)

    wide = run(list(range(1000)))
    fields = ["states", "fx", "fz", "fz2", "var_z", "purity", "loglik"]
    fields += ["events", "inn_xi", "inn_eta"] if scheme == "polarimetry" else ["dy", "inn"]
    if scheme == "polarimetry":
        assert np.count_nonzero(wide.events) > 100   # the count update ran
    for indices in ([517], [0], list(range(253, 260)), list(range(700, 956))):
        narrow = run(indices)
        for name in fields:
            assert np.array_equal(getattr(narrow, name), getattr(wide, name)[indices]), (len(indices), name)


@pytest.mark.parametrize("scheme", ["polarimetry", "homodyne"])
@pytest.mark.parametrize("n", [1, 2 * traj.CHUNK - 1, 2 * traj.CHUNK, 2 * traj.CHUNK + 1, 5 * traj.CHUNK + 7])
def test_chunked_draws_equal_one_shot(scheme, n):
    indices = [0, 5, 2**40 + 3]
    noise = traj._Noise(scheme, 2**63 + 11, indices, n)
    got = np.hstack([noise.chunk(i).copy() for i in range(0, n, traj.CHUNK)])
    method = "random" if scheme == "polarimetry" else "standard_normal"
    want = np.stack([getattr(traj.trajectory_rng(2**63 + 11, i), method)(n) for i in indices])
    assert np.array_equal(got, want)


def test_bad_snapshot_indices_rejected():
    p = params_for(T=0.05)   # 50 steps
    for bad in ([10, 10, 60, -1], [10, 10], [5, 3], [-1, 4], [0, 51], [0.0, 10.0], [[0, 1]]):
        with pytest.raises(ValueError):
            traj.run_ensemble(p, "limit", 3, base_seed=1, snapshot_indices=bad)
    s = traj.run_ensemble(p, "limit", 3, base_seed=1, snapshot_indices=[0, 10, 50])
    assert np.allclose([np.trace(r).real for r in s.mean_rho], 1.0)
    assert traj.run_ensemble(p, "limit", 3, base_seed=1, snapshot_indices=[]).mean_rho.shape == (0, 2, 2)


@pytest.mark.parametrize("scheme,generator", [
    ("polarimetry", "finite"),
    ("homodyne", "finite"),
    ("limit", "limit"),
])
def test_tower_property_mini(scheme, generator):
    # ensemble mean of the conditional state solves the unconditional master
    # equation (small-N version of the acceptance criterion)
    p = params_for(j=0.5, alpha=3.0, kappa=1.0 / 3.0, T=0.5, dt=1e-3)
    n_traj = 800
    s = traj.run_ensemble(p, scheme, n_traj, base_seed=31)
    _, states = master_evolve(coherent_x_state(p.space), p, generator=generator)
    for k, idx in enumerate(s.snapshot_indices):
        if idx == 0:
            continue
        dist = np.linalg.norm(s.mean_rho[k] - states[idx])
        assert dist <= 5 * s.sem_rho_frob[k], (scheme, idx, dist, s.sem_rho_frob[k])


@pytest.mark.parametrize("scheme", ["homodyne", "limit"])
def test_estimator_ensemble_mean_is_constant(scheme):
    # pi_t(F_z) is a martingale under co-simulation: its ensemble mean stays
    # at the initial value within Monte Carlo error
    p = params_for(j=1.0, alpha=3.0, kappa=1.0 / 3.0, T=0.5, dt=1e-3)
    s = traj.run_ensemble(p, scheme, 400, base_seed=41)
    mean = s.series_mean["fz"]
    sem = s.series_sem["fz"]
    mask = sem > 0
    assert np.all(np.abs(mean[mask] - mean[0]) <= 4 * sem[mask])


def test_jump_bound_enforced():
    p = params_for(alpha=10.0, kappa=0.1, T=1.0, dt=5e-3)
    with pytest.raises(ValueError):
        traj.simulate_polarimetry(p, seed=1)
    with pytest.raises(ValueError):
        traj.run_ensemble(p, "polarimetry", 4, base_seed=1)
    # diffusive schemes are not subject to the bound
    traj.simulate_homodyne(ModelParams.build(j=0.5, alpha=10.0, kappa=0.1, T=5e-3, dt=5e-3), seed=1)


def test_records_against_replay_moments():
    # co-simulated moment series equal a replay of the same record; replay
    # runs through the co-simulation loop, so a linear replay with states
    # reproduces the record bit for bit
    from spinprobe.filters import run_filter

    sim = {"polarimetry": traj.simulate_polarimetry, "homodyne": traj.simulate_homodyne, "limit": traj.simulate_limit}
    cases = [("homodyne", 1.0, 0.0)]
    cases += [(s, j, B) for s in sim for j, B in ((0.5, 0.0), (2.0, 0.5), (5.0, 0.0))]
    for scheme, j, B in cases:
        p = params_for(j=j, alpha=2.0, kappa=0.3, B=B, T=0.2)
        rec = sim[scheme](p, seed=37, keep_states=True)
        obs = rec.events if scheme == "polarimetry" else rec.dy
        run = run_filter(scheme, "normalized", p, obs)
        assert np.max(np.abs(run.fx - rec.fx)) < 1e-12
        assert np.max(np.abs(run.var_z - rec.var_z)) < 1e-12
        lin = run_filter(scheme, "linear", p, obs, keep_states=True)
        for name in ("fx", "fz", "fz2", "var_z", "purity", "loglik", "states"):
            assert np.array_equal(getattr(lin, name), getattr(rec, name)), (scheme, j, name)
