"""Co-simulation of observation records and their filters, plus ensemble runs.

Records are sampled from the filter's own predictive law: counting events
from the state-dependent channel rates, photocurrents by adding white noise
to the predicted drift (the innovations are Wiener increments by
construction). Every trajectory draws exclusively from its own
counter-based Philox stream keyed by (base_seed, trajectory_index), read
:data:`CHUNK` steps at a time, which continues the stream exactly as one
draw of all steps would.

Compute batches and reduction slices are separate. An ensemble advances
its trajectories in as many contiguous compute batches as it has threads
(one batch of all N on one thread; at most os.cpu_count() run at once),
each made of whole slices of :data:`BLOCK` rows. Sums are kept per slice
and added in slice order, so the partition into slices alone fixes the
reduction order. Every per-trajectory quantity is an elementwise operation
or a sum over that trajectory's own terms in a fixed order (a per-row
``np.vecdot`` or matrix-vector product, or a loop over the F_z levels of
elementwise adds; see :class:`spinprobe.filters.LevelState`), never a
matrix product across trajectories and never a numpy reduction along an
axis of the batch, so a trajectory's path, moments and terminal values are
bit-identical in a batch of any width, a batch of one included. Runs are
therefore bit-identical for any thread count, and a replay or a
per-trajectory record equals its ensemble row exactly.

:func:`_simulate_block` is the one loop that steps filters along the time
grid. It draws each step's observations from the Philox streams, or reads
them from a given record, and hands every step to the one collector,
:class:`_Collector`, which defines each output process once: the moments,
the innovations, the counts or the integrated record y, and loglik. A
record keeps every step of those series, an ensemble adds them up per
slice and keeps the last step as its terminals, and
:func:`spinprobe.filters.run_filter` replays a record as a batch of one
into a collector that keeps every step, reading the moments, loglik and
states from the same rows as a record. Without a field (B = 0) the loop
carries the batch as a :class:`spinprobe.filters.LevelState` (d real
weights per trajectory and one shared d x d factor) and reads each step's
trace factor, moments, drift and count rates from the one fused level sum
that :func:`spinprobe.filters.finish_step` takes; it builds d x d states
only at ensemble snapshots and for records that keep their states. With a
field it carries the (batch, d, d) matrices, takes the matrix step, which
is the reference for the level representation, and reads the same means
from one level sum over the diagonals.

A counting step without a field is event-driven. The no-count drift is the
identity (L_xi^2 + L_eta^2 = 2) and the count probability per step does
not depend on the state, so only the rows that counted take
:func:`spinprobe.filters.increment` and ``finish_step``, as one batch, and
the loop writes them back into its own LevelState in place; every other row
keeps its weights, moments and loglik bit for bit. The collector still
writes every row at every step, in the same reduction order.

``run_ensemble(..., series=False)`` is a terminals pass, for outputs that
read only each trajectory's last cumulative values (the ``charfunc``
command). Its collector writes only the cumulative processes and loglik,
and its states carry no fx or purity: a LevelState is built without them
once, at the start, and the matrix path simply does not compute them. Each
step still takes the trace and the means that the prediction reads, with
the same bits as a full pass, so the terminals are the same; the per-step
sums and the snapshot states are skipped.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .generators import ModelParams
from . import filters
from .filters import build_kernels, finish_step
# Not called here: the benchmark tracer (perfbench/layers.py) also looks these names up in this module.
from .filters import pol_drift_raw, pol_jump_raw, homodyne_raw, limit_raw  # noqa: F401

BLOCK = 256    # rows per reduction slice
CHUNK = 128    # time steps of Philox draws held per trajectory
RNG_NAME = "philox4x64 key=(base_seed, trajectory_index)"

_MASK64 = (1 << 64) - 1
_CODES = np.array([[1], [2]], dtype=np.int8)   # the event codes of xi and eta counts


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands Philox its key as is: Philox(key=...) would first draw a SeedSequence from OS entropy and drop it."""

    __slots__ = ("_key",)

    def __init__(self, key):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self._key


def trajectory_rng(base_seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one trajectory: Philox keyed by (base_seed, index)."""
    key = np.array([base_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


@dataclass
class TrajectoryRecord:
    """One co-simulated record with its filtered summaries.

    Counting records carry per-step events (0 none, 1 xi, 2 eta), the
    cumulative channel counts and the scaled sum/difference processes
    y_plus = (Y_xi + Y_eta)/alpha^2 and y_minus = (Y_xi - Y_eta)/alpha.
    Diffusive records carry the photocurrent increments and the integrated
    record y. Innovation series are cumulative.
    """

    scheme: str
    seed: int
    traj_index: int
    params: ModelParams
    t: np.ndarray
    fx: np.ndarray
    fz: np.ndarray
    fz2: np.ndarray
    var_z: np.ndarray
    purity: np.ndarray
    loglik: np.ndarray
    events: np.ndarray = None
    counts_xi: np.ndarray = None
    counts_eta: np.ndarray = None
    y_plus: np.ndarray = None
    y_minus: np.ndarray = None
    inn_xi: np.ndarray = None
    inn_eta: np.ndarray = None
    dy: np.ndarray = None
    y: np.ndarray = None
    inn: np.ndarray = None
    states: np.ndarray = None


@dataclass
class EnsembleSummary:
    """Scheduling-invariant reductions over an ensemble of trajectories."""

    scheme: str
    N: int
    base_seed: int
    params: ModelParams
    t: np.ndarray
    snapshot_indices: np.ndarray
    mean_rho: np.ndarray          # (n_snap, dim, dim)
    sem_rho_frob: np.ndarray      # (n_snap,) Frobenius-norm MC standard error
    series_mean: dict             # name -> (n+1,) ensemble mean
    series_sem: dict              # name -> (n+1,) MC standard error of the mean
    terminals: dict               # name -> (N,) per-trajectory terminal values


class _Collector:
    """Every path's output processes, written once per step for records, replays and ensembles.

    Each step writes the series of every path into one (2, series, batch)
    array of values and squares: fx, fz, var_z and purity, the cumulative
    processes (inn_xi, inn_eta, counts_xi and counts_eta when counting; inn,
    y and qv for the diffusive schemes), then loglik and fz2. A replay hands
    no prediction, so its cumulative processes stay 0.

    With snapshot_indices None (a record or a replay) every step's values
    are kept, with the observations and, if keep_states, the states. Each
    kept series is an attribute of (batch, n + 1) rows, and the
    observations are the (batch, n) events or dy. Otherwise (an ensemble)
    the batch is cut into slices of BLOCK rows, the last possibly shorter.
    The leading series, the moments and the cumulative processes but y and
    qv, and their squares are added up once per step per slice, so the sums
    of a slice do not depend on which batch it ran in. The states are summed
    per slice at the snapshot steps, and the last step's values are the
    terminals.

    With series False (a terminals pass) only the cumulative processes and
    loglik are written, and the last step's values are the terminals. The
    states then carry no fx or purity (``moments`` is False), and nothing
    is kept or added up. Each kind picks its writer once, at construction.
    """

    COUNTING = ("fx", "fz", "var_z", "purity", "inn_xi", "inn_eta", "counts_xi", "counts_eta", "loglik", "fz2")
    DIFFUSIVE = ("fx", "fz", "var_z", "purity", "inn", "y", "qv", "loglik", "fz2")

    def __init__(self, scheme, n, batch, dim, snapshot_indices=None, keep_states=False, series=True):
        self.counting = scheme == "polarimetry"
        self.names = self.COUNTING if self.counting else self.DIFFUSIVE
        self.summed = self.names[: 8 if self.counting else 5]   # the leading series of the ensemble sums
        self.moments = series   # whether the states carry fx and purity
        self.kern = None   # the run's kernels, bound by start()
        self._rows = np.zeros((2, len(self.names), batch))   # this step's series and their squares
        self.values = self._rows[0]
        if self.counting:   # (xi, eta) rows of the innovations and of the counts
            self._inn, self._counts = self.values[4:6], self.values[6:8]
        else:
            self._inn, self._y, self._qv = self.values[4:7]
        self.obs = None
        # the writer is kept as a plain function: a bound method on the instance would make a
        # reference cycle, and a dropped collector would then wait for the cyclic garbage collector
        if not series:
            self._write = _Collector._write_loglik
            return
        if snapshot_indices is None:
            self.kept = np.zeros((len(self.names), batch, n + 1))
            self.obs = np.zeros((batch, n), dtype=np.int8 if self.counting else float)
            self.states = np.zeros((batch, n + 1, dim, dim), dtype=complex) if keep_states else None
            vars(self).update(zip(self.names, self.kept), **{"events" if self.counting else "dy": self.obs})
            self._write = _Collector._keep
            return
        self.slices = [(a, min(a + BLOCK, batch)) for a in range(0, batch, BLOCK)]
        self.sums = np.zeros((n + 1, 2, len(self.summed), len(self.slices)))
        self.rho_sum = np.zeros((len(snapshot_indices), len(self.slices), dim, dim), dtype=complex)
        self.rho_abs2_sum = np.zeros((len(snapshot_indices), len(self.slices), dim, dim))
        self._snap_pos = {int(g): k for k, g in enumerate(snapshot_indices)}
        self._write = _Collector._add

    def start(self, kern, rho, means, loglik):
        """Bind the run's kernels and write grid step 0."""
        self.kern = kern
        self.write(0, rho, means, loglik)

    def step(self, i, obs, pred, rho, means, loglik):
        if pred is not None:   # a replay hands no prediction
            if self.counting:
                hits = obs == _CODES
                self._inn += hits - pred
                self._counts += hits
            else:
                inn = obs - pred
                self._inn += inn
                self._y += obs
                self._qv += inn**2
        if self.obs is not None:
            self.obs[:, i] = obs
        self.write(i + 1, rho, means, loglik)

    def write(self, idx, rho, means, loglik):
        """Write grid step idx's values, then keep them, add them up or keep only the last, by the collector's kind."""
        self._write(self, idx, rho, means, loglik)

    def _write_loglik(self, idx, rho, means, loglik):
        """A terminals pass's writer: loglik is the only series besides the cumulative processes."""
        self.values[-2] = loglik

    def _write_moments(self, rho, means, loglik):
        """Write this step's moments and loglik into the step array."""
        fx, fz, fz2, var_z, purity = _moments(rho, means, self.kern)
        values = self.values
        values[0], values[1], values[2], values[3], values[-2], values[-1] = fx, fz, var_z, purity, loglik, fz2

    def _keep(self, idx, rho, means, loglik):
        """A record's writer: keep grid step idx's values and, if asked, its states."""
        self._write_moments(rho, means, loglik)
        self.kept[..., idx] = self.values
        if self.states is not None:
            self.states[:, idx] = _matrix(rho)

    def _add(self, idx, rho, means, loglik):
        """An ensemble's writer: add grid step idx's leading series up per slice, and its states at snapshots."""
        self._write_moments(rho, means, loglik)
        rows = self._rows[:, : len(self.summed)]
        np.multiply(rows[0], rows[0], out=rows[1])
        full = rows.shape[-1] // BLOCK
        out = self.sums[idx]
        if full:
            head = rows[..., : full * BLOCK]
            head.reshape(*head.shape[:-1], full, BLOCK).sum(-1, out=out[..., :full])
        if full < len(self.slices):
            rows[..., full * BLOCK :].sum(-1, out=out[..., full])
        k = self._snap_pos.get(idx)
        if k is not None:
            rho = _matrix(rho)
            abs2 = np.abs(rho) ** 2
            for s, (a, b) in enumerate(self.slices):
                self.rho_sum[k, s] = rho[a:b].sum(axis=0)
                self.rho_abs2_sum[k, s] = abs2[a:b].sum(axis=0)


class _Noise:
    """The Philox draws of a batch, read step by step and drawn CHUNK steps at a time.

    Each trajectory's stream continues from chunk to chunk, so the draws
    equal trajectory_rng(base_seed, i).random(n) (counting) or
    .standard_normal(n) (diffusive) bit for bit, while only a
    (batch, CHUNK) buffer is held.
    """

    def __init__(self, scheme, base_seed, indices, n):
        method = "random" if scheme == "polarimetry" else "standard_normal"
        self._draws = [getattr(trajectory_rng(base_seed, i), method) for i in indices]
        self._buf = np.empty((len(self._draws), min(CHUNK, n)))
        self._n = n

    def __call__(self, i):
        """The (batch,) draws of step i; steps must be read in order from 0."""
        j = i % CHUNK
        if j == 0:
            width = min(CHUNK, self._n - i)
            for draw, row in zip(self._draws, self._buf):
                draw(out=row[:width])
        return self._buf[:, j]


def _matrix(rho):
    """The (batch, d, d) states of either representation."""
    return rho.matrix() if isinstance(rho, filters.LevelState) else rho


def _means(rho, kern):
    """The (5, batch) means pi(F_z), pi(F_z^2), pi(sin kappa F_z), pi(L_xi^2) and pi(L_eta^2) of unit-trace states.

    A LevelState carries them from its fused step sum; for matrices they are
    one level sum over the diagonals.
    """
    if isinstance(rho, filters.LevelState):
        return rho.means
    return filters._level_sums(kern.level_rows[1:], rho.diagonal(0, 1, 2).real.T, kern.dim)


def _moments(rho, means, kern):
    """The moments (fx, fz, fz2, var_z, purity) of a batch of unit-trace states with the given means."""
    if isinstance(rho, filters.LevelState):
        fx, purity = rho.fx, rho.purity
    else:   # F_x is tridiagonal; rho is Hermitian, so trace(rho^2) = sum |rho_ij|^2
        fx = 2.0 * np.vecdot(np.diagonal(rho, -1, -2, -1).real, kern.F_x_sub)
        flat = rho.reshape(len(rho), -1)
        purity = np.vecdot(flat, flat).real
    fz, fz2 = means[0], means[1]
    return fx, fz, fz2, fz2 - fz**2, purity


def _simulate_block(scheme, params, base_seed, indices, rho0, collector, observations=None):
    """Advance a batch of trajectories along the time grid.

    Without observations, each step's observation is sampled from the
    predictive law with one noise draw per trajectory, and each step hands
    the collector the observations and their prediction: the (2, batch)
    count probabilities (q_xi, q_eta), or the drift times dt of dy. Given a
    (batch, n) array of event codes or dy values, the record is replayed
    instead, base_seed is not used and the prediction handed on is None.
    rho0 None starts from the x-polarized coherent state; a counting run
    whose alpha^2 dt exceeds the one-jump bound raises ValueError.

    A counting step without a field leaves every state that did not count
    unchanged (the no-count drift is the identity), so only the rows that
    counted take the step, and the batch is updated in place there.
    """
    filters.check_jump_bound(scheme, params, params.time_grid()[:-1])
    rho0 = filters.FilterState.initial(scheme, "normalized", params, rho0).rho
    kern = build_kernels(params)
    n = params.n_steps
    dt = params.dt
    batch = len(indices)
    if kern.U is None:   # B = 0: d level weights per trajectory
        rho = filters.LevelState.initial(rho0, batch, kern, collector.moments)
    else:
        rho = np.broadcast_to(rho0, (batch, kern.dim, kern.dim)).copy()
    counts_only = scheme == "polarimetry" and kern.U is None

    noise = None if observations is not None else _Noise(scheme, base_seed, indices, n)

    loglik = np.zeros(batch)
    means = _means(rho, kern)
    collector.start(kern, rho, means, loglik)

    sqdt = np.sqrt(dt)
    for i in range(n):
        t = i * dt
        if noise is None:   # a replay reads the record and needs no prediction
            obs, pred = observations[:, i], None
        elif scheme == "polarimetry":
            half_a2dt = 0.5 * params.drive_power(t) * dt
            pred = q_xi, q_eta = half_a2dt * means[3:5]   # predicted count probabilities
            u = noise(i)   # xi if u < q_xi, else eta if u < q_xi + q_eta
            obs = 2 * (u < q_xi + q_eta).view(np.int8) - (u < q_xi)
        else:
            if scheme == "homodyne":
                pred = 2.0 * params.alpha_of(t) * dt * means[2]
            else:
                pred = 2.0 * kern.sqrt_M * dt * means[0]
            obs = pred + sqdt * noise(i)
        if counts_only:   # means is rho.means, so put() updates it too
            rows = np.flatnonzero(obs)
            if rows.size:
                new, tr = finish_step(filters.increment(scheme, rho.take(rows), obs[rows], t, params, kern))
                rho.put(rows, new)
                loglik[rows] += np.log(tr)
        else:
            rho, tr = finish_step(filters.increment(scheme, rho, obs, t, params, kern))
            loglik = loglik + np.log(tr)
            means = _means(rho, kern)
        collector.step(i, obs, pred, rho, means, loglik)
    return collector


def _count_outputs(series, alpha):
    """Cast the counts in the dict series to int and add y_plus = (n_xi + n_eta) / alpha^2 and
    y_minus = (n_xi - n_eta) / alpha, unscaled for alpha = 0."""
    n_xi = series["counts_xi"] = series["counts_xi"].astype(np.int64)
    n_eta = series["counts_eta"] = series["counts_eta"].astype(np.int64)
    scale = alpha if alpha > 0 else 1.0
    series["y_plus"], series["y_minus"] = (n_xi + n_eta) / scale**2, (n_xi - n_eta) / scale


def _simulate_full(scheme, params, seed, rho0, keep_states, indices):
    """Co-simulate the trajectories in indices as one block and return their records.

    A record's arrays are rows of the collector's, not copies; only the counts are cast to int.
    """
    col = _Collector(scheme, params.n_steps, len(indices), params.space.dim, keep_states=keep_states)
    _simulate_block(scheme, params, seed, indices, rho0, col)
    t = params.time_grid()
    obs = "events" if col.counting else "dy"
    out = []
    for b, idx in enumerate(indices):
        series = {name: kept[b] for name, kept in zip(col.names, col.kept) if name != "qv"}
        if col.counting:
            _count_outputs(series, params.alpha)
        states = None if col.states is None else col.states[b]
        out.append(TrajectoryRecord(scheme, seed, idx, params, t, states=states, **{obs: col.obs[b]}, **series))
    return out


def simulate_polarimetry(params: ModelParams, seed: int, rho0=None, keep_states=False) -> TrajectoryRecord:
    """Co-simulate one balanced-polarimetry record with its normalized filter.

    Per step an event is drawn from {xi: r_xi dt, eta: r_eta dt, none} with
    the rates predicted by the current state; the filter is advanced with the
    sampled event. Identical seeds give bit-identical records.
    """
    return _simulate_full("polarimetry", params, seed, rho0, keep_states, [0])[0]


def simulate_homodyne(params: ModelParams, seed: int, rho0=None, keep_states=False) -> TrajectoryRecord:
    """Co-simulate one homodyne record: dy = 2 alpha pi(sin(kappa F_z)) dt + dW."""
    return _simulate_full("homodyne", params, seed, rho0, keep_states, [0])[0]


def simulate_limit(params: ModelParams, seed: int, rho0=None, keep_states=False) -> TrajectoryRecord:
    """Co-simulate one strong-driving-limit record: dy = 2 sqrt(M) pi(F_z) dt + dW."""
    return _simulate_full("limit", params, seed, rho0, keep_states, [0])[0]


def _blocks(N):
    """The fixed partition of trajectory indices 0..N-1 into reduction slices of BLOCK rows."""
    return [list(range(b, min(b + BLOCK, N))) for b in range(0, N, BLOCK)]


def _batches(N, threads):
    """At most `threads` contiguous compute batches of whole BLOCK-row slices, as even as possible."""
    slices = -(-N // BLOCK)
    k = min(threads, slices)
    edges = [min(N, BLOCK * (slices * j // k)) for j in range(k + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def default_snapshot_indices(n_steps: int, count: int = 11) -> np.ndarray:
    count = min(count, n_steps + 1)
    return np.unique(np.linspace(0, n_steps, count).round().astype(int))


def run_ensemble(
    params: ModelParams,
    scheme: str,
    N: int,
    base_seed: int,
    rho0=None,
    threads: int = 1,
    snapshot_indices=None,
    *,
    series: bool = True,
) -> EnsembleSummary:
    """Run N independent trajectories and reduce scheduling-invariant summaries.

    Trajectory i draws from the Philox stream keyed by (base_seed, i). The
    trajectories run as `threads` contiguous compute batches of whole
    BLOCK-row slices (one batch of all N on one thread); sums are kept per
    slice and added in slice order. A trajectory's arithmetic does not depend
    on its batch, so the result is a pure function of (params, scheme, N,
    base_seed, rho0, snapshot_indices) for any thread count.
    snapshot_indices, the grid steps whose mean state is kept, must be
    strictly increasing integers in [0, n_steps].

    series=False runs a terminals pass: the summary has the same terminals,
    bit for bit, but empty series_mean and series_sem and no snapshots
    (snapshot_indices must then be None or empty). It skips fx, purity, the
    per-step sums and the snapshot states, which the terminals never read.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    n = params.n_steps
    dim = params.space.dim
    if snapshot_indices is None:
        snapshot_indices = default_snapshot_indices(n) if series else []
    snapshot_indices = np.asarray(snapshot_indices)
    if snapshot_indices.ndim != 1 or (snapshot_indices.size and not (
        np.issubdtype(snapshot_indices.dtype, np.integer)
        and snapshot_indices[0] >= 0
        and snapshot_indices[-1] <= n
        and np.all(np.diff(snapshot_indices) > 0)
    )):
        raise ValueError(f"snapshot_indices must be strictly increasing integers in [0, {n}]")
    if snapshot_indices.size and not series:
        raise ValueError("a terminals pass (series=False) keeps no snapshots")
    snapshot_indices = snapshot_indices.astype(int)

    def run_batch(indices):
        col = _Collector(scheme, n, len(indices), dim, snapshot_indices, series=series)
        _simulate_block(scheme, params, base_seed, indices, rho0, col)
        return col

    batches = _batches(N, threads)
    if len(batches) > 1:
        with ThreadPoolExecutor(max_workers=min(len(batches), os.cpu_count() or 1)) as pool:
            cols = list(pool.map(run_batch, batches))
    else:
        cols = [run_batch(batches[0])]

    # the terminals: the last step's cumulative processes and loglik
    ends = np.concatenate([col.values for col in cols], axis=1)
    terminals = dict(zip(cols[0].names[4:-1], ends[4:-1]))
    if scheme == "polarimetry":
        _count_outputs(terminals, params.alpha)

    series_mean, series_sem = {}, {}
    mean_rho = np.zeros((len(snapshot_indices), dim, dim), dtype=complex)
    rho_abs2 = np.zeros((len(snapshot_indices), dim, dim))
    if series:
        sums = np.zeros(cols[0].sums.shape[:-1])   # (n + 1, 2, series): sums, sums of squares
        for col in cols:
            for s in range(len(col.slices)):
                sums += col.sums[..., s]
                mean_rho += col.rho_sum[:, s]
                rho_abs2 += col.rho_abs2_sum[:, s]
        for j, name in enumerate(cols[0].summed):
            series_mean[name] = sums[:, 0, j] / N
            var = np.maximum(sums[:, 1, j] / N - series_mean[name] ** 2, 0.0)
            series_sem[name] = np.sqrt(var / N)
        mean_rho /= N

    ent_var = np.maximum(rho_abs2 / N - np.abs(mean_rho) ** 2, 0.0)
    sem_rho_frob = np.sqrt(ent_var.sum(axis=(1, 2)) / N)

    return EnsembleSummary(
        scheme=scheme,
        N=N,
        base_seed=base_seed,
        params=params,
        t=params.time_grid(),
        snapshot_indices=snapshot_indices,
        mean_rho=mean_rho,
        sem_rho_frob=sem_rho_frob,
        series_mean=series_mean,
        series_sem=series_sem,
        terminals=terminals,
    )
