"""Conditional state propagation for the three measurement schemes.

Schemes: jump-type balanced polarimetry (two counting channels), diffusive
homodyne detection of the y channel, and the strong-driving weak-coupling
limit filter. Each comes in a normalized and a linear (unnormalized) variant,
propagated in state form; duality trace(rho_t X) = pi_t(X) bridges to the
observable form.

Numerical scheme
----------------
Each scheme has one update, :func:`increment`: the linear filtering
equation integrated over one step given the recorded observation, for a
single state or a batch. :func:`finish_step` then hermitizes it, reads the
per-step trace factor and renormalizes. The trace factor is the
likelihood-ratio increment: the normalized filter divides it out, the linear
filter accumulates its log (so unnormalized values never underflow). The
mode decides nothing else, so the normalized state is by construction the
normalization of the linear one and the Kallianpur-Striebel identity
pi = sigma/sigma(I) holds pathwise to rounding at any step size.

Without a field (B = 0) every generator is elementwise in the F_z basis, so
each entry sigma_ij solves a scalar linear SDE and the step is its exact
solution:

* limit: sigma <- h sigma h, h = exp(-M dt F_z^2 + sqrt(M) dy F_z);
* homodyne: sigma <- C o (g sigma g), with C = exp(a^2 dt (c c^T - 1))
  elementwise, g = exp(-a^2 dt s^2 / 2 + a dy s), a = alpha(t),
  c = cos(kappa m), s = sin(kappa m);
* counting: the no-count drift is the identity, since the channel operators
  satisfy L_xi^2 + L_eta^2 = 2, and a count multiplies by L_a sigma L_a.

The diagonal congruences are positive, and C is positive semidefinite (the
elementwise exponential of a rank-one PSD matrix), so by the Schur product
theorem every step maps positive states to positive states. A field B F_y
enters through U_1/2 = exp(-i B F_y dt / 2): the diffusive steps are
Strang-split as U_1/2 D(U_1/2 sigma U_1/2^dagger) U_1/2^dagger around the
diagonal step D, and the counting step rotates by U = U_1/2^2 before the
count. The steps are therefore exact for B = 0 and positive for any B; no
state is screened or projected. The eigenvalue floor and
:func:`project_positive` serve only the master-equation integrator
:func:`spinprobe.generators.master_evolve`.

Without a field the probe measures F_z nondemolitionally, so a batch can
also be carried in the F_z level basis as a :class:`LevelState`,
rho = D o (g g^T): g holds d real weights per state and D = rho0 o
C_hat(t) is one (d, d) factor shared by the batch (rho0 for the limit and
counting schemes, times the running product of the homodyne
C_hat = exp(-a^2 dt (c_i - c_j)^2 / 2)). A step multiplies g by the
scheme's rows: h, g times the per-level part exp(-a^2 dt s^2 / 2) of C, or
c +- s on the states that counted; :func:`finish_step` rescales g by
1/sqrt(tr). D's diagonal stays rho0's, so nothing shared can underflow.
The diagonal, the moments and the trace factor then cost O(d) per state
(purity O(d^2) real), and d x d matrices are built only when asked for.
:func:`increment` applies the same rows and Schur factors to either
representation. The matrix step is the reference: it is what
:func:`step` takes, what every run with a field takes, and what the
closed-form tests pin.

:func:`step` advances one :class:`FilterState` by one observation; every
run along the time grid goes through the one propagation loop of
:mod:`spinprobe.trajectory`, which co-simulates batches and also replays a
given record for :func:`run_filter` (as a batch of one). Both apply
:func:`increment` and :func:`finish_step`, with the kernels of
:func:`build_kernels`, built once per parameter set.

A counting step applies at most one recorded count; the one-jump error per
step is O((alpha^2 dt)^2), and :func:`check_jump_bound` enforces
alpha^2 dt <= 0.1. All update functions are pure: they return fresh states.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np
from scipy.linalg import expm

from .spin_algebra import DensityState, make_spin_ops, coherent_x_state, EPS_POS
from .generators import ModelParams

SCHEMES = ("polarimetry", "homodyne", "limit")
MODES = ("normalized", "linear")

JUMP_BOUND = 0.1

# A recorded count whose predicted probability is below this (relative to the
# pre-jump trace) is numerically impossible and flags an inconsistent record.
ZERO_COUNT_TOL = 1e-12


@dataclass(frozen=True)
class ObservationIncrement:
    """One observation step: a count label for polarimetry, dy for diffusive schemes."""

    dt: float
    event: str = None
    dy: float = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("observation increment needs dt > 0")
        if self.event not in (None, "xi", "eta"):
            raise ValueError(f"event must be None, 'xi' or 'eta', got {self.event!r}")
        if self.dy is not None and not np.isfinite(self.dy):
            raise ValueError("dy must be finite")

    @classmethod
    def none(cls, dt):
        return cls(dt=dt)

    @classmethod
    def count(cls, channel, dt):
        return cls(dt=dt, event=channel)

    @classmethod
    def diffusive(cls, dy, dt):
        return cls(dt=dt, dy=float(dy))


@dataclass
class FilterState:
    """Conditional state of one scheme/mode at filter time t.

    rho is stored with unit trace in both modes; in linear mode the actual
    unnormalized value is exp(loglik) * rho.
    """

    rho: np.ndarray
    scheme: str
    mode: str
    t: float = 0.0
    loglik: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        self.rho = np.asarray(self.rho, dtype=complex)

    @classmethod
    def initial(cls, scheme, mode, params: ModelParams, rho0=None) -> "FilterState":
        if rho0 is None:
            rho0 = coherent_x_state(params.space)
        if isinstance(rho0, DensityState):
            rho0 = rho0.rho
        return cls(np.asarray(rho0, dtype=complex), scheme, mode, 0.0, 0.0)

    def expectation(self, op) -> float:
        return float(np.trace(self.rho @ op).real)


class LevelSchur(NamedTuple):
    """The homodyne Schur factor split for level states: C = C_hat o (q q^T), diag(C_hat) = 1."""

    q: np.ndarray           # exp(-a^2 dt s^2 / 2), folded into the level weights
    C_hat: np.ndarray       # exp(-a^2 dt (c_i - c_j)^2 / 2)
    C_hat2: np.ndarray      # C_hat^2, for |D|^2
    C_hat_sub: np.ndarray   # sub-diagonal of C_hat, for fx


@dataclass(frozen=True)
class FilterKernels:
    """Read-only F_z-basis arrays of one parameter set; only the field rotations are not elementwise."""

    dim: int
    dt: float
    levels: np.ndarray        # F_z eigenvalues m, descending
    levels2: np.ndarray       # m^2
    c: np.ndarray             # cos(kappa m)
    s: np.ndarray             # sin(kappa m)
    lxi2: np.ndarray          # (c+s)^2 diagonal of L_xi^2
    leta2: np.ndarray         # (c-s)^2
    count_rows: np.ndarray    # rows 1, c+s, c-s: the level factor of event code 0 (none), 1 (xi), 2 (eta)
    K_xi: np.ndarray          # outer(c+s, c+s): count-update mask
    K_eta: np.ndarray
    C: Mapping                # alpha -> exp(alpha^2 dt (c c^T - 1)): homodyne Schur factor
    C_levels: Mapping         # alpha -> LevelSchur of C
    U: np.ndarray             # exp(-i B F_y dt); None for B = 0
    U_half: np.ndarray        # exp(-i B F_y dt / 2); None for B = 0
    F_x: np.ndarray
    F_x_sub: np.ndarray       # sub-diagonal of F_x, which is tridiagonal (real)
    F_z: np.ndarray
    M: float
    sqrt_M: float


@lru_cache(maxsize=64)
def build_kernels(params: ModelParams) -> FilterKernels:
    """The kernels of params, built once per distinct ModelParams and shared read-only."""
    space = params.space
    m = space.fz_levels()
    c = np.cos(params.kappa * m)
    s = np.sin(params.kappa * m)
    lxi = c + s
    leta = c - s
    f_x, f_y, f_z = make_spin_ops(space)
    drives = {params.alpha} | {a for _, a in params.alpha_schedule or ()}
    C = {a: np.exp(a * a * params.dt * (np.outer(c, c) - 1.0)) for a in drives}
    C_levels = {}
    for a in drives:   # c_i c_j - 1 = -(c_i - c_j)^2 / 2 - (s_i^2 + s_j^2) / 2
        c_hat = np.exp(-0.5 * a * a * params.dt * np.subtract.outer(c, c) ** 2)
        C_levels[a] = LevelSchur(np.exp(-0.5 * a * a * params.dt * s**2), c_hat, c_hat**2, np.diagonal(c_hat, -1).copy())
    U = U_half = None
    if params.B != 0.0:
        U = expm(-1j * params.B * params.dt * f_y)
        U_half = expm(-0.5j * params.B * params.dt * f_y)
    kern = FilterKernels(
        dim=space.dim,
        dt=params.dt,
        levels=m,
        levels2=m**2,
        c=c,
        s=s,
        lxi2=lxi**2,
        leta2=leta**2,
        count_rows=np.stack([np.ones_like(c), lxi, leta]),
        K_xi=np.outer(lxi, lxi).astype(complex),
        K_eta=np.outer(leta, leta).astype(complex),
        C=MappingProxyType(C),
        C_levels=MappingProxyType(C_levels),
        U=U,
        U_half=U_half,
        F_x=f_x,
        F_x_sub=np.diagonal(f_x, -1).real.copy(),
        F_z=f_z,
        M=params.M,
        sqrt_M=np.sqrt(params.M),
    )
    for arr in (*vars(kern).values(), *C.values(), *(x for split in C_levels.values() for x in split)):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return kern


# ---------------------------------------------------------------------------
# array kernels; rho may carry leading batch axes
# ---------------------------------------------------------------------------

def _dagger(rho):
    return rho.swapaxes(-1, -2).conj()


def _btrace(rho):
    return np.einsum("...ii->...", rho).real


def _rotate(sigma, u):
    return u @ sigma @ _dagger(u)


def _check_dt(kern: FilterKernels, dt):
    if dt != kern.dt:
        raise ValueError(f"step dt {dt} does not match the kernels' dt {kern.dt}")


def _diagonal_step(sigma, kern: FilterKernels, g, schur=None):
    """sigma_ij <- schur_ij g_i sigma_ij g_j, Strang-split around the field rotation.

    g is (d,) or one row per state; schur, if given, is a PSD matrix, so by
    the Schur product theorem the step maps positive states to positive states.
    """
    G = g[..., :, None] * g[..., None, :]
    if schur is not None:
        G *= schur
    if kern.U_half is None:
        return G * sigma
    return _rotate(G * _rotate(sigma, kern.U_half), kern.U_half)


def _homodyne_rows(kern: FilterKernels, dt, dy, a_t):
    """Homodyne step rows g = exp(-a^2 dt s^2 / 2 + a dy s), one row per dy."""
    return np.exp(a_t * (np.asarray(dy)[..., None] * kern.s - 0.5 * a_t * dt * kern.s**2))


def _limit_rows(kern: FilterKernels, dt, dy):
    """Limit step rows h = exp(-M dt m^2 + sqrt(M) dy m), one row per dy."""
    return np.exp(kern.sqrt_M * np.asarray(dy)[..., None] * kern.levels - kern.M * dt * kern.levels2)


def pol_drift_raw(sigma, kern: FilterKernels, dt):
    """No-count evolution of the counting Zakai equation over dt (linear in sigma).

    Its dissipative terms cancel for every drive power, because
    L_xi^2 + L_eta^2 = 2, so the step is exactly the field rotation
    U sigma U^dagger: a fresh copy of sigma for B = 0.
    """
    _check_dt(kern, dt)
    if kern.U is None:
        return np.array(sigma, dtype=complex)
    return _rotate(sigma, kern.U)


def pol_jump_raw(sigma, kern: FilterKernels, channel: str):
    """Count update L_a sigma L_a, unnormalized."""
    mask = kern.K_xi if channel == "xi" else kern.K_eta
    return mask * sigma


def homodyne_raw(sigma, kern: FilterKernels, dt, dy, a_t):
    """Exact homodyne Zakai step over dt (linear in sigma); dy is a scalar or one value per state.

    For B = 0 each entry solves a scalar linear SDE, so
    sigma <- C o (g sigma g) with C = exp(a^2 dt (c c^T - 1)) taken
    elementwise and g = exp(-a^2 dt s^2 / 2 + a dy s).
    """
    _check_dt(kern, dt)
    return _diagonal_step(sigma, kern, _homodyne_rows(kern, dt, dy, a_t), kern.C[a_t])


def limit_raw(sigma, kern: FilterKernels, dt, dy):
    """Exact limit Zakai step over dt (linear in sigma); dy is a scalar or one value per state.

    For B = 0 it is the diagonal congruence sigma <- h sigma h with
    h = exp(-M dt F_z^2 + sqrt(M) dy F_z).
    """
    _check_dt(kern, dt)
    return _diagonal_step(sigma, kern, _limit_rows(kern, dt, dy))


def min_eig_hermitian(rho):
    """Smallest eigenvalue; closed form for dim 2, LAPACK otherwise."""
    d = rho.shape[-1]
    if d == 2:
        a = rho[..., 0, 0].real
        c = rho[..., 1, 1].real
        h2 = np.abs(rho[..., 0, 1]) ** 2
        mid = 0.5 * (a + c)
        rad = np.sqrt(0.25 * (a - c) ** 2 + h2)
        return mid - rad
    return np.linalg.eigvalsh(rho)[..., 0]


def project_positive(rho, floor: float = EPS_POS):
    """Clip the eigenvalues of one state at zero and renormalize if one is below -floor.

    The filter steps are positive by construction and never call this; the
    master-equation integrator does, with floor 0. min_eig_hermitian screens
    the state; one that fails is decided by its eigh spectrum.
    """
    if min_eig_hermitian(rho) >= -floor:
        return rho
    w, v = np.linalg.eigh(rho)
    if w[0] >= -floor:
        return rho
    out = (v * np.clip(w, 0.0, None)) @ v.conj().T
    tr = np.trace(out).real
    if tr <= 0.0:
        raise ValueError("state vanished under positivity projection")
    return out / tr


class _SharedFactor(NamedTuple):
    """The (d, d) factor D of a LevelState batch, with what its moments read of it."""

    D: np.ndarray
    p0: np.ndarray      # diag(D), real: rho0's diagonal
    abs2: np.ndarray    # |D_ij|^2
    fx_w: np.ndarray    # 2 F_x[i+1, i] Re D[i+1, i]

    @classmethod
    def of(cls, D, kern: FilterKernels):
        return cls(D, D.diagonal().real.copy(), D.real**2 + D.imag**2, 2.0 * kern.F_x_sub * np.diagonal(D, -1).real)

    def times(self, sc: LevelSchur):
        """The factor D o C_hat."""
        return _SharedFactor(self.D * sc.C_hat, self.p0, self.abs2 * sc.C_hat2, self.fx_w * sc.C_hat_sub)


class LevelState:
    """A batch of B = 0 filter states in the F_z basis: rho = D o (g g^T).

    g is (batch, d) real, one row of level weights per state; D = rho0 o
    C_hat(t) is one (d, d) factor that the batch shares. The per-level part
    of every step factor is folded into g, so D's diagonal stays rho0's and
    renormalizing means scaling g by 1/sqrt(tr). Levels that rho0 leaves
    empty keep the weight 0, since no record can lift them.
    """

    __slots__ = ("g", "shared", "_g2", "_p")

    def __init__(self, g, shared: _SharedFactor):
        self.g = g
        self.shared = shared
        self._g2 = self._p = None

    @classmethod
    def initial(cls, rho0, batch, kern: FilterKernels):
        shared = _SharedFactor.of(0.5 * (rho0 + _dagger(rho0)), kern)
        g = np.broadcast_to((shared.p0 > 0.0).astype(float), (batch, kern.dim)).copy()
        return cls(g, shared)

    @property
    def shape(self):
        return (*self.g.shape, self.g.shape[-1])

    def diagonal(self):
        """diag(rho) = diag(D) g^2, (batch, d) real."""
        if self._p is None:
            self._p = self.shared.p0 * self.g2()
        return self._p

    def g2(self):
        if self._g2 is None:
            self._g2 = self.g * self.g
        return self._g2

    def matrix(self):
        """The (batch, d, d) states."""
        return self.shared.D * (self.g[:, :, None] * self.g[:, None, :])

    def fx(self):
        """trace(rho F_x), from the sub-diagonal since F_x is tridiagonal."""
        return np.vecdot(self.g[:, 1:] * self.g[:, :-1], self.shared.fx_w)

    def purity(self):
        """trace(rho^2) = (g^2)^T |D|^2 (g^2), one matrix-vector product per state."""
        g2 = self.g2()
        return np.vecdot(np.matmul(g2[:, None, :], self.shared.abs2)[:, 0], g2)

    def scaled(self, rows, schur: LevelSchur = None):
        """rho_ij <- C_ij rows_i rho_ij rows_j, with C = schur.C_hat o (schur.q schur.q^T) or 1."""
        if schur is None:
            return LevelState(self.g * rows, self.shared)
        return LevelState(self.g * (rows * schur.q), self.shared.times(schur))


def _checked_trace(tr):
    if not (tr > 0.0).all():   # also catches a NaN trace
        raise ValueError("filter trace vanished; record is inconsistent with the model")
    return tr


def finish_step(raw):
    """Read the trace factor of a step's output and renormalize it.

    Returns (state with unit trace, trace factor). A matrix (or batch) is
    hermitized first; a LevelState is already Hermitian and has its weights
    scaled by 1/sqrt(tr). The updates are positive by construction, so
    nothing is screened or projected here.
    """
    if isinstance(raw, LevelState):
        tr = _checked_trace(np.vecdot(raw.g2(), raw.shared.p0))
        return LevelState(raw.g * (1.0 / np.sqrt(tr))[:, None], raw.shared), tr
    out = raw + _dagger(raw)
    tr = _checked_trace(0.5 * _btrace(out))
    out *= 0.5 / (tr[..., None, None] if out.ndim > 2 else tr)
    return out, tr


# ---------------------------------------------------------------------------
# public step operations on FilterState
# ---------------------------------------------------------------------------

def polarimetry_rates(state: FilterState, params: ModelParams, t: float = None):
    """Predicted count rates (r_xi, r_eta) of the two polarimeter channels.

    r_a = |f(t)|^2 pi_t(L_a^2) / 2; the two always sum to the full photon
    flux |f(t)|^2 because L_xi^2 + L_eta^2 = 2.
    """
    if t is None:
        t = state.t
    kern = build_kernels(params)
    p = np.einsum("...ii->...i", state.rho).real
    a2 = params.drive_power(t)
    r_xi = 0.5 * a2 * p @ kern.lxi2
    r_eta = 0.5 * a2 * p @ kern.leta2
    return float(r_xi), float(r_eta)


def check_jump_bound(scheme, params: ModelParams, times):
    """Reject counting steps starting at times whose alpha(t)^2 dt exceeds JUMP_BOUND.

    Whole runs pass their step grid, params.time_grid()[:-1]. The diffusive
    schemes have no jump-step bound and always pass.
    """
    if scheme != "polarimetry":
        return
    a2dt = max(params.drive_power(t) for t in times) * params.dt
    if a2dt > JUMP_BOUND:
        raise ValueError(f"alpha^2 dt = {a2dt:.4g} exceeds the one-jump bound {JUMP_BOUND}; reduce dt")


def _check_counts(p, obs, kern: FilterKernels):
    """Reject a recorded count whose probability, against the pre-count diagonals p, is (numerically) zero."""
    hit = obs != 0   # a 0-d mask selects a single state as a batch of one
    p, codes = p[hit], obs[hit]
    zero = np.vecdot(p, kern.count_rows[codes] ** 2) <= ZERO_COUNT_TOL * p.sum(-1)
    if zero.any():
        channel = "xi" if codes[zero][0] == 1 else "eta"
        raise ValueError(f"recorded {channel}-count has zero probability; record is inconsistent with the model")


def increment(scheme, rho, obs, t, params: ModelParams, kern: FilterKernels):
    """Unnormalized step of the scheme's linear filter over [t, t + dt] (see the module notes).

    rho is one state (d, d), a batch (b, d, d) or, for B = 0, a LevelState;
    obs holds the matching event code(s) (0 none, 1 xi, 2 eta) for
    polarimetry, or the dy value(s) for the diffusive schemes. A matrix
    takes the step with the field rotations; a LevelState takes the same
    diagonal factor on its weights. A counting step applies the no-count
    evolution first, then at most one count per state; a count with
    (numerically) zero probability raises ValueError.
    """
    levels = isinstance(rho, LevelState)
    if scheme == "homodyne":
        a = params.alpha_of(t)
        if levels:
            return rho.scaled(_homodyne_rows(kern, params.dt, obs, a), kern.C_levels[a])
        return homodyne_raw(rho, kern, params.dt, obs, a)
    if scheme == "limit":
        if levels:
            return rho.scaled(_limit_rows(kern, params.dt, obs))
        return limit_raw(rho, kern, params.dt, obs)
    raw = rho if levels else pol_drift_raw(rho, kern, params.dt)   # the drift is the identity for B = 0
    obs = np.asarray(obs)
    if not np.count_nonzero(obs):   # most steps record no count
        return raw
    _check_counts(raw.diagonal() if levels else np.einsum("...ii->...i", raw).real, obs, kern)
    if levels:
        return rho.scaled(kern.count_rows[obs])
    for code, channel in ((1, "xi"), (2, "eta")):
        hit = obs == code   # a 0-d mask selects a single state as a batch of one
        if np.count_nonzero(hit):
            raw[hit] = pol_jump_raw(raw[hit], kern, channel)
    return raw


def step(state: FilterState, obs: ObservationIncrement, params: ModelParams) -> FilterState:
    """Advance a filter state by one observation step.

    Both modes take the same update and keep rho at unit trace: linear mode
    adds the log of the step's trace factor to loglik, so sigma_t =
    exp(loglik) * rho, while normalized mode keeps loglik at 0. Its
    continuous limit is the usual normalized filter driven by the
    innovations (dy - 2 alpha pi(sin(kappa F_z)) dt for homodyne,
    dy - 2 sqrt(M) pi(F_z) dt for the limit). For the counting scheme with
    B = 0, diagonal states are exact fixed points of the drift.
    """
    counting = state.scheme == "polarimetry"
    if abs(obs.dt - params.dt) > 1e-12 * max(1.0, params.dt):
        raise ValueError(f"observation dt {obs.dt} does not match params.dt {params.dt}")
    if counting and obs.dy is not None:
        raise ValueError("counting step takes an event, not dy")
    if not counting and obs.dy is None:
        raise ValueError("diffusive step needs an observation with dy")
    check_jump_bound(state.scheme, params, [state.t])
    code = {None: 0, "xi": 1, "eta": 2}[obs.event] if counting else obs.dy
    rho, tr = finish_step(increment(state.scheme, state.rho, code, state.t, params, build_kernels(params)))
    loglik = state.loglik + float(np.log(tr)) if state.mode == "linear" else 0.0
    return replace(state, rho=rho, t=state.t + obs.dt, loglik=loglik)


# ---------------------------------------------------------------------------
# record replay
# ---------------------------------------------------------------------------

@dataclass
class FilterRun:
    """Filtered summaries along one observation record."""

    t: np.ndarray
    fx: np.ndarray
    fz: np.ndarray
    fz2: np.ndarray
    var_z: np.ndarray
    purity: np.ndarray
    loglik: np.ndarray
    states: np.ndarray = None


def run_filter(scheme, mode, params: ModelParams, observations, rho0=None, keep_states=False) -> FilterRun:
    """Replay a recorded observation sequence through one filter.

    observations: int array of events per step for polarimetry
    (0 none, 1 xi, 2 eta), or float array of dy increments for the
    diffusive schemes. The record is replayed as a batch of one through the
    co-simulation loop, :func:`spinprobe.trajectory._simulate_block`.
    """
    from .trajectory import _FullCollector, _simulate_block   # trajectory imports this module

    rho0 = FilterState.initial(scheme, mode, params, rho0).rho
    check_jump_bound(scheme, params, params.time_grid()[:-1])
    n = params.n_steps
    observations = np.asarray(observations)
    if observations.shape != (n,):
        raise ValueError(f"expected {n} observation increments, got shape {observations.shape}")
    if scheme == "polarimetry" and not np.isin(observations, (0, 1, 2)).all():
        raise ValueError("polarimetry observations must be event codes 0, 1 or 2")
    if scheme != "polarimetry" and not np.all(np.isfinite(observations)):
        raise ValueError("diffusive observations dy must be finite")
    col = _FullCollector(scheme, n, 1, len(rho0), keep_states)
    _simulate_block(scheme, params, None, [0], rho0, col, observations[None])
    loglik = col.loglik[0] if mode == "linear" else np.zeros(n + 1)
    return FilterRun(
        params.time_grid(), col.fx[0], col.fz[0], col.fz2[0], col.var_z[0], col.purity[0], loglik,
        None if col.states is None else col.states[0],
    )
