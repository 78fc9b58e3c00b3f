"""Conditional state propagation for the three measurement schemes.

Schemes: jump-type balanced polarimetry (two counting channels), diffusive
homodyne detection of the y channel, and the strong-driving weak-coupling
limit filter. Each comes in a normalized and a linear (unnormalized) variant,
propagated in state form; duality trace(rho_t X) = pi_t(X) bridges to the
observable form.

Numerical scheme
----------------
Each scheme has one update, :func:`increment`: the Euler increment of the
linear filtering equation, evaluated at the stored unit-trace state, for a
single state or a batch. :func:`finish_step` then hermitizes it, reads the
per-step trace factor and renormalizes. The trace factor is the
likelihood-ratio increment: the normalized filter divides it out, the linear
filter accumulates its log (so unnormalized values never underflow). The
mode decides nothing else, so the normalized state is by construction the
normalization of the linear one and the Kallianpur-Striebel identity
pi = sigma/sigma(I) holds pathwise to rounding at any step size; the
continuous-time limit of the update is the usual normalized filter SDE with
its innovations term. For the counting scheme the drift of the constrained
(no-count) evolution is already trace preserving, since the channel
operators satisfy L_xi^2 + L_eta^2 = 2.

:func:`step` advances one :class:`FilterState` by one observation,
:func:`run_filter` replays a whole record, and the co-simulation engine in
:mod:`spinprobe.trajectory` advances batches; all three go through
:func:`increment` and :func:`finish_step`.

Jump handling applies the drift over dt first, then at most one recorded
count; the one-jump error per step is O((alpha^2 dt)^2), and
:func:`check_jump_bound` enforces alpha^2 dt <= 0.1. Diffusive steps are
Euler-Maruyama with a post-step projection onto the positive cone whenever
an eigenvalue dips below the floor. All update functions are pure: they
return fresh states.
"""

from dataclasses import dataclass, replace

import numpy as np

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


@dataclass(frozen=True)
class FilterKernels:
    """Precomputed F_z-basis arrays; everything but the B term is elementwise."""

    dim: int
    levels: np.ndarray        # F_z eigenvalues, descending
    c: np.ndarray             # cos(kappa m)
    s: np.ndarray             # sin(kappa m)
    lxi2: np.ndarray          # (c+s)^2 diagonal of L_xi^2
    leta2: np.ndarray         # (c-s)^2
    K_xi: np.ndarray          # outer(c+s, c+s): count-update mask
    K_eta: np.ndarray
    E_lind: np.ndarray        # c_i c_j + s_i s_j - 1: finite-drive dephasing mask
    E_limit: np.ndarray       # -(m_i - m_j)^2 / 2: limit dephasing mask
    S_plus: np.ndarray        # s_i + s_j: homodyne coupling mask
    Z_plus: np.ndarray        # m_i + m_j: limit coupling mask
    F_x: np.ndarray
    F_y: np.ndarray
    F_z: np.ndarray
    B: float
    M: float
    sqrt_M: float


def build_kernels(params: ModelParams) -> FilterKernels:
    space = params.space
    m = space.fz_levels()
    c = np.cos(params.kappa * m)
    s = np.sin(params.kappa * m)
    lxi = c + s
    leta = c - s
    f_x, f_y, f_z = make_spin_ops(space)
    return FilterKernels(
        dim=space.dim,
        levels=m,
        c=c,
        s=s,
        lxi2=lxi**2,
        leta2=leta**2,
        K_xi=np.outer(lxi, lxi).astype(complex),
        K_eta=np.outer(leta, leta).astype(complex),
        E_lind=(np.outer(c, c) + np.outer(s, s) - 1.0).astype(complex),
        E_limit=(-0.5 * np.subtract.outer(m, m) ** 2).astype(complex),
        S_plus=np.add.outer(s, s).astype(complex),
        Z_plus=np.add.outer(m, m).astype(complex),
        F_x=f_x,
        F_y=f_y,
        F_z=f_z,
        B=params.B,
        M=params.M,
        sqrt_M=np.sqrt(params.M),
    )


# ---------------------------------------------------------------------------
# array kernels; rho may carry leading batch axes
# ---------------------------------------------------------------------------

def _dagger(rho):
    return np.conj(np.swapaxes(rho, -1, -2))


def _btrace(rho):
    return np.einsum("...ii->...", rho).real


def lindblad_mask_apply(sigma, kern: FilterKernels, a2):
    """Finite-drive L*(sigma); a2 = |f(t)|^2 (scalar or batch-shaped)."""
    out = _scale(a2, kern.E_lind * sigma)
    if kern.B != 0.0:
        out = out - 1j * kern.B * (kern.F_y @ sigma - sigma @ kern.F_y)
    return out


def limit_mask_apply(sigma, kern: FilterKernels):
    out = kern.M * (kern.E_limit * sigma)
    if kern.B != 0.0:
        out = out - 1j * kern.B * (kern.F_y @ sigma - sigma @ kern.F_y)
    return out


def _scale(a, arr):
    a = np.asarray(a)
    if a.ndim == 0:
        return a * arr
    return a[..., None, None] * arr


def pol_drift_raw(sigma, kern: FilterKernels, dt, a2):
    """No-count Euler drift of the counting Zakai equation (linear in sigma).

    sigma + L*(sigma) dt - sum_a (L_a sigma L_a - sigma) |f|^2/2 dt. The
    gauge structure makes this trace preserving; with B = 0 it reduces to
    the identity, so between counts nothing happens.
    """
    both = (kern.K_xi + kern.K_eta) * sigma - 2.0 * sigma
    return sigma + dt * lindblad_mask_apply(sigma, kern, a2) - _scale(0.5 * np.asarray(a2) * dt, both)


def pol_jump_raw(sigma, kern: FilterKernels, channel: str):
    """Count update L_a sigma L_a, unnormalized."""
    mask = kern.K_xi if channel == "xi" else kern.K_eta
    return mask * sigma


def homodyne_raw(sigma, kern: FilterKernels, dt, dy, a_t):
    """Euler increment of the homodyne Zakai equation (linear in sigma)."""
    coupling = _scale(np.asarray(a_t) * np.asarray(dy), kern.S_plus * sigma)
    return sigma + dt * lindblad_mask_apply(sigma, kern, np.asarray(a_t) ** 2) + coupling


def limit_raw(sigma, kern: FilterKernels, dt, dy):
    """Euler increment of the limit Zakai equation (linear in sigma)."""
    coupling = _scale(kern.sqrt_M * np.asarray(dy), kern.Z_plus * sigma)
    return sigma + dt * limit_mask_apply(sigma, kern) + coupling


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
    """Clip eigenvalues at zero and renormalize wherever one is below -floor.

    min_eig_hermitian screens every state. A single state that fails the
    screen is decided by its eigh spectrum and renormalized with np.trace
    (the master-equation integrator calls it with floor 0); the rows of a
    batch that fail are projected and renormalized with a diagonal sum. The
    two paths round differently, so neither is routed through the other.
    """
    if rho.ndim == 2:
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
    bad = min_eig_hermitian(rho) < -floor
    if not np.any(bad):
        return rho
    rho = rho.copy()
    ww, vv = np.linalg.eigh(rho[bad])
    sub = (vv * np.clip(ww, 0.0, None)[..., None, :]) @ _dagger(vv)
    rho[bad] = sub / _btrace(sub)[..., None, None]
    return rho


def finish_step(raw, project: bool = True):
    """Hermitize, read the trace factor, renormalize, optionally project.

    Returns (state matrix with unit trace, trace factor).
    """
    raw = 0.5 * (raw + _dagger(raw))
    tr = _btrace(raw)
    if np.any(tr <= 0.0):
        raise ValueError("filter trace vanished; record is inconsistent with the model")
    out = raw / (tr[..., None, None] if raw.ndim > 2 else tr)
    if project:
        out = project_positive(out)
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


def increment(scheme, rho, obs, t, params: ModelParams, kern: FilterKernels):
    """Unnormalized Euler increment of the scheme's linear filter over [t, t + dt].

    rho is one state (d, d) or a batch (b, d, d); obs holds the matching
    event code(s) (0 none, 1 xi, 2 eta) for polarimetry, or the dy value(s)
    for the diffusive schemes. A counting step applies the drift first, then
    at most one count per state; a count with (numerically) zero probability
    raises ValueError.
    """
    if scheme == "homodyne":
        return homodyne_raw(rho, kern, params.dt, obs, params.alpha_of(t))
    if scheme == "limit":
        return limit_raw(rho, kern, params.dt, obs)
    raw = pol_drift_raw(rho, kern, params.dt, params.drive_power(t))
    obs = np.asarray(obs)
    if not np.count_nonzero(obs):   # most steps record no count
        return raw
    for code, channel in ((1, "xi"), (2, "eta")):
        hit = obs == code   # a 0-d mask selects a single state as a batch of one
        if np.count_nonzero(hit):
            before = raw[hit]
            jumped = pol_jump_raw(before, kern, channel)
            if np.any(_btrace(jumped) <= ZERO_COUNT_TOL * _btrace(before)):
                raise ValueError(
                    f"recorded {channel}-count has zero probability; record is inconsistent with the model"
                )
            raw[hit] = jumped
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


def _moments(rho, kern):
    p = np.einsum("...ii->...i", rho).real
    fx = np.einsum("...ij,ji->...", rho, kern.F_x).real
    fz = p @ kern.levels
    fz2 = p @ kern.levels**2
    purity = np.einsum("...ij,...ji->...", rho, rho).real
    return fx, fz, fz2, fz2 - fz**2, purity


def run_filter(scheme, mode, params: ModelParams, observations, rho0=None, keep_states=False) -> FilterRun:
    """Replay a recorded observation sequence through one filter.

    observations: int array of events per step for polarimetry
    (0 none, 1 xi, 2 eta), or float array of dy increments for the
    diffusive schemes.
    """
    rho = FilterState.initial(scheme, mode, params, rho0).rho
    check_jump_bound(scheme, params, params.time_grid()[:-1])
    kern = build_kernels(params)
    n = params.n_steps
    observations = np.asarray(observations)
    if observations.shape != (n,):
        raise ValueError(f"expected {n} observation increments, got shape {observations.shape}")
    if scheme == "polarimetry" and not np.isin(observations, (0, 1, 2)).all():
        raise ValueError("polarimetry observations must be event codes 0, 1 or 2")
    dt = params.dt

    shape = (n + 1,)
    fx = np.empty(shape)
    fz = np.empty(shape)
    fz2 = np.empty(shape)
    var_z = np.empty(shape)
    purity = np.empty(shape)
    loglik = np.zeros(shape)
    states = np.empty((n + 1, kern.dim, kern.dim), dtype=complex) if keep_states else None

    fx[0], fz[0], fz2[0], var_z[0], purity[0] = _moments(rho, kern)
    if keep_states:
        states[0] = rho
    ll = 0.0
    for i in range(n):
        rho, tr = finish_step(increment(scheme, rho, observations[i], i * dt, params, kern))
        ll += float(np.log(tr))
        fx[i + 1], fz[i + 1], fz2[i + 1], var_z[i + 1], purity[i + 1] = _moments(rho, kern)
        loglik[i + 1] = ll if mode == "linear" else 0.0
        if keep_states:
            states[i + 1] = rho
    return FilterRun(params.time_grid(), fx, fz, fz2, var_z, purity, loglik, states)
