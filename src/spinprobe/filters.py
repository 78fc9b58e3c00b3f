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
  c = cos(kappa m), s = sin(kappa m). C = C_hat o (q q^T) with
  C_hat = exp(-a^2 dt (c_i - c_j)^2 / 2) and q = exp(-a^2 dt s^2 / 2)
  (:class:`LevelSchur`), so the step is taken as C_hat o (f sigma f) with
  f = q g = exp(a s dy - a^2 dt s^2);
* counting: the no-count drift is the identity, since the channel operators
  satisfy L_xi^2 + L_eta^2 = 2, and a count multiplies by L_a sigma L_a,
  whose factor L_a = c +- s is a row of ``count_rows``.

Each scheme's step is built once, by ``_step_factors``, as level-major
diagonal factors f plus, for homodyne, the C_hat of the drive, and both
state representations apply those same factors. The diagonal congruences
are positive, and C_hat is positive semidefinite (a Gaussian kernel in
c_i), so by the Schur product theorem every step maps positive states to
positive states. A field B F_y enters through U_1/2 = exp(-i B F_y dt / 2):
on matrices the diffusive steps are Strang-split as
U_1/2 D(U_1/2 sigma U_1/2^dagger) U_1/2^dagger around the diagonal step D,
and the counting step rotates by U = U_1/2^2 before the count. The steps
are therefore exact for B = 0 and positive for any B; no state is screened
or projected. The eigenvalue floor and :func:`project_positive` serve only
the master-equation integrator :func:`spinprobe.generators.master_evolve`.

Without a field the probe measures F_z nondemolitionally, so a batch can
also be carried in the F_z level basis as a :class:`LevelState`,
rho = D o (g g^T): g holds d real weights per state, level-major, and
D = rho0 o C_hat(t) is one (d, d) factor shared by the batch (rho0 for the
limit and counting schemes, times the running product of the homodyne
C_hat). A step multiplies g by the step factors f and D by C_hat;
:func:`finish_step` rescales g by 1/sqrt(tr). A counting step leaves the
states without a count as they are, so the propagation loop steps only the
states that counted (by c +- s) and writes them back in place. D's
diagonal stays rho0's, so nothing shared can underflow. d x d matrices
are built only when asked for. The matrix step is the
reference: it is what :func:`step` takes, what every run with a field
takes, and what the closed-form tests pin.

A level step reads everything it needs from one fused level sum,
W g^2 with W = [p0 o (1, m, m^2, s, (c+s)^2, (c-s)^2); U] (p0 = diag rho0,
U the upper triangle of |D|^2 with doubled off-diagonal): row 0 is the
trace factor, the next rows over the trace are pi(F_z), pi(F_z^2), the
homodyne drift and the two count rates, and the last d rows give purity
as the symmetric sum over level pairs i <= j. fx is a level sum over the
sub-diagonal. How a level sum runs depends on d alone (LEVEL_LOOP_MAX):
with few levels, as a fixed-order loop over the levels, one ufunc call per
level on batch-long vectors; with more, as one matrix-vector product per
state, for which g is kept with each state's levels contiguous in memory.
Either way each sum runs over one state's own terms in an order fixed by
d, so a state's results have the same bits in a batch of any width.
Nothing is summed across states (as a matrix product over the batch
would), and nothing along the level axis of a 2-d array, where numpy
switches to pairwise summation in an order that depends on the width.

The field rotations come from one cached eigendecomposition of F_y per
spin space: exp(-i theta F_y) = V exp(-i theta Lambda) V^dagger.

:func:`step` advances one :class:`FilterState` by one observation; every
run along the time grid goes through the one propagation loop of
:mod:`spinprobe.trajectory`, which co-simulates batches and also replays a
given record for :func:`run_filter` (as a batch of one). Both apply
:func:`increment` and :func:`finish_step`, with the kernels of
:func:`build_kernels`, built once per parameter set.

A counting step applies at most one recorded count; the one-jump error per
step is O((alpha^2 dt)^2), and :func:`check_jump_bound` enforces
alpha^2 dt <= 0.1. All update functions are pure: they return fresh states.
Only the propagation loop writes in place, into its own batch, with
:meth:`LevelState.put`.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .spin_algebra import DensityState, make_spin_ops, coherent_x_state, EPS_POS
from .generators import GRID_TOL, ModelParams

SCHEMES = ("polarimetry", "homodyne", "limit")
MODES = ("normalized", "linear")

JUMP_BOUND = 0.1

# The rows of FilterKernels.level_rows: what one fused level sum per step
# weighs the diagonal with (row 0 gives the trace).
LEVEL_ROWS = ("1", "F_z", "F_z^2", "sin(kappa F_z)", "L_xi^2", "L_eta^2")

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
    """The homodyne Schur factor of one drive a: C = exp(a^2 dt (c c^T - 1)) = C_hat o (q q^T).

    Since c_i c_j - 1 = -(c_i - c_j)^2 / 2 - (s_i^2 + s_j^2) / 2, C_hat has a
    unit diagonal and q = exp(-a^2 dt s^2 / 2). q is folded into the step
    factors, so both state representations multiply the levels by
    q g = exp(a s dy - a^2 dt s^2) and take the Schur product with C_hat.
    """

    a_s: np.ndarray         # a s
    b: np.ndarray           # a^2 dt s^2
    C_hat: np.ndarray       # exp(-a^2 dt (c_i - c_j)^2 / 2)
    sums_factor: np.ndarray # the factor of the fused-sum weights: 1 on the level rows, C_hat^2 on |D|^2's
    C_hat_sub: np.ndarray   # sub-diagonal of C_hat, for fx


@dataclass(frozen=True)
class FilterKernels:
    """Read-only F_z-basis arrays of one parameter set; only the field rotations are not elementwise."""

    dim: int
    dt: float
    levels: np.ndarray        # F_z eigenvalues m, descending
    s: np.ndarray             # sin(kappa m)
    level_rows: np.ndarray    # rows 1, m, m^2, s, (c+s)^2, (c-s)^2: the weights of one fused level sum
    count_rows: np.ndarray    # rows 1, c+s, c-s: the level factor of event code 0 (none), 1 (xi), 2 (eta)
    C_levels: Mapping         # alpha -> LevelSchur: the homodyne Schur factor of that drive
    U: np.ndarray             # exp(-i B F_y dt); None for B = 0
    U_half: np.ndarray        # exp(-i B F_y dt / 2); None for B = 0
    F_x_sub: np.ndarray       # sub-diagonal of F_x, which is tridiagonal (real)
    M: float
    sqrt_M: float


@lru_cache(maxsize=64)
def build_kernels(params: ModelParams) -> FilterKernels:
    """The kernels of params, built once per distinct ModelParams and shared read-only."""
    space = params.space
    m = space.fz_levels()
    c = np.cos(params.kappa * m)
    s = np.sin(params.kappa * m)
    drives = {params.alpha} | {a for _, a in params.alpha_schedule or ()}
    C_levels = {}
    for a in drives:
        c_hat = np.exp(-0.5 * a * a * params.dt * np.subtract.outer(c, c) ** 2)
        sums_factor = np.vstack([np.ones((len(LEVEL_ROWS), space.dim)), c_hat**2])
        C_levels[a] = LevelSchur(a * s, a * a * params.dt * s**2, c_hat, sums_factor, np.diagonal(c_hat, -1).copy())
    U = U_half = None
    if params.B != 0.0:
        U = _fy_rotation(space, params.B * params.dt)
        U_half = _fy_rotation(space, 0.5 * params.B * params.dt)
    kern = FilterKernels(
        dim=space.dim,
        dt=params.dt,
        levels=m,
        s=s,
        level_rows=np.stack([np.ones_like(c), m, m**2, s, (c + s) ** 2, (c - s) ** 2]),
        count_rows=np.stack([np.ones_like(c), c + s, c - s]),
        C_levels=MappingProxyType(C_levels),
        U=U,
        U_half=U_half,
        F_x_sub=np.diagonal(make_spin_ops(space)[0], -1).real.copy(),
        M=params.M,
        sqrt_M=np.sqrt(params.M),
    )
    for arr in (*vars(kern).values(), *(x for split in C_levels.values() for x in split)):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return kern


@lru_cache(maxsize=16)
def _fy_eigh(space):
    """The spectral decomposition (Lambda, V) of F_y, once per spin space (read-only)."""
    w, v = np.linalg.eigh(make_spin_ops(space)[1])
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _fy_rotation(space, theta):
    """exp(-i theta F_y) = V exp(-i theta Lambda) V^dagger, from the cached eigh of F_y.

    F_y is imaginary, so the rotation is real; its imaginary part is rounding
    and is dropped, which keeps real states exactly real.
    """
    w, v = _fy_eigh(space)
    return ((v * np.exp(-1j * theta * w)) @ v.conj().T).real.astype(complex)


# ---------------------------------------------------------------------------
# array kernels; rho may carry leading batch axes
# ---------------------------------------------------------------------------

def _dagger(rho):
    return rho.swapaxes(-1, -2).conj()


def _btrace(rho):
    return np.einsum("...ii->...", rho).real


def _rotate(sigma, u):
    return u @ sigma @ _dagger(u)


def _congruence(sigma, f, schur: LevelSchur = None, u_half=None):
    """sigma_ij <- C_ij f_i sigma_ij f_j with C = schur.C_hat or 1, Strang-split around u_half if given.

    f is (d,) or level-major (d, batch), as :meth:`LevelState.scaled` takes
    it. C_hat is positive semidefinite, so by the Schur product theorem the
    step maps positive states to positive states.
    """
    f = f.T
    G = f[..., :, None] * f[..., None, :]
    if schur is not None:
        G *= schur.C_hat
    if u_half is None:
        return G * sigma
    return _rotate(G * _rotate(sigma, u_half), u_half)


def _level_factors(a, b, dy):
    """exp(a_i dy - b_i) for every level i and every dy (a scalar or a vector), level-major.

    The shape is (d,) + dy.shape, laid out as LevelState keeps its weights:
    each level's factors contiguous for few levels, each dy's for more.
    """
    dy = np.asarray(dy)
    if len(a) > LEVEL_LOOP_MAX:
        return np.exp(np.multiply.outer(dy, a) - b).T
    return np.exp(np.multiply.outer(a, dy) - b.reshape(b.shape + (1,) * dy.ndim))


def _step_factors(scheme, kern: FilterKernels, obs, a_t=None):
    """The scheme's step over kern.dt as (level-major factors f, LevelSchur or None); see the module notes.

    obs is dy (diffusive) or an event code (counting), a scalar or one value
    per state. Both state representations apply exactly these factors.
    """
    if scheme == "homodyne":
        sc = kern.C_levels[a_t]
        return _level_factors(sc.a_s, sc.b, obs), sc
    if scheme == "limit":
        return _level_factors(kern.sqrt_M * kern.levels, kern.M * kern.dt * kern.level_rows[2], obs), None
    return kern.count_rows[obs].T, None


def pol_drift_raw(sigma, kern: FilterKernels):
    """No-count evolution of the counting Zakai equation over kern.dt (linear in sigma).

    Its dissipative terms cancel for every drive power, because
    L_xi^2 + L_eta^2 = 2, so the step is exactly the field rotation
    U sigma U^dagger: a fresh copy of sigma for B = 0.
    """
    if kern.U is None:
        return np.array(sigma, dtype=complex)
    return _rotate(sigma, kern.U)


def pol_jump_raw(sigma, kern: FilterKernels, channel):
    """Count update L_a sigma L_a, unnormalized.

    channel is "xi" or "eta", or per-state event codes (0 none, 1 xi, 2 eta);
    a state with code 0 is multiplied by 1, which leaves it unchanged.
    """
    code = {"xi": 1, "eta": 2}[channel] if isinstance(channel, str) else channel
    return _congruence(sigma, _step_factors("polarimetry", kern, code)[0])


def homodyne_raw(sigma, kern: FilterKernels, dy, a_t):
    """Exact homodyne Zakai step over kern.dt (linear in sigma); dy is a scalar or one value per state.

    For B = 0 each entry solves a scalar linear SDE, so
    sigma <- C_hat o (q g sigma g q) with the factors of C_levels[a_t].
    """
    return _congruence(sigma, *_step_factors("homodyne", kern, dy, a_t), kern.U_half)


def limit_raw(sigma, kern: FilterKernels, dy):
    """Exact limit Zakai step over kern.dt (linear in sigma); dy is a scalar or one value per state.

    For B = 0 it is the diagonal congruence sigma <- h sigma h with
    h = exp(-M dt F_z^2 + sqrt(M) dy F_z).
    """
    return _congruence(sigma, *_step_factors("limit", kern, dy), kern.U_half)


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


# Level sums over at most this many F_z levels run as a fixed-order loop over
# their terms, one ufunc call per term on batch-long vectors; with more levels
# they run as one matrix-vector product per state. Set from measured step
# costs (BENCH_3.json): at J = 1/2 and J = 1 the loop makes a wide step about
# a quarter cheaper and a batch-of-one step 10-25% dearer; from J = 2 up it
# loses. J = 1 stays on the products per state so that replays, which run as
# batches of one, do not get dearer.
LEVEL_LOOP_MAX = 2


def _level_sums(W, x, d):
    """The weighted sums sum_i W[k, i] x[i, b], as a (k, batch) array.

    x is level-major: one row per term i, holding its value for every state
    b. The level count d alone picks the algorithm, and each sum runs over
    one state's own terms in a fixed order, so a state's sums have the same
    bits in a batch of any width. Nothing is reduced across states, and
    nothing along an axis of a 2-d array, where numpy switches to pairwise
    summation. The products read each state's terms contiguously (copied if
    they are not), since BLAS sums strided and contiguous vectors in
    different orders.
    """
    if d > LEVEL_LOOP_MAX:
        return np.matmul(np.ascontiguousarray(x.T)[:, None, :], W.T)[:, 0].T
    acc = W[:, :1] * x[0]
    for i in range(1, len(x)):
        acc += W[:, i : i + 1] * x[i]
    return acc


def _level_dot(x, y, d):
    """sum_i x[i, b] y[i, b] for each state b, by the rule of _level_sums."""
    if d > LEVEL_LOOP_MAX:
        return np.vecdot(np.ascontiguousarray(x.T), np.ascontiguousarray(y.T))
    acc = x[0] * y[0]
    for i in range(1, d):
        acc += x[i] * y[i]
    return acc


class _SharedFactor(NamedTuple):
    """The (d, d) factor D of a LevelState batch, with what its step sums read of it.

    Built without moments (for a pass that reads only traces and means), it
    keeps no D and no fx_w and holds still: C_hat is 1 on the level rows, the
    only rows such a pass reads. Each sum over more than LEVEL_LOOP_MAX levels
    is one BLAS product per state, whose kernel takes the weight rows in
    groups (of four, with OpenBLAS), so a row's bits depend on how many rows
    the product has; there the unread U rows stay in W, and every trace and
    mean keeps the bits of the full sum.
    """

    D: np.ndarray
    p0: np.ndarray      # diag(D), real: rho0's diagonal
    W: np.ndarray       # weights of the fused level sum: p0 o kern.level_rows, then U (below)
    fx_w: np.ndarray    # 2 F_x[i+1, i] Re D[i+1, i]

    @classmethod
    def of(cls, D, kern: FilterKernels, moments=True):
        p0 = D.diagonal().real.copy()
        abs2 = D.real**2 + D.imag**2
        U = 2.0 * np.triu(abs2, 1) + np.diag(p0**2)   # |D|^2 over i <= j, off-diagonal doubled
        W = np.vstack([p0 * kern.level_rows, U])
        if not moments:
            return cls(None, p0, W if kern.dim > LEVEL_LOOP_MAX else W[: len(LEVEL_ROWS)], None)
        return cls(D, p0, W, 2.0 * kern.F_x_sub * np.diagonal(D, -1).real)

    def times(self, sc: LevelSchur):
        """The factor D o C_hat."""
        if self.D is None:   # built without moments: nothing read moves
            return self
        return _SharedFactor(self.D * sc.C_hat, self.p0, self.W * sc.sums_factor, self.fx_w * sc.C_hat_sub)


class LevelState:
    """A batch of B = 0 filter states in the F_z basis: rho = D o (g g^T).

    g is (d, batch) real and level-major: column b holds the level weights of
    state b. With at most LEVEL_LOOP_MAX levels each level's weights are one
    contiguous batch-long vector; with more, each state's levels are
    contiguous in memory, for the products per state. D = rho0 o C_hat(t) is
    one (d, d) factor that the batch shares. The per-level part of every step
    factor is folded into g, so D's diagonal stays rho0's and renormalizing
    means scaling g by 1/sqrt(tr). Levels that rho0 leaves empty keep the
    weight 0, since no record can lift them.

    A normalized state (from :func:`finish_step`) carries its moments:
    ``means``, the (5, batch) rows pi(F_z), pi(F_z^2), pi(sin kappa F_z),
    pi(L_xi^2) and pi(L_eta^2), and ``fx`` and ``purity``. A raw step output
    carries None. A batch built with ``moments=False`` carries only the
    means (fx and purity stay None) and has no matrix form; its traces and
    means have the same bits as with moments.

    The steps are pure, but the one propagation loop updates its own batch
    in place where a counting step (B = 0) moves only the states that
    counted: :meth:`take` hands those rows out as a batch, and :meth:`put`
    writes their normalized step back, moments included. The other rows keep
    their weights and moments bit for bit.
    """

    __slots__ = ("g", "shared", "means", "fx", "purity")

    def __init__(self, g, shared: _SharedFactor, means=None, fx=None, purity=None):
        self.g = g
        self.shared = shared
        self.means = means
        self.fx = fx
        self.purity = purity

    @classmethod
    def initial(cls, rho0, batch, kern: FilterKernels, moments=True):
        shared = _SharedFactor.of(0.5 * (rho0 + _dagger(rho0)), kern, moments)
        g = np.broadcast_to((shared.p0 > 0.0).astype(float)[:, None], (kern.dim, batch)).copy()
        return cls(g, shared)._normalized()[0]

    @property
    def shape(self):
        d, batch = self.g.shape
        return (batch, d, d)

    def diagonal(self):
        """diag(rho) = diag(D) g^2, (batch, d) real."""
        return (self.shared.p0[:, None] * (self.g * self.g)).T

    def matrix(self):
        """The (batch, d, d) states."""
        g = self.g.T
        return self.shared.D * (g[:, :, None] * g[:, None, :])

    def take(self, rows):
        """The states at the integer indices rows, as a new batch without moments (a raw step input)."""
        return LevelState(self.g[:, rows], self.shared)

    def put(self, rows, new):
        """Overwrite the states at rows, and their moments, with the normalized batch new, in place."""
        self.g[:, rows] = new.g
        self.means[:, rows] = new.means
        if self.fx is not None:
            self.fx[rows] = new.fx
            self.purity[rows] = new.purity

    def _normalized(self):
        """(This batch at unit trace with its moments, the traces).

        One fused level sum W g^2 gives the trace (row 0), the means (over the
        trace) and z_i = sum_{j >= i} U_ij g^2_j, so purity = sum_ij
        |D_ij|^2 g^2_i g^2_j is the symmetric sum over i <= j, sum_i g^2_i z_i
        over tr^2. fx = trace(rho F_x) is a level sum over the sub-diagonal,
        since F_x is tridiagonal. A batch without moments stops at the means.
        """
        g, sh = self.g, self.shared
        d = len(g)
        if d > LEVEL_LOOP_MAX:   # lay each state's levels out contiguously, once, for the dot products
            g = np.ascontiguousarray(g.T).T
        g2 = g * g
        sums = _level_sums(sh.W, g2, d)
        tr = _checked_trace(sums[0])
        inv = 1.0 / tr
        g = g * np.sqrt(inv)
        n = len(LEVEL_ROWS)
        if sh.fx_w is None:
            return LevelState(g, sh, sums[1:n] * inv), tr
        fx = _level_sums(sh.fx_w[None], g[1:] * g[:-1], d)[0]
        purity = _level_dot(g2, sums[n:], d) * (inv * inv)
        return LevelState(g, sh, sums[1:n] * inv, fx, purity), tr

    def scaled(self, factors, schur: LevelSchur = None):
        """rho_ij <- C_ij f_i rho_ij f_j, with level-major factors f and C = schur.C_hat or 1."""
        return LevelState(self.g * factors, self.shared if schur is None else self.shared.times(schur))


def _checked_trace(tr):
    if not (tr > 0.0).all():   # also catches a NaN trace
        raise ValueError("filter trace vanished; record is inconsistent with the model")
    return tr


def finish_step(raw):
    """Read the trace factor of a step's output and renormalize it.

    Returns (state with unit trace, trace factor). A matrix (or batch) is
    hermitized first. A LevelState is already Hermitian: one fused level sum
    W g^2 gives its trace (row 0) and the moments that the renormalized
    state carries; its weights are scaled by 1/sqrt(tr). The
    updates are positive by construction, so nothing is screened or
    projected here.
    """
    if isinstance(raw, LevelState):
        return raw._normalized()
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
    r_xi = 0.5 * a2 * p @ kern.level_rows[4]
    r_eta = 0.5 * a2 * p @ kern.level_rows[5]
    return float(r_xi), float(r_eta)


def check_jump_bound(scheme, params: ModelParams, times):
    """Reject counting steps starting at times whose alpha(t)^2 dt exceeds JUMP_BOUND.

    Whole runs pass their step grid, params.time_grid()[:-1]. The diffusive
    schemes have no jump-step bound and always pass. A schedule entry counts
    if it is in force at one of the times by the rule of ModelParams.alpha_of:
    the last entry starting at or before t + GRID_TOL.
    """
    if scheme != "polarimetry":
        return
    a = params.alpha
    if params.alpha_schedule is not None:
        starts, amps = np.array(params.alpha_schedule).T
        k = np.searchsorted(starts, np.asarray(times, dtype=float) + GRID_TOL, side="right")
        a = float(amps[np.maximum(k - 1, 0)].max())
    a2dt = a**2 * params.dt
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
    if scheme != "polarimetry":
        a = params.alpha_of(t) if scheme == "homodyne" else None
        if levels:
            return rho.scaled(*_step_factors(scheme, kern, obs, a))
        if scheme == "homodyne":
            return homodyne_raw(rho, kern, obs, a)
        return limit_raw(rho, kern, obs)
    raw = rho if levels else pol_drift_raw(rho, kern)   # the drift is the identity for B = 0
    obs = np.asarray(obs)
    if not np.count_nonzero(obs):   # most steps record no count
        return raw
    _check_counts(raw.diagonal() if levels else np.einsum("...ii->...i", raw).real, obs, kern)
    if levels:
        return rho.scaled(*_step_factors(scheme, kern, obs))
    return pol_jump_raw(raw, kern, obs)


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
    co-simulation loop, :func:`spinprobe.trajectory._simulate_block`, into
    the collector that co-simulated records use, and the moments, loglik and
    states are read from its rows: a linear replay with states of a
    co-simulated record equals that record bit for bit.
    """
    from .trajectory import _Collector, _simulate_block   # trajectory imports this module

    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = params.n_steps
    observations = np.asarray(observations)
    if observations.shape != (n,):
        raise ValueError(f"expected {n} observation increments, got shape {observations.shape}")
    if scheme == "polarimetry" and not np.isin(observations, (0, 1, 2)).all():
        raise ValueError("polarimetry observations must be event codes 0, 1 or 2")
    if scheme != "polarimetry" and not np.all(np.isfinite(observations)):
        raise ValueError("diffusive observations dy must be finite")
    col = _Collector(scheme, n, 1, params.space.dim, keep_states=keep_states)
    _simulate_block(scheme, params, None, [0], rho0, col, observations[None])
    loglik = col.loglik[0] if mode == "linear" else np.zeros(n + 1)
    return FilterRun(
        params.time_grid(), col.fx[0], col.fz[0], col.fz2[0], col.var_z[0], col.purity[0], loglik,
        None if col.states is None else col.states[0],
    )
