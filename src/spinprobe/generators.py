"""Unconditional spin dynamics: dissipative generators and a master-equation integrator.

The finite-drive generator dephases the spin in the F_z basis through the
scattering of drive photons; the strong-driving weak-coupling limit replaces
it by pure F_z dephasing at the measurement strength M. An optional magnetic
field enters as the Hamiltonian B*F_y with Heisenberg sign i*B*[F_y, X].
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spin_algebra import SpinSpace, DensityState, make_spin_ops, EPS_POS

M_CONSISTENCY_TOL = 1e-12
GRID_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of one run.

    alpha is the drive amplitude (photon flux alpha^2 counts per unit time),
    kappa the polarization rotation angle per scattered photon, M = alpha^2
    kappa^2 the measurement strength held fixed in the strong-driving limit,
    phi the constant drive phase and B the Larmor rate of an optional applied
    field. An optional piecewise-constant drive schedule overrides alpha;
    each entry is (start_time, amplitude) and the first entry must start at 0.
    """

    twice_j: int
    alpha: float
    kappa: float
    phi: float = 0.0
    B: float = 0.0
    T: float = 1.0
    dt: float = 1e-3
    alpha_schedule: tuple = None

    def __post_init__(self):
        SpinSpace(self.twice_j)
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < self.dt:
            raise ValueError("T must be at least one step dt")
        n = round(self.T / self.dt)
        if n < 1 or abs(self.T - n * self.dt) > GRID_TOL * max(1.0, self.T):
            raise ValueError(f"T={self.T} is not an integer multiple of dt={self.dt}")
        if self.alpha_schedule is not None:
            sched = tuple((float(t), float(a)) for t, a in self.alpha_schedule)
            if not sched or sched[0][0] != 0.0:
                raise ValueError("alpha_schedule must start at time 0")
            if any(a < 0 for _, a in sched):
                raise ValueError("scheduled amplitudes must be nonnegative")
            if any(t2 <= t1 for (t1, _), (t2, _) in zip(sched, sched[1:])):
                raise ValueError("alpha_schedule times must be strictly increasing")
            object.__setattr__(self, "alpha_schedule", sched)

    @classmethod
    def build(cls, j, alpha=None, kappa=None, M=None, **kwargs):
        """Resolve (alpha, kappa, M) with the constraint M = alpha^2 kappa^2.

        Any two of the three determine the third; all three together must be
        consistent to within 1e-12.
        """
        given = {k: v for k, v in (("alpha", alpha), ("kappa", kappa), ("M", M)) if v is not None}
        if M is not None and M < 0:
            raise ValueError("M must be nonnegative")
        if alpha is not None and kappa is not None:
            m_implied = alpha**2 * kappa**2
            if M is not None and abs(M - m_implied) > M_CONSISTENCY_TOL * max(1.0, abs(M)):
                raise ValueError(
                    f"inconsistent parameters: M={M} but alpha^2 kappa^2={m_implied}"
                )
        elif alpha is not None and M is not None:
            if alpha == 0 and M > 0:
                raise ValueError("cannot derive kappa from M with alpha = 0")
            kappa = np.sqrt(M) / alpha if alpha > 0 else 0.0
        elif kappa is not None and M is not None:
            if kappa == 0 and M > 0:
                raise ValueError("cannot derive alpha from M with kappa = 0")
            alpha = np.sqrt(M) / abs(kappa) if kappa != 0 else 0.0
        else:
            raise ValueError(f"need two of alpha, kappa, M; got only {sorted(given)}")
        space = SpinSpace.from_j(j)
        return cls(space.twice_j, float(alpha), float(kappa), **kwargs)

    @cached_property
    def space(self) -> SpinSpace:
        return SpinSpace(self.twice_j)

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def M(self) -> float:
        return self.alpha**2 * self.kappa**2

    def alpha_of(self, t: float) -> float:
        """The drive amplitude at t, by the rule of :meth:`alphas`."""
        return float(self.alphas(t))

    def alphas(self, times) -> np.ndarray:
        """The drive amplitude at each of the times: the last schedule entry starting at or before t + GRID_TOL."""
        times = np.asarray(times, dtype=float)
        if self.alpha_schedule is None:
            return np.full(times.shape, self.alpha)
        starts, amps = np.array(self.alpha_schedule).T
        k = np.searchsorted(starts, times + GRID_TOL, side="right")
        return amps[np.maximum(k - 1, 0)]

    def drive(self, t: float) -> complex:
        """Drive value f(t) = alpha(t) exp(i phi)."""
        return self.alpha_of(t) * np.exp(1j * self.phi)

    def drive_power(self, t: float) -> float:
        return self.alpha_of(t) ** 2

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)

    def time_grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def _cos_sin(params):
    """cos(kappa m) and sin(kappa m) over the F_z levels m: the diagonals of cos(kappa F_z) and sin(kappa F_z)."""
    m = params.space.fz_levels()
    return np.cos(params.kappa * m), np.sin(params.kappa * m)


def _check_dim(op, params):
    dim = params.space.dim
    op = np.asarray(op, dtype=complex)
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match spin dimension {dim}")
    return op


def _field(x, params: ModelParams, sign):
    """sign i B [F_y, x]: the field term, + in the Heisenberg picture and - in the Schrodinger picture."""
    _, f_y, _ = make_spin_ops(params.space)
    return sign * 1j * params.B * (f_y @ x - x @ f_y)


def _lindblad(x, params: ModelParams, a2, sign):
    """The finite-drive generator at drive power a2, in the picture of the field sign; its dissipator is self-dual."""
    x = _check_dim(x.rho if isinstance(x, DensityState) else x, params)
    c, s = _cos_sin(params)   # diagonal, so S X S and C X C are elementwise: (s_i x_ij) s_j
    out = a2 * ((s[:, None] * x) * s + (c[:, None] * x) * c - x)
    if params.B != 0.0:
        out = out + _field(x, params, sign)
    return out


def lindblad_heisenberg(x, params: ModelParams, t: float = 0.0) -> np.ndarray:
    """Finite-drive generator on observables.

    L(X) = |f(t)|^2 (sin(kF_z) X sin(kF_z) + cos(kF_z) X cos(kF_z) - X),
    plus i B [F_y, X] for a nonzero applied field.
    """
    return _lindblad(x, params, params.drive_power(t), 1)


def lindblad_schrodinger(rho, params: ModelParams, t: float = 0.0) -> np.ndarray:
    """Pre-adjoint of :func:`lindblad_heisenberg` on states; traceless output."""
    return _lindblad(rho, params, params.drive_power(t), -1)


def limit_lindblad(op, params: ModelParams, picture: str = "heisenberg") -> np.ndarray:
    """Strong-driving weak-coupling generator.

    Heisenberg form M (F_z X F_z - (F_z^2 X + X F_z^2)/2); the Schrodinger
    form is its trace-pairing dual. The optional B field term is added the
    same way as in the finite-drive generator.
    """
    if isinstance(op, DensityState):
        op = op.rho
    op = _check_dim(op, params)
    m = params.space.fz_levels()
    m2 = m**2   # F_z and F_z^2 are diagonal, so every product is elementwise
    out = params.M * ((m[:, None] * op) * m - 0.5 * (m2[:, None] * op + op * m2))
    if params.B != 0.0:
        out = out + _field(op, params, 1 if picture == "heisenberg" else -1)
    return out


def _rhs(generator: str, params: ModelParams):
    """The Schrodinger-picture generator as a function of (rho, drive amplitude a); the limit's reads params.M."""
    if generator == "finite":
        return lambda rho, a: _lindblad(rho, params, a**2, -1)
    if generator == "limit":
        return lambda rho, a: limit_lindblad(rho, params, picture="schrodinger")
    raise ValueError(f"unknown generator {generator!r}; expected 'finite' or 'limit'")


def master_evolve(rho0, params: ModelParams, generator: str = "finite"):
    """Integrate d(rho)/dt = L*(rho) with fixed-step classical RK4.

    Steps on the trajectory grid so that ensemble comparisons share time
    points. Each step holds the drive at its start (ModelParams.alphas, as
    the filters take it) over all four stages, so a scheduled switch acts
    from the step that starts at it. A positivity breach beyond the
    eigenvalue floor rejects the run (the step size is too large); drift
    within the floor is clipped.

    Returns
    -------
    (times, states) : (ndarray (n+1,), ndarray (n+1, dim, dim))
    """
    from .filters import project_positive   # filters imports this module

    if isinstance(rho0, DensityState):
        rho0 = rho0.rho
    rho = _check_dim(rho0, params)
    rhs = _rhs(generator, params)
    dt = params.dt
    n = params.n_steps
    out = np.empty((n + 1, rho.shape[0], rho.shape[1]), dtype=complex)
    out[0] = rho
    times = params.time_grid()
    for i, a in enumerate(params.alphas(times[:-1]).tolist()):
        k1 = rhs(rho, a)
        k2 = rhs(rho + 0.5 * dt * k1, a)
        k3 = rhs(rho + 0.5 * dt * k2, a)
        k4 = rhs(rho + dt * k3, a)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        w = np.linalg.eigvalsh(rho)
        if w[0] < -EPS_POS:
            raise ValueError(
                f"positivity violated at t={times[i + 1]:.6g} (min eigenvalue {w[0]:.3e}); reduce dt"
            )
        if w[0] < 0.0:
            rho = project_positive(rho, 0.0)
        out[i + 1] = rho
    return times, out
