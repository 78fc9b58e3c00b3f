"""Collective-spin operators and states on the (2J+1)-dimensional Hilbert space.

Everything lives in the F_z eigenbasis ordered by descending eigenvalue
J, J-1, ..., -J, so functions of F_z are diagonal by construction.
Half-integer spins are encoded as the integer 2J to keep spin labels exact.
All returned arrays are fresh; treat them as immutable values.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

# Eigenvalue floor tolerated on density matrices before validation fails.
# The master-equation integrator clips its drift within the floor and
# renormalizes; the filter steps are positive by construction.
EPS_POS = 1e-9
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class SpinSpace:
    """Hilbert space of the collective spin, dim = 2J+1 >= 2."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, (int, np.integer)) or self.twice_j < 1:
            raise ValueError(f"2J must be a positive integer, got {self.twice_j!r}")

    @classmethod
    def from_j(cls, j) -> "SpinSpace":
        twice_j = int(round(2 * j))
        if abs(2 * j - twice_j) > 1e-12:
            raise ValueError(f"J must be integer or half-integer, got {j}")
        return cls(twice_j)

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    def fz_levels(self) -> np.ndarray:
        """F_z eigenvalues in basis order: J, J-1, ..., -J."""
        return self.j - np.arange(self.dim)


def make_spin_ops(space: SpinSpace):
    """Build the angular-momentum matrices (F_x, F_y, F_z).

    Ladder operators carry the standard Condon-Shortley phase, so that
    [F_x, F_y] = i F_z and cyclic permutations hold. F_z is diagonal with
    descending eigenvalues.

    Returns
    -------
    (F_x, F_y, F_z) : complex ndarrays of shape (dim, dim)
    """
    j = space.j
    m = space.fz_levels()
    f_z = np.diag(m).astype(complex)
    # F_+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>; raising moves one index up
    # (toward the first basis vector) in descending-m order.
    up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    f_plus = np.zeros((space.dim, space.dim), dtype=complex)
    f_plus[np.arange(space.dim - 1), np.arange(1, space.dim)] = up
    f_minus = f_plus.conj().T
    f_x = (f_plus + f_minus) / 2.0
    f_y = (f_plus - f_minus) / 2.0j
    return f_x, f_y, f_z


def op_function(g, a: np.ndarray) -> np.ndarray:
    """Apply a scalar function entrywise to a diagonal operator.

    Rejects non-diagonal input rather than silently diagonalizing.
    """
    a = np.asarray(a)
    off = a - np.diag(np.diag(a))
    if off.size and np.max(np.abs(off)) > 1e-12:
        raise ValueError("op_function requires a diagonal operator in the canonical basis")
    return np.diag(g(np.diag(a).real)).astype(complex)


def l_xi_eta(kappa, space: SpinSpace = None):
    """Jump operators of the two polarimeter channels.

    L_xi = cos(kappa F_z) + sin(kappa F_z) and
    L_eta = cos(kappa F_z) - sin(kappa F_z); both diagonal and self-adjoint,
    with L_xi^2 + L_eta^2 = 2I. Accepts either (kappa, space) or a model
    parameter object carrying .kappa and .space.
    """
    if space is None:
        kappa, space = kappa.kappa, kappa.space
    m = space.fz_levels()
    c = np.cos(kappa * m)
    s = np.sin(kappa * m)
    return np.diag(c + s).astype(complex), np.diag(c - s).astype(complex)


def coherent_x_state(space: SpinSpace) -> "DensityState":
    """Pure x-polarized spin state |J, m_x = J><J, m_x = J|.

    Built by rotating the top F_z level with exp(-i (pi/2) F_y); satisfies
    trace(rho F_x) = J.
    """
    _, f_y, _ = make_spin_ops(space)
    rot = expm(-1j * (np.pi / 2) * f_y)
    psi = rot[:, 0].copy()
    rho = np.outer(psi, psi.conj())
    return DensityState(rho)


def random_density(space: SpinSpace, rng) -> "DensityState":
    """Random full-rank density matrix (Wishart construction); test utility."""
    g = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityState(rho)


@dataclass
class DensityState:
    """Positive operator with unit trace (or positive trace if unnormalized)."""

    rho: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        self.validate()

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def validate(self):
        rho = self.rho
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("density matrix is not self-adjoint")
        w = np.linalg.eigvalsh(rho)
        if w[0] < -EPS_POS:
            raise ValueError(f"density matrix has eigenvalue {w[0]:.3e} below -{EPS_POS:.0e}")
        tr = np.trace(rho).real
        if self.normalized:
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"normalized state must have unit trace, got {tr!r}")
        elif tr <= 0.0:
            raise ValueError(f"unnormalized state must have positive trace, got {tr!r}")

    def expectation(self, op: np.ndarray) -> complex:
        return np.trace(self.rho @ op)

    def copy(self) -> "DensityState":
        return DensityState(self.rho.copy(), self.normalized)


def matrix_to_json(m: np.ndarray) -> list:
    """Serialize a complex matrix as row-major [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    rows = [[complex(re, im) for re, im in row] for row in data]
    return np.array(rows, dtype=complex)
