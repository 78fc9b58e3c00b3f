"""Characteristic functionals of the output processes, analytic and empirical.

Because F_z is conserved, each functional decouples over the F_z levels:
conditioned on level m the counting record is a pair of independent Poisson
streams and the diffusive records are Brownian with constant drift, so the
coupled moment hierarchies reduce to one scalar exponent per level. The
analytic value is the p-weighted mixture over levels, with p the diagonal of
the initial state in the F_z basis. Test functions are piecewise constant on
the step grid, so every time integral is a finite sum and the pairing with a
record has no quadrature error.
"""

from dataclasses import dataclass

import numpy as np

from .trajectory import EnsembleSummary

PROCESSES = ("plus", "minus", "homodyne", "limit")


@dataclass(frozen=True)
class TestFunction:
    """Piecewise-constant real function on [0, T], aligned with the step grid."""

    __test__ = False  # keep pytest from collecting this as a test case

    values: np.ndarray
    dt: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("test function needs a 1-d array of finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, k, n_steps, dt):
        return cls(np.full(n_steps, float(k)), dt)


@dataclass
class CharFunc:
    """Characteristic-functional values on a sweep of constant test values."""

    k: np.ndarray
    t: float
    values: np.ndarray
    stderr: np.ndarray = None

    def __post_init__(self):
        self.k = np.atleast_1d(np.asarray(self.k, dtype=float))
        self.values = np.atleast_1d(np.asarray(self.values, dtype=complex))


def _diag_probs(p_or_rho) -> np.ndarray:
    p = np.asarray(p_or_rho)
    if p.ndim == 2:
        p = np.diagonal(p).real
    p = p.real.astype(float)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("level probabilities must be nonnegative and sum to 1")
    return np.clip(p, 0.0, None)


def _level_rate(process, k, params=None, M=None, levels=None):
    """Exponent rate per F_z level for a constant test value k.

    plus      alpha^2 (exp(-i k / alpha^2) - 1), level independent
    minus     alpha^2 (cos(k/alpha) - 1) - i alpha^2 sin(k/alpha) sin(2 kappa m)
    homodyne  -k^2/2 - 2 i k alpha sin(kappa m)
    limit     -k^2/2 - 2 i k sqrt(M) m
    """
    k = np.asarray(k, dtype=float)
    if process == "plus":
        a2 = params.alpha**2
        rate = a2 * (np.exp(-1j * k / a2) - 1.0)
        return rate[..., None] * np.ones(len(levels))
    if process == "minus":
        a = params.alpha
        s2 = np.sin(2.0 * params.kappa * levels)
        return (
            a**2 * (np.cos(k / a) - 1.0)[..., None]
            - 1j * a**2 * np.sin(k / a)[..., None] * s2
        )
    if process == "homodyne":
        a = params.alpha
        drift = a * np.sin(params.kappa * levels)
        return (-0.5 * k**2)[..., None] - 2j * k[..., None] * drift
    if process == "limit":
        drift = np.sqrt(M) * levels
        return (-0.5 * k**2)[..., None] - 2j * k[..., None] * drift
    raise ValueError(f"unknown process {process!r}; expected one of {PROCESSES}")


def _mixture(rate_exponents, p):
    return np.exp(rate_exponents) @ p


def _rates_and_probs(process, k, params, p, M):
    """The per-level exponent rates at the test values k, and the level probabilities from p or rho.

    The limit process reads its levels off p alone and its M from params
    when not given; plus is level independent and takes one level of weight 1.
    """
    if process == "plus":
        levels, p_vec = np.zeros(1), np.ones(1)
    else:
        p_vec = _diag_probs(p)
        if process == "limit":
            levels = (p_vec.size - 1) / 2.0 - np.arange(p_vec.size)
            M = params.M if M is None else M
        else:
            levels = params.space.fz_levels()
            if p_vec.size != levels.size:
                raise ValueError("probability vector length does not match the spin dimension")
    return _level_rate(process, k, params=params, M=M, levels=levels), p_vec


def charfunc_analytic(process, k, params=None, p=None, M=None, t=None) -> CharFunc:
    """Analytic characteristic functional on a sweep of constant test values.

    p is required for the level-dependent processes (minus, homodyne, limit);
    M is required for the limit process and defaults to params.M when params
    is given.
    """
    if process not in PROCESSES:
        raise ValueError(f"unknown process {process!r}; expected one of {PROCESSES}")
    if t is None:
        t = params.T
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    rates, p_vec = _rates_and_probs(process, k_arr, params, p, M)
    return CharFunc(k_arr, float(t), _mixture(t * rates, p_vec))


def charfunc_analytic_path(process, kfun: TestFunction, params=None, p=None, M=None) -> complex:
    """Analytic functional for one piecewise-constant test function."""
    rates, p_vec = _rates_and_probs(process, kfun.values, params, p, M)
    exponents = kfun.dt * rates.sum(axis=0)
    return complex(np.exp(exponents) @ p_vec)


def charfunc_plus_analytic(k, params, t=None) -> CharFunc:
    """Scaled total-count process: Phi+(k,t) = exp(t alpha^2 (e^{-ik/alpha^2}-1))."""
    return charfunc_analytic("plus", k, params=params, t=t)


def charfunc_minus_analytic(k, params, p, t=None) -> CharFunc:
    """Scaled count-difference process, mixture over F_z levels."""
    return charfunc_analytic("minus", k, params=params, p=p, t=t)


def charfunc_homodyne_analytic(k, params, p, t=None) -> CharFunc:
    """Homodyne record: Gaussian mixture with drifts 2 alpha sin(kappa m)."""
    return charfunc_analytic("homodyne", k, params=params, p=p, t=t)


def charfunc_limit_analytic(k, M, p, t) -> CharFunc:
    """Limit record: Gaussian mixture with drifts 2 sqrt(M) m."""
    return charfunc_analytic("limit", k, M=M, p=p, t=t)


# the record series (and ensemble terminal) that each process reads
_OUTPUT_SERIES = {"plus": "y_plus", "minus": "y_minus", "homodyne": "y", "limit": "y"}


def _output_key(process):
    if process not in _OUTPUT_SERIES:
        raise ValueError(f"unknown process {process!r}; expected one of {PROCESSES}")
    return _OUTPUT_SERIES[process]


def pair_integral(record, process, kfun: TestFunction) -> float:
    """Pathwise pairing integral(k dY) of a record's output process.

    Counting records pair against the jump increments, diffusive records
    against the photocurrent increments; both are exact finite sums for
    piecewise-constant k.
    """
    series = getattr(record, _output_key(process))
    if series is None:
        raise ValueError(f"record of scheme {record.scheme!r} has no {process} series")
    dY = np.diff(series)
    if dY.size != kfun.values.size:
        raise ValueError("test function grid does not match the record grid")
    return float(kfun.values @ dY)


def _terminal_values(source, process):
    key = _output_key(process)
    if isinstance(source, EnsembleSummary):
        if key not in source.terminals:
            raise ValueError(f"ensemble of scheme {source.scheme!r} has no {process} terminals")
        return np.asarray(source.terminals[key], dtype=float)
    return np.asarray([getattr(rec, key)[-1] for rec in source], dtype=float)


def empirical_charfunc(source, process, k) -> CharFunc:
    """Empirical functional (1/N) sum exp(-i k Y_T) over an ensemble.

    source is an EnsembleSummary or a sequence of TrajectoryRecords; k is a
    sweep of constant test values. The standard error per k follows from
    |exp(i theta)| = 1: se = sqrt((1 - |Phi|^2) / N).
    """
    y = _terminal_values(source, process)
    n = y.size
    if n == 0:
        raise ValueError("empty ensemble")
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    z = np.exp(-1j * np.outer(k_arr, y))
    phi = z.mean(axis=1)
    se = np.sqrt(np.maximum(1.0 - np.abs(phi) ** 2, 0.0) / n)
    t = float((source.t if isinstance(source, EnsembleSummary) else source[0].t)[-1])
    return CharFunc(k_arr, t, phi, se)


def empirical_charfunc_path(records, process, kfun: TestFunction) -> complex:
    """Empirical functional of one piecewise-constant test function."""
    vals = [np.exp(-1j * pair_integral(rec, process, kfun)) for rec in records]
    if not vals:
        raise ValueError("empty ensemble")
    return complex(np.mean(vals))


@dataclass
class ConvergenceStudy:
    """Sup-norm distances to the limit functional along an alpha sweep."""

    alphas: np.ndarray
    kappas: np.ndarray
    d_polarimetry: np.ndarray
    d_homodyne: np.ndarray
    rate_polarimetry: float
    rate_homodyne: float


def convergence_study(M, alphas, k, T, p, j=None) -> ConvergenceStudy:
    """Distance of the finite-drive functionals from the limit as alpha grows.

    Each alpha uses kappa = sqrt(M)/alpha so the measurement strength stays
    fixed; d(alpha) = sup_k |Phi_alpha(k,T) - Phi_limit(k,T)| is evaluated
    from the analytic forms on the sweep k. The fitted rate is the slope of
    -log d against log alpha (2.0 means d ~ alpha^-2). No Monte Carlo enters.
    """
    from .generators import ModelParams

    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0 or np.any(np.diff(alphas) <= 0):
        raise ValueError("alphas must be a nonempty increasing sequence")
    p = np.asarray(p, dtype=float)
    if j is None:
        j = (p.shape[0] - 1) / 2.0
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    limit_vals = charfunc_limit_analytic(k_arr, M, p, T).values
    d_pol = np.empty(alphas.size)
    d_hom = np.empty(alphas.size)
    kappas = np.sqrt(M) / alphas
    for i, alpha in enumerate(alphas):
        params = ModelParams.build(j=j, alpha=float(alpha), M=M, T=T, dt=T)
        d_pol[i] = np.max(np.abs(charfunc_minus_analytic(k_arr, params, p, T).values - limit_vals))
        d_hom[i] = np.max(np.abs(charfunc_homodyne_analytic(k_arr, params, p, T).values - limit_vals))

    def fit_rate(d):
        if alphas.size < 2 or np.any(d <= 0):
            return float("nan")
        slope = np.polyfit(np.log(alphas), np.log(d), 1)[0]
        return float(-slope)

    return ConvergenceStudy(alphas, kappas, d_pol, d_hom, fit_rate(d_pol), fit_rate(d_hom))
