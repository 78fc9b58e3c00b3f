"""Symbolic quantum stochastic differentials over a two-polarization field.

A :class:`QNoiseExpr` is a finite sum of fundamental noise increments
{dt, dA^i, dA^i*, dL^ij} with matrix coefficients acting on the spin space,
all frozen at one evaluation time. The quantum Ito product table

    dA^k  . dA^i* = delta_ki dt        dA^k  . dL^ij = delta_ki dA^j
    dL^kl . dA^i* = delta_li dA^k*     dL^kl . dL^ij = delta_li dL^kj

(all other products vanish, dA^k* annihilates everything from the left)
is applied with operator coefficients multiplying in order. The Fock space
itself is never represented; expressions are records of QSDE coefficients
that can be combined, adjointed and checked for unitarity numerically.

An expression lives in one of three channel bases: linear xy, circular (+/-)
or the polarimeter's 45-degree xi/eta channels. :func:`basis_change` maps any
of them onto any other in one step. The evolution generators are returned in
xy; each is written in the basis where it is simplest and mapped there.
"""

from dataclasses import dataclass, field

import numpy as np

# Basis vectors of each channel basis, as components in the xy basis.
# Rows are orthonormal, so each matrix is unitary.
_BASIS_VECTORS = {
    "xy": {"x": (1.0, 0.0), "y": (0.0, 1.0)},
    "circular": {
        "+": (-1.0 / np.sqrt(2.0), -1.0j / np.sqrt(2.0)),
        "-": (1.0 / np.sqrt(2.0), -1.0j / np.sqrt(2.0)),
    },
    "xieta": {
        "xi": (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
        "eta": (1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)),
    },
}

DT = ("dt",)


def dA(ch):
    return ("dA", ch)


def dAstar(ch):
    return ("dA*", ch)


def dL(out_ch, in_ch):
    return ("dL", out_ch, in_ch)


def increment_label(key) -> str:
    if key == DT:
        return "dt"
    kind = key[0]
    if kind == "dA":
        return f"dA[{key[1]}]"
    if kind == "dA*":
        return f"dA*[{key[1]}]"
    return f"dL[{key[1]},{key[2]}]"


def basis_increments(basis: str = "xy"):
    """All nine basis increments of a two-channel field."""
    chans = list(_BASIS_VECTORS[basis])
    keys = [DT]
    keys += [dA(c) for c in chans]
    keys += [dAstar(c) for c in chans]
    keys += [dL(a, b) for a in chans for b in chans]
    return keys


@dataclass
class QNoiseExpr:
    """Finite sum of noise increments with (dim x dim) matrix coefficients."""

    dim: int
    basis: str = "xy"
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in _BASIS_VECTORS:
            raise ValueError(f"unknown basis {self.basis!r}")
        clean = {}
        for key, c in self.coeffs.items():
            clean[key] = self._as_matrix(c)
        self.coeffs = clean

    def _as_matrix(self, c) -> np.ndarray:
        if np.isscalar(c):
            return complex(c) * np.eye(self.dim, dtype=complex)
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.dim, self.dim):
            raise ValueError(f"coefficient shape {c.shape} does not match dim {self.dim}")
        return c

    @classmethod
    def zero(cls, dim: int, basis: str = "xy") -> "QNoiseExpr":
        return cls(dim, basis, {})

    def coeff(self, key) -> np.ndarray:
        return self.coeffs.get(key, np.zeros((self.dim, self.dim), dtype=complex))

    def set(self, key, c) -> "QNoiseExpr":
        out = dict(self.coeffs)
        out[key] = self._as_matrix(c)
        return QNoiseExpr(self.dim, self.basis, out)

    def prune(self, tol: float = 0.0) -> "QNoiseExpr":
        out = {k: c for k, c in self.coeffs.items() if np.max(np.abs(c)) > tol}
        return QNoiseExpr(self.dim, self.basis, out)

    def __add__(self, other: "QNoiseExpr") -> "QNoiseExpr":
        self._check_compatible(other)
        out = {k: c.copy() for k, c in self.coeffs.items()}
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c.copy()
        return QNoiseExpr(self.dim, self.basis, out)

    def __sub__(self, other: "QNoiseExpr") -> "QNoiseExpr":
        return self + other.scale(-1.0)

    def scale(self, a) -> "QNoiseExpr":
        return QNoiseExpr(self.dim, self.basis, {k: a * c for k, c in self.coeffs.items()})

    def adjoint(self) -> "QNoiseExpr":
        """Formal adjoint: dA <-> dA*, dL^ij <-> dL^ji, coefficients daggered."""
        out = {}
        for key, c in self.coeffs.items():
            kind = key[0]
            if kind == "dt":
                new = DT
            elif kind == "dA":
                new = dAstar(key[1])
            elif kind == "dA*":
                new = dA(key[1])
            else:
                new = dL(key[2], key[1])
            out[new] = out.get(new, 0) + c.conj().T
        return QNoiseExpr(self.dim, self.basis, out)

    def norms(self) -> dict:
        """Max-abs coefficient entry per increment, keyed by printable label."""
        return {increment_label(k): float(np.max(np.abs(c))) for k, c in sorted(self.coeffs.items())}

    def max_norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(float(np.max(np.abs(c))) for c in self.coeffs.values())

    def is_zero(self, tol: float = 1e-12) -> bool:
        return self.max_norm() <= tol

    def _check_compatible(self, other: "QNoiseExpr"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")


def _pair_product(m1, m2):
    """Ito table entry for the increment pair (m1, m2); None if zero."""
    k1, k2 = m1[0], m2[0]
    if k1 == "dt" or k2 == "dt":
        return None
    if k1 == "dA*":
        return None
    if k1 == "dL":
        if k2 == "dA*":
            return dAstar(m1[1]) if m1[2] == m2[1] else None
        if k2 == "dL":
            return dL(m1[1], m2[2]) if m1[2] == m2[1] else None
        return None
    # k1 == "dA"
    if k2 == "dA*":
        return DT if m1[1] == m2[1] else None
    if k2 == "dL":
        return dA(m2[2]) if m1[1] == m2[1] else None
    return None


def ito_product(x: QNoiseExpr, y: QNoiseExpr) -> QNoiseExpr:
    """Bilinear Ito product of two expressions over the same channel alphabet.

    Operator coefficients multiply in the order of the factors; the surviving
    increment of each pair follows the quantum Ito table.
    """
    x._check_compatible(y)
    out = {}
    for m1, c1 in x.coeffs.items():
        for m2, c2 in y.coeffs.items():
            key = _pair_product(m1, m2)
            if key is None:
                continue
            prod = c1 @ c2
            out[key] = out.get(key, 0) + prod
    return QNoiseExpr(x.dim, x.basis, out)


def basis_change(expr: QNoiseExpr, target: str) -> QNoiseExpr:
    """Rewrite an expression on the increments of another polarization basis.

    With U the unitary whose row a holds the xy components of basis vector a,
    the map W = U_src U_tgt^dagger sends each source increment straight onto
    the target ones: dA^a = sum_b W[a,b] dA^b, dA*^a = sum_b conj(W[a,b])
    dA*^b and dL^ae = sum_bd conj(W[a,b]) W[e,d] dL^bd, so e.g.
    dL[+,+] = (dL[x,x] + dL[y,y] + i dL[x,y] - i dL[y,x]) / 2.
    """
    if target not in _BASIS_VECTORS:
        raise ValueError(f"unknown basis {target!r}")
    if target == expr.basis:
        return QNoiseExpr(expr.dim, expr.basis, dict(expr.coeffs))

    src, u_src = _umatrix(expr.basis)
    tgt, u_tgt = _umatrix(target)
    w = u_src @ u_tgt.conj().T
    out = {}

    def add(key, c):
        out[key] = out[key] + c if key in out else c

    for key, c in expr.coeffs.items():
        kind = key[0]
        if kind == "dt":
            add(DT, c)
        elif kind == "dA":
            a = src.index(key[1])
            for b, ch in enumerate(tgt):
                add(dA(ch), w[a, b] * c)
        elif kind == "dA*":
            a = src.index(key[1])
            for b, ch in enumerate(tgt):
                add(dAstar(ch), np.conj(w[a, b]) * c)
        else:
            a, e = src.index(key[1]), src.index(key[2])
            for b, ch_b in enumerate(tgt):
                for d, ch_d in enumerate(tgt):
                    add(dL(ch_b, ch_d), np.conj(w[a, b]) * w[e, d] * c)
    return QNoiseExpr(expr.dim, target, out).prune()


def _umatrix(basis: str):
    vecs = _BASIS_VECTORS[basis]
    chans = list(vecs)
    u = np.array([vecs[c] for c in chans], dtype=complex)
    return chans, u


QSDE_NAMES = ("U0", "U", "Uprime", "Weyl", "Vprime", "V", "Ubar")


def qsde_coefficients(name: str, params, t: float = 0.0) -> QNoiseExpr:
    """Generator G of the named evolution equation dU = G U, evaluated at t.

    Names
    -----
    U0      scattering of circular polarizations off the spin (gauge terms only)
    U       U0 with the x-polarized coherent drive folded in
    Uprime  U in the displaced picture (drive rotated away)
    Weyl    displacement generating the coherent drive on the x channel
    Vprime  counting-record propagator driven by the two polarimeter channels
    V       homodyne-record propagator driven by the y-quadrature record
    Ubar    strong-driving weak-coupling limit evolution (x channel decoupled)
    """
    space = params.space
    dim = space.dim
    m = space.fz_levels()
    kappa = params.kappa
    f = params.drive(t)
    fp = abs(f) ** 2
    c = np.diag(np.cos(kappa * m)).astype(complex)
    s = np.diag(np.sin(kappa * m)).astype(complex)
    eye = np.eye(dim, dtype=complex)

    if name == "U0":
        expr = QNoiseExpr(
            dim,
            "circular",
            {
                dL("+", "+"): np.diag(np.exp(1j * kappa * m) - 1.0).astype(complex),
                dL("-", "-"): np.diag(np.exp(-1j * kappa * m) - 1.0).astype(complex),
            },
        )
        return basis_change(expr, "xy")

    if name == "Weyl":
        # dt coefficient is -|f|^2/2 (required by unitarity of the displacement).
        return QNoiseExpr(
            dim,
            "xy",
            {dAstar("x"): f * eye, dA("x"): -np.conj(f) * eye, DT: -0.5 * fp * eye},
        ).prune()

    if name == "U":
        expr = qsde_coefficients("U0", params, t)
        extra = QNoiseExpr(
            dim,
            "xy",
            {
                dAstar("x"): f * c,
                dA("x"): -np.conj(f) * eye,
                dAstar("y"): f * s,
                DT: -0.5 * fp * eye,
            },
        )
        return (expr + extra).prune()

    if name == "Uprime":
        # Displaced picture: Weyl-adjoint composed with U. The dA[x]
        # coefficient is +conj(f)(cos(kappa F_z)-1); that sign is fixed by
        # d(U*U)=0 and by the Ito product of the two generators.
        return QNoiseExpr(
            dim,
            "xy",
            {
                dL("x", "x"): c - eye,
                dL("y", "y"): c - eye,
                dL("x", "y"): -s,
                dL("y", "x"): s,
                dAstar("x"): f * (c - eye),
                dA("x"): np.conj(f) * (c - eye),
                dAstar("y"): f * s,
                dA("y"): -np.conj(f) * s,
                DT: fp * (c - eye),
            },
        ).prune()

    if name == "Vprime":
        # Driven by the observed counting processes Z^xi, Z^eta: each
        # polarimeter channel a counts through its gauge term L_a - 1 and
        # carries the displaced drive f/sqrt(2). Matches Uprime on the dA*,
        # dt coefficients, which is all the vacuum sees.
        g = f / np.sqrt(2.0)
        l_xi = c + s - eye
        l_eta = c - s - eye
        out = {DT: 0.5 * fp * l_xi + 0.5 * fp * l_eta}
        for ch, lcoef in (("xi", l_xi), ("eta", l_eta)):
            out[dL(ch, ch)] = lcoef
            out[dA(ch)] = np.conj(g) * lcoef
            out[dAstar(ch)] = g * lcoef
        return basis_change(QNoiseExpr(dim, "xieta", out), "xy")

    if name == "V":
        # Homodyne-record propagator; shares the dA*[x], dA*[y], dt
        # coefficients with U.
        return QNoiseExpr(
            dim,
            "xy",
            {
                dAstar("x"): f * c,
                dA("y"): np.conj(f) * s,
                dAstar("y"): f * s,
                DT: -0.5 * fp * eye,
            },
        ).prune()

    if name == "Ubar":
        sqm = np.sqrt(params.M)
        fz = np.diag(m).astype(complex)
        phase = np.exp(1j * params.phi)
        return QNoiseExpr(
            dim,
            "xy",
            {
                dA("y"): sqm / phase * fz,
                dAstar("y"): -sqm * phase * fz,
                DT: -0.5 * params.M * (fz @ fz),
            },
        ).prune()

    raise ValueError(f"unknown QSDE name {name!r}; expected one of {QSDE_NAMES}")


def unitarity_defect(g: QNoiseExpr) -> QNoiseExpr:
    """G + G* + G*.G; the zero expression iff dU = G U preserves unitarity."""
    ga = g.adjoint()
    return (g + ga + ito_product(ga, g)).prune(tol=0.0)


def qsde_product(g1: QNoiseExpr, g2: QNoiseExpr) -> QNoiseExpr:
    """Generator of the product evolution U = U1 U2: G1 + G2 + G1.G2."""
    return (g1 + g2 + ito_product(g1, g2)).prune(tol=0.0)
