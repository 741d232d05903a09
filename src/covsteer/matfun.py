"""Time-dependent matrix functions with polynomial entries.

Every time-varying coefficient in a problem instance (drift, input,
noise channels, weights, intensity rates) is a matrix whose entries are
real polynomials in t, stored in ascending-degree order.  Evaluation and
differentiation are exact, which the controllability recursion relies on.
The horizon is fixed to [0, 1]; rescale time externally if needed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

# Validation-grid conventions: positive definite means lambda_min above
# PD_EIG_MIN, positive semidefinite means lambda_min above PSD_EIG_MIN.
VALIDATION_GRID_SIZE = 101
PD_EIG_MIN = 1e-12
PSD_EIG_MIN = -1e-10
SYMMETRY_TOL = 1e-10


def _normalize_entry(entry):
    """Coerce a scalar or coefficient sequence into a nonempty tuple."""
    if np.isscalar(entry):
        return (float(entry),)
    coeffs = tuple(float(c) for c in entry)
    if not coeffs:
        raise ValueError("polynomial entry needs at least one coefficient")
    return coeffs


@dataclass(frozen=True)
class MatrixPoly:
    """Matrix-valued polynomial: entry (i, j) at time t is sum_k c_k t^k."""

    rows: int
    cols: int
    coeffs: tuple  # rows x cols nested tuple of ascending-degree coefficient tuples
    _packed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("MatrixPoly dimensions must be positive")
        if len(self.coeffs) != self.rows or any(len(r) != self.cols for r in self.coeffs):
            raise DimensionError(
                f"coefficient table is not {self.rows}x{self.cols}")
        degree = max(len(c) for row in self.coeffs for c in row)
        packed = np.zeros((self.rows, self.cols, degree))
        for i, row in enumerate(self.coeffs):
            for j, entry in enumerate(row):
                if not entry:
                    raise ValueError("polynomial entry needs at least one coefficient")
                packed[i, j, : len(entry)] = entry
        if not np.all(np.isfinite(packed)):
            raise ValueError("polynomial coefficients must be finite")
        packed.setflags(write=False)
        object.__setattr__(self, "_packed", packed)

    @classmethod
    def from_entries(cls, entries):
        """Build from nested lists; scalar entries become constants."""
        table = tuple(tuple(_normalize_entry(e) for e in row) for row in entries)
        return cls(len(table), len(table[0]), table)

    @classmethod
    def constant(cls, mat):
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        return cls.from_entries(mat.tolist())

    @classmethod
    def zeros(cls, rows, cols):
        return cls.constant(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n):
        return cls.constant(np.eye(n))

    @property
    def degree(self):
        return self._packed.shape[2] - 1

    def eval(self, t, order=0):
        """Value of the order-th time derivative at t (order 0 is the value)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        c = self._packed
        for _ in range(order):
            k = c.shape[2]
            if k == 1:
                return np.zeros((self.rows, self.cols))
            c = c[:, :, 1:] * np.arange(1, k)
        out = np.zeros((self.rows, self.cols))
        for k in range(c.shape[2] - 1, -1, -1):  # Horner in t
            out = out * t + c[:, :, k]
        return out

    def derivative(self, order=1):
        c = self._packed
        for _ in range(order):
            k = c.shape[2]
            if k == 1:
                c = np.zeros((self.rows, self.cols, 1))
            else:
                c = c[:, :, 1:] * np.arange(1, k)
        return MatrixPoly.from_entries(
            [[list(c[i, j]) for j in range(self.cols)] for i in range(self.rows)])

    def _binary(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shapes differ")
        k = max(self._packed.shape[2], other._packed.shape[2])
        a = np.zeros((self.rows, self.cols, k))
        b = np.zeros((self.rows, self.cols, k))
        a[:, :, : self._packed.shape[2]] = self._packed
        b[:, :, : other._packed.shape[2]] = other._packed
        c = op(a, b)
        return MatrixPoly.from_entries(
            [[list(c[i, j]) for j in range(self.cols)] for i in range(self.rows)])

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor):
        c = self._packed * float(factor)
        return MatrixPoly.from_entries(
            [[list(c[i, j]) for j in range(self.cols)] for i in range(self.rows)])

    def __matmul__(self, other):
        """Exact polynomial matrix product."""
        if isinstance(other, np.ndarray):
            other = MatrixPoly.constant(other)
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        ka, kb = self._packed.shape[2], other._packed.shape[2]
        out = np.zeros((self.rows, other.cols, ka + kb - 1))
        for i in range(self.rows):
            for j in range(other.cols):
                acc = np.zeros(ka + kb - 1)
                for r in range(self.cols):
                    acc += np.convolve(self._packed[i, r], other._packed[r, j])
                out[i, j] = acc
        return MatrixPoly.from_entries(
            [[list(out[i, j]) for j in range(other.cols)] for i in range(self.rows)])

    def __rmatmul__(self, other):
        if isinstance(other, np.ndarray):
            return MatrixPoly.constant(other) @ self
        return NotImplemented

    @property
    def T(self):
        return MatrixPoly.from_entries(
            [[list(self._packed[j, i]) for j in range(self.rows)] for i in range(self.cols)])

    def is_constant(self, tol=0.0):
        return self._packed.shape[2] == 1 or np.all(
            np.abs(self._packed[:, :, 1:]) <= tol)

    def matches_constant(self, mat, tol=1e-12):
        """True if this polynomial equals the constant matrix within tol."""
        if not self.is_constant(tol):
            return False
        return np.max(np.abs(self.eval(0.0) - np.asarray(mat))) <= tol


def evaluate(f: MatrixPoly, t: float, order: int = 0) -> np.ndarray:
    """Order-th time derivative of f at t; order 0 returns f(t)."""
    return f.eval(t, order)


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def vec(h: np.ndarray) -> np.ndarray:
    """Column-stacked vectorization [h11 .. hn1 h12 .. hnn]^T."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError("vec expects a square matrix")
    return h.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec for square matrices."""
    v = np.asarray(v, dtype=float)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionError("unvec expects a length that is a perfect square")
    return v.reshape((n, n), order="F")


def symmetrize(x: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a (..., n, n) stack."""
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def spd_sqrt(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unique SPD square root (or inverse square root) via eigendecomposition."""
    w, v = np.linalg.eigh(symmetrize(x))
    if np.min(w) <= 0.0:
        raise ValueError(f"matrix is not positive definite (lambda_min={np.min(w):.3e})")
    d = 1.0 / np.sqrt(w) if inverse else np.sqrt(w)
    return (v * d) @ v.T


@dataclass(frozen=True)
class SystemSpec:
    """A full problem instance on the horizon [0, 1].

    Fields follow the continuous-time model
    dx = A x dt + B u dt + C dm + x dmu, with additive intensity D(t),
    state-dependent intensity 2 nu(t), state cost Q(t), control cost R(t).
    Optional general multiplicative channels are (E_i, nu_i) pairs.
    """

    n: int
    p: int
    q: int
    A: MatrixPoly
    B: MatrixPoly
    C: MatrixPoly
    D: MatrixPoly
    nu: MatrixPoly
    Q: MatrixPoly
    R: MatrixPoly
    general_channels: tuple = ()

    def __post_init__(self):
        shapes = {
            "A": (self.A, self.n, self.n),
            "B": (self.B, self.n, self.p),
            "C": (self.C, self.n, self.q),
            "D": (self.D, self.q, self.q),
            "nu": (self.nu, 1, 1),
            "Q": (self.Q, self.n, self.n),
            "R": (self.R, self.p, self.p),
        }
        for name, (mp, r, c) in shapes.items():
            if mp.rows != r or mp.cols != c:
                raise DimensionError(
                    f"{name} declared {r}x{c} but given {mp.rows}x{mp.cols}")
        for k, (e_i, nu_i) in enumerate(self.general_channels):
            if e_i.rows != self.n or e_i.cols != self.n:
                raise DimensionError(f"E_{k + 1} must be {self.n}x{self.n}")
            if nu_i.rows != 1 or nu_i.cols != 1:
                raise DimensionError(f"nu_{k + 1} must be scalar")

    def identity_channel_nu(self) -> MatrixPoly:
        """nu(t) plus the rates of all channels whose E_i is identically I."""
        total = self.nu
        for e_i, nu_i in self.general_channels:
            if e_i.matches_constant(np.eye(self.n)):
                total = total + nu_i
        return total

    def has_non_identity_channels(self) -> bool:
        return any(not e_i.matches_constant(np.eye(self.n))
                   for e_i, _ in self.general_channels)


@dataclass(frozen=True)
class BoundaryData:
    """Initial and target state covariances, both strictly positive definite."""

    sigma0: np.ndarray
    sigma1: np.ndarray

    def __post_init__(self):
        for name in ("sigma0", "sigma1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise DimensionError(f"{name} must be square")
            if np.max(np.abs(arr - arr.T)) > SYMMETRY_TOL:
                raise ValueError(f"{name} is not symmetric")
            if np.min(np.linalg.eigvalsh(symmetrize(arr))) <= 0.0:
                raise ValueError(f"{name} is not positive definite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    time: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _definite_check(name, mp, grid, min_eig, require_symmetric=True):
    for t in grid:
        x = mp.eval(t)
        if require_symmetric and np.max(np.abs(x - x.T)) > SYMMETRY_TOL:
            return ValidationCheck(name, False, t, f"{name} not symmetric at t={t:.3f}")
        lam = np.min(np.linalg.eigvalsh(symmetrize(x)))
        if lam <= min_eig:
            kind = "positive definite" if min_eig > 0 else "positive semidefinite"
            return ValidationCheck(
                name, False, t, f"{name} not {kind} at t={t:.3f} (lambda_min={lam:.3e})")
    return ValidationCheck(name, True)


def _nonneg_check(name, mp, grid):
    for t in grid:
        v = float(mp.eval(t)[0, 0])
        if v < 0.0:
            return ValidationCheck(name, False, t, f"{name} negative at t={t:.3f} ({v:.3e})")
    return ValidationCheck(name, True)


def validate_system(sys: SystemSpec, grid_size: int = VALIDATION_GRID_SIZE) -> ValidationReport:
    """Check the SystemSpec invariants on a uniform validation grid.

    R(t) must be symmetric positive definite, Q(t) and D(t) symmetric
    positive semidefinite, nu(t) and every nu_i(t) nonnegative.  Shape
    mismatches raise DimensionError at SystemSpec construction already.
    """
    grid = np.linspace(0.0, 1.0, grid_size)
    checks = [
        _definite_check("R", sys.R, grid, PD_EIG_MIN),
        _definite_check("Q", sys.Q, grid, PSD_EIG_MIN),
        _definite_check("D", sys.D, grid, PSD_EIG_MIN),
        _nonneg_check("nu", sys.nu, grid),
    ]
    for k, (_, nu_i) in enumerate(sys.general_channels):
        checks.append(_nonneg_check(f"nu_{k + 1}", nu_i, grid))
    return ValidationReport(tuple(checks))
