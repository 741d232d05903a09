"""Time-dependent matrix functions with polynomial entries.

Every time-varying coefficient in a problem instance (drift, input,
noise channels, weights, intensity rates) is a matrix whose entries are
real polynomials in t, stored in ascending-degree order.  Evaluation and
differentiation are exact, which the controllability recursion relies on.
The horizon is fixed to [0, 1]; rescale time externally if needed.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DimensionError

# Validation-grid conventions: positive definite means lambda_min above
# PD_EIG_MIN, positive semidefinite means lambda_min above PSD_EIG_MIN.
VALIDATION_GRID_SIZE = 101
PD_EIG_MIN = 1e-12
PSD_EIG_MIN = -1e-10
SYMMETRY_TOL = 1e-10


def _normalize_entry(entry):
    """Coerce a scalar or coefficient sequence into a tuple."""
    if np.isscalar(entry):
        return (float(entry),)
    return tuple(float(c) for c in entry)


class MatrixPoly:
    """Matrix-valued polynomial: entry (i, j) at time t is sum_k coef[k, i, j] t^k.

    The coefficients are one read-only, degree-major (degree + 1, rows, cols)
    array; evaluation and calculus are numpy.polynomial calls along axis 0.
    """

    __slots__ = ("coef",)

    def __init__(self, rows, cols, table):
        """Build from a rows x cols table of ascending coefficient sequences."""
        if rows < 1 or cols < 1:
            raise ValueError("MatrixPoly dimensions must be positive")
        if len(table) != rows or any(len(r) != cols for r in table):
            raise DimensionError(f"coefficient table is not {rows}x{cols}")
        coef = np.zeros((max(len(e) for row in table for e in row), rows, cols))
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                if not len(entry):
                    raise ValueError("polynomial entry needs at least one coefficient")
                coef[: len(entry), i, j] = entry
        self._set(coef)

    def _set(self, coef):
        if not np.all(np.isfinite(coef)):
            raise ValueError("polynomial coefficients must be finite")
        coef.setflags(write=False)
        self.coef = coef

    @classmethod
    def _of(cls, coef):
        """Wrap a freshly built (degree + 1, rows, cols) coefficient array."""
        out = cls.__new__(cls)
        out._set(coef)
        return out

    @classmethod
    def from_entries(cls, entries):
        """Build from nested lists; scalar entries become constants."""
        table = tuple(tuple(_normalize_entry(e) for e in row) for row in entries)
        return cls(len(table), len(table[0]), table)

    @classmethod
    def constant(cls, mat):
        return cls._of(np.array(mat, dtype=float, ndmin=2)[None])

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(np.zeros((1, rows, cols)))

    @classmethod
    def hstack(cls, parts):
        """Matrices with equal row counts side by side, degrees zero-padded."""
        deg = max(len(part.coef) for part in parts)
        return cls._of(np.concatenate(
            [np.pad(part.coef, ((0, deg - len(part.coef)), (0, 0), (0, 0)))
             for part in parts], axis=2))

    @property
    def rows(self):
        return self.coef.shape[1]

    @property
    def cols(self):
        return self.coef.shape[2]

    def entry(self, i=0, j=0) -> np.ndarray:
        """Ascending coefficients of entry (i, j) as a 1-D array."""
        return self.coef[:, i, j]

    def eval(self, t):
        """Value at t.

        An array of times shaped to broadcast against (rows, cols), such as
        (k, 1, 1), gives the stack of values, equal to evaluating each time
        on its own.
        """
        return P.polyval(t, self.coef, tensor=False)

    def derivative(self, order=1):
        return MatrixPoly._of(P.polyder(self.coef, order))

    def _sum(self, other, sign):
        if self.coef.shape[1:] != other.coef.shape[1:]:
            raise DimensionError("matrix shapes differ")
        out = np.zeros((max(len(self.coef), len(other.coef)),) + self.coef.shape[1:])
        out[: len(self.coef)] += self.coef
        out[: len(other.coef)] += sign * other.coef
        return MatrixPoly._of(out)

    def __add__(self, other):
        return self._sum(other, 1.0)

    def __sub__(self, other):
        return self._sum(other, -1.0)

    def scale(self, factor):
        return MatrixPoly._of(self.coef * float(factor))

    def __matmul__(self, other):
        """Exact polynomial matrix product."""
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        a, b = self.coef, other.coef
        out = np.zeros((len(a) + len(b) - 1, self.rows, other.cols))
        for k in range(len(a)):
            out[k: k + len(b)] += a[k] @ b
        return MatrixPoly._of(out)

    @property
    def T(self):
        return MatrixPoly._of(self.coef.transpose(0, 2, 1))

    def is_constant(self, tol=0.0):
        return len(self.coef) == 1 or np.all(np.abs(self.coef[1:]) <= tol)

    def matches_constant(self, mat, tol=1e-12):
        """True if this polynomial equals the constant matrix within tol."""
        if not self.is_constant(tol):
            return False
        return np.max(np.abs(self.eval(0.0) - np.asarray(mat))) <= tol


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
    """Initial and target state covariances of one shape, both strictly
    positive definite."""

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
        if self.sigma0.shape != self.sigma1.shape:
            raise DimensionError(
                f"sigma0 is {self.sigma0.shape} but sigma1 is {self.sigma1.shape}")


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


def _definite_check(name, mp, grid, min_eig):
    x = mp.eval(grid[:, None, None])
    asym = np.max(np.abs(x - np.swapaxes(x, -1, -2)), axis=(1, 2)) > SYMMETRY_TOL
    lam = np.linalg.eigvalsh(symmetrize(x))[:, 0]
    bad = np.flatnonzero(asym | (lam <= min_eig))
    if not bad.size:
        return ValidationCheck(name, True)
    k = bad[0]
    t = grid[k]
    if asym[k]:
        return ValidationCheck(name, False, t, f"{name} not symmetric at t={t:.3f}")
    kind = "positive definite" if min_eig > 0 else "positive semidefinite"
    return ValidationCheck(
        name, False, t, f"{name} not {kind} at t={t:.3f} (lambda_min={lam[k]:.3e})")


def _nonneg_check(name, mp, grid):
    v = mp.eval(grid[:, None, None])[:, 0, 0]
    bad = np.flatnonzero(v < 0.0)
    if not bad.size:
        return ValidationCheck(name, True)
    t = grid[bad[0]]
    return ValidationCheck(name, False, t, f"{name} negative at t={t:.3f} ({v[bad[0]]:.3e})")


def _uniform_grid(grid_size: int) -> np.ndarray:
    """grid_size equally spaced times from 0 to 1, both included.  A grid
    below two points has no subinterval and raises ValueError."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    return np.linspace(0.0, 1.0, grid_size)


def validate_system(sys: SystemSpec, grid_size: int = VALIDATION_GRID_SIZE) -> ValidationReport:
    """Check the SystemSpec invariants on a uniform validation grid.

    R(t) must be symmetric positive definite, Q(t) and D(t) symmetric
    positive semidefinite, nu(t) and every nu_i(t) nonnegative.  Shape
    mismatches raise DimensionError at SystemSpec construction already.
    """
    grid = _uniform_grid(grid_size)
    checks = [
        _definite_check("R", sys.R, grid, PD_EIG_MIN),
        _definite_check("Q", sys.Q, grid, PSD_EIG_MIN),
        _definite_check("D", sys.D, grid, PSD_EIG_MIN),
        _nonneg_check("nu", sys.nu, grid),
    ]
    for k, (_, nu_i) in enumerate(sys.general_channels):
        checks.append(_nonneg_check(f"nu_{k + 1}", nu_i, grid))
    return ValidationReport(tuple(checks))
