"""Matrix symbols of finite-propagation homogeneous lattice operators.

A walk is stored as an n x n matrix of Laurent polynomials; evaluating every
entry at a point z of the unit circle gives the n x n matrix of the
Fourier-transformed operator at that momentum.  The module provides exact
ring arithmetic (compose/adjoint), the characteristic polynomial interpolated
from a circle grid (any dimension), unitarity and Cayley-Hamilton verification
on circle grids, and a decay classifier for coefficient sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DomainError
from .laurent import LaurentPoly

# Relative RMS residual (on log magnitudes) below which an exponential fit
# of a coefficient profile is accepted.
EXP_FIT_RESIDUAL = 0.1

# Highest polynomial order probed by the smooth-decay test.
MAX_POLY_ORDER = 8


@dataclass(frozen=True)
class SymbolMatrix:
    """n x n matrix of Laurent polynomials; the symbol of a homogeneous walk."""

    n: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("dimension must be a positive integer")
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise DomainError(f"entries must form an {self.n} x {self.n} matrix")
        object.__setattr__(self, "entries", rows)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "SymbolMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls(n, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def shift(cls, s: int) -> "SymbolMatrix":
        """The 1-state shift operator S_s, symbol z^s."""
        return cls(1, ((LaurentPoly.monomial(s),),))

    @classmethod
    def from_constant(cls, matrix) -> "SymbolMatrix":
        """Wrap a constant numeric matrix as a shift-free symbol."""
        m = np.asarray(matrix, dtype=complex)
        n = m.shape[0]
        return cls(n, tuple(
            tuple(LaurentPoly.constant(m[i, j]) for j in range(n)) for i in range(n)
        ))

    # -- structure -----------------------------------------------------------

    @property
    def propagation_radius(self) -> int:
        return max(p.radius for row in self.entries for p in row)

    def coefficient_matrix(self, shift: int) -> np.ndarray:
        """The n x n matrix of coefficients sitting at a given shift."""
        return np.array(
            [[self.entries[i][j][shift] for j in range(self.n)] for i in range(self.n)],
            dtype=complex,
        )

    def coefficient_sequences(self) -> dict[int, np.ndarray]:
        """Map shift -> coefficient matrix, over the union of entry supports."""
        shifts = sorted({s for row in self.entries for p in row for s in p.support})
        return {s: self.coefficient_matrix(s) for s in shifts}

    def allclose(self, other: "SymbolMatrix", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        return all(
            self.entries[i][j].allclose(other.entries[i][j], tol)
            for i in range(self.n)
            for j in range(self.n)
        )

    def __call__(self, z: complex) -> np.ndarray:
        return eval_symbol(self, z)

    def grid_eval(self, grid_size: int) -> np.ndarray:
        """Stack of symbol values at grid_size uniform circle points, shape (M, n, n)."""
        out = np.zeros((grid_size, self.n, self.n), dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                p = self.entries[i][j]
                if not p.is_zero:
                    out[:, i, j] = p.circle_samples(grid_size)
        return out


def eval_symbol(walk: SymbolMatrix, z: complex) -> np.ndarray:
    """Value of the symbol at one point; total on nonzero z, error at z = 0."""
    if z == 0:
        raise DomainError("symbol cannot be evaluated at z = 0")
    return np.array([[p(complex(z)) for p in row] for row in walk.entries], dtype=complex)


class UnitarityReport(NamedTuple):
    passed: bool
    max_deviation: float


def verify_unitary_symbol(
    walk: SymbolMatrix, grid_size: int = 256, tol: float = 1e-10
) -> UnitarityReport:
    """Max Frobenius deviation of U(z)*U(z) from the identity over a circle grid."""
    if grid_size < 16:
        raise DomainError("grid_size must be at least 16")
    vals = walk.grid_eval(grid_size)
    eye = np.eye(walk.n)
    dev = np.conj(np.transpose(vals, (0, 2, 1))) @ vals - eye
    max_dev = float(np.max(np.linalg.norm(dev, axis=(1, 2))))
    return UnitarityReport(max_dev < tol, max_dev)


def compose(w1: SymbolMatrix, w2: SymbolMatrix) -> SymbolMatrix:
    """Matrix product with exact Laurent-coefficient arithmetic."""
    if w1.n != w2.n:
        raise DomainError(f"dimension mismatch: {w1.n} vs {w2.n}")
    n = w1.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPoly.zero()
            for k in range(n):
                acc = acc + w1.entries[i][k] * w2.entries[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return SymbolMatrix(n, tuple(rows))


def adjoint(walk: SymbolMatrix) -> SymbolMatrix:
    """Conjugate transpose; each entry's coefficients are conjugate-reflected."""
    n = walk.n
    return SymbolMatrix(n, tuple(
        tuple(walk.entries[j][i].conj_reflect() for j in range(n)) for i in range(n)
    ))


def direct_sum(*walks: SymbolMatrix) -> SymbolMatrix:
    """Block-diagonal sum of symbols."""
    if not walks:
        raise DomainError("need at least one summand")
    n = sum(w.n for w in walks)
    zero = LaurentPoly.zero()
    rows = [[zero] * n for _ in range(n)]
    offset = 0
    for w in walks:
        for i in range(w.n):
            for j in range(w.n):
                rows[offset + i][offset + j] = w.entries[i][j]
        offset += w.n
    return SymbolMatrix(n, tuple(tuple(r) for r in rows))


def symbol_power(walk: SymbolMatrix, t: int) -> SymbolMatrix:
    """Exact t-th power (t >= 0) of the symbol by repeated squaring."""
    if t < 0:
        raise DomainError("negative powers not supported; use adjoint first")
    result = SymbolMatrix.identity(walk.n)
    base = walk
    while t:
        if t & 1:
            result = compose(result, base)
        base = compose(base, base) if t > 1 else base
        t >>= 1
    return result


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial; coeffs[k] multiplies lambda^k."""

    degree: int
    coeffs: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise DomainError("need degree + 1 coefficients")
        if not self.coeffs[-1].allclose(LaurentPoly.one(), 1e-12):
            raise DomainError("characteristic polynomial must be monic")

    def coefficients_at(self, z: complex) -> np.ndarray:
        """Array of the n+1 coefficient values at one circle point."""
        return np.array([c(z) if not c.is_zero else 0.0 for c in self.coeffs])

    def __call__(self, lam: complex, z: complex) -> complex:
        c = self.coefficients_at(z)
        return complex(np.polyval(c[::-1], lam))


def char_poly(walk: SymbolMatrix) -> CharPoly:
    """det(lambda*I - U(z)), interpolated from U on a circle grid.

    Each lambda-coefficient is a Laurent polynomial supported in |s| <= n*R
    (R the propagation radius), so a grid of more than 2*n*R points holds it
    exactly up to roundoff.  Faddeev-LeVerrier runs batched over the grid and
    one FFT per coefficient returns to the Laurent ring; there is no
    dimension cap.
    """
    n = walk.n
    grid = max(16, 1 << (2 * n * walk.propagation_radius).bit_length())
    u = walk.grid_eval(grid)
    eye = np.eye(n)
    coeffs = np.zeros((n + 1, grid), dtype=complex)
    coeffs[n] = 1.0
    um = np.zeros_like(u)
    for k in range(1, n + 1):
        um = u @ (um + coeffs[n - k + 1][:, None, None] * eye)
        coeffs[n - k] = -np.trace(um, axis1=1, axis2=2) / k
    laurent = [LaurentPoly.from_circle_samples(c) for c in coeffs[:n]]
    return CharPoly(n, tuple(laurent) + (LaurentPoly.one(),))


def verify_cayley_hamilton(walk: SymbolMatrix, grid_size: int = 256) -> float:
    """Max Frobenius norm of f(U(z); z) over a circle grid (f = char poly).

    The Laurent coefficients of f are evaluated on this grid, not taken from
    the interpolation grid of char_poly, so the check covers that step too.
    """
    f = char_poly(walk)
    u = walk.grid_eval(grid_size)
    eye = np.eye(walk.n)
    acc = np.zeros_like(u)
    for c in reversed(f.coeffs):  # Horner in the matrix argument
        acc = acc @ u + c.circle_samples(grid_size)[:, None, None] * eye
    return float(np.max(np.linalg.norm(acc, axis=(1, 2))))


# ---------------------------------------------------------------------------
# decay classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayClass:
    """Result of classifying a coefficient profile.

    kind is one of 'finite_propagation', 'analytic', 'smooth', 'unbounded'.
    radius is set for finite propagation; (c, r) for the exponential estimate
    |coeff(s)| <= c * r**(-|s|).
    """

    kind: str
    radius: int | None = None
    c: float | None = None
    r: float | None = None

    @property
    def is_finite_propagation(self) -> bool:
        return self.kind == "finite_propagation"

    @property
    def is_analytic(self) -> bool:
        return self.kind in ("finite_propagation", "analytic")


def _magnitude_profile(
    coeff_seqs: Mapping[int, object] | SymbolMatrix, cutoff: int
) -> np.ndarray:
    """Profile m[k] = max entry magnitude at shift s = k - cutoff, k = 0..2*cutoff."""
    if isinstance(coeff_seqs, SymbolMatrix):
        coeff_seqs = coeff_seqs.coefficient_sequences()
    prof = np.zeros(2 * cutoff + 1)
    for s, value in coeff_seqs.items():
        if abs(s) <= cutoff:
            prof[s + cutoff] = float(np.max(np.abs(np.asarray(value))))
    return prof


def _fit_exponential(shifts: np.ndarray, mags: np.ndarray):
    """Least squares of log|m| against |s|; returns (c, r, relative rms residual)."""
    x = np.abs(shifts).astype(float)
    y = np.log(mags)
    design = np.stack([np.ones_like(x), x], axis=1)
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = sol
    resid = y - design @ sol
    spread = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    rel = float(np.sqrt(np.mean(resid**2))) / max(spread, 1e-300)
    return math.exp(intercept), math.exp(-slope), rel


def _passes_order_test(shifts: np.ndarray, mags: np.ndarray, cutoff: int) -> bool:
    """True when (1+|s|)^N * m(s) shows no growth toward the cutoff, N = 1..8."""
    x = np.abs(shifts).astype(float)
    inner = x <= cutoff / 2
    outer = ~inner
    if not outer.any() or not inner.any():
        return False
    for order in range(1, MAX_POLY_ORDER + 1):
        q = (1.0 + x) ** order * mags
        if q[outer].max() > q[inner].max():
            return False
    return True


def truncation_error_bound(c: float, r: float, radius: int) -> float:
    """Tail bound for truncating an exponentially decaying profile at `radius`.

    If |coeff(s)| <= c * r**(-|s|) with r > 1, discarding all |s| > radius
    leaves per-entry l1 mass at most c * r**(-radius) / (1 - 1/r) on each
    side, which bounds the operator-norm error of the truncated symbol.
    """
    if r <= 1.0:
        raise DomainError("exponential rate must satisfy r > 1")
    return c * r ** (-radius) / (1.0 - 1.0 / r)


def classify_decay(
    coeff_seqs: Mapping[int, object] | SymbolMatrix, cutoff: int
) -> DecayClass:
    """Classify the spatial decay of operator coefficients given on |s| <= cutoff.

    Exact vanishing beyond some radius R < cutoff yields finite propagation;
    otherwise an exponential profile is fitted on log magnitudes and accepted
    when r > 1 with relative RMS residual below EXP_FIT_RESIDUAL; otherwise
    polynomial decay of every order up to MAX_POLY_ORDER is probed; profiles
    failing all three fall through to 'unbounded'.
    """
    if cutoff < 4:
        raise DomainError("cutoff too small to classify (need at least 4)")
    prof = _magnitude_profile(coeff_seqs, cutoff)
    shifts = np.arange(-cutoff, cutoff + 1)
    nonzero = prof > 0
    if not nonzero.any():
        return DecayClass("finite_propagation", radius=0)
    radius = int(np.max(np.abs(shifts[nonzero])))
    if radius < cutoff:
        return DecayClass("finite_propagation", radius=radius)
    c, r, rel = _fit_exponential(shifts[nonzero], prof[nonzero])
    if r > 1.0 and rel < EXP_FIT_RESIDUAL:
        return DecayClass("analytic", c=float(c), r=float(r))
    if _passes_order_test(shifts[nonzero], prof[nonzero], cutoff):
        return DecayClass("smooth")
    return DecayClass("unbounded")
