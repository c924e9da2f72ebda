"""Matrix symbols of finite-propagation homogeneous lattice operators.

A walk's symbol U(z) = sum_s C_s z^s is stored as one read-only complex array
`coeffs` of shape (S, n, n) with C_{low + s} = coeffs[s], pruned below
PRUNE_TOL as LaurentPoly prunes and trimmed so that its first and last slices
are nonzero.  Circle grids are evaluated by one phase-matrix product, and a
product of symbols is one convolution along the shift axis.  The module also
provides the characteristic polynomial interpolated from a circle grid (any
dimension), unitarity and Cayley-Hamilton verification on circle grids, and a
decay classifier for coefficient sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DomainError
from .laurent import PRUNE_TOL, LaurentPoly

# Relative RMS residual (on log magnitudes) below which an exponential fit
# of a coefficient profile is accepted.
EXP_FIT_RESIDUAL = 0.1

# Highest polynomial order probed by the smooth-decay test.
MAX_POLY_ORDER = 8


@dataclass(frozen=True, eq=False, init=False)
class SymbolMatrix:
    """The symbol sum_s C_s z^s of a homogeneous walk: C_{low + s} = coeffs[s].

    `SymbolMatrix(n, entries)` converts an n x n matrix of LaurentPoly entries,
    which `entries` rebuilds on demand; `from_array` wraps a coefficient stack.
    """

    n: int
    coeffs: np.ndarray
    low: int

    def __init__(self, n: int, entries) -> None:
        rows = tuple(tuple(row) for row in entries)
        if n < 1 or len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"entries must form an n x n matrix, n >= 1 (n = {n})")
        shifts = [s for row in rows for poly in row for s in poly.coeffs] or [0]
        low = min(shifts)
        coeffs = np.zeros((max(shifts) - low + 1, n, n), dtype=complex)
        for i, row in enumerate(rows):
            for j, poly in enumerate(row):
                for s, c in poly.coeffs.items():
                    coeffs[s - low, i, j] = c
        self._settle(coeffs, low)

    def _settle(self, coeffs: np.ndarray, low: int) -> None:
        """Store coeffs pruned below PRUNE_TOL, zero end slices trimmed, read-only."""
        coeffs = np.where(np.abs(coeffs) >= PRUNE_TOL, coeffs, 0)
        live = np.flatnonzero(np.any(coeffs != 0, axis=(1, 2)))
        if len(live):
            coeffs, low = coeffs[live[0] : live[-1] + 1], low + int(live[0])
        else:
            coeffs, low = coeffs[:0], 0
        coeffs.flags.writeable = False
        object.__setattr__(self, "n", coeffs.shape[1])
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "low", low)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_array(cls, coeffs, low: int) -> "SymbolMatrix":
        """The symbol with C_{low + s} = coeffs[s], for an (S, n, n) stack."""
        walk = cls.__new__(cls)
        walk._settle(np.asarray(coeffs, dtype=complex), int(low))
        return walk

    @classmethod
    def identity(cls, n: int) -> "SymbolMatrix":
        return cls.from_array(np.eye(n)[None], 0)

    @classmethod
    def shift(cls, s: int) -> "SymbolMatrix":
        """The 1-state shift operator S_s, symbol z^s."""
        return cls.from_array(np.ones((1, 1, 1)), s)

    @classmethod
    def from_constant(cls, matrix) -> "SymbolMatrix":
        """Wrap a constant numeric matrix as a shift-free symbol."""
        return cls.from_array(np.asarray(matrix)[None], 0)

    # -- structure -----------------------------------------------------------

    @property
    def shifts(self) -> np.ndarray:
        """The shift of each coefficient slice: low, ..., low + S - 1."""
        return np.arange(self.low, self.low + len(self.coeffs))

    @property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The n x n matrix of LaurentPoly entries, rebuilt on each access."""
        seqs = self.coefficient_sequences().items()
        return tuple(
            tuple(LaurentPoly({s: c[i, j] for s, c in seqs}) for j in range(self.n))
            for i in range(self.n)
        )

    @property
    def propagation_radius(self) -> int:
        return int(np.max(np.abs(self.shifts), initial=0))

    def coefficient_sequences(self) -> dict[int, np.ndarray]:
        """Map shift -> coefficient matrix, over the shifts with a nonzero coefficient."""
        live = np.any(self.coeffs != 0, axis=(1, 2))
        return dict(zip(self.shifts[live].tolist(), self.coeffs[live]))

    def allclose(self, other: "SymbolMatrix", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        low = min(self.low, other.low)
        size = max(self.low + len(self.coeffs), other.low + len(other.coeffs)) - low
        diff = np.zeros((size, self.n, self.n), dtype=complex)
        diff[self.shifts - low] += self.coeffs
        diff[other.shifts - low] -= other.coeffs
        return bool(np.all(np.abs(diff) <= tol))

    def __call__(self, z: complex) -> np.ndarray:
        return eval_symbol(self, z)

    def grid_eval(self, grid_size: int) -> np.ndarray:
        """Stack of symbol values at grid_size uniform circle points, shape (M, n, n)."""
        return _circle_values(self.coeffs, self.shifts, grid_size)


def _circle_values(coeffs: np.ndarray, shifts: np.ndarray, grid: int) -> np.ndarray:
    """sum_s coeffs[s] z_k^shifts[s] at z_k = exp(2 pi i k / grid), shape (grid, ...)."""
    # z_k^s = exp(2 pi i (k (s mod M) mod M) / M): exact integers, no overflow
    phase = np.exp(2j * np.pi * (np.outer(np.arange(grid), shifts % grid) % grid) / grid)
    return np.tensordot(phase, coeffs, axes=1)


def eval_symbol(walk: SymbolMatrix, z: complex) -> np.ndarray:
    """Value of the symbol at one point; total on nonzero z, error at z = 0."""
    if z == 0:
        raise DomainError("symbol cannot be evaluated at z = 0")
    return np.tensordot(complex(z) ** walk.shifts, walk.coeffs, axes=1)


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


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient stack of a product of symbols: c[t] = sum_s a[s] @ b[t - s].

    The inner index k is summed in order.  For each k the sum over shifts is
    one real matrix product with a Toeplitz stack of b, and complex products
    are formed as (ar br - ai bi, ar bi + ai br).  So where each k contributes
    a single product, as when one factor is constant or a monomial matrix, the
    result is bit for bit that of entrywise Laurent arithmetic.
    """
    sa, sb, n = len(a), len(b), a.shape[1]
    if not sa or not sb:
        return np.zeros((0, n, n), dtype=complex)
    size = sa + sb - 1
    pad = np.zeros((size + sa - 1, n, 2, n))  # b with real and imaginary parts apart
    pad[sa - 1 : sa - 1 + sb] = np.stack([b.real, b.imag], axis=2)
    toeplitz = np.arange(size) - np.arange(sa)[:, None] + sa - 1  # [s, t] -> t - s
    out = np.zeros((n, size, n, 2))
    for k in range(n):
        x = np.concatenate([a[:, :, k].real.T, a[:, :, k].imag.T])  # (2n, sa)
        p = (x @ pad[toeplitz, k].reshape(sa, -1)).reshape(2, n, size, 2, n)
        out[..., 0] += p[0, :, :, 0] - p[1, :, :, 1]
        out[..., 1] += p[0, :, :, 1] + p[1, :, :, 0]
    return out.view(complex)[..., 0].transpose(1, 0, 2)


def compose(w1: SymbolMatrix, w2: SymbolMatrix) -> SymbolMatrix:
    """Matrix product: the convolution of the two coefficient stacks."""
    if w1.n != w2.n:
        raise DomainError(f"dimension mismatch: {w1.n} vs {w2.n}")
    return SymbolMatrix.from_array(_convolve(w1.coeffs, w2.coeffs), w1.low + w2.low)


def adjoint(walk: SymbolMatrix) -> SymbolMatrix:
    """Conjugate transpose: C*_s = conj(C_{-s})^T, shifts reflected."""
    high = walk.low + len(walk.coeffs) - 1
    return SymbolMatrix.from_array(np.conj(walk.coeffs[::-1]).transpose(0, 2, 1), -high)


def direct_sum(*walks: SymbolMatrix) -> SymbolMatrix:
    """Block-diagonal sum of symbols."""
    if not walks:
        raise DomainError("need at least one summand")
    low = min(w.low for w in walks)
    high = max(w.low + len(w.coeffs) for w in walks)
    n = sum(w.n for w in walks)
    out = np.zeros((high - low, n, n), dtype=complex)
    offset = 0
    for w in walks:
        block = slice(offset, offset + w.n)
        out[w.shifts - low, block, block] = w.coeffs
        offset += w.n
    return SymbolMatrix.from_array(out, low)


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
        shifts = coeff_seqs.shifts
        mags = np.abs(coeff_seqs.coeffs).max(axis=(1, 2))
    else:
        shifts = np.fromiter(coeff_seqs, dtype=int, count=len(coeff_seqs))
        mags = np.array([np.max(np.abs(np.asarray(v))) for v in coeff_seqs.values()])
    inside = np.abs(shifts) <= cutoff
    prof = np.zeros(2 * cutoff + 1)
    prof[shifts[inside] + cutoff] = mags[inside]
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
