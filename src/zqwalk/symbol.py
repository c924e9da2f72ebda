"""Matrix symbols of finite-propagation homogeneous lattice operators.

A walk's symbol U(z) = sum_s C_s z^s is stored in the live-shift form of
laurent.settle: a sorted read-only int64 array `shifts` and a read-only
complex array `coeffs` of shape (L, n, n) with C_{shifts[i]} = coeffs[i],
one row per shift with a nonzero coefficient, pruned below PRUNE_TOL.  So a
symbol costs its terms and not its span.  Circle grids are sampled by
circle.circle_values, and a product of symbols is one convolution along the
shift axis of the two factors' span stacks, built inside the call.  The
module also provides the characteristic polynomial interpolated from a circle
grid (any dimension), unitarity and Cayley-Hamilton verification on circle
grids, and the decay class that `check` reports: finite propagation with its
radius.

A walk keeps its exact invariants: the first char_poly and the first
verify_unitary_symbol of a SymbolMatrix are stored on it, and later calls
return them.  Its shifts and coefficients are read-only, so they cannot go
stale.  verify_cayley_hamilton reuses the stored char poly and evaluates it
at U(z) by Paterson-Stockmeyer: about 2 sqrt(n) grid-stack products, not
n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle import alias_free_grid, circle_coefficients, circle_values, require_values
from .errors import DomainError
from .laurent import PRUNE_TOL, LaurentPoly, evaluate, settle, stack_terms

UNITARY_GRID = 256  # least circle grid of the unitarity check
UNITARY_TOL = 1e-8  # bound on |U*U - I|: every command's unitarity verdict


@dataclass(frozen=True, eq=False, init=False)
class SymbolMatrix:
    """The symbol sum_i coeffs[i] z^shifts[i] of a homogeneous walk, C_s n x n.

    `SymbolMatrix(n, entries)` converts an n x n matrix of LaurentPoly entries,
    which `entries` rebuilds on demand; `from_terms` takes the two arrays.
    The verdicts `_unitarity` and `_char_poly` are not fields: char_poly and
    verify_unitary_symbol set them on first use, and __eq__ and repr ignore them.
    """

    n: int
    shifts: np.ndarray
    coeffs: np.ndarray
    _unitarity = None
    _char_poly = None

    def __init__(self, n: int, entries) -> None:
        rows = tuple(tuple(row) for row in entries)
        if n < 1 or len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"entries must form an n x n matrix, n >= 1 (n = {n})")
        shifts, stack = stack_terms([poly for row in rows for poly in row])
        self._store(shifts, stack.reshape(-1, n, n))

    def _store(self, shifts, coeffs) -> None:
        shifts, coeffs = settle(shifts, coeffs)
        object.__setattr__(self, "n", coeffs.shape[1])
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_terms(cls, shifts, coeffs) -> "SymbolMatrix":
        """The symbol sum_i coeffs[i] z^shifts[i], for an (L, n, n) stack (see settle)."""
        walk = cls.__new__(cls)
        walk._store(shifts, coeffs)
        return walk

    @classmethod
    def identity(cls, n: int) -> "SymbolMatrix":
        return cls.from_terms([0], np.eye(n)[None])

    @classmethod
    def shift(cls, s: int) -> "SymbolMatrix":
        """The 1-state shift operator S_s, symbol z^s."""
        return cls.from_terms([s], np.ones((1, 1, 1)))

    @classmethod
    def from_constant(cls, matrix) -> "SymbolMatrix":
        """Wrap a constant numeric matrix as a shift-free symbol."""
        return cls.from_terms([0], np.asarray(matrix)[None])

    @property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The n x n matrix of LaurentPoly entries, rebuilt on each access."""
        return tuple(
            tuple(
                LaurentPoly.from_terms(self.shifts[live], self.coeffs[live, i, j])
                for j, live in enumerate(self.coeffs[:, i].T != 0)
            )
            for i in range(self.n)
        )

    @property
    def propagation_radius(self) -> int:
        return int(np.max(np.abs(self.shifts), initial=0))

    def coefficient_sequences(self) -> dict[int, np.ndarray]:
        """Map shift -> coefficient matrix, over the live shifts."""
        return dict(zip(self.shifts.tolist(), self.coeffs))

    def __call__(self, z: complex) -> np.ndarray:
        return eval_symbol(self, z)

    def grid_eval(self, grid_size: int) -> np.ndarray:
        """Stack of symbol values at grid_size uniform circle points, shape (M, n, n)."""
        return circle_values(self.coeffs, self.shifts, grid_size)


def eval_symbol(walk: SymbolMatrix, z: complex) -> np.ndarray:
    """Value of the symbol at one point; total on nonzero z, error at z = 0."""
    return evaluate(walk.shifts, walk.coeffs, z)


class UnitarityReport(NamedTuple):
    passed: bool
    max_deviation: float


def verify_unitary_symbol(walk: SymbolMatrix) -> UnitarityReport:
    """Max Frobenius deviation of U(z)*U(z) from the identity over a circle grid.

    U*U - I has shifts |s| <= 2R (R the propagation radius), so the grid has
    max(UNITARY_GRID, least power of two > 4R) points: a deviation of the
    symbol cannot alias away.  The walk passes below UNITARY_TOL.  The report
    is computed once per walk and kept on it, so track_bands, are_conjugate
    and the CLI loaders check a walk they share once.
    """
    if walk._unitarity is None:
        vals = walk.grid_eval(alias_free_grid(UNITARY_GRID, 4 * walk.propagation_radius))
        eye = np.eye(walk.n)
        dev = np.conj(np.transpose(vals, (0, 2, 1))) @ vals - eye
        max_dev = float(np.max(np.linalg.norm(dev, axis=(1, 2))))
        object.__setattr__(walk, "_unitarity", UnitarityReport(max_dev < UNITARY_TOL, max_dev))
    return walk._unitarity


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient stack of a product of symbols: c[t] = sum_s a[s] @ b[t - s].

    The inner index k is summed in order.  For each k the sum over shifts is
    one real matrix product with a Toeplitz stack of b, and complex products
    are formed as (ar br - ai bi, ar bi + ai br).  So where each k contributes
    a single product, as when one factor is constant or a monomial matrix, the
    result is bit for bit that of entrywise Laurent arithmetic.
    """
    sa, sb, n = len(a), len(b), a.shape[1]
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


def _span_stack(walk: SymbolMatrix) -> np.ndarray:
    """The (S, n, n) coefficient stack over the walk's whole span, zero rows included."""
    stack = np.zeros((int(walk.shifts[-1] - walk.shifts[0]) + 1, walk.n, walk.n), dtype=complex)
    stack[walk.shifts - walk.shifts[0]] = walk.coeffs
    return stack


def compose(w1: SymbolMatrix, w2: SymbolMatrix) -> SymbolMatrix:
    """Matrix product: the convolution of the two factors' span stacks.

    The span stacks exist only inside the call, and its Toeplitz and result
    stacks pass require_values first.
    """
    if w1.n != w2.n:
        raise DomainError(f"dimension mismatch: {w1.n} vs {w2.n}")
    if not len(w1.shifts) or not len(w2.shifts):
        return w2 if len(w1.shifts) else w1  # the zero symbol
    sa, sb = (int(w.shifts[-1] - w.shifts[0]) + 1 for w in (w1, w2))
    size = sa + sb - 1
    require_values(w1.n * size * max(sa, w1.n), f"compose of spans {sa} and {sb}")
    low = int(w1.shifts[0] + w2.shifts[0])
    product = _convolve(_span_stack(w1), _span_stack(w2))
    return SymbolMatrix.from_terms(np.arange(low, low + size), product)


def adjoint(walk: SymbolMatrix) -> SymbolMatrix:
    """Conjugate transpose: C*_s = conj(C_{-s})^T, shifts reflected."""
    return SymbolMatrix.from_terms(
        -walk.shifts[::-1], np.conj(walk.coeffs[::-1]).transpose(0, 2, 1)
    )


def direct_sum(*walks: SymbolMatrix) -> SymbolMatrix:
    """Block-diagonal sum of symbols."""
    if not walks:
        raise DomainError("need at least one summand")
    shifts, at = np.unique(np.concatenate([w.shifts for w in walks]), return_inverse=True)
    n = sum(w.n for w in walks)
    out = np.zeros((len(shifts), n, n), dtype=complex)
    offset = start = 0
    for w in walks:
        block = slice(offset, offset + w.n)
        out[at[start : start + len(w.shifts)], block, block] = w.coeffs
        offset, start = offset + w.n, start + len(w.shifts)
    return SymbolMatrix.from_terms(shifts, out)


def symbol_power(walk: SymbolMatrix, t: int) -> SymbolMatrix:
    """Exact t-th power (t >= 0) of the symbol by repeated squaring.

    The product starts as the power of t's lowest set bit and takes the
    higher bits' squares in on the right.
    """
    if t < 0:
        raise DomainError("negative powers not supported; use adjoint first")
    if t == 0:
        return SymbolMatrix.identity(walk.n)
    base = walk
    while not t & 1:
        base = compose(base, base)
        t >>= 1
    result = base
    while t > 1:
        base = compose(base, base)
        t >>= 1
        if t & 1:
            result = compose(result, base)
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
        if self.coeffs[-1].max_coeff_distance(LaurentPoly.one()) > 1e-12:
            raise DomainError("characteristic polynomial must be monic")


def char_poly(walk: SymbolMatrix) -> CharPoly:
    """det(lambda*I - U(z)), interpolated from U on a circle grid.

    Each lambda-coefficient is a Laurent polynomial supported in |s| <= n*R
    (R the propagation radius), so a grid of more than 2*n*R points holds it
    exactly up to roundoff.  Faddeev-LeVerrier runs batched over the grid and
    one batched FFT returns all coefficients to the Laurent ring; there is no
    dimension cap.  The polynomial is computed once per walk and kept on it.
    """
    if walk._char_poly is None:
        object.__setattr__(walk, "_char_poly", _faddeev_leverrier(walk))
    return walk._char_poly


def _faddeev_leverrier(walk: SymbolMatrix) -> CharPoly:
    n = walk.n
    grid = alias_free_grid(16, 2 * n * walk.propagation_radius)
    u = walk.grid_eval(grid)
    eye = np.eye(n)
    coeffs = np.zeros((n + 1, grid), dtype=complex)
    coeffs[n] = 1.0
    um = np.zeros_like(u)
    for k in range(1, n + 1):
        um = u @ (um + coeffs[n - k + 1][:, None, None] * eye)
        coeffs[n - k] = -np.trace(um, axis1=1, axis2=2) / k
    laurent = [LaurentPoly.from_terms(*c) for c in circle_coefficients(coeffs[:n], PRUNE_TOL)]
    return CharPoly(n, tuple(laurent) + (LaurentPoly.one(),))


def verify_cayley_hamilton(walk: SymbolMatrix, grid_size: int = 256) -> float:
    """Max Frobenius norm of f(U(z); z) over a circle grid (f = char poly).

    f(U(z); z) has shifts |s| <= nR, so the grid has max(grid_size, least
    power of two > 2nR) points.  The Laurent coefficients c_k of f (the walk's
    kept char_poly) are evaluated on this grid, all in one circle_values call,
    not taken from the interpolation grid of char_poly, so the check covers
    that step too.  f(U) = sum_k c_k U^k is evaluated by Paterson-Stockmeyer:
    with s = ceil(sqrt(n + 1)), the powers U, ..., U^s, then Horner in U^s over
    blocks of s coefficients, lowest power last, each block's c_k I added on
    the diagonal in place.  That is about 2 sqrt(n) products (4 for n = 8).
    """
    f = char_poly(walk)
    n = walk.n
    grid_size = alias_free_grid(grid_size, 2 * n * walk.propagation_radius)
    u = walk.grid_eval(grid_size)
    shifts, stack = stack_terms(f.coeffs)
    samples = circle_values(stack, shifts, grid_size)
    s = int(np.ceil(np.sqrt(n + 1)))
    powers = [u]  # U^1 .. U^s; U^s only when there is more than one block
    while len(powers) < min(s, n):
        powers.append(powers[-1] @ u)
    diagonal = np.arange(n)
    acc = np.zeros_like(u)
    for start in reversed(range(0, n + 1, s)):  # Horner in U^s, top block first
        if start + s <= n:
            acc = acc @ powers[s - 1]
        for i in range(1, min(s, n + 1 - start)):
            acc += samples[:, start + i, None, None] * powers[i - 1]
        acc[:, diagonal, diagonal] += samples[:, start, None]
    return float(np.max(np.linalg.norm(acc, axis=(1, 2))))


# ---------------------------------------------------------------------------
# decay classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayClass:
    """Spatial decay of a symbol: kind 'finite_propagation' with its radius."""

    kind: str
    radius: int

    @property
    def is_finite_propagation(self) -> bool:
        return self.kind == "finite_propagation"


def classify_decay(walk: SymbolMatrix, cutoff: int) -> DecayClass:
    """Finite propagation of radius R when every coefficient lies in |s| <= R < cutoff.

    Raises DomainError for cutoff < 4, and for R >= cutoff: the coefficients
    then reach the cutoff, and their decay beyond it is not determined.
    """
    if cutoff < 4:
        raise DomainError("cutoff too small to classify (need at least 4)")
    radius = walk.propagation_radius
    if radius >= cutoff:
        raise DomainError(f"propagation radius {radius} reaches the cutoff {cutoff}")
    return DecayClass("finite_propagation", radius)
