"""The one coefficient form of every Laurent object, and Laurent polynomials.

A Laurent object sum_s c_s z^s is stored as a sorted, read-only int64 array
`shifts` of its live shifts and a read-only complex array `coeffs` with one
row per live shift: shape (L,) for a LaurentPoly, (L, n, n) for a matrix
symbol (symbol.SymbolMatrix).  `settle` builds that form for both: storage
follows the live terms, not the span, so z^1000000 is one row.  `evaluate`
and `coefficient_distance` serve both classes as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circle import circle_values
from .errors import DomainError

# Coefficients with magnitude below this are dropped from the canonical form.
PRUNE_TOL = 1e-14
# Largest |shift|: shift differences and sums stay exact in int64 and float64.
MAX_SHIFT = 2**53


def settle(shifts, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The live-shift form of sum_i coeffs[i] z^shifts[i], as read-only copies.

    Sorts stably by shift, sums the rows of a repeated shift in input order
    starting from zero, sets coefficients below PRUNE_TOL in magnitude to zero
    and drops all-zero rows.  Shifts already strictly increasing skip the sort
    and the sum, and rows with no small coefficient skip the pruning.  A shift
    beyond MAX_SHIFT raises DomainError before the cast to int64.
    """
    shifts = np.asarray(shifts)
    coeffs = np.array(coeffs, dtype=complex)
    if len(shifts) > 1 and np.count_nonzero(shifts[1:] > shifts[:-1]) < len(shifts) - 1:
        order = np.argsort(shifts, kind="stable")
        shifts, coeffs = shifts[order], coeffs[order]
        first = np.concatenate([[True], shifts[1:] != shifts[:-1]])
        if not first.all():
            summed = np.zeros((np.count_nonzero(first),) + coeffs.shape[1:], dtype=complex)
            np.add.at(summed, np.cumsum(first) - 1, coeffs)
            shifts, coeffs = shifts[first], summed
    if len(shifts) and not -MAX_SHIFT <= shifts[0] <= shifts[-1] <= MAX_SHIFT:
        far = shifts[0] if shifts[0] < -MAX_SHIFT else shifts[-1]
        raise DomainError(f"shift {far} outside -2**53..2**53")
    shifts = shifts.astype(np.int64)
    keep = np.abs(coeffs) >= PRUNE_TOL
    if np.count_nonzero(keep) < keep.size:
        coeffs[~keep] = 0
        live = keep.reshape(len(keep), -1).any(axis=1)
        shifts, coeffs = shifts[live], coeffs[live]
    shifts.flags.writeable = False
    coeffs.flags.writeable = False
    return shifts, coeffs


def stack_terms(polys) -> tuple[np.ndarray, np.ndarray]:
    """The union of the polynomials' shifts, and their coefficients as the
    columns of an (L, len(polys)) stack over it."""
    live = [k for k, poly in enumerate(polys) if len(poly.shifts)]
    shifts, at = np.unique(
        np.concatenate([np.zeros(0, np.int64)] + [polys[k].shifts for k in live]),
        return_inverse=True,
    )
    column = np.repeat(np.array(live, dtype=np.intp), [len(polys[k].shifts) for k in live])
    stack = np.zeros((len(shifts), len(polys)), dtype=complex)
    stack[at, column] = np.concatenate([np.zeros(0, complex)] + [polys[k].coeffs for k in live])
    return shifts, stack


def evaluate(shifts: np.ndarray, coeffs: np.ndarray, z) -> np.ndarray:
    """sum_s coeffs[s] z^s at each nonzero point of z, shape z.shape + coeffs.shape[1:]."""
    zz = np.asarray(z, dtype=complex)
    if np.any(zz == 0):
        raise DomainError("a Laurent object cannot be evaluated at z = 0")
    zz = zz.reshape(zz.shape + (1,) * (coeffs.ndim - 1))
    out = np.zeros(zz.shape[: zz.ndim - coeffs.ndim + 1] + coeffs.shape[1:], dtype=complex)
    for s, c in zip(shifts.tolist(), coeffs):
        out = out + c * zz**s
    return out


def coefficient_distance(a, b) -> float:
    """Largest |coefficient difference| of two Laurent objects over all shifts."""
    shifts, at = np.unique(np.concatenate([a.shifts, b.shifts]), return_inverse=True)
    diff = np.zeros((len(shifts),) + a.coeffs.shape[1:], dtype=complex)
    diff[at[: len(a.shifts)]] = a.coeffs
    diff[at[len(a.shifts) :]] -= b.coeffs
    return float(np.max(np.abs(diff), initial=0.0))


@dataclass(frozen=True, eq=False, init=False)
class LaurentPoly:
    """sum_s coeffs[i] z^shifts[i] over its live shifts, in the form `settle` builds.

    `LaurentPoly(mapping)` converts a {shift: coefficient} mapping;
    `from_terms` takes the two arrays.
    """

    shifts: np.ndarray
    coeffs: np.ndarray

    def __init__(self, coeffs: Mapping[int, complex]) -> None:
        self._store(list(coeffs), list(coeffs.values()))

    def _store(self, shifts, coeffs) -> None:
        shifts, coeffs = settle(shifts, coeffs)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_terms(cls, shifts, coeffs) -> "LaurentPoly":
        """sum_i coeffs[i] z^shifts[i]; repeated shifts are summed (see settle)."""
        poly = cls.__new__(cls)
        poly._store(shifts, coeffs)
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls.from_terms([], [])

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.from_terms([0], [1.0])

    @classmethod
    def monomial(cls, shift: int, coeff: complex = 1.0) -> "LaurentPoly":
        return cls.from_terms([shift], [coeff])

    @property
    def is_zero(self) -> bool:
        return not len(self.shifts)

    @property
    def radius(self) -> int:
        """The largest |shift|; 0 for the zero polynomial."""
        return int(np.max(np.abs(self.shifts), initial=0))

    def __call__(self, z):
        """Evaluate at a complex number or ndarray of complex numbers."""
        out = evaluate(self.shifts, self.coeffs, z)
        return complex(out) if np.isscalar(z) else out

    def circle_samples(self, grid_size: int) -> np.ndarray:
        """Values at `grid_size` uniform points exp(2*pi*i*k/grid_size), phases exact."""
        return circle_values(self.coeffs, self.shifts, grid_size)

    def max_coeff_distance(self, other: "LaurentPoly") -> float:
        return coefficient_distance(self, other)
