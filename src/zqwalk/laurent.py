"""Laurent polynomials: finitely supported complex coefficient maps on integer shifts.

This is the commutative ring in which all finite-propagation walk symbols
live.  Instances are immutable; every arithmetic result is pruned to
canonical form (no coefficient below ``PRUNE_TOL`` in magnitude), which keeps
floating-point dust from blowing up supports under repeated products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circle import circle_values
from .errors import DomainError

# Coefficients with magnitude below this are dropped from the canonical form.
PRUNE_TOL = 1e-14


@dataclass(frozen=True)
class LaurentPoly:
    """A finitely supported map ``shift -> complex coefficient``."""

    coeffs: Mapping[int, complex]

    def __post_init__(self):
        pruned = {
            int(s): complex(c)
            for s, c in self.coeffs.items()
            if abs(complex(c)) >= PRUNE_TOL
        }
        object.__setattr__(self, "coeffs", pruned)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def constant(cls, c: complex) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, shift: int, coeff: complex = 1.0) -> "LaurentPoly":
        return cls({shift: coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    @property
    def min_shift(self) -> int:
        if not self.coeffs:
            raise DomainError("zero polynomial has no support bounds")
        return min(self.coeffs)

    @property
    def max_shift(self) -> int:
        if not self.coeffs:
            raise DomainError("zero polynomial has no support bounds")
        return max(self.coeffs)

    @property
    def radius(self) -> int:
        """max(|min_shift|, |max_shift|); 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(abs(self.min_shift), abs(self.max_shift))

    def __getitem__(self, shift: int) -> complex:
        return self.coeffs.get(shift, 0.0 + 0.0j)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0.0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({s: -c for s, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict[int, complex] = {}
            for s1, c1 in self.coeffs.items():
                for s2, c2 in other.coeffs.items():
                    s = s1 + s2
                    out[s] = out.get(s, 0.0) + c1 * c2
            return LaurentPoly(out)
        return LaurentPoly({s: other * c for s, c in self.coeffs.items()})

    __rmul__ = __mul__

    def conj_reflect(self) -> "LaurentPoly":
        """Adjoint of the associated convolution operator.

        Coefficient at shift s becomes the conjugate of the coefficient at -s.
        """
        return LaurentPoly({-s: np.conj(c) for s, c in self.coeffs.items()})

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z):
        """Evaluate at a complex number or ndarray of complex numbers."""
        scalar = np.isscalar(z)
        zz = np.asarray(z, dtype=complex)
        if np.any(zz == 0):
            raise DomainError("Laurent polynomial cannot be evaluated at z = 0")
        out = np.zeros_like(zz)
        for s, c in self.coeffs.items():
            out = out + c * zz**s
        return complex(out) if scalar else out

    def circle_samples(self, grid_size: int) -> np.ndarray:
        """Values at `grid_size` uniform points exp(2*pi*i*k/grid_size), phases exact."""
        coeffs = np.array(list(self.coeffs.values()), dtype=complex)
        return circle_values(coeffs, np.array(list(self.coeffs), dtype=np.int64), grid_size)

    # -- comparison ----------------------------------------------------------

    def allclose(self, other: "LaurentPoly", tol: float = 1e-12) -> bool:
        shifts = set(self.coeffs) | set(other.coeffs)
        return all(abs(self[s] - other[s]) <= tol for s in shifts)

    def max_coeff_distance(self, other: "LaurentPoly") -> float:
        shifts = set(self.coeffs) | set(other.coeffs)
        if not shifts:
            return 0.0
        return max(abs(self[s] - other[s]) for s in shifts)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = ", ".join(f"{s}: {c:.6g}" for s, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({{{terms}}})"
