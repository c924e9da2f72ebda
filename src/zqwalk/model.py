"""Canonical d-channel walks built from a unimodular eigenvalue function.

Given an analytic map lambda: T -> T with Fourier coefficients c(s), the
d-channel walk places c(k - l + d*s) at shift s of entry (k, l).  Interleaving
the d channels into a single lattice (the rearrangement unitary) turns it into
plain convolution by c, which is what all the algebraic identities below come
down to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import alias_free_grid, circle_coefficients
from .errors import DomainError
from .laurent import LaurentPoly
from .simulate import StateVector, _settle, apply_walk
from .symbol import SymbolMatrix

UNIMODULAR_TOL = 1e-9
COEFF_TRUNCATION = 1e-12


@dataclass(frozen=True)
class ModelWalkSpec:
    """Channel count d and the Fourier coefficients of the eigenvalue function."""

    d: int
    lambda_coeffs: LaurentPoly

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("channel count d must be a positive integer")


def lambda_coeffs_from_samples(samples: np.ndarray) -> LaurentPoly:
    """Fourier coefficients of circle samples, truncated below COEFF_TRUNCATION."""
    return LaurentPoly.from_terms(*circle_coefficients(samples, COEFF_TRUNCATION)[0])


def build_model_walk(spec: ModelWalkSpec) -> SymbolMatrix:
    """Assemble the d x d symbol with coefficient c(k - l + d*s) at shift s.

    |lambda| must be within UNIMODULAR_TOL of 1 on max(256, least power of two
    > 4 radius(lambda)) circle points, the grid on which |lambda|^2 - 1 cannot
    alias away.
    """
    grid = alias_free_grid(256, 4 * spec.lambda_coeffs.radius)
    dev = float(np.max(np.abs(np.abs(spec.lambda_coeffs.circle_samples(grid)) - 1.0)))
    if dev > UNIMODULAR_TOL:
        raise DomainError(
            f"lambda not unimodular: max modulus deviation {dev:.3e} "
            f"exceeds {UNIMODULAR_TOL:.1e}"
        )
    d = spec.d
    sigma = spec.lambda_coeffs.shifts
    # sigma = d*s + k - l lands at shift s of entry (k, l): one (s, k, l) per sigma
    step = sigma[:, None, None] - np.arange(d)[:, None] + np.arange(d)
    term, k, l = np.nonzero(step % d == 0)
    shifts, at = np.unique(step[term, k, l] // d, return_inverse=True)
    coeffs = np.zeros((len(shifts), d, d), dtype=complex)
    coeffs[at, k, l] = spec.lambda_coeffs.coeffs[term]
    return SymbolMatrix.from_terms(shifts, coeffs)


# ---------------------------------------------------------------------------
# rearrangement (channel interleaving)
# ---------------------------------------------------------------------------


def interleave_channels(xi: StateVector) -> StateVector:
    """Map the d-channel vector onto one lattice: (site s, channel k) -> site k + d*s."""
    return _settle(xi.channels + xi.n * xi.sites, np.ones_like(xi.channels), xi.values, 1)


def deinterleave_channels(xi: StateVector, d: int) -> StateVector:
    """Inverse of interleave_channels for a 1-channel vector."""
    if xi.n != 1:
        raise DomainError("deinterleave expects a 1-channel vector")
    k = (xi.sites - 1) % d + 1
    return _settle((xi.sites - k) // d, k, xi.values, d)


def rearrangement_check(
    spec: ModelWalkSpec, test_vectors: list[StateVector]
) -> float:
    """Max l2 deviation between the d-channel walk and its interleaved 1-channel form."""
    walk_d = build_model_walk(spec)
    walk_1 = build_model_walk(ModelWalkSpec(1, spec.lambda_coeffs))
    worst = 0.0
    for xi in test_vectors:
        direct = apply_walk(walk_d, xi)
        rearranged = deinterleave_channels(
            apply_walk(walk_1, interleave_channels(xi)), spec.d
        )
        worst = max(worst, direct.distance(rearranged))
    return worst

