"""Canonical d-channel walks built from a unimodular eigenvalue function.

Given an analytic map lambda: T -> T with Fourier coefficients c(s), the
d-channel walk places c(k - l + d*s) at shift s of entry (k, l).  Interleaving
the d channels into a single lattice (the rearrangement unitary) turns it into
plain convolution by c, which is what all the algebraic identities below come
down to.

A spec keeps its walk: build_model_walk checks |lambda| = 1 and assembles the
symbol once per ModelWalkSpec, and rearrangement_check reuses it.  The
1-channel walk of the rearrangement is lambda itself as a 1 x 1 symbol, and
interleaving maps sorted keys monotonically, so neither step sorts again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import alias_free_grid, circle_coefficients
from .errors import DomainError
from .laurent import LaurentPoly
from .simulate import StateVector, _require_sites, _sorted_state, apply_walk
from .symbol import SymbolMatrix

UNIMODULAR_TOL = 1e-9
COEFF_TRUNCATION = 1e-12


@dataclass(frozen=True)
class ModelWalkSpec:
    """Channel count d and the Fourier coefficients of the eigenvalue function.

    `_walk`, not a field, is the walk build_model_walk assembled from the spec.
    """

    d: int
    lambda_coeffs: LaurentPoly
    _walk = None

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
    alias away.  The walk is built and checked once per spec and kept on it;
    later calls return that walk.
    """
    if spec._walk is None:
        object.__setattr__(spec, "_walk", _assemble(spec))
    return spec._walk


def _assemble(spec: ModelWalkSpec) -> SymbolMatrix:
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
    """Map the d-channel vector onto one lattice: (site s, channel k) -> site k + d*s.

    The map is increasing in (s, k), so the state keeps its order and is not
    sorted again; only the sites, multiplied by d, are checked against MAX_SITE,
    and refused before the product if it would wrap around in int64.
    """
    if xi.n * float(np.max(np.abs(xi.sites), initial=0)) > 2.0**62:
        raise DomainError(f"interleaving {xi.n} channels takes a site outside -2**53..2**53")
    sites = xi.channels + xi.n * xi.sites
    _require_sites(sites)
    return _sorted_state(sites, np.ones_like(xi.channels), xi.values, 1)


def deinterleave_channels(xi: StateVector, d: int) -> StateVector:
    """Inverse of interleave_channels for a 1-channel vector; increasing, so not re-sorted."""
    if xi.n != 1:
        raise DomainError("deinterleave expects a 1-channel vector")
    k = (xi.sites - 1) % d + 1
    return _sorted_state((xi.sites - k) // d, k, xi.values, d)


def rearrangement_check(
    spec: ModelWalkSpec, test_vectors: list[StateVector]
) -> float:
    """Max l2 deviation between the d-channel walk and its interleaved 1-channel form.

    The d-channel walk is the spec's kept walk (build_model_walk).  The
    1-channel walk is lambda as a 1 x 1 symbol, the walk
    build_model_walk(ModelWalkSpec(1, lambda)) would return, without a second
    check of the same lambda.
    """
    walk_d = build_model_walk(spec)
    lam = spec.lambda_coeffs
    walk_1 = SymbolMatrix.from_terms(lam.shifts, lam.coeffs[:, None, None])
    worst = 0.0
    for xi in test_vectors:
        direct = apply_walk(walk_d, xi)
        rearranged = deinterleave_channels(
            apply_walk(walk_1, interleave_channels(xi)), spec.d
        )
        worst = max(worst, direct.distance(rearranged))
    return worst
