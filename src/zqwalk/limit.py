"""Weak limit distribution of the rescaled position s/t.

For a single branch the limit measure is the pushforward of the momentum-space
probability |xi_hat(theta)|^2 dtheta/2pi through the group velocity
h(theta) = d arg(lambda)/dtheta; for a d-fold covering branch the velocity
carries an extra 1/d, and the spectral weight of the initial vector splits the
mass between branches.  Weights and velocities come from the same eigensolve
(spectral.band_projections).  Bands of constant velocity contribute exact
point masses (localization atoms) at w/d, their winding over their covering
degree; everything else is accumulated into a fixed velocity histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .simulate import StateVector, evolve, rescaled_moment
from .spectral import EigenSystem, band_projections
from .symbol import SymbolMatrix

DEFAULT_BINS = 512
ATOM_VELOCITY_SPREAD = 1e-9


@dataclass(frozen=True)
class LimitMeasure:
    """Atoms plus a velocity histogram; masses sum to the initial norm."""

    atoms: tuple[tuple[float, float], ...]
    density_samples: tuple[tuple[float, float], ...]
    total_mass: float

    def atom_mass(self, location: float = 0.0, tol: float = 1e-9) -> float:
        return float(
            sum(mass for x, mass in self.atoms if abs(x - location) <= tol)
        )

    def mass_outside(self, bound: float) -> float:
        out = sum(mass for x, mass in self.atoms if abs(x) > bound)
        out += sum(mass for x, mass in self.density_samples if abs(x) > bound)
        return float(out)

    def max_support(self) -> float:
        locs = [abs(x) for x, m in self.atoms if m > 0]
        locs += [abs(x) for x, m in self.density_samples if m > 0]
        return max(locs, default=0.0)


def _deposit_linear(centers: np.ndarray, masses_x: np.ndarray, masses: np.ndarray):
    """Cloud-in-cell deposit: each mass splits between its two nearest centers."""
    out = np.zeros(len(centers))
    if len(centers) == 1:
        out[0] = masses.sum()
        return out
    width = centers[1] - centers[0]
    u = (masses_x - centers[0]) / width
    i0 = np.clip(np.floor(u).astype(int), 0, len(centers) - 2)
    frac = np.clip(u - i0, 0.0, 1.0)
    np.add.at(out, i0, masses * (1.0 - frac))
    np.add.at(out, i0 + 1, masses * frac)
    return out


def limit_measure(
    walk: SymbolMatrix,
    xi: StateVector,
    system: EigenSystem,
) -> LimitMeasure:
    """Weak limit of the rescaled position distribution of walk^t applied to xi.

    Requires a refined (indecomposable) eigen system on its base grid.  Bands
    whose velocity spread is below ATOM_VELOCITY_SPREAD become exact atoms at
    winding/d; the rest of the mass is a DEFAULT_BINS-cell histogram on
    [-V, V] where V is the largest group speed, so the support bound is
    built in.
    """
    if not system.indecomposable:
        raise DomainError("eigen system must be refined first")
    m = system.base_grid
    xi_hat = xi.fourier_samples(m)
    mean_norm = float(np.mean(np.sum(np.abs(xi_hat) ** 2, axis=1)))
    if abs(mean_norm - 1.0) > 1e-6:
        raise DomainError(
            f"xi_hat grid normalization is {mean_norm:.6f}, expected 1 "
            "(is xi a unit vector with support smaller than the grid?)"
        )
    xi_hat = xi_hat / np.sqrt(mean_norm)
    weights, velocities = band_projections(walk, system, xi_hat)

    atoms: list[tuple[float, float]] = []
    cont_x: list[np.ndarray] = []
    cont_mass: list[np.ndarray] = []
    vmax = 0.0
    for band, w, v in zip(system.bands, weights, velocities):
        mass_grid = w / m  # each base point carries measure 1/M
        if np.ptp(v) < ATOM_VELOCITY_SPREAD:
            atoms.append((band.winding / band.d, float(mass_grid.sum())))
            continue
        cont_x.append(v.ravel())
        cont_mass.append(mass_grid.ravel())
        vmax = max(vmax, float(np.max(np.abs(v))))

    merged_atoms: list[tuple[float, float]] = []
    for x, mass in sorted(atoms):
        if merged_atoms and abs(merged_atoms[-1][0] - x) < 1e-12:
            merged_atoms[-1] = (merged_atoms[-1][0], merged_atoms[-1][1] + mass)
        else:
            merged_atoms.append((x, mass))

    density: list[tuple[float, float]] = []
    if cont_x:
        centers = -vmax + (np.arange(DEFAULT_BINS) + 0.5) * (2.0 * vmax / DEFAULT_BINS)
        hist = _deposit_linear(
            centers, np.concatenate(cont_x), np.concatenate(cont_mass)
        )
        density = [(float(x), float(mass)) for x, mass in zip(centers, hist)]

    total = sum(mass for _x, mass in merged_atoms) + sum(m_ for _x, m_ in density)
    return LimitMeasure(tuple(merged_atoms), tuple(density), float(total))


def limit_moments(measure: LimitMeasure, m: int) -> float:
    """m-th moment: atoms plus histogram cells, location^m times mass."""
    if m < 0:
        raise DomainError("moment order must be nonnegative")
    acc = sum(mass * x**m for x, mass in measure.atoms)
    acc += sum(mass * x**m for x, mass in measure.density_samples)
    return float(acc)


def cdf_distance(measure: LimitMeasure, dist, t: int) -> float:
    """Kolmogorov-Smirnov-style sup distance between rescaled CDFs.

    Diagnostic only: weak convergence does not force uniform CDF convergence
    at atoms, so this is reported next to the moment comparison, never gated.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    points = np.array(measure.atoms + measure.density_samples, dtype=float).reshape(-1, 2)
    count = len(dist.probs)
    sites = np.fromiter(dist.probs.keys(), dtype=float, count=count) / t
    probs = np.fromiter(dist.probs.values(), dtype=float, count=count)
    grid = np.union1d(points[:, 0], sites)
    gap = _cdf_at(points[:, 0], points[:, 1], grid) - _cdf_at(sites, probs, grid)
    return float(np.max(np.abs(gap), initial=0.0))


def _cdf_at(locations: np.ndarray, masses: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Total mass at locations at or below each grid point."""
    order = np.argsort(locations, kind="stable")
    cumulative = np.concatenate(([0.0], np.cumsum(masses[order])))
    return cumulative[np.searchsorted(locations[order], grid, side="right")]


@dataclass(frozen=True)
class MomentComparison:
    t: int
    m: int
    empirical: float
    limit: float
    deviation: float


def compare_moments(
    measure: LimitMeasure,
    states: Iterable[tuple[int, StateVector]],
    m_max: int,
) -> list[MomentComparison]:
    """One row per (t, m): rescaled moment of the state at t against the limit."""
    rows = []
    for t, state in states:
        for m in range(1, m_max + 1):
            emp = rescaled_moment(state, t, m)
            lim = limit_moments(measure, m)
            rows.append(MomentComparison(t, m, emp, lim, abs(emp - lim)))
    return rows


def compare_empirical(
    walk: SymbolMatrix,
    xi: StateVector,
    system: EigenSystem,
    t_list: Sequence[int],
    m_max: int,
) -> list[MomentComparison]:
    """Rescaled moments of evolved states against the limit moments.

    Returns one row per (t, m); deviations should trend to zero in t up to
    O(1/t) noise.
    """
    measure = limit_measure(walk, xi, system)
    states = ((t, evolve(walk, xi, t)) for t in t_list)
    return compare_moments(measure, states, m_max)
