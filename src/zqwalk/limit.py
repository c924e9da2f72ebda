"""Weak limit distribution of the rescaled position s/t.

For a single branch the limit measure is the pushforward of the momentum-space
probability |xi_hat(theta)|^2 dtheta/2pi through the group velocity
h(theta) = d arg(lambda)/dtheta; for a d-fold covering branch the velocity
carries an extra 1/d, and the spectral weight of the initial vector splits the
mass between branches.  Weights and velocities come from the eigensolve
track_bands already did on the base grid (spectral.band_projections); only
the weights depend on the initial vector, so the measures of several vectors
against one system share one decomposition.  Bands of constant velocity
contribute exact point masses (localization atoms) at w/d, their winding
over their covering degree; everything else is kept as its (velocity, mass) samples, one per
covering point, the pushforward of the base grid's trapezoid rule.  Moments,
CDF distances and the support read those samples; the fixed velocity
histogram is only a view for the written outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError
from .simulate import PositionDistribution, StateVector, _power, rescaled_moment
from .spectral import EigenSystem, band_projections
from .symbol import SymbolMatrix

DEFAULT_BINS = 512
ATOM_VELOCITY_SPREAD = 1e-9


@dataclass(frozen=True, eq=False)
class LimitMeasure:
    """Atoms plus (velocity, mass) samples; all masses sum to the initial norm.

    `velocities` and `masses` are read-only float arrays of equal length:
    sample k puts mass masses[k] at velocity velocities[k].
    """

    atoms: tuple[tuple[float, float], ...]
    velocities: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        for name in ("velocities", "masses"):
            array = np.array(getattr(self, name), dtype=float).ravel()
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def total_mass(self) -> float:
        return float(sum(mass for _x, mass in self.atoms) + self.masses.sum())

    def atom_mass(self, location: float = 0.0, tol: float = 1e-9) -> float:
        return float(
            sum(mass for x, mass in self.atoms if abs(x - location) <= tol)
        )

    def max_support(self) -> float:
        atom_speed = max((abs(x) for x, m in self.atoms if m > 0), default=0.0)
        speeds = np.abs(self.velocities[self.masses > 0])
        return float(np.max(speeds, initial=atom_speed))

    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """(centers, masses) of DEFAULT_BINS cells on [-V, V], V the largest speed.

        Cloud-in-cell: each sample's mass splits between its two nearest
        centers.  A view for the written outputs; both arrays are empty when
        there are no samples.
        """
        if not len(self.velocities):
            return np.zeros(0), np.zeros(0)
        vmax = float(np.max(np.abs(self.velocities)))
        centers = -vmax + (np.arange(DEFAULT_BINS) + 0.5) * (2.0 * vmax / DEFAULT_BINS)
        u = (self.velocities - centers[0]) / (centers[1] - centers[0])
        i0 = np.clip(np.floor(u).astype(int), 0, DEFAULT_BINS - 2)
        frac = np.clip(u - i0, 0.0, 1.0)
        cells = np.zeros(DEFAULT_BINS)
        np.add.at(cells, i0, self.masses * (1.0 - frac))
        np.add.at(cells, i0 + 1, self.masses * frac)
        return centers, cells


def limit_measure(
    walk: SymbolMatrix,
    xi: StateVector,
    system: EigenSystem,
) -> LimitMeasure:
    """Weak limit of the rescaled position distribution of walk^t applied to xi.

    The system is refined, as every EigenSystem is when built.  Bands
    whose velocity spread is below ATOM_VELOCITY_SPREAD become exact atoms at
    winding/d; every other band gives one (velocity, mass) sample per covering
    point, the mass being its weight over the base grid size, so the support
    bound and the spectral accuracy of the grid sums are built in.
    """
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
    for band, w, v in zip(system.bands, weights, velocities):
        mass_grid = w / m  # each base point carries measure 1/M
        if np.ptp(v) < ATOM_VELOCITY_SPREAD:
            atoms.append((band.winding / band.d, float(mass_grid.sum())))
            continue
        cont_x.append(v.ravel())
        cont_mass.append(mass_grid.ravel())

    merged_atoms: list[tuple[float, float]] = []
    for x, mass in sorted(atoms):
        if merged_atoms and abs(merged_atoms[-1][0] - x) < 1e-12:
            merged_atoms[-1] = (merged_atoms[-1][0], merged_atoms[-1][1] + mass)
        else:
            merged_atoms.append((x, mass))

    return LimitMeasure(
        tuple(merged_atoms),
        np.concatenate(cont_x or [[]]),
        np.concatenate(cont_mass or [[]]),
    )


def limit_moments(measure: LimitMeasure, m: int) -> float:
    """m-th moment: atoms plus samples, location^m times mass."""
    if m < 0:
        raise DomainError("moment order must be nonnegative")
    acc = sum(mass * x**m for x, mass in measure.atoms)
    return float(acc + np.dot(measure.masses, _power(measure.velocities, m)))


def cdf_distance(measure: LimitMeasure, dist: PositionDistribution, t: int) -> float:
    """Kolmogorov-Smirnov-style sup distance between rescaled CDFs.

    Diagnostic only: weak convergence does not force uniform CDF convergence
    at atoms, so this is reported next to the moment comparison, never gated.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
    located = len(atoms) + len(measure.velocities)
    # every jump point of both CDFs in one stable order, the distribution's
    # increasing sites one sorted run; each running sum gains zeros between
    # its own jumps, which leave its partial sums as they are
    points = np.concatenate([atoms[:, 0], measure.velocities, dist.sites / t])
    order = np.argsort(points, kind="stable")
    points = points[order]
    limit = np.concatenate([atoms[:, 1], measure.masses, np.zeros(len(dist.sites))])
    empirical = np.concatenate([np.zeros(located), dist.masses])
    gap = np.cumsum(limit[order]) - np.cumsum(empirical[order])
    # both CDFs are read after the last of any equal points
    last = np.ones(len(points), dtype=bool)
    last[:-1] = points[1:] != points[:-1]
    return float(np.max(np.abs(gap[last]), initial=0.0))


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
