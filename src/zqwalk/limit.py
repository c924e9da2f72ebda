"""Weak limit distribution of the rescaled position s/t.

For a single branch the limit measure is the pushforward of the momentum-space
probability |xi_hat(theta)|^2 dtheta/2pi through the group velocity
h(theta) = d arg(lambda)/dtheta; for a d-fold covering branch the velocity
carries an extra 1/d, and the spectral weight of the initial vector splits the
mass between branches.  Branches with constant argument contribute exact point
masses (localization atoms); everything else is accumulated into a fixed
velocity histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ResolutionError
from .simulate import (
    StateVector,
    classify_initial,
    evolve,
    rescaled_moment,
)
from .spectral import Band, EigenSystem, band_projections
from .symbol import SymbolMatrix

DEFAULT_BINS = 512
ATOM_TOTAL_VARIATION = 1e-9
SPECTRAL_TAIL = 1e-8


@dataclass(frozen=True)
class VelocityProfile:
    """Group velocities per band on the covering grid, with the 1/d scales."""

    h_per_band: tuple[np.ndarray, ...]
    scales: tuple[float, ...]

    def base_scale(self, j: int) -> np.ndarray:
        """Velocities of band j in base-circle units (h_j / d_j)."""
        return self.h_per_band[j] * self.scales[j]


def _winding_free_argument(band: Band) -> np.ndarray:
    """Unwrapped argument of a band minus its winding ramp; periodic on the cover."""
    count = len(band.samples)
    phi = 2.0 * np.pi * np.arange(count) / count
    return np.unwrap(np.angle(band.samples)) - band.winding * phi


def group_velocities(system: EigenSystem) -> VelocityProfile:
    """Spectral derivative of the unwrapped argument of each band.

    The winding term is removed before differentiating the periodic remainder
    with the FFT and added back as the constant it contributes.  An error is
    raised when the argument's spectral tail carries more than SPECTRAL_TAIL
    of the energy, which signals under-resolved (non-smooth) samples.
    """
    hs = []
    scales = []
    for band in system.bands:
        count = len(band.samples)
        coeffs = np.fft.fft(_winding_free_argument(band))
        energy = np.abs(coeffs / count) ** 2
        tail = energy[count // 4 : 3 * count // 4 + 1].sum()
        total = energy[1:].sum()
        # a periodic part at noise level is already resolved (h = winding)
        if total > 1e-20 and tail / total > SPECTRAL_TAIL:
            raise ResolutionError(
                "group velocity under-resolved: spectral tail of the argument "
                f"holds {tail / total:.2e} of the energy"
            )
        freqs = np.fft.fftfreq(count, d=1.0 / count)
        freqs[count // 2] = 0.0  # drop the unpaired Nyquist mode
        deriv = np.fft.ifft(1j * freqs * coeffs).real
        hs.append(deriv + band.winding)
        scales.append(1.0 / band.d)
    return VelocityProfile(tuple(hs), tuple(scales))


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
    bins: int = DEFAULT_BINS,
) -> LimitMeasure:
    """Weak limit of the rescaled position distribution of walk^t applied to xi.

    Requires a refined (indecomposable) eigen system on its base grid and a
    rapidly decreasing initial vector.  Constant-argument bands become exact
    atoms; the rest of the mass is a histogram on [-V, V] where V is the
    largest group speed, so the support bound is built in.
    """
    if not classify_initial(xi).is_rapidly_decreasing:
        raise DomainError("initial vector not rapidly decreasing")
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
    weights = band_projections(walk, system, xi_hat)
    velocity = group_velocities(system)

    atoms: list[tuple[float, float]] = []
    cont_x: list[np.ndarray] = []
    cont_mass: list[np.ndarray] = []
    vmax = 0.0
    for j, band in enumerate(system.bands):
        v = velocity.base_scale(j)  # (d*M,)
        w = weights[j]  # (M, d)
        mass_grid = w / m  # each base point carries measure 1/M
        # judged on the argument, not on v: the roundoff of the FFT derivative
        # grows like M^2 and would push flat bands over the threshold
        variation = float(np.sum(np.abs(np.diff(_winding_free_argument(band)))))
        if variation < ATOM_TOTAL_VARIATION:
            atoms.append((float(np.mean(v)), float(mass_grid.sum())))
            continue
        # covering index of slot (k, i) is k + i*M
        idx = np.arange(m)[:, None] + m * np.arange(band.d)[None, :]
        cont_x.append(v[idx].ravel())
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
        centers = -vmax + (np.arange(bins) + 0.5) * (2.0 * vmax / bins)
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
    bins: int = DEFAULT_BINS,
) -> list[MomentComparison]:
    """Rescaled moments of evolved states against the limit moments.

    Returns one row per (t, m); deviations should trend to zero in t up to
    O(1/t) noise.
    """
    measure = limit_measure(walk, xi, system, bins=bins)
    states = ((t, evolve(walk, xi, t)) for t in t_list)
    return compare_moments(measure, states, m_max)
