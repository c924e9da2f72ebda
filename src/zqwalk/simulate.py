"""Time-domain evolution of finitely supported vectors under a walk.

Single applications are exact sparse convolutions on (site, channel)
dictionaries.  Long evolutions run on a dense window sized to the final
support (finite propagation makes that exact: support can grow by at most the
propagation radius per step), so no circle truncation is ever involved.  A
Fourier-side evolution is provided purely as a cross-check.  The locality
class of initial data is `classify_decay` with renamed kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError
from .symbol import SymbolMatrix, classify_decay

AMP_PRUNE = 1e-14


@dataclass(frozen=True)
class StateVector:
    """Finitely supported amplitudes on (site, channel), channels 1..n."""

    amplitudes: Mapping[tuple[int, int], complex]
    n: int

    def __post_init__(self):
        amps = {}
        for (s, k), a in self.amplitudes.items():
            if not 1 <= k <= self.n:
                raise DomainError(f"channel {k} outside 1..{self.n}")
            a = complex(a)
            if a != 0:
                amps[(int(s), int(k))] = a
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def delta(cls, site: int, channel: int, n: int) -> "StateVector":
        return cls({(site, channel): 1.0}, n)

    @classmethod
    def from_channel_vector(cls, site: int, vec, n: int | None = None) -> "StateVector":
        vec = np.asarray(vec, dtype=complex)
        n = n or len(vec)
        return cls({(site, k + 1): vec[k] for k in range(len(vec))}, n)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def is_unit(self, tol: float = 1e-10) -> bool:
        return abs(self.norm() - 1.0) < tol

    def distance(self, other: "StateVector") -> float:
        keys = set(self.amplitudes) | set(other.amplitudes)
        return float(
            np.sqrt(
                sum(
                    abs(self.amplitudes.get(key, 0.0) - other.amplitudes.get(key, 0.0)) ** 2
                    for key in keys
                )
            )
        )

    def site_profile(self) -> dict[int, float]:
        """l2 amplitude magnitude per site (square root of the site probability)."""
        acc: dict[int, float] = {}
        for (s, _k), a in self.amplitudes.items():
            acc[s] = acc.get(s, 0.0) + abs(a) ** 2
        return {s: float(np.sqrt(v)) for s, v in acc.items()}

    @property
    def support_radius(self) -> int:
        if not self.amplitudes:
            return 0
        return max(abs(s) for (s, _k) in self.amplitudes)

    def fourier_samples(self, grid_size: int) -> np.ndarray:
        """xi_hat on a uniform circle grid, shape (grid_size, n); exact Fourier sums."""
        z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
        out = np.zeros((grid_size, self.n), dtype=complex)
        for (s, k), a in self.amplitudes.items():
            out[:, k - 1] += a * z**s
        return out


@dataclass(frozen=True)
class PositionDistribution:
    """Probability per site at a given time step."""

    probs: Mapping[int, float]
    time: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "probs", {int(s): float(p) for s, p in self.probs.items() if p != 0.0}
        )

    def total(self) -> float:
        return float(sum(self.probs.values()))

    def mass_outside(self, radius: float) -> float:
        return float(sum(p for s, p in self.probs.items() if abs(s) > radius))


def apply_walk(walk: SymbolMatrix, xi: StateVector) -> StateVector:
    """One exact convolution step; support grows by at most the propagation radius."""
    if walk.n != xi.n:
        raise DomainError(f"dimension mismatch: walk n={walk.n}, vector n={xi.n}")
    coeffs = walk.coefficient_sequences()
    out: dict[tuple[int, int], complex] = {}
    for (t, l), a in xi.amplitudes.items():
        for shift, mat in coeffs.items():
            col = mat[:, l - 1]
            for k in range(walk.n):
                c = col[k]
                if c != 0:
                    key = (t + shift, k + 1)
                    out[key] = out.get(key, 0.0) + c * a
    return StateVector(out, walk.n)


def _dense_window(walk: SymbolMatrix, xi: StateVector, t: int):
    """Dense (n, L) array holding xi, with margins for t more steps."""
    radius = walk.propagation_radius
    sites = [s for (s, _k) in xi.amplitudes]
    lo = min(sites) - radius * t
    hi = max(sites) + radius * t
    length = hi - lo + 1
    psi = np.zeros((walk.n, length), dtype=complex)
    for (s, k), a in xi.amplitudes.items():
        psi[k - 1, s - lo] = a
    return psi, lo


def evolve(walk: SymbolMatrix, xi: StateVector, t: int) -> StateVector:
    """t-fold application of the walk (t >= 0), exact on the lattice."""
    if t < 0:
        raise DomainError("time must be nonnegative")
    if walk.n != xi.n:
        raise DomainError(f"dimension mismatch: walk n={walk.n}, vector n={xi.n}")
    if t == 0 or not xi.amplitudes:
        return xi
    radius = walk.propagation_radius
    coeffs = sorted(walk.coefficient_sequences().items())
    psi, lo = _dense_window(walk, xi, t)
    length = psi.shape[1]
    # live support bounds inside the window, inclusive
    a = radius * t
    b = length - 1 - radius * t
    for _step in range(t):
        new_a, new_b = max(a - radius, 0), min(b + radius, length - 1)
        live = psi[:, a : b + 1]
        out = np.zeros((walk.n, new_b - new_a + 1), dtype=complex)
        for shift, mat in coeffs:
            off = (a + shift) - new_a
            out[:, off : off + live.shape[1]] += mat @ live
        psi[:, new_a : new_b + 1] = out
        if new_a > 0:
            psi[:, :new_a] = 0.0
        if new_b < length - 1:
            psi[:, new_b + 1 :] = 0.0
        a, b = new_a, new_b
    amps = {}
    rows, cols = np.nonzero(psi)
    for k, x in zip(rows, cols):
        amps[(int(x) + lo, int(k) + 1)] = complex(psi[k, x])
    return StateVector(amps, walk.n)


def fourier_position_distribution(
    walk: SymbolMatrix, xi: StateVector, t: int
) -> PositionDistribution:
    """Cross-check: evolve in Fourier space on a fine grid and transform back."""
    radius = walk.propagation_radius
    need = 2 * (xi.support_radius + radius * t) + 1
    grid = 1 << int(np.ceil(np.log2(max(need, 2))))
    xh = xi.fourier_samples(grid)  # (grid, n)
    symbols = walk.grid_eval(grid)
    power = np.broadcast_to(np.eye(walk.n, dtype=complex), symbols.shape).copy()
    base = symbols
    tt = t
    while tt:
        if tt & 1:
            power = power @ base
        base = base @ base if tt > 1 else base
        tt >>= 1
    evolved = np.einsum("mij,mj->mi", power, xh)
    # xi_hat(z_m) = sum_s xi(s) z_m^s is an inverse DFT up to ordering, so the
    # forward FFT with 1/grid recovers amplitudes by frequency.
    amps_freq = np.fft.fft(evolved, axis=0) / grid  # (grid, n), index = site mod grid
    probs = {}
    for f in range(grid):
        s = f if f <= grid // 2 else f - grid
        p = float(np.sum(np.abs(amps_freq[f]) ** 2))
        if p > 0:
            probs[s] = p
    return PositionDistribution(probs, time=t)


def truncate_amplitudes(
    xi: StateVector, threshold: float = AMP_PRUNE
) -> tuple[StateVector, float]:
    """Drop amplitudes below `threshold`; returns (vector, discarded mass).

    This is how rapidly decreasing initial data enters the finite
    representation: the discarded probability mass is reported so the
    truncation error stays auditable.
    """
    kept = {key: a for key, a in xi.amplitudes.items() if abs(a) >= threshold}
    discarded = sum(
        abs(a) ** 2 for key, a in xi.amplitudes.items() if key not in kept
    )
    return StateVector(kept, xi.n), float(discarded)


def position_distribution(xi: StateVector, time: int = 0) -> PositionDistribution:
    """probs(s) = sum over channels of |xi(s, k)|^2."""
    probs: dict[int, float] = {}
    for (s, _k), a in xi.amplitudes.items():
        probs[s] = probs.get(s, 0.0) + abs(a) ** 2
    return PositionDistribution(probs, time=time)


def rescaled_moment(xi: StateVector, t: int, m: int) -> float:
    """m-th moment of the site distribution pushed through s -> s/t."""
    if t <= 0:
        raise DomainError("t must be positive")
    dist = position_distribution(xi)
    return float(sum((s / t) ** m * p for s, p in dist.probs.items()))


# ---------------------------------------------------------------------------
# initial-vector locality classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialClass:
    """kind in {'finite_support', 'exponential', 'rapid_decrease', 'other'}."""

    kind: str
    r: float | None = None

    @property
    def is_rapidly_decreasing(self) -> bool:
        return self.kind in ("finite_support", "exponential", "rapid_decrease")


# classify_decay kind -> initial-vector kind
_INITIAL_KINDS = {"finite_propagation": "finite_support", "analytic": "exponential",
                  "smooth": "rapid_decrease", "unbounded": "other"}


def classify_initial(
    xi: StateVector | Mapping[int, float], cutoff: int | None = None
) -> InitialClass:
    """Locality class of an initial vector (or of a site-amplitude profile).

    `classify_decay` on the site-amplitude profile, with its kinds renamed.  A
    StateVector without a cutoff is finitely supported by representation; a
    raw profile without a cutoff is read out to its support.
    """
    if isinstance(xi, StateVector):
        if cutoff is None:
            return InitialClass("finite_support")
        profile = xi.site_profile()
    else:
        profile = {int(s): v for s, v in xi.items()}
        if cutoff is None:
            cutoff = max((abs(s) for s in profile), default=0)
    decay = classify_decay(profile, cutoff)
    return InitialClass(_INITIAL_KINDS[decay.kind], r=decay.r)
