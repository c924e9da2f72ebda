"""Time-domain evolution of finitely supported vectors under a walk.

Single applications are exact sparse convolutions on (site, channel)
dictionaries; `apply_walk` is the reference the long evolutions are tested
against.  Long evolutions go through the symbol: a finite-propagation symbol
splits exactly as U(z) = z^m0 V(z^g), the shift factor moves every site by
m0 t, and V^t, a polynomial of degree D t, is applied on each residue class of
the support mod g by binary powering on a circle grid wider than the class's
light cone, so no aliasing occurs.  Sites outside those light cones (in
particular off x + m0 t + gZ) are exactly zero; inside, the error is of order
t times machine epsilon.  A
Fourier-side evolution on a power-of-two grid is kept as a cross-check.  The
locality class of initial data is `classify_decay` with renamed kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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


def _entries(xi: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """The (site, channel) keys of xi as an (N, 2) int array, and the amplitudes."""
    count = len(xi.amplitudes)
    keys = np.fromiter(
        (v for key in xi.amplitudes for v in key), dtype=np.int64, count=2 * count
    ).reshape(count, 2)
    return keys, np.fromiter(xi.amplitudes.values(), dtype=complex, count=count)


def evolve(walk: SymbolMatrix, xi: StateVector, t: int) -> StateVector:
    """t-fold application of the walk (t >= 0), through its symbol.

    The symbol splits exactly as U(z) = z^m0 V(z^g): m0 is the least shift with
    a nonzero coefficient, g the gcd of the shift differences, and V a
    polynomial of degree D.  The shift factor moves every site by m0 t.  Each
    residue class r of the support of xi mod g evolves under V on its own
    sublattice; there V^t has finite propagation D t, so one FFT on a grid
    wider than the widest class's light cone applies it with no aliasing.  The
    cone of class r is r + m0 t + g {low, ..., high + D t}, from its least to
    its largest sublattice site; sites outside the cones are exactly zero (in
    particular every site off x + m0 t + gZ), and entries inside carry an
    absolute error of order t times machine epsilon (binary powering of V),
    including roundoff-level values where the exact amplitude is zero.
    """
    from scipy.fft import next_fast_len

    if t < 0:
        raise DomainError("time must be nonnegative")
    if walk.n != xi.n:
        raise DomainError(f"dimension mismatch: walk n={walk.n}, vector n={xi.n}")
    if t == 0 or not xi.amplitudes:
        return xi
    n = walk.n
    if not len(walk.coeffs):
        return StateVector({}, n)
    m0 = walk.low
    live = np.flatnonzero(np.any(walk.coeffs != 0, axis=(1, 2)))
    g = math.gcd(*live.tolist()) or 1
    degree = int(live[-1]) // g

    keys, values = _entries(xi)
    residues = keys[:, 0] % g
    y = (keys[:, 0] - residues) // g
    # One column per residue class r of the support mod g, on its sublattice
    # y = (x - r) / g, where the light cone of the class fills low .. high + D t.
    classes, column = np.unique(residues, return_inverse=True)
    lows = np.full(len(classes), y.max())
    np.minimum.at(lows, column, y)
    highs = np.full(len(classes), y.min())
    np.maximum.at(highs, column, y)
    widths = highs - lows + degree * t + 1
    size = next_fast_len(int(widths.max()))
    psi = np.zeros((n, len(classes), size), dtype=complex)
    psi[keys[:, 1] - 1, column, y - lows[column]] = values
    vec = np.fft.ifft(psi, axis=-1)

    # V(w) = sum_j C_{m0 + g j} w^j at w_m = exp(2 pi i m / M), channel-major
    base = np.zeros((n, n, size), dtype=complex)
    base[:, :, : degree + 1] = walk.coeffs[::g].transpose(1, 2, 0)
    base = np.fft.ifft(base, axis=-1) * size
    # einsum's own loop forms each product with no (n, n, n, M) temporary
    remaining = t
    while remaining:
        if remaining & 1:
            vec = np.einsum("ijm,jkm->ikm", base, vec)
        remaining >>= 1
        if remaining:
            base = np.einsum("ijm,jkm->ikm", base, base)
    del base
    out = np.fft.fft(vec, axis=-1)

    amps: dict[tuple[int, int], complex] = {}
    for c, r in enumerate(classes.tolist()):
        sites = m0 * t + r + g * (lows[c] + np.arange(widths[c]))
        for k in range(n):
            row = out[k, c, : widths[c]]
            nz = np.flatnonzero(row)
            amps.update(zip(zip(sites[nz].tolist(), repeat(k + 1)), row[nz].tolist()))
    return StateVector(amps, n)


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
    keys, values = _entries(xi)
    occupied, index = np.unique(keys[:, 0], return_inverse=True)
    probs = np.bincount(index, weights=np.abs(values) ** 2, minlength=len(occupied))
    return PositionDistribution(dict(zip(occupied.tolist(), probs.tolist())), time=time)


def rescaled_moment(xi: StateVector, t: int, m: int) -> float:
    """m-th moment of the site distribution pushed through s -> s/t."""
    if t <= 0:
        raise DomainError("t must be positive")
    keys, values = _entries(xi)
    return float(np.sum((keys[:, 0] / t) ** m * np.abs(values) ** 2))


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

    `classify_decay` on the site-amplitude profile, with its kinds renamed.
    Without a cutoff the input, a StateVector or a finite profile, is finitely
    supported by representation.
    """
    if cutoff is None:
        return InitialClass("finite_support")
    if isinstance(xi, StateVector):
        profile = xi.site_profile()
    else:
        profile = {int(s): v for s, v in xi.items()}
    decay = classify_decay(profile, cutoff)
    return InitialClass(_INITIAL_KINDS[decay.kind], r=decay.r)
