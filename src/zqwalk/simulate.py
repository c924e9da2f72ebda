"""Time-domain evolution of finitely supported vectors under a walk.

A state is three read-only arrays (sites, channels, values) sorted by (site,
channel), each key once, no exact zeros; `_settle` builds that layout for
every producer but two, which wrap their arrays with `_sorted_state`: channel
interleaving (model.py), whose increasing key map keeps it, and `evolve`,
which writes each residue class in order and merges the classes by a stable
sort on the site.  Single applications are exact sparse convolutions, the
reference the long evolutions are tested against.  Long evolutions go through
the symbol: a finite-propagation symbol splits exactly as U(z) = z^m0 V(z^g),
the shift factor moves every site by m0 t, and V^t, a polynomial of degree
D t, is applied on each residue class of the support mod g by binary
powering, each power squared on a grid that grows with it up to the grid of
the class's light cone; every transform is longer than its polynomial's
degree, so no aliasing occurs.  Sites outside those light cones (in
particular off x + m0 t + gZ) are exactly zero; inside, the error is of order
t times machine epsilon.  A Fourier-side evolution on a power-of-two grid is
kept as a cross-check.

A position distribution is two read-only arrays too: increasing sites, each
once, and their nonzero probabilities, summed over channels in the state's
order; its {site: probability} dict is built on first access and kept.
Rescaled moments raise s/t to the integer power m by products, not by pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .circle import MAX_CONE_VALUES, circle_values, require_values  # noqa: F401
from .errors import DomainError
from .symbol import SymbolMatrix

# Largest |site| a state may hold: site / t stays exact in floating point and
# int64 site arithmetic stays far from overflow.
MAX_SITE = 2**53


@dataclass(frozen=True, eq=False, init=False)
class StateVector:
    """Finitely supported amplitudes on (site, channel), channels 1..n.

    Stored as read-only arrays `sites`, `channels` and `values`, sorted by
    (site, channel), one entry per key and no exact zeros.
    `StateVector(amplitudes, n)` converts a {(site, channel): amplitude}
    mapping, which `amplitudes` rebuilds on each access as a read-only view.
    """

    n: int
    sites: np.ndarray
    channels: np.ndarray
    values: np.ndarray

    def __init__(self, amplitudes: Mapping[tuple[int, int], complex], n: int) -> None:
        keys = np.array(list(amplitudes)).reshape(len(amplitudes), 2)
        settled = _settle(keys[:, 0], keys[:, 1], list(amplitudes.values()), n)
        self.__dict__.update(vars(settled))

    @classmethod
    def delta(cls, site: int, channel: int, n: int) -> "StateVector":
        return cls({(site, channel): 1.0}, n)

    @property
    def amplitudes(self) -> Mapping[tuple[int, int], complex]:
        """{(site, channel): amplitude}, rebuilt on each access."""
        keys = zip(self.sites.tolist(), self.channels.tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def distance(self, other: "StateVector") -> float:
        sites = np.concatenate([self.sites, other.sites])
        channels = np.concatenate([self.channels, other.channels])
        values = np.concatenate([self.values, -other.values])
        return _settle(sites, channels, values, max(self.n, other.n)).norm()

    def fourier_samples(self, grid_size: int) -> np.ndarray:
        """xi_hat on a uniform circle grid, shape (grid_size, n); exact Fourier sums."""
        occupied, row = np.unique(self.sites, return_inverse=True)
        placed = np.zeros((len(occupied), self.n), dtype=complex)
        placed[row, self.channels - 1] = self.values
        return circle_values(placed, occupied, grid_size)


def _settle(sites, channels, values, n: int) -> StateVector:
    """The state with amplitude values[i] at (sites[i], channels[i]).

    Sorts stably by (site, channel), sums the values of a repeated key in input
    order starting from zero, drops exact zeros and marks the arrays
    read-only.  Raises DomainError for n < 1, a site or channel that is not
    an integer, a channel outside 1..n, a site beyond MAX_SITE or a non-finite
    value.
    """
    if n < 1:
        raise DomainError(f"vector dimension n = {n} must be positive")
    sites, channels = np.ravel(sites), np.ravel(channels)
    values = np.ravel(np.asarray(values, dtype=complex))
    _require_sites(sites)
    _require_integers(channels, "channel")
    stray = (channels < 1) | (channels > n)
    if stray.any():
        raise DomainError(f"channel {channels[stray][0]} outside 1..{n}")
    if not np.isfinite(values).all():
        raise DomainError("amplitudes must be finite")
    sites, channels = sites.astype(np.int64), channels.astype(np.int64)
    order = np.lexsort((channels, sites))
    sites, channels, values = sites[order], channels[order], values[order]
    first = np.concatenate([[True], (np.diff(sites) != 0) | (np.diff(channels) != 0)])
    if not first.all():
        summed = np.zeros(np.count_nonzero(first), dtype=complex)
        np.add.at(summed, np.cumsum(first) - 1, values)
        sites, channels, values = sites[first], channels[first], summed
    live = values != 0
    return _sorted_state(sites[live], channels[live], values[live], n)


def _require_integers(values: np.ndarray, what: str) -> None:
    if values.dtype.kind in "fc" and np.any(values != np.round(values)):
        raise DomainError(f"{what} {values[values != np.round(values)][0]} is not an integer")


def _require_sites(sites: np.ndarray) -> None:
    _require_integers(sites, "site")
    far = (sites < -MAX_SITE) | (sites > MAX_SITE)
    if far.any():
        raise DomainError(f"site {sites[far][0]} outside -2**53..2**53")


def _sorted_state(sites, channels, values, n: int) -> StateVector:
    """The state of arrays already in _settle's layout, marked read-only in place."""
    return _frozen(StateVector, n=n, sites=sites, channels=channels, values=values)


def _frozen(cls, **fields):
    """A cls with these fields, bypassing __init__; arrays marked read-only in place."""
    made = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(made, name, value)
    return made


@dataclass(frozen=True, eq=False, init=False)
class PositionDistribution:
    """Probability per site at a given time step.

    Stored as read-only arrays `sites` (int64, increasing, each site once) and
    `masses` (no exact zeros), masses[k] the probability at sites[k].
    `PositionDistribution(probs, time)` converts a {site: probability}
    mapping; `probs` gives the same pairs back as a plain {int: float} dict,
    built on first access and kept.
    """

    sites: np.ndarray
    masses: np.ndarray
    time: int

    def __init__(self, probs: Mapping[int, float], time: int = 0) -> None:
        sites = np.array(list(probs))
        _require_sites(sites)
        sites = sites.astype(np.int64)
        masses = np.array(list(probs.values()), dtype=float)
        order = np.argsort(sites)
        self.__dict__.update(vars(_distribution(sites[order], masses[order], time)))

    @cached_property
    def probs(self) -> dict[int, float]:
        """{site: probability} in increasing site order, built once."""
        return dict(zip(self.sites.tolist(), self.masses.tolist()))


def apply_walk(walk: SymbolMatrix, xi: StateVector) -> StateVector:
    """One exact convolution step; support grows by at most the propagation radius."""
    if walk.n != xi.n:
        raise DomainError(f"dimension mismatch: walk n={walk.n}, vector n={xi.n}")
    # [e, s, k] = C_s[k, l] a for the entry (x, l, a) of xi: it lands on (x + s, k)
    terms = walk.coeffs.transpose(2, 0, 1)[xi.channels - 1] * xi.values[:, None, None]
    sites = xi.sites[:, None, None] + walk.shifts[:, None]
    channels = np.arange(1, walk.n + 1)
    return _settle(*np.broadcast_arrays(sites, channels, terms), walk.n)


def evolve(walk: SymbolMatrix, xi: StateVector, t: int) -> StateVector:
    """t-fold application of the walk (t >= 0), through its symbol.

    The symbol splits exactly as U(z) = z^m0 V(z^g): m0 is the least shift with
    a nonzero coefficient, g the gcd of the shift differences, and V a
    polynomial of degree D.  The shift factor moves every site by m0 t.  Each
    residue class r of the support of xi mod g evolves under V on its own
    sublattice; there V^t has finite propagation D t, and the final grid M,
    the least fast FFT length holding the widest class's light cone, applies
    it with no aliasing.  The cone of class r is r + m0 t + g {low, ..., high
    + D t}, from its least to its largest sublattice site; sites outside the
    cones are exactly zero (in particular every site off x + m0 t + gZ), and
    entries inside carry an absolute error of order t times machine epsilon
    (binary powering of V), including roundoff-level values where the exact
    amplitude is zero.  A cone needing more than MAX_CONE_VALUES values per
    array raises DomainError before anything is allocated; so does an output
    site beyond MAX_SITE.

    The powering grows its grid with the power.  Level k squares V^(2^k), of
    degree D 2^k, and at a set bit of t multiplies the partial vector by it.
    While both products fit a power-of-two grid L <= M / 4, the factors stay
    coefficient arrays: each product is one transform to L, the pointwise
    product and one transform back cut to its exact degree.  From the first
    level that does not fit, they are values on M, so only the last two or
    three squarings run on the full grid, not all log2 t of them.  The fixed
    cut M / 4 weighs a full-grid squaring, n^3 M products, against a round
    trip of n^2 transforms each way on L points; timed on walks with n = 2 to
    6, the best cut lies between M / 8 (n = 2) and M / 2 (n = 6).
    """
    if t < 0:
        raise DomainError("time must be nonnegative")
    if walk.n != xi.n:
        raise DomainError(f"dimension mismatch: walk n={walk.n}, vector n={xi.n}")
    if t == 0 or not len(xi.values):
        return xi
    n = walk.n
    if not len(walk.shifts):
        return StateVector({}, n)
    m0 = int(walk.shifts[0])
    offsets = walk.shifts - m0
    g = math.gcd(*offsets.tolist()) or 1
    degree = int(offsets[-1]) // g

    residues = xi.sites % g
    y = (xi.sites - residues) // g
    # One column per residue class r of the support mod g, on its sublattice
    # y = (x - r) / g, where the light cone of the class fills low .. high + D t.
    classes, column = np.unique(residues, return_inverse=True)
    lows = np.full(len(classes), y.max())
    np.minimum.at(lows, column, y)
    highs = np.full(len(classes), y.min())
    np.maximum.at(highs, column, y)
    widths = highs - lows + degree * t + 1
    require_values(n * max(n, len(classes)) * int(widths.max()), "light cone")
    size = _fast_fft_length(int(widths.max()))
    require_values(n * max(n, len(classes)) * size, "light cone")
    # coefficients: vec[k, c, j] at sublattice site lows[c] + j, and V(w) =
    # sum_j base[:, :, j] w^j, channel-major
    vec = np.zeros((n, len(classes), int((highs - lows).max()) + 1), dtype=complex)
    vec[xi.channels - 1, column, y - lows[column]] = xi.values
    base = np.zeros((n, n, degree + 1), dtype=complex)
    base[:, :, offsets // g] = walk.coeffs.transpose(1, 2, 0)

    # Binary powering: base is V^(2^k) at level k, vec V^(t mod 2^k) xi.  The
    # top bit's product is the whole cone, wider than size / 4, so the last
    # level always runs on the size grid.
    on_grid = False
    remaining = t
    while remaining:
        odd = remaining & 1
        remaining >>= 1
        squared = 2 * base.shape[-1] - 1 if remaining else 0
        applied = base.shape[-1] + vec.shape[-1] - 1 if odd else 0
        if not on_grid:
            grid = 1 << (max(squared, applied) - 1).bit_length()
            on_grid = 4 * grid > size
            if on_grid:
                base = np.fft.ifft(base, size, norm="forward")
                vec = np.fft.ifft(vec, size, norm="forward")
        if on_grid:
            if odd:
                vec = _pointwise(base, vec)
            if remaining:
                base = _pointwise(base, base)
            continue
        spectrum = np.fft.ifft(base, grid, norm="forward")
        if odd:
            product = _pointwise(spectrum, np.fft.ifft(vec, grid, norm="forward"))
            vec = np.fft.fft(product, norm="forward")[..., :applied]
        base = np.fft.fft(_pointwise(spectrum, spectrum), norm="forward")[..., :squared]
    del base
    out = np.fft.fft(vec, norm="forward").transpose(1, 2, 0)  # [c, j, k]
    # the nonzero values inside each class's cone, in (class, site, channel)
    # order; classes hold distinct residues, so a stable sort on the site
    # merges them into (site, channel) order
    c, j, k = np.nonzero((out != 0) & (np.arange(size) < widths[:, None])[:, :, None])
    sites = m0 * t + classes[c] + g * (lows[c] + j)
    channels, values = k + 1, out[c, j, k]
    if len(classes) > 1:
        order = np.argsort(sites, kind="stable")
        sites, channels, values = sites[order], channels[order], values[order]
    _require_sites(sites)
    if not np.isfinite(values).all():
        raise DomainError("amplitudes must be finite")
    return _sorted_state(sites, channels, values, n)


def _pointwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product at every grid point m: [i, k, m] = sum_j a[i, j, m] b[j, k, m].

    einsum's own loop forms it with no (n, n, n, M) temporary.
    """
    return np.einsum("ijm,jkm->ikm", a, b)


def _fast_fft_length(target: int) -> int:
    """Smallest integer >= target (>= 1) with no prime factor above 11.

    numpy's pocketfft transforms such lengths fastest; it is pocketfft's own
    choice of a fast complex transform length.  The search counts up from
    the target: such a size divides 2310^b = (2 3 5 7 11)^b, b its bit
    length, as no prime's exponent in it reaches b.  Its steps grow with the
    target (about 3600 near 10^6), so callers bound the target first.
    """
    size = max(target, 1)
    while 2310 ** size.bit_length() % size:
        size += 1
    return size


def fourier_position_distribution(
    walk: SymbolMatrix, xi: StateVector, t: int
) -> PositionDistribution:
    """Cross-check: evolve in Fourier space on a fine grid and transform back.

    The grid is the least power of two holding the light cone of the support,
    its width plus 2 R t + 1 sites, and the site window is centred on it.
    """
    lo, hi = (int(xi.sites[0]), int(xi.sites[-1])) if len(xi.sites) else (0, 0)
    reach = walk.propagation_radius * t
    need = hi - lo + 2 * reach + 1
    grid = 1 << int(np.ceil(np.log2(max(need, 2))))
    xh = xi.fourier_samples(grid)  # (grid, n)
    evolved = np.einsum("mij,mj->mi", np.linalg.matrix_power(walk.grid_eval(grid), t), xh)
    # xi_hat(z_m) = sum_s xi(s) z_m^s is an inverse DFT up to ordering, so the
    # forward FFT with 1/grid recovers amplitudes by frequency.
    amps_freq = np.fft.fft(evolved, axis=0) / grid  # (grid, n), index = site mod grid
    probs = np.sum(np.abs(amps_freq) ** 2, axis=1)
    sites = lo - reach - (grid - need) // 2 + np.arange(grid)  # the window, increasing
    return _distribution(sites, probs[sites % grid], t)


def position_distribution(xi: StateVector, time: int = 0) -> PositionDistribution:
    """probs(s) = sum over channels of |xi(s, k)|^2."""
    # xi.sites is sorted: a site starts a new entry where it differs from the last
    first = np.ones(len(xi.sites), dtype=bool)
    first[1:] = xi.sites[1:] != xi.sites[:-1]
    probs = np.bincount(np.cumsum(first) - 1, weights=np.abs(xi.values) ** 2)
    return _distribution(xi.sites[first], probs, time)


def _distribution(sites: np.ndarray, probs: np.ndarray, time: int) -> PositionDistribution:
    """The distribution of the nonzero probs at increasing unique sites, read-only."""
    probs = np.asarray(probs, dtype=float)  # np.bincount of no sites gives int64
    live = probs != 0.0
    return _frozen(PositionDistribution, sites=sites[live], masses=probs[live], time=time)


def _power(x: np.ndarray, m: int) -> np.ndarray:
    """x**m for an integer m >= 0 by binary powering: products only, no pow."""
    out = None
    while m:
        if m & 1:
            out = x if out is None else out * x
        m >>= 1
        if m:
            x = x * x
    return np.ones_like(x) if out is None else out


def rescaled_moment(xi: StateVector, t: int, m: int) -> float:
    """m-th moment (m >= 0) of the site distribution pushed through s -> s/t."""
    if t <= 0:
        raise DomainError("t must be positive")
    if m < 0:
        raise DomainError("moment order must be nonnegative")
    return float(np.sum(_power(xi.sites / t, m) * np.abs(xi.values) ** 2))
