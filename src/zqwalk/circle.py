"""The one place that samples the unit circle and follows a loop's argument.

Sums sum_s c_s z^s are sampled on grids z_k = exp(2 pi i k / M) with phases
reduced exactly in integers, through their nonzero coefficients only (so
z^100000 costs O(M)); one FFT goes back to coefficients; one pass over a
loop's argument increments gives its winding and largest step.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Most complex values (256 MiB) in one array of a circle grid, of a symbol
# product's span stacks or of evolve's light cone; a larger one is refused.
MAX_CONE_VALUES = 2**24


def require_values(count: int, what: str) -> None:
    """Refuse with DomainError, before it is allocated, an array of more than
    MAX_CONE_VALUES complex values."""
    if count > MAX_CONE_VALUES:
        raise DomainError(f"{what} needs {count} values, above {MAX_CONE_VALUES}")


def alias_free_grid(floor: int, span: int) -> int:
    """The least power of two above `span`, or `floor` if larger.

    On such a grid no two shifts s, s' with |s - s'| <= span alias, so a
    Laurent polynomial with shifts in |s| <= span / 2 is zero on the grid only
    when it is zero.
    """
    return max(floor, 1 << span.bit_length())


def circle_values(
    coeffs: np.ndarray, shifts: np.ndarray, grid: int, points: np.ndarray | None = None
) -> np.ndarray:
    """sum_s coeffs[s] z_k^shifts[s] at z_k = exp(2 pi i k / grid), over nonzero rows,
    for k in `points` (all by default; a point's bits do not depend on the
    others); its phase table and values pass require_values first."""
    live = np.any(coeffs != 0, axis=tuple(range(1, coeffs.ndim)))
    coeffs, shifts = coeffs[live], shifts[live]
    rows = grid if points is None else len(points)
    values = rows * max(len(shifts), int(np.prod(coeffs.shape[1:])))
    require_values(values, f"circle grid of {rows} points")
    if points is None:  # z_k^s = roots[k (s mod M) mod M]: exact integer exponents, no overflow
        roots = np.exp(2j * np.pi * np.arange(grid) / grid)
        return np.tensordot(roots[np.outer(np.arange(grid), shifts % grid) % grid], coeffs, axes=1)
    # the same phases one by one, k s wrapping modulo 2^64 (exact modulo a power-of-two
    # grid); a first row repeated, as BLAS multiplies a single row by another path
    points = np.append(points, points[:1]).astype(np.uint64)
    turns = np.outer(points, (shifts % grid).astype(np.uint64))
    phase = np.exp(2j * np.pi * (turns % np.uint64(grid)).astype(np.int64) / grid)
    return np.tensordot(phase, coeffs, axes=1)[:rows]


def circle_coefficients(samples: np.ndarray, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(increasing shifts, coefficients) of each row of circle samples (last
    axis), by one FFT.

    Coefficients below `tol` in magnitude are dropped.  Exact up to roundoff
    when the support fits in |shift| < M/2 (M the row length); shifts above
    half the grid are read as negative.
    """
    samples = np.asarray(samples, dtype=complex)
    m = samples.shape[-1]
    half = (m - 1) // 2  # the FFT index m - half is shift -half, the least
    coeffs = np.roll(np.fft.fft(samples, axis=-1) / m, half, axis=-1).reshape(-1, m)
    signed = np.arange(m) - half
    return [(signed[keep], row[keep]) for row, keep in zip(coeffs, np.abs(coeffs) >= tol)]


def winding_of_samples(samples: np.ndarray) -> tuple[int, float]:
    """Winding number of a closed loop of nonzero complex samples, in one pass.

    Sums principal argument increments around the loop (including the wrap
    step) and rounds to the nearest integer: a closed loop's increments sum
    to a multiple of 2*pi up to rounding.  Returns (winding, max_step),
    max_step the largest |increment| in radians.
    """
    samples = np.asarray(samples, dtype=complex)
    steps = np.angle(np.roll(samples, -1) / samples)
    return int(np.rint(np.sum(steps) / (2.0 * np.pi))), float(np.max(np.abs(steps)))


def rotation_distance(a: np.ndarray, b: np.ndarray, block: int) -> float:
    """sup distance between loops a and b minimized over block-multiple shifts.

    With block = base grid size M and loops of length d*M, the tested shifts
    are exactly the rotations by d-th roots of unity of the covering argument.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    best = float("inf")
    for shift in range(0, len(a), block):
        best = min(best, float(np.max(np.abs(a - np.roll(b, shift)))))
    return best
