"""Small utilities for closed loops of samples on the unit circle."""

from __future__ import annotations

import numpy as np


def winding_of_samples(samples: np.ndarray) -> tuple[int, float]:
    """Winding number of a closed loop of nonzero complex samples.

    Sums principal argument increments around the loop (including the wrap
    step) and rounds to the nearest integer.  Returns (winding, residual)
    where the residual is the distance from the integer in turns.
    """
    samples = np.asarray(samples, dtype=complex)
    turns = float(np.sum(np.angle(np.roll(samples, -1) / samples)) / (2.0 * np.pi))
    w = int(np.rint(turns))
    return w, abs(turns - w)


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

