"""Reference walks used as golden fixtures throughout the test suite and docs.

Three standard 2- and 3-state walks whose branch structure, windings, and
characteristic polynomials are known in closed form, plus their eigenvalue
functions as plain callables for comparison against tracked samples.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .symbol import SymbolMatrix


def coined_walk(a: complex = 2**-0.5, b: complex = 2**-0.5) -> SymbolMatrix:
    """2-state coined walk with coin column phases a, b (|a|^2 + |b|^2 = 1).

    Symbol: [[conj(a) z^-1, -b z^-1], [conj(b) z, a z]].  The default
    a = b = 1/sqrt(2) is the Hadamard-type walk.
    """
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12 or a == 0 or b == 0:
        raise DomainError("need |a|^2 + |b|^2 = 1 with a, b nonzero")
    return SymbolMatrix.from_terms([-1, 1], [[[np.conj(a), -b], [0, 0]], [[0, 0], [np.conj(b), a]]])


def modified_coined_walk(r: float = 2**-0.5, b: complex | None = None) -> SymbolMatrix:
    """One-sided 2-state walk [[r z, -b z], [conj(b), r]] with r^2 + |b|^2 = 1.

    Its single eigenvalue branch lives on the double cover and winds once, so
    the walk is indecomposable and not a restriction of a continuous-time walk.
    """
    if not 0 < r < 1:
        raise DomainError("need 0 < r < 1")
    if b is None:
        b = float(np.sqrt(1.0 - r * r))
    if abs(r * r + abs(b) ** 2 - 1.0) > 1e-12:
        raise DomainError("need r^2 + |b|^2 = 1")
    return SymbolMatrix.from_terms([0, 1], [[[0, 0], [np.conj(b), r]], [[r, -b], [0, 0]]])


def grover_walk_3() -> SymbolMatrix:
    """3-state Grover walk: Grover coin with channels shifted by -1, 0, +1."""
    coin = (2.0 - 3.0 * np.eye(3)) / 3.0
    # channel k moves by k - 1, so coefficient slice k holds row k of the coin
    return SymbolMatrix.from_terms([-1, 0, 1], np.eye(3)[:, :, None] * coin)


def walk_corpus() -> dict[str, SymbolMatrix]:
    """The named fixture walks exercised by the acceptance suite."""
    return {
        "coined": coined_walk(),
        "modified": modified_coined_walk(),
        "grover3": grover_walk_3(),
    }


# -- closed-form eigenvalue functions ---------------------------------------


def coined_lambda(theta, r: float = 2**-0.5, branch: int = +1):
    """r cos(theta) +/- i sqrt(1 - r^2 cos^2 theta); two single-cover branches."""
    theta = np.asarray(theta, dtype=float)
    x = r * np.cos(theta)
    return x + branch * 1j * np.sqrt(1.0 - x * x)


def modified_lambda(theta, r: float = 2**-0.5):
    """Double-cover branch e^{i theta} (r cos theta + i sqrt(1 - r^2 cos^2 theta))."""
    theta = np.asarray(theta, dtype=float)
    x = r * np.cos(theta)
    return np.exp(1j * theta) * (x + 1j * np.sqrt(1.0 - x * x))


def grover_lambda(theta):
    """Double-cover moving branch of the 3-state Grover walk.

    -(2 + cos 2theta)/3 + (2i/3) sin(theta) sqrt(3 - sin^2 theta); the third
    branch is the constant 1.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    return -(2.0 + np.cos(2.0 * theta)) / 3.0 + (2j / 3.0) * s * np.sqrt(3.0 - s * s)
