"""Eigenvalue-branch tracking around the circle and everything built on it.

The spectrum of a unitary symbol over the circle organizes into closed
analytic loops: following each eigenvalue continuously around the base circle
permutes the eigenvalue labels, and each cycle of length d of that permutation
is one branch living on a d-fold covering circle.  This module recovers those
cycles numerically (track_bands) and derives the invariants that hang off the
branch structure: winding numbers, continuous-time realizability,
spectral-projection weights of an initial vector and the group velocities.
Every EigenSystem is refined when it is built: it contracts each
rotation-symmetric branch to its minimal period and merges coinciding ones
into multiplicities.  Conjugacy of two walks needs no tracking: the bands
are the analytic branches of the roots of det(lambda - U(z)), so two walks
share a refined system exactly when their characteristic polynomials agree,
and are_conjugate compares those.

Branch matching note: U is normal on the circle, so an analytic branch moves
in one step of h = 2 pi / M at most the integral of ||dU/dtheta||_2 over it
(Kato, Perturbation Theory, ch. II): at most delta = h L, L = sum_s |s|
||C_s||_F, and, as ||dU/dtheta||_2 changes by at most L2 = sum_s s^2 ||C_s||_2
per radian, at most h (||U'(z_k)||_2 + ||U'(z_{k+1})||_2) / 2 + h^2 L2 / 2,
taken on the steps h L leaves uncertified.  Values within the floor F
(_Solved, about 1e-13) are one eigenvalue and cluster.  A step is certified
where the clusters of its target lie more than 2 delta_k + 4 F apart: each
eigenvalue's branch ends in its nearest cluster, where the step sends it
(members in index order: the refined system does not depend on labels
inside a cluster), all such steps in one batched argmin.  The other steps
match each group of eigenvalues within 2 delta_k + 4 F of each other by
minimum total distance from linearly extrapolated values, in grid order,
which follows the analytic branch through a transversal collision.

Analytic branches that come close cross exactly or avoid each other with a
gap g0 > 0 (Rellich; Kato ch. II section 6); the bisection tells which.  A
group of an uncertified step is explained by a solved point in its run of
open steps, or a step beside it, where the values within L |theta - theta'|
+ F of the group's hold fewer clusters: its branches met there.  Each
unexplained step is split alone, the new points of a level in one stack,
until its parts certify or are explained; a part left where 2 delta <= F or
where halves would be narrower than CROSSING_WIDTH, or a bisection past
MAX_GRID points, raises ResolutionError.  Down to the step of MAX_GRID a level halves, so its points
are those of the grid M 2^l; below it a level cuts a step in up to
MAX_PARTS.  A pass whose open steps are all explained is accepted; else
tracking moves to the grid of the least level whose open steps are, reusing
every point, and bisects again.  On MAX_GRID, the points that bisect a step
still open join the pass.

Eigensolver note: U(z) is unitary on the circle, so every grid stack is
solved as a Hermitian one (_unitary_eig).  The Cayley transform
T = i (I + W)^-1 (I - W) of W = conj(r) U has U's eigenvectors and maps an
eigenvalue r e^{i alpha} to tan(alpha / 2), so it is Hermitian and finite
unless an eigenvalue sits at the pole -r.  Every row's first pole follows
one rule: the direction opposite its trace, turned by POLE_TURN times the
retry turn, pi / (2 (n + 1)).  The pole is checked on every row: ||T||_F,
taken before T is made Hermitian, must be at most 2 sqrt(n) cot(pi / (2 (n + 1))).
Rows above it, or with I + W singular, retry with the pole turned by
2 pi / (n + 1); one of those n + 1 poles is at least pi / (n + 1) from every
eigenvalue, where ||T||_F is at most half the bound, so a unitary row always
passes and a row that never does raises ResolutionError.  The eigenvectors
come back orthonormal, so V^-1 is V^H and no inverse is taken.

Grid work is batched: one eigendecomposition of the (M, n, n) symbol stack
serves tracking, and the system keeps it for band_projections, whose
vector-free half is built once per system and walk.  Matching, composition,
weights and velocities are array operations over all M points, except the
uncertified steps (each extrapolates from the one before) and the
velocities at self-collisions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .circle import circle_values, rotation_distance, winding_of_samples
from .errors import DomainError, ResolutionError, UnitarityError
from .laurent import evaluate
from .symbol import SymbolMatrix, char_poly, verify_unitary_symbol

# Conjugate edge of the char-poly distance, relative to the coefficient scale:
# char_poly prunes below PRUNE_TOL = 1e-14, conjugate pairs of generated walks
# differ by about that much, and distinct band systems by order one.
CHAR_POLY_TOL = 1e-12
CROSSING_WIDTH = 4e-15  # the narrowest sub-step: a few ulps of 2 pi
DEFAULT_BASE_GRID = 1024
DEFAULT_TOL = 1e-6
DEGENERACY_TOL = 1e-8
# Tracking's floor, in units of n eps B: exact double eigenvalues come back
# split by at most 0.65 n eps B (measured, n = 2..8).
FLOOR = 16
MAX_GRID = 1 << 16
MAX_PARTS = 32  # most parts an open step is cut in below the step of MAX_GRID
# Turn of the first Cayley pole off the trace axis, as a fraction of the retry
# turn 2 pi / (n + 1): exact flat bands at +-1 and +-i (Grover's lambda = 1)
# never sit on it, and of the turns measured a quarter retries fewest rows.
POLE_TURN = 0.25


@dataclass(frozen=True, eq=False)
class Band:
    """One tracked eigenvalue branch on its covering circle.

    samples[m] is the branch value at covering point exp(2*pi*i*m/(d*M)); the
    d covering points sitting over base point k are indices k + i*M.  The
    winding is computed from the samples (_validated_winding), so an
    under-resolved loop raises ResolutionError where the band is built.
    """

    d: int
    samples: np.ndarray
    winding: int = field(init=False)
    multiplicity: int = field(default=1, kw_only=True)

    def __post_init__(self):
        if self.d < 1 or self.multiplicity < 1:
            raise DomainError(
                f"covering degree {self.d} and multiplicity {self.multiplicity} must be positive"
            )
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if len(self.samples) % self.d != 0:
            raise DomainError("sample count must be a multiple of the covering degree")
        object.__setattr__(self, "winding", _validated_winding(self.samples))

    @property
    def base_grid(self) -> int:
        return len(self.samples) // self.d

    def __eq__(self, other) -> bool:
        if not isinstance(other, Band):
            return NotImplemented
        return (
            self.d == other.d
            and self.multiplicity == other.multiplicity
            and np.array_equal(self.samples, other.samples)
        )


@dataclass(frozen=True)
class TrackingRecord:
    """track_bands' certificate: the grid of each pass, the points solved, the
    angles of the exact crossings its grid's open steps meet, and the least
    gap left unexplained (an avoided crossing's g0) and its angle, or None;
    outside ==, each stack's (rows, rows retried) and the bisection's seconds."""

    grids: tuple[int, ...]
    points: int
    crossings: tuple[float, ...]
    avoided_gap: float | None
    avoided_angle: float | None
    solves: tuple[tuple[int, int], ...] = field(default=(), compare=False)
    bisect_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """A complete set of tracked bands for one walk symbol, refined when built.

    __post_init__ contracts each band to its minimal rotation period (to
    DEFAULT_TOL), merges bands coinciding up to rotation into multiplicities
    (at DEGENERACY_TOL) and sorts them by degree, multiplicity (the larger
    first) and _seam_angle of the first sample.  One pass of contraction
    suffices: a rotation symmetry of a contracted band would be a smaller
    period of the original one.

    Three read-only attachments ride along and __eq__ ignores them: `record`
    is track_bands' TrackingRecord, `_solved` the (walk, evals, vecs)
    eigendecomposition on base_grid that it tracked through, and `_frame`
    the vector-free half of band_projections (_Frame), built on first use.
    """

    bands: tuple[Band, ...]
    n: int
    base_grid: int
    record: TrackingRecord | None = field(default=None, init=False, repr=False)
    _solved: tuple | None = field(default=None, init=False, repr=False)
    _frame: _Frame | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m, contracted = self.base_grid, []
        for b in self.bands:
            if b.base_grid != m:
                raise DomainError("all bands must share the system base grid")
            c = _minimal_rotation_period(b, m, DEFAULT_TOL)
            if c is not None:
                b = Band(c, b.samples[: c * m].copy(), multiplicity=b.multiplicity * (b.d // c))
            contracted.append(b)
        bands = _merge_duplicates(contracted, m)
        bands.sort(key=lambda b: (b.d, -b.multiplicity, _seam_angle(b.samples[0])))
        object.__setattr__(self, "bands", tuple(bands))
        total = sum(b.d * b.multiplicity for b in self.bands)
        if total != self.n:
            raise DomainError(f"band degrees and multiplicities sum to {total}, expected {self.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EigenSystem):
            return NotImplemented
        return (
            self.n == other.n
            and self.base_grid == other.base_grid
            and self.bands == other.bands
        )

    @property
    def summand_count(self) -> int:
        """Number of irreducible summands, counted with multiplicity."""
        return sum(b.multiplicity for b in self.bands)


# ---------------------------------------------------------------------------
# the unitary eigensolver
# ---------------------------------------------------------------------------


def _cayley(stack: np.ndarray, center: np.ndarray) -> np.ndarray:
    """i (I + W)^-1 (I - W) with W = conj(r) U per row; NaN rows where I + W is singular."""
    w = center.conj()[:, None, None] * stack
    eye = np.eye(stack.shape[1])
    minus = 1j * (eye - w)
    plus = np.add(eye, w, out=w)  # in place: one stack fewer at the peak
    try:
        return np.linalg.solve(plus, minus)
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(plus)[0] != 0
        out = np.full_like(w, np.nan)
        out[regular] = np.linalg.solve(plus[regular], minus[regular])
        return out


def _cayley_bound(n: int) -> float:
    """The pole check's bound on ||T||_F (module docstring)."""
    return 2.0 * math.sqrt(n) / math.tan(math.pi / (2 * (n + 1)))


def _unitary_eig(stack: np.ndarray):
    """Eigenvalues and orthonormal eigenvectors of an (M, n, n) unitary stack.

    The Cayley transform T of each row, its pole check and the retries are
    the module docstring's eigensolver note.  The check runs on T
    itself, before H = (T + T^H) / 2 is formed: symmetrizing would drop the
    huge skew part of a transform whose pole sits on an eigenvalue.  One
    batched eigh of H gives the vectors V, and the Rayleigh quotients
    diag(V^H U V) the eigenvalues (exact on the identity).  Every step works
    row by row, so a row gives the same bits alone or in any stack.  Returns
    (values, vectors, rows retried at another pole) of shapes (M, n), (M, n, n).
    """
    m, n = stack.shape[:2]
    trace = stack[:, 0, 0].copy()
    for i in range(1, n):
        trace += stack[:, i, i]
    size = np.abs(trace)
    first = np.where(size > 0, trace / np.where(size > 0, size, 1.0), -1.0)
    bound = _cayley_bound(n)
    todo, retried = np.arange(m), 0
    smallest = np.full(m, np.inf)  # each row's least ||T||_F, for the refusal
    for attempt in range(n + 1):
        rows = todo if attempt else slice(None)  # the first pole takes every row, uncopied
        # out of place: an in-place complex product of one element rounds
        # differently, and a row must not depend on its stack
        r = first[rows] * np.exp(2j * math.pi * (attempt + POLE_TURN) / (n + 1))
        t = _cayley(stack[rows], r)
        size = np.linalg.norm(t, axis=(1, 2))
        passed = size <= bound  # False on NaN
        if attempt:
            cayley[todo[passed]] = t[passed]
            retried += len(t)
        else:
            cayley = t
        smallest[todo] = np.fmin(smallest[todo], size)
        todo = todo[~passed]
        if not todo.size:
            break
    else:
        raise ResolutionError(
            f"no Cayley pole conditions {len(todo)} of {m} grid points: smallest "
            f"||T||_F {np.min(smallest[todo]):.3e} above the bound {bound:.3e}; the "
            "symbol is not unitary there"
        )
    cayley += cayley.conj().swapaxes(1, 2)  # H = (T + T^H) / 2 in T's own memory
    vecs = np.linalg.eigh(np.divide(cayley, 2, out=cayley))[1]
    uv = stack @ vecs
    vals = vecs[:, 0].conj() * uv[:, 0]  # diag(V^H U V), one row of V at a time
    for i in range(1, n):
        vals += vecs[:, i].conj() * uv[:, i]
    return vals, vecs, retried


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------


def _best_separated_point(vals: np.ndarray) -> int:
    """Index of the (M, n) eigenvalue row with the largest minimum pairwise gap."""
    n = vals.shape[1]
    gaps = np.abs(vals[:, :, None] - vals[:, None, :])
    gaps[:, np.arange(n), np.arange(n)] = np.inf
    return int(np.argmax(gaps.min(axis=(1, 2))))


def _lipschitz(walk: SymbolMatrix) -> float:
    """L = sum_s |s| ||C_s||_F, a bound on ||dU/dtheta||_F around the circle."""
    return float(np.sum(np.abs(walk.shifts) * np.linalg.norm(walk.coeffs, axis=(1, 2))))


def _linked(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage clusters of the last axis of a (..., n) value stack at tol.

    [..., i, j] is True when values i and j are joined by a chain of steps
    shorter than tol; a boolean product doubles the chain length covered, and
    chains have at most n - 1 links.
    """
    linked = np.abs(values[..., :, None] - values[..., None, :]) < tol
    for _ in range((values.shape[-1] - 1).bit_length()):
        linked = linked @ linked
    return linked


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-total-cost matching of a square cost matrix.

    The Hungarian method by shortest augmenting paths with row and column
    potentials, O(g^3) for g rows, on Python lists: the groups it solves are
    small.  Index 0 of the padded lists is a virtual column.
    """
    g = len(cost)
    cost = cost.tolist()
    u, v = [0.0] * (g + 1), [0.0] * (g + 1)
    row_of, way = [0] * (g + 1), [0] * (g + 1)  # row_of[j]: 1-based row on column j
    for i in range(1, g + 1):
        row_of[0], col = i, 0
        slack, used = [math.inf] * (g + 1), [False] * (g + 1)
        while row_of[col]:
            used[col] = True
            row, step, nxt = row_of[col], math.inf, 0
            for j in range(1, g + 1):
                if not used[j]:
                    reduced = cost[row - 1][j - 1] - u[row] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, col
                    if slack[j] < step:
                        step, nxt = slack[j], j
            for j in range(g + 1):
                if used[j]:
                    u[row_of[j]] += step
                    v[j] -= step
                else:
                    slack[j] -= step
            col = nxt
        while col:
            row_of[col] = row_of[way[col]]
            col = way[col]
    cols = np.empty(g, dtype=int)
    cols[np.array(row_of[1:]) - 1] = np.arange(g)
    return cols


def _step_bounds(walk: SymbolMatrix, target: np.ndarray, h, angles: np.ndarray, floor) -> tuple:
    """(delta, gap, linked, groups) of steps of width h to the (S, n) values
    `target`, `angles` (2, S) their ends: the step bound, the least distance
    between the target's clusters, their links, and the links the step
    matches by, the values within 2 delta + 4 floor where it is uncertified."""
    linked = _linked(target, floor)
    dist = np.abs(target[:, :, None] - target[:, None, :])
    gap = np.min(np.where(linked, np.inf, dist), axis=(1, 2))
    h = np.broadcast_to(h, gap.shape)
    delta = h * _lipschitz(walk)
    loose = np.flatnonzero(gap <= 2 * delta + 4 * floor)
    if loose.size:
        s, c = walk.shifts, walk.coeffs
        slope = evaluate(s, 1j * s[:, None, None] * c, np.exp(1j * angles[:, loose]))
        gram = [a.conj().swapaxes(-1, -2) @ a for a in (c, slope)]  # ||A||_2^2 = top eigenvalue
        norms = [np.linalg.eigvalsh(g)[..., -1] ** 0.5 for g in gram]  # no SVD: MBs of peak RSS
        w = h[loose]
        local = w * norms[1].mean(axis=0) + w * w * float(np.sum(s**2.0 * norms[0])) / 2
        delta[loose] = np.minimum(delta[loose], local)
    reach = 2 * delta + 4 * floor
    groups = linked.copy()
    uncertified = gap <= reach
    groups[uncertified] = _linked(target[uncertified], reach[uncertified, None, None])
    return delta, gap, linked, groups


def _grid_bounds(walk: SymbolMatrix, vals: np.ndarray, floor: float) -> tuple:
    """_step_bounds of the steps of an (M, n) pass, row k for the step to point k + 1."""
    k, h = np.arange(len(vals)), 2.0 * np.pi / len(vals)
    ends = h * np.stack([k, (k + 1) % len(k)])
    return _step_bounds(walk, np.roll(vals, -1, axis=0), h, ends, floor)


class _Solved:
    """The points one track_bands call solved, by angle (the same bits on
    every grid), and the floor: FLOOR n eps B plus twice the walk's unitarity
    deviation, by which a crossing of the nearest unitary symbol may open."""

    def __init__(self, walk: SymbolMatrix):
        self.walk, self.chunks, self.cache = walk, [], None
        self.floor = FLOOR * walk.n * np.finfo(float).eps * _cayley_bound(walk.n)
        self.floor += 2 * verify_unitary_symbol(walk).max_deviation

    def met(self) -> tuple[np.ndarray, np.ndarray]:
        """(angle, values) of the points where two values share a cluster."""
        if self.cache is None:
            self.cache = tuple(np.concatenate([c[i][c[3]] for c in self.chunks]) for i in (0, 1))
        return self.cache

    def solve(self, grid: int, index: np.ndarray, stack=None) -> tuple:
        """(values, vectors) at points `index` of `grid`, solving in one stack
        (rows of `stack` where given) only those not solved before."""
        angle = 2.0 * np.pi * index / grid
        known = [np.isin(angle, chunk[0]) for chunk in self.chunks]
        new = ~np.any(known, axis=0) if known else np.ones(len(index), bool)
        if new.any():
            if stack is None:
                stack = circle_values(self.walk.coeffs, self.walk.shifts, grid, index)
            vals, vecs, retried = _unitary_eig(stack[new])
            close = np.abs(vals[:, :, None] - vals[:, None, :]) + np.eye(vals.shape[1]) < self.floor
            self.chunks.append((angle[new], vals, vecs, close.any(axis=(1, 2)), retried))
            self.cache = None
            if new.all():
                return vals, vecs
        out = [np.empty((len(index),) + x.shape[1:], complex) for x in self.chunks[0][1:3]]
        for (at, vals, vecs, *_), hit in zip(self.chunks, known + [new]):
            order = np.argsort(at)
            at = order[np.searchsorted(at, angle[hit], sorter=order)]
            out[0][hit], out[1][hit] = vals[at], vecs[at]
        return tuple(out)


def _cluster_count(member: np.ndarray, linked: np.ndarray) -> np.ndarray:
    """Clusters among the values flagged in `member` (..., n), by links (..., n, n)."""
    earlier = np.tril(linked, -1) & member[..., None, :]
    return np.count_nonzero(member & ~np.any(earlier, axis=-1), axis=-1)


def _explain(walk, grid, steps, dst, gap, linked, groups, solved) -> tuple:
    """(angles, gaps) of open steps (`steps` of `grid`, target values `dst`,
    _step_bounds' gap and links): per [step, group] the angle of a solved
    point that explains the group, NaN where none does, inf for a group of
    one cluster (module docstring); per step the least gap of a group left
    (inf if none)."""
    n, h = dst.shape[1], 2.0 * np.pi / grid
    hit = np.full((len(steps), n), np.nan)
    angle, values = solved.met()
    if not angle.size or not len(steps):
        return hit, gap
    member = np.argmax(groups, axis=2)[:, None, :] == np.arange(n)[:, None]  # [s, group, i]
    count = _cluster_count(member, linked[:, None])
    hit[count < 2] = np.inf
    # runs of consecutive steps (the last joins the first across the seam), one step wider
    run = np.cumsum(np.concatenate([[True], np.diff(steps) != 1])) - 1
    first, length = steps[np.flatnonzero(np.diff(run, prepend=-1))], np.bincount(run)
    if run[-1] and steps[0] == 0 and steps[-1] == grid - 1:
        first[0], length[0] = first[-1], length[0] + length[-1]
        run[run == run[-1]] = 0
    lo, span = h * (first - 1.5), h * (length + 3.0)  # half a step more for roundoff
    s, g = np.nonzero(count > 1)
    pair, c = np.nonzero((angle - lo[run[s], None]) % (2.0 * np.pi) <= span[run[s], None])
    s, g = s[pair], g[pair]
    reach = _lipschitz(walk) * np.abs(np.angle(np.exp(1j * (angle[c] - h * (steps[s] + 1)))))
    near = np.abs(values[c, :, None] - dst[s, None]) <= reach[:, None, None] + solved.floor
    near = np.any(member[s, g, None] & near, axis=2)  # [pair, i]: value i within reach of the group
    met = (np.count_nonzero(near, axis=1) >= np.count_nonzero(member[s, g], axis=1)) & (
        _cluster_count(near, _linked(values[c], solved.floor)) < count[s, g]
    )
    hit[s[met], g[met]] = angle[c[met]]
    left = np.isnan(hit)
    apart = member[..., :, None] & member[..., None, :] & ~linked[:, None] & left[:, :, None, None]
    dist = np.abs(dst[:, :, None] - dst[:, None, :])
    return hit, np.min(np.where(apart, dist[:, None], np.inf), axis=(1, 2, 3))


def _descend(walk: SymbolMatrix, grid: int, steps: np.ndarray, ends: tuple, solved) -> list:
    """Split the open `steps` of `grid` (values `ends` at their two ends) level
    by level while a group of theirs is unexplained; returns [grid, steps,
    gaps, angles] per level of open steps, _explain's with every point
    solved, or raises ResolutionError (module docstring)."""
    levels, spent, floor, (src, dst) = [], 0, solved.floor, ends
    while steps.size:
        h = 2.0 * np.pi / grid
        bounds = _step_bounds(walk, dst, h, h * np.stack([steps, (steps + 1) % grid]), floor)
        keep = bounds[1] <= 2 * bounds[0] + 4 * floor
        steps, src, dst = steps[keep], src[keep], dst[keep]
        delta, gap, linked, groups = (x[keep] for x in bounds)
        found, least = _explain(walk, grid, steps, dst, gap, linked, groups, solved)
        levels.append([grid, steps, least, found, (dst, gap, linked, groups)])
        split = np.isnan(found).any(axis=1)
        if not split.any():
            break
        steps, src, dst, delta, gap = (x[split] for x in (steps, src, dst, delta, gap))
        stuck = 2 * delta <= floor
        # halves up to MAX_GRID, then up to MAX_PARTS parts, no more than 2 delta / floor
        parts = 2 if grid < MAX_GRID or stuck.any() else MAX_PARTS
        parts = min(parts, 1 << math.ceil(math.log2(max(2 * delta.max() / floor, 2))))
        over = spent + steps.size * (parts - 1) > MAX_GRID
        if stuck.any() or np.pi / grid < CROSSING_WIDTH or over:
            k = np.argmin(np.where(stuck, gap, np.inf) if stuck.any() else gap)
            at = f"{MAX_GRID} (MAX_GRID)" if grid >= MAX_GRID else f"{grid} (below {MAX_GRID})"
            raise ResolutionError(
                f"tracking unresolved at grid {at}, {steps.size} open steps of width "
                f"{2 * np.pi / grid:.1e} after {spent} points; the narrowest gap between "
                f"eigenvalue clusters is {gap[k]:.3e}, against its bound 2 delta "
                f"{2 * delta[k]:.3e}, at theta {2 * np.pi * (steps[k] + 1) / grid:.12f} "
                f"(floor {floor:.1e})"
            )
        spent, grid, n = spent + steps.size * (parts - 1), grid * parts, src.shape[1]
        new = solved.solve(grid, (steps[:, None] * parts + np.arange(1, parts)).ravel())[0]
        ends = np.concatenate([src[:, None], new.reshape(len(steps), -1, n), dst[:, None]], 1)
        src, dst = ends[:, :-1].reshape(-1, n), ends[:, 1:].reshape(-1, n)
        steps = (steps[:, None] * parts + np.arange(parts)).ravel()
    for entry in levels:  # with the points solved since
        left = np.isnan(entry[3]).any(axis=1)
        ends = (x[left] for x in entry.pop())
        entry[3][left], entry[2][left] = _explain(walk, entry[0], entry[1][left], *ends, solved)
    return levels


def _step_permutations(
    vals: np.ndarray, delta: np.ndarray, uncertified: np.ndarray, groups: np.ndarray, kstar: int
) -> np.ndarray:
    """(M, n) step permutations: row k sends eigenvalue i at k to row[i] at k + 1.

    `delta` and `groups` are _step_bounds'.  A certified step sends each
    eigenvalue to its nearest cluster, members in index order, all steps at
    once.  An uncertified step matches each of its groups by minimum total
    distance from values extrapolated through the step before, in grid order
    from kstar (the history-free first step predicts the current values).
    """
    grid, n = vals.shape
    target = np.roll(vals, -1, axis=0)  # row k: the spectrum at point k + 1
    label = np.argmax(groups, axis=2)  # smallest index in each cluster or group
    nearest = np.argmin(np.abs(vals[:, :, None] - target[:, None, :]), axis=2)
    source = np.take_along_axis(label, nearest, axis=1)
    if np.any(np.sort(source, axis=1) != np.sort(label, axis=1)):
        raise ResolutionError(
            "eigenvalues moved further than the step bound "
            f"{delta.max():.3e} between adjacent grid points"
        )
    # sorted by (group, index), sources and targets line up group by group
    steps = np.empty((grid, n), dtype=int)
    np.put_along_axis(
        steps, np.argsort(source, axis=1, kind="stable"),
        np.argsort(label, axis=1, kind="stable"), axis=1,
    )
    for j in np.flatnonzero(np.roll(uncertified, -kstar)):
        k = (kstar + j) % grid
        predicted = 2.0 * vals[k] - vals[k - 1][np.argsort(steps[k - 1])] if j else vals[k]
        for g in np.flatnonzero(np.bincount(label[k], minlength=n) > 1):
            rows, cols = np.flatnonzero(source[k] == g), np.flatnonzero(label[k] == g)
            cost = np.abs(predicted[rows, None] - target[k, cols])
            steps[k, rows] = cols[_min_cost_assignment(cost)]
    return steps


def _track_cycles(vals: np.ndarray, keep, *bounds: np.ndarray) -> list[Band]:
    """One Band per branch cycle through the (M, n) eigenvalue lists, by
    _step_permutations(vals, *bounds), sampled at the points `keep`; the pass
    starts where the spectrum is best separated, so its history-free first
    step straddles no collision."""
    grid, n = vals.shape
    kstar = _best_separated_point(vals)
    start = vals[kstar]
    order0 = np.lexsort((start.imag, start.real, np.angle(start)))
    # chain[j] composes the pass's first j + 1 steps (inclusive scan by doubling)
    chain = np.roll(_step_permutations(vals, *bounds, kstar), -kstar, axis=0)
    offset = 1
    while offset < grid:
        chain[offset:] = np.take_along_axis(chain[offset:], chain[:-offset], axis=1)
        offset *= 2
    position = np.concatenate([order0[None], chain[:-1, order0]])  # (M, n) by pass step
    path_vals = np.take_along_axis(np.roll(vals, -kstar, axis=0), position, axis=1).T
    inv = np.empty(n, dtype=int)
    inv[order0] = np.arange(n)
    pi = inv[chain[-1, order0]]  # branch b continues as branch pi[b] after one loop

    cycles = []
    seen = np.zeros(n, dtype=bool)
    for b0 in range(n):
        if seen[b0]:
            continue
        cycle = [b0]
        seen[b0] = True
        b = int(pi[b0])
        while b != b0:
            cycle.append(b)
            seen[b] = True
            b = int(pi[b])
        d = len(cycle)
        seq = np.concatenate([path_vals[b, :grid] for b in cycle])
        samples = np.roll(seq, kstar).reshape(d, grid)[:, keep].ravel()  # index 0 <-> z = 1
        cycles.append(Band(d, _canonical_rotation(samples, len(samples) // d)))
    return cycles


_HALF_TURN = round(np.pi, 9)


def _seam_angle(value: complex) -> float:
    """arg(value) rounded to 9 digits, -pi read as +pi: a value on the negative
    real axis gets one key whatever the sign of its roundoff imaginary part."""
    angle = round(float(np.angle(value)), 9)
    return _HALF_TURN if angle == -_HALF_TURN else angle


def _canonical_rotation(samples: np.ndarray, base_grid: int) -> np.ndarray:
    """Fix the rotation gauge: start the loop at the smallest initial argument.

    The argument is keyed by _seam_angle.  Sheets that start at the same
    value are ordered by the turn of the argument to their next sample, the
    smaller first.
    """
    d = len(samples) // base_grid
    if d == 1:
        return samples
    candidates = [np.roll(samples, -i * base_grid) for i in range(d)]
    keys = [(_seam_angle(c[0]), round(float(np.angle(c[1] / c[0])), 9)) for c in candidates]
    return candidates[min(range(d), key=keys.__getitem__)]


def _merge_duplicates(bands: list[Band], base_grid: int) -> list[Band]:
    """Merge bands coinciding up to rotation (at DEGENERACY_TOL) into multiplicities."""
    out, tol = [], DEGENERACY_TOL
    for band in bands:
        for idx, b in enumerate(out):
            if b.d == band.d and rotation_distance(b.samples, band.samples, base_grid) < tol:
                out[idx] = Band(b.d, b.samples, multiplicity=b.multiplicity + band.multiplicity)
                break
        else:
            out.append(band)
    return out


def _require_unitary(walk: SymbolMatrix) -> None:
    report = verify_unitary_symbol(walk)
    if not report.passed:
        raise UnitarityError(
            f"symbol not unitary: max deviation {report.max_deviation:.3e}"
        )


def valid_base_grid(grid: int) -> bool:
    """A power of two in 64..MAX_GRID/2: a base grid that leaves track_bands a finer grid."""
    return grid >= 64 and not grid & (grid - 1) and 2 * grid <= MAX_GRID


def track_bands(walk: SymbolMatrix, base_grid: int = DEFAULT_BASE_GRID) -> EigenSystem:
    """Track the eigenvalue branches of a unitary symbol around the circle.

    Eigenvalues and orthonormal eigenvectors are solved at `base_grid`
    uniform points and matched under the certificate and bisection of the
    module docstring; the step permutations compose into one permutation
    whose cycles give covering degrees, one Band each (its winding validated,
    ResolutionError where under-resolved), refined as every EigenSystem is
    when it is built.  The system keeps its grid's decomposition for
    band_projections, tied to this walk, and its TrackingRecord, each stack
    solved and the bisection's time included.

    Parameters
    ----------
    walk : SymbolMatrix
        Must pass the unitarity check.
    base_grid : int
        Power of two in 64..MAX_GRID/2, the least grid tried.
    """
    if not valid_base_grid(base_grid):
        raise DomainError(f"base_grid {base_grid} is not a power of two in 64..{MAX_GRID // 2}")
    _require_unitary(walk)
    solved, grid, grids, avoided, bisect_s = _Solved(walk), base_grid, [], (math.inf, None), 0.0
    vals, vecs = solved.solve(grid, np.arange(grid), walk.grid_eval(grid))
    while True:
        grids.append(grid)
        bounds = _grid_bounds(walk, vals, solved.floor)
        steps = np.flatnonzero(bounds[1] <= 2 * bounds[0] + 4 * solved.floor)
        start = time.perf_counter()
        levels = _descend(walk, grid, steps, (vals[steps], vals[(steps + 1) % grid]), solved)
        bisect_s += time.perf_counter() - start
        for level_grid, steps, gap, _found in levels:  # the narrowest unexplained gap
            if gap.size and gap.min() < avoided[0]:
                k = np.argmin(gap)
                theta = 2.0 * np.pi * float((steps[k] + 1) % level_grid) / level_grid
                avoided = (float(gap[k]), theta)
        k = next((i for i, level in enumerate(levels) if not np.isnan(level[3]).any()), 0)
        if k == 0 or grid == MAX_GRID:
            break
        grid = min(levels[k][0], MAX_GRID)
        vals, vecs = solved.solve(grid, np.arange(grid), walk.grid_eval(grid))
    keep, path, floor = slice(None), vals, solved.floor
    if k:  # on MAX_GRID, the points inside steps still open join the pass; it keeps the grid's
        angle, values = (np.concatenate([c[i] for c in solved.chunks]) for i in (0, 1))
        ticks = 2.0 * np.pi * np.arange(grid) / grid
        still_open = levels[0][1][np.isnan(levels[0][3]).any(axis=1)]
        inside = np.isin(np.searchsorted(ticks, angle, side="right") - 1, still_open)
        inside &= ~np.isin(angle, ticks)
        at = np.concatenate([ticks, angle[inside]])
        order = np.argsort(at)
        keep, at = np.argsort(order)[:grid], at[order]
        path, end = np.concatenate([vals, values[inside]])[order], np.append(at[1:], 2.0 * np.pi)
        bounds = _step_bounds(walk, np.roll(path, -1, 0), end - at, np.stack([at, end]), floor)
    delta, gap, _linked, groups = bounds
    cycles = _track_cycles(path, keep, delta, gap <= 2 * delta + 4 * floor, groups)
    system = EigenSystem(tuple(cycles), walk.n, grid)
    found = np.sort(levels[0][3][np.isfinite(levels[0][3])]) if levels else np.zeros(0)
    crossings = tuple(found[np.diff(found, prepend=-1.0) > 1e-9].tolist())  # one angle each
    avoided = avoided if avoided[1] is not None else (None, None)
    points = sum(len(chunk[0]) for chunk in solved.chunks)
    solves = tuple((len(at), retried) for at, *_, retried in solved.chunks)
    record = TrackingRecord(tuple(grids), points, crossings, *avoided, solves, bisect_s)
    object.__setattr__(system, "record", record)
    object.__setattr__(system, "_solved", (walk, vals, vecs))
    return system


# ---------------------------------------------------------------------------
# winding numbers and refinement
# ---------------------------------------------------------------------------


def _validated_winding(samples: np.ndarray) -> int:
    """Winding of a band's sample loop; ResolutionError where it is under-resolved.

    A closed sample loop sums its principal argument increments to a multiple
    of 2*pi up to rounding, so the sum cannot tell an under-resolved loop;
    a step of more than a quarter turn is the aliasing signal.
    """
    w, max_step = winding_of_samples(samples)
    if max_step > np.pi / 2:
        raise ResolutionError(
            "winding not integral: argument increments are under-resolved "
            f"(max step {max_step / (2 * np.pi):.3f} turns)"
        )
    return w


def winding_numbers(system: EigenSystem) -> list[int]:
    """Winding of each band, as computed and validated from its samples when it was built."""
    return [band.winding for band in system.bands]


def _minimal_rotation_period(band: Band, base_grid: int, tol: float) -> int | None:
    """Smallest divisor c < d with the rotation symmetry, or None."""
    d = band.d
    for c in range(1, d):
        if d % c:
            continue
        shifted = np.roll(band.samples, c * base_grid)
        if float(np.max(np.abs(band.samples - shifted))) < tol:
            return c
    return None


def refine_system(system: EigenSystem) -> EigenSystem:
    """`system` itself, as every EigenSystem is refined when built; kept for
    zqbench's workloads, which call it, until ROADMAP item 10 removes it."""
    return system


def total_winding(system: EigenSystem) -> int:
    """Sum of |winding| over bands, counted with multiplicity."""
    return sum(abs(b.winding) * b.multiplicity for b in system.bands)


def ct_realizable(system: EigenSystem) -> bool:
    """True iff every band winding vanishes."""
    return all(b.winding == 0 for b in system.bands)


def is_decomposable(system: EigenSystem) -> bool:
    """True iff the walk splits into more than one irreducible summand."""
    return system.summand_count > 1


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------


def are_conjugate(
    w1: SymbolMatrix,
    w2: SymbolMatrix,
    tol: float = DEFAULT_TOL,
    base_grid: int = DEFAULT_BASE_GRID,
) -> bool:
    """Whether two walks share a refined eigenvalue-function system.

    The bands are the analytic branches of the roots of det(lambda - U(z)),
    so two walks have the same refined system, multiplicities included,
    exactly when their characteristic polynomials agree; no band is tracked.
    Both walks must pass the unitarity check.  The distance is the largest
    coefficient difference over all lambda-powers and shifts: at most
    CHAR_POLY_TOL times the coefficient scale (at least 1) is conjugate, at
    least `tol` is not, and a distance in between raises ResolutionError.
    A `tol` that is not finite and positive raises DomainError.  Walks of
    different dimension are not conjugate.  `base_grid` is accepted for
    compatibility and unused.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    _require_unitary(w1)
    _require_unitary(w2)
    if w1.n != w2.n:
        return False
    pairs = list(zip(char_poly(w1).coeffs, char_poly(w2).coeffs))
    distance = max(a.max_coeff_distance(b) for a, b in pairs)
    scale = max(float(np.max(np.abs(poly.coeffs), initial=0.0)) for pair in pairs for poly in pair)
    same = CHAR_POLY_TOL * scale  # at least CHAR_POLY_TOL: both are monic
    if distance <= same:
        return True
    if distance >= tol:
        return False
    raise ResolutionError(
        f"characteristic polynomials differ by {distance:.3e}: above the "
        f"conjugate edge {same:.3e}, below the non-conjugate edge {tol:.3e}"
    )


# ---------------------------------------------------------------------------
# spectral-projection weights and group velocities
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Frame:
    """The vector-free half of band_projections for one walk and band set:
    W = V^H for the orthonormal eigenvectors V, eigenvalue clusters, each
    slot's cluster and how many slots share it, the read-only velocities and
    the band boundaries.
    """

    walk: SymbolMatrix
    left: np.ndarray
    linked: np.ndarray
    slot_cluster: np.ndarray
    slot_count: np.ndarray
    velocity: np.ndarray
    split: np.ndarray


def band_projections(
    walk: SymbolMatrix,
    system: EigenSystem,
    xi_hat: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Eigenspace weights of xi_hat and group velocities, per band and covering point.

    Returns (weights, velocities), each one (M, d_j) array per band: entry
    [k, i] belongs to the tracked value at covering index k + i*M over base
    point z_k.  The weight is the squared norm of the projection of xi_hat(z_k)
    onto that value's eigenspace; where several covering points of one band
    fall into a single degenerate cluster (an isolated self-collision), the
    cluster weight is split evenly among them, so the weights at each z always
    resolve the identity.  Clusters mixing distinct bands are an error.  The
    velocity is d arg(lambda)/dtheta in base-circle units, so a band of
    winding w and degree d averages w/d and a flat band is constant; the
    velocity arrays are read-only.

    All grid points are handled at once.  The half that does not depend on
    xi_hat (the decomposition U = V diag(lambda) V^H with V orthonormal,
    clusters, slot matching, checks and velocities) is built once per system
    and walk and cached on the system (_projection_frame).  Per vector,
    a = V^H xi_hat, and the weight of an eigenvalue cluster c (single linkage
    at DEGENERACY_TOL) is sum_{i in c} |a_i|^2: the columns of V in c are an
    orthonormal basis of c's eigenspace, so this is the squared norm of the
    spectral projector of c applied to xi_hat.  No inverse is taken.
    """
    m = system.base_grid
    xi_hat = np.asarray(xi_hat, dtype=complex)
    if xi_hat.shape != (m, walk.n):
        raise DomainError(f"xi_hat must have shape ({m}, {walk.n})")
    frame = _projection_frame(walk, system)
    coeffs = (frame.left @ xi_hat[:, :, None])[:, :, 0]
    power = coeffs.real**2 + coeffs.imag**2
    cluster_weight = (power[:, None, :] @ frame.linked)[:, 0, :]  # [k, j]: j's cluster
    share = np.take_along_axis(cluster_weight, frame.slot_cluster, axis=1) / frame.slot_count
    return (
        np.split(share, frame.split, axis=1),
        np.split(frame.velocity, frame.split, axis=1),
    )


def _projection_frame(walk: SymbolMatrix, system: EigenSystem) -> _Frame:
    """The system's cached frame for `walk`, built (and cached) if there is none.

    The eigendecomposition is the one track_bands solved when the system
    carries it for this walk (the very object it tracked), else it is solved
    here by _unitary_eig; any other walk never reuses another walk's frame,
    so its spectrum is checked against the bands afresh.  The eigenvectors V
    are orthonormal, so W = V^H.

    Velocities are Hellmann-Feynman slopes Re((W U' V)_ii / (i lambda_i)),
    with U' exact from the symbol's coefficients.  Where one cluster holds
    several covering points of a band, the slopes are the eigenvalues of the
    Hermitian part of the cluster block of W U' V / (i lambda) (degenerate
    perturbation theory; the block is Hermitian for a unitary U), assigned
    to the covering points in the order of their velocities at the
    neighbouring grid point.  Each tracked covering value is matched to its
    nearest eigenvalue, and through it to that eigenvalue's cluster.
    """
    frame = system._frame
    if frame is not None and frame.walk is walk:
        return frame
    m = system.base_grid
    n = walk.n
    if system._solved is not None and system._solved[0] is walk:
        evals, vecs = system._solved[1:]
    else:
        evals, vecs, _retried = _unitary_eig(walk.grid_eval(m))
    left = vecs.conj().swapaxes(1, 2)
    linked = _linked(evals, DEGENERACY_TOL)  # [k, i, j]: i and j share a cluster
    label = np.argmax(linked, axis=2)  # smallest index in each cluster
    shifts = walk.shifts
    derivative = circle_values(1j * shifts[:, None, None] * walk.coeffs, shifts, m)
    slope = np.einsum("kij,kji->ki", left, derivative @ vecs) / (1j * evals)

    degrees = [b.d for b in system.bands]
    slot_values = np.concatenate(
        [b.samples.reshape(b.d, m).T for b in system.bands], axis=1
    )  # (M, slots): slot (j, i) holds band j's value at covering index k + i*M
    slot_band = np.repeat(np.arange(len(degrees)), degrees)
    dist = np.abs(slot_values[:, :, None] - evals[:, None, :])
    nearest = np.argmin(dist, axis=2)
    if np.any(np.min(dist, axis=2) > max(10 * DEGENERACY_TOL, 1e-6)):
        raise ResolutionError(
            "tracked band value does not match the spectrum; "
            "system and walk are out of sync"
        )
    slot_cluster = np.take_along_axis(label, nearest, axis=1)
    count = np.sum(slot_cluster[:, :, None] == np.arange(n), axis=1)  # slots per cluster
    if np.any(np.take_along_axis(count, label, axis=1) == 0):
        raise ResolutionError("eigenvalue cluster not covered by any band")
    same_cluster = slot_cluster[:, :, None] == slot_cluster[:, None, :]
    if np.any(same_cluster & (slot_band[:, None] != slot_band[None, :])):
        raise ResolutionError(
            "eigenvalue cluster ambiguous: distinct bands collide at a "
            "grid point within the clustering tolerance"
        )
    slot_count = np.take_along_axis(count, slot_cluster, axis=1)
    velocity = np.take_along_axis(slope.real, nearest, axis=1)
    # self-collisions: a cluster holding several slots holds only one band's
    collisions = {(k, slot_cluster[k, s]) for k, s in zip(*np.nonzero(slot_count > 1))}
    for k, c in collisions:
        members = np.flatnonzero(label[k] == c)
        block = left[k, members] @ derivative[k] @ vecs[k][:, members]
        block /= 1j * evals[k, members, None]
        cluster_slopes = np.linalg.eigh((block + block.conj().T) / 2)[0]  # ascending
        slots = np.flatnonzero(slot_cluster[k] == c)
        mult = system.bands[slot_band[slots[0]]].multiplicity
        # slot (M-1, i) continues as (0, i+1), so the seam looks back instead
        beside = k + 1 if k < m - 1 else k - 1
        order = np.argsort(velocity[beside, slots])
        velocity[k, slots[order]] = cluster_slopes[::mult]
    velocity.flags.writeable = False
    frame = _Frame(
        walk, left, linked, slot_cluster, slot_count, velocity, np.cumsum(degrees)[:-1]
    )
    object.__setattr__(system, "_frame", frame)
    return frame
