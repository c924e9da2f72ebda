"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from zqwalk import (
    Band,
    DomainError,
    EigenSystem,
    LaurentPoly,
    ModelWalkSpec,
    ResolutionError,
    StateVector,
    SymbolMatrix,
    apply_walk,
    build_model_walk,
    char_poly,
    coined_lambda,
    coined_walk,
    compare_moments,
    compose,
    direct_sum,
    evolve,
    lambda_coeffs_from_samples,
    limit_measure,
    modified_coined_walk,
    track_bands,
)
from zqwalk import io as zio
from zqwalk.circle import alias_free_grid, circle_values, rotation_distance
from zqwalk.laurent import stack_terms
from zqwalk.simulate import _settle
from zqwalk.spectral import (
    DEFAULT_TOL,
    DEGENERACY_TOL,
    _best_separated_point,
    _canonical_rotation,
)

SAMPLE_GRID = 4096
SPECTRAL_TAIL = 1e-8


def trig_phase_samples(
    rng: np.random.Generator,
    winding: int = 0,
    harmonics: int = 3,
    amplitude: float = 0.6,
    grid: int = SAMPLE_GRID,
) -> np.ndarray:
    """Unimodular circle samples exp(i(w*theta + random trig polynomial))."""
    theta = 2.0 * np.pi * np.arange(grid) / grid
    h = np.zeros(grid)
    for f in range(1, harmonics + 1):
        a, b = rng.uniform(-amplitude, amplitude, size=2) / f
        h += a * np.cos(f * theta) + b * np.sin(f * theta)
    return np.exp(1j * (winding * theta + h))


def random_unimodular_spec(
    rng: np.random.Generator, d: int, winding: int = 0, harmonics: int = 3
) -> ModelWalkSpec:
    """A d-channel model spec whose eigenvalue function is unimodular to ~1e-11.

    The coefficients come from a random trigonometric phase, truncated at the
    standard 1e-12 threshold, so they are finitely supported and the built
    walk passes the unitarity check.
    """
    samples = trig_phase_samples(rng, winding=winding, harmonics=harmonics)
    return ModelWalkSpec(d, lambda_coeffs_from_samples(samples))


def is_rotation_symmetric(coeffs: LaurentPoly, d: int, tol: float = 0.05) -> bool:
    """Whether lambda repeats under some rotation by a d-th root of unity."""
    theta = 2.0 * np.pi * np.arange(512) / 512
    z = np.exp(1j * theta)
    base = coeffs(z)
    for c in range(1, d):
        rotated = coeffs(np.exp(2j * np.pi * c / d) * z)
        if float(np.max(np.abs(base - rotated))) < tol:
            return True
    return False


def random_local_state(
    rng: np.random.Generator, n: int, radius: int = 3
) -> StateVector:
    """Normalized random vector supported on |site| <= radius."""
    amps = {}
    for s in range(-radius, radius + 1):
        for k in range(1, n + 1):
            amps[(s, k)] = complex(rng.normal(), rng.normal())
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return StateVector({key: a / norm for key, a in amps.items()}, n)


def random_constant_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_coined_sum(seed: int) -> SymbolMatrix:
    """coined + coined conjugated by the seeded constant unitary V: V U(z) V^H.

    The direct sum is exactly degenerate at every z, so any V leaves the
    spectrum unchanged while mixing the vectors inside each double eigenspace.
    """
    v = random_constant_unitary(np.random.default_rng(seed), 4)
    walk = direct_sum(coined_walk(), coined_walk())
    return compose(
        SymbolMatrix.from_constant(v),
        compose(walk, SymbolMatrix.from_constant(v.conj().T)),
    )


def coupled_coined_sum(eps: float) -> SymbolMatrix:
    """coined + coined coupled by exp(i eps K), K a seeded Hermitian 4 x 4 matrix.

    Each double eigenvalue of the direct sum splits by about eps, so the two
    copies of each band meet in avoided crossings of width about eps.
    """
    rng = np.random.default_rng(3100)
    k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h, v = np.linalg.eigh(k + k.conj().T)
    coupling = SymbolMatrix.from_constant((v * np.exp(1j * eps * h)) @ v.conj().T)
    return compose(coupling, direct_sum(coined_walk(), coined_walk()))


def random_split_step_walk(
    rng: np.random.Generator, n: int, radius: int = 1
) -> SymbolMatrix:
    """`radius` layers of a random coin followed by a diagonal shift.

    Channel 1 moves right and channel n left in every layer; the other
    channels move by a random step in {-1, 0, 1}.
    """
    zero = LaurentPoly.zero()
    walk = SymbolMatrix.identity(n)
    for _ in range(radius):
        steps = rng.integers(-1, 2, size=n)
        steps[0], steps[-1] = 1, -1
        shift = SymbolMatrix(n, tuple(
            tuple(LaurentPoly.monomial(int(steps[i])) if i == j else zero for j in range(n))
            for i in range(n)
        ))
        coin = SymbolMatrix.from_constant(random_constant_unitary(rng, n))
        walk = compose(shift, compose(coin, walk))
    return walk


def pinned_walks(fixtures: Path) -> dict:
    """name -> (walk, fixture name or None): the walks whose JSON the suite pins.

    A fixture file is its walk's own golden; the others are pinned by digest.
    """
    walks = {"modified_coined_walk": (modified_coined_walk(), "modified_hadamard")}
    for name in ("hadamard", "modified_hadamard", "grover3"):
        walks[name] = (zio.parse_spec((fixtures / f"{name}.json").read_text()), name)
    spec = zio.parse_spec((fixtures / "shift1_model.json").read_text())
    walks["shift1_model"] = (build_model_walk(spec), None)
    for n in range(2, 9):
        walk = random_split_step_walk(np.random.default_rng(300 + n), n, 1 + n % 3)
        walks[f"split_step_n{n}"] = (walk, None)
    for d in range(1, 5):
        spec = random_unimodular_spec(np.random.default_rng(400 + d), d, winding=d % 3 - 1)
        walks[f"model_d{d}"] = (build_model_walk(spec), None)
    walks["conjugated_coined_sum_5"] = (conjugated_coined_sum(5), None)
    walks["coined_plus_modified"] = (
        direct_sum(coined_walk(), modified_coined_walk()), None
    )
    return walks


def random_symbol(rng: np.random.Generator, n: int, radius: int = 3) -> SymbolMatrix:
    """Generic n x n symbol: each entry a random subset of shifts in [-radius, radius].

    About one entry in four is zero; coefficients are complex Gaussians.
    """
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            shifts = rng.choice(np.arange(-radius, radius + 1), size=rng.integers(0, 4))
            if rng.uniform() < 0.25:
                shifts = shifts[:0]
            row.append(LaurentPoly({
                int(s): complex(rng.normal(), rng.normal()) for s in shifts
            }))
        rows.append(tuple(row))
    return SymbolMatrix(n, tuple(rows))


# -- entrywise Laurent algebra, the reference for the array operations ---------
# Exact coefficient arithmetic on {shift: coefficient} dictionaries, each
# result pruned to canonical form as it is made.


def poly_terms(poly: LaurentPoly) -> dict[int, complex]:
    """{shift: coefficient} of a LaurentPoly, in increasing shift order."""
    return dict(zip(poly.shifts.tolist(), poly.coeffs.tolist()))


def poly_sum(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out = poly_terms(p)
    for s, c in poly_terms(q).items():
        out[s] = out.get(s, 0.0) + c
    return LaurentPoly(out)


def poly_product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out: dict[int, complex] = {}
    for s1, c1 in poly_terms(p).items():
        for s2, c2 in poly_terms(q).items():
            out[s1 + s2] = out.get(s1 + s2, 0.0) + c1 * c2
    return LaurentPoly(out)


def poly_conj_reflect(p: LaurentPoly) -> LaurentPoly:
    """The adjoint of convolution by p: the coefficient at s becomes conj(p_{-s})."""
    return LaurentPoly({-s: c.conjugate() for s, c in poly_terms(p).items()})


def entrywise_compose(w1: SymbolMatrix, w2: SymbolMatrix) -> SymbolMatrix:
    """Matrix product with exact Laurent-coefficient arithmetic."""
    if w1.n != w2.n:
        raise DomainError(f"dimension mismatch: {w1.n} vs {w2.n}")
    n = w1.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPoly.zero()
            for k in range(n):
                acc = poly_sum(acc, poly_product(w1.entries[i][k], w2.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return SymbolMatrix(n, tuple(rows))


def entrywise_adjoint(walk: SymbolMatrix) -> SymbolMatrix:
    """Conjugate transpose; each entry's coefficients are conjugate-reflected."""
    n = walk.n
    return SymbolMatrix(n, tuple(
        tuple(poly_conj_reflect(walk.entries[j][i]) for j in range(n)) for i in range(n)
    ))


def entrywise_direct_sum(*walks: SymbolMatrix) -> SymbolMatrix:
    """Block-diagonal sum of symbols."""
    if not walks:
        raise DomainError("need at least one summand")
    n = sum(w.n for w in walks)
    zero = LaurentPoly.zero()
    rows = [[zero] * n for _ in range(n)]
    offset = 0
    for w in walks:
        for i in range(w.n):
            for j in range(w.n):
                rows[offset + i][offset + j] = w.entries[i][j]
        offset += w.n
    return SymbolMatrix(n, tuple(tuple(r) for r in rows))


def entrywise_power(walk: SymbolMatrix, t: int) -> SymbolMatrix:
    """walk composed with itself t times, one entrywise product at a time."""
    result = SymbolMatrix.identity(walk.n)
    for _ in range(t):
        result = entrywise_compose(result, walk)
    return result


def composed_power(walk: SymbolMatrix, t: int) -> SymbolMatrix:
    """Repeated squaring that composes every set bit's power onto the identity."""
    result = SymbolMatrix.identity(walk.n)
    base = walk
    while t:
        if t & 1:
            result = compose(result, base)
        base = compose(base, base) if t > 1 else base
        t >>= 1
    return result


def recorded_grid_evals(monkeypatch) -> list:
    """(walk, grid size) of every SymbolMatrix.grid_eval call from now on."""
    calls = []
    grid_eval = SymbolMatrix.grid_eval

    def recorded(walk, grid_size):
        calls.append((walk, grid_size))
        return grid_eval(walk, grid_size)

    monkeypatch.setattr(SymbolMatrix, "grid_eval", recorded)
    return calls


def horner_cayley_hamilton(walk: SymbolMatrix, grid_size: int = 256) -> float:
    """Max Frobenius norm of f(U(z); z) on the grid of verify_cayley_hamilton, by
    n + 1 Horner steps acc -> acc U + c_k I in the matrix argument."""
    f = char_poly(walk)
    grid_size = alias_free_grid(grid_size, 2 * walk.n * walk.propagation_radius)
    u = walk.grid_eval(grid_size)
    shifts, stack = stack_terms(f.coeffs)
    samples = circle_values(stack, shifts, grid_size)
    acc = np.zeros_like(u)
    for k in reversed(range(f.degree + 1)):
        acc = acc @ u + samples[:, k, None, None] * np.eye(walk.n)
    return float(np.max(np.linalg.norm(acc, axis=(1, 2))))


def rebuilt_rearrangement_check(spec: ModelWalkSpec, test_vectors: list[StateVector]) -> float:
    """rearrangement_check with both walks built afresh by build_model_walk and
    every interleaved state sorted again by _settle."""
    walk_d = build_model_walk(ModelWalkSpec(spec.d, spec.lambda_coeffs))
    walk_1 = build_model_walk(ModelWalkSpec(1, spec.lambda_coeffs))
    worst = 0.0
    for xi in test_vectors:
        direct = apply_walk(walk_d, xi)
        line = apply_walk(
            walk_1, _settle(xi.channels + xi.n * xi.sites, np.ones_like(xi.channels), xi.values, 1)
        )
        k = (line.sites - 1) % spec.d + 1
        rearranged = _settle((line.sites - k) // spec.d, k, line.values, spec.d)
        worst = max(worst, direct.distance(rearranged))
    return worst


# -- dictionary stepping, the reference for the array apply_walk ---------------------


def dict_apply_walk(walk: SymbolMatrix, xi: StateVector) -> StateVector:
    """One exact convolution step, accumulated in a (site, channel) dictionary."""
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


# -- tracking references ------------------------------------------------------------


def match_band_sets(
    left: list[Band], right: list[Band], base_grid: int, tol: float
) -> bool:
    """Exact bipartite matching of bands by (d, multiplicity, rotation distance)."""
    if len(left) != len(right):
        return False
    if not left:
        return True
    band = left[0]
    for idx, other in enumerate(right):
        if other.d != band.d or other.multiplicity != band.multiplicity:
            continue
        if rotation_distance(band.samples, other.samples, base_grid) >= tol:
            continue
        if match_band_sets(left[1:], right[:idx] + right[idx + 1 :], base_grid, tol):
            return True
    return False


def subsample_system(system: EigenSystem, coarse: int) -> EigenSystem:
    step = system.base_grid // coarse
    if step == 1:
        return system
    bands = tuple(
        Band(b.d, b.samples[::step], multiplicity=b.multiplicity) for b in system.bands
    )
    return EigenSystem(bands, system.n, coarse)


def tracked_conjugacy(w1: SymbolMatrix, w2: SymbolMatrix, base_grid: int = 1024) -> bool:
    """Oracle for `zqwalk.are_conjugate`: track both walks and match their bands.

    Systems are compared band by band on the coarser of the two grids,
    matching covering degree and multiplicity, with sample loops compared up
    to rotation of the covering argument by roots of unity.
    """
    if w1.n != w2.n:
        return False
    sys1, sys2 = track_bands(w1, base_grid), track_bands(w2, base_grid)
    coarse = min(sys1.base_grid, sys2.base_grid)
    sys1, sys2 = subsample_system(sys1, coarse), subsample_system(sys2, coarse)
    return match_band_sets(list(sys1.bands), list(sys2.bands), coarse, DEFAULT_TOL)


def assignment_track_cycles(vals: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Reference for the branch matcher of `zqwalk.track_bands`: one assignment per point.

    Walks the (M, n) eigenvalue lists from the best separated point and
    matches each point to the next by a minimum-total-distance assignment on
    linearly extrapolated values (raw values on the first step); returns the
    (d, samples) cycles of the composed permutation.
    """
    grid, n = vals.shape
    kstar = _best_separated_point(vals)
    start = vals[kstar]
    order0 = np.lexsort((start.imag, start.real, np.angle(start)))
    path_vals = np.zeros((n, grid + 1), dtype=complex)
    path_vals[:, 0] = start[order0]
    cur = path_vals[:, 0].copy()
    prev = None
    col = order0.copy()
    for j in range(1, grid + 1):
        target = vals[(kstar + j) % grid]
        predicted = cur if prev is None else 2.0 * cur - prev
        cost = np.abs(predicted[:, None] - target[None, :])
        _rows, col = linear_sum_assignment(cost)
        prev = cur
        cur = target[col]
        path_vals[:, j] = cur
    inv = np.empty(n, dtype=int)
    inv[order0] = np.arange(n)
    pi = inv[col]  # branch b continues as branch pi[b] after one loop

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
        seq = np.concatenate([path_vals[b, :grid] for b in cycle])
        samples = np.roll(seq, kstar)  # covering index 0 <-> base point z = 1
        cycles.append((len(cycle), _canonical_rotation(samples, grid)))
    return cycles


FINE_GRID = 32768  # the ROADMAP "State" rows and walks tracked at 8192 or finer
CORPUS_GRID = 8192
_FINE_PASSES: dict = {}


def fine_pass_system(walk: SymbolMatrix, grid: int) -> EigenSystem:
    """Reference for `zqwalk.track_bands`: one pass at a fine grid, no certificate.

    The eigenvalues of every grid point come from LAPACK's general eigvals and
    are matched point by point by `assignment_track_cycles`; no step bound,
    crossing search or doubling is involved.  Passes are kept per symbol and
    grid for the session.
    """
    key = (walk.shifts.tobytes(), walk.coeffs.tobytes(), grid)
    if key not in _FINE_PASSES:
        vals = np.linalg.eigvals(walk.grid_eval(grid))
        cycles = tuple(Band(d, s) for d, s in assignment_track_cycles(vals))
        _FINE_PASSES[key] = EigenSystem(cycles, walk.n, grid)
    return _FINE_PASSES[key]


def band_shape(system: EigenSystem) -> list[tuple[int, int, int]]:
    """(d, multiplicity, winding) of each band, in the system's order."""
    return [(b.d, b.multiplicity, b.winding) for b in system.bands]


def agrees_with_fine_pass(system: EigenSystem, walk: SymbolMatrix) -> bool:
    """The same (d, multiplicity, winding) bands as the fine pass of `walk`
    (at CORPUS_GRID, or FINE_GRID for a system tracked at CORPUS_GRID or
    finer), and band samples that match up to rotation on the system's grid:
    within 1e-12 (the two eigensolvers' roundoff) for a band of multiplicity
    one, within DEGENERACY_TOL for a merged band, which keeps one member of
    a DEGENERACY_TOL cluster."""
    fine = fine_pass_system(walk, FINE_GRID if system.base_grid >= CORPUS_GRID else CORPUS_GRID)
    if sorted(band_shape(system)) != sorted(band_shape(fine)):
        return False
    coarse = min(system.base_grid, fine.base_grid)
    left, right = subsample_system(system, coarse).bands, subsample_system(fine, coarse).bands
    return all(
        match_band_sets(
            [b for b in left if (b.multiplicity == 1) == single],
            [b for b in right if (b.multiplicity == 1) == single],
            coarse,
            1e-12 if single else DEGENERACY_TOL,
        )
        for single in (True, False)
    )


def cluster_indices(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage clusters of complex values at tolerance tol."""
    m = len(values)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) < tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx) for idx in groups.values()]


def schur_band_projections(
    walk: SymbolMatrix,
    system: EigenSystem,
    xi_hat: np.ndarray,
    cluster_tol: float = 1e-8,
) -> list[np.ndarray]:
    """Reference for `zqwalk.band_projections`: one complex Schur form per grid point.

    Eigenspace weights of xi_hat, per band and covering point over each z.

    Returns one (M, d_j) array per band: entry [k, i] is the squared norm of
    the projection of xi_hat(z_k) onto the eigenspace of the tracked value at
    covering index k + i*M.  Where several covering points of one band fall
    into a single degenerate cluster (an isolated self-collision), the cluster
    weight is split evenly among them, so the weights at each z always resolve
    the identity.  Clusters mixing distinct bands are an error.
    """
    m = system.base_grid
    xi_hat = np.asarray(xi_hat, dtype=complex)
    if xi_hat.shape != (m, walk.n):
        raise DomainError(f"xi_hat must have shape ({m}, {walk.n})")
    symbols = walk.grid_eval(m)
    weights = [np.zeros((m, band.d)) for band in system.bands]
    for k in range(m):
        t_mat, z_mat = scipy.linalg.schur(symbols[k], output="complex")
        evals = np.diag(t_mat)
        clusters = cluster_indices(evals, cluster_tol)
        label = np.empty(len(evals), dtype=int)
        for cid, idx in enumerate(clusters):
            label[idx] = cid
        cluster_weight = np.empty(len(clusters))
        for cid, idx in enumerate(clusters):
            overlaps = np.conj(z_mat[:, idx]).T @ xi_hat[k]
            cluster_weight[cid] = float(np.sum(np.abs(overlaps) ** 2))
        # assign each tracked covering value to its cluster
        slots: dict[int, list[tuple[int, int]]] = {}
        for j, band in enumerate(system.bands):
            for i in range(band.d):
                value = band.samples[k + i * m]
                nearest = int(np.argmin(np.abs(evals - value)))
                if abs(evals[nearest] - value) > max(10 * cluster_tol, 1e-6):
                    raise ResolutionError(
                        "tracked band value does not match the spectrum; "
                        "system and walk are out of sync"
                    )
                slots.setdefault(int(label[nearest]), []).append((j, i))
        for cid in range(len(clusters)):
            members = slots.get(cid, [])
            if not members:
                raise ResolutionError("eigenvalue cluster not covered by any band")
            bands_here = {j for j, _i in members}
            if len(bands_here) > 1:
                raise ResolutionError(
                    "eigenvalue cluster ambiguous: distinct bands collide at a "
                    "grid point within the clustering tolerance"
                )
            share = cluster_weight[cid] / len(members)
            for j, i in members:
                weights[j][k, i] = share
    return weights


def _winding_free_argument(band: Band) -> np.ndarray:
    """Unwrapped argument of a band minus its winding ramp; periodic on the cover."""
    count = len(band.samples)
    phi = 2.0 * np.pi * np.arange(count) / count
    return np.unwrap(np.angle(band.samples)) - band.winding * phi


def fft_band_velocities(system: EigenSystem) -> list[np.ndarray]:
    """Reference for the velocities of `zqwalk.band_projections`: FFT derivative.

    Spectral derivative of the unwrapped argument of each band.  The winding
    term is removed before differentiating the periodic remainder with the FFT
    and added back as the constant it contributes.  An error is raised when the
    argument's spectral tail carries more than SPECTRAL_TAIL of the energy,
    which signals under-resolved (non-smooth) samples.  Returns one (M, d_j)
    array per band in base-circle units: entry [k, i] is h / d at covering
    index k + i*M.  Its roundoff grows like the square of the covering grid.
    """
    out = []
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
        h = (deriv + band.winding) / band.d
        out.append(h.reshape(band.d, system.base_grid).T)
    return out


# -- the moment comparison of `zqwalk compare` ---------------------------------------


def compared_moments(walk, xi, system, times, m_max):
    """Rescaled moments of walk^t xi for each t against the limit measure's."""
    measure = limit_measure(walk, xi, system)
    return compare_moments(measure, [(t, evolve(walk, xi, t)) for t in times], m_max)


# -- row-by-row CSV emitters, the reference for io's column writers ------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def loop_bands_csv(system: EigenSystem, stream) -> None:
    stream.write("band_index,covering_angle,re,im,arg\n")
    for j, band in enumerate(system.bands):
        count = len(band.samples)
        for m, value in enumerate(band.samples):
            angle = 2.0 * np.pi * m / count
            stream.write(
                f"{j},{_fmt(angle)},{_fmt(value.real)},{_fmt(value.imag)},"
                f"{_fmt(np.angle(value))}\n"
            )


def loop_distribution_csv(dist, stream, rescaled: bool = False) -> None:
    if rescaled:
        stream.write("x,prob\n")
        for s in sorted(dist.probs):
            stream.write(f"{_fmt(s / dist.time)},{_fmt(dist.probs[s])}\n")
    else:
        stream.write("site,prob\n")
        for s in sorted(dist.probs):
            stream.write(f"{s},{_fmt(dist.probs[s])}\n")


def loop_measure_csv(measure, stream) -> None:
    stream.write("kind,x,mass\n")
    for x, mass in measure.atoms:
        stream.write(f"atom,{_fmt(x)},{_fmt(mass)}\n")
    for x, mass in zip(*measure.histogram()):
        stream.write(f"bin,{_fmt(x)},{_fmt(mass)}\n")


def loop_comparison_csv(rows, stream) -> None:
    stream.write("t,m,empirical,limit,deviation\n")
    for row in rows:
        stream.write(
            f"{row.t},{row.m},{_fmt(row.empirical)},{_fmt(row.limit)},"
            f"{_fmt(row.deviation)}\n"
        )


def loop_generator_csv(band: Band, stream) -> None:
    count = len(band.samples)
    thetas = 2.0 * np.pi * np.arange(count) / count
    stream.write("theta,h\n")
    for theta, h in zip(thetas, np.unwrap(np.angle(band.samples))):
        stream.write(f"{_fmt(theta)},{_fmt(h)}\n")


# -- known-answer walks: closed-form bands, conjugated by conditional shifts -----------


def conditional_shift_conjugator(rng: np.random.Generator, n: int, layers: int = 2) -> tuple:
    """(V, V^-1) for V = V0 prod_k (I - P_k + z P_k): a seeded constant unitary
    V0 and rank-one projections P_k, so V^-1 = prod_k (I - P_k + P_k / z) V0^H
    in reverse order, both with exact coefficients."""
    v0 = random_constant_unitary(rng, n)
    v, inverse = SymbolMatrix.from_constant(v0), SymbolMatrix.from_constant(v0.conj().T)
    for _ in range(layers):
        u = random_constant_unitary(rng, n)[:, :1]
        p = u @ u.conj().T
        v = compose(v, SymbolMatrix.from_terms([0, 1], [np.eye(n) - p, p]))
        inverse = compose(SymbolMatrix.from_terms([-1, 0], [p, np.eye(n) - p]), inverse)
    return v, inverse


def phase_roots(f, grid: int = 1 << 12) -> list[float]:
    """Angles in [0, 2 pi) where the unimodular f(theta) passes 1: the sign
    changes of arg f on a uniform grid (not its jumps at pi), bisected."""
    lo = 2 * np.pi * np.arange(grid) / grid
    a, b = np.angle(f(lo)), np.angle(f(lo + 2 * np.pi / grid))
    lo = lo[(np.sign(a) != np.sign(b)) & (np.abs(a - b) < np.pi)]
    hi = lo + 2 * np.pi / grid
    for _ in range(60):
        mid = (lo + hi) / 2
        left = np.sign(np.angle(f(mid))) == np.sign(np.angle(f(lo)))
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return list(lo)


def known_answer_walks(seed: int = 19) -> dict:
    """name -> (walk, answer), each walk also conjugated by a seeded V
    ("_conj"), which keeps its char poly and so its answer: the sorted (d,
    multiplicity, winding) bands, the exact-crossing angles and the
    avoided-crossing widths.  Summands are coins coined_walk(r e^{i phi}, b),
    two winding-0 bands coined_lambda(theta + phi, r) that avoid each other
    by 2b, and shifts e^{i alpha} z^k; bands of different summands cross
    exactly where they meet."""
    rng = np.random.default_rng(seed)

    def coin(b):
        phi, r = rng.uniform(0, 2 * np.pi), np.sqrt(1 - b * b)
        bands = [lambda t, s=s: coined_lambda(t + phi, r, s) for s in (1, -1)]
        return coined_walk(r * np.exp(1j * phi), b), bands, [0, 0], [2 * b]

    def shift(k):
        alpha = rng.uniform(0, 2 * np.pi)
        walk = SymbolMatrix.from_terms([k], [[[np.exp(1j * alpha)]]])
        return walk, [lambda t: np.exp(1j * (alpha + k * t))], [k], []

    sums = {f"coin_{b:g}": [coin(b)] for b in (1e-1, 1e-3, 1e-5, 1e-7, 3e-9, 1e-10)}
    sums.update(shifts=[shift(1), shift(-1)], coin_shift=[coin(1e-3), shift(1)])
    sums["sum_n8"] = [coin(1e-2), coin(0.3), coin(0.5), shift(2), shift(-1)]
    out = {}
    for name, parts in sums.items():
        walk = direct_sum(*(part[0] for part in parts))
        crossings = np.sort([
            angle for i, j in itertools.combinations(range(len(parts)), 2)
            for f in parts[i][1] for g in parts[j][1]
            for angle in phase_roots(lambda t, f=f, g=g: f(t) / g(t))
        ])  # two coins meet in both bands at once: one angle
        answer = {"bands": sorted((1, 1, w) for part in parts for w in part[2]),
                  "crossings": list(crossings[np.diff(crossings, prepend=-1.0) > 1e-9]),
                  "avoided": [w for part in parts for w in part[3]]}
        v, inverse = conditional_shift_conjugator(rng, walk.n)
        out[name] = (walk, answer)
        out[f"{name}_conj"] = (compose(v, compose(walk, inverse)), answer)
    return out
