import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zqwalk
from zqwalk import (
    Band,
    DomainError,
    EigenSystem,
    StateVector,
    SymbolMatrix,
    band_projections,
    build_model_walk,
    coined_walk,
    compose,
    evolve,
    grover_walk_3,
    interleave_channels,
    limit_measure,
    limit_moments,
    position_distribution,
    refine_system,
    track_bands,
)
from support import compared_moments, random_constant_unitary, random_unimodular_spec

R = 2**-0.5


def refined(walk, grid=1024):
    return refine_system(track_bands(walk, grid))


# -- group velocities ----------------------------------------------------------


def velocities(walk, system):
    xi_hat = StateVector.delta(0, 1, walk.n).fourier_samples(system.base_grid)
    return band_projections(walk, system, xi_hat)[1]


def covering_velocity(band, v):
    """d arg/dphi on the covering circle, in covering-index order."""
    return band.d * v.T.ravel()


def test_velocity_of_pure_shift():
    walk = SymbolMatrix.shift(1)
    v = velocities(walk, refined(walk, 64))
    assert np.max(np.abs(v[0] - 1.0)) < 1e-12


def test_velocity_of_constant_band():
    walk = SymbolMatrix.identity(2)
    v = velocities(walk, refined(walk, 64))
    assert np.max(np.abs(v[0])) < 1e-12


def test_velocity_coined_closed_form(tracked_corpus):
    system = tracked_corpus["coined"]
    theta = 2.0 * np.pi * np.arange(system.base_grid) / system.base_grid
    want = (R * np.sin(theta) / np.sqrt(1.0 - R * R * np.cos(theta) ** 2))[:, None]
    v = velocities(coined_walk(), system)
    errs = [
        min(float(np.max(np.abs(vj - want))), float(np.max(np.abs(vj + want))))
        for vj in v
    ]
    assert max(errs) < 1e-9


def test_velocity_matches_central_differences_coined():
    # second-order stencil truncation scales as (2*pi/M)^2, so the 1e-6
    # cross-check tolerance needs the finer grid
    walk = coined_walk()
    system = refined(walk, 4096)
    for band, v in zip(system.bands, velocities(walk, system), strict=True):
        count = len(band.samples)
        step = 2.0 * np.pi / count
        arg = np.unwrap(np.angle(band.samples))
        periodic = arg - band.winding * 2.0 * np.pi * np.arange(count) / count
        central = (np.roll(periodic, -1) - np.roll(periodic, 1)) / (2.0 * step)
        h = covering_velocity(band, v)
        assert np.max(np.abs(h - central - band.winding)) < 1e-6


def test_velocity_matches_finite_differences(tracked_corpus):
    # fourth-order stencil on the periodic part of the argument
    system = tracked_corpus["grover3"]
    for band, v in zip(system.bands, velocities(grover_walk_3(), system), strict=True):
        count = len(band.samples)
        step = 2.0 * np.pi / count
        arg = np.unwrap(np.angle(band.samples))
        periodic = arg - band.winding * 2.0 * np.pi * np.arange(count) / count
        stencil = (
            -np.roll(periodic, -2)
            + 8 * np.roll(periodic, -1)
            - 8 * np.roll(periodic, 1)
            + np.roll(periodic, 2)
        ) / (12.0 * step)
        h = covering_velocity(band, v)
        assert np.max(np.abs(h - stencil - band.winding)) < 1e-8


# -- limit measures --------------------------------------------------------------


def test_shift_gives_unit_atom():
    walk = SymbolMatrix.shift(1)
    mu = limit_measure(walk, StateVector.delta(0, 1, 1), refined(walk, 64))
    assert mu.atoms == ((1.0, 1.0),)
    assert mu.total_mass == pytest.approx(1.0, abs=1e-12)


def test_coined_measure_support_and_mass(tracked_corpus):
    walk = coined_walk()
    mu = limit_measure(walk, StateVector.delta(0, 1, 2), tracked_corpus["coined"])
    assert mu.atoms == ()
    assert mu.total_mass == pytest.approx(1.0, abs=1e-6)
    assert mu.max_support() <= R + 1e-9


def test_coined_moments_match_closed_form_to_roundoff(tracked_corpus):
    # from delta_0 x e_1 the coined limit has m1 = -(1 - 1/sqrt2) and
    # m2 = 1 - 1/sqrt2; the grid sums over the samples are spectrally accurate
    xi = StateVector.delta(0, 1, 2)
    mu = limit_measure(coined_walk(), xi, tracked_corpus["coined"])
    assert abs(limit_moments(mu, 1) + (1.0 - R)) <= 1e-12
    assert abs(limit_moments(mu, 2) - (1.0 - R)) <= 1e-12
    assert abs(limit_moments(mu, 0) - mu.total_mass) <= 1e-15


def test_grover_localization_atom(tracked_corpus):
    walk = grover_walk_3()
    xi = StateVector.from_channel_vector(0, [0.0, 1.0, 0.0])
    mu = limit_measure(walk, xi, tracked_corpus["grover3"])
    assert len(mu.atoms) == 1
    location, mass = mu.atoms[0]
    assert location == 0.0
    # closed form: average of (1+cos)/(5+cos) over the circle is 1 - 2/sqrt(6)
    assert mass == pytest.approx(1.0 - 2.0 / np.sqrt(6.0), abs=1e-12)


@pytest.mark.parametrize("grid", [4096, 16384])
def test_grover_localization_atom_on_fine_grids(grid):
    # the flat band must stay an atom as the grid grows
    walk = grover_walk_3()
    xi = StateVector.from_channel_vector(0, [0.0, 1.0, 0.0])
    mu = limit_measure(walk, xi, refined(walk, grid))
    assert mu.atom_mass(0.0) == pytest.approx(1.0 - 2.0 / np.sqrt(6.0), abs=1e-8)


def test_hand_built_flat_band_takes_its_winding_from_its_samples():
    # a band computes its winding, so a hand-built grover3 system cannot put
    # the localization atom anywhere but at velocity 0
    walk = grover_walk_3()
    tracked = refined(walk, 256)
    flat, loop = tracked.bands
    with pytest.raises(TypeError):
        Band(1, flat.samples, 1)
    system = EigenSystem((loop, Band(1, flat.samples)), 3, 256)
    assert system == tracked and system.bands[0].winding == 0
    xi = StateVector.from_channel_vector(0, [0.0, 1.0, 0.0])
    mu = limit_measure(walk, xi, system)
    assert mu.atoms == limit_measure(walk, xi, tracked).atoms
    assert [x for x, _mass in mu.atoms] == [0.0]


def test_measure_rejects_non_unit_vector(tracked_corpus):
    heavy = StateVector({(0, 1): 2.0}, 2)
    with pytest.raises(DomainError):
        limit_measure(coined_walk(), heavy, tracked_corpus["coined"])


@pytest.mark.parametrize("name", ["coined", "modified", "grover3"])
def test_measure_of_far_delta_matches_origin(corpus, tracked_corpus, name):
    walk, system = corpus[name], tracked_corpus[name]
    channel = 2 if walk.n == 3 else 1
    origin = limit_measure(walk, StateVector.delta(0, channel, walk.n), system)
    for site in (10**12, 2**53, -(2**53)):
        far = limit_measure(walk, StateVector.delta(site, channel, walk.n), system)
        assert len(far.atoms) == len(origin.atoms), site
        for (x, mass), (x0, mass0) in zip(far.atoms, origin.atoms):
            assert x == x0 and abs(mass - mass0) <= 1e-13, site
        for m in range(1, 5):
            assert abs(limit_moments(far, m) - limit_moments(origin, m)) <= 1e-13, (site, m)


# -- moments -----------------------------------------------------------------------


def test_atom_moments():
    from zqwalk.limit import LimitMeasure

    mu = LimitMeasure(((1.0, 1.0),), (), ())
    assert limit_moments(mu, 3) == 1.0
    assert limit_moments(mu, 0) == 1.0


def test_symmetric_initial_state_centers_measure(tracked_corpus):
    xi = StateVector({(0, 1): R, (0, 2): R * 1j}, 2)
    mu = limit_measure(coined_walk(), xi, tracked_corpus["coined"])
    assert abs(limit_moments(mu, 1)) < 1e-6


def test_compare_shift_walk_is_exact():
    walk = SymbolMatrix.shift(1)
    system = refined(walk, 64)
    rows = compared_moments(walk, StateVector.delta(0, 1, 1), system, [5, 50], 2)
    assert all(row.deviation < 1e-12 for row in rows)


def test_compare_coined_decreasing(tracked_corpus):
    rows = compared_moments(
        coined_walk(),
        StateVector.delta(0, 1, 2),
        tracked_corpus["coined"],
        [50, 200],
        2,
    )
    by_t = {(row.t, row.m): row.deviation for row in rows}
    assert by_t[(200, 1)] < by_t[(50, 1)]


# -- invariances ---------------------------------------------------------------------


def test_conjugation_leaves_moments(rng, tracked_corpus):
    walk = grover_walk_3()
    xi = StateVector.from_channel_vector(0, [0.0, 1.0, 0.0])
    mu = limit_measure(walk, xi, tracked_corpus["grover3"])
    v = random_constant_unitary(rng, 3)
    conj_walk = compose(
        SymbolMatrix.from_constant(v),
        compose(walk, SymbolMatrix.from_constant(v.conj().T)),
    )
    conj_xi = StateVector.from_channel_vector(0, v @ np.array([0.0, 1.0, 0.0]))
    conj_mu = limit_measure(conj_walk, conj_xi, refined(conj_walk))
    for m in range(1, 5):
        assert limit_moments(mu, m) == pytest.approx(
            limit_moments(conj_mu, m), abs=1e-6
        )


def test_model_walk_pushforward_consistency(rng):
    spec = random_unimodular_spec(rng, 2, winding=1)
    walk_d = build_model_walk(spec)
    walk_1 = build_model_walk(type(spec)(1, spec.lambda_coeffs))
    xi = StateVector({(0, 1): R, (0, 2): R}, 2)
    mu_d = limit_measure(walk_d, xi, refined(walk_d, 512))
    mu_1 = limit_measure(walk_1, interleave_channels(xi), refined(walk_1, 1024))
    for m in range(1, 5):
        scaled = limit_moments(mu_1, m) / 2**m
        assert limit_moments(mu_d, m) == pytest.approx(scaled, abs=1e-6)


def test_empirical_support_concentrates(tracked_corpus):
    walk = coined_walk()
    xi = StateVector.delta(0, 1, 2)
    dist = position_distribution(evolve(walk, xi, 400), time=400)
    assert dist.mass_outside((R + 0.05) * 400) < 0.02


def test_cdf_distance_diagnostic(tracked_corpus):
    from zqwalk import cdf_distance

    walk = coined_walk()
    xi = StateVector.delta(0, 1, 2)
    mu = limit_measure(walk, xi, tracked_corpus["coined"])
    dists = {}
    for t in (50, 400):
        dist = position_distribution(evolve(walk, xi, t), time=t)
        dists[t] = cdf_distance(mu, dist, t)
    assert 0 < dists[400] < dists[50] < 0.5


def test_cdf_distance_hand_example():
    from zqwalk import LimitMeasure, PositionDistribution, cdf_distance

    mu = LimitMeasure(((0.0, 0.5),), (0.5, 1.0), (0.25, 0.25))
    dist = PositionDistribution({-1: 0.25, 0: 0.25, 2: 0.5}, time=2)
    # grid -0.5, 0, 0.5, 1: limit CDF 0, 0.5, 0.75, 1; empirical 0.25, 0.5, 0.5, 1
    assert cdf_distance(mu, dist, 2) == pytest.approx(0.25, abs=1e-15)
    assert cdf_distance(mu, PositionDistribution({}), 2) == pytest.approx(1.0)


def _loop_cdf_distance(measure, dist, t):
    """Reference: merge the two sorted (location, mass) lists by hand."""
    points = sorted(list(measure.atoms) + list(zip(measure.velocities, measure.masses)))
    emp = sorted((s / t, p) for s, p in dist.probs.items())
    worst = ci = cj = 0.0
    i = j = 0
    for x in sorted({x for x, _ in points} | {x for x, _ in emp}):
        while i < len(points) and points[i][0] <= x:
            ci += points[i][1]
            i += 1
        while j < len(emp) and emp[j][0] <= x:
            cj += emp[j][1]
            j += 1
        worst = max(worst, abs(ci - cj))
    return worst


def test_cdf_distance_ties_match_loop_reference():
    from zqwalk import LimitMeasure, PositionDistribution, cdf_distance

    cases = {
        "atom at a sample's velocity": (
            LimitMeasure(((0.5, 0.25),), (0.5, -0.25, 1.0), (0.25, 0.25, 0.25)),
            {-1: 0.25, 2: 0.75}, 4, 0.25),
        "repeated velocities": (
            LimitMeasure((), (0.25, -0.5, 0.25, 0.25, -0.5), (0.1, 0.2, 0.3, 0.15, 0.25)),
            {-2: 0.25, 0: 0.5, 2: 0.25}, 4, 0.3),
        "sites on locations": (
            LimitMeasure(((0.0, 0.5),), (-0.5, 0.25, 0.75), (0.2, 0.1, 0.2)),
            {-2: 0.3, 0: 0.4, 1: 0.1, 3: 0.2}, 4, 0.1),
        "empty distribution": (
            LimitMeasure(((0.0, 0.5),), (-0.5, 0.5), (0.25, 0.25)), {}, 3, 1.0),
        "atoms only": (
            LimitMeasure(((-0.5, 0.25), (1 / 3, 0.75)), (), ()),
            {-1: 0.25, 1: 0.5, 2: 0.25}, 3, 0.25),
    }
    # each want is the sup over whole groups of equal points; read inside a
    # group, after the limit's mass but before the sites', every case but the
    # empty one would give more
    for name, (mu, probs, t, want) in cases.items():
        dist = PositionDistribution(probs, time=t)
        got = cdf_distance(mu, dist, t)
        assert abs(got - _loop_cdf_distance(mu, dist, t)) <= 1e-14, name
        assert got == pytest.approx(want, abs=1e-15), name
    # many ties: velocities, atoms and rescaled sites all on multiples of 1/8
    rng = np.random.default_rng(35)
    for _ in range(20):
        atoms = tuple((k / 8, 0.05) for k in rng.choice(np.arange(-8, 9), 3, replace=False))
        velocities = rng.integers(-8, 9, size=40) / 8
        masses = np.full(40, 0.85 / 40)
        sites = rng.integers(-16, 17, size=30)
        probs = {int(s): float(p) for s, p in zip(sites, rng.uniform(size=30))}
        total = sum(probs.values())
        dist = PositionDistribution({s: p / total for s, p in probs.items()}, time=16)
        mu = LimitMeasure(atoms, velocities, masses)
        assert abs(cdf_distance(mu, dist, 16) - _loop_cdf_distance(mu, dist, 16)) <= 1e-14


@pytest.mark.parametrize("name", ["coined", "grover3"])
def test_limit_moments_match_loop_reference(corpus, tracked_corpus, name):
    walk = corpus[name]
    mu = limit_measure(walk, StateVector.delta(0, 1, walk.n), tracked_corpus[name])
    assert mu.velocities.min() < 0  # odd powers of negative velocities included
    samples = list(zip(mu.velocities.tolist(), mu.masses.tolist()))
    for m in range(9):
        want = sum(mass * x**m for x, mass in [*mu.atoms, *samples])
        assert abs(limit_moments(mu, m) - want) <= 1e-14, m
    with pytest.raises(DomainError, match="nonnegative"):
        limit_moments(mu, -1)


def test_cdf_distance_loads_no_numpy_ma():
    # np.union1d imports numpy.ma on its first call, a module load in every fresh process
    src = Path(zqwalk.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from zqwalk import LimitMeasure, PositionDistribution, cdf_distance\n"
        "mu = LimitMeasure(((0.0, 0.5),), (0.5, 1.0), (0.25, 0.25))\n"
        "print(cdf_distance(mu, PositionDistribution({-1: 0.25, 0: 0.25, 2: 0.5}), 2),"
        " 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["0.25", "False"]


@pytest.mark.parametrize("name", ["coined", "grover3"])
def test_cdf_distance_matches_loop_reference(tracked_corpus, name):
    from zqwalk import cdf_distance

    walk = grover_walk_3() if name == "grover3" else coined_walk()
    xi = StateVector.delta(0, 1, walk.n)
    mu = limit_measure(walk, xi, tracked_corpus[name])
    for t in (7, 400):
        dist = position_distribution(evolve(walk, xi, t), time=t)
        assert abs(cdf_distance(mu, dist, t) - _loop_cdf_distance(mu, dist, t)) <= 1e-14


def test_coined_density_matches_arcsine_type_law(tracked_corpus):
    # independent closed form: the rescaled coined walk started at delta_0 x e_1
    # converges to density (1 - x) / (pi (1 - x^2) sqrt(1 - 2 x^2)) on |x| < r
    from scipy.integrate import quad

    mu = limit_measure(coined_walk(), StateVector.delta(0, 1, 2), tracked_corpus["coined"])
    xs, ms = mu.histogram()
    width = xs[1] - xs[0]

    def density(x):
        return (1.0 - x) / (np.pi * (1.0 - x * x) * np.sqrt(1.0 - 2.0 * x * x))

    cumulative = np.cumsum(ms)
    interior = np.abs(xs) < R - 0.02
    for x, got in zip(xs[interior], cumulative[interior]):
        want, _err = quad(density, -R + 1e-12, x + width / 2, points=[0], limit=200)
        assert abs(got - want) < 1e-3, x


def test_compare_grover_at_long_horizon(tracked_corpus):
    rows = compared_moments(
        grover_walk_3(),
        StateVector.from_channel_vector(0, [0.0, 1.0, 0.0]),
        tracked_corpus["grover3"],
        [1600],
        2,
    )
    deviation = next(r.deviation for r in rows if r.m == 2)
    assert deviation < 0.02
