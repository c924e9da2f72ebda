import math
import tracemalloc
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqwalk import (
    DomainError,
    PositionDistribution,
    StateVector,
    SymbolMatrix,
    apply_walk,
    build_model_walk,
    coined_walk,
    compose,
    direct_sum,
    evolve,
    fourier_position_distribution,
    grover_walk_3,
    position_distribution,
    rescaled_moment,
)
from zqwalk.simulate import MAX_CONE_VALUES, _fast_fft_length
from support import (
    channel_vector,
    dict_apply_walk,
    mass_outside,
    random_constant_unitary,
    random_local_state,
    random_split_step_walk,
    random_unimodular_spec,
    support_radius,
)

R = 2**-0.5


def test_apply_shift():
    out = apply_walk(SymbolMatrix.shift(1), StateVector.delta(0, 1, 1))
    assert out.amplitudes == {(1, 1): 1.0}


def test_apply_hadamard_once():
    out = apply_walk(coined_walk(), StateVector.delta(0, 1, 2))
    assert set(out.amplitudes) == {(-1, 1), (1, 2)}
    assert out.amplitudes[(-1, 1)] == pytest.approx(R)
    assert out.amplitudes[(1, 2)] == pytest.approx(R)


def test_apply_identity_fixes_state(rng):
    from support import random_local_state

    xi = random_local_state(rng, 2)
    assert apply_walk(SymbolMatrix.identity(2), xi).distance(xi) == 0.0


def test_apply_dimension_mismatch():
    with pytest.raises(DomainError):
        apply_walk(SymbolMatrix.identity(2), StateVector.delta(0, 1, 1))


def test_evolve_shift_five():
    out = evolve(SymbolMatrix.shift(1), StateVector.delta(0, 1, 1), 5)
    assert out.amplitudes == {(5, 1): 1.0}


def test_evolve_zero_steps_is_identity():
    xi = StateVector.delta(2, 1, 2)
    assert evolve(coined_walk(), xi, 0) is xi


def test_evolve_matches_repeated_apply(rng):
    from support import random_local_state

    walk = grover_walk_3()
    xi = random_local_state(rng, 3)
    stepped = xi
    for _ in range(7):
        stepped = apply_walk(walk, stepped)
    assert evolve(walk, xi, 7).distance(stepped) < 1e-13


def test_evolve_far_shift_matches_repeated_apply(rng):
    # coin x diag(1, z^1000): two live shifts 1000 apart, so V(w) has degree 1
    diag = direct_sum(SymbolMatrix.identity(1), SymbolMatrix.shift(1000))
    walk = compose(SymbolMatrix.from_constant(random_constant_unitary(rng, 2)), diag)
    xi = random_local_state(rng, 2)
    stepped = xi
    for t in range(1, 6):
        stepped = apply_walk(walk, stepped)
        assert evolve(walk, xi, t).distance(stepped) < 1e-13, t


def test_evolve_hadamard_two_steps():
    out = evolve(coined_walk(), StateVector.delta(0, 1, 2), 2)
    sites = {s for (s, _k) in out.amplitudes}
    assert sites <= {-2, 0, 2}
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_norm_conservation_long_run(corpus):
    for walk in corpus.values():
        xi = StateVector.delta(0, 1, walk.n)
        assert abs(evolve(walk, xi, 2000).norm() - 1.0) < 1e-9


def test_support_bound_exact():
    walk = coined_walk()
    xi = StateVector.delta(3, 1, 2)
    out = evolve(walk, xi, 17)
    assert support_radius(out) <= 3 + 17 * walk.propagation_radius


# -- evolution through the symbol against the stepping oracle -----------------

ORACLE_TIMES = (1, 2, 7, 33, 64)


def _oracle_cases():
    """(name, walk, initial vector, whether the walk reaches every cone site).

    The split-step walks cover n = 2..8 and radius 1..3 (n = 2, radius 3 has
    shifts {-3, -1, 1, 3}); the coined walk with a radius-3 vector has g = 2 and
    both residues occupied; shift(+-2) + coin, started on even sites only, has
    an arithmetic shift set {0, 2} or {-2, 0} but a block-diagonal symbol, so
    its exact amplitudes vanish inside the cone; the layered walk has the
    non-arithmetic shift set {0, 1, 3, 4}; the gapped grover3 vector has two
    light cones (width 2 t + 1) that leave one empty site between them at
    t = 33 and overlap from t = 34, and evolves on the hull of both.
    """
    rng = np.random.default_rng(64)
    cases = [
        (f"split_n{n}_r{r}", random_split_step_walk(rng, n, r),
         random_local_state(rng, n, 1), True)
        for n, r in ((2, 3), (3, 3), (4, 2), (5, 1), (6, 2), (7, 1), (8, 1))
    ]
    cases.append(("coined_radius3", coined_walk(), random_local_state(rng, 2, 3), True))
    coin = SymbolMatrix.from_constant(random_constant_unitary(rng, 2))
    even = random_local_state(rng, 3, 2)
    even = StateVector({key: a for key, a in even.amplitudes.items() if key[0] % 2 == 0}, 3)
    for s in (2, -2):
        cases.append((f"shift{s:+d}_plus_coin", direct_sum(SymbolMatrix.shift(s), coin),
                      even, False))
    layered = compose(
        direct_sum(SymbolMatrix.shift(0), SymbolMatrix.shift(3)),
        compose(coin, direct_sum(SymbolMatrix.shift(0), SymbolMatrix.shift(1))),
    )
    cases.append(("shifts_0_1_3_4", layered, random_local_state(rng, 2, 2), False))
    gapped = StateVector({(0, 1): 0.6, (68, 2): 0.8j}, 3)
    cases.append(("grover3_gapped_support", grover_walk_3(), gapped, False))
    return cases


def _cone_sites(walk, xi, t):
    """Sites r + m0 t + g j with lo <= g j <= hi + (max shift - m0) t, where lo
    and hi are the least and largest sites of xi's residue class r mod g."""
    shifts = sorted(walk.coefficient_sequences())
    m0 = shifts[0]
    g = math.gcd(*(s - m0 for s in shifts)) or 1
    reach = (shifts[-1] - m0) * t
    hulls: dict[int, tuple[int, int]] = {}
    for (x, _k) in xi.amplitudes:
        lo, hi = hulls.get(x % g, (x, x))
        hulls[x % g] = (min(lo, x), max(hi, x))
    return {s + m0 * t for lo, hi in hulls.values() for s in range(lo, hi + reach + 1, g)}


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda case: case[0])
def test_evolve_matches_stepping_oracle(case):
    _name, walk, xi, fills_cone = case
    stepped = xi
    for t in range(1, max(ORACLE_TIMES) + 1):
        stepped = dict_apply_walk(walk, stepped)
        if t not in ORACLE_TIMES:
            continue
        out = evolve(walk, xi, t)
        assert out.distance(stepped) <= 1e-12, t
        sites = {s for (s, _k) in out.amplitudes}
        oracle = {s for (s, _k) in stepped.amplitudes}
        assert sites <= _cone_sites(walk, xi, t), t
        if fills_cone:
            assert sites == oracle, t
        else:
            assert sites >= oracle, t


# every low bit of 127 and 255 is set, so vec is multiplied while it is still a
# coefficient array on a grid that grows with the power
COEFFICIENT_PHASE_TIMES = (127, 255)


def _coefficient_phase_cases():
    named = {case[0]: case for case in _oracle_cases()}
    rng = np.random.default_rng(255)
    split = ("split_n6_r1", random_split_step_walk(rng, 6, 1), random_local_state(rng, 6, 1), True)
    return [named["coined_radius3"], named["grover3_gapped_support"], split]


@pytest.mark.parametrize("case", _coefficient_phase_cases(), ids=lambda case: case[0])
def test_evolve_matches_stepping_in_the_coefficient_phase(case):
    _name, walk, xi, _fills_cone = case
    stepped = xi
    for t in range(1, max(COEFFICIENT_PHASE_TIMES) + 1):
        stepped = apply_walk(walk, stepped)
        if t not in COEFFICIENT_PHASE_TIMES:
            continue
        out = evolve(walk, xi, t)
        assert out.distance(stepped) <= 1e-12, t
        # (site, channel) keys strictly increasing, the classes merged in order
        step, turn = np.diff(out.sites), np.diff(out.channels)
        assert np.all((step > 0) | ((step == 0) & (turn > 0))), t


def _model_cases():
    for d in range(1, 5):
        rng = np.random.default_rng(400 + d)
        spec = random_unimodular_spec(rng, d, winding=d % 3 - 1)
        yield f"model_d{d}", build_model_walk(spec), random_local_state(rng, d, 2), True


@pytest.mark.parametrize(
    "case", [*_oracle_cases(), *_model_cases()], ids=lambda case: case[0]
)
def test_apply_walk_matches_dict_oracle(case):
    _name, walk, xi, _fills_cone = case
    for step in range(8):
        want = dict_apply_walk(walk, xi)
        got = apply_walk(walk, xi)
        assert got.amplitudes.keys() == want.amplitudes.keys(), step
        assert np.all(np.diff(got.sites) >= 0), step
        assert max(abs(got.amplitudes[key] - a) for key, a in want.amplitudes.items()) <= 1e-15
        xi = want


@pytest.mark.parametrize("name", ["coined", "modified", "grover3"])
def test_long_evolution_regression(corpus, name):
    walk = corpus[name]
    for xi in (StateVector.delta(0, 1, walk.n),
               random_local_state(np.random.default_rng(6400), walk.n, 3)):
        out = evolve(walk, xi, 6400)
        assert abs(out.norm() - 1.0) <= 1e-9
        assert support_radius(out) <= support_radius(xi) + walk.propagation_radius * 6400
        lattice = position_distribution(evolve(walk, xi, 1600)).probs
        fourier = fourier_position_distribution(walk, xi, 1600).probs
        sites = set(lattice) | set(fourier)
        tv = 0.5 * sum(abs(lattice.get(s, 0.0) - fourier.get(s, 0.0)) for s in sites)
        assert tv <= 1e-9


def test_fourier_consistency():
    walk = grover_walk_3()
    xi = channel_vector(0, [0.0, 1.0, 0.0])
    t = 50
    lattice = position_distribution(evolve(walk, xi, t), time=t)
    fourier = fourier_position_distribution(walk, xi, t)
    sites = set(lattice.probs) | set(fourier.probs)
    tv = 0.5 * sum(abs(lattice.probs.get(s, 0.0) - fourier.probs.get(s, 0.0)) for s in sites)
    assert tv < 1e-6


def test_fourier_grid_follows_the_support():
    # the window is sized by the support's width, not by its distance to 0
    walk, far = coined_walk(), 2**17
    near = fourier_position_distribution(walk, StateVector.delta(0, 1, 2), 4).probs
    moved = fourier_position_distribution(walk, StateVector.delta(far, 1, 2), 4).probs
    assert len(near) == 16
    assert sorted(moved) == [s + far for s in sorted(near)]
    assert max(abs(moved[s + far] - p) for s, p in near.items()) <= 1e-12
    # a support off the origin on one side keeps its whole light cone
    xi = StateVector({(5, 1): R, (9, 2): R}, 2)
    lattice = position_distribution(evolve(walk, xi, 7)).probs
    fourier = fourier_position_distribution(walk, xi, 7).probs
    assert all(abs(fourier[s] - p) <= 1e-14 for s, p in lattice.items())
    assert sum(fourier.values()) == pytest.approx(1.0, abs=1e-14)


def test_fast_fft_length_matches_scipy():
    from scipy.fft import next_fast_len

    targets = range(1, 2**17 + 1)
    assert [_fast_fft_length(k) for k in targets] == [next_fast_len(k) for k in targets]


def test_position_distribution_examples():
    assert position_distribution(StateVector.delta(0, 1, 2)).probs == {0: 1.0}
    # plain ints and floats, as the CSV and JSON writers and cdf_distance expect
    dist = position_distribution(evolve(grover_walk_3(), StateVector.delta(3, 2, 3), 5))
    assert type(dist.probs) is dict
    assert {type(s) for s in dist.probs} == {int}
    assert {type(p) for p in dist.probs.values()} == {float}
    two = StateVector({(-1, 1): R, (1, 2): R}, 2)
    probs = position_distribution(two).probs
    assert probs[-1] == pytest.approx(0.5) and probs[1] == pytest.approx(0.5)
    both = StateVector({(0, 1): R, (0, 2): R}, 2)
    assert position_distribution(both).probs[0] == pytest.approx(1.0)


def _unique_bincount_probs(xi):
    """Reference: sites indexed by np.unique, probabilities summed by np.bincount."""
    occupied, index = np.unique(xi.sites, return_inverse=True)
    probs = np.bincount(index, weights=np.abs(xi.values) ** 2, minlength=len(occupied))
    live = probs != 0.0
    return dict(zip(occupied[live].tolist(), probs[live].tolist()))


def _assert_distribution_layout(dist):
    assert dist.sites.dtype == np.int64 and dist.masses.dtype == np.float64
    assert len(dist.sites) == len(dist.masses)
    assert np.all(np.diff(dist.sites) > 0)
    assert np.all(dist.masses != 0)
    assert not dist.sites.flags.writeable and not dist.masses.flags.writeable
    assert list(dist.probs) == dist.sites.tolist()


@pytest.mark.parametrize("name", ["coined", "modified", "grover3"])
def test_every_distribution_has_increasing_unique_read_only_sites(corpus, name):
    walk = corpus[name]
    delta = StateVector.delta(0, 2 if name == "grover3" else 1, walk.n)
    for xi in (delta, random_local_state(np.random.default_rng(35), walk.n, 3)):
        for t in (7, 400):
            state = evolve(walk, xi, t)
            dist = position_distribution(state, time=t)
            # the same probabilities, bit for bit, as a site index from np.unique
            assert dist.probs == _unique_bincount_probs(state)
            assert dist.probs is dist.probs  # built once and kept
            shuffled = dict(reversed(list(dist.probs.items())))
            given = PositionDistribution(shuffled, time=t)
            assert given.probs == dist.probs and given.time == t
            fourier = fourier_position_distribution(walk, xi, t)
            for made in (dist, given, fourier):
                _assert_distribution_layout(made)
    empty = position_distribution(StateVector({}, walk.n))
    _assert_distribution_layout(empty)
    assert empty.probs == {} and mass_outside(empty, 0.0) == 0.0


def test_rescaled_moment_examples():
    assert rescaled_moment(StateVector.delta(2, 1, 1), 2, 1) == pytest.approx(1.0)
    assert rescaled_moment(StateVector.delta(5, 1, 1), 7, 0) == pytest.approx(1.0)
    out = evolve(coined_walk(), StateVector.delta(0, 1, 2), 2)
    probs = position_distribution(out).probs
    want = sum((s / 2) ** 2 * p for s, p in probs.items())
    assert rescaled_moment(out, 2, 2) == pytest.approx(want, abs=1e-15)


def test_distribution_and_moments_match_loop_reference(rng):
    xi = evolve(grover_walk_3(), random_local_state(rng, 3, 3), 400)
    probs: dict[int, float] = {}
    for (s, _k), a in xi.amplitudes.items():
        probs[s] = probs.get(s, 0.0) + abs(a) ** 2
    got = position_distribution(xi).probs
    assert got.keys() == probs.keys()
    assert max(abs(got[s] - p) for s, p in probs.items()) <= 1e-14
    assert min(probs) < 0 < max(probs)  # odd powers of negative sites included
    for m in range(9):
        want = sum((s / 400) ** m * p for s, p in probs.items())
        assert abs(rescaled_moment(xi, 400, m) - want) <= 1e-14


def test_rescaled_moment_refuses_negative_order():
    xi = StateVector.delta(3, 1, 1)
    assert rescaled_moment(xi, 3, 0) == 1.0
    for m in (-1, -4):
        with pytest.raises(DomainError, match="nonnegative"):
            rescaled_moment(xi, 3, m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12))
def test_moment_zero_is_total_mass(t):
    out = evolve(coined_walk(), StateVector.delta(0, 1, 2), t)
    assert rescaled_moment(out, max(t, 1), 0) == pytest.approx(1.0, abs=1e-12)


# -- the stored layout and its input checks -------------------------------------------


def test_layout_sorted_unique_read_only():
    xi = StateVector({(3, 1): 0.5, (-2, 2): 1j, (3, 2): 0.0, (-2, 1): -0.25}, 2)
    assert xi.sites.tolist() == [-2, -2, 3]
    assert xi.channels.tolist() == [1, 2, 1]
    assert xi.values.tolist() == [-0.25, 1j, 0.5]
    assert xi.amplitudes == {(-2, 1): -0.25, (-2, 2): 1j, (3, 1): 0.5}
    with pytest.raises(TypeError):
        xi.amplitudes[(0, 1)] = 1.0
    for array in (xi.sites, xi.channels, xi.values):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("bad", [
    {(0, 1): float("nan")},
    {(0, 1): complex(0.0, float("inf"))},
    {(10**20, 1): 1.0},
    {(2**53 + 1, 1): 1.0},
    {(-(2**63), 1): 1.0},
    {(0, 3): 1.0},
])
def test_state_rejects_nonfinite_far_or_stray_entries(bad):
    with pytest.raises(DomainError):
        StateVector(bad, 2)


def test_state_accepts_sites_up_to_two_to_the_53():
    xi = StateVector({(2**53, 1): 0.6, (-(2**53), 2): 0.8}, 2)
    assert support_radius(xi) == 2**53
    assert rescaled_moment(xi, 2**53, 1) == pytest.approx(-0.28, abs=1e-15)
    with pytest.raises(DomainError):
        apply_walk(SymbolMatrix.shift(1), StateVector.delta(2**53, 1, 1))


def test_evolve_refuses_a_site_beyond_two_to_the_53():
    with pytest.raises(DomainError, match="outside -2\\*\\*53..2\\*\\*53"):
        evolve(SymbolMatrix.shift(1), StateVector.delta(2**53, 1, 1), 1)


def test_evolve_keeps_far_apart_classes_apart():
    # an even and an odd site 10**9 apart are two residue classes of the coined
    # walk (g = 2): each evolves on its own cone, with no array across the gap
    far = 10**9 + 1
    xi = StateVector({(0, 1): 0.6, (far, 2): 0.8j}, 2)
    tracemalloc.start()
    try:
        out = evolve(coined_walk(), xi, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    near = evolve(coined_walk(), StateVector({(0, 1): 0.6}, 2), 400)
    moved = evolve(coined_walk(), StateVector({(far, 2): 0.8j}, 2), 400)
    assert out.sites.tolist() == near.sites.tolist() + moved.sites.tolist()
    assert out.channels.tolist() == near.channels.tolist() + moved.channels.tolist()
    assert np.abs(out.values - np.concatenate([near.values, moved.values])).max() <= 1e-15


def test_evolve_refuses_unallocatable_light_cone():
    # sites 0 and 10**11 share one cone about 10**11 sites wide: refused before
    # numpy is asked for terabytes
    xi = StateVector({(0, 1): 0.6, (10**11, 1): 0.8}, 2)
    with pytest.raises(DomainError, match=f"above {MAX_CONE_VALUES}"):
        evolve(coined_walk(), xi, 1)
    # the same two sites one light cone apart still evolve
    near = StateVector({(0, 1): 0.6, (1000, 1): 0.8}, 2)
    assert evolve(coined_walk(), near, 1).norm() == pytest.approx(1.0, abs=1e-15)
    # a cone 2 * 10**15 + 1 sites wide is refused before the FFT length is
    # searched for, whose steps near that size would take days
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"above {MAX_CONE_VALUES}"):
        evolve(coined_walk(), StateVector({(0, 1): 1.0}, 2), 10**15)
    assert time.perf_counter() - start < 1.0


def test_state_refuses_a_fractional_site():
    # 0.5 would have been truncated to site 0, beside the entry at site 1
    with pytest.raises(DomainError, match="site 0.5 is not an integer"):
        StateVector({(0.5, 1): 0.6, (1, 1): 0.8}, 2)


def test_state_refuses_a_fractional_channel():
    with pytest.raises(DomainError, match="channel 1.5 is not an integer"):
        StateVector({(0, 1.5): 1.0}, 2)


def test_channel_vector_refuses_n_below_one():
    # an explicit n = 0 is refused, not read as "not given"
    with pytest.raises(DomainError, match="must be positive"):
        channel_vector(0, [1.0, 0.0], 0)
    assert channel_vector(0, [1.0, 0.0]).n == 2


def test_distribution_refuses_a_fractional_site():
    with pytest.raises(DomainError, match="site 0.5 is not an integer"):
        PositionDistribution({0.5: 0.5, 2: 0.5})
    assert PositionDistribution({2.0: 1.0}).sites.tolist() == [2]
