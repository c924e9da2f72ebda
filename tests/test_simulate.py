import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqwalk import (
    DomainError,
    StateVector,
    SymbolMatrix,
    apply_walk,
    classify_initial,
    coined_walk,
    evolve,
    fourier_position_distribution,
    grover_walk_3,
    position_distribution,
    rescaled_moment,
    truncate_amplitudes,
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
    assert out.support_radius <= 3 + 17 * walk.propagation_radius


def test_fourier_consistency():
    walk = grover_walk_3()
    xi = StateVector.from_channel_vector(0, [0.0, 1.0, 0.0])
    t = 50
    lattice = position_distribution(evolve(walk, xi, t), time=t)
    fourier = fourier_position_distribution(walk, xi, t)
    sites = set(lattice.probs) | set(fourier.probs)
    tv = 0.5 * sum(abs(lattice.probs.get(s, 0.0) - fourier.probs.get(s, 0.0)) for s in sites)
    assert tv < 1e-6


def test_position_distribution_examples():
    assert position_distribution(StateVector.delta(0, 1, 2)).probs == {0: 1.0}
    two = StateVector({(-1, 1): R, (1, 2): R}, 2)
    probs = position_distribution(two).probs
    assert probs[-1] == pytest.approx(0.5) and probs[1] == pytest.approx(0.5)
    both = StateVector({(0, 1): R, (0, 2): R}, 2)
    assert position_distribution(both).probs[0] == pytest.approx(1.0)


def test_rescaled_moment_examples():
    assert rescaled_moment(StateVector.delta(2, 1, 1), 2, 1) == pytest.approx(1.0)
    assert rescaled_moment(StateVector.delta(5, 1, 1), 7, 0) == pytest.approx(1.0)
    out = evolve(coined_walk(), StateVector.delta(0, 1, 2), 2)
    probs = position_distribution(out).probs
    want = sum((s / 2) ** 2 * p for s, p in probs.items())
    assert rescaled_moment(out, 2, 2) == pytest.approx(want, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12))
def test_moment_zero_is_total_mass(t):
    out = evolve(coined_walk(), StateVector.delta(0, 1, 2), t)
    assert rescaled_moment(out, max(t, 1), 0) == pytest.approx(1.0, abs=1e-12)


# -- locality classes ---------------------------------------------------------------


def test_classify_delta_finite_support():
    assert classify_initial(StateVector.delta(0, 1, 2)).kind == "finite_support"


def _profile_vector(values):
    amps = {(s, 1): v for s, v in values.items()}
    return StateVector(amps, 1)


def test_classify_exponential_amplitudes():
    cutoff = 24
    profile = {s: 2.0 ** (-abs(s)) for s in range(-cutoff, cutoff + 1)}
    cls = classify_initial(_profile_vector(profile), cutoff=cutoff)
    assert cls.kind == "exponential"
    assert abs(cls.r - 2.0) / 2.0 < 0.05


def test_classify_polynomial_amplitudes():
    cutoff = 24
    profile = {s: (1.0 + abs(s)) ** -10.0 for s in range(-cutoff, cutoff + 1)}
    cls = classify_initial(_profile_vector(profile), cutoff=cutoff)
    assert cls.kind == "rapid_decrease"
    assert cls.is_rapidly_decreasing


def test_classify_small_cutoff():
    with pytest.raises(DomainError):
        classify_initial({0: 1.0, 1: 0.5}, cutoff=2)


def test_truncation_reports_discarded_mass():
    xi = StateVector({(0, 1): 1.0, (40, 1): 1e-15}, 1)
    trimmed, lost = truncate_amplitudes(xi, 1e-14)
    assert (40, 1) not in trimmed.amplitudes
    assert lost == pytest.approx(1e-30, rel=1e-6)
