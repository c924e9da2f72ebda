import io

import numpy as np
import pytest

from zqwalk import (
    DomainError,
    LaurentPoly,
    ModelWalkSpec,
    StateVector,
    SymbolMatrix,
    adjoint,
    build_model_walk,
    char_poly,
    coined_lambda,
    coined_walk,
    compose,
    deinterleave_channels,
    eval_symbol,
    interleave_channels,
    lambda_coeffs_from_samples,
    rearrangement_check,
    refine_system,
    rotation_distance,
    track_bands,
    verify_unitary_symbol,
    winding_of_samples,
)
from zqwalk.io import write_generator_csv
from zqwalk.simulate import MAX_SITE
from support import (
    poly_conj_reflect,
    poly_product,
    random_local_state,
    random_unimodular_spec,
    rebuilt_rearrangement_check,
    symbols_close,
    trig_phase_samples,
)


def test_build_d1_shift():
    walk = build_model_walk(ModelWalkSpec(1, LaurentPoly.monomial(1)))
    assert symbols_close(walk, SymbolMatrix.shift(1))


def test_build_d2_monomial():
    walk = build_model_walk(ModelWalkSpec(2, LaurentPoly.monomial(1)))
    want = SymbolMatrix(2, (
        (LaurentPoly.zero(), LaurentPoly.monomial(1)),
        (LaurentPoly.one(), LaurentPoly.zero()),
    ))
    assert symbols_close(walk, want)


def test_build_d2_constant_is_identity():
    walk = build_model_walk(ModelWalkSpec(2, LaurentPoly.one()))
    assert symbols_close(walk, SymbolMatrix.identity(2))


def test_build_rejects_non_unimodular():
    with pytest.raises(DomainError):
        build_model_walk(ModelWalkSpec(1, LaurentPoly({0: 0.5, 1: 0.5})))


def test_build_rejects_lambda_unimodular_only_on_a_256_grid():
    # |lambda|^2 - 1 = -sin(128 theta) vanishes at every point of a 256-point grid
    coeff = 1 / np.sqrt(2)
    with pytest.raises(DomainError, match="not unimodular"):
        build_model_walk(ModelWalkSpec(1, LaurentPoly({-64: coeff, 64: 1j * coeff})))


def test_built_walks_are_unitary(rng):
    for d in (1, 2, 3):
        spec = random_unimodular_spec(rng, d, winding=rng.integers(-2, 3))
        report = verify_unitary_symbol(build_model_walk(spec))
        assert report.passed and report.max_deviation < 1e-9, report


def test_model_algebra(rng):
    spec1 = random_unimodular_spec(rng, 3, winding=1)
    spec2 = random_unimodular_spec(rng, 3, winding=-2)
    product_coeffs = poly_product(spec1.lambda_coeffs, spec2.lambda_coeffs)
    lhs = compose(build_model_walk(spec1), build_model_walk(spec2))
    rhs = build_model_walk(ModelWalkSpec(3, product_coeffs))
    assert symbols_close(lhs, rhs, 1e-11)
    conj = build_model_walk(ModelWalkSpec(3, poly_conj_reflect(spec1.lambda_coeffs)))
    assert symbols_close(adjoint(build_model_walk(spec1)), conj)


# -- rearrangement -----------------------------------------------------------------


def test_rearrangement_hand_example():
    spec = ModelWalkSpec(2, LaurentPoly.monomial(1))
    dev = rearrangement_check(spec, [StateVector.delta(0, 1, 2)])
    assert dev == 0.0


def test_rearrangement_d1_trivial():
    spec = ModelWalkSpec(1, LaurentPoly.monomial(1))
    assert rearrangement_check(spec, [StateVector.delta(3, 1, 1)]) == 0.0


def test_rearrangement_random_vectors(rng):
    spec = ModelWalkSpec(3, LaurentPoly.monomial(2))
    vectors = [random_local_state(rng, 3) for _ in range(5)]
    assert rearrangement_check(spec, vectors) < 1e-12


def test_rearrangement_generic_lambda(rng):
    spec = random_unimodular_spec(rng, 2, winding=1)
    vectors = [random_local_state(rng, 2) for _ in range(5)]
    assert rearrangement_check(spec, vectors) < 1e-12


def test_rearrangement_equals_rebuilding_both_walks():
    for d in (1, 2, 3, 4):
        for seed in range(3):
            rng = np.random.default_rng(500 + 10 * d + seed)
            spec = random_unimodular_spec(rng, d, winding=seed - 1)
            vectors = [random_local_state(rng, d, radius=2) for _ in range(3)]
            vectors.append(StateVector.delta(-5, d, d))
            got = rearrangement_check(spec, vectors)
            assert got == rebuilt_rearrangement_check(spec, vectors), (d, seed)


def test_spec_keeps_its_walk(monkeypatch):
    spec = random_unimodular_spec(np.random.default_rng(9), 3, winding=1)
    checks = []
    circle_samples = LaurentPoly.circle_samples

    def recorded(poly, grid_size):
        checks.append(grid_size)
        return circle_samples(poly, grid_size)

    monkeypatch.setattr(LaurentPoly, "circle_samples", recorded)
    walk = build_model_walk(spec)
    rearrangement_check(spec, [StateVector.delta(0, 1, 3)])
    assert build_model_walk(spec) is walk
    assert len(checks) == 1  # one |lambda| = 1 check for both calls
    # equality and repr read the fields alone
    twin = ModelWalkSpec(3, spec.lambda_coeffs)
    assert twin == spec and repr(twin) == repr(spec)
    assert build_model_walk(twin) is not walk and len(checks) == 2


def test_interleaving_refuses_sites_beyond_max_site():
    edge = StateVector.delta(MAX_SITE // 2 - 1, 2, 2)  # interleaves onto site MAX_SITE
    line = interleave_channels(edge)
    assert line.sites.tolist() == [MAX_SITE] and not line.sites.flags.writeable
    assert deinterleave_channels(line, 2).amplitudes == edge.amplitudes
    beyond = StateVector.delta(MAX_SITE // 2, 1, 2)
    with pytest.raises(DomainError, match="outside -2\\*\\*53..2\\*\\*53"):
        interleave_channels(beyond)
    with pytest.raises(DomainError):
        rearrangement_check(ModelWalkSpec(2, LaurentPoly.monomial(1)), [beyond])
    # 2048 * 2**53 wraps to 0 in int64: refused, not mapped onto site 1
    with pytest.raises(DomainError, match="interleaving 2048 channels"):
        interleave_channels(StateVector.delta(MAX_SITE, 1, 2048))


# -- shift times a winding-zero walk ---------------------------------------------------


def test_shift_factorization_perturbed_monomial(rng):
    # lambda = z^w * (z^-w lambda): the shift S_w times a winding-zero walk
    spec = random_unimodular_spec(rng, 1, winding=2)
    w = winding_of_samples(spec.lambda_coeffs.circle_samples(256))[0]
    assert w == 2
    residual = ModelWalkSpec(
        1, LaurentPoly.from_terms(spec.lambda_coeffs.shifts - w, spec.lambda_coeffs.coeffs)
    )
    assert winding_of_samples(residual.lambda_coeffs.circle_samples(256))[0] == 0
    # composing the shift back reproduces the original coefficient-wise
    recomposed = compose(
        SymbolMatrix.shift(w), build_model_walk(residual)
    )
    assert symbols_close(recomposed, build_model_walk(spec), 1e-12)


# -- continuous-time generator ----------------------------------------------------------


def test_ct_generator_coined_branch():
    # the generator ct-check writes is the band's unwrapped phase h, exp(i h) = lambda
    theta = 2.0 * np.pi * np.arange(512) / 512
    samples = coined_lambda(theta, branch=+1)
    system = track_bands(coined_walk(), 512)
    (band,) = [b for b in system.bands if np.max(np.abs(b.samples - samples)) < 1e-12]
    stream = io.StringIO()
    write_generator_csv(band, stream)
    rows = stream.getvalue().splitlines()
    assert rows[0] == "theta,h"
    h_samples = np.array([float(row.split(",")[1]) for row in rows[1:]])
    want = np.arccos(2**-0.5 * np.cos(theta))
    assert np.max(np.abs(h_samples - want)) < 1e-12
    assert np.max(np.abs(np.exp(1j * h_samples) - samples)) < 1e-12
    # fractional time stays unitary and interpolates the phase
    half = np.exp(0.5j * h_samples)
    assert np.max(np.abs(np.abs(half) - 1.0)) < 1e-12
    assert np.max(np.abs(half * half - samples)) < 1e-12


# -- spectrum of the model walk -----------------------------------------------------------


def test_model_char_poly_is_root_product(rng):
    spec = random_unimodular_spec(rng, 3, winding=1)
    walk = build_model_walk(spec)
    f = char_poly(walk)
    for z in np.exp(2j * np.pi * (np.arange(24) + 0.3) / 24):
        roots = [
            spec.lambda_coeffs(zeta)
            for zeta in z ** (1 / 3) * np.exp(2j * np.pi * np.arange(3) / 3)
        ]
        want = np.array([1.0 + 0j])
        for root in roots:
            want = np.convolve(want, np.array([-root, 1.0]))
        got = np.array([c(z) for c in f.coeffs])
        assert np.max(np.abs(got - want)) < 1e-8


def test_model_eigenvector_identity(rng):
    for d in (1, 2, 3):
        spec = random_unimodular_spec(rng, d, winding=1)
        walk = build_model_walk(spec)
        zetas = np.exp(2j * np.pi * (np.arange(256) + 0.17) / 256)
        worst = 0.0
        for zeta in zetas:
            vec = zeta ** -np.arange(d)
            lhs = eval_symbol(walk, zeta**d) @ vec
            rhs = spec.lambda_coeffs(zeta) * vec
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-10


def test_round_trip_single_band(rng):
    spec = random_unimodular_spec(rng, 3, winding=1)
    walk = build_model_walk(spec)
    system = refine_system(track_bands(walk, 256))
    assert [(b.d, b.multiplicity) for b in system.bands] == [(3, 1)]
    covering = np.exp(2j * np.pi * np.arange(3 * 256) / (3 * 256))
    want = spec.lambda_coeffs(covering)
    assert rotation_distance(system.bands[0].samples, want, 256) < 1e-7


def test_coeffs_from_samples_round_trip(rng):
    samples = trig_phase_samples(rng, winding=-1)
    coeffs = lambda_coeffs_from_samples(samples)
    grid = len(samples)
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    assert np.max(np.abs(coeffs(z) - samples)) < 1e-10


def test_direct_sum_of_band_models_reproduces_char_poly(tracked_corpus, corpus):
    # rebuilding each refined band as a model walk and summing the blocks
    # reproduces the original characteristic polynomial
    from zqwalk import direct_sum

    for name, system in tracked_corpus.items():
        blocks = []
        for band in system.bands:
            coeffs = lambda_coeffs_from_samples(band.samples)
            block = build_model_walk(ModelWalkSpec(band.d, coeffs))
            blocks.extend([block] * band.multiplicity)
        rebuilt = char_poly(direct_sum(*blocks))
        original = char_poly(corpus[name])
        for z in np.exp(2j * np.pi * (np.arange(32) + 0.4) / 32):
            got = np.array([c(z) for c in rebuilt.coeffs])
            want = np.array([c(z) for c in original.coeffs])
            assert np.max(np.abs(got - want)) < 1e-8, name
