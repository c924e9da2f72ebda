"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np

from zqwalk import (
    LaurentPoly,
    ModelWalkSpec,
    StateVector,
    SymbolMatrix,
    are_conjugate,
    build_model_walk,
    char_poly,
    coined_lambda,
    coined_walk,
    compose,
    ct_realizable,
    evolve,
    grover_lambda,
    grover_walk_3,
    is_decomposable,
    limit_measure,
    limit_moments,
    modified_coined_walk,
    modified_lambda,
    position_distribution,
    rearrangement_check,
    refine_system,
    rescaled_moment,
    rotation_distance,
    symbol_power,
    total_winding,
    track_bands,
    walk_corpus,
    winding_numbers,
)
from support import (
    channel_vector,
    is_rotation_symmetric,
    mass_outside,
    poly_conj_reflect,
    poly_product,
    random_constant_unitary,
    random_local_state,
    random_unimodular_spec,
)

R = 2**-0.5
M = 1024


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] criterion {number}: FAIL - {text}")
        raise
    print(f"[ACCEPTANCE] criterion {number}: PASS - {text}")


def conjugate_walk(walk, unitary):
    v = SymbolMatrix.from_constant(unitary)
    vstar = SymbolMatrix.from_constant(np.asarray(unitary).conj().T)
    return compose(v, compose(walk, vstar))


def test_criterion_1_golden_eigen_systems():
    with criterion(1, "golden eigen systems of the three reference walks"):
        budgets = {}

        start = time.perf_counter()
        coined = refine_system(track_bands(coined_walk(), M))
        budgets["coined"] = time.perf_counter() - start
        assert sorted((b.d, b.multiplicity) for b in coined.bands) == [(1, 1), (1, 1)]
        assert sorted(winding_numbers(coined)) == [0, 0]
        assert is_decomposable(coined) and ct_realizable(coined)
        theta = 2.0 * np.pi * np.arange(M) / M
        branches = [coined_lambda(theta, branch=+1), coined_lambda(theta, branch=-1)]
        for band in coined.bands:
            err = min(float(np.max(np.abs(band.samples - b))) for b in branches)
            assert err < 1e-7

        start = time.perf_counter()
        modified = refine_system(track_bands(modified_coined_walk(), M))
        budgets["modified"] = time.perf_counter() - start
        assert [(b.d, b.multiplicity) for b in modified.bands] == [(2, 1)]
        assert winding_numbers(modified) == [1]
        assert not is_decomposable(modified) and not ct_realizable(modified)
        phi = 2.0 * np.pi * np.arange(2 * M) / (2 * M)
        assert rotation_distance(modified.bands[0].samples, modified_lambda(phi), M) < 1e-7

        start = time.perf_counter()
        grover = refine_system(track_bands(grover_walk_3(), M))
        budgets["grover"] = time.perf_counter() - start
        assert sorted((b.d, b.multiplicity) for b in grover.bands) == [(1, 1), (2, 1)]
        assert sorted(winding_numbers(grover)) == [0, 0]
        assert is_decomposable(grover) and ct_realizable(grover)
        for band in grover.bands:
            if band.d == 1:
                assert float(np.max(np.abs(band.samples - 1.0))) < 1e-7
            else:
                assert rotation_distance(band.samples, grover_lambda(phi), M) < 1e-7

        assert all(t < 5.0 for t in budgets.values()), budgets


def test_criterion_2_characteristic_polynomials():
    with criterion(2, "characteristic polynomials match the printed formulas"):
        f = char_poly(coined_walk())
        assert f.coeffs[2].max_coeff_distance(LaurentPoly.one()) < 1e-12
        assert f.coeffs[1].max_coeff_distance(LaurentPoly({1: -R, -1: -R})) < 1e-12
        assert f.coeffs[0].max_coeff_distance(LaurentPoly.one()) < 1e-12

        f = char_poly(modified_coined_walk())
        assert f.coeffs[2].max_coeff_distance(LaurentPoly.one()) < 1e-12
        assert f.coeffs[1].max_coeff_distance(LaurentPoly({1: -R, 0: -R})) < 1e-12
        assert f.coeffs[0].max_coeff_distance(LaurentPoly.monomial(1)) < 1e-12

        f = char_poly(grover_walk_3())
        third = 1.0 / 3.0
        sym = LaurentPoly({1: third, 0: third, -1: third})
        assert f.coeffs[3].max_coeff_distance(LaurentPoly.one()) < 1e-12
        assert f.coeffs[2].max_coeff_distance(sym) < 1e-12
        minus_sym = LaurentPoly({1: -third, 0: -third, -1: -third})
        assert f.coeffs[1].max_coeff_distance(minus_sym) < 1e-12
        assert f.coeffs[0].max_coeff_distance(LaurentPoly({0: -1.0})) < 1e-12


def test_criterion_3_cayley_hamilton():
    with criterion(3, "Cayley-Hamilton residual < 1e-8 on the corpus"):
        from zqwalk import verify_cayley_hamilton

        for name, walk in walk_corpus().items():
            residual = verify_cayley_hamilton(walk, 256)
            assert residual < 1e-8, (name, residual)


def test_criterion_4_model_identities():
    with criterion(4, "model-walk identities at coefficient level"):
        rng = np.random.default_rng(4)
        # rearrangement intertwining on 100 random local vectors
        worst = 0.0
        for d in (1, 2, 3, 4):
            spec = random_unimodular_spec(rng, d, winding=int(rng.integers(-1, 2)))
            vectors = [random_local_state(rng, d) for _ in range(25)]
            worst = max(worst, rearrangement_check(spec, vectors))
        assert worst < 1e-12, worst

        # product and adjoint identities
        for d in (1, 2, 3):
            s1 = random_unimodular_spec(rng, d, winding=1)
            s2 = random_unimodular_spec(rng, d, winding=-1)
            lhs = compose(build_model_walk(s1), build_model_walk(s2))
            product = poly_product(s1.lambda_coeffs, s2.lambda_coeffs)
            rhs = build_model_walk(ModelWalkSpec(d, product))
            assert all(
                lhs.entries[i][j].max_coeff_distance(rhs.entries[i][j]) < 1e-12
                for i in range(d)
                for j in range(d)
            )
            from zqwalk import adjoint

            conj = build_model_walk(ModelWalkSpec(d, poly_conj_reflect(s1.lambda_coeffs)))
            adj = adjoint(build_model_walk(s1))
            assert all(
                adj.entries[i][j].max_coeff_distance(conj.entries[i][j]) < 1e-12
                for i in range(d)
                for j in range(d)
            )

        # eigenvector identity at 256 sampled covering points
        for d in (2, 3):
            spec = random_unimodular_spec(rng, d, winding=1)
            walk = build_model_walk(spec)
            residual = 0.0
            for zeta in np.exp(2j * np.pi * (np.arange(256) + 0.13) / 256):
                vec = zeta ** -np.arange(d)
                lhs = walk(zeta**d) @ vec
                rhs = spec.lambda_coeffs(zeta) * vec
                residual = max(residual, float(np.max(np.abs(lhs - rhs))))
            assert residual < 1e-10, residual


def test_criterion_5_round_trip_random_models():
    with criterion(5, "track_bands recovers 20 random model eigenvalue functions"):
        rng = np.random.default_rng(5)
        for index in range(20):
            d = (1, 2, 3)[index % 3]
            while True:
                spec = random_unimodular_spec(
                    rng, d, winding=int(rng.integers(-2, 3)), harmonics=3
                )
                if not is_rotation_symmetric(spec.lambda_coeffs, d):
                    break
            walk = build_model_walk(spec)
            system = refine_system(track_bands(walk, 256))
            assert [(b.d, b.multiplicity) for b in system.bands] == [(d, 1)], (
                index,
                d,
            )
            m = system.base_grid  # at least 256; walk 14 certifies at 512
            covering = np.exp(2j * np.pi * np.arange(d * m) / (d * m))
            want = spec.lambda_coeffs(covering)
            assert rotation_distance(system.bands[0].samples, want, m) < 1e-7


def test_criterion_6_weak_limit_convergence():
    with criterion(6, "weak-limit moment convergence for the coined walk"):
        start = time.perf_counter()
        walk = coined_walk()
        xi = StateVector.delta(0, 1, 2)
        system = refine_system(track_bands(walk, M))
        measure = limit_measure(walk, xi, system)
        deviations = {}
        for t in (100, 400, 1600):
            state = evolve(walk, xi, t)
            for m in (1, 2, 3, 4):
                deviations[(t, m)] = abs(
                    rescaled_moment(state, t, m) - limit_moments(measure, m)
                )
        for m in (1, 2, 3, 4):
            assert deviations[(1600, m)] < 0.02, (m, deviations[(1600, m)])
            assert deviations[(400, m)] < deviations[(100, m)], m
            assert deviations[(1600, m)] < deviations[(400, m)], m
        dist = position_distribution(evolve(walk, xi, 1600), time=1600)
        assert mass_outside(dist, (R + 0.05) * 1600) < 0.02
        assert time.perf_counter() - start < 60.0


def test_criterion_7_grover_localization():
    with criterion(7, "Grover localization atom vs empirical near-origin mass"):
        walk = grover_walk_3()
        xi = channel_vector(0, [0.0, 1.0, 0.0])
        system = refine_system(track_bands(walk, M))
        measure = limit_measure(walk, xi, system)
        atom = measure.atom_mass(0.0)
        assert atom > 0

        # internal consistency: atom mass is the grid-averaged flat-band weight,
        # (1 + cos(theta)) / (5 + cos(theta)) from channel 2
        theta = 2.0 * np.pi * np.arange(M) / M
        averaged = float(np.mean((1.0 + np.cos(theta)) / (5.0 + np.cos(theta))))
        assert abs(atom - averaged) < 1e-12

        empirical = 1.0 - mass_outside(
            position_distribution(evolve(walk, xi, 2000)), 0.01 * 2000
        )
        assert empirical > 0.5 * atom
        assert 0.5 < empirical / atom < 2.0

        # extended horizon tightens the agreement to 20 percent
        empirical_long = 1.0 - mass_outside(
            position_distribution(evolve(walk, xi, 8000)), 0.01 * 8000
        )
        assert abs(empirical_long - atom) / atom < 0.2


def test_criterion_8_invariance_suite():
    with criterion(8, "conjugation invariance, winding additivity, norm conservation"):
        rng = np.random.default_rng(8)
        corpus = walk_corpus()
        initial = {
            "coined": StateVector.delta(0, 1, 2),
            "modified": StateVector.delta(0, 1, 2),
            "grover3": channel_vector(0, [0.0, 1.0, 0.0]),
        }
        names = list(corpus)
        base_measures = {}
        base_vectors = {}
        for name in names:
            walk = corpus[name]
            system = refine_system(track_bands(walk, M))
            base_vectors[name] = initial[name]
            base_measures[name] = limit_measure(walk, initial[name], system)

        for index in range(20):
            name = names[index % len(names)]
            walk = corpus[name]
            unitary = random_constant_unitary(rng, walk.n)
            other = conjugate_walk(walk, unitary)
            assert are_conjugate(walk, other), (name, index)
            vec = np.zeros(walk.n, dtype=complex)
            for (s, k), a in base_vectors[name].amplitudes.items():
                vec[k - 1] = a
            rotated = channel_vector(0, unitary @ vec)
            other_measure = limit_measure(
                other, rotated, refine_system(track_bands(other, M))
            )
            for m in range(1, 5):
                assert abs(
                    limit_moments(base_measures[name], m)
                    - limit_moments(other_measure, m)
                ) < 1e-6, (name, index, m)

        for name, walk in corpus.items():
            base = total_winding(refine_system(track_bands(walk, 256)))
            for exponent in (2, 3):
                powered = symbol_power(walk, exponent)
                got = total_winding(refine_system(track_bands(powered, 256)))
                assert got == exponent * base, (name, exponent)

        for name, walk in corpus.items():
            final = evolve(walk, initial[name], 2000)
            assert abs(final.norm() - 1.0) < 1e-9, name
