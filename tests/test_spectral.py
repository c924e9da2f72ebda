import itertools
import re

import numpy as np
import pytest

from zqwalk import (
    Band,
    DomainError,
    EigenSystem,
    LaurentPoly,
    ResolutionError,
    StateVector,
    SymbolMatrix,
    TrackingRecord,
    UnitarityError,
    are_conjugate,
    build_model_walk,
    char_poly,
    coined_lambda,
    coined_walk,
    compose,
    ct_realizable,
    direct_sum,
    eval_symbol,
    grover_lambda,
    grover_walk_3,
    is_decomposable,
    limit_measure,
    limit_moments,
    modified_coined_walk,
    modified_lambda,
    refine_system,
    rotation_distance,
    symbol_power,
    total_winding,
    track_bands,
    winding_numbers,
    winding_of_samples,
)
from support import (
    FINE_GRID,
    agrees_with_fine_pass,
    band_shape,
    channel_vector,
    conjugated_coined_sum,
    coupled_coined_sum,
    fft_band_velocities,
    fine_pass_system,
    known_answer_walks,
    poly_product,
    poly_sum,
    poly_terms,
    random_constant_unitary,
    random_local_state,
    random_split_step_walk,
    random_unimodular_spec,
    recorded_grid_evals,
    schur_velocity_law,
    subsample_system,
    tracked_conjugacy,
)
from zqwalk.spectral import (
    _best_separated_point,
    _canonical_rotation,
    _Solved,
    _grid_bounds,
    _lipschitz,
    _min_cost_assignment,
    _unitary_eig,
    _velocity_frame,
)

M = 1024


def covering_angles(d, m=M):
    return 2.0 * np.pi * np.arange(d * m) / (d * m)


def test_track_coined_two_single_cover_bands(tracked_corpus):
    system = tracked_corpus["coined"]
    assert sorted((b.d, b.multiplicity) for b in system.bands) == [(1, 1), (1, 1)]
    theta = covering_angles(1)
    plus, minus = coined_lambda(theta, branch=+1), coined_lambda(theta, branch=-1)
    errs = sorted(
        min(
            float(np.max(np.abs(band.samples - plus))),
            float(np.max(np.abs(band.samples - minus))),
        )
        for band in system.bands
    )
    assert errs[-1] < 1e-7


def test_track_modified_double_cover(tracked_corpus):
    system = tracked_corpus["modified"]
    assert [(b.d, b.multiplicity) for b in system.bands] == [(2, 1)]
    want = modified_lambda(covering_angles(2))
    assert rotation_distance(system.bands[0].samples, want, M) < 1e-7


def test_track_grover_structure(tracked_corpus):
    system = tracked_corpus["grover3"]
    assert sorted((b.d, b.multiplicity) for b in system.bands) == [(1, 1), (2, 1)]
    for band in system.bands:
        if band.d == 1:
            assert np.max(np.abs(band.samples - 1.0)) < 1e-9
        else:
            want = grover_lambda(covering_angles(2))
            assert rotation_distance(band.samples, want, M) < 1e-7


def test_rotation_gauge_ignores_the_sign_of_a_roundoff_seam():
    # both covering values of grover3's d = 2 band over z = 1 are -1: the
    # gauge must not follow the sign of their roundoff imaginary parts
    band = next(b for b in track_bands(grover_walk_3(), 64).bands if b.d == 2)
    assert np.max(np.abs(band.samples[[0, 64]] + 1.0)) < 1e-12
    for signs in itertools.product((1.0, -1.0), repeat=2):
        samples = band.samples.copy()
        for seam, sign in zip((0, 64), signs):
            samples[seam] = complex(samples[seam].real, sign * 1e-18)
        canonical = _canonical_rotation(samples, 64)
        assert np.array_equal(np.delete(canonical, [0, 64]), np.delete(band.samples, [0, 64]))


@pytest.mark.parametrize("imag", [1e-18, 0.0, -0.0, -1e-18])
def test_band_order_ignores_the_sign_of_a_roundoff_seam(imag):
    # a band starting at -1 sorts after one starting at 1, whatever the sign
    # of its roundoff imaginary part
    seam = Band(1, np.full(64, complex(-1.0, imag)))
    one = Band(1, np.ones(64, dtype=complex))
    system = EigenSystem((seam, one), 2, 64)
    assert [b.samples[0].real for b in system.bands] == [1.0, -1.0]


def test_certificate_reuses_coarse_eigenvalues(corpus):
    # the even points of a doubled grid are the coarse grid bit for bit, so
    # an escalated system keeps the eigenvalues a fresh solve of its grid
    # gives; every system agrees with the fine pass.  Split-step n = 8
    # escalates from grid 64 and hands its grid on
    cases = [(walk, grid) for walk in corpus.values() for grid in (64, 1024)]
    for n in range(2, 9):
        walk = random_split_step_walk(np.random.default_rng(300 + n), n, 1 + n % 3)
        cases += [(walk, 64), (walk, 1024)]
    for walk, grid in cases:
        assert np.array_equal(walk.grid_eval(2 * grid)[::2], walk.grid_eval(grid))
        system = track_bands(walk, grid)
        vals = _unitary_eig(walk.grid_eval(system.base_grid))[0]
        assert np.array_equal(system._solved[1], vals)
        assert agrees_with_fine_pass(system, walk)
    assert track_bands(cases[-2][0], 64).base_grid == 512


def _certificate_corpus():
    """Seeded split steps, coupled direct sums and near-identity coins, for grid 64."""
    walks = {
        f"split_step_{i}": random_split_step_walk(
            np.random.default_rng(3000 + i), 2 + i % 7, 1 + i % 3
        )
        for i in range(40)
    }
    for eps in (0.0, 1e-9, 1e-7, 1e-4):
        walks[f"coupled_sum_{eps}"] = coupled_coined_sum(eps)
    for eps in (0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
        walks[f"near_identity_{eps}"] = coined_walk(np.sqrt(1 - eps), np.sqrt(eps))
    return walks


def test_certificate_corpus_matches_fine_pass_oracle():
    # every pass track_bands returns agrees with the fine pass: a pass whose
    # every step certifies or meets an exact crossing keeps its base grid,
    # one with avoided crossings moves once, to the least grid that
    # certifies them; the sums coupled at 1e-9 and 1e-7, whose pairs stay
    # closer than any step up to MAX_GRID resolves, are refused
    grids = {}
    for name, walk in _certificate_corpus().items():
        if name in ("coupled_sum_1e-09", "coupled_sum_1e-07"):
            with pytest.raises(ResolutionError, match="grid 65536"):
                track_bands(walk, 64)
            continue
        system = track_bands(walk, 64)
        grids[name] = system.base_grid
        assert agrees_with_fine_pass(system, walk), name
        assert system.record.grids == tuple(sorted({64, system.base_grid})), name
        assert system.record.points >= system.base_grid, name
    assert grids["split_step_0"] == grids["near_identity_0.5"] == grids["coupled_sum_0.0"] == 64
    assert grids["near_identity_0.001"] > 64 and grids["coupled_sum_0.0001"] == 32768


def _paired_crossing_walks():
    """A near-avoided pair (gap 2e-3) summed with a pair of shifts crossing
    exactly at the same base angles, at other eigenvalues, plain and mixed
    by a constant unitary; `turned` moves both meetings off the grid."""
    walks = {}
    mix = random_constant_unitary(np.random.default_rng(5), 4)
    for name, phi in (("paired", 0.0), ("turned", 0.3)):
        near = coined_walk(np.sqrt(1 - 1e-6) * np.exp(1j * phi), 1e-3)
        shifts = [np.diag([0, 1j * np.exp(-2j * phi)]), np.diag([1j, 0])]  # i z, i e^{-2i phi} / z
        walks[name] = direct_sum(near, SymbolMatrix.from_terms([-1, 1], shifts))
        walks[f"{name}_mixed"] = _conjugate_by(walks[name], mix)
    return walks


def _matcher_corpus():
    """The walks the certified matcher is checked on against the assignment oracle."""
    walks = {"near_crossing": coined_walk(np.sqrt(1 - 1e-6), 1e-3), **_paired_crossing_walks()}
    for n in range(2, 9):
        for radius in range(1, 4):
            rng = np.random.default_rng(100 * n + radius)
            walks[f"split_step_{n}_{radius}"] = random_split_step_walk(rng, n, radius)
    walks.update((f"conjugated_sum_{seed}", conjugated_coined_sum(seed)) for seed in range(6))
    return walks


def test_certified_matcher_matches_assignment_oracle():
    # the per-point assignment on the fine pass gives the same bands, and its
    # samples on the certified grid
    grids = {}
    for name, walk in _matcher_corpus().items():
        system = track_bands(walk)
        grids[name] = system.base_grid
        assert agrees_with_fine_pass(system, walk), name
    assert grids["near_crossing"] == 8192
    assert all(grids[name] == 8192 for name in _paired_crossing_walks())


def test_each_pair_meeting_in_a_window_needs_its_own_crossing():
    # at 1024 the near pair's avoided crossing and the shift pair's exact
    # crossing meet at the same base angles; the exact one explains only its
    # own pair, so the near pair's steps move the pass to the grid that
    # certifies them.  i z meets i e^{-2i phi} / z where z^2 = e^{-2i phi};
    # each shift also crosses each coin band exactly, four crossings more
    for name, walk in _paired_crossing_walks().items():
        system = track_bands(walk, M)
        assert system.record.grids == (M, 8192), name
        assert sorted(band_shape(system)) == [(1, 1, -1), (1, 1, 0), (1, 1, 0), (1, 1, 1)], name
        phi = 0.3 if name.startswith("turned") else 0.0
        found = np.array(system.record.crossings)
        assert len(found) == 6, name
        for angle in np.array([-phi, np.pi - phi]) % (2 * np.pi):
            assert np.min(np.abs(found - angle)) < 1e-8, name
        for angle in found:  # each one a meeting of two eigenvalues
            vals = np.linalg.eigvals(eval_symbol(walk, np.exp(1j * angle)))
            assert np.sort(np.abs(vals[:, None] - vals[None]).ravel())[len(vals)] < 1e-9, name
        # the least gap sampled at the near pair's avoided crossing, 2 |b| at its minimum
        assert 2e-3 * (1 - 1e-9) <= system.record.avoided_gap < 2.5e-3, name


def _state_rows():
    """name -> (walk, base grids, pass-32768 answer as sorted (d, multiplicity,
    winding)): walks whose avoided crossings are narrower than their base
    grids resolve, so a pass that jumps them gets wrong cycles."""
    def split(seed, n, radius):
        return random_split_step_walk(np.random.default_rng(seed), n, radius)

    plain = [(1, 1, 0), (1, 1, 0)]
    return {
        "near_crossing": (coined_walk(np.sqrt(1 - 1e-6), 1e-3), [1024], plain),
        "split_1602": (split(1602, 6, 2), [64], [(6, 1, 1)]),
        "split_2803": (split(2803, 8, 3), [256], [(1, 1, 0)] * 8),
        "split_3020": (split(3020, 8, 3), [64, 128, 256], [(8, 1, -3)]),
        "split_3023": (split(3023, 4, 3), [64], [(2, 1, -1)] * 2),
        "near_identity_1e-4": (coined_walk(np.sqrt(1 - 1e-4), 1e-2), [64], plain),
        "near_identity_1e-6": (coined_walk(np.sqrt(1 - 1e-6), 1e-3), [64], plain),
    }


def test_state_rows_return_the_fine_pass_answer():
    for name, (walk, grids, want) in _state_rows().items():
        assert sorted(band_shape(fine_pass_system(walk, FINE_GRID))) == want, name
        for grid in grids:
            assert sorted(band_shape(track_bands(walk, grid))) == want, (name, grid)
    # its avoided crossings (width about 1e-7) stay below every grid step
    with pytest.raises(ResolutionError, match=r"at grid 65536 \(MAX_GRID\)"):
        track_bands(coupled_coined_sum(1e-7), 64)


def test_triple_points_certify_at_their_grid():
    # three eigenvalues meet in grover3's square at z = 1 and in its cube at
    # z = exp(+-2 pi i / 3); the bisection places each meeting, so the pass
    # certifies at the grid asked for
    grover = grover_walk_3()
    for exponent, angles in ((2, [0.0]), (3, [0.0, 2 * np.pi / 3, 4 * np.pi / 3])):
        walk = symbol_power(grover, exponent)
        for grid in (256, 1024):
            system = track_bands(walk, grid)
            assert system.base_grid == grid, (exponent, grid)
            assert sorted(band_shape(system)) == [(1, 1, 0), (2, 1, 0)]
            found = system.record.crossings
            assert np.allclose(found, angles, rtol=0, atol=1e-8), (exponent, grid)


def test_crossing_window_is_the_whole_run():
    # a d = 2 model band crossing itself at a slow relative speed leaves runs
    # of 7 to 17 uncertified steps, as many on the doubled grid; one exact
    # crossing in each run explains all its steps, at the same angle on
    # both grids
    walk = build_model_walk(random_unimodular_spec(np.random.default_rng(6), 2, winding=2))
    angles = []
    for grid in (1024, 2048):
        bounds = _grid_bounds(walk, _unitary_eig(walk.grid_eval(grid))[0], _Solved(walk).floor)
        open_steps = np.count_nonzero(bounds[1] <= 2 * bounds[0] + 4 * _Solved(walk).floor)
        assert 3 * 7 <= open_steps <= 3 * 17, grid
        system = track_bands(walk, grid)
        assert system.base_grid == grid and band_shape(system) == [(2, 1, 2)]
        assert system.record.grids == (grid,) and system.record.avoided_gap is None
        angles.append(system.record.crossings)
    assert len(angles[0]) == 3
    assert np.allclose(angles[0], angles[1], rtol=0, atol=1e-9)


def test_crossing_on_a_grid_point_joins_its_runs():
    # grover3's band crosses itself on grid point 0, whose two values form
    # one cluster: step M - 1 certifies, and the uncertified steps M - 2 and 0
    # beside it are explained by the meeting at angle 0, no point solved
    # beyond the grid
    walk = grover_walk_3()
    floor = _Solved(walk).floor
    delta, gap, _linked, _groups = _grid_bounds(walk, _unitary_eig(walk.grid_eval(M))[0], floor)
    assert list(np.flatnonzero(gap <= 2 * delta + 4 * floor)) == [0, M - 2]
    system = track_bands(walk, M)
    assert system.base_grid == M
    assert system.record == TrackingRecord((M,), M, (0.0,), None, None)


def _n2_walks():
    """n = 2 walks: seeded coined walks and the near-avoided crossing (no exact
    crossing), and pairs of opposite phases that cross exactly."""
    walks = {"near_crossing": coined_walk(np.sqrt(1 - 1e-6), 1e-3)}
    rng = np.random.default_rng(700)
    for seed in range(6):
        a = np.sqrt(rng.uniform(0.05, 0.95)) * np.exp(2j * np.pi * rng.uniform())
        b = np.sqrt(1 - abs(a) ** 2) * np.exp(2j * np.pi * rng.uniform())
        walks[f"coined_{seed}"] = coined_walk(a, b)
    walks["shift_pair"] = direct_sum(SymbolMatrix.shift(1), SymbolMatrix.shift(-1))
    # diag(e^i z, 1/z) crosses where z^2 = e^-i, off the grid
    phase = SymbolMatrix.from_terms([-1, 1], [[[0, 0], [0, 1]], [[np.exp(1j), 0], [0, 0]]])
    walks["phase_pair"] = phase
    walks["phase_pair_mixed"] = _conjugate_by(phase, random_constant_unitary(rng, 2))
    return walks


def _discriminant_roots(walk) -> np.ndarray:
    """Roots in z of (tr U)^2 - 4 det U, its Laurent coefficients from char_poly."""
    det, minus_trace, _one = char_poly(walk).coeffs
    disc = poly_sum(
        poly_product(minus_trace, minus_trace),
        LaurentPoly({s: -4 * c for s, c in poly_terms(det).items()}),
    )
    terms = poly_terms(disc)
    high = max(terms)
    coeffs = np.zeros(high - min(terms) + 1, dtype=complex)
    for s, c in terms.items():
        coeffs[high - s] = c
    return np.roots(coeffs)


def test_crossings_match_discriminant_roots_on_n2_walks():
    # an exact crossing of a 2 x 2 walk is a (double) root of the discriminant
    # on the circle; the crossing search must find exactly those angles
    for name, walk in _n2_walks().items():
        found = np.array(track_bands(walk, M).record.crossings)
        roots = _discriminant_roots(walk)
        on_circle = np.angle(roots[np.abs(np.abs(roots) - 1) < 1e-6])
        for angles, others in ((found, on_circle), (on_circle, found)):
            turn = np.angle(np.exp(1j * (angles[:, None] - others[None, :])))
            assert np.all(np.min(np.abs(turn), axis=1, initial=np.inf) < 1e-6), name
        if name.startswith(("shift", "phase")):
            assert len(found) == 2, name
        else:
            assert len(found) == 0, name
    # the near-avoided crossing's nearest root lies about 1e-3 off the circle
    roots = _discriminant_roots(_n2_walks()["near_crossing"])
    assert 1e-4 < np.min(np.abs(np.abs(roots) - 1)) < 1e-2


def test_known_answer_walks_return_their_closed_forms():
    # coins avoiding by 2b from 2e-1 down to 2e-10 keep two winding-0 bands
    # (b <= 1e-5 on MAX_GRID, the bisection fixing the steps through the
    # avoided crossing); exact crossings between summands come back at their
    # angles; all of it plain and conjugated by V(z)
    walks = known_answer_walks()
    narrow = {f"coin_{b:g}{c}" for b in (1e-5, 1e-7, 3e-9, 1e-10) for c in ("", "_conj")}
    assert narrow <= set(walks)
    for name, (walk, answer) in walks.items():
        system = track_bands(walk)
        assert sorted(band_shape(system)) == answer["bands"], name
        assert ct_realizable(system) == all(w == 0 for _d, _m, w in answer["bands"]), name
        found = system.record.crossings
        assert len(found) == len(answer["crossings"]), name
        assert np.allclose(found, answer["crossings"], rtol=0, atol=1e-8), name
        if min(answer["avoided"], default=1.0) <= 2e-5:
            assert system.base_grid == 65536, name
            assert system.record.avoided_gap >= min(answer["avoided"]), name


def test_sum_n8_from_coarse_base_grids_keeps_its_bands():
    # on base grids 64 and 256, steps that level 0 explains hold groups of
    # 3-5 eigenvalues; matching them by extrapolation across the whole coarse
    # step gives wrong bands with exit 0 (today the grid move re-matches them)
    walks = known_answer_walks()
    for name in ("sum_n8", "sum_n8_conj"):
        walk, answer = walks[name]
        assert answer["bands"] == [(1, 1, -1)] + [(1, 1, 0)] * 6 + [(1, 1, 2)]
        for grid in (64, 256):
            assert sorted(band_shape(track_bands(walk, grid))) == answer["bands"], (name, grid)


def test_avoided_crossing_at_the_floor_is_refused():
    # an avoided crossing of width 1e-13 is too narrow to tell from an exact
    # one: neither certified nor met, it is refused, not called exact
    with pytest.raises(ResolutionError, match=r"gap between eigenvalue clusters is 1\.000e-13"):
        track_bands(coined_walk(1.0, 5e-14))


def test_min_cost_assignment_is_optimal(rng):
    # groups reach all n eigenvalues on coarse grids; every size must be exact
    from scipy.optimize import linear_sum_assignment

    for g in range(1, 9):
        for _ in range(50):
            cost = rng.uniform(size=(g, g))
            cols = _min_cost_assignment(cost)
            assert sorted(cols) == list(range(g))
            rows, best = linear_sum_assignment(cost)
            assert cost[np.arange(g), cols].sum() == pytest.approx(cost[rows, best].sum(), abs=1e-12)


def test_direct_sums_certify_every_step(monkeypatch):
    # exact degeneracy is one cluster, not an uncertified crossing: the
    # certified argmin matches every step and no assignment is solved
    import zqwalk.spectral as spectral

    def refuse(cost):
        raise AssertionError("uncertified step")

    monkeypatch.setattr(spectral, "_min_cost_assignment", refuse)
    for seed in range(6):
        assert is_decomposable(track_bands(conjugated_coined_sum(seed)))


def test_step_bound_holds_on_matcher_corpus():
    # Hoffman-Wielandt needs ||U(z_k+1) - U(z_k)||_F <= delta = 2 pi L / M
    for name, walk in _matcher_corpus().items():
        for grid in (1024, 2048):
            symbols = walk.grid_eval(grid)
            steps = np.linalg.norm(np.roll(symbols, -1, axis=0) - symbols, axis=(1, 2))
            assert steps.max() <= _lipschitz(walk) * 2 * np.pi / grid, name


def test_track_requires_unitary():
    bad = SymbolMatrix.from_constant(np.diag([1.0, 2.0]))
    with pytest.raises(UnitarityError):
        track_bands(bad, 64)


def test_track_identity_merges_multiplicity():
    system = track_bands(SymbolMatrix.identity(3), 64)
    assert [(b.d, b.multiplicity) for b in system.bands] == [(1, 3)]
    assert np.max(np.abs(system.bands[0].samples - 1.0)) == 0.0


def test_band_invariants(tracked_corpus, corpus):
    for name, system in tracked_corpus.items():
        walk = corpus[name]
        # unimodular samples and closed cycles
        for band in system.bands:
            assert np.max(np.abs(np.abs(band.samples) - 1.0)) < 1e-9
        # eigenvalue multiset at each base point matches the spectrum
        vals = np.linalg.eigvals(walk.grid_eval(system.base_grid))
        for k in range(0, system.base_grid, 97):
            tracked = np.concatenate(
                [
                    np.repeat(band.samples[k :: system.base_grid], band.multiplicity)
                    for band in system.bands
                ]
            )
            got = np.sort_complex(np.round(tracked, 9))
            want = np.sort_complex(np.round(vals[k], 9))
            assert np.allclose(got, want, atol=1e-7)


def test_winding_examples(tracked_corpus):
    assert winding_numbers(tracked_corpus["coined"]) == [0, 0]
    assert winding_numbers(tracked_corpus["modified"]) == [1]
    assert sorted(winding_numbers(tracked_corpus["grover3"])) == [0, 0]


def test_winding_monomial_band():
    theta = covering_angles(1, 256)
    band = Band(1, np.exp(1j * theta))
    system = EigenSystem((band,), 1, 256)
    assert band.winding == 1
    assert winding_numbers(system) == [1]


def test_windings_are_computed_once_when_tracking(monkeypatch):
    import zqwalk.spectral

    calls = []

    def counting(samples):
        calls.append(len(samples))
        return winding_of_samples(samples)

    monkeypatch.setattr(zqwalk.spectral, "winding_of_samples", counting)
    system = track_bands(modified_coined_walk(), 256)
    # one argument pass per band of the one system built: the double-cover
    # band on grid 256 (no step is open, so the certificate does not run)
    assert calls == [512]
    calls.clear()
    assert winding_numbers(system) == [1]
    assert total_winding(system) == 1
    assert not ct_realizable(system)
    assert calls == []


def test_total_winding(tracked_corpus):
    assert total_winding(tracked_corpus["coined"]) == 0
    assert total_winding(tracked_corpus["modified"]) == 1
    system = refine_system(track_bands(SymbolMatrix.shift(2), 64))
    assert total_winding(system) == 2


def test_ct_realizable(tracked_corpus):
    assert ct_realizable(tracked_corpus["coined"])
    assert not ct_realizable(tracked_corpus["modified"])
    assert ct_realizable(tracked_corpus["grover3"])


def test_decomposability(tracked_corpus):
    assert is_decomposable(tracked_corpus["coined"])
    assert not is_decomposable(tracked_corpus["modified"])
    assert is_decomposable(tracked_corpus["grover3"])


# -- refinement -------------------------------------------------------------------


def test_refine_contracts_rotation_symmetric_band():
    # synthetic degree-2 band carrying lambda(zeta) = zeta^2, which repeats
    # under zeta -> -zeta: the system contracts it, when built, to two copies
    # of eta -> eta
    m = 128
    zeta = np.exp(1j * covering_angles(2, m))
    band = Band(2, zeta**2)
    assert band.winding == 2
    system = EigenSystem((band,), 2, m)
    assert [(b.d, b.multiplicity, b.winding) for b in system.bands] == [(1, 2, 1)]
    eta = np.exp(1j * covering_angles(1, m))
    assert np.max(np.abs(system.bands[0].samples - eta)) < 1e-12
    assert refine_system(system) is system


def test_hand_built_system_is_refined_when_built():
    # coined + coined from its tracked bands, in shuffled order: one band
    # given twice, the other as one degree-2 band carrying it on both sheets
    tracked = track_bands(direct_sum(coined_walk(), coined_walk()), 256)
    a, b = tracked.bands
    assert [(x.d, x.multiplicity) for x in (a, b)] == [(1, 2), (1, 2)]
    twice = Band(2, np.concatenate([b.samples, b.samples]))
    assert EigenSystem((twice, Band(1, a.samples), Band(1, a.samples)), 4, 256) == tracked


def test_band_refuses_degree_and_multiplicity_below_one():
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    with pytest.raises(DomainError, match="must be positive"):
        Band(0, z)
    with pytest.raises(DomainError, match="must be positive"):
        Band(1, z, multiplicity=0)
    with pytest.raises(TypeError):
        Band(1, z, 0)  # the winding is computed, and the multiplicity keyword-only


def test_refine_leaves_irreducible_band(tracked_corpus):
    system = tracked_corpus["modified"]
    again = refine_system(system)
    assert [(b.d, b.multiplicity) for b in again.bands] == [(2, 1)]
    assert rotation_distance(
        again.bands[0].samples, system.bands[0].samples, M
    ) == 0.0


def test_refine_idempotent(tracked_corpus, corpus):
    from zqwalk.spectral import _minimal_rotation_period

    systems = list(tracked_corpus.values())
    cases = [(name, walk, M) for name, walk in corpus.items()]
    cases += [("shift2", SymbolMatrix.shift(2), 64), *_reference_cases()]
    for name, walk, grid in cases:
        # every system is refined when built, so refine_system hands it back
        system = track_bands(walk, grid)
        assert refine_system(system) is system, name
        systems.append(system)
    for system in systems:
        m = system.base_grid
        once = refine_system(system)
        twice = refine_system(once)
        assert [(b.d, b.multiplicity) for b in once.bands] == [
            (b.d, b.multiplicity) for b in twice.bands
        ]
        for b1, b2 in zip(once.bands, twice.bands):
            assert rotation_distance(b1.samples, b2.samples, m) < 1e-12
        # refined bands carry no leftover rotation symmetry
        for band in once.bands:
            assert _minimal_rotation_period(band, m, 1e-6) is None


def test_degenerate_walk_certifies_at_base_grid():
    # inside the double eigenspaces of a conjugated direct sum the raw cycles
    # depend on how eig labels the vectors, which changes from grid to grid;
    # the refined system does not, so the doubling certificate holds at once
    plain = direct_sum(coined_walk(), coined_walk())
    for seed in range(12):
        walk = conjugated_coined_sum(seed)
        system = track_bands(walk, 1024)
        assert system.base_grid == 1024, seed
        assert [(b.d, b.multiplicity) for b in system.bands] == [(1, 2), (1, 2)], seed
        assert winding_numbers(system) == [0, 0], seed
        assert refine_system(system) == system, seed
        assert are_conjugate(plain, walk, base_grid=1024), seed


# -- conjugacy ---------------------------------------------------------------------


def test_conjugate_to_itself(corpus):
    for walk in corpus.values():
        assert are_conjugate(walk, walk, base_grid=256)


def test_conjugate_by_constant_unitary(rng):
    spec = random_unimodular_spec(rng, 2, winding=1)
    walk = build_model_walk(spec)
    v = random_constant_unitary(rng, 2)
    conjugated = compose(
        SymbolMatrix.from_constant(v),
        compose(walk, SymbolMatrix.from_constant(v.conj().T)),
    )
    assert are_conjugate(walk, conjugated, base_grid=256)


def test_opposite_shifts_not_conjugate():
    assert not are_conjugate(SymbolMatrix.shift(1), SymbolMatrix.shift(-1), base_grid=64)


def _conjugate_by(walk, v):
    return compose(
        SymbolMatrix.from_constant(v), compose(walk, SymbolMatrix.from_constant(v.conj().T))
    )


def test_conjugacy_matches_tracked_oracle(corpus):
    # conjugate and non-conjugate pairs, including the near-avoided crossing
    # whose tracked windings are wrong but identical on both sides
    rng = np.random.default_rng(7)
    pairs = list(itertools.combinations_with_replacement(corpus.values(), 2))
    pairs.append((direct_sum(coined_walk(), coined_walk()), conjugated_coined_sum(5)))
    for n in (2, 3, 4, 6):
        walk = random_split_step_walk(np.random.default_rng(500 + n), n, 1 + n % 3)
        other = random_split_step_walk(np.random.default_rng(600 + n), n, 1 + n % 3)
        pairs += [(walk, _conjugate_by(walk, random_constant_unitary(rng, n))), (walk, other)]
    near = coined_walk(np.sqrt(1 - 1e-6), 1e-3)
    pairs.append((near, _conjugate_by(near, random_constant_unitary(rng, 2))))
    verdicts = [are_conjugate(w1, w2) for w1, w2 in pairs]
    assert verdicts == [tracked_conjugacy(w1, w2) for w1, w2 in pairs]
    assert sum(verdicts) == 3 + 1 + 4 + 1


def test_conjugacy_refusal_band():
    walk = coined_walk()
    theta = np.pi / 4 + 1e-9
    nudged = coined_walk(np.cos(theta), np.sin(theta))
    distance = f"{abs(np.cos(theta) - 2**-0.5):.3e}"
    with pytest.raises(ResolutionError, match=re.escape(distance)) as err:
        are_conjugate(walk, nudged)
    assert "1.000e-12" in str(err.value) and "1.000e-06" in str(err.value)
    # at or above tol the verdict is a plain False
    assert not are_conjugate(walk, nudged, tol=1e-10)
    assert not are_conjugate(walk, coined_walk(np.cos(0.3), np.sin(0.3)))


def test_tracking_then_conjugacy_checks_each_walk_once(monkeypatch):
    walk, other = coined_walk(), modified_coined_walk()
    calls = recorded_grid_evals(monkeypatch)
    track_bands(walk, 64)
    assert not are_conjugate(walk, other)
    # UNITARY_GRID = 256: one unitarity grid per walk, then the char-poly grids
    assert [grid for w, grid in calls if w is walk] == [256, 64, 16]
    assert [grid for w, grid in calls if w is other] == [256, 16]


def test_conjugacy_requires_unitary():
    bad = SymbolMatrix.from_constant(np.diag([1.0, 2.0]))
    for w1, w2 in ((bad, coined_walk()), (coined_walk(), bad)):
        with pytest.raises(UnitarityError):
            are_conjugate(w1, w2)


def test_track_conjugation_invariance(rng, corpus):
    walk = corpus["grover3"]
    base = refine_system(track_bands(walk, 256))
    v = random_constant_unitary(rng, 3)
    conjugated = compose(
        SymbolMatrix.from_constant(v),
        compose(walk, SymbolMatrix.from_constant(v.conj().T)),
    )
    other = refine_system(track_bands(conjugated, 256))
    assert sorted((b.d, b.multiplicity) for b in base.bands) == sorted(
        (b.d, b.multiplicity) for b in other.bands
    )
    for band in base.bands:
        partner = min(
            (b for b in other.bands if b.d == band.d),
            key=lambda b: rotation_distance(band.samples, b.samples, 256),
        )
        assert rotation_distance(band.samples, partner.samples, 256) < 1e-8


def test_winding_additivity_under_composition(rng):
    left = random_unimodular_spec(rng, 1, winding=2)
    right = random_unimodular_spec(rng, 1, winding=-1)
    product = compose(build_model_walk(left), build_model_walk(right))
    system = refine_system(track_bands(product, 256))
    assert winding_numbers(system) == [1]


def test_total_winding_of_powers(corpus):
    for name, walk in corpus.items():
        base = total_winding(refine_system(track_bands(walk, 256)))
        for exponent in (2, 3):
            powered = symbol_power(walk, exponent)
            got = total_winding(refine_system(track_bands(powered, 256)))
            assert got == exponent * base, (name, exponent)


# -- reconstruction ------------------------------------------------------------------


def test_bands_reconstruct_char_poly(tracked_corpus, corpus):
    for name, system in tracked_corpus.items():
        f = char_poly(corpus[name])
        for k in range(0, system.base_grid, 111):
            z = np.exp(2j * np.pi * k / system.base_grid)
            want = np.array([c(z) for c in f.coeffs])
            roots = [
                value
                for band in system.bands
                for value in band.samples[k :: system.base_grid]
                for _ in range(band.multiplicity)
            ]
            got = np.poly(roots)[::-1]
            assert np.max(np.abs(got - want)) < 1e-7, name


def test_index_identity_on_generated_walks(rng):
    # sum of mult * winding over the bands is the winding of det U(z), the
    # GNVW index; n up to 10 runs past any dimension cap of char_poly
    walks = [random_split_step_walk(rng, n, 1 + n % 3) for n in range(2, 11)]
    walks += [
        build_model_walk(random_unimodular_spec(rng, d, w))
        for d in (2, 3, 4)
        for w in (1, -1, 2, -2)
    ]
    walks.append(direct_sum(coined_walk(), coined_walk()))
    refused = 0
    for walk in walks:
        try:
            system = refine_system(track_bands(walk, 256))
        except ResolutionError:
            refused += 1
            continue
        det = (-1) ** walk.n * char_poly(walk).coeffs[0].circle_samples(4096)
        index, max_step = winding_of_samples(det)
        assert max_step < np.pi / 2  # the oracle's own loop is resolved
        assert sum(b.multiplicity * b.winding for b in system.bands) == index
    assert refused <= len(walks) // 4


# -- projections ----------------------------------------------------------------------


def frame_weights(walk, system, xi_hat):
    """(velocities, weights) of the limit frame's directions, each (M, n):
    |<u, xi_hat>|^2 for each direction u at each base point."""
    frame = _velocity_frame(walk, system)
    coeffs = (frame.left @ xi_hat[:, :, None])[:, :, 0]
    return frame.velocity, np.abs(coeffs) ** 2


def test_projection_single_channel():
    walk = SymbolMatrix.shift(1)
    system = track_bands(walk, 64)
    xi = StateVector.delta(0, 1, 1)
    weights = frame_weights(walk, system, xi.fourier_samples(system.base_grid))[1]
    assert np.allclose(weights, 1.0)


def test_projection_grover_channel_two(tracked_corpus, corpus):
    walk = corpus["grover3"]
    system = tracked_corpus["grover3"]
    xi = channel_vector(0, [0.0, 1.0, 0.0])
    weights = frame_weights(walk, system, xi.fourier_samples(system.base_grid))[1]
    flat = _velocity_frame(walk, system).atom == 0.0  # the flat band's directions
    assert np.all(np.count_nonzero(flat, axis=1) == 1)
    # at z = 1 the flat band's eigenvector is (1,1,1)/sqrt(3), weight 1/3;
    # away from z = 1 it is (1, (1+z)/2, z) up to norm, so the weight profile
    # is (1 + cos(theta)) / (5 + cos(theta))
    assert weights[flat][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    theta = 2.0 * np.pi * np.arange(system.base_grid) / system.base_grid
    profile = (1.0 + np.cos(theta)) / (5.0 + np.cos(theta))
    assert np.max(np.abs(weights[flat] - profile)) < 1e-10


def test_projection_resolution_of_identity(tracked_corpus, corpus, rng):
    walk = corpus["grover3"]
    system = tracked_corpus["grover3"]
    xi = channel_vector(0, rng.normal(size=3) + 1j * rng.normal(size=3))
    xi = StateVector({k: v / xi.norm() for k, v in xi.amplitudes.items()}, 3)
    xh = xi.fourier_samples(system.base_grid)
    per_point = frame_weights(walk, system, xh)[1].sum(axis=1)
    norms = np.sum(np.abs(xh) ** 2, axis=1)
    assert np.max(np.abs(per_point - norms)) < 1e-9


def _reference_cases():
    """(name, walk, base grid) for the projection and start-point references."""
    cases = [
        ("grover3_grid4096", grover_walk_3(), 4096),
        ("direct_sum", direct_sum(coined_walk(), coined_walk()), 256),
    ]
    for n in range(2, 9):
        walk = random_split_step_walk(np.random.default_rng(300 + n), n, 1 + n % 3)
        cases.append((f"split_n{n}", walk, 256))
    for d in range(2, 5):
        spec = random_unimodular_spec(np.random.default_rng(400 + d), d, winding=1)
        cases.append((f"model_d{d}", build_model_walk(spec), 256))
    return cases


def _velocity_groups(velocity, mass):
    """Per point, the velocities (sorted) and summed masses of the directions
    whose velocities lie within 1e-9 of each other: what the law sees of a
    cluster whose branches share a velocity, whatever basis splits it."""
    order = np.argsort(velocity, axis=1)
    velocity, mass = (np.take_along_axis(x, order, axis=1) for x in (velocity, mass))
    groups = []
    for v, w in zip(velocity, mass):
        start = np.flatnonzero(np.diff(v, prepend=-np.inf) > 1e-9)
        groups.append((v[start], np.add.reduceat(w, start)))
    return groups


def test_band_projections_match_schur_reference(tracked_corpus, corpus):
    # the law per point and direction against a per-point Schur reference that
    # splits each eigenvalue cluster by its velocity block, including grover3's
    # self-collision at z = 1 and the exactly degenerate direct sum; then
    # limit_measure's atoms and moments against the reference's sums
    systems = [(name, corpus[name], tracked_corpus[name]) for name in tracked_corpus]
    systems += [
        (name, walk, refine_system(track_bands(walk, grid)))
        for name, walk, grid in _reference_cases()
    ]
    rng = np.random.default_rng(20240811)
    for name, walk, system in systems:
        m = system.base_grid
        for xi in (StateVector.delta(0, 1, walk.n), random_local_state(rng, walk.n)):
            xh = xi.fourier_samples(m)
            velocity, weights = frame_weights(walk, system, xh)
            ref_v, ref_m = schur_velocity_law(walk, xh)
            got, want = _velocity_groups(velocity, weights / m), _velocity_groups(ref_v, ref_m)
            for (v, w), (rv, rw) in zip(got, want, strict=True):
                assert v.shape == rv.shape, name
                assert np.max(np.abs(v - rv)) < 1e-12, name
                assert np.max(np.abs(w - rw)) < 1e-12 / m, name
            norms = np.sum(np.abs(xh) ** 2, axis=1)
            assert np.max(np.abs(weights.sum(axis=1) - norms)) < 1e-12, name
            measure = limit_measure(walk, xi, system)
            for k in range(5):
                assert abs(limit_moments(measure, k) - np.sum(ref_m * ref_v**k)) < 1e-12, name
            for x, mass in measure.atoms:
                near = np.abs(measure.velocities - x) < 1e-9
                atom = np.sum(ref_m[np.abs(ref_v - x) < 1e-9]) - np.sum(measure.masses[near])
                assert abs(atom - mass) < 1e-12, name


def test_band_velocities_match_fft_reference(corpus):
    # Hellmann-Feynman slopes, including the cluster slopes at grover3's
    # self-collision at z = 1, against the FFT derivative of the argument.  The
    # derivative is taken on a grid of at least 1024 points and subsampled: at
    # grid 256 it is under-resolved for split_n5, n7 and n8 (errors up to 8e-4)
    cases = [(name, walk, 1024) for name, walk in corpus.items()]
    cases += _reference_cases() + [
        ("grover3_grid16384", grover_walk_3(), 16384),
        ("conjugated_sum", conjugated_coined_sum(5), 1024),
        ("shift2", SymbolMatrix.shift(2), 64),
    ]
    # limit_measure keeps a flat band's directions as its atom and every
    # other direction as a sample, in (point, direction) order
    for name, walk, grid in cases:
        fine = refine_system(track_bands(walk, max(grid, 1024)))
        system = subsample_system(fine, grid)
        measure = limit_measure(walk, StateVector.delta(0, 1, walk.n), system)
        step = fine.base_grid // grid
        samples, atoms = [], set()
        for band, ref in zip(fine.bands, fft_band_velocities(fine), strict=True):
            ref = np.repeat(ref[::step], band.multiplicity, axis=1)
            if np.ptp(ref) < 1e-9:
                assert np.max(np.abs(ref - band.winding / band.d)) < 1e-10, name
                atoms.add(band.winding / band.d)
            else:
                samples.append(ref)
        assert sorted(atoms) == [x for x, _mass in measure.atoms], name
        got = np.sort(measure.velocities.reshape(grid, -1), axis=1)
        want = np.sort(np.concatenate(samples or [np.zeros((grid, 0))], axis=1), axis=1)
        assert got.shape == want.shape and np.max(np.abs(got - want), initial=0) < 1e-10, name
        if name == "grover3_grid16384":
            frame = _velocity_frame(walk, system)
            assert np.ptp(frame.velocity[frame.atom == 0.0]) <= 1e-13


# -- the unitary eigensolver -----------------------------------------------------------


def _solver_stacks():
    """name -> an (M, n, n) stack the unitary eigensolver is checked on."""
    grover = grover_walk_3()
    stacks = {
        # an untilted pole opposite the trace sits on grover3's flat band 1
        # (row 199 of grid 256 has trace -0.447)
        "grover3_grid256": grover.grid_eval(256),
        "grover3_grid1024": grover.grid_eval(1024),
        "identity": SymbolMatrix.identity(3).grid_eval(64),
        "minus_identity": np.tile(-np.eye(3, dtype=complex), (8, 1, 1)),
        "trace_zero": np.tile(np.diag([1.0, -1.0]).astype(complex), (8, 1, 1)),
        "double_eigenvalues": conjugated_coined_sum(3).grid_eval(256),
    }
    for n in range(2, 9):
        walk = random_split_step_walk(np.random.default_rng(300 + n), n, 1 + n % 3)
        stacks[f"split_n{n}"] = walk.grid_eval(256)
    for d in range(2, 5):  # unitary to about 1e-12
        spec = random_unimodular_spec(np.random.default_rng(400 + d), d, winding=1)
        stacks[f"model_d{d}"] = build_model_walk(spec).grid_eval(256)
    return stacks


def _matched_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest distance of two (M, n) eigenvalue stacks, each row matched optimally."""
    from scipy.optimize import linear_sum_assignment

    worst = 0.0
    for g, w in zip(got, want, strict=True):
        cost = np.abs(g[:, None] - w[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
    return worst


def test_unitary_eig_solves_unitary_stacks():
    for name, stack in _solver_stacks().items():
        n = stack.shape[1]
        want = np.linalg.eigvals(stack)
        vals, vecs, _retried = _unitary_eig(stack)
        assert _matched_error(vals, want) <= 1e-13, name
        assert np.max(np.abs(vecs.conj().swapaxes(1, 2) @ vecs - np.eye(n))) <= n * 1e-14, name
        assert np.max(np.abs(stack @ vecs - vecs * vals[:, None, :])) <= 1e-13, name
        # every step works row by row: a row alone gives the same bits
        for k in (0, 1, len(stack) // 3, len(stack) - 1):
            alone_vals, alone_vecs, _retried = _unitary_eig(stack[k : k + 1])
            assert np.array_equal(alone_vals[0], vals[k]), name
            assert np.array_equal(alone_vecs[0], vecs[k]), name
        if name == "identity":
            assert np.all(vals == 1.0)


def test_unitary_eig_retries_only_rows_whose_pole_fails(monkeypatch):
    import zqwalk.spectral as spectral

    rows = []
    cayley = spectral._cayley

    def recorded(stack, center):
        rows.append(len(stack))
        return cayley(stack, center)

    monkeypatch.setattr(spectral, "_cayley", recorded)
    # unturned, the first pole of a zero-trace row is 1, on the eigenvalue 1
    # of diag(1, -1): I + W is exactly singular, so solve raises; the
    # diag(i, -i) rows pass with that pole
    monkeypatch.setattr(spectral, "POLE_TURN", 0.0)
    stack = np.concatenate([
        np.tile(np.diag([1.0, -1.0]).astype(complex), (3, 1, 1)),
        np.tile(np.diag([1j, -1j]), (5, 1, 1)),
    ])
    slogdet = _count_calls(monkeypatch, "slogdet")
    vals, vecs, retried = _unitary_eig(stack)
    assert rows == [8, 3] and retried == 3
    assert slogdet == {"slogdet": 1}  # found the singular rows after solve raised
    assert _matched_error(vals, np.linalg.eigvals(stack)) <= 1e-15
    assert np.max(np.abs(stack @ vecs - vecs * vals[:, None, :])) <= 1e-15


def test_unitary_eig_refuses_a_row_no_pole_conditions():
    # far from normal: ||T||_F stays above the bound for every pole
    stack = np.array([np.eye(2), [[1.0, 1e3], [0.0, 1.0]]], dtype=complex)
    with pytest.raises(ResolutionError, match=r"1 of 2 grid points") as refused:
        _unitary_eig(stack)
    found = re.search(r"\|\|T\|\|_F (\S+) above the bound (\S+);", str(refused.value))
    least, bound = map(float, found.groups())
    assert bound < least < 1e4  # the refused row's norms, not the passing row's
    with pytest.raises(ResolutionError, match="no Cayley pole"):
        _unitary_eig(np.full((1, 2, 2), np.nan, dtype=complex))


# -- one eigendecomposition per walk and grid ------------------------------------------


def _count_calls(monkeypatch, *names):
    """Count calls of the named np.linalg functions from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _record_solves(monkeypatch):
    """The rows of every spectral._unitary_eig call from here on."""
    import zqwalk.spectral as spectral

    solves = []

    def recorded(stack):
        solves.append(len(stack))
        return _unitary_eig(stack)

    monkeypatch.setattr(spectral, "_unitary_eig", recorded)
    return solves


def _seeded_split_steps():
    return [
        (f"split_n{n}", random_split_step_walk(np.random.default_rng(300 + n), n, 1 + n % 3))
        for n in range(2, 9)
    ]


@pytest.mark.parametrize("name", ["coined", "grover3", "split_n6"])
def test_one_eigensolve_per_walk_and_grid(name, corpus, monkeypatch):
    walk = dict(corpus, **dict(_seeded_split_steps()))[name]
    counts = _count_calls(monkeypatch, "eig", "eigvals", "inv")
    solves = _record_solves(monkeypatch)
    system = refine_system(track_bands(walk, M))
    assert system.base_grid == M
    rng = np.random.default_rng(20240811)
    for xi in (StateVector.delta(0, 1, walk.n), random_local_state(rng, walk.n)):
        assert limit_measure(walk, xi, system).total_mass == pytest.approx(1.0, abs=1e-9)
    # tracking's eigendecomposition serves both vectors; V is orthonormal, so
    # no inverse, and no general eigensolver runs anywhere in the chain.
    # grover3's crossing sits on the grid point z = 1, so its window needs no
    # solve beyond the grid's
    assert solves == [M]
    assert counts == {"eig": 0, "eigvals": 0, "inv": 0}


def test_escalated_system_keeps_its_decomposition(monkeypatch):
    # base 64 leaves steps no exact crossing explains: the pass moves once,
    # to grid 512, solving only points not solved before (every point once),
    # and the measures reuse the grid-512 decomposition
    walk = random_split_step_walk(np.random.default_rng(5010), 5, 2)
    counts = _count_calls(monkeypatch, "eig", "eigvals", "inv")
    solves = _record_solves(monkeypatch)
    system = refine_system(track_bands(walk, 64))
    assert system.base_grid == 512 and system.record.grids == (64, 512)
    assert solves[0] == 64 and solves == [rows for rows, _retried in system.record.solves]
    tracked = len(solves)
    rng = np.random.default_rng(5011)
    for xi in (StateVector.delta(0, 1, walk.n), random_local_state(rng, walk.n)):
        assert limit_measure(walk, xi, system).total_mass == pytest.approx(1.0, abs=1e-9)
    assert len(solves) == tracked
    assert counts == {"eig": 0, "eigvals": 0, "inv": 0}
    assert agrees_with_fine_pass(system, walk)


def test_record_lists_every_stack_solved(corpus):
    # the record's stacks add up to its points, on the fixtures' one grid and
    # on a walk that moves from 64 to 512; the pinned n = 6 split step
    # retries 94 rows of its one stack
    moving = random_split_step_walk(np.random.default_rng(5010), 5, 2)
    for walk, grid in [(walk, M) for walk in corpus.values()] + [(moving, 64)]:
        record = track_bands(walk, grid).record
        assert sum(rows for rows, _retried in record.solves) == record.points
        assert record.bisect_s > 0
    assert record.grids == (64, 512) and len(record.solves) > 1
    split_n6 = dict(_seeded_split_steps())["split_n6"]
    assert track_bands(split_n6, M).record.solves == ((M, 94),)


def _same_measure(mu, nu) -> bool:
    return (
        mu.atoms == nu.atoms
        and np.array_equal(mu.velocities, nu.velocities)
        and np.array_equal(mu.masses, nu.masses)
    )


def test_projection_cache_is_kept_to_its_walk():
    walk = coined_walk()
    system = refine_system(track_bands(walk, M))
    xi = StateVector.delta(0, 1, 2)
    limit_measure(walk, xi, system)
    # another walk gets its own frame, not the cached one
    other = modified_coined_walk()
    own = limit_measure(other, xi, track_bands(other, M))
    assert _same_measure(limit_measure(other, xi, system), own)
    # the same bands, other eigenvectors: a fresh solve, not the cached frame
    v = random_constant_unitary(np.random.default_rng(11), 2)
    conjugate = compose(
        SymbolMatrix.from_constant(v), compose(walk, SymbolMatrix.from_constant(v.conj().T))
    )
    fresh = EigenSystem(system.bands, system.n, M)
    assert _same_measure(limit_measure(conjugate, xi, system), limit_measure(conjugate, xi, fresh))


def test_cached_projections_equal_fresh_solve(corpus):
    rng = np.random.default_rng(20240811)
    for name, walk in list(corpus.items()) + _seeded_split_steps():
        cached = refine_system(track_bands(walk, M))
        assert cached._solved is not None, name
        fresh = EigenSystem(cached.bands, cached.n, cached.base_grid)
        for xi in (StateVector.delta(0, 1, walk.n), random_local_state(rng, walk.n)):
            mu, nu = limit_measure(walk, xi, cached), limit_measure(walk, xi, fresh)
            assert _same_measure(mu, nu), name
            moments = [limit_moments(mu, k) for k in range(5)]
            assert moments == [limit_moments(nu, k) for k in range(5)], name


def _min_gap(values: np.ndarray) -> float:
    if len(values) < 2:
        return np.inf
    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def test_start_point_matches_per_point_loop(corpus):
    stacks = {name: (walk, 1024) for name, walk in corpus.items()}
    stacks.update((name, (walk, grid)) for name, walk, grid in _reference_cases())
    stacks["shift"] = (SymbolMatrix.shift(1), 64)
    for name, (walk, grid) in stacks.items():
        for m in (grid, 2 * grid):
            vals = np.linalg.eigvals(walk.grid_eval(m))
            reference = int(np.argmax([_min_gap(vals[k]) for k in range(m)]))
            assert _best_separated_point(vals) == reference, name
            if name in ("shift", "direct_sum"):
                # one channel, or every eigenvalue doubled: all gaps tie
                assert reference == 0


# -- specified failure contracts -------------------------------------------------


def test_track_rejects_bad_grid():
    from zqwalk.spectral import MAX_GRID

    with pytest.raises(DomainError, match="power of two"):
        track_bands(SymbolMatrix.identity(1), 100)
    # a base grid must leave a doubling up to MAX_GRID; refused
    # before anything is evaluated, so before the unitarity check too
    for grid in (MAX_GRID, 2 * MAX_GRID):
        with pytest.raises(DomainError, match=f"64..{MAX_GRID // 2}"):
            track_bands(SymbolMatrix.from_constant([[2.0]]), grid)


def test_track_grid_exhaustion(monkeypatch):
    import zqwalk.spectral as spectral

    # this walk leaves windows without an exact crossing at 128, and 256 is
    # beyond reach: the refusal names the grid, the narrowest gap and its bound
    monkeypatch.setattr(spectral, "MAX_GRID", 128)
    walk = random_split_step_walk(np.random.default_rng(5010), 5, 2)
    with pytest.raises(
        ResolutionError, match=r"at grid 128 \(MAX_GRID\).* gap .* is \S+, against its bound"
    ):
        track_bands(walk, 64)


def test_winding_rejects_open_loop():
    from zqwalk import ResolutionError

    theta = 2.0 * np.pi * np.arange(128) / 128
    half_loop = np.exp(0.5j * theta)  # does not close: half a turn
    # a band computes and validates its winding, so it refuses the loop itself
    with pytest.raises(ResolutionError, match="winding not integral"):
        Band(1, half_loop)


def test_limit_answers_cross_band_collision():
    from zqwalk import direct_sum

    walk = direct_sum(SymbolMatrix.shift(1), SymbolMatrix.shift(-1))
    system = track_bands(walk, 64)
    assert sorted(b.winding for b in system.bands) == [-1, 1]
    xi = StateVector({(0, 1): 2**-0.5, (0, 2): 2**-0.5}, 2)
    # the two branches z and 1/z meet at z = +1 and z = -1, which sit on the
    # grid; there the velocity block splits the cluster into the two channels
    measure = limit_measure(walk, xi, system)
    assert [x for x, _mass in measure.atoms] == [-1.0, 1.0]
    assert all(abs(mass - 0.5) <= 1e-15 for _x, mass in measure.atoms)
    assert len(measure.velocities) == 0


def test_limit_on_a_foreign_system_is_the_walks_own():
    # the frame reads the walk and the system's grid, never its bands
    walk = modified_coined_walk()
    system = track_bands(coined_walk(), 1024)
    xi = StateVector.delta(0, 1, 2)
    own = limit_measure(walk, xi, track_bands(walk, 1024))
    assert _same_measure(limit_measure(walk, xi, system), own)


def test_limit_on_a_system_missing_a_branch_is_the_walks_own():
    zero = LaurentPoly.zero()
    walk = SymbolMatrix(2, (
        (LaurentPoly.monomial(1), zero),
        (zero, LaurentPoly.monomial(1, -1.0)),
    ))
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    # claims the branch z twice, so the branch -z has no band; both are flat
    # bands of velocity 1 in the walk, so either channel is one atom at 1
    system = EigenSystem((Band(1, z, multiplicity=2),), 2, 64)
    for channel in (1, 2):
        measure = limit_measure(walk, StateVector.delta(0, channel, 2), system)
        assert measure.atoms == ((1.0, 1.0),), channel
        assert len(measure.velocities) == 0, channel
