import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

from zqwalk import (
    DecayClass,
    DomainError,
    LaurentPoly,
    SymbolMatrix,
    adjoint,
    build_model_walk,
    char_poly,
    classify_decay,
    coined_walk,
    compose,
    direct_sum,
    eval_symbol,
    grover_walk_3,
    modified_coined_walk,
    symbol_power,
    verify_cayley_hamilton,
    verify_unitary_symbol,
)
from zqwalk import io as zio
from zqwalk.circle import MAX_CONE_VALUES, alias_free_grid
from zqwalk.laurent import PRUNE_TOL
from zqwalk.model import ModelWalkSpec
from zqwalk.spectral import MAX_GRID
from support import (
    composed_power,
    entrywise_adjoint,
    entrywise_compose,
    entrywise_direct_sum,
    entrywise_power,
    horner_cayley_hamilton,
    pinned_walks,
    poly_terms,
    random_split_step_walk,
    random_symbol,
    random_unimodular_spec,
    recorded_grid_evals,
)

R = 2**-0.5


def test_eval_hadamard_at_one():
    got = eval_symbol(coined_walk(), 1.0)
    want = R * np.array([[1, -1], [1, 1]])
    assert np.allclose(got, want, atol=1e-14)


def test_eval_identity_anywhere():
    walk = SymbolMatrix.identity(3)
    z = np.exp(0.3j)
    assert np.allclose(eval_symbol(walk, z), np.eye(3))


def test_eval_shift_monomial():
    assert eval_symbol(SymbolMatrix.shift(1), 1j) == pytest.approx(
        np.array([[1j]])
    )


def test_eval_rejects_origin():
    with pytest.raises(DomainError):
        eval_symbol(SymbolMatrix.shift(1), 0)


def test_unitarity_pass_and_fail():
    ok = verify_unitary_symbol(coined_walk())
    assert ok.passed and ok.max_deviation < 1e-12
    ident = verify_unitary_symbol(SymbolMatrix.identity(2))
    assert ident.passed and ident.max_deviation == 0.0
    bad = verify_unitary_symbol(SymbolMatrix.from_constant(np.diag([1.0, 2.0])))
    assert not bad.passed
    assert bad.max_deviation == pytest.approx(3.0, abs=1e-12)


# -- characteristic polynomials ------------------------------------------------


def test_char_poly_coined():
    f = char_poly(coined_walk())
    assert f.degree == 2
    assert f.coeffs[2].max_coeff_distance(LaurentPoly.one()) <= 1e-12
    assert f.coeffs[1].max_coeff_distance(LaurentPoly({1: -R, -1: -R})) <= 1e-12
    assert f.coeffs[0].max_coeff_distance(LaurentPoly.one()) <= 1e-12


def test_char_poly_modified():
    f = char_poly(modified_coined_walk())
    assert f.coeffs[1].max_coeff_distance(LaurentPoly({1: -R, 0: -R})) <= 1e-12
    assert f.coeffs[0].max_coeff_distance(LaurentPoly.monomial(1)) <= 1e-12


def test_char_poly_grover():
    f = char_poly(grover_walk_3())
    third = 1.0 / 3.0
    sym = LaurentPoly({1: third, 0: third, -1: third})
    minus_sym = LaurentPoly({1: -third, 0: -third, -1: -third})
    assert f.coeffs[2].max_coeff_distance(sym) <= 1e-12
    assert f.coeffs[1].max_coeff_distance(minus_sym) <= 1e-12
    assert f.coeffs[0].max_coeff_distance(LaurentPoly({0: -1.0})) <= 1e-12


def test_char_poly_shift_1x1():
    f = char_poly(SymbolMatrix.shift(1))
    assert f.coeffs[0].max_coeff_distance(LaurentPoly.monomial(1, -1.0)) <= 1e-12
    assert f.coeffs[1].max_coeff_distance(LaurentPoly.one()) <= 1e-12


def test_char_poly_beyond_dimension_eight(rng):
    f = char_poly(SymbolMatrix.identity(9))
    want = [(-1) ** (9 - k) * comb(9, k) for k in range(10)]  # (lambda - 1)^9
    assert all(poly_terms(c) == {0: w} for c, w in zip(f.coeffs, want))
    z = np.exp(2j * np.pi * (np.arange(7) + 0.37) / 7)  # off every FFT grid
    for n in (10, 12):
        walk = random_split_step_walk(rng, n, 1)
        f = char_poly(walk)
        assert verify_cayley_hamilton(walk, 256) < 1e-10
        for point in z:
            want = np.poly(eval_symbol(walk, point))[::-1]
            got = np.array([c(point) for c in f.coeffs])
            assert np.max(np.abs(got - want)) < 1e-11


def test_char_poly_constant_term_unimodular(corpus):
    # the lambda^0 coefficient is det(U), unimodular on the circle
    for walk in corpus.values():
        f = char_poly(walk)
        vals = f.coeffs[0].circle_samples(64)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_cayley_hamilton_corpus(corpus):
    for walk in corpus.values():
        assert verify_cayley_hamilton(walk, 256) < 1e-10


def test_cayley_hamilton_identity_exact():
    assert verify_cayley_hamilton(SymbolMatrix.identity(2), 64) == 0.0


def test_cayley_hamilton_at_roundoff_on_far_shifts_and_fixtures():
    # the char-poly coefficients are sampled with the exact phases of U itself
    for shift in (100000, 1000003):
        assert verify_cayley_hamilton(SymbolMatrix.shift(shift)) <= 1e-15, shift
    for path in sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json")):
        walk = zio.parse_spec(path.read_text())
        if isinstance(walk, ModelWalkSpec):
            walk = build_model_walk(walk)
        if isinstance(walk, SymbolMatrix):
            assert verify_cayley_hamilton(walk) <= 1.1e-15, path.name


def test_cayley_hamilton_matches_horner_oracle():
    walks = [random_split_step_walk(np.random.default_rng(700 + n), n, 1 + n % 3)
             for n in range(1, 10)]
    walks.append(SymbolMatrix.shift(100000))
    walks += [direct_sum(SymbolMatrix.identity(1), SymbolMatrix.shift(k)) for k in (1, 7, 1000)]
    for walk in walks:
        got = verify_cayley_hamilton(walk)
        assert abs(got - horner_cayley_hamilton(walk)) <= 1e-14, walk.n
        assert got < 1e-10


def test_walk_keeps_its_char_poly_and_unitarity_verdict(monkeypatch):
    walk = random_split_step_walk(np.random.default_rng(5), 5, 2)
    calls = recorded_grid_evals(monkeypatch)
    f = char_poly(walk)
    verify_cayley_hamilton(walk)
    assert char_poly(walk) is f
    # one Faddeev-LeVerrier grid, then the Cayley-Hamilton grid
    reach = 2 * walk.n * walk.propagation_radius
    assert [grid for _w, grid in calls] == [alias_free_grid(16, reach), alias_free_grid(256, reach)]
    report = verify_unitary_symbol(walk)
    assert verify_unitary_symbol(walk) is report and len(calls) == 3
    # a fresh walk with the same terms computes its own
    again = SymbolMatrix.from_terms(walk.shifts, walk.coeffs)
    assert char_poly(again) is not f and len(calls) == 4
    assert repr(again) == repr(walk) and again != walk


def test_unitarity_grid_touches_only_live_shifts():
    # diag(1, z^1000) has two live coefficients among 1001 shift rows; its
    # 4096-point grid is sampled through those two
    walk = direct_sum(SymbolMatrix.identity(1), SymbolMatrix.shift(1000))
    tracemalloc.start()
    try:
        report = verify_unitary_symbol(walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 5e6


# -- compose / adjoint ----------------------------------------------------------


def test_compose_shifts_cancel():
    assert compose(SymbolMatrix.shift(1), SymbolMatrix.shift(-1)).allclose(
        SymbolMatrix.identity(1)
    )


def test_compose_with_adjoint_is_identity():
    spec = ModelWalkSpec(1, LaurentPoly.monomial(2))
    walk = build_model_walk(spec)
    assert compose(walk, adjoint(walk)).allclose(SymbolMatrix.identity(1))


def test_model_product_rule():
    one_step = ModelWalkSpec(2, LaurentPoly.monomial(1))
    squared = compose(build_model_walk(one_step), build_model_walk(one_step))
    direct = build_model_walk(ModelWalkSpec(2, LaurentPoly.monomial(2)))
    assert squared.allclose(direct)


def test_adjoint_involution_and_group_laws(corpus):
    walks = list(corpus.values())
    for walk in walks:
        assert adjoint(adjoint(walk)).allclose(walk)
        assert compose(walk, adjoint(walk)).allclose(SymbolMatrix.identity(walk.n), 1e-12)
    two_state = [w for w in walks if w.n == 2]
    a, b = two_state[0], two_state[1]
    assert compose(compose(a, b), a).allclose(compose(a, compose(b, a)), 1e-12)


def test_compose_dimension_mismatch():
    with pytest.raises(DomainError):
        compose(SymbolMatrix.identity(2), SymbolMatrix.identity(3))


def test_eval_of_compose_is_matrix_product(corpus):
    a = corpus["coined"]
    b = corpus["modified"]
    prod = compose(a, b)
    for z in np.exp(2j * np.pi * np.arange(16) / 16):
        assert np.allclose(
            eval_symbol(prod, z), eval_symbol(a, z) @ eval_symbol(b, z), atol=1e-12
        )


def test_symbol_power_matches_repeated_compose():
    walk = coined_walk()
    assert symbol_power(walk, 3).allclose(compose(walk, compose(walk, walk)))
    assert symbol_power(walk, 0).allclose(SymbolMatrix.identity(2))


def test_symbol_power_equals_composing_onto_the_identity():
    # the small pinned walks: every power up to 70, bit for bit
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    names = ("hadamard", "grover3", "shift1_model", "model_d4", "coined_plus_modified")
    walks = pinned_walks(fixtures)
    for name in names:
        walk = walks[name][0]
        for t in range(71):
            got, want = symbol_power(walk, t), composed_power(walk, t)
            assert np.array_equal(got.shifts, want.shifts) and got.coeffs.dtype == want.coeffs.dtype
            assert np.array_equal(got.coeffs, want.coeffs), (name, t)


def _assert_matches_entrywise(got, want, tol=1e-13):
    assert got.n == want.n
    for got_row, want_row in zip(got.entries, want.entries):
        for g, w in zip(got_row, want_row):
            assert np.array_equal(g.shifts, w.shifts)
            assert g.max_coeff_distance(w) <= tol
    # the arrays hold exactly the terms above, one row per live shift
    assert np.count_nonzero(got.coeffs) == sum(len(p.shifts) for row in want.entries for p in row)
    assert np.array_equal(got.shifts, want.shifts)


@pytest.mark.parametrize("seed", range(10))
def test_array_algebra_matches_entrywise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a, b, c = random_symbol(rng, n), random_symbol(rng, n), random_symbol(rng, 2)
    u = random_split_step_walk(rng, n, int(rng.integers(1, 4)))
    u_star = entrywise_adjoint(u)
    t = int(rng.integers(0, 17))
    cases = [
        (compose(a, b), entrywise_compose(a, b)),
        (adjoint(a), entrywise_adjoint(a)),
        (direct_sum(a, c, b), entrywise_direct_sum(a, c, b)),
        # exact cancellations: U U* = I, also blockwise beside a generic block
        (compose(u, adjoint(u)), entrywise_compose(u, u_star)),
        (
            compose(direct_sum(c, adjoint(u)), direct_sum(c, u)),
            entrywise_compose(entrywise_direct_sum(c, u_star), entrywise_direct_sum(c, u)),
        ),
        (symbol_power(u, t), entrywise_power(u, t)),
    ]
    for got, want in cases:
        _assert_matches_entrywise(got, want)
    assert compose(u, adjoint(u)).allclose(SymbolMatrix.identity(n), 1e-13)


# -- the live-shift form ----------------------------------------------------------


def _assert_live_shift_form(obj):
    """Sorted int64 shifts, one row per shift, no zero row, no coefficient below
    PRUNE_TOL, both arrays read-only."""
    assert obj.shifts.dtype == np.int64 and len(obj.coeffs) == len(obj.shifts)
    assert np.all(np.diff(obj.shifts) > 0)
    assert np.all(np.any(obj.coeffs != 0, axis=tuple(range(1, obj.coeffs.ndim))))
    assert np.all(np.abs(obj.coeffs[obj.coeffs != 0]) >= PRUNE_TOL)
    assert not obj.shifts.flags.writeable and not obj.coeffs.flags.writeable


@pytest.mark.parametrize("seed", range(10))
def test_every_symbol_is_in_live_shift_form(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 5))
    a, b = random_symbol(rng, n), random_symbol(rng, n)
    u = random_split_step_walk(rng, n, int(rng.integers(1, 4)))
    # unsorted repeated shifts: -1 cancels exactly, 5 is below PRUNE_TOL
    mats = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    mats[4], mats[5] = -mats[1], 1e-15
    terms = SymbolMatrix.from_terms([2, -1, 2, 0, -1, 5], mats)
    assert terms.shifts.tolist() == [0, 2]
    assert np.array_equal(terms.coeffs, np.stack([mats[3], mats[0] + mats[2]]))
    poly = LaurentPoly.from_terms([3, -1, 3, 7], [1.0, 2.0, -1.0, 1e-15])
    assert poly_terms(poly) == {-1: 2.0}
    walks = [
        a, b, u, terms, SymbolMatrix(n, a.entries), SymbolMatrix.identity(n),
        SymbolMatrix.shift(-3), SymbolMatrix.from_constant(np.diag(np.arange(n))),
        compose(a, b), adjoint(a), direct_sum(a, b, u), symbol_power(u, 5),
        compose(u, adjoint(u)), build_model_walk(random_unimodular_spec(rng, n, 1)),
    ]
    for walk in walks:
        _assert_live_shift_form(walk)
        for row in walk.entries:
            for entry in row:
                _assert_live_shift_form(entry)
    for c in (poly, *char_poly(u).coeffs):
        _assert_live_shift_form(c)


def test_repeated_spec_terms_settle_to_the_live_shift_form():
    # (1, 1, shift 3) appears three times and cancels; (1, 1, -1) twice
    term = lambda s, re: {"shift": s, "re": re, "im": 0.0}  # noqa: E731
    walk = zio.walk_from_json({"n": 2, "entries": [
        {"row": 1, "col": 1, "terms": [term(3, 0.5), term(-1, 0.25), term(3, 0.25)]},
        {"row": 2, "col": 1, "terms": [term(1, 1.0)]},
        {"row": 1, "col": 1, "terms": [term(3, -0.75), term(-1, 0.5)]},
    ]})
    _assert_live_shift_form(walk)
    assert walk.shifts.tolist() == [-1, 1]
    assert walk.coefficient_sequences()[-1].tolist() == [[0.75, 0], [0, 0]]
    assert walk.coefficient_sequences()[1].tolist() == [[0, 0], [1.0, 0]]


def test_far_shifts_store_their_terms_and_refuse_their_span():
    far = direct_sum(SymbolMatrix.identity(1), SymbolMatrix.shift(10**9))
    assert far.shifts.tolist() == [0, 10**9] and far.propagation_radius == 10**9
    assert adjoint(far).shifts.tolist() == [-(10**9), 0]
    assert np.allclose(far(np.exp(0.25j)), np.diag([1.0, np.exp(0.25j * 10**9)]))
    # the product's span stack and the unitarity grid are refused, not allocated
    with pytest.raises(DomainError, match=f"above {MAX_CONE_VALUES}"):
        compose(far, far)
    with pytest.raises(DomainError, match=f"above {MAX_CONE_VALUES}"):
        verify_unitary_symbol(far)
    # the bound leaves tracking of n <= 16 at MAX_GRID allowed
    assert 16 * 16 * MAX_GRID <= MAX_CONE_VALUES


# -- decay classification --------------------------------------------------------


def test_classify_shift_finite_propagation():
    cls = classify_decay(SymbolMatrix.shift(1), cutoff=6)
    assert cls.kind == "finite_propagation" and cls.radius == 1


def test_classify_decay_contract(corpus):
    # the fixture walks, nearest-neighbour, and seeded split-step walks n = 2..8
    # of n - 1 layers, whose propagation radius is n - 1
    cases = [(walk, 1) for walk in corpus.values()]
    for n in range(2, 9):
        cases.append((random_split_step_walk(np.random.default_rng(300 + n), n, n - 1), n - 1))
    for walk, radius in cases:
        assert max(abs(s) for s in walk.coefficient_sequences()) == radius
        for cutoff in (radius + 1, radius + 4):
            if cutoff >= 4:
                assert classify_decay(walk, cutoff) == DecayClass("finite_propagation", radius)
        # coefficients reaching the cutoff, or a cutoff below 4, are refused
        for cutoff in set(range(radius + 1)) | set(range(4)):
            with pytest.raises(DomainError):
                classify_decay(walk, cutoff)


def test_classify_small_cutoff_errors():
    with pytest.raises(DomainError):
        classify_decay(SymbolMatrix.identity(1), cutoff=3)


def test_corpus_unitarity_tolerance(corpus):
    for name, walk in corpus.items():
        report = verify_unitary_symbol(walk)
        assert report.passed and report.max_deviation < 1e-9, (name, report.max_deviation)
