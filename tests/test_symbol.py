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
from zqwalk.model import ModelWalkSpec
from support import (
    entrywise_adjoint,
    entrywise_compose,
    entrywise_direct_sum,
    entrywise_power,
    random_split_step_walk,
    random_symbol,
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
    assert f.coeffs[2].allclose(LaurentPoly.one())
    assert f.coeffs[1].allclose(LaurentPoly({1: -R, -1: -R}))
    assert f.coeffs[0].allclose(LaurentPoly.one())


def test_char_poly_modified():
    f = char_poly(modified_coined_walk())
    assert f.coeffs[1].allclose(LaurentPoly({1: -R, 0: -R}))
    assert f.coeffs[0].allclose(LaurentPoly.monomial(1))


def test_char_poly_grover():
    f = char_poly(grover_walk_3())
    third = 1.0 / 3.0
    sym = LaurentPoly({1: third, 0: third, -1: third})
    assert f.coeffs[2].allclose(sym)
    assert f.coeffs[1].allclose(-1.0 * sym)
    assert f.coeffs[0].allclose(LaurentPoly.constant(-1.0))


def test_char_poly_shift_1x1():
    f = char_poly(SymbolMatrix.shift(1))
    assert f.coeffs[0].allclose(LaurentPoly.monomial(1, -1.0))
    assert f.coeffs[1].allclose(LaurentPoly.one())


def test_char_poly_beyond_dimension_eight(rng):
    f = char_poly(SymbolMatrix.identity(9))
    want = [(-1) ** (9 - k) * comb(9, k) for k in range(10)]  # (lambda - 1)^9
    assert all(c.coeffs == {0: w} for c, w in zip(f.coeffs, want))
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


def _assert_matches_entrywise(got, want, tol=1e-13):
    assert got.n == want.n
    for got_row, want_row in zip(got.entries, want.entries):
        for g, w in zip(got_row, want_row):
            assert g.support == w.support
            assert g.max_coeff_distance(w) <= tol
    # the array itself is pruned and trimmed: its nonzeros are the terms above
    shifts = [s for row in want.entries for p in row for s in p.support]
    assert np.count_nonzero(got.coeffs) == len(shifts)
    assert (got.low, len(got.coeffs)) == (
        (min(shifts), max(shifts) - min(shifts) + 1) if shifts else (0, 0)
    )


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
