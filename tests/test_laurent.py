import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqwalk import DomainError, LaurentPoly, SymbolMatrix, compose
from support import poly_product, poly_terms

coeff = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
polys = st.dictionaries(st.integers(-6, 6), coeff, max_size=8).map(LaurentPoly)


def test_canonical_form_drops_dust():
    p = LaurentPoly({0: 1.0, 3: 1e-15, -2: 0.0})
    assert poly_terms(p) == {0: 1.0}


def test_support_bounds():
    p = LaurentPoly({5: 2.0, -2: 1.0})
    assert (p.shifts.tolist(), p.radius) == ([-2, 5], 5)
    assert LaurentPoly.zero().radius == 0
    assert LaurentPoly.zero().is_zero and not len(LaurentPoly.zero().shifts)


def test_eval_monomial_and_zero_point():
    p = LaurentPoly.monomial(-3, 2.0)
    assert p(1j) == pytest.approx(2.0 * (1j) ** -3)
    with pytest.raises(DomainError):
        p(0)


def _as_symbol(p: LaurentPoly) -> SymbolMatrix:
    return SymbolMatrix(1, ((p,),))


def test_mul_matches_convolution():
    # the product of Laurent polynomials is the composition of 1 x 1 symbols
    p = LaurentPoly({0: 1.0, 1: 2.0})
    q = LaurentPoly({-1: 3.0, 1: 1.0})
    want = {-1: 3.0, 0: 6.0, 1: 1.0, 2: 2.0}
    assert poly_terms(poly_product(p, q)) == want
    assert poly_terms(compose(_as_symbol(p), _as_symbol(q)).entries[0][0]) == want


@settings(max_examples=80)
@given(polys, polys)
def test_product_evaluates_pointwise(p, q):
    z = np.exp(0.7j)
    assert poly_product(p, q)(z) == pytest.approx(p(z) * q(z), abs=1e-9)
    product = compose(_as_symbol(p), _as_symbol(q)).entries[0][0]
    assert product.max_coeff_distance(poly_product(p, q)) <= 1e-12
