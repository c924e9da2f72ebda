import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqwalk import DomainError, LaurentPoly

coeff = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
polys = st.dictionaries(st.integers(-6, 6), coeff, max_size=8).map(LaurentPoly)


def test_canonical_form_drops_dust():
    p = LaurentPoly({0: 1.0, 3: 1e-15, -2: 0.0})
    assert p.support == (0,)
    assert p[3] == 0


def test_support_bounds():
    p = LaurentPoly({-2: 1.0, 5: 2.0})
    assert (p.min_shift, p.max_shift, p.radius) == (-2, 5, 5)
    assert LaurentPoly.zero().radius == 0
    with pytest.raises(DomainError):
        LaurentPoly.zero().min_shift


def test_eval_monomial_and_zero_point():
    p = LaurentPoly.monomial(-3, 2.0)
    assert p(1j) == pytest.approx(2.0 * (1j) ** -3)
    with pytest.raises(DomainError):
        p(0)


def test_mul_matches_convolution():
    p = LaurentPoly({0: 1.0, 1: 2.0})
    q = LaurentPoly({-1: 3.0, 1: 1.0})
    assert (p * q).coeffs == {-1: 3.0, 0: 6.0, 1: 1.0, 2: 2.0}


def test_conj_reflect_example():
    p = LaurentPoly({2: 1 + 1j})
    assert p.conj_reflect().coeffs == {-2: 1 - 1j}


@settings(max_examples=80)
@given(polys, polys)
def test_product_evaluates_pointwise(p, q):
    z = np.exp(0.7j)
    assert (p * q)(z) == pytest.approx(p(z) * q(z), abs=1e-9)


@settings(max_examples=80)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert ((p + q) + r).allclose(p + (q + r), 1e-9)
    assert ((p * q) * r).allclose(p * (q * r), 1e-6)
    assert (p * (q + r)).allclose(p * q + p * r, 1e-6)


@settings(max_examples=80)
@given(polys)
def test_conj_reflect_involution(p):
    assert p.conj_reflect().conj_reflect().allclose(p, 0.0)
