import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit.cfrac import (
    ContinuedFraction,
    continued_fraction_of_string,
    reverse_cf,
    string_of_cf,
)
from splicekit.errors import NonReducedFraction


def test_empty_string():
    cf = continued_fraction_of_string([])
    assert (cf.numerator, cf.denominator) == (1, 0)
    assert string_of_cf(cf) == ()
    assert reverse_cf(cf) == cf


def test_single_minus_one():
    cf = continued_fraction_of_string([-1])
    assert (cf.numerator, cf.denominator) == (1, 1)
    assert string_of_cf(cf) == (-1,)
    assert reverse_cf(cf) == cf


def test_two_twos():
    cf = continued_fraction_of_string([-2, -2])
    assert (cf.numerator, cf.denominator) == (3, 2)
    rev = reverse_cf(cf)
    assert (rev.numerator, rev.denominator) == (3, 2)
    assert (2 * 2) % 3 == 1


def test_two_four():
    cf = continued_fraction_of_string([-2, -4])
    assert (cf.numerator, cf.denominator) == (7, 4)
    rev = reverse_cf(cf)
    assert (rev.numerator, rev.denominator) == (7, 2)
    assert (4 * 2) % 7 == 1
    assert continued_fraction_of_string([-4, -2]) == rev


def test_non_reduced_rejected():
    with pytest.raises(NonReducedFraction):
        ContinuedFraction(4, 2)


def test_non_canonical_has_no_string():
    cf = continued_fraction_of_string([-1, -2])
    assert (cf.numerator, cf.denominator) == (1, 2)
    with pytest.raises(ValueError):
        string_of_cf(cf)
    with pytest.raises(ValueError, match="^1/2 is outside the canonical range$"):
        reverse_cf(cf)


@pytest.mark.parametrize("weights", [[0], [-2, 0], [-3, 1, -2]])
def test_weight_above_minus_one_rejected(weights):
    with pytest.raises(ValueError, match="^string weights must be <= -1$"):
        continued_fraction_of_string(weights)


quasi_minimal_strings = st.one_of(
    st.just(()),
    st.just((-1,)),
    st.lists(st.integers(min_value=-7, max_value=-2), min_size=1, max_size=8).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(quasi_minimal_strings)
def test_round_trip(weights):
    cf = continued_fraction_of_string(list(weights))
    assert string_of_cf(cf) == weights
    assert reverse_cf(reverse_cf(cf)) == cf
    reversed_string = tuple(reversed(weights))
    assert continued_fraction_of_string(list(reversed_string)) == reverse_cf(cf)
