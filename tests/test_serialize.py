from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsusy.qcore import GaussRational
from qsusy.series import PowerSeries, make_series
from qsusy.serialize import (
    gauss_from_pair,
    gauss_to_pair,
    series_from_csv,
    series_from_dict,
    series_from_json,
    series_to_csv,
    series_to_dict,
    series_to_json,
)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=50)
coefficients = st.builds(GaussRational, small_fractions, small_fractions)


def exact_equal(a: PowerSeries, b: PowerSeries) -> bool:
    return a.order == b.order and a.coeffs == b.coeffs


class TestGaussPairs:
    def test_forms(self):
        assert gauss_to_pair(GaussRational(F(3, 2), F(-1, 4))) == ["3/2", "-1/4"]
        assert gauss_to_pair(GaussRational(2, 0)) == ["2", "0"]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            gauss_from_pair(["1/2"])
        with pytest.raises(ValueError):
            gauss_from_pair("1/2")


class TestJson:
    def test_coefficients_past_the_digit_limit(self):
        # a 5000-digit numerator: int/str conversion stops at 4300 digits
        huge = F(10**5000 // 7, 3**11)
        s = make_series([huge, GaussRational(F(1, 2), -huge)], 1)
        back = series_from_json(series_to_json(s))
        assert exact_equal(back, s)
        assert exact_equal(series_from_csv(series_to_csv(s)), s)

    def test_document_shape(self):
        doc = series_to_dict(make_series([1, F(-1, 2)], 2))
        assert doc == {"order": 2, "coeffs": [["1", "0"], ["-1/2", "0"], ["0", "0"]]}

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            series_from_dict({"order": 3, "coeffs": [["1", "0"]]})

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            series_from_dict({"order": "x", "coeffs": []})
        # a bool is an int to Python, but not a series order
        with pytest.raises(ValueError, match="order"):
            series_from_dict({"order": True, "coeffs": [["1", "0"], ["0", "0"]]})

    @pytest.mark.parametrize("coeffs", [5, "1/2", None, {"0": ["1", "0"]}, [5, 6], [["1", "0"], ["1"]]])
    def test_rejects_coeffs_that_are_not_pairs(self, coeffs):
        with pytest.raises(ValueError):
            series_from_dict({"order": 1, "coeffs": coeffs})

    @given(coeffs=st.lists(coefficients, min_size=1, max_size=9))
    def test_round_trip(self, coeffs):
        series = PowerSeries(tuple(coeffs), len(coeffs) - 1)
        assert exact_equal(series_from_json(series_to_json(series)), series)


class TestCsv:
    def test_header_and_rows(self):
        text = series_to_csv(make_series([F(1, 3)], 1))
        assert text.splitlines() == ["n,re,im", "0,1/3,0", "1,0,0"]

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            series_from_csv("0,1,0\n")

    @given(coeffs=st.lists(coefficients, min_size=1, max_size=9))
    def test_round_trip(self, coeffs):
        series = PowerSeries(tuple(coeffs), len(coeffs) - 1)
        assert exact_equal(series_from_csv(series_to_csv(series)), series)
