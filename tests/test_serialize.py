import csv
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsusy.qcore import GaussRational, _shown, format_rational, parse_rational
from qsusy.series import PowerSeries, make_series
from qsusy.serialize import (
    series_from_csv,
    series_from_dict,
    series_from_json,
    series_to_csv,
    series_to_dict,
    series_to_json,
)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=50)
coefficients = st.builds(GaussRational, small_fractions, small_fractions)


def parts_of(coeffs, order=None):
    """The real series (re, im) of Gaussian-rational coefficients; im is None when it is zero."""
    order = len(coeffs) - 1 if order is None else order
    gs = [c if isinstance(c, GaussRational) else GaussRational(c) for c in coeffs]
    gs += [GaussRational(0)] * (order + 1 - len(gs))
    re = PowerSeries([g.re for g in gs], order)
    return re, PowerSeries([g.im for g in gs], order) if any(g.im for g in gs) else None


def exact_equal(a, b) -> bool:
    """Two (re, im) pairs hold the same coefficients and orders."""
    shape = lambda s: None if s is None else (s.order, s.coeffs)
    return list(map(shape, a)) == list(map(shape, b))


def text_pair(g):
    """The [re, im] texts the writers put down for one coefficient."""
    return [format_rational(g.re), format_rational(g.im)]


def value_of_pair(pair):
    """One [re, im] pair read as a GaussRational, or the readers' ValueError."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {_shown(pair)}")
    return GaussRational(parse_rational(pair[0]), parse_rational(pair[1]))


class TestGaussPairs:
    def test_forms(self):
        written = lambda g: series_to_dict(*parts_of([g]))["coeffs"]
        assert written(GaussRational(F(3, 2), F(-1, 4))) == [["3/2", "-1/4"]]
        assert written(GaussRational(2, 0)) == [["2", "0"]]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="expected a"):
            series_from_dict({"order": 0, "coeffs": [["1/2"]]})
        with pytest.raises(ValueError, match="expected a"):
            series_from_dict({"order": 0, "coeffs": ["1/2"]})


class TestJson:
    def test_coefficients_past_the_digit_limit(self):
        # a 5000-digit numerator: int/str conversion stops at 4300 digits
        huge = F(10**5000 // 7, 3**11)
        s = parts_of([huge, GaussRational(F(1, 2), -huge)])
        back = series_from_json(series_to_json(*s))
        assert exact_equal(back, s)
        assert exact_equal(series_from_csv(series_to_csv(*s)), s)

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
        series = parts_of(coeffs)
        assert exact_equal(series_from_json(series_to_json(*series)), series)

    def test_a_complex_document_is_two_real_series(self):
        re, im = series_from_json('{"order": 1, "coeffs": [["1/2", "0"], ["0", "-3"]]}')
        assert (re.order, re.coeffs) == (1, (F(1, 2), 0))
        assert (im.order, im.coeffs) == (1, (0, -3))
        re, im = series_from_json('{"order": 1, "coeffs": [["1/2", "0"], ["0", "0/5"]]}')
        assert im is None and re.coeffs == (F(1, 2), 0)

    def test_the_parts_written_together_have_one_order(self):
        with pytest.raises(ValueError, match="the imaginary part has order 2, the real part 1"):
            series_to_json(make_series([1], 1), make_series([0, 1], 2))


class TestCsv:
    def test_header_and_rows(self):
        text = series_to_csv(make_series([F(1, 3)], 1))
        assert text.splitlines() == ["n,re,im", "0,1/3,0", "1,0,0"]

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            series_from_csv("0,1,0\n")

    @given(coeffs=st.lists(coefficients, min_size=1, max_size=9))
    def test_round_trip(self, coeffs):
        series = parts_of(coeffs)
        assert exact_equal(series_from_csv(series_to_csv(*series)), series)

    @pytest.mark.parametrize("field, echo", [
        # past the csv module's field limit (128 KiB), which raises csv.Error
        ("1" * 10**6 + "x", "malformed series CSV: field larger than field limit"),
        ("1" * 10**5 + "x", "not a rational: '1111"),
    ])
    def test_long_field_is_not_echoed_in_full(self, field, echo):
        with pytest.raises(ValueError) as info:
            series_from_csv(f"n,re,im\n0,1,0\n1,{field},0\n")
        assert echo in str(info.value) and len(str(info.value)) < 1024


@pytest.mark.parametrize("read, text, echo", [
    (series_from_json, json.dumps({"order": 0, "coeffs": [["1"] * 200_000]}),
     "expected a [re, im] pair, got ['1', '1', "),
    (series_from_json, json.dumps({"order": "1" * 10**6, "coeffs": []}), "bad series order: '111"),
    (series_from_json, json.dumps({"order": 0, "coeffs": "1" * 10**6}),
     "'coeffs' must be a list of [re, im] pairs, got '111"),
    (series_from_csv, "n,re,im\n0,1,0," + "x" * 100_000 + "\n", "bad CSV coefficient row ['0', '1', "),
], ids=["pair", "order", "coeffs", "row"])
def test_long_document_part_is_not_echoed_in_full(read, text, echo):
    with pytest.raises(ValueError) as info:
        read(text)
    message = str(info.value)
    assert echo in message and "characters)" in message and len(message) < 1024


@pytest.mark.parametrize("read, text, message", [
    (series_from_json, '{"order": 0, "coeffs": [["1", "0", "2"]]}',
     "expected a [re, im] pair, got ['1', '0', '2']"),
    (series_from_json, '{"order": -1, "coeffs": []}', "bad series order: -1"),
    (series_from_json, '{"order": 0, "coeffs": {"a": 1}}',
     "series 'coeffs' must be a list of [re, im] pairs, got {'a': 1}"),
    (series_from_csv, "n,re,im\n0,1,0,2\n", "bad CSV coefficient row ['0', '1', '0', '2'] at position 0"),
], ids=["pair", "order", "coeffs", "row"])
def test_short_document_part_keeps_its_message(read, text, message):
    with pytest.raises(ValueError) as info:
        read(text)
    assert str(info.value) == message


# -- the numerator reader and writer against the per-coefficient path -----------

HUGE = F(-(10**5000 // 7), 3**11)


def layout(parts):
    """The stored forms of a pair (re, im) of real series."""
    return [None if s is None else (s.order, s.num, s.den) for s in parts]


def outcome(fn, *args):
    """The pair's stored forms, or the exception's type and message."""
    try:
        return layout(fn(*args))
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def reference_from_dict(data):
    """The reader as it was: one validated GaussRational per coefficient."""
    order, pairs = data["order"], data["coeffs"]
    coeffs = tuple(map(value_of_pair, pairs))
    if len(coeffs) != order + 1:
        raise ValueError(f"series of order {order} needs {order + 1} coefficients, got {len(coeffs)}")
    return parts_of(coeffs)


def reference_from_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    coeffs = []
    for i, row in enumerate(rows[1:]):
        if len(row) != 3 or int(row[0]) != i:
            raise ValueError(f"bad CSV coefficient row {row!r} at position {i}")
        coeffs.append(GaussRational(parse_rational(row[1]), parse_rational(row[2])))
    return parts_of(coeffs)


def csv_text(pairs):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "re", "im"])
    for n, pair in enumerate(pairs):
        writer.writerow([n, *pair])
    return buf.getvalue()


EDGE_TEXTS = [
    # what format_rational writes, and unreduced forms of it
    "3", "-3", "0", "-0", "3/4", "-3/4", "2/4", "-6/8", "0/5", "-0/7", "007", "10/100",
    "1" * 5000, "-" + "1" * 5000 + "/" + "7" * 4999 + "0",
    # other text parse_rational accepts
    "+3", " 3 ", "3 /4", "1.5", "-.25", "1e3", "3_0", "٣", "0." + "1" * 5000,
    # JSON values that are not strings
    3, -7, 1.5, True,
    # rejected, each with parse_rational's message
    None, "", "-", "--3", "/3", "3/", "3/0", "3/00", "6/-3", "3/4/5", "x", "1" * 5000 + "x",
    "1" * 5000 + "/0", [1, 2],
]


class TestNumeratorReader:
    def test_huge_exponent_rejected_at_once(self):
        doc = {"order": 1, "coeffs": [["1", "0"], ["1e10000000", "0"]]}
        with pytest.raises(ValueError, match="past 4300"):
            series_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="past 4300"):
            series_from_csv("n,re,im\n0,1,0\n1,0,-1e-999999999\n")

    @pytest.mark.parametrize("text", EDGE_TEXTS, ids=lambda t: repr(t)[:20])
    def test_edge_text_agrees_with_reference(self, text):
        doc = {"order": 2, "coeffs": [[text, "0"], ["1/3", text], ["-5/6", "1/2"]]}
        assert outcome(series_from_dict, doc) == outcome(reference_from_dict, doc)
        if isinstance(text, str) and text and text.isprintable():
            rows = csv_text(doc["coeffs"])
            assert outcome(series_from_csv, rows) == outcome(reference_from_csv, rows)

    @pytest.mark.parametrize("doc", [
        {"order": 3, "coeffs": [["1", "x"]]},  # a bad value is reported before the length
        {"order": 3, "coeffs": [["1", "0"]]},
        {"order": 0, "coeffs": [["1", "0"], ["2", "0"]]},
        {"order": 1, "coeffs": [["1", "0"], ["1"]]},
        {"order": 1, "coeffs": [["x", "0"], ["1"]]},
    ])
    def test_rejections_agree_with_reference(self, doc):
        got = outcome(series_from_dict, doc)
        assert got == outcome(reference_from_dict, doc)
        assert got[0] is ValueError

    @given(
        coeffs=st.lists(coefficients, min_size=1, max_size=9),
        scales=st.lists(st.integers(min_value=1, max_value=60), min_size=18, max_size=18),
    )
    def test_unreduced_input(self, coeffs, scales):
        # every part written as (k p)/(k q); k = 1 on an integer gives plain "p"
        def text(x, k):
            return str(x.numerator) if k == 1 and x.denominator == 1 else f"{x.numerator * k}/{x.denominator * k}"

        pairs = [[text(c.re, scales[2 * n]), text(c.im, scales[2 * n + 1])] for n, c in enumerate(coeffs)]
        doc = {"order": len(coeffs) - 1, "coeffs": pairs}
        want = layout(reference_from_dict(doc))
        assert layout(series_from_dict(doc)) == want
        assert layout(series_from_csv(csv_text(pairs))) == want
        assert want == layout(parts_of(coeffs))


class TestNumeratorWriter:
    def check(self, coeffs, order):
        s = parts_of(coeffs, order)
        gs = [c if isinstance(c, GaussRational) else GaussRational(c) for c in coeffs]
        pairs = [text_pair(c) for c in gs] + [["0", "0"]] * (order + 1 - len(coeffs))
        assert series_to_dict(*s)["coeffs"] == pairs
        assert series_to_csv(*s) == csv_text(pairs)
        assert layout(series_from_json(series_to_json(*s))) == layout(s)

    def test_examples(self):
        # zero, integers over a common denominator of 6, negative, complex, 5000 digits
        self.check([0, 3, F(-1, 2), F(1, 3), -7], 5)
        self.check([GaussRational(F(-1, 2), 5), 0, GaussRational(0, F(-2, 3)), 4], 3)
        self.check([HUGE, 2, GaussRational(F(1, 2), -HUGE), 0], 3)
        self.check([], 2)

    @given(coeffs=st.lists(coefficients, min_size=1, max_size=9))
    def test_matches_per_coefficient_pairs(self, coeffs):
        self.check(coeffs, len(coeffs) - 1)


huge_parts = st.integers(min_value=4301, max_value=4400).flatmap(
    lambda digits: st.integers(min_value=10 ** (digits - 1), max_value=10**digits - 1)
).flatmap(lambda n: st.sampled_from([n, -n, F(n, 7), F(-3, n)]))
real_parts = st.one_of(small_fractions, huge_parts)


class TestDirectJsonWriter:
    """series_to_json writes the bytes of json.dumps(series_to_dict(a), indent=2)."""

    @given(st.one_of(
        st.lists(real_parts.map(GaussRational), min_size=1, max_size=6),
        st.lists(st.builds(GaussRational, real_parts, real_parts), min_size=1, max_size=6),
    ))
    def test_random_real_and_complex(self, coeffs):
        a = parts_of(coeffs)
        assert series_to_json(*a) == json.dumps(series_to_dict(*a), indent=2)

    @given(st.lists(real_parts, min_size=1, max_size=6))
    def test_wire_text_is_format_rational(self, values):
        # one formatter writes both: the writer reads numerators, format_rational a Fraction
        a = parts_of([GaussRational(x, -x) for x in values])
        pairs = json.loads(series_to_json(*a))["coeffs"]
        assert pairs == [[format_rational(F(x)), format_rational(-F(x))] for x in values]

    @pytest.mark.parametrize("a", [
        (PowerSeries([], -1), None),
        parts_of([], 0),
        parts_of([F(-1, 2)]),
        parts_of([GaussRational(0, 1)]),
        parts_of([HUGE, GaussRational(F(1, 2), -HUGE)], 3),
    ])
    def test_examples(self, a):
        assert series_to_json(*a) == json.dumps(series_to_dict(*a), indent=2)
