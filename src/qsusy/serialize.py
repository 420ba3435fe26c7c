"""JSON and CSV wire formats for exact series.

Rationals travel as strings "p/q" (or "p" for integers) so nothing is ever
rounded; Gaussian rationals as two-element arrays [re, im]. A series is
{"order": N, "coeffs": [[re, im], ...]} with exactly N + 1 entries, and the
CSV form is one row (n, re, im) per coefficient.

Series are real, so a document is two real series: the readers return the
pair (re, im), with im None when every imaginary part is zero, and the
writers take re and an optional im. Round-tripping either format reproduces
the pair exactly; at the command line, ``apply`` runs its operator on each
part. Both directions work on the stored numerators: the writer reduces each
one against its part's denominator, and the reader puts each part's
numerators over one lcm, with no GaussRational per coefficient.

A series document has its own writer, ``series_to_json``, which writes the
indent-2 layout directly: its texts need no JSON escape, and the stdlib's
indenting encoder runs in pure Python. ``_json_text`` writes every other
JSON document (verify reports, ``limit --emit json``) with the same layout.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Iterable, Iterator, Optional, Sequence

from .qcore import _ratio_text, _shown, parse_rational
from .series import PowerSeries, _from_ratios

__all__ = [
    "series_to_dict",
    "series_from_dict",
    "series_to_json",
    "series_from_json",
    "series_to_csv",
    "series_from_csv",
]


def _checked_pair(pair: Any) -> Any:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {_shown(pair)}")
    return pair


# -- writer: straight from the stored numerators ---------------------------------


_Parts = tuple[PowerSeries, Optional[PowerSeries]]


def _text_pairs(re: PowerSeries, im: Optional[PowerSeries]) -> Iterator[list[str]]:
    """The [re, im] texts of each coefficient; im, when given, must have re's order."""
    den = re.den
    if im is None:
        return ([_ratio_text(x, den), "0"] for x in re.num)
    if im.order != re.order:
        raise ValueError(f"the imaginary part has order {im.order}, the real part {re.order}")
    return ([_ratio_text(x, den), _ratio_text(y, im.den)] for x, y in zip(re.num, im.num))


# -- reader: straight to numerators over one denominator -------------------------


def _parts(text: Any) -> tuple[int, int]:
    """(numerator, denominator > 0) of one wire rational, not necessarily reduced.

    Text in the form format_rational writes (ASCII "-?digits" or
    "-?digits/digits" with a nonzero denominator, within the int/str digit
    limit) is read as two ints. Anything else goes through parse_rational,
    which accepts or rejects it with its own message.
    """
    if type(text) is str:
        top, slash, bottom = text.partition("/")
        digits = top[1:] if top[:1] == "-" else top
        if digits.isascii() and digits.isdigit() and (
            not slash or bottom.isascii() and bottom.isdigit()
        ):
            try:
                num, den = int(top), int(bottom) if slash else 1
            except ValueError:  # past the int/str digit limit
                pass
            else:
                if den:
                    return num, den
    value = parse_rational(text)
    return value.numerator, value.denominator


def _read(order: int, rows: Iterable[Sequence[Any]]) -> _Parts:
    """The parts (re, im) of the coefficients rows[n] = (re, im), as wire text;
    im is None when it is zero."""
    nums: list[int] = []
    dens: list[int] = []
    for pair in rows:
        for text in pair:
            # half the parts of a typical series are zero
            num, den = (0, 1) if text == "0" else _parts(text)
            nums.append(num)
            dens.append(den)
    if len(nums) != 2 * (order + 1):
        raise ValueError(
            f"series of order {_shown(order)} needs {_shown(order + 1)} coefficients, "
            f"got {len(nums) // 2}"
        )
    im = nums[1::2]
    return (
        _from_ratios(order, nums[0::2], dens[0::2]),
        _from_ratios(order, im, dens[1::2]) if any(im) else None,
    )


def series_to_dict(re: PowerSeries, im: Optional[PowerSeries] = None) -> dict[str, Any]:
    return {"order": re.order, "coeffs": list(_text_pairs(re, im))}


def series_from_dict(data: Any) -> _Parts:
    if not isinstance(data, dict) or "order" not in data or "coeffs" not in data:
        raise ValueError("series document needs 'order' and 'coeffs' fields")
    order, pairs = data["order"], data["coeffs"]
    # a JSON true is a Python int too, so it has to be refused by name
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise ValueError(f"bad series order: {_shown(order)}")
    if not isinstance(pairs, list):
        raise ValueError(f"series 'coeffs' must be a list of [re, im] pairs, got {_shown(pairs)}")
    return _read(order, map(_checked_pair, pairs))


def _json_text(document: Any) -> str:
    """The program's one JSON form: indented by two spaces, keys in the order given."""
    return json.dumps(document, indent=2)


def _csv_text(header: Sequence[Any], rows: Iterable[Sequence[Any]]) -> str:
    """The program's one CSV form: the header row, then the rows, each ended by a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def series_to_json(re: PowerSeries, im: Optional[PowerSeries] = None) -> str:
    """``_json_text(series_to_dict(re, im))``, written straight from the coefficient texts.

    Those hold only ASCII "-", digits and "/", which JSON writes as they
    are, so the fixed indent-2 layout is all there is to write.
    """
    rows = ",\n".join(f'    [\n      "{x}",\n      "{y}"\n    ]' for x, y in _text_pairs(re, im))
    coeffs = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "order": {re.order},\n  "coeffs": {coeffs}\n}}'


def series_from_json(text: str) -> _Parts:
    try:
        return series_from_dict(json.loads(text))
    except RecursionError as exc:
        raise ValueError("series document is nested too deeply") from exc


def series_to_csv(re: PowerSeries, im: Optional[PowerSeries] = None) -> str:
    return _csv_text(["n", "re", "im"], ([n, *pair] for n, pair in enumerate(_text_pairs(re, im))))


def series_from_csv(text: str) -> _Parts:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise ValueError(f"malformed series CSV: {exc}") from exc
    if not rows or rows[0] != ["n", "re", "im"]:
        raise ValueError("series CSV needs the header row n,re,im")
    if len(rows) == 1:
        raise ValueError("series CSV has no coefficient rows")
    return _read(len(rows) - 2, map(_checked_row, range(len(rows) - 1), rows[1:]))


def _checked_row(i: int, row: list[str]) -> list[str]:
    if len(row) != 3 or int(row[0]) != i:
        raise ValueError(f"bad CSV coefficient row {_shown(row)} at position {i}")
    return row[1:]
