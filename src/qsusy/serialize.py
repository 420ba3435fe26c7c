"""JSON and CSV wire formats for exact series.

Rationals travel as strings "p/q" (or "p" for integers) so nothing is ever
rounded; Gaussian rationals as two-element arrays [re, im]. A series is
{"order": N, "coeffs": [[re, im], ...]} with exactly N + 1 entries, and the
CSV form is one row (n, re, im) per coefficient. Round-tripping either format
reproduces the series exactly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from .qcore import GaussRational, format_rational, parse_rational
from .series import PowerSeries

__all__ = [
    "gauss_to_pair",
    "gauss_from_pair",
    "series_to_dict",
    "series_from_dict",
    "series_to_json",
    "series_from_json",
    "series_to_csv",
    "series_from_csv",
]


def gauss_to_pair(g: GaussRational) -> list[str]:
    return [format_rational(g.re), format_rational(g.im)]


def gauss_from_pair(pair: Any) -> GaussRational:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return GaussRational(parse_rational(pair[0]), parse_rational(pair[1]))


def series_to_dict(a: PowerSeries) -> dict[str, Any]:
    return {"order": a.order, "coeffs": [gauss_to_pair(c) for c in a.coeffs]}


def series_from_dict(data: Any) -> PowerSeries:
    if not isinstance(data, dict) or "order" not in data or "coeffs" not in data:
        raise ValueError("series document needs 'order' and 'coeffs' fields")
    order, pairs = data["order"], data["coeffs"]
    # a JSON true is a Python int too, so it has to be refused by name
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise ValueError(f"bad series order: {order!r}")
    if not isinstance(pairs, list):
        raise ValueError(f"series 'coeffs' must be a list of [re, im] pairs, got {pairs!r}")
    coeffs = tuple(gauss_from_pair(p) for p in pairs)
    if len(coeffs) != order + 1:
        raise ValueError(
            f"series of order {order} needs {order + 1} coefficients, got {len(coeffs)}"
        )
    return PowerSeries(coeffs, order)


def series_to_json(a: PowerSeries) -> str:
    return json.dumps(series_to_dict(a), indent=2)


def series_from_json(text: str) -> PowerSeries:
    return series_from_dict(json.loads(text))


def series_to_csv(a: PowerSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "re", "im"])
    for n, c in enumerate(a.coeffs):
        writer.writerow([n, format_rational(c.re), format_rational(c.im)])
    return buf.getvalue()


def series_from_csv(text: str) -> PowerSeries:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["n", "re", "im"]:
        raise ValueError("series CSV needs the header row n,re,im")
    coeffs = []
    for i, row in enumerate(rows[1:]):
        if len(row) != 3 or int(row[0]) != i:
            raise ValueError(f"bad CSV coefficient row {row!r} at position {i}")
        coeffs.append(GaussRational(parse_rational(row[1]), parse_rational(row[2])))
    if not coeffs:
        raise ValueError("series CSV has no coefficient rows")
    return PowerSeries(tuple(coeffs), len(coeffs) - 1)
