"""Command-line front end: constructors, operator application, verification.

Commands:

* ``hermite``, ``beta``, ``ufunc``: build the named series and emit JSON/CSV.
* ``apply``: apply a named operator to a series file; a complex one is two
  real series, and the operator runs on each.
* ``verify``: run an identity suite; exit 0 when every check passes, 1 on the
  first identity failure, 2 on usage errors. Every cell runs at the command's
  order (``--order``, QSUSY_ORDER or 32), never at a suite's own default.
* ``limit``: deviation table of the deformed data from the q = 1 limit along
  a q sweep.
* ``table``: float samples (x, value) of a named series, or of an operator
  applied pointwise to an input series. Where the series path answers (a
  named series, a point that is 0.0 as a float, an undeformed operator), the
  value is the truncated series' exact value at the rational x, rounded once.

All rational flags are parsed exactly: "--q 1.5" means 3/2, never a float.
The environment variable QSUSY_ORDER overrides the default truncation order.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import __version__
from .qcore import (_QUOTE_LIMIT, Deformation, Rational, _Record, _clipped, _quoted, _shown,
                    format_rational, parse_rational)
from .series import PowerSeries
from .qspecial import (
    VacuumSpec,
    beta_q,
    delta_beta_q,
    drift_deviations,
    q_gauss,
    q_hermite,
    u_transform,
)
from .operators import (
    QOperator,
    classical_hermite_op,
    classical_schrodinger_op,
    limit_sweep,
    second_order_composed,
    susy_pair_limit,
    t_minus_q,
    t_plus_q,
)
from .serialize import _csv_text, _json_text, series_from_json, series_to_csv, series_to_json
from .verify import CLASSICAL_MAX_N, SUITES, Cell, CheckResult, cells, run_cell

__all__ = ["RunConfig", "parse_args", "main"]

MIN_ORDER = 4
DEFAULT_SWEEP: tuple[Rational, ...] = (
    Fraction(2),
    Fraction(3, 2),
    Fraction(5, 4),
    Fraction(9, 8),
    Fraction(17, 16),
    Fraction(1),
)


class RunConfig(_Record):
    """Validated run parameters; construction implies the flags parsed cleanly.

    The field defaults are the flags' defaults (see ``_build_parser``).
    """

    __slots__ = ("command", "q", "beta", "order", "n_or_p", "input_path", "output_path", "emit",
                 "suite", "op", "func", "delta", "qs", "xs", "q_given", "beta_given", "order_given",
                 "jobs")

    def __init__(
        self,
        command: str,
        q: Rational = Fraction(1),
        beta: Rational = Fraction(-1, 2),
        order: int = 32,
        n_or_p: int = 0,
        input_path: Optional[str] = None,
        output_path: Optional[str] = None,
        emit: str = "json",
        suite: Optional[str] = None,
        op: Optional[str] = None,
        func: str = "beta",
        delta: bool = False,
        qs: tuple[Rational, ...] = DEFAULT_SWEEP,
        xs: tuple[Rational, ...] = (),
        q_given: bool = False,
        beta_given: bool = False,
        order_given: bool = False,
        jobs: int = 1,
    ) -> None:
        super().__init__(command, q, beta, order, n_or_p, input_path, output_path, emit, suite, op,
                         func, delta, qs, xs, q_given, beta_given, order_given, jobs)


def ThreadPoolExecutor(max_workers: int):
    """A ``concurrent.futures`` thread pool, its module imported on first use.

    Only a multi-cell ``verify --jobs`` run needs a pool, so importing this
    module loads none of ``concurrent.futures``, ``logging``, ``queue`` and
    ``threading``. ``_run_verify`` reads this name when it runs, so a
    replacement put on it (a tracer's pool) is the one it calls.
    """
    import concurrent.futures

    return concurrent.futures.ThreadPoolExecutor(max_workers=max_workers)


def _rational_arg(text: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_rational_arg(text: str) -> Rational:
    value = _rational_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {_quoted(text)}")
    return value


def _nonzero_rational_arg(text: str) -> Rational:
    value = _rational_arg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be nonzero")
    return value


def _rational_list_arg(text: str) -> tuple[Rational, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_rational_arg(part) for part in text.split(","))


def _positive_rational_list_arg(text: str) -> tuple[Rational, ...]:
    values = _rational_list_arg(text)
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("all sweep values must be positive")
    return values


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from exc


def _order_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer order: {_quoted(text)}") from exc
    if value < MIN_ORDER:
        raise argparse.ArgumentTypeError(f"order must be >= {MIN_ORDER}, got {_shown(value)}")
    return value


def _jobs_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {_shown(value)}")
    return value


def _add_common(sub: argparse.ArgumentParser, *, beta: bool = True) -> None:
    default = RunConfig(command="")  # the defaults of its signature
    sub.add_argument("--q", type=_positive_rational_arg,
                     help=f"deformation parameter, exact rational (default {default.q})")
    if beta:
        sub.add_argument("--beta", type=_nonzero_rational_arg,
                         help=f"vacuum coefficient, exact rational (default {default.beta})")
    sub.add_argument("--order", type=_order_arg,
                     help=f"truncation order (default {default.order}, env QSUSY_ORDER)")
    sub.add_argument("--output", dest="output_path", metavar="OUTPUT",
                     help="output path (default stdout)")


# let argparse accept values like "-1/2" or "-1,2,-3/4" after an option flag
_NEGATIVE_VALUE = re.compile(r"^-\d+(?:[/.]\d+)?(?:,-?\d+(?:[/.]\d+)?)*$")


_Parsers = tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]
_PARSERS: Optional[_Parsers] = None


def _parsers() -> _Parsers:
    """The argument parser and its parser per command, built on first use and
    kept for the process.

    They hold no per-call state, so every call can share them. They are kept
    as a constant, not as a cache that could be cleared: a dropped parser is a
    cycle of several hundred objects that waits for the garbage collector.
    """
    global _PARSERS
    if _PARSERS is None:
        _PARSERS = _build_parser()
    return _PARSERS


def _build_parser() -> _Parsers:
    """Each flag's dest is its RunConfig field; a flag left out sets nothing.

    So a default is written once: in RunConfig, or on the one flag whose
    default differs from it (``limit --emit``, ``table --xs``, ``table --p``).
    """
    parser = argparse.ArgumentParser(
        prog="qsusy",
        description="exact q-deformed oscillator intertwining toolkit",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    commands = parser.add_subparsers(dest="command", required=True)

    def add_parser(*args, **kwargs):
        sub = commands.add_parser(*args, argument_default=argparse.SUPPRESS, **kwargs)
        sub._negative_number_matcher = _NEGATIVE_VALUE
        return sub

    def add_n(sub: argparse.ArgumentParser, **kwargs) -> None:
        sub.add_argument("--n", type=_int_arg, dest="n_or_p", metavar="N", **kwargs)

    def add_choice(sub: argparse.ArgumentParser, name: str, choices: Sequence[str], **kwargs):
        # argparse's own message echoes all of a refused value; no choice is
        # longer than the quote limit, so a longer value is refused here
        def choice(text: str) -> str:
            if len(text) > _QUOTE_LIMIT:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {_quoted(text)} (choose from {', '.join(choices)})"
                )
            return text

        sub.add_argument(name, choices=choices, type=choice, **kwargs)

    p = add_parser("hermite", help="deformed Hermite function series")
    add_n(p, help="index n >= 0")
    _add_common(p, beta=False)
    add_choice(p, "--emit", ("json", "csv"))

    p = add_parser("beta", help="drift coefficient series beta_q(x^2)")
    _add_common(p)
    p.add_argument("--delta", action="store_true",
                   help="emit the q-increment beta_q(x^2) - (1/q) beta_q(x^2/q^2)")
    add_choice(p, "--emit", ("json", "csv"))

    p = add_parser("ufunc", help="nodeless transformation function series")
    p.add_argument("--p", type=_int_arg, dest="n_or_p", metavar="P", help="even index p >= 0")
    _add_common(p, beta=False)
    add_choice(p, "--emit", ("json", "csv"))

    p = add_parser("apply", help="apply a named operator to a series file")
    add_choice(p, "--op", OPERATOR_NAMES, required=True)
    add_n(p, help="index for OH/Ophi")
    _add_common(p)
    p.add_argument("--input", required=True, dest="input_path", metavar="INPUT",
                   help="input series JSON path")
    add_choice(p, "--emit", ("json", "csv"))

    p = add_parser("verify", help="run an identity suite")
    add_choice(p, "suite", SUITES + ("all",))
    _add_common(p)
    p.add_argument("--jobs", type=_jobs_arg, help="worker threads for cells")

    p = add_parser("limit", help="deviation table along a q sweep")
    p.add_argument("--qs", type=_positive_rational_list_arg,
                   help="comma-separated sweep, e.g. 2,3/2,5/4 (default standard sweep)")
    _add_common(p)
    add_choice(p, "--emit", ("csv", "json"), default="csv")

    p = add_parser("table", help="float samples of a series or operator")
    add_choice(p, "--func", TABLE_FUNCS)
    add_choice(p, "--op", OPERATOR_NAMES,
               help="sample an operator applied to --input instead of --func")
    p.add_argument("--input", dest="input_path", metavar="INPUT",
                   help="input series JSON for --op mode")
    add_n(p)
    # --func ufunc reads --p and every other function --n, so both are kept
    p.add_argument("--p", type=_int_arg, dest="table_p", metavar="P", default=0)
    p.add_argument("--xs", type=_rational_list_arg, default="-1,-1/2,0,1/2,1",
                   help='comma-separated sample points (default "%(default)s")')
    _add_common(p)
    return parser, commands.choices


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse and check one call's flags; the environment is read on every call.

    When the first argument names a command, that command's parser reads the
    rest at once. The top-level parser would hand it the same arguments, and
    it still reports what is left over; any other argv goes through it.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = vars(parser.parse_args(argv))
    else:
        namespace, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args = {"command": argv[0], **vars(namespace)}
    table_p = args.pop("table_p", None)
    given = {f"{name}_given": name in args for name in ("q", "beta", "order")}
    config = RunConfig(**args, **given)
    env_order = os.environ.get("QSUSY_ORDER")
    if "order" not in args and env_order is not None:
        try:
            config.order = _order_arg(env_order)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"QSUSY_ORDER: {exc}")

    # the named series the command builds: table's --func, or the command itself
    func = config.func if config.command == "table" else config.command
    if func == "ufunc":
        if table_p is not None:
            config.n_or_p = table_p
        if config.n_or_p < 0 or config.n_or_p % 2:
            parser.error(f"--p must be even and >= 0, got {_shown(config.n_or_p)}")
    elif config.n_or_p < 0:
        parser.error(f"--n must be >= 0, got {_shown(config.n_or_p)}")
    if func in ("hermite", "ufunc") and config.order < config.n_or_p + 2:
        parser.error(
            f"order {_shown(config.order)} too small for index {_shown(config.n_or_p)} (needs index + 2)"
        )
    if config.command == "table" and config.op is not None and config.input_path is None:
        parser.error("table --op needs --input")
    return config


# -- emit helpers ---------------------------------------------------------------


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_series(config: RunConfig, series: PowerSeries, im: Optional[PowerSeries] = None) -> int:
    _write((series_to_csv if config.emit == "csv" else series_to_json)(series, im), config.output_path)
    return 0


# -- command implementations -----------------------------------------------------


def _vacuum(config: RunConfig, order: Optional[int] = None) -> VacuumSpec:
    return VacuumSpec(
        beta=config.beta,
        d=Deformation(config.q),
        order=order if order is not None else config.order,
    )


# each --op name and the operator it builds from a config and an order; OH and
# Ophi read only n, so they build no vacuum
_OPERATORS = {
    "Ob": lambda c, order: second_order_composed(_vacuum(c, order), "b"),
    "Of": lambda c, order: second_order_composed(_vacuum(c, order), "f"),
    "Tplus": lambda c, order: t_plus_q(_vacuum(c, order)),
    "Tminus": lambda c, order: t_minus_q(_vacuum(c, order)),
    "h0": lambda c, order: susy_pair_limit(_vacuum(c, order))[0],
    "h1": lambda c, order: susy_pair_limit(_vacuum(c, order))[1],
    "OH": lambda c, order: classical_hermite_op(c.n_or_p),
    "Ophi": lambda c, order: classical_schrodinger_op(c.n_or_p),
}
OPERATOR_NAMES = tuple(_OPERATORS)


def _build_operator(config: RunConfig, min_order: int) -> QOperator:
    """Resolve an --op name; coefficient series are built long enough for the input."""
    return _OPERATORS[config.op](config, max(config.order, min_order))


def _operator_for(config: RunConfig, series: PowerSeries) -> QOperator:
    """The --op operator for an input series, which must be long enough for it."""
    op = _build_operator(config, series.order)
    if series.order < op.order_cost:
        raise ValueError(
            f"--op {config.op} needs an input series of order >= {op.order_cost}, "
            f"got order {series.order}"
        )
    return op


# each table --func name (and dbeta, for beta --delta) and the series it stands for
_NAMED_SERIES = {
    "beta": lambda c: beta_q(_vacuum(c)),
    "dbeta": lambda c: delta_beta_q(_vacuum(c)),
    "gauss": lambda c: q_gauss(_vacuum(c)),
    "hermite": lambda c: q_hermite(c.n_or_p, Deformation(c.q), c.order),
    "ufunc": lambda c: u_transform(c.n_or_p, Deformation(c.q), c.order),
}
TABLE_FUNCS = tuple(_NAMED_SERIES)


def _run_series(config: RunConfig) -> int:
    """hermite, beta [--delta] and ufunc: the command names its series."""
    func = "dbeta" if config.delta else config.command
    return _emit_series(config, _NAMED_SERIES[func](config))


def _load_series(path: str) -> tuple[PowerSeries, Optional[PowerSeries]]:
    """The real and imaginary parts of a series file; None for a zero imaginary part."""
    with open(path, "r", encoding="utf-8") as handle:
        return series_from_json(handle.read())


def _run_apply(config: RunConfig) -> int:
    series, im = _load_series(config.input_path)
    op = _operator_for(config, series)
    # every operator is real, so op(re + i im) = op(re) + i op(im)
    return _emit_series(config, op.apply(series), None if im is None else op.apply(im))


def _check_to_dict(check: CheckResult) -> dict:
    out = {
        "name": check.name,
        "params": dict(sorted(check.params.items())),
        "status": check.status,
        "worst_deviation": check.worst_deviation,
    }
    if check.first_failure_index is not None:
        out["first_failure_index"] = check.first_failure_index
    return out


def _run_verify(config: RunConfig) -> int:
    # each (suite, q, beta) cell is an independent, pure computation; every
    # cell runs at config.order, so never at a suite's own default order
    pins = ((config.q, config.q_given), (config.beta, config.beta_given), (config.order, config.order_given))
    grid = cells(config.suite, *(value if given else None for value, given in pins))
    # cells checks a pinned --order; an order from QSUSY_ORDER is checked here
    if not config.order_given and config.order < CLASSICAL_MAX_N and ("classical", None, None) in grid:
        raise ValueError(
            f"verify {config.suite} needs QSUSY_ORDER >= {CLASSICAL_MAX_N}, got {_shown(config.order)}"
        )

    def one(cell: Cell) -> list[CheckResult]:
        return run_cell(cell, config.order)

    if config.jobs > 1 and len(grid) > 1:
        with ThreadPoolExecutor(max_workers=min(config.jobs, len(grid))) as pool:
            batches = list(pool.map(one, grid))
    else:
        batches = map(one, grid)
    results = [c for batch in batches for c in batch]

    # sorting fixes the output bytes no matter how the cells were scheduled
    results.sort(key=lambda c: (c.name, sorted(c.params.items())))
    # only this report reads the clock, so only verify imports datetime
    from datetime import datetime, timezone

    report = {
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "checks": [_check_to_dict(c) for c in results],
    }
    _write(_json_text(report), config.output_path)
    return 0 if all(c.passed for c in results) else 1


def _run_limit(config: RunConfig) -> int:
    probe = q_gauss(VacuumSpec(beta=Fraction(-1, 2), d=Deformation(1), order=config.order))
    vacuum = lambda d: VacuumSpec(beta=config.beta, d=d, order=config.order)
    rows = []
    for row in limit_sweep(lambda d: second_order_composed(vacuum(d), "b"), config.qs, probe):
        rows.append((row.q, *drift_deviations(vacuum(Deformation(row.q))), row.deviation))

    header = ("q", "beta0_deviation", "drift_deviation", "partner_deviation")

    def csv_row(row: tuple) -> list:
        text = format_rational(row[0])
        try:
            return [text, *map(float, row[1:])]
        except OverflowError as exc:
            raise ValueError(f"limit row q = {_clipped(text)} has a deviation outside the float range") from exc

    if config.emit == "json":
        text = _json_text([dict(zip(header, map(format_rational, row))) for row in rows])
    else:
        text = _csv_text(header, map(csv_row, rows))
    _write(text, config.output_path)
    return 0


def _run_table(config: RunConfig) -> int:
    if config.op is not None:
        series, im = _load_series(config.input_path)
        op = _operator_for(config, series)
        # the q-quotient degenerates where x is 0.0 as a float (x = 0, or a
        # nonzero that underflows), and undeformed operators have no pointwise
        # form at all; only those points read the exact result, taken once,
        # at the exact x
        pointwise = op.has_point_form
        result = None

        def value_at(x: Rational, xf: float) -> Union[float, Rational]:
            nonlocal result
            if im is not None:
                raise ValueError("series has imaginary coefficients; no float value")
            if xf and pointwise:
                return op.apply_at(series.evaluate_float, xf)
            if result is None:
                result = op.apply(series)
            return result.evaluate(x).re

    else:
        series = _NAMED_SERIES[config.func](config)
        value_at = lambda x, xf: series.evaluate(x).re

    def row(x: Rational) -> list[str]:
        text = format_rational(x)
        where = f"table point x = {_clipped(text)}"
        try:
            xf = float(x)
        except OverflowError as exc:
            raise ValueError(f"{where} is outside the float range") from exc
        try:
            value = value_at(x, xf)
        except OverflowError as exc:
            raise ValueError(f"{where}: a series coefficient is past the float range") from exc
        # an exact value is rounded once, here
        try:
            value = float(value)
        except OverflowError as exc:
            raise ValueError(f"{where} has a value past the float range") from exc
        if not math.isfinite(value):
            raise ValueError(f"{where} has no finite value ({value!r})")
        return [text, repr(value)]

    _write(_csv_text(["x", "value"], map(row, config.xs)), config.output_path)
    return 0


_COMMANDS = {
    "hermite": _run_series,
    "beta": _run_series,
    "ufunc": _run_series,
    "apply": _run_apply,
    "verify": _run_verify,
    "limit": _run_limit,
    "table": _run_table,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[config.command](config)
    except (OSError, ValueError) as exc:
        print(f"qsusy: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
