import argparse
import csv
import io
import json
import re
from datetime import datetime, timedelta, timezone
from fractions import Fraction as F

import pytest

from qsusy import __version__
from qsusy.cli import DEFAULT_SWEEP, OPERATOR_NAMES, main, parse_args
from qsusy.operators import QOperator
from qsusy.qcore import Deformation
from qsusy.qspecial import VacuumSpec, beta_q, delta_beta_q, q_gauss, q_hermite, u_transform
from qsusy.serialize import series_from_csv, series_from_json, series_to_json
from qsusy.series import PowerSeries, make_series
from qsusy.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_gauss(tmp_path, beta=F(-1, 2), q=F(2), order=16):
    v = VacuumSpec(beta=beta, d=Deformation(q), order=order)
    path = tmp_path / "series.json"
    path.write_text(series_to_json(q_gauss(v)))
    return path


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "qsusy", "beta", "--q", "2", "--order", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert series_from_json(proc.stdout)[0].coeff(0) == F(-5, 4)


def test_coefficients_past_the_digit_limit(tmp_path):
    # the coefficients of this series reach about 5000 decimal digits
    path = tmp_path / "beta.json"
    code = main(["beta", "--q", "65/64", "--beta", "-1/2", "--order", "128", "--output", str(path)])
    assert code == 0
    series = series_from_json(path.read_text())[0]
    assert series.order == 128
    assert series.den.bit_length() * 0.301 > 4300
    v = VacuumSpec(beta=F(-1, 2), d=Deformation(F(65, 64)), order=128)
    assert series == beta_q(v)


class TestParsing:
    def test_valid_hermite(self):
        config = parse_args(["hermite", "--n", "3", "--q", "3/2", "--order", "24"])
        assert config.command == "hermite"
        assert config.q == F(3, 2)
        assert config.n_or_p == 3
        assert config.order == 24

    def test_decimal_q_is_exact(self):
        config = parse_args(["hermite", "--n", "1", "--q", "1.5"])
        assert config.q == F(3, 2)

    def test_zero_q_rejected(self, capsys):
        code, _, err = run(capsys, "hermite", "--q", "0")
        assert code == 2

    def test_malformed_rational_rejected(self, capsys):
        code, _, _ = run(capsys, "beta", "--q", "x/y")
        assert code == 2

    def test_small_order_rejected(self, capsys):
        code, _, _ = run(capsys, "beta", "--order", "3")
        assert code == 2

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("hermite", "--q", "1e300000", "--order", "4"),
        ("beta", "--beta=-1e-4301"),
        ("limit", "--qs", "2,1e999999999"),
        ("table", "--xs", "0,1e10000000"),
    ])
    def test_huge_exponent_rejected_at_once(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "past 4300, the int/str digit limit" in err

    @pytest.mark.parametrize("argv, echo", [
        (("hermite", "--q", "1" * 10**6 + "x"), "(1000001 characters)"),
        (("hermite", "--q", "1" * 10**6 + "e5000"), "(1000005 characters) is past 4300"),
        (("hermite", "--q", "-" + "1" * 10**6), "must be positive, got '-111"),
        (("hermite", "--order", "1" * 10**6 + "x"), "not an integer order: '111"),
        (("hermite", "--n", "1" * 10**6 + "x"), "--n: invalid int value: '111"),
        (("ufunc", "--p", "1" * 10**6 + "x"), "--p: invalid int value: '111"),
        (("table", "--func", "ufunc", "--p", "1" * 10**6), "--p: invalid int value: '111"),
        (("verify", "all", "--jobs", "1" * 10**6 + "x"), "--jobs: invalid int value: '111"),
        (("apply", "--op", "O" * 10**6, "--input", "x"), "--op: invalid choice: 'OOO"),
        (("table", "--op", "O" * 10**6, "--input", "x"), "--op: invalid choice: 'OOO"),
        (("table", "--func", "b" * 10**6), "--func: invalid choice: 'bbb"),
        (("hermite", "--emit", "j" * 10**6), "--emit: invalid choice: 'jjj"),
        (("limit", "--emit", "c" * 10**6), "--emit: invalid choice: 'ccc"),
        (("verify", "k" * 10**6), "suite: invalid choice: 'kkk"),
        # an index is read as an int (up to 4,300 digits) and refused after parsing
        (("hermite", "--n", "1" * 4000), "too small for index 1111111111"),
        (("ufunc", "--p", "1" * 4000), "--p must be even and >= 0, got 1111111111"),
        (("ufunc", "--p", "-" + "2" * 4000), "--p must be even and >= 0, got -2222222222"),
        (("hermite", "--n", "-" + "1" * 4000), "--n must be >= 0, got -1111111111"),
        (("apply", "--op", "OH", "--n", "-" + "1" * 4000, "--input", "x"), "--n must be >= 0, got -1111111111"),
        # so is an order, and a table point that has no float value
        (("hermite", "--order", "-" + "1" * 4000), "order must be >= 4, got -1111111111"),
        (("QSUSY_ORDER=-" + "1" * 4000, "hermite"), "QSUSY_ORDER: order must be >= 4, got -1111111111"),
        (("hermite", "--order", "1" * 4000, "--n", "2" * 4000), "order 1111111111"),
        (("table", "--func", "beta", "--q", "3/2", "--xs", "1e4000"), "table point x = 1000000000"),
    ])
    def test_long_flag_is_not_echoed_in_full(self, capsys, monkeypatch, argv, echo):
        # a leading NAME=value sets the environment, as in a shell
        if "=" in argv[0]:
            name, _, value = argv[0].partition("=")
            monkeypatch.setenv(name, value)
            argv = argv[1:]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert echo in err and len(err.encode()) < 1024

    @pytest.mark.parametrize("argv, label, kwargs", [
        (("hermite", "--n"), "--n", {"type": int}),
        (("table", "--func", "ufunc", "--p"), "--p", {"type": int}),
        (("apply", "--input", "x", "--op"), "--op", {"choices": OPERATOR_NAMES}),
        (("verify",), "suite", {"choices": SUITES + ("all",)}),
    ])
    def test_refused_value_keeps_argparse_message_to_64_characters(self, capsys, argv, label, kwargs):
        value = "x" * 64
        plain = argparse.ArgumentParser(exit_on_error=False)
        plain.add_argument("--x", **kwargs)
        with pytest.raises(argparse.ArgumentError) as info:
            plain.parse_args(["--x", value])
        code, _, err = run(capsys, *argv, value)
        assert code == 2 and err.endswith(f"error: argument {label}: {info.value.message}\n")
        code, _, err = run(capsys, *argv, value + "y")
        assert code == 2 and f"argument {label}: invalid " in err
        assert f"{value!r}... (65 characters)" in err

    @pytest.mark.parametrize("argv", [
        ("hermite", "--n", "5", "--order", "6"),
        ("ufunc", "--p", "6", "--order", "7"),
        ("table", "--func", "hermite", "--n", "5", "--order", "6"),
        ("table", "--func", "ufunc", "--p", "6", "--order", "7"),
    ])
    def test_order_too_small_for_the_index(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "too small for index" in err

    def test_odd_p_rejected(self, capsys):
        code, _, _ = run(capsys, "ufunc", "--p", "3")
        assert code == 2

    def test_negative_rational_value(self):
        config = parse_args(["beta", "--beta", "-1/2", "--q", "2"])
        assert config.beta == F(-1, 2)

    def test_env_order_override(self, monkeypatch):
        monkeypatch.setenv("QSUSY_ORDER", "12")
        assert parse_args(["beta", "--q", "2"]).order == 12
        monkeypatch.setenv("QSUSY_ORDER", "2")
        with pytest.raises(SystemExit):
            parse_args(["beta", "--q", "2"])

    def test_explicit_order_beats_env(self, monkeypatch):
        monkeypatch.setenv("QSUSY_ORDER", "12")
        assert parse_args(["beta", "--order", "8"]).order == 8

    COMMON = dict(
        q=F(1), beta=F(-1, 2), order=32, n_or_p=0, input_path=None, output_path=None,
        emit="json", suite=None, op=None, func="beta", delta=False,
        qs=(F(2), F(3, 2), F(5, 4), F(9, 8), F(17, 16), F(1)), xs=(),
        q_given=False, beta_given=False, order_given=False, jobs=1,
    )

    @pytest.mark.parametrize("argv, fields", [
        (["hermite"], {}),
        (["beta"], {}),
        (["ufunc"], {}),
        (["apply", "--op", "h0", "--input", "in.json"], {"op": "h0", "input_path": "in.json"}),
        (["verify", "kernel"], {"suite": "kernel"}),
        (["limit"], {"emit": "csv"}),
        (["table"], {"xs": (F(-1), F(-1, 2), F(0), F(1, 2), F(1))}),
    ], ids=lambda v: v[0] if isinstance(v, list) else "")
    def test_defaults_without_optional_flags(self, monkeypatch, argv, fields):
        monkeypatch.delenv("QSUSY_ORDER", raising=False)
        parsed = parse_args(argv)
        # every field of the record, which are the names in its __slots__
        config = {name: getattr(parsed, name) for name in type(parsed).__slots__}
        assert config == {"command": argv[0], **self.COMMON, **fields}

    @pytest.mark.parametrize("command, metavars", [
        ("hermite", ["[--n N]", "[--q Q]", "[--order ORDER]", "[--output OUTPUT]", "[--emit {json,csv}]"]),
        ("beta", ["[--q Q]", "[--beta BETA]", "[--output OUTPUT]", "[--delta]"]),
        ("ufunc", ["[--p P]", "[--output OUTPUT]"]),
        ("apply", ["--op {Ob,Of,Tplus,Tminus,h0,h1,OH,Ophi}", "[--n N]", "[--output OUTPUT]",
                   "--input INPUT"]),
        ("verify", ["[--output OUTPUT]", "[--jobs JOBS]"]),
        ("limit", ["[--qs QS]", "[--output OUTPUT]", "[--emit {csv,json}]"]),
        ("table", ["[--func {beta,dbeta,gauss,hermite,ufunc}]", "[--input INPUT]", "[--n N]",
                   "[--p P]", "[--xs XS]", "[--output OUTPUT]"]),
    ])
    def test_help_usage_names(self, capsys, monkeypatch, command, metavars):
        monkeypatch.setenv("COLUMNS", "200")
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        usage = out.split("\n\n")[0]
        for metavar in metavars:
            assert metavar in usage

    def test_parser_is_built_once(self):
        from qsusy.cli import _parsers

        parsers = _parsers()
        first = parse_args(["hermite", "--n", "2", "--q", "3/2"])
        second = parse_args(["beta", "--q", "5/4", "--delta"])
        assert _parsers() is parsers
        # nothing of one call leaks into the next through the shared parser
        assert (first.command, first.n_or_p, first.delta) == ("hermite", 2, False)
        assert (second.command, second.q, second.delta) == ("beta", F(5, 4), True)


# argv forms whose parse must not depend on which parser reads the command
DISPATCH_FORMS = [
    (), ("-h",), ("--help",), ("frobnicate",), ("--", "beta"), ("-x", "beta"),
    ("beta",), ("beta", "-h"), ("beta", "--he"), ("beta", "--help", "extra"),
    ("beta", "--"), ("beta", "--", "--q", "2"), ("beta", "--q"), ("beta", "--q", "2", "extra"),
    ("beta", "extra", "more"), ("beta", "--q=3/2", "--beta", "-1/2"), ("beta", "--q", "2", "--q", "3"),
    ("beta", "--delta=1"), ("beta", "-q", "2"), ("beta", "--qq", "2"), ("beta", "--order", "many"),
    ("hermite", "--n=2"), ("hermite", "--n", "-1"), ("hermite", "--n"), ("hermite", "--n", "2", "-x"),
    ("apply", "--op", "h0"), ("apply", "--op", "X", "--input", "a"), ("verify",),
    ("verify", "kernel", "leibniz"), ("verify", "--jobs", "0", "all"), ("limit", "--qs", "-1,2"),
    ("table", "--xs", "-1/2,1"), ("table", "--op", "Tplus"), ("ufunc", "--p", "3"),
]


@pytest.mark.parametrize("argv", DISPATCH_FORMS, ids=" ".join)
def test_command_parser_reads_argv_as_the_top_level_parser_does(capsys, monkeypatch, argv):
    from qsusy import cli

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("QSUSY_ORDER", raising=False)

    def outcome():
        try:
            result = parse_args(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        out = capsys.readouterr()
        return result, out.out, out.err

    parser, commands = cli._parsers()
    top_level = []
    monkeypatch.setattr(parser, "parse_args", lambda args: top_level.append(args) or
                        argparse.ArgumentParser.parse_args(parser, args))
    direct = outcome()
    # a command name first skips the top-level parser
    assert bool(top_level) == (not argv or argv[0] not in commands)
    # with no command parser to call, every argv goes through the top level
    monkeypatch.setattr(cli, "_PARSERS", (parser, {}))
    assert outcome() == direct


class TestSeriesCommands:
    def test_hermite_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "hermite", "--n", "2", "--q", "3/2", "--order", "10")
        assert code == 0
        series = series_from_json(out)[0]
        assert series.order == 8
        want = q_hermite(2, Deformation(F(3, 2)), 10)
        assert series.coeffs == want.coeffs

    def test_beta_csv(self, capsys):
        code, out, _ = run(
            capsys, "beta", "--q", "2", "--beta", "-1/2", "--order", "8", "--emit", "csv"
        )
        assert code == 0
        series = series_from_csv(out)[0]
        v = VacuumSpec(beta=F(-1, 2), d=Deformation(F(2)), order=8)
        assert series.coeffs == beta_q(v).coeffs

    def test_beta_delta_flag(self, capsys):
        code, out, _ = run(capsys, "beta", "--q", "1", "--order", "8", "--delta")
        assert code == 0
        assert series_from_json(out)[0].is_zero

    def test_ufunc_output_file(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        code, _, _ = run(
            capsys, "ufunc", "--p", "2", "--q", "3/2", "--order", "8", "--output", str(path)
        )
        assert code == 0
        series = series_from_json(path.read_text())[0]
        assert series.coeff(0) == F(13, 6)

    def test_round_trip_through_apply(self, capsys, tmp_path):
        # the emitted JSON is bit-exact: re-reading and re-emitting is stable
        code, out, _ = run(capsys, "hermite", "--n", "1", "--q", "2", "--order", "8")
        assert code == 0
        first = series_from_json(out)[0]
        path = tmp_path / "h1.json"
        path.write_text(out)
        assert series_from_json(path.read_text())[0].coeffs == first.coeffs


class TestApply:
    def test_kernel_through_cli(self, capsys, tmp_path):
        src = write_gauss(tmp_path)
        out_path = tmp_path / "out.json"
        code, _, _ = run(
            capsys,
            "apply", "--op", "Tplus", "--q", "2", "--beta", "-1/2",
            "--input", str(src), "--output", str(out_path),
        )
        assert code == 0
        result = series_from_json(out_path.read_text())[0]
        assert result.order == 15
        assert result.is_zero

    def test_hermite_operator(self, capsys, tmp_path):
        from qsusy.qspecial import classical_hermite

        path = tmp_path / "h3.json"
        path.write_text(series_to_json(classical_hermite(3, 12)))
        code, out, _ = run(capsys, "apply", "--op", "OH", "--n", "3", "--input", str(path))
        assert code == 0
        assert series_from_json(out)[0].is_zero

    @pytest.mark.parametrize("op", OPERATOR_NAMES)
    @pytest.mark.parametrize("q, beta", [("3/2", "-1/2"), ("2/3", "1/2")])
    def test_complex_input_is_its_real_part_plus_i_times_its_imaginary_part(self, capsys, tmp_path, op, q, beta):
        # every operator is real, so op(re + i im) = op(re) + i op(im); each
        # part of the byte contract's complex.json is run from a real file
        from test_output_digests import COMPLEX

        doc = json.loads(COMPLEX)
        outputs = {}
        for name, part in (("complex", lambda p: p), ("re", lambda p: [p[0], "0"]), ("im", lambda p: [p[1], "0"])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"order": doc["order"], "coeffs": [part(p) for p in doc["coeffs"]]}))
            code, out, err = run(capsys, "apply", "--op", op, "--q", q, "--beta", beta, "--n", "2",
                                 "--input", str(path))
            assert (code, err) == (0, "")
            outputs[name] = json.loads(out)
        re, im = outputs["re"], outputs["im"]
        assert re["order"] == im["order"] < doc["order"] + 2
        assert all(x[1] == y[1] == "0" for x, y in zip(re["coeffs"], im["coeffs"]))
        want = [[x[0], y[0]] for x, y in zip(re["coeffs"], im["coeffs"])]
        assert outputs["complex"] == {"order": re["order"], "coeffs": want}
        assert any(y[0] != "0" for y in im["coeffs"])

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "apply", "--op", "h0", "--input", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("doc", [
        {"order": True, "coeffs": [["1", "0"], ["0", "0"]]},
        {"order": 1, "coeffs": 5},
        {"order": 1, "coeffs": [5, 6]},
        {"order": 2, "coeffs": [["1", "0"], ["0", "0"], ["1e10000000", "0"]]},
    ])
    def test_malformed_input_is_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "apply", "--op", "h0", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("qsusy: error:")

    def test_long_coefficient_is_not_echoed_in_full(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"order": 1, "coeffs": [["1", "0"], ["1" * 10**6 + "x", "0"]]}))
        code, out, err = run(capsys, "apply", "--op", "OH", "--input", str(path))
        assert (code, out) == (2, "")
        assert "not a rational: '1111" in err and "(1000001 characters)" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("doc, echo", [
        ({"order": 0, "coeffs": [["1"] * 200_000]}, "expected a [re, im] pair, got ['1', '1'"),
        ({"order": "1" * 10**6, "coeffs": []}, "bad series order: '111"),
        ({"order": 0, "coeffs": "1" * 10**6}, "must be a list of [re, im] pairs, got '111"),
        ({"order": 10**4000, "coeffs": [["1", "0"]]}, "series of order 1000000000"),
    ])
    def test_long_document_part_is_not_echoed_in_full(self, capsys, tmp_path, doc, echo):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "apply", "--op", "OH", "--input", str(path))
        assert (code, out) == (2, "")
        assert echo in err and "characters)" in err and len(err.encode()) < 1024

    def test_deeply_nested_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"order": 1, "coeffs": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run(capsys, "apply", "--op", "h0", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, need", [
        (("apply", "--op", "h0", "--q", "3/2"), 2),
        (("apply", "--op", "Tplus"), 1),
        (("table", "--op", "Tplus", "--q", "3/2", "--xs", "0"), 1),
        (("table", "--op", "Ob", "--q", "3/2", "--xs", "1/2"), 2),
    ])
    def test_input_too_short_for_the_operator(self, capsys, tmp_path, argv, need):
        # an order-0 series has no coefficient left after the operator's q-derivatives
        path = tmp_path / "constant.json"
        path.write_text(series_to_json(make_series([1], 0)))
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == f"qsusy: error: --op {argv[2]} needs an input series of order >= {need}, got order 0\n"

    @pytest.mark.parametrize("op, need", [("Tplus", 1), ("Ob", 2), ("OH", 2)])
    def test_input_just_long_enough(self, capsys, tmp_path, op, need):
        path = tmp_path / "probe.json"
        path.write_text(series_to_json(make_series([1, 2, 3][: need + 1], need)))
        code, out, _ = run(capsys, "apply", "--op", op, "--q", "3/2", "--input", str(path))
        assert code == 0
        assert series_from_json(out)[0].order == 0


class TestVerify:
    def test_kernel_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kernel", "--beta", "-1/2", "--q", "2", "--order", "40"
        )
        assert code == 0
        report = json.loads(out)
        assert report["version"] == __version__
        names = {c["name"] for c in report["checks"]}
        assert names == {"kernel"}
        assert all(c["status"] == "pass" for c in report["checks"])
        assert all(c["worst_deviation"] == "0" for c in report["checks"])

    def test_factorization_cell(self, capsys):
        code, out, _ = run(
            capsys, "verify", "factorization", "--beta", "1/2", "--q", "5/4", "--order", "16"
        )
        assert code == 0
        report = json.loads(out)
        assert {c["name"] for c in report["checks"]} == {
            "factorization[b]",
            "factorization[f]",
        }

    def test_classical_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "classical", "--order", "16")
        assert code == 0
        report = json.loads(out)
        assert any(c["name"] == "hermite_annihilation" for c in report["checks"])

    def test_limits_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "limits", "--order", "12")
        assert code == 0

    def test_leibniz_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "leibniz", "--q", "2")
        assert code == 0

    @pytest.mark.parametrize("argv, flags", [
        (("limits", "--q", "2", "--beta", "1/3"), "--q or --beta"),
        (("classical", "--q", "2"), "--q"),
        (("classical", "--beta", "-1/2"), "--beta"),
        (("leibniz", "--q", "2", "--beta", "1/3"), "--beta"),
        (("leibniz", "--order", "64"), "--order"),
        (("leibniz", "--beta", "1/3", "--order", "8"), "--beta or --order"),
    ])
    def test_ignored_pins_rejected(self, capsys, argv, flags):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"verify {argv[0]} does not take {flags}" in err

    @pytest.mark.parametrize("argv", [("classical", "--order", "4"), ("classical", "--order", "5"),
                                      ("all", "--order", "5")])
    def test_order_too_small_for_the_classical_cell(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"qsusy: error: verify {argv[0]} needs --order >= 6, got {argv[2]}\n"

    @pytest.mark.parametrize("suite", ["classical", "all"])
    @pytest.mark.parametrize("order", ["4", "5"])
    def test_env_order_too_small_for_the_classical_cell(self, capsys, monkeypatch, suite, order):
        monkeypatch.setenv("QSUSY_ORDER", order)
        code, out, err = run(capsys, "verify", suite)
        assert (code, out) == (2, "")
        assert err == f"qsusy: error: verify {suite} needs QSUSY_ORDER >= 6, got {order}\n"

    @pytest.mark.parametrize("suite", ["leibniz", "kernel", "classical"])
    def test_env_order_that_a_run_can_hold(self, capsys, monkeypatch, suite):
        # leibniz reads no order, kernel holds order 5, and classical needs 6
        monkeypatch.setenv("QSUSY_ORDER", "6" if suite == "classical" else "5")
        code, out, err = run(capsys, "verify", suite)
        assert (code, err) == (0, "")
        assert json.loads(out)["checks"]

    def test_generated_at_is_iso_utc_now(self, capsys):
        _, out, _ = run(capsys, "verify", "limits", "--order", "12")
        stamp = json.loads(out)["generated_at"]
        # the form datetime.isoformat() writes for an aware UTC time
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", stamp)
        when = datetime.fromisoformat(stamp)
        assert when.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - when) < timedelta(minutes=1)

    def test_env_order_is_a_default_not_a_pin(self, capsys, monkeypatch):
        code, plain, _ = run(capsys, "verify", "leibniz", "--q", "2")
        monkeypatch.setenv("QSUSY_ORDER", "64")
        code_env, with_env, err = run(capsys, "verify", "leibniz", "--q", "2")
        assert (code, code_env, err) == (0, 0, "")
        assert json.loads(with_env)["checks"] == json.loads(plain)["checks"]

    def test_all_keeps_its_pins(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--q", "2", "--beta", "1/3", "--order", "12")
        assert (code, err) == (0, "")
        params = [(c["name"], c["params"]) for c in json.loads(out)["checks"]]
        assert ("kernel", {"beta": "1/3", "order": "12", "q": "2"}) in params
        assert ("leibniz", {"pairs": "200", "q": "2", "seed": str(0x5EED)}) in params
        assert "drift_vanishes" in {name for name, _ in params}
        # every pinned cell carries the pins, and no other cell is run
        assert {p.get("q", "2") for _, p in params} == {"2"}
        assert {p["beta"] for name, p in params if name in ("kernel", "factorization[b]")} == {"1/3"}

    def test_all_suites_fan_out(self, capsys):
        # exercises the threaded cell scheduling; sorting keeps bytes stable
        code, out, _ = run(capsys, "verify", "all", "--order", "12")
        assert code == 0
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert {"kernel", "factorization[b]", "leibniz", "drift_vanishes",
                "hermite_annihilation"} <= names

    def test_deterministic_reports(self, capsys):
        args = ("verify", "kernel", "--q", "2", "--beta", "-1/2", "--order", "12")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        a, b = json.loads(first), json.loads(second)
        a.pop("generated_at"), b.pop("generated_at")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_fewer_than_one_job_is_usage_error(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "limits", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --jobs: jobs must be >= 1, got {jobs}\n")

    def test_failure_exit_code(self, capsys, monkeypatch):
        from qsusy.verify import CheckResult

        def fake(cell, order=None):
            return [
                CheckResult(
                    name="kernel",
                    status="fail",
                    worst_deviation="1/7",
                    first_failure_index=3,
                )
            ]

        monkeypatch.setattr("qsusy.cli.run_cell", fake)
        code, out, _ = run(capsys, "verify", "kernel", "--q", "2", "--beta", "1/2")
        assert code == 1
        report = json.loads(out)
        assert report["checks"][0]["first_failure_index"] == 3


class TestLimit:
    def test_default_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "limit", "--beta", "-1/2", "--order", "12")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["q", "beta0_deviation", "drift_deviation", "partner_deviation"]
        assert len(rows) == 1 + len(DEFAULT_SWEEP)
        classical = dict(zip(rows[0], rows[-1]))
        assert classical["q"] == "1"
        assert float(classical["beta0_deviation"]) == 0.0
        assert float(classical["partner_deviation"]) == 0.0

    def test_explicit_sweep_json(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--qs", "2,3/2", "--order", "8", "--emit", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["q"] for row in payload] == ["2", "3/2"]
        assert payload[0]["beta0_deviation"] == "1/4"

    def test_rejects_nonpositive_sweep(self, capsys):
        code, _, _ = run(capsys, "limit", "--qs", "2,0")
        assert code == 2

    @pytest.mark.parametrize("argv, q", [
        (("--qs", "1e-300"), "1/1" + "0" * 61 + "... (303 characters)"),
        (("--qs", "1e300"), "1" + "0" * 63 + "... (301 characters)"),
        (("--qs", "2,1e300"), "1" + "0" * 63 + "... (301 characters)"),
        (("--beta", "1e300"), "2"),
    ])
    def test_deviation_past_the_float_range_is_refused(self, capsys, argv, q):
        code, out, err = run(capsys, "limit", *argv, "--order", "4")
        assert code == 2
        assert out == ""
        assert err == f"qsusy: error: limit row q = {q} has a deviation outside the float range\n"
        assert len(err) < 1024

    def test_deviation_past_the_float_range_is_written_exactly_as_json(self, capsys):
        code, out, _ = run(capsys, "limit", "--qs", "1e300", "--order", "4", "--emit", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["q"] == "1" + "0" * 300
        assert F(row["partner_deviation"]) > 1e308

    def test_deviation_below_the_float_range_reads_zero(self, capsys):
        # the CSV is a float view: at q = 1 + 10^-200 the second-order deviations
        # are near 10^-400, nonzero but under the smallest float, so they print 0.0
        q = "1." + "0" * 199 + "1"
        _, exact, _ = run(capsys, "limit", "--qs", q, "--order", "4", "--emit", "json")
        code, out, _ = run(capsys, "limit", "--qs", q, "--order", "4")
        assert code == 0
        (row,) = json.loads(exact)
        assert F(row["beta0_deviation"]) > 0 and F(row["partner_deviation"]) > 0
        assert out.splitlines()[1].split(",")[1:] == ["0.0", "1e-200", "0.0"]

    def test_partner_deviation_is_measured_from_h0(self, capsys):
        # the sweep subtracts the q = 1 composed partner; the undeformed
        # reduction makes that the same series as h0 applied to the probe
        from qsusy.operators import second_order_composed, susy_pair_limit
        from qsusy.qspecial import q_exp

        code, out, _ = run(
            capsys, "limit", "--qs", "2,5/4,1", "--beta", "1/2", "--order", "14", "--emit", "json"
        )
        assert code == 0
        probe = q_exp(make_series([0, 0, F(-1, 2)], 14), Deformation(1))
        h0, _ = susy_pair_limit(VacuumSpec(beta=F(1, 2), d=Deformation(1), order=14))
        for row in json.loads(out):
            v = VacuumSpec(beta=F(1, 2), d=Deformation(F(row["q"])), order=14)
            dev = (second_order_composed(v, "b").apply(probe) - h0.apply(probe)).max_abs_coeff()
            assert row["partner_deviation"] == str(dev)


class TestTable:
    def test_beta_even_symmetry(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--func", "beta", "--q", "3/2", "--beta", "-1/2",
            "--xs", "-1,-1/2,0,1/2,1", "--order", "16",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "value"]
        values = {x: float(v) for x, v in rows[1:]}
        assert values["-1"] == values["1"]
        assert values["-1/2"] == values["1/2"]

    @pytest.mark.parametrize("func, build", [
        ("beta", lambda v, d: beta_q(v)),
        ("dbeta", lambda v, d: delta_beta_q(v)),
        ("gauss", lambda v, d: q_gauss(v)),
        # hermite reads --n and ufunc --p; the other index is ignored
        ("hermite", lambda v, d: q_hermite(3, d, 12)),
        ("ufunc", lambda v, d: u_transform(2, d, 12)),
    ])
    def test_each_function_is_its_library_series(self, capsys, func, build):
        code, out, _ = run(
            capsys, "table", "--func", func, "--q", "3/2", "--beta", "1/3", "--n", "3", "--p", "2",
            "--order", "12", "--xs", "-1/2,1/3",
        )
        assert code == 0
        d = Deformation(F(3, 2))
        series = build(VacuumSpec(beta=F(1, 3), d=d, order=12), d)
        assert out == f"x,value\n-1/2,{series.evaluate_float(-0.5)!r}\n1/3,{series.evaluate_float(1 / 3)!r}\n"

    def test_classical_column_is_constant(self, capsys):
        code, out, _ = run(
            capsys, "table", "--func", "beta", "--q", "1", "--beta", "-1/2",
            "--xs", "-1,0,1/3,1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(float(v) == -1.0 for _, v in rows)

    def test_empty_grid_gives_header_only(self, capsys):
        code, out, _ = run(capsys, "table", "--func", "gauss", "--q", "2", "--xs", "")
        assert code == 0
        assert out.splitlines() == ["x,value"]

    def test_operator_mode_with_origin_fallback(self, capsys, tmp_path):
        src = write_gauss(tmp_path, q=F(3, 2))
        code, out, _ = run(
            capsys,
            "table", "--op", "Tplus", "--q", "3/2", "--beta", "-1/2",
            "--input", str(src), "--xs", "0,1/4,-1/4", "--order", "16",
        )
        assert code == 0
        rows = {x: float(v) for x, v in list(csv.reader(io.StringIO(out)))[1:]}
        # the vacuum is annihilated: every sample is numerically zero,
        # including x = 0 where the series fallback answers
        assert all(abs(v) < 1e-12 for v in rows.values())

    def test_operator_mode_requires_input(self, capsys):
        code, _, _ = run(capsys, "table", "--op", "Tplus", "--xs", "1/4")
        assert code == 2

    def test_classical_operator_falls_back_to_series(self, capsys, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text(series_to_json(make_series([0, 0, 1], 12)))
        code, out, _ = run(
            capsys, "table", "--op", "h0", "--beta", "-1/2",
            "--input", str(path), "--xs", "1/2",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        # h0 x^2 = -2 + x^2 (x^2 - 1) at x = 1/2: -2 + 1/4 * (-3/4)
        assert float(rows[0][1]) == pytest.approx(-2 + 0.25 * -0.75, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--func", "beta"),
        ("--op", "Tplus", "--beta", "-1/2"),
    ])
    def test_point_outside_float_range_is_usage_error(self, capsys, tmp_path, argv):
        src = write_gauss(tmp_path, q=F(3, 2))
        code, out, err = run(
            capsys, "table", *argv, "--q", "3/2", "--input", str(src), "--xs", "1/2,1e400",
        )
        assert code == 2
        assert out == ""
        assert "outside the float range" in err and "Traceback" not in err

    def test_coefficient_past_float_range_names_the_series(self, capsys):
        # x = 1/2 has a float value; beta_q's coefficients at q = 1e300 have none
        code, out, err = run(capsys, "table", "--func", "beta", "--q", "1e300", "--order", "8", "--xs", "1/2")
        assert (code, out) == (2, "")
        assert err == "qsusy: error: table point x = 1/2: a series coefficient is past the float range\n"

    @pytest.mark.parametrize("q, err", [
        ("3/2", ""),
        ("1e400", "qsusy: error: table point x = -1: a series coefficient is past the float range\n"),
        ("1e-400", "qsusy: error: table point x = -1: a series coefficient is past the float range\n"),
    ])
    def test_operator_q_without_a_float_value(self, capsys, tmp_path, q, err):
        # such a q leaves no point form, so the exact series path answers; its
        # coefficients, not the point, are past the float range
        path = tmp_path / "h2.json"
        path.write_text(series_to_json(q_hermite(2, Deformation(F(3, 2)), 8)))
        argv = ("table", "--op", "Tplus", "--q", q, "--order", "8", "--input", str(path))
        expected = (
            "x,value\n-1,-17.462667807574604\n-1/2,-4.6928385557726005\n0,0.0\n"
            "1/2,4.6928385557726005\n1,17.462667807574604\n"
        )
        assert run(capsys, *argv) == ((0, expected, "") if not err else (2, "", err))

    @pytest.mark.parametrize("x", ["1e-400", "-1e-400", "1/2" + "0" * 400])
    def test_point_below_the_float_range_reads_the_exact_result(self, capsys, tmp_path, x):
        # float(x) is 0.0, where the q-quotient would divide by zero; the
        # exact result answers with its value at 0.0, as it does for x = 0
        path = tmp_path / "probe.json"
        path.write_text(series_to_json(make_series([1, F(-1, 2), 0, F(1, 3)], 12)))
        argv = ("table", "--op", "Tplus", "--q", "3/2", "--beta", "-1/2", "--input", str(path))
        code, out, err = run(capsys, *argv, f"--xs={x},0")
        rows = list(csv.reader(io.StringIO(out)))
        assert (code, err) == (0, "")
        assert rows[1][1] == rows[2][1] == "-0.5"

    def test_non_finite_function_value_is_usage_error(self, capsys):
        # beta_q(x^2) overflows to inf at x = 1e100 without raising
        code, out, err = run(capsys, "table", "--func", "beta", "--q", "3/2", "--xs", "1/2,1e100")
        assert code == 2
        assert out == ""
        assert "has no finite value (inf)" in err and "Traceback" not in err

    def test_non_finite_operator_value_is_usage_error(self, capsys, tmp_path):
        # the pointwise q-quotient meets inf - inf at x = 1e200
        path = tmp_path / "h2.json"
        path.write_text(series_to_json(q_hermite(2, Deformation(F(3, 2)), 16)))
        code, out, err = run(
            capsys, "table", "--op", "Tplus", "--q", "3/2", "--beta", "-1/2",
            "--input", str(path), "--xs", "1e200",
        )
        assert code == 2
        assert out == ""
        assert "has no finite value (nan)" in err and "Traceback" not in err


class TestTableExactApply:
    """table --op runs the exact operator application only for points that read it."""

    # the bytes these commands wrote when every request applied the operator exactly
    CASES = [
        (("--op", "Tplus", "--q", "3/2", "--xs", "1/4,-1/2,1"), 0,
         "x,value\n1/4,-0.11595750527254703\n-1/2,0.32465906585836657\n1,21.399206259417202\n"),
        (("--op", "Tplus", "--q", "3/2", "--xs", "1/4,0,-1/2"), 1,
         "x,value\n1/4,-0.11595750527254703\n0,-0.5\n-1/2,0.32465906585836657\n"),
        (("--op", "h0", "--xs", "1/2,-1"), 1, "x,value\n1/2,-6.640625\n-1,42.0\n"),
    ]

    @pytest.mark.parametrize("argv,applies,expected", CASES)
    def test_apply_calls_and_bytes(self, capsys, tmp_path, monkeypatch, argv, applies, expected):
        path = tmp_path / "probe.json"
        path.write_text(series_to_json(make_series([1, F(-1, 2), 0, F(1, 3), 0, 2], 12)))
        calls = []
        apply = QOperator.apply

        def counted(op, f):
            calls.append(op.name)
            return apply(op, f)

        monkeypatch.setattr(QOperator, "apply", counted)
        code, out, _ = run(capsys, "table", *argv, "--beta", "-1/2", "--input", str(path))
        assert code == 0
        assert len(calls) == applies
        assert out == expected

    @pytest.mark.parametrize("op", ["Ob", "Of", "Tplus", "Tminus"])
    def test_each_series_is_divided_once(self, capsys, tmp_path, monkeypatch, op):
        # the input, the operator's coefficient series and, for x = 0, the exact result
        path = tmp_path / "probe.json"
        path.write_text(series_to_json(make_series([1, F(-1, 2), 0, F(1, 3), 0, 2], 12)))
        divided = []
        table = PowerSeries._float_table
        monkeypatch.setattr(PowerSeries, "_float_table", lambda s: divided.append(id(s)) or table(s))
        xs = "1/4,-1/2,1/8,0,1/2"
        code, out, _ = run(capsys, "table", "--op", op, "--q", "3/2", "--beta", "-1/2",
                           "--input", str(path), "--xs", xs)
        assert code == 0 and len(out.splitlines()) == 6
        assert len(divided) == len(set(divided)) == 3
