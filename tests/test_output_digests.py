"""The byte contract: stdout, stderr and exit code of a fixed list of commands.

Each command runs in-process through ``cli.main`` with COLUMNS=80, in a
directory that holds the input series below. ``output_digests.json`` keeps,
per command, the sha256 of its stdout (with verify's ``generated_at`` line
removed), the sha256 of its stderr, and its exit code. A change that moves
any of these bytes fails here.

To record the digests again after a change that is meant to alter an
output: ``PYTHONPATH=src python tests/test_output_digests.py --write``.
Run without ``--write``, the script compares and lists the commands that
differ, so it can check an interpreter that has no pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).with_name("output_digests.json")

# order 16, real: a hand-made series, not the output of any constructor
REAL = json.dumps({"order": 16, "coeffs": [
    [c, "0"] for c in ("1", "1/3", "-1/2", "0", "3/8", "-2/5", "0", "1/7", "-1/16",
                       "0", "5/9", "0", "-1/11", "2/13", "0", "1/17", "-3/19")
]})
# order 12, with imaginary parts
COMPLEX = json.dumps({"order": 12, "coeffs": [
    ["1", "1/2"], ["0", "-1"], ["-1/3", "0"], ["1/4", "2/5"], ["0", "0"], ["3/7", "-1/8"],
    ["-1/9", "0"], ["0", "1/10"], ["2/11", "0"], ["0", "0"], ["-1/12", "1/13"],
    ["1/14", "0"], ["0", "-1/15"],
]})
SHORT = json.dumps({"order": 1, "coeffs": [["1", "0"], ["1/2", "0"]]})
BAD = json.dumps({"order": 1, "coeffs": [["1", "0"], ["1/0", "0"]]})
INPUTS = {"real.json": REAL, "complex.json": COMPLEX, "short.json": SHORT, "bad.json": BAD}

OPERATORS = ("Ob", "Of", "Tplus", "Tminus", "h0", "h1", "OH", "Ophi")
SUBCOMMANDS = ("hermite", "beta", "ufunc", "apply", "verify", "limit", "table")

# (argv, environment overrides)
COMMANDS: list[tuple[tuple[str, ...], dict[str, str]]] = []


def _add(*argv: str, **env: str) -> None:
    COMMANDS.append((argv, env))


_add("--help")
for _sub in SUBCOMMANDS:
    _add(_sub, "--help")

for _argv in (
    ("hermite", "--n", "3", "--q", "3/2", "--order", "16"),
    ("beta", "--q", "3/2", "--order", "16"),
    ("beta", "--delta", "--q", "2/3", "--beta", "1/3", "--order", "16"),
    ("ufunc", "--p", "2", "--q", "5/4", "--order", "16"),
):
    _add(*_argv)
    _add(*_argv, "--emit", "csv")
_add("beta")
# orders past the threshold of division by halves: two levels of it at 192
_add("beta", "--q", "3/2", "--beta", "-1/2", "--order", "192")
_add("beta", "--q", "4/3", "--beta", "1/2", "--order", "130", "--delta")
# odd folded lengths in the remainder's middle product, two levels of halves
_add("beta", "--q", "5/4", "--beta", "-1/2", "--order", "200")
_add("beta", "--q", "7/5", "--beta", "1/3", "--order", "161", "--delta")

for _op in OPERATORS:
    for _name in ("real.json", "complex.json"):
        _add("apply", "--op", _op, "--q", "3/2", "--n", "2", "--input", _name)
        _add("table", "--op", _op, "--q", "3/2", "--n", "2", "--input", _name)
    _add("apply", "--op", _op, "--q", "2/3", "--beta", "1/2", "--n", "1", "--input", "real.json",
         "--emit", "csv")
    _add("table", "--op", _op, "--q", "2/3", "--beta", "1/2", "--n", "1", "--input", "real.json",
         "--xs", "1/3,-3/4,2")

# a complex input is two real series: apply runs on each part and writes one
# document, and table refuses it at its first point (none for an empty --xs)
_add("apply", "--op", "Ob", "--q", "3/2", "--input", "complex.json", "--emit", "csv")
_add("table", "--op", "h0", "--q", "3/2", "--input", "complex.json", "--xs", "")
_add("table", "--op", "Tplus", "--q", "3/2", "--input", "complex.json", "--xs", "0")
# u_p is real: q_hermite's coefficients with a parity sign, at orders past the halves
_add("ufunc", "--p", "4", "--q", "3/2", "--order", "64")
_add("ufunc", "--p", "6", "--q", "5/4", "--order", "64", "--emit", "csv")

for _func in ("beta", "dbeta", "gauss", "hermite", "ufunc"):
    _add("table", "--func", _func, "--q", "3/2", "--n", "2", "--p", "2", "--order", "16")

_add("limit", "--order", "16")
_add("limit", "--order", "16", "--emit", "json", "--qs", "2,3/2,5/4")

_add("verify", "all")
_add("verify", "all", "--jobs", "1", "--order", "12")
_add("verify", "all", "--q", "2", "--beta", "1/3", "--order", "12")
_add("verify", "kernel", "--q", "2", "--beta", "1/3", "--order", "16")
_add("verify", "kernel", "--order", "20")
_add("verify", "factorization", "--q", "3/2", "--order", "16")
_add("verify", "factorization", "--beta", "1/2", "--order", "12")
_add("verify", "leibniz", "--q", "5/4")
_add("verify", "limits", "--order", "24")
_add("verify", "classical", "--order", "18")
for _argv in (
    ("limits", "--q", "2"),
    ("leibniz", "--beta", "5"),
    ("classical", "--q", "3"),
    ("classical", "--q", "3", "--beta", "5"),
):
    _add("verify", *_argv)

# error exits
_add("frobnicate")
_add("apply", "--op", "X", "--input", "real.json")
_add("beta", "--q", "0")
_add("beta", "--q", "x/y")
_add("beta", "--beta", "0")
_add("beta", "--order", "3")
_add("beta", "--order", "many")
_add("hermite", "--q", "1e5000")
_add("hermite", "--n", "-1")
_add("hermite", "--n", "5", "--order", "6")
_add("ufunc", "--p", "3")
_add("limit", "--qs", "2,0")
_add("table", "--op", "Tplus")
_add("apply", "--op", "Tplus", "--input", "missing.json")
_add("apply", "--op", "h0", "--input", "short.json")
_add("table", "--op", "Tplus", "--q", "3/2", "--input", "short.json", "--xs", "0")
_add("apply", "--op", "Tplus", "--input", "bad.json")
_add("table", "--func", "beta", "--q", "3/2", "--xs", "1/2,1e400")
_add("table", "--func", "beta", "--q", "3/2", "--xs", "1/2,1e100")
_add("table", "--op", "Tplus", "--q", "3/2", "--input", "real.json", "--xs", "1e400")
_add("table", "--op", "Tplus", "--q", "3/2", "--input", "real.json", "--xs", "1e200")
# a nonzero point that is 0.0 as a float reads the exact result
_add("table", "--op", "Tplus", "--q", "3/2", "--input", "real.json", "--xs", "1e-400,1/4")
_add("table", "--op", "Ob", "--q", "3/2", "--input", "real.json", "--xs", "1/2,1e150")
# a limit deviation past the float range has no CSV value
_add("limit", "--qs", "1e-300", "--order", "4")
_add("limit", "--qs", "1e300", "--order", "4")
_add("limit", "--beta", "1e300", "--order", "4")
_add("beta", QSUSY_ORDER="3")
_add("beta", QSUSY_ORDER="many")
_add("beta", "--q", "3/2", QSUSY_ORDER="12")
_add("verify", "leibniz", "--order", "64")
# the classical cell checks H_0 through H_6, so it refuses an order below 6
_add("verify", "classical", "--order", "5")
_add("verify", "all", "--order", "5")
_add("verify", "classical", QSUSY_ORDER="5")
_add("verify", "all", QSUSY_ORDER="5")
# an index of 4,000 digits, refused after parsing, is quoted to 64 characters
_add("hermite", "--n", "1" * 4000)
_add("ufunc", "--p", "1" * 4000)
_add("ufunc", "--p", "-" + "2" * 4000)
_add("hermite", "--n", "-" + "1" * 4000)
_add("apply", "--op", "OH", "--n", "-" + "1" * 4000, "--input", "real.json")

_GENERATED_AT = re.compile(r'^  "generated_at": "[^"]*",\n', re.MULTILINE)
# argparse's invalid-choice error quotes each choice up to Python 3.12.7 and
# 3.13.0, and not in later releases; the digest is taken of the unquoted form
_CHOICES = re.compile(r"\(choose from [^)]*\)")


def key(argv: tuple[str, ...], env: dict[str, str]) -> str:
    """The command as one line; an argument past 64 characters is cut to 16."""
    prefix = "".join(f"{name}={value} " for name, value in sorted(env.items()))
    return prefix + " ".join(a if len(a) <= 64 else f"{a[:16]}...({len(a)} characters)" for a in argv)


def run(argv: tuple[str, ...]) -> dict[str, object]:
    """One command's digests; the caller sets the directory and environment."""
    from qsusy.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    stderr = _CHOICES.sub(lambda m: m[0].replace("'", ""), err.getvalue())
    return {"stdout": sha(_GENERATED_AT.sub("", out.getvalue())), "stderr": sha(stderr), "exit": code}


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")


def test_command_list_matches_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert [key(*c) for c in COMMANDS] == list(recorded)


def test_outputs_match_the_recorded_digests(monkeypatch, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    differ = []
    for argv, env in COMMANDS:
        monkeypatch.delenv("QSUSY_ORDER", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if run(argv) != recorded[key(argv, env)]:
            differ.append(key(argv, env))
    assert differ == []


def _main(write: bool) -> int:
    recorded = {} if write else json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = {}
    here = os.getcwd()
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        os.chdir(directory)
        try:
            for argv, env in COMMANDS:
                os.environ.pop("QSUSY_ORDER", None)
                os.environ.update(env)
                got[key(argv, env)] = run(argv)
        finally:
            os.chdir(here)
    if write:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(got)} commands in {DIGESTS.name}")
        return 0
    differ = [k for k in got if got[k] != recorded.get(k)] + [k for k in recorded if k not in got]
    for k in differ:
        print(f"differs: {k}")
    print(f"{len(got) - len(differ)} of {len(got)} commands match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(_main("--write" in sys.argv[1:]))
