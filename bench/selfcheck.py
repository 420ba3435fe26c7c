"""Shows that every output check of the benchmark can fail.

Runs one round of each workload through ``qsusy.cli.main``, requires each
check to accept the program's real output, then corrupts that output and
requires the check to reject every corruption:

* a series: one coefficient perturbed by 1/10**6, at the top and in the middle;
* a verify report: one check dropped, one deviation set to 1, one status failed;
* a table: every value scaled by 1 + 1e-8.

Usage, from the root of a source checkout: ``python3 bench/selfcheck.py``.
Exits 0 when every clean output passes and every corruption is caught.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from run import BENCH, load_program
import workloads


def perturb_series(text: str, index: int) -> str:
    doc = json.loads(text)
    re_text, im_text = doc["coeffs"][index]
    doc["coeffs"][index] = [str(Fraction(re_text) + Fraction(1, 10**6)), im_text]
    return json.dumps(doc)


def series_corruptions(text: str) -> list[tuple[str, str]]:
    size = len(json.loads(text)["coeffs"])
    return [(f"coefficient {k} perturbed", perturb_series(text, k)) for k in (size - 1, size // 2)]


def report_corruptions(text: str) -> list[tuple[str, str]]:
    out = []
    doc = json.loads(text)
    dropped = dict(doc, checks=doc["checks"][1:])
    out.append(("one check dropped", json.dumps(dropped)))
    for field, value in (("worst_deviation", "1"), ("status", "fail")):
        changed = json.loads(text)
        changed["checks"][len(changed["checks"]) // 2][field] = value
        out.append((f"{field} set to {value}", json.dumps(changed)))
    return out


def table_corruptions(text: str) -> list[tuple[str, str]]:
    # every value, since a single one may cancel to far below its terms' size
    # and so lie inside the tolerance (1e-10 of that size)
    header, *rows = text.splitlines()
    scaled = [f"{x},{float(value) * (1 + 1e-8)!r}" for x, value in (r.split(",") for r in rows)]
    return [("every value scaled by 1 + 1e-8", "\n".join([header, *scaled]) + "\n")]


def main() -> int:
    cli = load_program()
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=BENCH))
    problems = 0
    try:
        for name, workload_type in workloads.WORKLOADS.items():
            workload = workload_type()
            workload.write_inputs(work / name, random.Random(f"{name}:selfcheck"))
            for op in workload.round(random.Random(f"{name}:selfcheck"), 0, work):
                label = " ".join(a for a in op.argv if not a.startswith(str(work)))
                if cli.main(op.argv) != 0:
                    print(f"FAIL {name}: {label} exited non-zero")
                    problems += 1
                    continue
                text = op.output.read_text(encoding="utf-8")
                verdict = op.check(text)
                if verdict is not None:
                    print(f"FAIL {name}: {label} clean output rejected: {verdict}")
                    problems += 1
                if op.argv[0] == "verify":
                    corruptions = report_corruptions(text)
                elif op.argv[0] == "table":
                    corruptions = table_corruptions(text)
                else:
                    corruptions = series_corruptions(text)
                for what, bad in corruptions:
                    if op.check(bad) is None:
                        print(f"FAIL {name}: {label}: {what} was accepted")
                        problems += 1
                    else:
                        print(f"ok   {name}: {label}: {what} rejected")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selfcheck:", "all corruptions caught" if problems == 0 else f"{problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
