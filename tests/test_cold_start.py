"""The cold-start contract: what ``import qsusy.cli`` loads.

Every ``qsusy`` command imports ``qsusy.cli`` before it computes anything, and
with bytecode caching off most of a default-size command is that import. So
it loads every module of the package and none of the standard-library modules
that only some runs read: ``concurrent.futures`` (and the ``logging`` it pulls
in) only for a multi-cell ``verify --jobs`` pool, ``datetime`` only for the
verify report, and ``dataclasses`` (and its ``inspect``) not at all.

Each check runs in a fresh interpreter with bytecode writing off; ``-S``
keeps site-packages start-up hooks out of its module list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = {"qsusy"} | {f"qsusy.{p.stem}" for p in (SRC / "qsusy").glob("*.py")
                       if p.stem not in ("__init__", "__main__")}
NOT_AT_START = ("dataclasses", "inspect", "concurrent.futures", "logging", "datetime")

COUNT_POOLS = """
import contextlib, io, json, sys
import qsusy.cli as cli

real, pools, seen = cli.ThreadPoolExecutor, [], []

def counting(max_workers):
    pools.append(max_workers)
    return real(max_workers=max_workers)

cli.ThreadPoolExecutor = counting
for argv in (["verify", "kernel", "--q", "2", "--beta", "1/2"], ["verify", "all", "--jobs", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([code, len(pools), "concurrent.futures" in sys.modules])
print(json.dumps(seen))
"""


def fresh(script: str):
    """The JSON that script prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_the_import_loads_the_package_and_no_module_of_a_later_step():
    loaded = set(fresh("import json, sys\nimport qsusy.cli\nprint(json.dumps(list(sys.modules)))"))
    assert [name for name in NOT_AT_START if name in loaded] == []
    assert PACKAGE - loaded == set()


def test_only_a_multi_cell_jobs_run_makes_a_pool():
    # [exit code, pools made so far, concurrent.futures loaded] after each run
    assert fresh(COUNT_POOLS) == [[0, 0, False], [0, 1, True]]
