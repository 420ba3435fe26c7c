"""Benchmark for qsusy: seeded workloads through the public ``qsusy.cli.main``.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload verify_build --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

One run sets up (imports ``qsusy`` in a fresh interpreter and writes the
seeded input files), then runs whole rounds of the workload's operations one
at a time until ``--seconds`` have passed, then checks every output against
independent closed forms. The set-up is timed again about once a second
between operations, and ``setup_s`` is the median of all those timings.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload all``
runs every workload untraced and traced in child processes and prints both,
with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_EVERY_S = 1.0  # run time between two set-up samples
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import qsusy.cli\n"
    "t = time.perf_counter() - t\n"
    "print(qsusy.__file__)\n"
    "print(repr(t))\n"
)


def load_program():
    """Import qsusy from this checkout's src/, and nowhere else."""
    if not (SRC / "qsusy" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qsusy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsusy.cli

    if Path(qsusy.__file__).resolve().parent != SRC / "qsusy":
        raise SystemExit(f"bench: imported qsusy from {qsusy.__file__}, not {SRC}")
    return qsusy.cli


def program_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "qsusy" or name.startswith("qsusy.")}


def program_caches() -> list:
    """Every memoised function of the program (anything with cache_info/cache_clear)."""
    found = {}
    for module in program_modules().values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return list(found.values())


def import_seconds() -> float:
    """Time to import qsusy.cli in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    where, seconds = proc.stdout.split()
    if Path(where).resolve().parent != SRC / "qsusy":
        raise SystemExit(f"bench: probe imported qsusy from {where}")
    return float(seconds)


def setup(workload, seed: int, directory: Path) -> float:
    """Import the program in a fresh interpreter and write the seeded inputs; seconds."""
    seconds = import_seconds()
    start = time.perf_counter()
    workload.write_inputs(directory, random.Random(f"{workload.name}:{seed}:inputs"))
    seconds += time.perf_counter() - start
    return seconds


def setup_sampler(name: str, seed: int, work: Path, times: list[float]):
    """A set-up timing on a fresh workload object, its inputs written and deleted.

    Samples spread over the run: a median of set-ups taken back to back
    would rest on one second of the host's speed.
    """

    def sample() -> None:
        directory = work / f"inputs-sample-{len(times)}"
        times.append(setup(workloads.WORKLOADS[name](), seed, directory))
        shutil.rmtree(directory, ignore_errors=True)

    return sample


def run_rounds(cli, workload, stream: random.Random, out: Path, seconds: float, caches: list,
               sample_setup) -> dict:
    """Run whole rounds until `seconds` have passed; keep only per-slot bests.

    Nothing per operation is kept, so the process's memory does not grow
    with the number of rounds; the checks replay the seeded stream later.
    `sample_setup` is called between operations about once a second, outside
    every operation's timing.
    """
    best: list[float] = []
    failed: set[tuple[int, int]] = set()
    exits: dict[tuple[int, int], int] = {}  # non-zero exit codes of completed operations
    errors: list[str] = []
    hits = {"qsusy.qcore": [0, 0], "qsusy.qspecial": [0, 0]}
    rounds = 0
    deadline = time.perf_counter() + seconds
    next_sample = time.perf_counter() + SETUP_EVERY_S
    while True:
        for slot, op in enumerate(workload.round(stream, rounds, out)):
            if time.perf_counter() >= next_sample:
                sample_setup()
                next_sample = time.perf_counter() + SETUP_EVERY_S
            if op.cold:
                for cache in caches:
                    cache.cache_clear()
            before = [c.cache_info() for c in caches]
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception:
                code = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            for cache, info in zip(caches, before):
                tally = hits.get(cache.__module__)
                if tally is not None:
                    after = cache.cache_info()
                    tally[0] += after.hits - info.hits
                    tally[1] += after.misses - info.misses
            if rounds == 0:
                best.append(elapsed)
            else:
                best[slot] = min(best[slot], elapsed)
            if code not in op.completes:
                failed.add((rounds, slot))
                errors.append(f"{op.argv}: {code if isinstance(code, str) else f'exit code {code}'}")
            elif code != 0:
                exits[(rounds, slot)] = code
        rounds += 1
        if time.perf_counter() >= deadline:
            return {"best": best, "rounds": rounds, "failed": failed, "exits": exits,
                    "errors": errors, "hits": hits}


def check_outputs(workload, stream: random.Random, out: Path, run: dict) -> list[str]:
    """Replay the seeded operation stream and check every output that was written.

    A round repeats commands, so the same command often writes the same
    bytes; those are judged once, keyed by the command and the bytes.
    """
    wrong = []
    verdicts: dict[tuple, Optional[str]] = {}
    for index in range(run["rounds"]):
        for slot, op in enumerate(workload.round(stream, index, out)):
            if (index, slot) in run["failed"]:
                continue
            if (index, slot) in run["exits"]:
                wrong.append(f"{op.argv}: exit code {run['exits'][index, slot]}")
            text = op.output.read_text(encoding="utf-8")
            command = tuple(a for a in op.argv if a != str(op.output))
            key = (command, text)
            if key not in verdicts:
                verdicts[key] = op.check(text)
            if verdicts[key] is not None:
                wrong.append(f"{op.argv}: {verdicts[key]}")
    return wrong


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    caches = program_caches()
    workload = workloads.WORKLOADS[name]()
    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    stream_seed = f"{name}:{seed}:requests"
    try:
        setup_times = [setup(workload, seed, work / "inputs")]
        out = work / "out"
        out.mkdir(parents=True)
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer(program_modules())
            tracer.install()
        try:
            run = run_rounds(cli, workload, random.Random(stream_seed), out, seconds, caches,
                             setup_sampler(name, seed, work, setup_times))
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        wrong = check_outputs(workload, random.Random(stream_seed), out, run)
        for line in (run["errors"] + wrong)[:20]:
            print(f"bench: {line}", file=sys.stderr)

        # each slot's time is the fastest of its repetitions (timeit's rule):
        # the host's speed swings by up to 2x for seconds at a time, and that
        # interference only ever adds time
        best = run["best"]
        run_s = sum(best)
        if tracer is not None:
            metrics = tracer.layer_metrics(run["rounds"])
            for module, layer in (("qsusy.qcore", "qcore"), ("qsusy.qspecial", "qspecial")):
                h, m = run["hits"][module]
                metrics[f"{layer}.cache_hit_ratio"] = h / (h + m) if h + m else 0.0
            metrics["trace.run_s"] = run_s
            tracer.write(BENCH / "_trace" / f"{name}.jsonl")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "run_s": run_s,
                "peak_rss_mb": peak_rss_mb,
            }
        return {
            "correct": not wrong,
            "attempted": run["rounds"] * len(best),
            "failed": len(run["failed"]),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".checks")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MiB"
    return "s"


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 and not proc.stdout.strip():
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and proc.returncode == 0
            summary.setdefault(name, {})[f"trace{trace}"] = result
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")
        runs = summary.get(name, {})
        if "trace0" in runs and "trace1" in runs:
            overhead = (runs["trace1"]["metrics"]["trace.run_s"]["value"]
                        - runs["trace0"]["metrics"]["run_s"]["value"])
            runs["trace_overhead_s"] = overhead
            print(f"  {'tracing overhead (traced - untraced run_s)':34s} {overhead:.6g} s")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
