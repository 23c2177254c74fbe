"""Run one benchmark workload of hankelkit CLI cells and print its metrics.

    python3 bench/run.py --workload groebner-qq --seed 1 --seconds 15 --trace 0

A workload is a fixed list of CLI cells.  Each cell runs through
``hankelkit.cli.execute`` with the parameters and configuration that
``hankelkit <cell>`` builds, but no report is written.  The run

1. sets up several times: a fresh import of hankelkit from ``src/``, the
   cells' parameters and run configurations, and for cache-warm-qq a cold
   pass that fills a new disk cache;
2. repeats whole rounds of the cells until their summed wall time reaches
   ``--seconds``;
3. checks every answer with ``checks.py`` (which does not import hankelkit):
   the first round in full, later rounds and warm cache reads by byte
   identity of the canonical ``result`` with the checked one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
Scratch files (the disk caches, the span dump) live under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Buchberger-dominated cells over QQ, no disk cache (the CLI default).
GROEBNER_QQ = [
    "codim-minors --m 6 --t 3",
    "codim-gradient --m 5 --r 0",
    "codim-gradient --m 5 --r 1",
    "minimal-primes --m 5 --r 2",
    "regular-seq --m 4",
    "fiber-kernel --m 3",
    "reduction-check --m 3",
]

# Exact linear algebra and determinants with little Groebner work, including
# the residue path over prime fields.
LINALG_DET = [
    "linear-rank --m 6 --r 2",
    "fiber-kernel --m 4 --r 2 --stretch",
    "gradient --m 7 --r 1",
    "det --m 8",
    "pluecker --m 5",
    "level-decomp --m 6",
    "hessian-check --m 7 --r 1",
    "linear-rank --m 4 --r 1 --field f3",
    "fiber-kernel --m 4 --r 2 --stretch --field f32003",
]

# cells, whether set-up fills a disk cache that the timed rounds read, set-ups
WORKLOADS = {
    "groebner-qq": (GROEBNER_QQ, False, 5),
    "linalg-det": (LINALG_DET, False, 5),
    "cache-warm-qq": (GROEBNER_QQ, True, 3),
}

MODULES = ("polyring", "symmatrix", "linalg", "groebner", "gradient",
           "minorposet", "cache", "cli")


def load_hankelkit() -> dict:
    """Import hankelkit afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "hankelkit" or n.startswith("hankelkit.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"hankelkit.{name}") for name in MODULES}
    modules["hankelkit"] = sys.modules["hankelkit"]
    if not Path(modules["cli"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"hankelkit imported from {modules['cli'].__file__}, not src/")
    return modules


def cell_params(args) -> dict:
    """The ``params`` that ``hankelkit.cli.main`` builds from parsed arguments."""
    params = {"m": args.m}
    if args.command not in ("poset", "pluecker", "level-decomp", "regular-seq"):
        params["r"] = args.r
    if args.command in ("codim-minors", "gp-check"):
        params["t"] = args.t
    if args.command == "fiber-kernel":
        params["stretch"] = bool(args.stretch)
    if args.command == "reduction-check":
        params["nmax"] = args.nmax
    if args.command == "regular-seq" and args.upto is not None:
        params["upto"] = args.upto
    return params


def build_cells(cli, specs: list, seed: int, cache_dir) -> list:
    parser = cli.build_parser()
    cells = []
    for spec in specs:
        args = parser.parse_args(spec.split() + ["--seed", str(seed)])
        cfg = cli._build_config(args.field, args.order, args.seed, args.budget_pairs,
                                cache_dir, None)
        cells.append((spec, args.command, cell_params(args), cfg))
    return cells


def run_pass(cli, cells: list, tracer) -> tuple:
    """One execution of every cell: canonical result bytes (None when the cell
    raised), wall and CPU seconds per cell."""
    outcomes, walls, cpus = [], [], []
    for spec, command, params, cfg in cells:
        if tracer is not None:
            tracer.begin_cell(spec)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            report = cli.execute(command, dict(params), cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            report = None
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        outcomes.append(None if report is None else cli.canonical_bytes(report["result"]))
    return outcomes, walls, cpus


def judge(specs: list, outcomes: list, reference, seed: int) -> tuple:
    """(per-cell ok flags, wrong-answer count, reference).  Without a
    reference each answer is checked in full and the checked bytes become the
    reference; with one, an answer must equal it byte for byte."""
    ok, wrong = [], 0
    if reference is None:
        reference = []
        for spec, raw in zip(specs, outcomes):
            problems = ["raised"] if raw is None else checks.check_result(json.loads(raw), seed)
            for problem in problems:
                print(f"check failed: {spec}: {problem}", file=sys.stderr)
            wrong += raw is not None and bool(problems)
            ok.append(not problems)
            reference.append(raw if not problems else None)
        return ok, wrong, reference
    for spec, raw, ref in zip(specs, outcomes, reference):
        good = raw is not None and raw == ref
        if not good:
            print(f"check failed: {spec}: differs from the checked answer", file=sys.stderr)
        wrong += raw is not None and not good
        ok.append(good)
    return ok, wrong, reference


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    specs, warm, setups = WORKLOADS[workload]
    tracer = spans.Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    attempted = failed = wrong = 0
    reference = None
    try:
        setup_s = []
        for k in range(setups):
            start = time.perf_counter()
            modules = load_hankelkit()
            if tracer is not None:
                tracer.install(modules)
            cli = modules["cli"]
            cells = build_cells(cli, specs, seed, str(tmp / f"fill{k}") if warm else None)
            if warm:
                if tracer is not None:
                    tracer.begin_pass("setup", f"fill{k}")
                outcomes, _, _ = run_pass(cli, cells, tracer)
            setup_s.append(time.perf_counter() - start)
            if warm:
                ok, bad, reference = judge(specs, outcomes, reference, seed)
                attempted += len(ok)
                failed += ok.count(False)
                wrong += bad

        walls = [[] for _ in cells]
        cpus = [[] for _ in cells]
        work = 0.0
        rounds = 0
        while rounds == 0 or work < seconds:
            if tracer is not None:
                tracer.begin_pass("timed", f"round{rounds}")
            outcomes, wall, cpu = run_pass(cli, cells, tracer)
            for i in range(len(cells)):
                walls[i].append(wall[i])
                cpus[i].append(cpu[i])
            work += sum(wall)
            ok, bad, reference = judge(specs, outcomes, reference, seed)
            attempted += len(ok)
            failed += ok.count(False)
            wrong += bad
            rounds += 1
        wall_s = sum(statistics.median(w) for w in walls)
        if tracer is not None:
            tracer.end()
            metrics = tracer.metrics()
            metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
            tracer.write(OUT / f"trace-{workload}.jsonl")
        else:
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "cpu_s": {"value": sum(statistics.median(c) for c in cpus), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024, "unit": "MB"},
            }
        print(f"{workload}: {rounds} rounds of {len(specs)} cells", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The first, untimed import writes the bytecode cache that every timed
    # set-up reads, whatever PYTHONDONTWRITEBYTECODE says, so set-up time does
    # not depend on the environment or on whether the checkout is fresh.
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(ROOT / "src"))
    try:
        load_hankelkit()
    except ImportError as exc:
        print(f"cannot import hankelkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
