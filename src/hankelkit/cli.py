"""Experiment runner: every check as a subcommand with reproducible JSON
reports, CSV sweeps, and a persistent Groebner cache.

Exit codes: 0 pass/consistent, 1 fail/counterexample, 2 budget-exceeded,
3 usage error.  Reports carry a canonical ``result`` payload that is
byte-identical across reruns with the same seed and engine version; wall time
and cache hit counts sit outside it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import ENGINE_VERSION, gradient, groebner, minorposet
from .cache import GroebnerCache
from .groebner import BudgetExceededError, GBBudget
from .polyring import (
    DEGREVLEX,
    PolyError,
    PrimeField,
    QQ,
    field_from_descriptor,
    order_from_descriptor,
)
from .symmatrix import hankel_square, gruson_peskine_check

SCHEMA = "hankelkit-report-1"

EXIT_CODES = {"pass": 0, "consistent": 0, "fail": 1, "counterexample": 1,
              "budget-exceeded": 2}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    field: object
    order: object
    seed: int
    budget: GBBudget
    cache: Optional[GroebnerCache]
    out_dir: Optional[Path]

    def rng(self) -> random.Random:
        return random.Random(self.seed)


# ---------------------------------------------------------------------------
# command implementations: each returns (verdict, witness_dict)

def cmd_det(m, r, cfg: RunConfig):
    h = hankel_square(m, r, cfg.field)
    f = h.determinant()
    oracle_ok = True
    if m <= 5:
        oracle_ok = (f == h.determinant_perm_oracle())
    coeff = f.pure_term_coefficient(m, m)
    unit = coeff != cfg.field.zero() and (cfg.field != QQ or abs(coeff) == 1)
    verdict = "pass" if (not f.is_zero()) and unit and oracle_ok else "fail"
    witness = {"terms": len(f.terms), "pure_term_coefficient": cfg.field.format(coeff),
               "oracle_checked": m <= 5}
    if len(f.terms) <= 64:
        witness["determinant"] = f.to_string()
    return verdict, witness


def cmd_gradient(m, r, cfg: RunConfig):
    data = gradient.gradient(m, r, cfg.field)
    decomposition = gradient.cofactor_decomposition_check(data)
    ok = all(decomposition.values())
    witness = {"partials": len(data.partials), "cofactor_decomposition": decomposition}
    if cfg.field == QQ:
        witness["euler_identity"] = euler = gradient.euler_identity_check(data)
        ok = ok and euler
    return "pass" if ok else "fail", witness


def cmd_hessian_check(m, r, cfg: RunConfig):
    nonzero, witness = gradient.hessian_nonzero_certificate(m, r, cfg.rng(), cfg.field,
                                                            cfg.budget)
    return ("pass" if nonzero else "fail"), witness


def cmd_appendix_check(m, r, cfg: RunConfig):
    if r == m - 2:
        raise UsageError(
            "r = m-2 is the pure-power case; the two-term closed form needs r <= m-3")
    witness = gradient.closed_form_check(m, r)
    if witness["branch"] == "hard":
        verdict = "pass" if witness["matches"] else "fail"
    else:
        verdict = "consistent" if witness["matches"] else "counterexample"
    return verdict, witness


def cmd_theta_check(m, r, cfg: RunConfig):
    ok, witness = gradient.theta_check(m, r, cfg.field)
    p = cfg.field.characteristic
    if p and not ok:
        # the GF(p) determinant is the QQ one mod p: a QQ pass whose scalar
        # p divides says nothing about the claim in characteristic p
        qq_ok, qq = gradient.theta_check(m, r, QQ)
        if qq_ok and Fraction(qq["scalar"]) % p == 0:
            raise UsageError(f"theta-check: {p} divides the scalar {qq['scalar']} "
                             f"at m={m}, r={r}")
    return ("pass" if ok else "fail"), witness


def cmd_codim_minors(m, r, t, cfg: RunConfig):
    if not 1 <= t <= m:
        raise UsageError(f"t={t} outside 1..{m}")
    h = hankel_square(m, r, cfg.field)
    codim = groebner.codimension(h.minor_ideal(t), cfg.order, cfg.budget, cfg.cache)
    expect = min(2 * (m - t) + 1, 2 * m - t - r)
    verdict = "pass" if codim == expect else "fail"
    return verdict, {"codim": codim, "expected": expect, "t": t}


def cmd_codim_gradient(m, r, cfg: RunConfig):
    if m < 3:
        raise UsageError("the codimension table starts at m = 3")
    witness = gradient.gradient_codim_witness(m, r, cfg.budget, cfg.cache)
    witness["expected"] = 2 if m - r == 2 else 3
    return ("pass" if witness["codim"] == witness["expected"] else "fail"), witness


def cmd_gp_check(m, r, t, cfg: RunConfig):
    if not 1 <= t <= m:
        raise UsageError(f"t={t} outside 1..{m}")
    witness = gruson_peskine_check(m, t, r, cfg.field)
    return ("pass" if witness["equal"] else "fail"), witness


def cmd_poset(m, cfg: RunConfig):
    poset = minorposet.build_poset(m)
    expected_nodes = (m + 1) * m // 2
    ok = (len(poset.nodes) == expected_nodes
          and all(len(v) <= 2 for v in poset.upper_covers.values())
          and all(len(poset.lower_covers(b)) <= 2 for b in poset.nodes))
    if m == 5:
        ok = ok and poset.level_sizes() == [1, 1, 2, 2, 3, 2, 2, 1, 1]
        ok = ok and poset.upper_covers[(1, 2, 4, 5)] == ((1, 2, 4, 6), (1, 3, 4, 5))
    verdict = "pass" if ok else "fail"
    return verdict, poset.as_dict()


def cmd_pluecker(m, cfg: RunConfig):
    relations = minorposet.pluecker_relations(m)
    steps = minorposet.pluecker_step_identities(m, cfg.field)
    witness = {"relations": [rel.to_string() for rel in relations],
               "count": len(relations),
               "step_identities": steps}
    ok = (steps["product_identity"] and steps["square_identity"]
          and steps["displayed_m3_identity"] is not False)
    return ("pass" if ok else "fail"), witness


def cmd_level_decomp(m, cfg: RunConfig):
    witness = minorposet.derivative_level_decomposition(m, cfg.field)
    return ("pass" if witness["reproduces"] else "fail"), witness


def cmd_fiber_kernel(m, r, cfg: RunConfig, stretch: bool = False):
    if m == 4 and not stretch:
        raise UsageError("m = 4 is the stretch case; pass --stretch to run it")
    if m not in (3, 4):
        raise UsageError("fiber-kernel runs at m = 3 (m = 4 with --stretch)")
    witness = minorposet.fiber_kernel_compare(m, r, cfg.field, cfg.budget, cfg.cache)
    if witness["verdict"] == "budget-exceeded":
        return "budget-exceeded", witness
    if r == 0:
        # the generic bracket-kernel comparison is a hard expectation
        return ("pass" if witness["kernels_equal"] else "fail"), witness
    # extra generators beyond the quadrics are conjecture-class reporting
    ok = True
    if m == 4 and r == 1:
        ok = witness["new_cubic_generators"] >= 1
    return ("consistent" if ok else "counterexample"), witness


def _expected_linear_rank(m, r, field):
    if field == QQ:
        if r == 0:
            return 3, "hard"
        if r == m - 2:
            return m, "hard"
        return 2, "conjecture"
    if isinstance(field, PrimeField) and field.p == 3 and (m, r) == (4, 1):
        return 3, "hard"
    return None, "report"


def cmd_linear_rank(m, r, cfg: RunConfig):
    F = gradient.gradient(m, r, cfg.field).ideal().generators
    rank, syzygies = groebner.linear_syzygies(F)
    expected, kind = _expected_linear_rank(m, r, cfg.field)
    witness = {"linear_rank": rank, "space_dim": len(syzygies),
               "generator_count": len(F), "expected": expected,
               "expectation": kind,
               "syzygies": [[lf.to_string() for lf in syz] for syz in syzygies]}
    if kind == "hard":
        return ("pass" if rank == expected else "fail"), witness
    if kind == "conjecture":
        return ("consistent" if rank == expected else "counterexample"), witness
    return "pass", witness


def _reduction_cell(m, r, field, nmax: int) -> dict:
    """The witness of the reduction-number check over ``field``."""
    data = gradient.gradient(m, r, field)
    return groebner.reduction_check(data.ideal(), data.matrix.minor_ideal(m - 1), nmax)


def cmd_reduction_check(m, r, cfg: RunConfig, nmax: int = 3):
    witness = _reduction_cell(m, r, cfg.field, nmax)
    p = cfg.field.characteristic
    if p:
        # the GF(p) spans are images of the QQ ones: where a step loses
        # dimension mod p, neither the verdict nor the witness is QQ's
        qq = _reduction_cell(m, r, QQ, nmax)
        if ([(s["dim_product"], s["dim_power"]) for s in witness["steps"]]
                != [(s["dim_product"], s["dim_power"]) for s in qq["steps"]]):
            raise UsageError(f"reduction-check: characteristic {p} changes the span "
                             f"dimensions at m={m}, r={r}")
    if not witness["contained"]:
        return "fail", witness
    witness["expected"] = expected = (m - 2 if r == 0
                                      else None if 1 <= r <= m - 3 else "unspecified")
    ok = expected == "unspecified" or witness["reduction_number"] == expected
    return ("pass" if ok else "fail"), witness


def cmd_minimal_primes(m, r, cfg: RunConfig):
    witness = gradient.minimal_primes_checks(m, r, cfg.budget, cfg.cache)
    if witness["budget_hit"]:
        return "budget-exceeded", witness
    ok = (witness["in_q"] and witness["in_p"] and witness["codims_ok"]
          and witness["radical_spot"])
    return ("pass" if ok else "fail"), witness


def cmd_regular_seq(m, cfg: RunConfig, upto: Optional[int] = None):
    return gradient.regular_sequence_experiment(m, upto, cfg.budget, cfg.cache)


@dataclass(frozen=True)
class Command:
    """A subcommand: its ``cmd_*`` function (called with the params as
    keywords), the grid parameters it reads (from m, r and t, where t is
    required), its extra flags, the least prime p of a GF(p) it honours
    (None: QQ only), and whether it honours any --order (else degrevlex
    only)."""
    run: Callable
    grid: tuple = ("m", "r")
    flags: tuple = ()
    min_prime: Optional[int] = 2
    any_order: bool = False


COMMANDS = {
    "det": Command(cmd_det),
    "gradient": Command(cmd_gradient),
    "hessian-check": Command(cmd_hessian_check),
    "appendix-check": Command(cmd_appendix_check, min_prime=None),
    "theta-check": Command(cmd_theta_check),
    "codim-minors": Command(cmd_codim_minors, ("m", "r", "t"), any_order=True),
    "codim-gradient": Command(cmd_codim_gradient, min_prime=None),
    "gp-check": Command(cmd_gp_check, ("m", "r", "t")),
    "poset": Command(cmd_poset, ("m",), min_prime=None),
    # 1/2 and lambda = 3 must be invertible in the step identities
    "pluecker": Command(cmd_pluecker, ("m",), min_prime=5),
    "level-decomp": Command(cmd_level_decomp, ("m",)),
    "fiber-kernel": Command(cmd_fiber_kernel, flags=("stretch",)),
    "linear-rank": Command(cmd_linear_rank),
    "reduction-check": Command(cmd_reduction_check, flags=("nmax",)),
    "minimal-primes": Command(cmd_minimal_primes, min_prime=None),
    "regular-seq": Command(cmd_regular_seq, ("m",), ("upto",), min_prime=None),
}

# the argparse spelling of every grid parameter and extra flag
_ARGUMENTS = {
    "m": {"type": int, "required": True},
    "r": {"type": int, "default": 0},
    "t": {"type": int, "required": True},
    "stretch": {"action": "store_true", "help": "allow the m=4 case"},
    "nmax": {"type": int, "default": 3},
    "upto": {"type": int},
}


def run_command(name: str, params: dict, cfg: RunConfig) -> tuple:
    """Run one command, rejecting a --field or --order it would not honour,
    so a report never records one it did not use."""
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(f"unknown command {name!r}")
    p = cfg.field.characteristic
    if p and command.min_prime is None:
        raise UsageError(f"{name} computes over QQ only")
    if p and p < command.min_prime:
        raise UsageError(f"{name} needs characteristic 0 or at least {command.min_prime}")
    if not command.any_order and cfg.order != DEGREVLEX:
        raise UsageError(f"{name} computes in degrevlex only")
    return command.run(cfg=cfg, **params)


# ---------------------------------------------------------------------------
# report plumbing

def canonical_result(check: str, params: dict, seed: int, verdict: str,
                     witness: dict) -> dict:
    return {
        "check": check,
        "engine_version": ENGINE_VERSION,
        "params": {k: params[k] for k in sorted(params)},
        "seed": seed,
        "verdict": verdict,
        "witness": witness,
    }


def canonical_bytes(result: dict) -> bytes:
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode()


def write_report(report: dict, out_dir: Path, command: str) -> Path:
    digest = hashlib.sha256(canonical_bytes(report["result"])).hexdigest()[:16]
    path = out_dir / command / f"{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def execute(command: str, params: dict, cfg: RunConfig) -> dict:
    hits = cfg.cache.hits if cfg.cache else 0
    t0 = time.monotonic()
    try:
        verdict, witness = run_command(command, params, cfg)
    except BudgetExceededError as exc:
        verdict, witness = "budget-exceeded", {"reason": str(exc)}
    elapsed = int((time.monotonic() - t0) * 1000)
    public_params = dict(params)
    public_params["field"] = cfg.field.descriptor()
    public_params["order"] = cfg.order.descriptor()
    result = canonical_result(command, public_params, cfg.seed, verdict, witness)
    report = {
        "schema": SCHEMA,
        "result": result,
        "timing_ms": elapsed,
        "cache_hits": cfg.cache.hits - hits if cfg.cache else 0,
    }
    return report


# ---------------------------------------------------------------------------
# sweep

def _parse_range(text: str, m: Optional[int] = None) -> list:
    """``a..b`` or comma list; bounds may be integers or m-expressions like
    ``m-2`` once m is known."""

    def value(tok: str) -> int:
        tok = tok.strip()
        if not tok.startswith("m"):
            return integer(tok)
        if m is None:
            raise UsageError("m-dependent bound in the m range")
        if tok == "m":
            return m
        if tok[1] in "+-":
            offset = integer(tok[2:])
            return m + offset if tok[1] == "+" else m - offset
        raise UsageError(f"malformed range bound {tok!r}")

    def integer(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise UsageError(f"malformed range bound {text!r}") from None

    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(value(lo), value(hi) + 1))
    return [value(tok) for tok in text.split(",")]


def sweep_cells(command: str, m_spec: str, r_spec: str, t_spec: str) -> list:
    grid = COMMANDS[command].grid
    cells = []
    for m in _parse_range(m_spec):
        values = {"m": [m]}
        if "r" in grid:
            values["r"] = [r for r in _parse_range(r_spec, m) if r >= 0]
        if "t" in grid:
            values["t"] = _parse_range(t_spec, m)
        cells += [dict(zip(values, cell))
                  for cell in itertools.product(*values.values())]
    return cells


def _sweep_cell(command: str, params: dict, cfg: RunConfig) -> dict:
    try:
        report = execute(command, params, cfg)
        verdict = report["result"]["verdict"]
        timing = report["timing_ms"]
        detail = json.dumps(report["result"]["witness"], sort_keys=True)
    except (UsageError, PolyError) as exc:
        verdict, timing, detail = "usage-error", 0, str(exc)
    row = {"command": command, "verdict": verdict, "timing_ms": timing,
           "detail": detail}
    for key in ("m", "r", "t"):
        row[key] = params.get(key, "")
    return row


def run_sweep(command: str, m_spec: str, r_spec: str, t_spec: str,
              cfg: RunConfig, jobs: int, out_path: Optional[Path]) -> None:
    cells = sweep_cells(command, m_spec, r_spec, t_spec)
    parallel = jobs > 1 and len(cells) > 1
    with (ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext()) as pool, \
            (open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=["command", "m", "r", "t", "verdict",
                                                 "timing_ms", "detail"])
        writer.writeheader()
        cell_map = pool.map if parallel else map
        for row in cell_map(_sweep_cell, itertools.repeat(command), cells,
                            itertools.repeat(cfg)):
            writer.writerow(row)
            out.flush()


# ---------------------------------------------------------------------------
# argument parsing

def _build_config(field_desc: str, order_desc: str, seed: int,
                  budget_pairs: int, cache_dir: Optional[str],
                  out_dir: Optional[str]) -> RunConfig:
    cache = GroebnerCache(Path(cache_dir)) if cache_dir else None
    return RunConfig(field_from_descriptor(field_desc),
                     order_from_descriptor(order_desc), seed,
                     GBBudget(max_pairs=budget_pairs), cache,
                     Path(out_dir) if out_dir else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelkit",
        description="Exact experiments on Hankel determinantal degenerations")
    sub = parser.add_subparsers(dest="command")

    # the field, order, seed, budget and cache flags of a run, and a
    # check's report flags on top of them
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--field", default="q", help="q or f<p>, e.g. f3")
    engine.add_argument("--order", default="degrevlex", choices=["degrevlex", "lex"])
    engine.add_argument("--seed", type=int, default=0)
    engine.add_argument("--budget-pairs", type=int, default=GBBudget().max_pairs)
    engine.add_argument("--cache", default=os.environ.get("HANKEL_CACHE_DIR"))
    report = argparse.ArgumentParser(add_help=False, parents=[engine])
    report.add_argument("--out", default=os.environ.get("HANKEL_OUT_DIR", "reports"))
    report.add_argument("--format", default="json", choices=["json", "csv"])

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[report])
        for arg in command.grid + command.flags:
            p.add_argument(f"--{arg}", **_ARGUMENTS[arg])

    p = sub.add_parser("sweep", parents=[engine])
    p.add_argument("target", choices=COMMANDS)
    p.add_argument("--m", required=True, help="range, e.g. 3..6")
    p.add_argument("--r", default="0..m-2", help="range, may use m, e.g. 0..m-2")
    p.add_argument("--t", default="1..m", help="range for t-commands")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("cache")
    p.add_argument("action", choices=["stats", "clear", "verify"])
    p.add_argument("--cache", default=os.environ.get("HANKEL_CACHE_DIR", "cache"))
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_help()
        return 3

    if args.command == "cache":
        cache = GroebnerCache(Path(args.cache))
        if args.action == "stats":
            print(json.dumps(cache.stats(), indent=2, sort_keys=True))
        elif args.action == "clear":
            removed = cache.clear()
            print(json.dumps({"removed": removed}))
        else:
            report = cache.verify(random.Random(args.seed))
            print(json.dumps(report, indent=2, sort_keys=True))
            if report["evicted"]:
                print(f"warning: evicted {len(report['evicted'])} corrupted entries",
                      file=sys.stderr)
        return 0

    sweep = args.command == "sweep"
    try:
        cfg = _build_config(args.field, args.order, args.seed, args.budget_pairs,
                            args.cache, None if sweep else args.out)
        if sweep:
            run_sweep(args.target, args.m, args.r, args.t, cfg, args.jobs,
                      Path(args.out) if args.out else None)
            return 0
        command = COMMANDS[args.command]
        params = {name: getattr(args, name) for name in command.grid + command.flags
                  if getattr(args, name) is not None}
        report = execute(args.command, params, cfg)
    except (UsageError, PolyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    if args.format == "csv":
        fields = ["check", "m", "r", "t", "verdict", "timing_ms"]
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerow({
            "check": args.command,
            "m": report["result"]["params"].get("m", ""),
            "r": report["result"]["params"].get("r", ""),
            "t": report["result"]["params"].get("t", ""),
            "verdict": report["result"]["verdict"],
            "timing_ms": report["timing_ms"],
        })
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    if cfg.out_dir:
        write_report(report, cfg.out_dir, args.command)
    return EXIT_CODES.get(report["result"]["verdict"], 1)


if __name__ == "__main__":
    sys.exit(main())
