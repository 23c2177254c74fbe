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
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import ENGINE_VERSION, gradient, groebner, minorposet
from .cache import GroebnerCache
from .groebner import BudgetExceededError, GBBudget, Ideal
from .polyring import (
    DEGREVLEX,
    LEX,
    PolyError,
    Polynomial,
    PrimeField,
    QQ,
    field_from_descriptor,
)
from .symmatrix import hankel_square, gruson_peskine_check

SCHEMA = "hankelkit-report-1"

COMMANDS = [
    "det", "gradient", "hessian-check", "appendix-check", "theta-check",
    "codim-minors", "codim-gradient", "gp-check", "poset", "pluecker",
    "level-decomp", "fiber-kernel", "linear-rank", "reduction-check",
    "minimal-primes", "regular-seq",
]

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


def _field_descriptor(field) -> str:
    return field.descriptor()


def _require(cfg: RunConfig, field=QQ, order=DEGREVLEX):
    """Reject a --field or --order that the command would not honour, so a
    report never records one it did not use (field=None: any field)."""
    if field is not None and cfg.field != field:
        raise UsageError(f"this command computes over {field.descriptor()} only")
    if cfg.order != order:
        raise UsageError(f"this command computes in {order.descriptor()} only")


def _gradient_ideal(m: int, r: int, field) -> tuple:
    data = gradient.gradient(m, r, field)
    return data, data.ideal()


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
    report = gradient.cofactor_decomposition_check(data)
    ok = report["all_equal"]
    witness = {"partials": len(data.partials),
               "cofactor_decomposition": {str(k): v for k, v in report["per_k"].items()}}
    if cfg.field == QQ:
        witness["euler_identity"] = euler = gradient.euler_identity_check(data)
        ok = ok and euler
    return "pass" if ok else "fail", witness


def cmd_hessian_check(m, r, cfg: RunConfig):
    cert = gradient.hessian_nonzero_certificate(m, r, cfg.rng(), cfg.field, cfg.budget)
    verdict = "pass" if cert.nonzero else "fail"
    return verdict, {"route": cert.route, "witness": cert.witness}


def cmd_appendix_check(m, r, cfg: RunConfig):
    if r == m - 2:
        raise UsageError(
            "r = m-2 is the pure-power case; the two-term closed form needs r <= m-3")
    rep = gradient.closed_form_check(m, r)
    if rep.branch == "hard":
        verdict = "pass" if rep.matches else "fail"
    else:
        verdict = "consistent" if rep.matches else "counterexample"
    return verdict, {"branch": rep.branch, "matches": rep.matches,
                     "resolved_relative_sign": rep.resolved_relative_sign,
                     "computed": rep.computed, "candidates": {
                         "".join(map(str, k)): [str(v) for v in vals]
                         for k, vals in rep.candidates.items()}
                     if isinstance(rep.candidates, dict) else rep.candidates}


def cmd_theta_check(m, r, cfg: RunConfig):
    rep = gradient.theta_check(m, r, cfg.field)
    verdict = "pass" if rep.ok else "fail"
    return verdict, {"scalar": None if rep.scalar is None else cfg.field.format(rep.scalar),
                     "exponent": rep.exponent, "determinant": rep.determinant}


def cmd_codim_minors(m, r, t, cfg: RunConfig):
    if not 1 <= t <= m:
        raise UsageError(f"t={t} outside 1..{m}")
    h = hankel_square(m, r, cfg.field)
    ideal = Ideal(cfg.field, h.nvars, [mn.value for mn in h.minors(t)])
    codim = groebner.codimension(ideal, cfg.order, cfg.budget, cfg.cache)
    expect = min(2 * (m - t) + 1, 2 * m - t - r)
    verdict = "pass" if codim == expect else "fail"
    return verdict, {"codim": codim, "expected": expect, "t": t}


def cmd_codim_gradient(m, r, cfg: RunConfig):
    if m < 3:
        raise UsageError("the codimension table starts at m = 3")
    _require(cfg)
    codim = gradient.gradient_codim(m, r, cfg.budget, cfg.cache)
    expect = 2 if m - r == 2 else 3
    verdict = "pass" if codim == expect else "fail"
    return verdict, {"codim": codim, "expected": expect}


def cmd_gp_check(m, r, t, cfg: RunConfig):
    if not 1 <= t <= m:
        raise UsageError(f"t={t} outside 1..{m}")
    _require(cfg, field=None)
    rep = gruson_peskine_check(m, t, 2 * m - 1, r, cfg.field, cfg.budget, cfg.cache)
    verdict = "pass" if rep.equal else "fail"
    return verdict, rep.as_dict()


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
    relations = minorposet.pluecker_relations(m, cfg.field)
    witness = {"relations": [rel.to_string() for rel in relations],
               "count": len(relations)}
    ok = True
    if m >= 3:
        steps = minorposet.pluecker_step_identities(m, cfg.field)
        witness["step_identities"] = steps.as_dict()
        ok = steps.product_identity and steps.square_identity
        if steps.displayed_m3_identity is not None:
            ok = ok and steps.displayed_m3_identity
    return ("pass" if ok else "fail"), witness


def cmd_level_decomp(m, cfg: RunConfig):
    decomp = minorposet.derivative_level_decomposition(m, cfg.field)
    # the level correspondence k = 2m - l' is structural in the solver; verify
    # that the solved rows were nonempty wherever f_k is nonzero
    verdict = "pass" if decomp.reproduces else "fail"
    return verdict, decomp.as_dict()


def cmd_fiber_kernel(m, r, cfg: RunConfig, stretch: bool = False):
    if m == 4 and not stretch:
        raise UsageError("m = 4 is the stretch case; pass --stretch to run it")
    if m not in (3, 4):
        raise UsageError("fiber-kernel runs at m = 3 (m = 4 with --stretch)")
    rep = minorposet.fiber_kernel_compare(m, r, cfg.field, cfg.budget, cfg.cache)
    witness = rep.as_dict()
    if rep.verdict == "budget-exceeded":
        return "budget-exceeded", witness
    if r == 0:
        # the generic bracket-kernel comparison is a hard expectation
        return ("pass" if rep.kernels_equal else "fail"), witness
    # extra generators beyond the quadrics are conjecture-class reporting
    ok = True
    if m == 4 and r == 1:
        ok = rep.new_cubic_generators >= 1
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
    data, ideal = _gradient_ideal(m, r, cfg.field)
    rep = groebner.linear_syzygies(list(ideal.generators), cfg.rng())
    expected, kind = _expected_linear_rank(m, r, cfg.field)
    witness = {"linear_rank": rep.linear_rank, "space_dim": rep.space_dim,
               "generator_count": rep.generator_count, "expected": expected,
               "expectation": kind,
               "syzygies": rep.as_dict()["syzygies"]}
    if kind == "hard":
        return ("pass" if rep.linear_rank == expected else "fail"), witness
    if kind == "conjecture":
        return ("consistent" if rep.linear_rank == expected else "counterexample"), witness
    return "pass", witness


def cmd_reduction_check(m, r, cfg: RunConfig, nmax: int = 3):
    h = hankel_square(m, r, cfg.field)
    data, J = _gradient_ideal(m, r, cfg.field)
    I = Ideal(cfg.field, h.nvars, [mn.value for mn in h.minors(m - 1)])
    rep = groebner.reduction_check(J, I, nmax, cfg.budget, cfg.cache)
    witness = rep.as_dict()
    if not rep.contained:
        return "fail", witness
    if r == 0:
        verdict = "pass" if rep.reduction_number == m - 2 else "fail"
    elif 1 <= r <= m - 3:
        verdict = "pass" if rep.reduction_number is None else "fail"
    else:
        verdict = "pass"
    witness["expected"] = (m - 2 if r == 0
                           else None if 1 <= r <= m - 3 else "unspecified")
    return verdict, witness


def cmd_minimal_primes(m, r, cfg: RunConfig):
    _require(cfg)
    rep = gradient.minimal_primes_checks(m, r, cfg.budget, cfg.cache)
    witness = {"in_q": rep.in_q, "in_p": rep.in_p, "codim_q": rep.codim_q,
               "codim_p": rep.codim_p, "codims_ok": rep.codims_ok,
               "radical_spot": rep.radical_spot, "budget_hit": rep.budget_hit}
    if rep.budget_hit and rep.codims_ok is None:
        return "budget-exceeded", witness
    verdict = "pass" if rep.checks_abc() and rep.radical_spot is not False else "fail"
    return verdict, witness


def cmd_regular_seq(m, cfg: RunConfig, upto: Optional[int] = None):
    _require(cfg)
    rep = gradient.regular_sequence_experiment(m, upto, cfg.budget, cfg.cache)
    witness = {"sequence": rep.sequence, "regular": rep.regular,
               "first_failure": rep.first_failure}
    return rep.verdict, witness


def run_command(name: str, params: dict, cfg: RunConfig) -> tuple:
    m = params.get("m")
    r = params.get("r", 0)
    t = params.get("t")
    if name == "det":
        return cmd_det(m, r, cfg)
    if name == "gradient":
        return cmd_gradient(m, r, cfg)
    if name == "hessian-check":
        return cmd_hessian_check(m, r, cfg)
    if name == "appendix-check":
        return cmd_appendix_check(m, r, cfg)
    if name == "theta-check":
        return cmd_theta_check(m, r, cfg)
    if name == "codim-minors":
        return cmd_codim_minors(m, r, t, cfg)
    if name == "codim-gradient":
        return cmd_codim_gradient(m, r, cfg)
    if name == "gp-check":
        return cmd_gp_check(m, r, t, cfg)
    if name == "poset":
        return cmd_poset(m, cfg)
    if name == "pluecker":
        return cmd_pluecker(m, cfg)
    if name == "level-decomp":
        return cmd_level_decomp(m, cfg)
    if name == "fiber-kernel":
        return cmd_fiber_kernel(m, r, cfg, params.get("stretch", False))
    if name == "linear-rank":
        return cmd_linear_rank(m, r, cfg)
    if name == "reduction-check":
        return cmd_reduction_check(m, r, cfg, params.get("nmax", 3))
    if name == "minimal-primes":
        return cmd_minimal_primes(m, r, cfg)
    if name == "regular-seq":
        return cmd_regular_seq(m, cfg, params.get("upto"))
    raise UsageError(f"unknown command {name!r}")


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
    t0 = time.monotonic()
    try:
        verdict, witness = run_command(command, params, cfg)
    except BudgetExceededError as exc:
        verdict, witness = "budget-exceeded", {"reason": str(exc)}
    elapsed = int((time.monotonic() - t0) * 1000)
    public_params = dict(params)
    public_params["field"] = _field_descriptor(cfg.field)
    public_params["order"] = cfg.order.descriptor()
    result = canonical_result(command, public_params, cfg.seed, verdict, witness)
    report = {
        "schema": SCHEMA,
        "result": result,
        "timing_ms": elapsed,
        "cache_hits": cfg.cache.hits if cfg.cache else 0,
    }
    return report


# ---------------------------------------------------------------------------
# sweep

def _parse_range(text: str, m: Optional[int] = None) -> list:
    """``a..b`` or comma list; bounds may be integers or m-expressions like
    ``m-2`` once m is known."""

    def value(tok: str) -> int:
        tok = tok.strip()
        if tok == "m":
            if m is None:
                raise UsageError("m-dependent bound in the m range")
            return m
        if tok.startswith("m-"):
            if m is None:
                raise UsageError("m-dependent bound in the m range")
            return m - int(tok[2:])
        if tok.startswith("m+"):
            if m is None:
                raise UsageError("m-dependent bound in the m range")
            return m + int(tok[2:])
        return int(tok)

    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(value(lo), value(hi) + 1))
    return [value(tok) for tok in text.split(",")]


_SWEEP_PARAMS = {
    "det": ("m", "r"), "gradient": ("m", "r"), "hessian-check": ("m", "r"),
    "appendix-check": ("m", "r"), "theta-check": ("m", "r"),
    "codim-minors": ("m", "r", "t"), "codim-gradient": ("m", "r"),
    "gp-check": ("m", "r", "t"), "poset": ("m",), "pluecker": ("m",),
    "level-decomp": ("m",), "fiber-kernel": ("m", "r"),
    "linear-rank": ("m", "r"), "reduction-check": ("m", "r"),
    "minimal-primes": ("m", "r"), "regular-seq": ("m",),
}


def sweep_cells(command: str, m_spec: str, r_spec: str, t_spec: str) -> list:
    needed = _SWEEP_PARAMS[command]
    cells = []
    for m in _parse_range(m_spec):
        r_values = _parse_range(r_spec, m) if "r" in needed else [None]
        for r in r_values:
            if r is not None and not 0 <= r:
                continue
            t_values = _parse_range(t_spec, m) if "t" in needed else [None]
            for t in t_values:
                params = {"m": m}
                if r is not None:
                    params["r"] = r
                if t is not None:
                    params["t"] = t
                cells.append(params)
    return cells


def _sweep_cell(args) -> dict:
    command, params, field_desc, order_desc, seed, budget_pairs, cache_dir = args
    cfg = _build_config(field_desc, order_desc, seed, budget_pairs, cache_dir, None)
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
              cfg: RunConfig, jobs: int, out_path: Optional[Path]) -> list:
    cells = sweep_cells(command, m_spec, r_spec, t_spec)
    cache_dir = str(cfg.cache.directory) if cfg.cache else None
    args = [(command, params, cfg.field.descriptor(), cfg.order.descriptor(),
             cfg.seed, cfg.budget.max_pairs, cache_dir) for params in cells]
    fieldnames = ["command", "m", "r", "t", "verdict", "timing_ms", "detail"]
    out = open(out_path, "w", newline="") if out_path else sys.stdout
    writer = csv.DictWriter(out, fieldnames=fieldnames)
    writer.writeheader()
    rows = []
    try:
        if jobs > 1 and len(args) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for row in pool.map(_sweep_cell, args):
                    writer.writerow(row)
                    out.flush()
                    rows.append(row)
        else:
            for a in args:
                row = _sweep_cell(a)
                writer.writerow(row)
                out.flush()
                rows.append(row)
    finally:
        if out_path:
            out.close()
    return rows


# ---------------------------------------------------------------------------
# argument parsing

def _build_config(field_desc: str, order_desc: str, seed: int,
                  budget_pairs: int, cache_dir: Optional[str],
                  out_dir: Optional[str]) -> RunConfig:
    field = field_from_descriptor(field_desc) if field_desc not in ("q",) else QQ
    order = LEX if order_desc == "lex" else DEGREVLEX
    budget = GBBudget(max_pairs=budget_pairs)
    cache = GroebnerCache(Path(cache_dir), ENGINE_VERSION) if cache_dir else None
    return RunConfig(field, order, seed, budget, cache,
                     Path(out_dir) if out_dir else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelkit",
        description="Exact experiments on Hankel determinantal degenerations")
    sub = parser.add_subparsers(dest="command")

    def common(p, need_m=True):
        if need_m:
            p.add_argument("--m", type=int, required=True)
        p.add_argument("--r", type=int, default=0)
        p.add_argument("--t", type=int)
        p.add_argument("--field", default="q", help="q or f<p>, e.g. f3")
        p.add_argument("--order", default="degrevlex", choices=["degrevlex", "lex"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget-pairs", type=int, default=GBBudget().max_pairs)
        p.add_argument("--out", default=os.environ.get("HANKEL_OUT_DIR", "results"))
        p.add_argument("--cache", default=os.environ.get("HANKEL_CACHE_DIR"))
        p.add_argument("--format", default="json", choices=["json", "csv"])

    for name in COMMANDS:
        p = sub.add_parser(name)
        common(p)
        if name == "fiber-kernel":
            p.add_argument("--stretch", action="store_true",
                           help="allow the m=4 case")
        if name == "reduction-check":
            p.add_argument("--nmax", type=int, default=3)
        if name == "regular-seq":
            p.add_argument("--upto", type=int)

    p = sub.add_parser("sweep")
    p.add_argument("target", choices=COMMANDS)
    p.add_argument("--m", required=True, help="range, e.g. 3..6")
    p.add_argument("--r", default="0..m-2", help="range, may use m, e.g. 0..m-2")
    p.add_argument("--t", default="1..m", help="range for t-commands")
    p.add_argument("--field", default="q")
    p.add_argument("--order", default="degrevlex", choices=["degrevlex", "lex"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-pairs", type=int, default=GBBudget().max_pairs)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--cache", default=os.environ.get("HANKEL_CACHE_DIR"))

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
        cache = GroebnerCache(Path(args.cache), ENGINE_VERSION)
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

    if args.command == "sweep":
        cfg = _build_config(args.field, args.order, args.seed,
                            args.budget_pairs, args.cache, None)
        try:
            run_sweep(args.target, args.m, args.r, args.t, cfg, args.jobs,
                      Path(args.out) if args.out else None)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 3
        return 0

    cfg = _build_config(args.field, args.order, args.seed, args.budget_pairs,
                        args.cache, args.out)
    params = {"m": args.m}
    if args.command not in ("poset", "pluecker", "level-decomp", "regular-seq"):
        params["r"] = args.r
    if args.command in ("codim-minors", "gp-check"):
        if args.t is None:
            print("usage error: this command needs --t", file=sys.stderr)
            return 3
        params["t"] = args.t
    if args.command == "fiber-kernel":
        params["stretch"] = bool(getattr(args, "stretch", False))
    if args.command == "reduction-check":
        params["nmax"] = args.nmax
    if args.command == "regular-seq" and args.upto is not None:
        params["upto"] = args.upto

    try:
        report = execute(args.command, params, cfg)
    except (UsageError, PolyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "format", "json") == "csv":
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
