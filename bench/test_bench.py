"""Tests of the benchmark itself: the checker tells true reports from
corrupted ones, tracing leaves every canonical result byte-identical, and a
whole run of a small workload is correct and leaves no scratch files.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# Small cells, one or more per command the checker knows.
SMALL = [
    "codim-minors --m 5 --t 3 --r 1",
    "codim-gradient --m 4 --r 1",
    "minimal-primes --m 4 --r 1",
    "regular-seq --m 4",
    "fiber-kernel --m 3",
    "reduction-check --m 3",
    "linear-rank --m 4 --r 0",
    "linear-rank --m 4 --r 1 --field f3",
    "gradient --m 5 --r 1",
    "det --m 5",
    "det --m 6 --r 1 --field f7",
    "pluecker --m 4",
    "level-decomp --m 4",
    "hessian-check --m 5 --r 1",
]
SEED = 3


def results(specs, tracer=None):
    modules = run.load_hankelkit()
    if tracer is not None:
        tracer.install(modules)
        tracer.begin_pass("timed", "round0")
    cells = run.build_cells(modules["cli"], specs, SEED, None)
    outcomes, _, _ = run.run_pass(modules["cli"], cells, tracer)
    return outcomes


@pytest.fixture(scope="module")
def reports():
    return {spec: json.loads(raw) for spec, raw in zip(SMALL, results(SMALL))}


def render(terms):
    """Canonical text of [(Fraction, {var: exp})], enough for these tests."""
    out = ""
    for coeff, mono in terms:
        factors = [f"x{v}" + (f"^{e}" if e > 1 else "") for v, e in sorted(mono.items())]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        out += ("-" if coeff < 0 else "+" if out else "") + body
    return out


@pytest.mark.parametrize("spec", SMALL)
def test_checker_accepts_true_reports(reports, spec):
    assert checks.check_result(reports[spec], SEED) == []


@pytest.mark.parametrize("spec", ["codim-minors --m 5 --t 3 --r 1", "codim-gradient --m 4 --r 1"])
def test_checker_rejects_wrong_codimension(reports, spec):
    bad = json.loads(json.dumps(reports[spec]))
    bad["witness"]["codim"] += 1
    assert checks.check_result(bad, SEED)


@pytest.mark.parametrize("spec", ["linear-rank --m 4 --r 0", "linear-rank --m 4 --r 1 --field f3"])
def test_checker_rejects_perturbed_syzygy_coefficient(reports, spec):
    bad = json.loads(json.dumps(reports[spec]))
    row = bad["witness"]["syzygies"][0]
    i = next(i for i, text in enumerate(row) if text != "0")
    terms = checks.parse_poly(row[i])
    terms[0] = (terms[0][0] * 2, terms[0][1])
    row[i] = render(terms)
    assert row[i] != reports[spec]["witness"]["syzygies"][0][i]
    assert checks.check_result(bad, SEED)


def test_checker_rejects_perturbed_kernel_generator(reports):
    spec = "fiber-kernel --m 3"
    bad = json.loads(json.dumps(reports[spec]))
    terms = checks.parse_poly(bad["witness"]["kernel_generators"][0])
    terms[-1] = (terms[-1][0] + Fraction(1), terms[-1][1])
    bad["witness"]["kernel_generators"][0] = render(terms)
    assert checks.check_result(bad, SEED)


@pytest.mark.parametrize("field,value", [("quadric_relations", 1), ("cubic_relations", -1)])
def test_checker_rejects_wrong_relation_count(reports, field, value):
    bad = json.loads(json.dumps(reports["fiber-kernel --m 3"]))
    bad["witness"][field] += value
    assert checks.check_result(bad, SEED)


def test_checker_rejects_wrong_hessian_coefficient(reports):
    bad = json.loads(json.dumps(reports["hessian-check --m 5 --r 1"]))
    # doubling could land on the other sign choice of the closed form
    bad["witness"]["witness"] = "3*" + bad["witness"]["witness"]
    assert checks.check_result(bad, SEED)


def test_tracing_keeps_results_byte_identical():
    specs = SMALL + ["fiber-kernel --m 4 --r 2 --stretch --field f32003"]
    plain = results(specs)
    tracer = spans.Tracer()
    traced = results(specs, tracer)
    tracer.end()
    assert traced == plain
    layer = {name: v["value"] for name, v in tracer.metrics().items()}
    for name in ("groebner.buchberger.calls", "polyring.mono_divides.calls",
                 "polyring.order_key.calls", "linalg.nullspace.cells",
                 "symmatrix.determinant.calls", "cli.execute.calls"):
        assert layer[name] > 0, name
    assert layer["cli.execute.calls"] == len(specs)


def test_warm_run_is_correct_and_cleans_up(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny-warm",
                        (["codim-minors --m 5 --t 3 --r 1", "fiber-kernel --m 3"], True, 2))
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run("tiny-warm", SEED, 0.0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * 2 + 2
    layer = {name: v["value"] for name, v in result["metrics"].items()}
    assert layer["cache.hits"] > 0 and layer["cache.misses"] == 0
    assert layer["cache.put.calls"] > 0 and layer["cache.bytes_read"] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["trace-tiny-warm.jsonl"]
