"""The tracked reports under ``results/`` are fixtures: each canonical
``result`` must re-derive byte for byte from its own params and seed."""

import json
import re
from pathlib import Path

import pytest

from hankelkit import cli
from hankelkit.groebner import GBBudget

RESULTS = Path(__file__).resolve().parents[1] / "results"
REPORTS = sorted(RESULTS.rglob("*.json"))


def _cell(result: dict) -> tuple:
    """The command params and run configuration that made ``result``."""
    params = dict(result["params"])
    field, order = params.pop("field"), params.pop("order")
    max_pairs = GBBudget().max_pairs
    if result["verdict"] == "budget-exceeded":
        # a report made with --budget-pairs N says "pair reductions > N"
        max_pairs = int(re.search(r"pair reductions > (\d+)",
                                  result["witness"]["reason"]).group(1))
    return params, cli._build_config(field, order, result["seed"], max_pairs, None, None)


def test_reports_are_tracked():
    assert len(REPORTS) >= 28


def test_every_command_has_a_tracked_report():
    # so that the byte-identity check below covers every command's witness
    checks = {json.loads(path.read_text())["result"]["check"] for path in REPORTS}
    assert set(cli.COMMANDS) - checks == set()


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.relative_to(RESULTS).as_posix())
def test_tracked_report_rederives(path):
    stored = json.loads(path.read_text())["result"]
    params, cfg = _cell(stored)
    report = cli.execute(stored["check"], params, cfg)
    assert cli.canonical_bytes(report["result"]) == cli.canonical_bytes(stored)
