"""CLI exit codes, report determinism, sweeps, and cache administration."""

import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

from hankelkit import cli
from hankelkit.cache import _FORMAT, _entry_bytes
from hankelkit.cli import main, sweep_cells
from hankelkit.polyring import DEGREVLEX, packing

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def report_of(out):
    return json.loads(out)


def test_exit_code_pass():
    code, out = run_cli(["det", "--m", "3", "--r", "0"])
    assert code == 0
    rep = report_of(out)
    assert rep["result"]["verdict"] == "pass"
    assert rep["result"]["params"] == {"field": "QQ", "m": 3, "order": "degrevlex", "r": 0}


def test_exit_code_usage_error():
    code, _ = run_cli(["appendix-check", "--m", "4", "--r", "2"])
    assert code == 3
    code, _ = run_cli(["codim-minors", "--m", "3"])  # missing --t
    assert code == 3
    code, _ = run_cli(["fiber-kernel", "--m", "4", "--r", "1"])  # no --stretch
    assert code == 3
    code, _ = run_cli(["no-such-command"])
    assert code == 3


def test_unhonoured_field_or_order_is_a_usage_error():
    # only codim-minors honours --order; appendix-check, codim-gradient,
    # poset, minimal-primes and regular-seq compute over QQ only; poset reads
    # no --r or --t; zz names no field
    for args in (["codim-gradient", "--m", "4", "--r", "1", "--field", "f3"],
                 ["minimal-primes", "--m", "4", "--r", "1", "--order", "lex"],
                 ["regular-seq", "--m", "3", "--field", "f5"],
                 ["gp-check", "--m", "3", "--t", "2", "--order", "lex"],
                 ["appendix-check", "--m", "4", "--r", "1", "--order", "lex"],
                 ["det", "--m", "3", "--r", "1", "--order", "lex"],
                 ["poset", "--m", "4", "--field", "f3", "--r", "7", "--t", "9"],
                 ["poset", "--m", "4", "--field", "f3"],
                 ["det", "--m", "3", "--field", "zz"]):
        code, out = run_cli(args)
        assert code == 3 and not out, args
    for args in (["codim-minors", "--m", "3", "--t", "2", "--order", "lex"],
                 ["linear-rank", "--m", "4", "--r", "1", "--field", "f3"]):
        code, _ = run_cli(args)
        assert code == 0, args


def test_prime_fields_give_the_qq_verdicts():
    # each verdict over GF(5) and GF(32003) must match QQ's: at these cells a
    # difference points at field arithmetic, not at the mathematics
    cells = [["det", "--m", "4", "--r", "1"],
             ["gradient", "--m", "4", "--r", "1"],
             ["hessian-check", "--m", "4", "--r", "1"],
             ["theta-check", "--m", "4", "--r", "0"],
             ["theta-check", "--m", "5", "--r", "1"],
             ["codim-minors", "--m", "4", "--r", "1", "--t", "2"],
             ["gp-check", "--m", "3", "--t", "2"],
             ["level-decomp", "--m", "4"],
             ["fiber-kernel", "--m", "3"],
             ["reduction-check", "--m", "3"],
             ["linear-rank", "--m", "4"],
             ["pluecker", "--m", "3"],
             ["pluecker", "--m", "4"]]
    for args in cells:
        verdicts = []
        for field in ("q", "f5", "f32003"):
            code, out = run_cli(args + ["--field", field])
            verdicts.append(report_of(out)["result"]["verdict"])
        assert verdicts[1:] == [verdicts[0]] * 2, args
    # 1/2 does not exist in characteristic 2, and lambda = 3 vanishes in 3
    for field in ("f2", "f3"):
        code, out = run_cli(["pluecker", "--m", "4", "--field", field])
        assert code == 3 and not out, field


def test_theta_check_rejects_a_prime_dividing_its_scalar():
    # the QQ scalar is 16 at m = 3, 72 at m = 4 and 800 at m = 6; where p
    # divides it the GF(p) determinant vanishes whatever the claim says
    for args in (["--m", "4", "--r", "2", "--field", "f3"],
                 ["--m", "3", "--r", "0", "--field", "f2"],
                 ["--m", "6", "--r", "0", "--field", "f5"]):
        code, out = run_cli(["theta-check"] + args)
        assert code == 3 and not out, args
    code, out = run_cli(["theta-check", "--m", "4", "--r", "2", "--field", "f5"])
    assert code == 0 and report_of(out)["result"]["witness"]["scalar"] == "2"


def test_reduction_check_rejects_a_prime_that_drops_span_dimensions():
    # over QQ the steps at m = 3 have (product, power) dims (5, 6), (20, 20);
    # GF(2) gets (3, 6) at n = 0 and GF(3) gets (19, 20) at n = 1
    for field in ("f2", "f3"):
        code, out = run_cli(["reduction-check", "--m", "3", "--field", field])
        assert code == 3 and not out, field
    for field in ("f5", "f7"):
        code, out = run_cli(["reduction-check", "--m", "3", "--field", field])
        assert code == 0, field
        steps = report_of(out)["result"]["witness"]["steps"]
        assert [(s["dim_product"], s["dim_power"]) for s in steps] == [(5, 6), (20, 20)]
    # at r = 1 every field passes, but GF(2) gets (2, 6) and GF(3) gets
    # (16, 19) at n = 1: a pass whose witness is not QQ's is refused too
    for field in ("f2", "f3"):
        code, out = run_cli(["reduction-check", "--m", "3", "--r", "1", "--field", field])
        assert code == 3 and not out, field
    code, out = run_cli(["reduction-check", "--m", "3", "--r", "1", "--field", "f5"])
    assert code == 0
    steps = report_of(out)["result"]["witness"]["steps"]
    assert [(s["dim_product"], s["dim_power"]) for s in steps] == [
        (4, 6), (17, 19), (42, 44), (83, 85)]


def test_default_out_dir_is_reports(tmp_path, monkeypatch):
    # the tracked golden reports live under results/; a run with neither
    # --out nor HANKEL_OUT_DIR must not add to them
    monkeypatch.delenv("HANKEL_OUT_DIR")
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(["det", "--m", "3", "--r", "1"])
    assert code == 0
    files = list((tmp_path / "reports").rglob("*.json"))
    assert len(files) == 1 and files[0].parent.name == "det"
    assert not (tmp_path / "results").exists()


def test_gradient_command_checks_once(monkeypatch):
    from hankelkit import gradient

    calls = []
    check = gradient.cofactor_decomposition_check
    monkeypatch.setattr(gradient, "cofactor_decomposition_check",
                        lambda data: calls.append(data) or check(data))
    code, out = run_cli(["gradient", "--m", "3", "--r", "1"])
    assert code == 0 and len(calls) == 1
    # the check's own map is the witness entry, passed through as it is
    decomposition = report_of(out)["result"]["witness"]["cofactor_decomposition"]
    assert decomposition == check(calls[0]) == {"1": True, "2": True, "3": True, "4": True}


def test_exit_code_budget_exceeded():
    # at 20 pairs minimal-primes finishes its containments and codimensions
    # but not its radical spot checks: an undecided check is not a pass
    for args in (["codim-gradient", "--m", "4", "--r", "0", "--budget-pairs", "2"],
                 ["minimal-primes", "--m", "4", "--r", "1", "--budget-pairs", "20"]):
        code, out = run_cli(args)
        assert code == 2, args
        assert report_of(out)["result"]["verdict"] == "budget-exceeded", args


def test_conjecture_commands_never_hard_fail():
    for args in (["linear-rank", "--m", "4", "--r", "1"],
                 ["regular-seq", "--m", "4"],
                 ["regular-seq", "--m", "3"]):
        code, out = run_cli(args)
        verdict = report_of(out)["result"]["verdict"]
        assert verdict in ("consistent", "counterexample", "budget-exceeded")
        assert code in (0, 1, 2)


def test_linear_rank_hard_cells():
    code, out = run_cli(["linear-rank", "--m", "4", "--r", "0"])
    assert code == 0 and report_of(out)["result"]["witness"]["linear_rank"] == 3
    code, out = run_cli(["linear-rank", "--m", "4", "--r", "1", "--field", "f3"])
    rep = report_of(out)
    assert code == 0 and rep["result"]["verdict"] == "pass"
    assert rep["result"]["witness"]["linear_rank"] == 3


def test_report_determinism_and_results_dir(tmp_path):
    out_dir = tmp_path / "results"
    args = ["theta-check", "--m", "3", "--r", "1", "--seed", "7",
            "--out", str(out_dir)]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    r1, r2 = report_of(out1), report_of(out2)
    # the canonical payload is byte-identical; timing may differ
    c1 = json.dumps(r1["result"], sort_keys=True, separators=(",", ":"))
    c2 = json.dumps(r2["result"], sort_keys=True, separators=(",", ":"))
    assert c1 == c2
    assert r1["result"]["seed"] == 7
    files = list(out_dir.rglob("*.json"))
    assert len(files) == 1 and files[0].parent.name == "theta-check"
    stored = json.loads(files[0].read_text())
    assert stored["result"] == r1["result"]


def test_cache_round_trip_and_hits(tmp_path):
    cache_dir = tmp_path / "cache"
    args = ["codim-gradient", "--m", "3", "--r", "1", "--cache", str(cache_dir)]
    code, out = run_cli(args)
    assert code == 0
    first = report_of(out)
    code, out = run_cli(args)
    second = report_of(out)
    assert second["cache_hits"] > 0
    assert first["result"] == second["result"]
    code, out = run_cli(["cache", "stats", "--cache", str(cache_dir)])
    assert code == 0
    stats = report_of(out)
    assert stats["entries"] >= 1


def test_cache_verify_evicts_corruption(tmp_path):
    cache_dir = tmp_path / "cache"
    run_cli(["codim-gradient", "--m", "3", "--r", "1", "--cache", str(cache_dir)])
    entries = sorted(Path(cache_dir, "gb").glob("*.txt"))
    assert entries
    # corrupt one basis: a well-formed entry whose reducible pair x1, x1*x2
    # cannot be a reduced basis, under a digest that matches
    pk = packing(DEGREVLEX, 2)
    entries[0].write_bytes(_entry_bytes(entries[0].stem, {
        "format": _FORMAT, "engine": "x", "field": "QQ", "nvars": 2,
        "order": "degrevlex",
        "basis": [[[pk.encode((1, 0)), 1]], [[pk.encode((1, 1)), 1]]]}))
    code, out = run_cli(["cache", "verify", "--cache", str(cache_dir)])
    assert code == 0
    rep = report_of(out)
    assert entries[0].name in rep["evicted"]
    assert not entries[0].exists()


def test_report_counts_the_cache_hits_of_its_own_call(tmp_path):
    cfg = cli._build_config("q", "degrevlex", 0, 200_000, str(tmp_path / "cache"), None)
    params = {"m": 3, "r": 1}
    cold, warm, again = (cli.execute("codim-gradient", dict(params), cfg) for _ in range(3))
    assert warm["cache_hits"] > 0
    assert again["cache_hits"] == warm["cache_hits"]
    assert cold["cache_hits"] + warm["cache_hits"] + again["cache_hits"] == cfg.cache.hits
    assert cold["result"] == warm["result"] == again["result"]


def test_cache_verify_accepts_good_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    run_cli(["codim-gradient", "--m", "3", "--r", "1", "--cache", str(cache_dir)])
    code, out = run_cli(["cache", "verify", "--cache", str(cache_dir)])
    rep = report_of(out)
    assert rep["checked"] and not rep["evicted"]
    code, out = run_cli(["cache", "clear", "--cache", str(cache_dir)])
    assert report_of(out)["removed"] >= 1


def test_sweep_cells_dependent_range():
    cells = sweep_cells("hessian-check", "3..5", "0..m-2", "1..m")
    assert {"m": 3, "r": 0} in cells and {"m": 5, "r": 3} in cells
    assert all(c["r"] <= c["m"] - 2 for c in cells)
    assert len(cells) == 2 + 3 + 4


def test_malformed_sweep_bound_is_a_usage_error(tmp_path):
    for spec in (["--m", "3..x"], ["--m", "x"], ["--m", "3", "--r", "m-x"],
                 ["--m", "3", "--r", "0..mx"], ["--m", "m..4"]):
        code, _ = run_cli(["sweep", "det", *spec, "--jobs", "1",
                           "--out", str(tmp_path / "rows.csv")])
        assert code == 3, spec


def test_sweep_csv_output(tmp_path):
    out_csv = tmp_path / "rows.csv"
    code, _ = run_cli(["sweep", "codim-gradient", "--m", "3..3", "--r", "0..m-2",
                       "--jobs", "1", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("command,m,r,t,verdict")
    assert len(lines) == 3
    assert all(",pass," in line for line in lines[1:])


def test_sweep_empty_range(tmp_path):
    out_csv = tmp_path / "empty.csv"
    code, _ = run_cli(["sweep", "poset", "--m", "5..4", "--jobs", "1",
                       "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_exit_code_contract_for_every_command():
    # scripted matrix: one cheap parameter cell per command, with the params
    # its report records besides field and order
    matrix = [
        (["det", "--m", "3", "--r", "1"], {"m": 3, "r": 1}),
        (["gradient", "--m", "3", "--r", "1"], {"m": 3, "r": 1}),
        (["hessian-check", "--m", "3", "--r", "1"], {"m": 3, "r": 1}),
        (["appendix-check", "--m", "4", "--r", "1"], {"m": 4, "r": 1}),
        (["theta-check", "--m", "3", "--r", "1"], {"m": 3, "r": 1}),
        (["codim-minors", "--m", "3", "--t", "2", "--r", "1"], {"m": 3, "r": 1, "t": 2}),
        (["codim-gradient", "--m", "3", "--r", "1"], {"m": 3, "r": 1}),
        (["gp-check", "--m", "3", "--t", "2", "--r", "1"], {"m": 3, "r": 1, "t": 2}),
        (["poset", "--m", "4"], {"m": 4}),
        (["pluecker", "--m", "3"], {"m": 3}),
        (["level-decomp", "--m", "3"], {"m": 3}),
        (["fiber-kernel", "--m", "3", "--r", "1"], {"m": 3, "r": 1, "stretch": False}),
        (["linear-rank", "--m", "4", "--r", "2"], {"m": 4, "r": 2}),
        (["reduction-check", "--m", "3", "--r", "0"], {"m": 3, "r": 0, "nmax": 3}),
        (["minimal-primes", "--m", "4", "--r", "1"], {"m": 4, "r": 1}),
        (["regular-seq", "--m", "3"], {"m": 3}),
    ]
    assert {args[0] for args, _ in matrix} == set(cli.COMMANDS)
    expected_code = {"pass": 0, "consistent": 0, "fail": 1,
                     "counterexample": 1, "budget-exceeded": 2}
    for args, params in matrix:
        code, out = run_cli(args)
        result = report_of(out)["result"]
        assert code == expected_code[result["verdict"]], args
        assert code == 0, args  # every cell in this matrix is a passing one
        assert result["params"] == {"field": "QQ", "order": "degrevlex", **params}, args


def test_readme_cli_lines_parse():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^hankelkit .*$", section, re.MULTILINE)
    assert len(lines) >= len(cli.COMMANDS)
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_cache_dir_env_override(tmp_path, monkeypatch):
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("HANKEL_CACHE_DIR", str(cache_dir))
    code, _ = run_cli(["codim-gradient", "--m", "3", "--r", "1"])
    assert code == 0
    assert list(Path(cache_dir, "gb").glob("*.txt"))


def test_single_command_csv_format():
    code, out = run_cli(["det", "--m", "3", "--r", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,m,r,t,verdict,timing_ms"
    assert lines[1].startswith("det,3,1,,pass,")


def test_cli_subprocess_round_trip(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hankelkit.cli", "theta-check", "--m", "3",
         "--r", "0", "--out", str(tmp_path / "res")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["result"]["verdict"] == "pass"
    bad = subprocess.run(
        [sys.executable, "-m", "hankelkit.cli", "codim-minors", "--m", "3"],
        capture_output=True, text=True)
    assert bad.returncode == 3


def test_sweep_on_a_disk_cache_matches_the_serial_rows(tmp_path):
    # pool workers read and fill the cache of the RunConfig they are handed
    def rows(jobs, *cache):
        out_csv = tmp_path / "rows.csv"
        code, _ = run_cli(["sweep", "codim-gradient", "--m", "3..4", "--jobs", str(jobs),
                           *cache, "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            return [(row["m"], row["r"], row["verdict"], row["detail"])
                    for row in csv.DictReader(fh)]

    serial = rows(1)
    assert len(serial) == 2 + 3
    cache = ["--cache", str(tmp_path / "cache")]
    assert rows(2, *cache) == serial
    assert list((tmp_path / "cache" / "gb").glob("*.txt"))
    assert rows(2, *cache) == serial


def test_sweep_parallel_jobs(tmp_path):
    out_csv = tmp_path / "par.csv"
    code, _ = run_cli(["sweep", "det", "--m", "2..4", "--r", "0..m-2",
                       "--jobs", "2", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1 + (1 + 2 + 3)
    # cells arrive in deterministic submission order
    ms = [line.split(",")[1] for line in lines[1:]]
    assert ms == sorted(ms)
