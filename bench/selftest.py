"""Tests of the benchmark itself.  Not collected by the repository's test run
(the file name does not match ``test_*.py``); run them explicitly:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from susypiv import cli  # noqa: E402


def _emit(cmd, path):
    argv = list(cmd.argv) + ["--output", str(path)]
    assert cli.run(cli.config_from_args(cli.build_parser().parse_args(argv))) == 0


def _small(name, extra, fmt="csv"):
    return workloads.command(
        name, complex(1.3, 0.4), 1.2, 0.7, -2.0, 2.0, 0.01, (*extra, "--format", fmt)
    )


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert spec["paths"] == ["bench"]


def _shape(cmd):
    """The command with every number masked."""

    def masked(arg):
        try:
            float(arg)
        except ValueError:
            return arg
        return "#"

    return [masked(arg) for arg in cmd.argv], (cmd.xmin, cmd.xmax, cmd.step, cmd.points)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_depend_only_on_the_seed(workload):
    a, b = workloads.build(workload, 7), workloads.build(workload, 8)
    assert a == workloads.build(workload, 7)
    assert [_shape(c) for c in a] == [_shape(c) for c in b]
    if workload == "verify_suite":
        assert a == b
    else:
        assert [(c.eps, c.coefficient) for c in a] != [(c.eps, c.coefficient) for c in b]


@pytest.mark.parametrize(
    "name, extra, fmt, column",
    [
        ("potential", (), "csv", 1),
        ("piv", ("--family", "1"), "json", 2),
        ("piv", ("--family", "3"), "csv", 3),
        ("extremal", ("--family", "2"), "csv", 1),
    ],
)
def test_oracle_rejects_a_perturbed_row(tmp_path, name, extra, fmt, column):
    cmd = _small(name, extra, fmt)
    path = tmp_path / f"out.{fmt}"
    _emit(cmd, path)
    clean = oracle.check_output(cmd, path, random.Random(5))
    assert clean.ok, clean.mismatches + clean.problems
    assert clean.sampled == 40 and clean.worst < 0.01 * oracle.TOLERANCE

    # Move one sampled value by a tenth of the tolerance (accepted) and by ten
    # times the tolerance (rejected), in the column's own scale.
    rows = oracle.read_rows(path, fmt)
    picks, _ = oracle.sample_indices(rows[:, 0], cmd.xmin, cmd.xmax, random.Random(5))
    target = picks[len(picks) // 2]
    with oracle.mpmath.workdps(oracle.DIGITS):
        _, _, scale = oracle.reference(cmd, rows[target, 0])[(column - 1) // 2]
    for shift, rejected in ((0.1, False), (10.0, True)):
        bad = rows.copy()
        bad[target, column] += shift * oracle.TOLERANCE * float(scale)
        header = cli._HEADERS[name]
        if fmt == "json":
            path.write_text(json.dumps({"rows": [dict(zip(header, map(float, r))) for r in bad]}))
        else:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([header, *(map(repr, map(float, r)) for r in bad)])
        check = oracle.check_output(cmd, path, random.Random(5))
        assert (not check.ok) == rejected
        if rejected:
            assert [m.x for m in check.mismatches] == [rows[target, 0]]


def test_oracle_reports_a_gap_in_the_rows(tmp_path):
    cmd = _small("potential", ())
    path = tmp_path / "out.csv"
    _emit(cmd, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:100] + lines[130:]) + "\n")
    check = oracle.check_output(cmd, path, random.Random(1))
    assert any("no rows" in p for p in check.problems)


def test_failures_count_against_correctness_only_where_z_is_at_most_30():
    text = (
        "eps=1+1i lam=1 kappa=1  schrodinger    max=1.0e-03 mean=1e-4 excluded=0 limit=1e-07  FAIL\n"
        + "eps=1+1i lam=1 kappa=1  riccati        max=1.0e-12 mean=1e-13 excluded=0 limit=1e-07  PASS\n" * 10
        + "verify: 11 reports, 1 failed, 0 saturated\n"
    )
    inside = workloads.command("verify", 1 + 1j, 1.0, 1.0, -5.0, 5.0, 0.01)
    outside = workloads.command("verify", 1 + 1j, 1.0, 1.0, -7.0, 7.0, 0.01)
    out_in, out_out = run.judge_verify(inside, 1, text), run.judge_verify(outside, 1, text)
    assert (out_in.ops, out_in.failed, len(out_in.problems)) == (11, 1, 1)
    assert (out_out.failed, out_out.problems, len(out_out.known)) == (1, [], 1)
    # A wrong exit status or a missing report makes the output malformed.
    assert run.judge_verify(inside, 0, text).problems
    assert run.judge_verify(inside, 1, text.replace("FAIL\n", "", 1)).problems


def test_traced_counts_repeat_exactly_and_self_times_add_up():
    tracer = spans.Tracer()
    commands = [workloads.command("verify", complex(-1, 1), 1.0, 1.0, -2.0, 2.0, 0.02)]
    runner = run.Runner(cli, commands, None)
    for rep in range(2):
        tracer.rep = rep
        with tracer.installed():
            runner.run_pass(tracer)
    assert cli.run.__module__ == "susypiv.cli"  # wrappers removed
    first, second = (tracer.layer_metrics(rep, 0.0) for rep in range(2))
    assert {k: first[k] for k in spans.EXACT} == {k: second[k] for k in spans.EXACT}
    assert first["verify.reports"] == 11 and first["kummer.calls"] > 0
    assert first["seed.points"] <= first["kummer.points"]
    own = tracer.self_times()
    tops = [i for i, s in enumerate(tracer.spans) if s.parent < 0 and s.rep == 0]
    total = sum(tracer.spans[i].end - tracer.spans[i].start for i in tops)
    assert sum(t for t, s in zip(own, tracer.spans) if s.rep == 0) == total
    assert min(own) >= 0


def test_paced_stream_splits_a_command_around_kernel_samples(monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.0)  # a sample after every line

    def clock():
        start = time.perf_counter()
        time.sleep(0.001)
        return time.perf_counter() - start

    commands = [workloads.command("verify", complex(-1, 1), 1.0, 1.0, -2.0, 2.0, 0.02)]
    runner = run.Runner(cli, commands, None)
    start = time.perf_counter()
    pieces, inner, (code, _, text) = runner._run(0, clock)
    elapsed = time.perf_counter() - start
    assert code == 0 and len(text.splitlines()) == 12
    assert len(inner) == 12 and len(pieces) == 13 and min(pieces) >= 0
    assert sum(pieces) + sum(inner) == pytest.approx(elapsed, abs=2e-3)
    # Against a kernel of constant speed the relative time is the plain ratio.
    assert sum(run.relative(pieces, [0.5] * 14)) == pytest.approx(sum(pieces) / 0.5)
    times, rel = runner.run_pass()
    assert len(times) == 1 and rel == []


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
