"""Benchmark of the susypiv command line: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload verify_suite --seed 1 --seconds 50 --trace 0

The workload's CLI commands run in this one interpreter on one thread, as a
closed loop with one client: each command starts when the previous one has
returned.  Passes over the command list repeat until ``--seconds`` have gone
by; the first pass fixes the reference outputs.  Set-up is timed in fresh
interpreters started one at a time between passes.  Each command and each
set-up probe is timed against the reference kernel of ``reference.py``, run
just before and just after it, and the reported seconds are at that
kernel's nominal speed (see README.md).  Every output is checked; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the spans
of the traced ones.  Outputs go to a temporary directory under
``.bench_tmp/``; the result record and the spans are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

SETUP_PROBES = 9
# Least CLI time between two reference-kernel samples inside one command.
SAMPLE_EVERY_S = 0.4

# The library sums the 1F1 Maclaurin series only up to z = x**2 = 30 and uses
# a dominant-branch asymptotic expansion beyond.  That branch is known to be
# wrong for ordinary seeds; failures confined to z > 30 are counted in
# ``failed`` but do not make the run incorrect.  Any failure on a grid or row
# with z <= 30 does.
ASYMPTOTIC_Z = 30.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import susypiv
from susypiv import cli
cli.build_parser()
print(time.perf_counter() - t0)
"""

_VERDICT = re.compile(r"\s(PASS|FAIL)$|\sSATURATED \(")
_SUMMARY = re.compile(r"^verify: (\d+) reports, (\d+) failed, (\d+) saturated$")


@dataclass
class Outcome:
    """Verdict on one command of the workload, from its first-pass output."""

    ops: int  # operations: one per verify report, one per data command
    failed: int = 0
    problems: list = field(default_factory=list)  # make the run incorrect
    known: list = field(default_factory=list)  # failures at z > ASYMPTOTIC_Z


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_probe():
    """Seconds to import susypiv and build the CLI parser in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class PacedStream(io.StringIO):
    """Report stream that times the reference kernel between report lines.

    ``verify`` prints one line per report as it goes.  After a line ends and
    at least ``SAMPLE_EVERY_S`` have passed since the last kernel sample, the
    kernel runs once more, so a long command is split into short pieces,
    each timed against the kernel just around it.  Without ``clock`` it is a
    plain ``StringIO``.
    """

    def __init__(self, clock=None):
        super().__init__()
        self.clock = clock
        self.marks = []  # per sample: (perf_counter when it started, kernel seconds)
        self.last = time.perf_counter()

    def write(self, text):
        n = super().write(text)
        if self.clock is not None and text.endswith("\n"):
            now = time.perf_counter()
            if now - self.last >= SAMPLE_EVERY_S:
                self.marks.append((now, self.clock()))
                self.last = time.perf_counter()
        return n


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Runs the command list through the CLI and remembers what came out."""

    def __init__(self, cli, commands, tmp):
        self.cli = cli
        self.commands = commands
        self.paths = [
            None if c.is_verify else os.path.join(tmp, f"cmd{i}.{c.fmt}")
            for i, c in enumerate(commands)
        ]
        self.reference = None  # per command of the first pass: (exit code, digest, text)
        self.drift = []  # commands whose output changed between passes

    def _run(self, i, clock=None):
        """Run command ``i``; its pieces of CLI time between kernel samples,
        the kernel seconds of those samples, and (exit code, digest, text)."""
        cmd, path = self.commands[i], self.paths[i]
        argv = list(cmd.argv) + ([] if path is None else ["--output", path])
        stream = PacedStream(clock)
        error = None
        start = time.perf_counter()
        try:
            config = self.cli.config_from_args(self.cli.build_parser().parse_args(argv))
            code = self.cli.run(config, stream)
        except Exception:  # an uncaught error ends the CLI with status 1
            code, error = 1, traceback.format_exc()
        end = time.perf_counter()
        edges = [start]
        for at, seconds in stream.marks:
            edges += [at, at + seconds]
        edges.append(end)
        pieces = [edges[k + 1] - edges[k] for k in range(0, len(edges), 2)]
        text = stream.getvalue()
        digest = _digest(path) if path and code == 0 else hashlib.sha256(text.encode()).hexdigest()
        return pieces, [seconds for _, seconds in stream.marks], (code, digest, error or text)

    def run_pass(self, tracer=None, clock=None):
        """Seconds spent inside the CLI by each command, over one pass.

        With ``clock`` (a function returning the reference kernel's seconds)
        the kernel also runs before the first command, after each command
        and between report lines (``PacedStream``), and the second list
        holds each command's time relative to the kernel; otherwise it is
        empty.
        """
        times, rel = [], []
        before = None if clock is None else clock()
        seen = []
        for i in range(len(self.commands)):
            if tracer is not None:
                tracer.op += 1
            pieces, inner, result = self._run(i, clock)
            times.append(sum(pieces))
            seen.append(result)
            if clock is not None:
                after = clock()
                rel.append(sum(relative(pieces, [before, *inner, after])))
                before = after
        if self.reference is None:
            self.reference = seen
        else:
            self.drift.extend(i for i, r in enumerate(seen) if r[:2] != self.reference[i][:2])
        return times, rel


def list_seconds(passes):
    """Time to run the command list: the sum of each command's median.

    On a shared machine the speed changes within seconds and drifts over
    minutes; a per-command median rides out a slow spell that covers only
    part of a pass.
    """
    return sum(statistics.median(p[i] for p in passes) for i in range(len(passes[0])))


def relative(seconds, refs):
    """Each time divided by the mean reference-kernel time around it.

    ``refs`` holds one more entry than ``seconds``: kernel sample ``i`` ran
    just before time ``i`` and sample ``i + 1`` just after it.
    """
    return [t / ((refs[i] + refs[i + 1]) / 2.0) for i, t in enumerate(seconds)]


def timed_probe(clock):
    """A set-up probe's seconds and its time relative to the reference kernel."""
    before = clock()
    seconds = setup_probe()
    return seconds, relative([seconds], [before, clock()])[0]


def judge_verify(cmd, code, text) -> Outcome:
    """Verdicts of one ``verify`` command from its report lines."""
    out = Outcome(ops=cmd.n_reports)
    lines = text.strip().splitlines()
    verdicts = [m.group(1) or "SATURATED" for m in map(_VERDICT.search, lines[:-1]) if m]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    failed = sum(v != "PASS" for v in verdicts)
    saturated = verdicts.count("SATURATED")
    expected_code = 3 if saturated else (1 if failed else 0)
    if (len(verdicts) != cmd.n_reports or summary is None
            or (int(summary.group(1)), int(summary.group(2)) + int(summary.group(3)))
            != (cmd.n_reports, failed) or code != expected_code):
        out.failed = cmd.n_reports
        out.problems.append(f"{' '.join(cmd.argv)}: malformed report (exit {code}): {text[-300:]}")
        return out
    out.failed = failed
    for line in lines[:-1]:
        if not line.endswith("PASS"):
            note = f"{' '.join(cmd.argv[:3])} ...: {line.strip()}"
            (out.known if cmd.max_z > ASYMPTOTIC_Z else out.problems).append(note)
    return out


def judge_data(cmd, code, text, path, rng) -> tuple:
    """Verdict of one data command from its exit status and the oracle."""
    import oracle

    out = Outcome(ops=1)
    label = " ".join(cmd.argv[:3]) + " ..."
    if code != 0:
        out.failed = 1
        out.problems.append(f"{label}: exit {code}: {text[-300:]}")
        return out, None
    check = oracle.check_output(cmd, path, rng)
    if not check.ok:
        out.failed = 1
        out.problems.extend(f"{label}: {p}" for p in check.problems)
        for m in check.mismatches:
            note = f"{label}: {m.column} at x={m.x:.4f} off by {m.error:.2e} (tolerance {oracle.TOLERANCE:g})"
            (out.known if m.x * m.x > ASYMPTOTIC_Z else out.problems).append(note)
    return out, check


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "susypiv" / "__init__.py").is_file():
        print(f"error: susypiv sources not found under {SRC}", file=sys.stderr)
        return 2
    # One thread: keep numpy's BLAS from starting a pool at import, here and
    # in the set-up probes, which inherit the environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mpmath
    import numpy
    import susypiv
    from susypiv import cli

    import reference
    import spans
    import workloads

    if Path(susypiv.__file__).resolve().parent != SRC / "susypiv":
        print(f"error: imported susypiv from {susypiv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    commands = workloads.build(args.workload, args.seed)
    points = sum(c.points for c in commands)
    setup, untraced, traced = [], [], []
    untraced_rel = []  # per untraced pass: each command's time relative to the kernel
    clock = reference.reference_seconds
    tracer = spans.Tracer()
    TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        runner = Runner(cli, commands, tmp)
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            gc.collect()
            if not args.trace:
                times, rel = runner.run_pass(clock=clock)
                untraced.append(times)
                untraced_rel.append(rel)
                # Probes between passes sample the machine over the whole run.
                setup.append(timed_probe(clock))
                continue
            # Alternate which side of a pair goes first so drift cancels.
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                gc.collect()
                if with_trace:
                    tracer.rep = len(traced)
                    with tracer.installed():
                        traced.append(runner.run_pass(tracer)[0])
                else:
                    untraced.append(runner.run_pass()[0])
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(timed_probe(clock))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        rng = random.Random(f"oracle:{args.workload}:{args.seed}")
        outcomes, checks = [], []
        for cmd, path, (code, _, text) in zip(commands, runner.paths, runner.reference):
            if cmd.is_verify:
                outcomes.append(judge_verify(cmd, code, text))
            else:
                outcome, check = judge_data(cmd, code, text, path, rng)
                outcomes.append(outcome)
                checks.append(check)

    passes = len(untraced) + len(traced)
    problems = [p for o in outcomes for p in o.problems]
    problems += [f"output of {' '.join(commands[i].argv[:3])} ... changed between passes"
                 for i in sorted(set(runner.drift))]
    known = [k for o in outcomes for k in o.known]
    ops = sum(o.ops for o in outcomes)
    failed_per_pass = sum(o.failed for o in outcomes)
    attempted, failed = ops * passes, failed_per_pass * passes

    wall_s = list_seconds(untraced)
    if args.trace:
        overhead = list_seconds(traced) - wall_s
        per_rep = [tracer.layer_metrics(rep, overhead) for rep in range(len(traced))]
        for name in spans.EXACT:
            if len({m[name] for m in per_rep}) > 1:
                problems.append(f"{name} differs between traced passes: {[m[name] for m in per_rep]}")
        values = {
            name: statistics.median(m[name] for m in per_rep) if name not in spans.EXACT
            else per_rep[0][name]
            for name in spans.PER_LAYER
        }
        units = spans.PER_LAYER
    else:
        # Seconds at the kernel's nominal speed (reference.REF_S).
        nominal_wall_s = reference.REF_S * list_seconds(untraced_rel)
        values = {
            "setup_s": reference.REF_S * statistics.median(rel for _, rel in setup),
            "wall_s": nominal_wall_s,
            "points_per_s": points / nominal_wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commands": [list(c.argv) for c in commands],
        "points_per_pass": points,
        "passes": passes,
        "reference_s": reference.REF_S,
        "command_s": untraced,
        "command_relative": untraced_rel,
        "traced_command_s": traced,
        "setup_probes_s": [seconds for seconds, _ in setup],
        "setup_probes_relative": [rel for _, rel in setup],
        "measured_wall_s": wall_s,
        "operations_per_pass": ops,
        "failed_per_pass": failed_per_pass,
        "fail_ratio": failed / attempted,
        "oracle": [
            None if c is None else {"rows": c.rows, "sampled": c.sampled, "worst": c.worst}
            for c in checks
        ],
        "known_failures": known,
        "problems": problems,
        "correct": correct,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        tracer.write(f"{stem}.spans.jsonl")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} commit={record['commit']} "
          f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']}")
    print(f"passes={passes} (untraced {len(untraced)}, traced {len(traced)}); seconds per "
          f"untraced pass from {min(map(sum, untraced)):.4f} to {max(map(sum, untraced)):.4f}")
    if not args.trace:
        print(f"times below are at the reference kernel's nominal speed ({reference.REF_S:g} s "
              f"per kernel); as timed: wall_s {wall_s:.6g} s, points_per_s {points / wall_s:.6g} "
              f"1/s, setup_s {statistics.median(seconds for seconds, _ in setup):.6g} s")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<24} {failed / attempted:>14.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    for note in problems:
        print(f"  PROBLEM: {note}")
    for note in known[:20]:
        print(f"  known z>{ASYMPTOTIC_Z:g} failure: {note}")
    if len(known) > 20:
        print(f"  ... {len(known) - 20} more known failures in {stem}.result.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
