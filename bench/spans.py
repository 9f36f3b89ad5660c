"""Span recorder for the traced benchmark run.

Wrappers are installed around the public functions of each susypiv layer by
replacing the module attributes the package itself calls through (every
internal call goes through ``module.function``), so ``src/`` is untouched.
Spans are kept in memory and written out when the run ends; every per-layer
metric is derived from them.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass

VERIFY_KINDS = (
    "schrodinger",
    "riccati",
    "piv_family_1",
    "piv_family_2",
    "piv_family_3",
    "eigen",
    "new_state",
    "annihilation",
)

# Per-layer metrics, in output order: name -> unit.
PER_LAYER = {
    "kummer.calls": "count",
    "kummer.points": "count",
    "kummer.self_s": "s",
    "kummer.points_per_s": "1/s",
    "seed.calls": "count",
    "seed.points": "count",
    "seed.self_s": "s",
    "painleve.calls": "count",
    "painleve.self_s": "s",
    "susy.calls": "count",
    "susy.self_s": "s",
    "verify.reports": "count",
    "verify.reports_failed": "count",
    "verify.worst_ratio": "ratio",
    "verify.self_s": "s",
    **{f"verify.{kind}.s": "s" for kind in VERIFY_KINDS},
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly between passes over the same commands.
EXACT = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")
) + ("verify.worst_ratio",)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    op: int  # operation id: one per CLI command
    rep: int  # pass over the command list
    attrs: dict
    start: int = 0
    end: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


def _points(index, name):
    def attrs(args, kwargs):
        arr = args[index] if len(args) > index else kwargs[name]
        return {"points": int(getattr(arr, "size", 1))}

    return attrs


class Tracer:
    """Records nested spans from wrapped susypiv functions; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0
        self.rep = 0

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op, self.rep,
                        before(args, kwargs) if before else {})
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter_ns()
                span.attrs["error"] = type(exc).__name__
                if after:
                    after(span.attrs, None, args, kwargs)
                raise
            else:
                span.end = time.perf_counter_ns()
                if after:
                    after(span.attrs, result, args, kwargs)
                return result
            finally:
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the susypiv layer functions for the duration of the block."""
        from susypiv import cli, kummer, painleve, seed, susy, verify

        def report_after(attrs, report, args, kwargs):
            if report is None:  # AllPointsExcluded: the CLI reports SATURATED
                attrs["failed"] = True
                return
            attrs["ratio"] = report.max_relative / verify.threshold_for(report.kind)
            attrs["failed"] = not report.max_relative <= verify.threshold_for(report.kind)

        def cli_after(attrs, code, args, kwargs):
            config = args[0]
            stream = args[1] if len(args) > 1 else kwargs.get("stream")
            emitted = len(stream.getvalue().encode()) if stream is not None else 0
            if config.output_path and os.path.exists(config.output_path):
                emitted += os.path.getsize(config.output_path)
            attrs["bytes"] = emitted

        targets = [
            (kummer, "kummer_m", _points(2, "z"), None),
            (kummer, "kummer_m_derivative", None, None),
            (seed, "seed_u", _points(1, "x"), None),
            (seed, "seed_eval", _points(1, "x"), None),
            (seed, "seed_eval_grid", _points(1, "xs"), None),
            (painleve, "family_grid_eval", None, None),
            (painleve, "extremal_state_grid", None, None),
            (susy, "partner_potential", None, None),
            (verify, "residual_report", lambda a, k: {"kind": a[0] if a else k["kind"]}, report_after),
            (cli, "run", None, cli_after),
        ]
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, before, after in targets:
                layer = mod.__name__.rsplit(".", 1)[-1]
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", getattr(mod, attr), before, after))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_times(self) -> list:
        """Each span's duration minus the time covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, rep: int, overhead_s: float) -> dict:
        """Per-layer metrics of one pass over the command list."""
        own = self.self_times()
        picked = [(s, own[i]) for i, s in enumerate(self.spans) if s.rep == rep]

        def spans_of(layer):
            return [(s, t) for s, t in picked if s.layer == layer]

        def self_s(layer):
            return sum(t for _, t in spans_of(layer)) * 1e-9

        kummer_calls = [s for s, _ in spans_of("kummer") if s.name == "kummer.kummer_m"]
        kummer_points = sum(s.attrs["points"] for s in kummer_calls)
        kummer_self = self_s("kummer")
        seed_spans = [s for s, _ in spans_of("seed")]
        reports = [s for s, _ in spans_of("verify")]
        ratios = [s.attrs["ratio"] for s in reports if "ratio" in s.attrs]
        metrics = {
            "kummer.calls": len(kummer_calls),
            "kummer.points": kummer_points,
            "kummer.self_s": kummer_self,
            "kummer.points_per_s": kummer_points / kummer_self if kummer_self > 0 else 0.0,
            "seed.calls": len(seed_spans),
            # A seed call made inside another (seed_eval -> seed_eval_grid)
            # evaluates the same points; count them once.
            "seed.points": sum(
                s.attrs["points"] for s in seed_spans
                if s.parent < 0 or self.spans[s.parent].layer != "seed"
            ),
            "seed.self_s": self_s("seed"),
            "painleve.calls": len(spans_of("painleve")),
            "painleve.self_s": self_s("painleve"),
            "susy.calls": len(spans_of("susy")),
            "susy.self_s": self_s("susy"),
            "verify.reports": len(reports),
            "verify.reports_failed": sum(1 for s in reports if s.attrs.get("failed")),
            "verify.worst_ratio": max(ratios, default=0.0),
            "verify.self_s": self_s("verify"),
        }
        for kind in VERIFY_KINDS:
            metrics[f"verify.{kind}.s"] = 1e-9 * sum(
                s.end - s.start for s in reports if s.attrs["kind"] == kind
            )
        metrics["cli.self_s"] = self_s("cli")
        metrics["cli.bytes_out"] = sum(s.attrs.get("bytes", 0) for s, _ in spans_of("cli"))
        metrics["trace.overhead_s"] = overhead_s
        return metrics

    def write(self, path) -> None:
        """All spans as JSON lines, times in ns relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op, "rep": s.rep,
                    "start_ns": s.start - t0, "end_ns": s.end - t0, "attrs": s.attrs,
                }) + "\n")
