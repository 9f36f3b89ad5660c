"""Command-line front end: grid data for the partner potential, the Painleve
IV solution families, spectra, extremal states, and the residual verification
suites.

Complex columns are serialized as separate real/imaginary fields so the
output plots directly.  Exit status: 0 ok, 1 verification failure, 2 invalid
configuration, 3 singular-point saturation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import painleve, susy, verify
from .errors import AllPointsExcluded, SusypivError
from .grid import Grid
from .seed import TransformParams

_HEADERS = {
    "potential": ("x", "re", "im", "re_v", "im_v"),
    "piv": ("x", "re", "im", "re_residual", "im_residual"),
    "spectrum": ("index", "re", "im", "off_real_axis", "degenerate"),
    "extremal": ("x", "re", "im"),
}


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation; mirrors the command-line flags."""

    command: str
    epsilon_re: float = 0.0
    epsilon_im: float = 0.0
    lam: float = 0.0
    kappa: float = 0.0
    family: int | None = None
    xmin: float = -5.0
    xmax: float = 5.0
    step: float = 0.01
    n_max: int | None = None
    output_path: str | None = None
    format: str = "csv"
    run_all: bool = False

    def params(self) -> TransformParams:
        return TransformParams(
            epsilon=complex(self.epsilon_re, self.epsilon_im),
            lam=self.lam,
            kappa=self.kappa,
        )

    def grid(self) -> Grid:
        return Grid(self.xmin, self.xmax, self.step)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "epsilon_re": self.epsilon_re,
            "epsilon_im": self.epsilon_im,
            "lambda": self.lam,
            "kappa": self.kappa,
            "family": self.family,
            "xmin": self.xmin,
            "xmax": self.xmax,
            "step": self.step,
            "n_max": self.n_max,
            "output_path": self.output_path,
            "format": self.format,
        }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_rows(config: RunConfig, header, rows) -> None:
    if config.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": config.to_dict(),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    with open(config.output_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _keep_finite(*columns):
    stacked = np.vstack([np.asarray(c, dtype=float) for c in columns])
    return np.all(np.isfinite(stacked), axis=0)


def _potential_rows(config: RunConfig):
    xs = config.grid().points()
    vt = susy.partner_potential(config.params(), xs)
    keep = _keep_finite(xs, vt.real, vt.imag)
    return [
        (float(x), float(v.real), float(v.imag), float(x * x), 0.0)
        for x, v in zip(xs[keep], vt[keep])
    ]


def _piv_rows(config: RunConfig):
    xs = config.grid().points()
    g, gp, gpp, _ = painleve.family_grid_eval(config.params(), config.family, xs)
    a, b = painleve.piv_parameters(config.params(), config.family)
    with np.errstate(all="ignore"):
        terms = painleve.piv_residual_terms(g, gp, gpp, xs, a, b)
        resid = painleve.piv_residual_sum(terms)
    keep = _keep_finite(xs, g.real, g.imag, resid.real, resid.imag)
    return [
        (float(x), float(gv.real), float(gv.imag), float(rv.real), float(rv.imag))
        for x, gv, rv in zip(xs[keep], g[keep], resid[keep])
    ]


def _spectrum_rows(config: RunConfig):
    n_max = config.n_max if config.n_max is not None else 10
    params = config.params()
    levels = susy.spectrum(params, n_max)
    degenerate = susy.spectrum_degenerate(params, n_max)
    rows = []
    for idx, level in enumerate(levels):
        dup = degenerate and level == levels[0]
        rows.append(
            (idx, float(level.real), float(level.imag), bool(level.imag != 0.0), bool(dup))
        )
    return rows


def _extremal_rows(config: RunConfig):
    xs = config.grid().points()
    values = painleve.extremal_state_grid(config.params(), config.family, xs)
    keep = _keep_finite(xs, values.real, values.imag)
    return [
        (float(x), float(v.real), float(v.imag)) for x, v in zip(xs[keep], values[keep])
    ]


def _params_label(params: TransformParams) -> str:
    eps = params.epsilon
    return f"eps={eps.real:g}{eps.imag:+g}i lam={params.lam:g} kappa={params.kappa:g}"


def _run_verify(config: RunConfig, stream) -> int:
    param_sets = list(verify.BENCHMARK_PARAMS) if config.run_all else [config.params()]
    grid = config.grid()
    entries = []
    failures = 0
    saturated = 0
    for params in param_sets:
        label = _params_label(params)
        for kind, n, kind_label in verify.report_plan():
            try:
                report = verify.residual_report(kind, params, grid, n=n)
            except AllPointsExcluded:
                saturated += 1
                print(f"{label}  {kind_label:<14} SATURATED (all points singular)", file=stream)
                entries.append({"params": label, "kind": kind_label, "saturated": True})
                continue
            limit = verify.threshold_for(report.kind)
            ok = report.max_relative <= limit
            if not ok:
                failures += 1
            print(
                f"{label}  {report.kind:<14} max={report.max_relative:.3e} "
                f"mean={report.mean_relative:.3e} excluded={len(report.excluded_points)} "
                f"limit={limit:.0e}  {'PASS' if ok else 'FAIL'}",
                file=stream,
            )
            entries.append(
                {
                    "params": label,
                    "kind": report.kind,
                    "max_relative": report.max_relative,
                    "mean_relative": report.mean_relative,
                    "n_excluded": len(report.excluded_points),
                    "threshold": limit,
                    "passed": ok,
                }
            )
    total = len(entries)
    print(f"verify: {total} reports, {failures} failed, {saturated} saturated", file=stream)
    if config.output_path:
        payload = {"config": config.to_dict(), "reports": entries}
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    if saturated:
        return 3
    return 1 if failures else 0


def run(config: RunConfig, stream=None) -> int:
    """Execute one configuration; returns the process exit status."""
    stream = stream if stream is not None else sys.stdout
    try:
        config.grid()
        config.params()
        if config.command == "verify":
            return _run_verify(config, stream)
        if config.command not in _HEADERS:
            print(f"unknown command {config.command!r}", file=sys.stderr)
            return 2
        if config.command in ("piv", "extremal") and config.family not in painleve.FAMILIES:
            print("--family is required and must be 1, 2, or 3", file=sys.stderr)
            return 2
        if not config.output_path:
            print("--output is required", file=sys.stderr)
            return 2
        if config.format not in ("csv", "json"):
            print(f"unknown format {config.format!r}", file=sys.stderr)
            return 2
        builder = {
            "potential": _potential_rows,
            "piv": _piv_rows,
            "spectrum": _spectrum_rows,
            "extremal": _extremal_rows,
        }[config.command]
        rows = builder(config)
        if not rows:
            print("no non-singular points on the grid", file=sys.stderr)
            return 3
        _write_rows(config, _HEADERS[config.command], rows)
        return 0
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except AllPointsExcluded as exc:
        print(f"singular saturation: {exc}", file=sys.stderr)
        return 3
    except SusypivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susypiv",
        description="Complex SUSY partner potentials of the oscillator and "
        "their Painleve IV solution families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--epsilon-re", type=float, default=0.0, help="Re of the factorization energy")
        p.add_argument("--epsilon-im", type=float, default=0.0, help="Im of the factorization energy")
        p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="real seed coefficient")
        p.add_argument("--kappa", type=float, default=0.0, help="imaginary seed coefficient")

    def add_grid(p):
        p.add_argument("--xmin", type=float, default=-5.0)
        p.add_argument("--xmax", type=float, default=5.0)
        p.add_argument("--step", type=float, default=0.01)

    def add_output(p, required=True):
        p.add_argument("--output", dest="output_path", required=required, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_pot = sub.add_parser("potential", help="partner potential over a grid")
    add_params(p_pot)
    add_grid(p_pot)
    add_output(p_pot)

    p_piv = sub.add_parser("piv", help="one Painleve IV solution family over a grid")
    add_params(p_piv)
    p_piv.add_argument("--family", type=int, choices=painleve.FAMILIES, required=True)
    add_grid(p_piv)
    add_output(p_piv)

    p_spec = sub.add_parser("spectrum", help="spectrum of the partner system")
    add_params(p_spec)
    p_spec.add_argument("--n-max", dest="n_max", type=int, default=10)
    add_output(p_spec)

    p_ext = sub.add_parser("extremal", help="extremal state of one family over a grid")
    add_params(p_ext)
    p_ext.add_argument("--family", type=int, choices=painleve.FAMILIES, required=True)
    add_grid(p_ext)
    add_output(p_ext)

    p_ver = sub.add_parser("verify", help="run the residual verification suites")
    add_params(p_ver)
    add_grid(p_ver)
    p_ver.add_argument("--all", dest="run_all", action="store_true",
                       help="verify every built-in benchmark parameter set")
    p_ver.add_argument("--output", dest="output_path", help="optional JSON report path")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        epsilon_re=getattr(args, "epsilon_re", 0.0),
        epsilon_im=getattr(args, "epsilon_im", 0.0),
        lam=getattr(args, "lam", 0.0),
        kappa=getattr(args, "kappa", 0.0),
        family=getattr(args, "family", None),
        xmin=getattr(args, "xmin", -5.0),
        xmax=getattr(args, "xmax", 5.0),
        step=getattr(args, "step", 0.01),
        n_max=getattr(args, "n_max", None),
        output_path=getattr(args, "output_path", None),
        format=getattr(args, "format", "csv"),
        run_all=getattr(args, "run_all", False),
    )


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    sys.exit(run(config_from_args(args)))


if __name__ == "__main__":
    main()
