"""Command-line front end: grid data for the partner potential, the Painleve
IV solution families, spectra, extremal states, and the residual verification
suites.

A data command is one row of ``_COMMANDS``: its header and a function that
returns its columns at a block of grid positions as 1-d arrays.  Each block
of ``_BLOCK`` points is computed, stripped of its rows with a non-finite
float, and formatted straight to text by ``_write`` in turn, so memory does
not grow with the grid.  The text goes to a temporary file that replaces
``--output`` only when the command succeeds.  Complex columns are serialized
as separate real/imaginary fields so the output plots directly.  Exit status:
0 ok, 1 verification failure, 2 invalid configuration, 3 singular-point
saturation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import painleve, susy, verify
from .errors import AllPointsExcluded, SusypivError
from .grid import Grid
from .seed import TransformParams


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
        """The flags in field order, ``lam`` spelled ``lambda``; ``run_all`` is left out."""
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "run_all"
        }


def _potential(config: RunConfig, xs):
    vt = susy.partner_potential(config.params(), xs)
    return xs, vt.real, vt.imag, xs * xs, np.zeros_like(xs)


def _piv(config: RunConfig, xs):
    g, gp, gpp, _ = painleve.family_grid_eval(config.params(), config.family, xs)
    a, b = painleve.piv_parameters(config.params(), config.family)
    with np.errstate(all="ignore"):
        resid = painleve.piv_residual_sum(painleve.piv_residual_terms(g, gp, gpp, xs, a, b))
    return xs, g.real, g.imag, resid.real, resid.imag


def _spectrum(config: RunConfig, xs):
    n_max = config.n_max if config.n_max is not None else 10
    levels = np.array(susy.spectrum(config.params(), n_max))
    duplicate = susy.spectrum_degenerate(config.params(), n_max) & (levels == levels[0])
    return np.arange(levels.size), levels.real, levels.imag, levels.imag != 0.0, duplicate


def _extremal(config: RunConfig, xs):
    values = painleve.extremal_state_grid(config.params(), config.family, xs)
    return xs, values.real, values.imag


# command -> (header, columns at a block of positions as 1-d arrays).  The
# functions call the layers through their module attributes, so wrappers
# installed there (bench/spans.py) see every call.
_COMMANDS = {
    "potential": (("x", "re", "im", "re_v", "im_v"), _potential),
    "piv": (("x", "re", "im", "re_residual", "im_residual"), _piv),
    "spectrum": (("index", "re", "im", "off_real_axis", "degenerate"), _spectrum),
    "extremal": (("x", "re", "im"), _extremal),
}
_HEADERS = {name: header for name, (header, _) in _COMMANDS.items()}
_BLOCK = 8192  # grid points computed, and rows formatted, per block
_FLOAT_SPEC = {"csv": "%.17g", "json": "%r"}


def _blocks(config: RunConfig, columns):
    """The command's columns block by block, each block's rows with a
    non-finite float dropped; ``spectrum`` is one block."""
    if config.command == "spectrum":
        positions = [None]
    else:
        grid = config.grid()
        n = grid.n_points
        # The same doubles as Grid.points(), _BLOCK at a time.
        positions = (
            grid.xmin + grid.step * np.arange(start, min(start + _BLOCK, n))
            for start in range(0, n, _BLOCK)
        )
    for xs in positions:
        block = columns(config, xs)
        finite = np.logical_and.reduce([np.isfinite(c) for c in block if c.dtype.kind == "f"])
        yield [c[finite] for c in block]


def _template(config: RunConfig, header, columns):
    """(head, row, separator, tail) of the text; ``row`` is a %-template for
    one row of ``columns``."""
    specs = [{"U": "%s", "i": "%d"}.get(c.dtype.kind, _FLOAT_SPEC[config.format]) for c in columns]
    if config.format == "csv":
        return ",".join(header) + "\n", ",".join(specs), "\n", "\n"
    text = json.dumps({"config": config.to_dict(), "rows": []}, indent=2)
    before, _, after = text.rpartition("[]")
    items = ",\n".join(f"      {json.dumps(k)}: {spec}" for k, spec in zip(header, specs))
    return before + "[\n", f"    {{\n{items}\n    }}", ",\n", f"\n  ]{after}\n"


def _write(config: RunConfig, header, blocks) -> bool:
    """Write the blocks of columns as CSV (floats at .17g) or as the text of
    ``json.dumps({"config": ..., "rows": [...]}, indent=2)``, one %-template
    per block; booleans read true/false in both.  The text goes to a
    temporary file beside ``--output``, which it replaces once every block
    is written.  On an error, or when no block kept a row (returns False),
    ``--output`` is left as it was."""
    path = config.output_path
    tmp = f"{path}.{os.getpid()}.tmp"
    rows = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for columns in blocks:
                n = columns[0].size
                if not n:
                    continue
                columns = [np.where(c, "true", "false") if c.dtype == bool else c for c in columns]
                if not rows:
                    head, row, sep, tail = _template(config, header, columns)
                    fh.write(head)
                else:
                    fh.write(sep)
                cells = np.empty((n, len(columns)), dtype=object)
                for i, column in enumerate(columns):
                    cells[:, i] = column
                fh.write(sep.join([row] * n) % tuple(cells.ravel().tolist()))
                rows += n
            if rows:
                fh.write(tail)
        if rows:
            os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return rows > 0


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
        header, columns = _COMMANDS[config.command]
        if not _write(config, header, _blocks(config, columns)):
            print("no non-singular points on the grid", file=sys.stderr)
            return 3
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
    # Every flag's dest is the name of its RunConfig field.
    return RunConfig(**{f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)})


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    sys.exit(run(config_from_args(args)))


if __name__ == "__main__":
    main()
