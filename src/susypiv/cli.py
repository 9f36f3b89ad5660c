"""Command-line front end: grid data for the partner potential, the Painleve
IV solution families, spectra, extremal states, and the residual verification
suites.

A data command is one row of ``_COMMANDS``: its header and a function that
returns its columns at a block of grid positions as 1-d arrays (``piv``
makes a row non-finite where a family denominator is ``grid.singular``).
The rows are computed one ``grid.BLOCK`` at a time (grid positions, or for
``spectrum`` the level indices 0 .. n_max + 1), and each block is stripped
of its rows with a non-finite float and turned into bytes by ``text.rows``
in turn, so the working set of a data command does not grow with its rows.
``text.rows`` formats the floats in numpy to the exact text of ``%.17g``
(CSV) or ``repr`` (JSON), with CPython's formatter only for the few values
it cannot certify; a column after the first that holds one value in a block
(Im V of a real seed) is formatted once, as text between its neighbours' cells.
The bytes go to a temporary file that replaces ``--output`` only when the
command succeeds; ``verify --output`` writes its JSON report the same way.
Complex columns are serialized as separate real/imaginary fields so the
output plots directly.  Exit status: 0 ok, 1 verification failure, 2 invalid
configuration, 3 singular-point saturation.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import grid, painleve, susy
from .errors import AllPointsExcluded, LevelAnnihilated, SusypivError
from .grid import Grid, singular
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
        if self.command == "spectrum":
            return susy.spectrum_rows(10 if self.n_max is None else self.n_max)
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
    g, gp, gpp, denominators = painleve.family_grid_eval(config.params(), config.family, xs)
    a, b = painleve.piv_parameters(config.params(), config.family)
    with np.errstate(all="ignore"):
        resid = painleve.piv_residual_sum(painleve.piv_residual_terms(g, gp, gpp, xs, a, b))
    # Where a denominator is singular g is rounding noise: its row goes
    # non-finite, and is dropped with the others.
    for mag, scale in denominators.values():
        resid[singular(mag, scale)] = np.nan
    return xs, g.real, g.imag, resid.real, resid.imag


def _spectrum(config: RunConfig, index):
    params, n_max = config.params(), config.grid().n_points - 2
    levels = susy.spectrum_levels(params, index)
    duplicate = susy.spectrum_degenerate(params, n_max) & (levels == params.epsilon)
    return index.astype(np.int64), levels.real, levels.imag, levels.imag != 0.0, duplicate


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
_HEADERS = {name: header for name, (header, _) in _COMMANDS.items()}  # for bench/selftest.py


def _blocks(config: RunConfig, columns):
    """The command's columns block by block, ``grid.BLOCK`` rows each, each
    block's rows with a non-finite float dropped (a block with none is
    yielded as computed)."""
    span, size = config.grid(), grid.BLOCK
    for start in range(0, span.n_points, size):
        block = columns(config, span.points(start, start + size))
        finite = np.logical_and.reduce([np.isfinite(c) for c in block if c.dtype.kind == "f"])
        yield block if finite.all() else [c[finite] for c in block]


def _layout(config: RunConfig, header):
    """(head, pieces, sep, tail) of the text: ``text.rows`` writes each row as
    ``pieces`` with the cells between them, and ``sep`` between rows."""
    if config.format == "csv":
        return ",".join(header) + "\n", [""] + [","] * (len(header) - 1) + [""], "\n", "\n"
    import json

    doc = json.dumps({"config": config.to_dict(), "rows": []}, indent=2)
    before, _, after = doc.rpartition("[]")
    keys = [f"      {json.dumps(k)}: " for k in header]
    pieces = ["    {\n" + keys[0], *(",\n" + k for k in keys[1:]), "\n    }"]
    return before + "[\n", pieces, ",\n", f"\n  ]{after}\n"


def _write(config: RunConfig, header, blocks) -> bool:
    """Write the blocks of columns as CSV (floats at .17g) or as the text of
    ``json.dumps({"config": ..., "rows": [...]}, indent=2)``, formatted by
    ``text.rows`` a block at a time; booleans read true/false in both.  On an
    error, or when no block kept a row (returns False), ``--output`` is left
    as it was."""
    # Imported here, not with the CLI, as verify is in _run_verify: with no
    # bytecode cache, compiling a module at import lengthens every start,
    # also of the commands that never call it.
    from . import text

    head, pieces, sep, tail = _layout(config, header)

    def chunks():
        rows = 0
        for columns in blocks:
            n = columns[0].size
            if not n:
                continue
            yield (sep if rows else head).encode()
            yield from text.rows(columns, pieces, sep, shortest=config.format == "json")
            rows += n
        if rows:
            yield tail.encode()

    return _replace(config.output_path, chunks())


def _replace(path, chunks) -> bool:
    """Write the byte strings ``chunks`` to a temporary file beside ``path``,
    which replaces ``path`` once every chunk is written.  On an error, or when
    there is no chunk (returns False), ``path`` is left as it was; no
    temporary file stays behind either way.

    The rename is kept on purpose.  Over an existing file, ext4 (with its
    default auto_da_alloc) flushes the new file's data before the rename,
    about 0.9 ms a MB: 33-37 ms a pass of the four 6-18 MB files of the
    benchmark's grid_export commands.  That flush is what makes the replace
    crash-safe, so neither writing in place nor unlinking first is a
    speed-up."""
    tmp = f"{path}.{os.getpid()}.tmp"
    written = False
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                written = True
        if written:
            os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return written


def _params_label(params: TransformParams) -> str:
    eps = params.epsilon
    return f"eps={eps.real:g}{eps.imag:+g}i lam={params.lam:g} kappa={params.kappa:g}"


def _run_verify(config: RunConfig, stream) -> int:
    from . import verify

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
                entry, verdict = {"saturated": True}, "SATURATED (all points singular)"
            except LevelAnnihilated:
                # Not a check: the state is zero (a degenerate seed).
                entry, verdict = {"annihilated": True}, "ANNIHILATED (level vanishes identically)"
            else:
                limit = verify.threshold_for(kind_label)
                ok = report.max_relative <= limit
                failures += not ok
                entry = {
                    "max_relative": report.max_relative,
                    "mean_relative": report.mean_relative,
                    "n_excluded": len(report.excluded_points),
                    "threshold": limit,
                    "passed": ok,
                }
                verdict = (
                    f"max={report.max_relative:.3e} mean={report.mean_relative:.3e} "
                    f"excluded={len(report.excluded_points)} limit={limit:.0e}  {'PASS' if ok else 'FAIL'}"
                )
            print(f"{label}  {kind_label:<14} {verdict}", file=stream)
            entries.append({"params": label, "kind": kind_label, **entry})
    total = len(entries)
    print(f"verify: {total} reports, {failures} failed, {saturated} saturated", file=stream)
    if config.output_path:
        import json

        payload = {"config": config.to_dict(), "reports": entries}
        _replace(config.output_path, [(json.dumps(payload, indent=2) + "\n").encode()])
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
        if config.command not in _COMMANDS:
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

    def add_params(p):  # called for every parser with a float flag
        # "-1e-3", "-inf", "-Infinity" and "-nan" are values, as float() reads them, not options.
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf(inity)?\Z|nan\Z)", re.IGNORECASE)
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
