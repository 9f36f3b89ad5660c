"""One sha256 per command of a benchmark workload, to check that a change
keeps every output byte-identical.

Run from a checkout's root:

    python3 tools/digest_outputs.py --workload grid_export --seeds 1-5

``--workload all`` runs every workload of ``bench/workloads.WORKLOADS`` in
turn, all its seeds before the next workload, and then ``spectrum``.  The
commands are those of ``bench/workloads.py`` and run in this interpreter
against the checkout's ``src/``, as ``bench/run.py`` runs them.
``--workload spectrum`` digests the one data command that no benchmark
workload runs: ``spectrum`` at each epsilon of ``SPECTRUM_EPSILONS``, each
n_max of ``SPECTRUM_N_MAX`` and each format, 24 commands that take no seed
(their lines read ``seed -``).
Each line gives the digest of one command's output, its seed, its index in
the workload, its exit status and its arguments.  The output of a ``verify``
command is its standard output followed by its ``--output`` JSON report,
which holds each report's max and mean at full precision and its count of
excluded points (standard output prints max and mean to 3 digits).  That of
a data command is its file, or its standard output if it failed.  Files are
written in a temporary directory under the fixed names ``cmd<i>.<format>``
(``cmd<i>.json`` for ``verify``), so the ``config.output_path`` that JSON
files carry is the same in every checkout.  Run it in two checkouts and
compare the lines.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (Re, Im) of epsilon as typed: real, complex, just off the real axis, and a
# real level with a negative-zero imaginary part.
SPECTRUM_EPSILONS = (("3", "0"), ("2", "0.25"), ("-1", "1e-3"), ("5", "-0"))
SPECTRUM_N_MAX = ("0", "10", "20000")


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _spectrum_commands() -> list:
    """(argv, is_verify, format) of the 24 ``spectrum`` commands."""
    return [
        (["spectrum", "--epsilon-re", re, "--epsilon-im", im, "--n-max", n, "--format", fmt], False, fmt)
        for (re, im), n, fmt in itertools.product(SPECTRUM_EPSILONS, SPECTRUM_N_MAX, ("csv", "json"))
    ]


def digests(workload: str, seeds) -> list:
    """Lines "digest  seed S  #i  exit E  argv" for each command of each seed
    of ``workload``, or of each workload in turn for "all"."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from susypiv import cli

    runs = []  # (seed, [(argv, is_verify, format) of each command])
    for name in workloads.WORKLOADS + ("spectrum",) if workload == "all" else (workload,):
        if name == "spectrum":
            runs.append(("-", _spectrum_commands()))
            continue
        for seed in seeds:
            runs.append((seed, [(c.argv, c.is_verify, c.fmt) for c in workloads.build(name, seed)]))
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed, commands in runs:
                for i, (argv, is_verify, fmt) in enumerate(commands):
                    path = f"cmd{i}.{'json' if is_verify else fmt}"
                    argv = list(argv) + ["--output", path]
                    stream = io.StringIO()
                    code = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)), stream)
                    data = stream.getvalue().encode()
                    if is_verify:
                        data += Path(path).read_bytes() if Path(path).exists() else b""
                    elif code == 0:
                        data = Path(path).read_bytes()
                    digest = hashlib.sha256(data).hexdigest()
                    lines.append(f"{digest}  seed {seed}  #{i}  exit {code}  {' '.join(argv)}")
        finally:
            os.chdir(home)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload of bench/workloads.py, spectrum, or all"
    )
    parser.add_argument("--seeds", type=_seeds, default=range(1, 2), help="N or N-M (default 1)")
    args = parser.parse_args(argv)
    for line in digests(args.workload, args.seeds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
