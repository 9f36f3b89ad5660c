"""Median time of ``text.rows`` per data command of a benchmark workload:
the CSV/JSON serialization layer on its own, without the compute before it.

Run from a checkout's root:

    python3 tools/time_rows.py --workload grid_export

The data commands are those of ``bench/workloads.py`` at seed 1, run in
this interpreter against the checkout's ``src/``.  Each command's blocks
(``cli._blocks``) are computed once and held; then ``text.rows`` turns all
of them into bytes ``REPEATS`` times, and the median of those times is
printed with the command's rows, its bytes and its arguments.  ``verify``
commands write no data and are skipped.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 15  # timed passes per command


def _commands(workload: str):
    """(argv, blocks, layout, shortest) of each data command of the workload."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from susypiv import cli

    for command in workloads.build(workload, 1):
        if command.is_verify:
            continue
        argv = list(command.argv) + ["--output", f"unused.{command.fmt}"]
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        header, columns = cli._COMMANDS[config.command]
        blocks = [b for b in cli._blocks(config, columns) if b[0].size]
        _, pieces, sep, _ = cli._layout(config, header)
        yield command.argv, blocks, (pieces, sep), config.format == "json"


def _format(blocks, pieces, sep, shortest):
    """Seconds to format every block, and the bytes written."""
    from susypiv import text

    size = 0
    start = time.perf_counter()
    for columns in blocks:
        for chunk in text.rows(columns, pieces, sep, shortest):
            size += len(chunk)
    return time.perf_counter() - start, size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid_export", "wide_domain"))
    args = parser.parse_args(argv)
    total = 0.0
    for command, blocks, (pieces, sep), shortest in _commands(args.workload):
        _format(blocks, pieces, sep, shortest)  # builds the tables, warms the caches
        runs = [_format(blocks, pieces, sep, shortest) for _ in range(REPEATS)]
        median = statistics.median(seconds for seconds, _ in runs)
        total += median
        rows = sum(b[0].size for b in blocks)
        print(f"{1e3 * median:9.2f} ms  {rows} rows  {runs[0][1]} bytes  {' '.join(command)}")
    print(f"{1e3 * total:9.2f} ms  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
