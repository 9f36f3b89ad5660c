"""A fixed reference kernel that times the machine rather than the program.

The benchmark runs on a shared host whose speed drifts by up to 1.5x over
minutes, far more than the bound a change may worsen a metric by.  Timing
this kernel right before and right after each CLI command, on the same
thread, measures how fast the machine was at that moment; a command's time
divided by the mean of its two neighbouring kernel times is steady across
that drift.

The kernel does the two kinds of work the workloads spend their time on, and
uses no susypiv code, so a change to the program cannot move it:

- a 1F1-style Maclaurin recurrence on a 1001-point complex array, like the
  series loop in ``kummer`` (numpy dispatch on small arrays);
- ``.17g`` formatting of float rows into CSV text, like ``cli`` output.

The same ratio steadies the set-up probes, which are mostly imports.  A
ratio times ``REF_S`` gives seconds at a fixed nominal machine speed: the
speed at which the kernel takes ``REF_S``, about its median on the 2-vCPU
host the baseline in README.md was measured on.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.05

SERIES_TERMS = 120
SERIES_REPEATS = 16
FORMAT_ROWS = 3000

_Z = np.linspace(0.0, 30.0, 1001).astype(complex)
_ROWS = [
    (x, 1.0 / (1.0 + x * x), x * x - 0.5)
    for x in np.linspace(-5.0, 5.0, FORMAT_ROWS).tolist()
]


def _series():
    a, b = 0.3 + 0.2j, 0.5 + 0.1j
    total = None
    for _ in range(SERIES_REPEATS):
        term = np.ones_like(_Z)
        total = np.ones_like(_Z)
        for n in range(SERIES_TERMS):
            term = term * ((a + n) * _Z) / ((b + n) * (n + 1.0))
            total = total + term
            bool(np.all(np.abs(term) <= 1e-16 * np.abs(total)))
    return total


def _format():
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in _ROWS)


def reference_seconds() -> float:
    """Seconds the reference kernel takes now, on this thread."""
    start = time.perf_counter()
    _series()
    _format()
    return time.perf_counter() - start
