"""Evaluation positions: uniform grids, read ``BLOCK`` points per seed
evaluation, the one-element view of a scalar position, the singular-point
rule that screens positions, and the near-zero rule that excludes grid points."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint

MAX_POINTS = 10**7
SINGULAR_REL = 1e-10
EXCLUDE_REL = 1e-6  # |f| < EXCLUDE_REL |f'|: within EXCLUDE_REL of a zero of f
BLOCK = 8192  # points per seed evaluation: a data command's block, a stencil's chunk


@dataclass(frozen=True)
class Grid:
    """Closed uniform grid starting at ``xmin`` with spacing ``step``.

    The last point is the largest ``xmin + k*step`` not exceeding ``xmax``
    (up to rounding slack), so non-commensurate bounds simply truncate.
    """

    xmin: float
    xmax: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.xmin) and math.isfinite(self.xmax)):
            raise ValueError("grid endpoints must be finite")
        if self.xmax <= self.xmin:
            raise ValueError("xmax must exceed xmin")
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError("step must be positive and finite")
        # n_points > MAX_POINTS, also where the last index is infinite.
        if not self._last_index() < MAX_POINTS:
            raise ValueError(f"grid too fine: more than {MAX_POINTS} points")

    def _last_index(self) -> float:
        """The index of the last point before flooring; inf past the double range."""
        return (self.xmax - self.xmin) / self.step + 1e-9

    @property
    def n_points(self) -> int:
        return int(math.floor(self._last_index())) + 1

    def points(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The points of index start..stop-1, to the last by default, clipped as a slice is."""
        n = self.n_points
        return self.xmin + self.step * np.arange(start, n if stop is None else min(stop, n))


def singular(mag, scale):
    """The singular-point rule, elementwise: a denominator of magnitude ``mag``
    is at rounding level of its local ``scale``, mag <= 1e-10 * scale."""
    return mag <= SINGULAR_REL * scale


def excluded(mag, local_scale):
    """The points that a denominator f, given as ``mag`` = |f| and
    ``local_scale`` = 1 + |f'|, excludes, each by its own values: within
    EXCLUDE_REL of a zero of f (|f| < EXCLUDE_REL |f'|), singular (which also
    catches an f at rounding level whose f' is noise too, as on degenerate
    seeds) or not finite."""
    finite = np.isfinite(mag) & np.isfinite(local_scale)
    return (mag < EXCLUDE_REL * (local_scale - 1.0)) | singular(mag, local_scale) | ~finite


def screen(denominators, x) -> None:
    """Raise SingularPoint when a ``name -> (mag, scale)`` denominator is singular."""
    for name, (mag, scale) in denominators.items():
        if bool(np.any(singular(mag, scale))):
            raise SingularPoint(f"{name} vanishes at x={x}")


def on_points(fn, x, dtype=float):
    """``fn`` over the positions ``x``; ``fn`` maps an ndarray of positions to
    its values.  A scalar is evaluated as a one-element array, so it agrees
    bit for bit with the grid, and comes back as a Python scalar.
    """
    xs = np.asarray(x, dtype=dtype)
    values = fn(xs.reshape(xs.shape or (1,)))
    return values if xs.ndim else values.item()
