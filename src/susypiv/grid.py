"""Evaluation positions: uniform grids, the one-element view of a scalar
position, and the singular-point rule that screens positions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint

MAX_POINTS = 10**7
SINGULAR_REL = 1e-10
EXCLUDE_REL = 1e-6  # |f| < EXCLUDE_REL |f'|: within EXCLUDE_REL of a zero of f


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

    def points(self) -> np.ndarray:
        return self.xmin + self.step * np.arange(self.n_points)


def singular(mag, scale):
    """The singular-point rule, elementwise: a denominator of magnitude ``mag``
    is at rounding level of its local ``scale``, mag <= 1e-10 * scale."""
    return mag <= SINGULAR_REL * scale


def screen(denominators, x) -> None:
    """Raise SingularPoint when a ``name -> (mag, scale)`` denominator is singular."""
    for name, (mag, scale) in denominators.items():
        if bool(np.any(singular(mag, scale))):
            raise SingularPoint(f"{name} vanishes at x={x}")


def on_points(fn, x, dtype=float):
    """``fn`` over the positions ``x``; ``fn`` maps an ndarray of positions to
    (values, denominators), ``denominators`` being None or a zero-argument
    callable that builds the mapping ``screen`` takes.

    An ndarray gets its values unscreened, and its denominators are never
    built.  A scalar is evaluated as a one-element array, so it agrees bit
    for bit with the grid, is screened, and comes back as a Python scalar.
    """
    xs = np.asarray(x, dtype=dtype)
    values, denominators = fn(xs.reshape(xs.shape or (1,)))
    if xs.ndim:
        return values
    if denominators is not None:
        screen(denominators(), xs.item())
    return values.item()
