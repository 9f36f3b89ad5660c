"""Harmonic oscillator reference system in natural units: V = x^2, E_n = 2n+1."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeTooLarge
from .grid import on_points

MAX_DEGREE = 60


def energy(n: int) -> float:
    """Energy of level n: 2n + 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return float(2 * n + 1)


def eigenfunction(n: int, x):
    """Normalized eigenfunction psi_n; ``x`` may be a scalar or ndarray.

    Hermite values come from the normalized three-term recurrence with the
    Gaussian folded in, which stays stable through n = 60.
    """
    return on_points(lambda xs: _levels(n, xs)[1], x)


def eigenfunction_derivative(n: int, x):
    """d/dx psi_n via the ladder identity psi_n' = sqrt(2n) psi_{n-1} - x psi_n."""
    return on_points(lambda xs: _with_derivative(n, xs)[1], x)


def _levels(n: int, xs):
    """(psi_{n-1}, psi_n) on the array ``xs`` from one run of the recurrence;
    psi_{-1} is 0.0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"n={n} beyond stable recurrence range {MAX_DEGREE}")
    prev, cur = 0.0, math.pi ** -0.25 * np.exp(-0.5 * xs * xs)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * xs * cur - math.sqrt(k / (k + 1.0)) * prev
    return prev, cur


def _with_derivative(n: int, xs):
    """(psi_n, psi_n') on the array ``xs`` from one run of the recurrence."""
    prev, cur = _levels(n, xs)
    out = -xs * cur
    if n > 0:  # adding psi_{-1} = 0.0 would turn -0.0 at x = 0 into +0.0
        out = out + math.sqrt(2.0 * n) * prev
    return cur, out
