"""Independent check of data-command outputs against ``mpmath.hyp1f1``.

The reference recomputes the seed u = e^{-x^2/2} [M(a1, 1/2; x^2) +
(lam + i kappa) x M(a2, 3/2; x^2)] and everything built on it from
``mpmath.hyp1f1`` at 40 significant digits.  That is a different algorithm
from susypiv's own series and from its ``kummer_oracle``, so a defect in the
library's special-function layer shows here.

Rows are sampled by strata: the grid is cut into slices of ``STRATUM`` in x
and one seeded random row is drawn from each, so the sample spans the whole
grid and no defect wider than a slice can hide between samples.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import mpmath
import numpy as np

TOLERANCE = 1e-8
DIGITS = 40
STRATUM = 0.1


@dataclass(frozen=True)
class Mismatch:
    x: float
    column: str
    error: float  # |got - ref| / scale; fails when above TOLERANCE


@dataclass
class Check:
    """Outcome of checking one output file."""

    rows: int = 0
    sampled: int = 0
    worst: float = 0.0
    mismatches: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # malformed output, gaps

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.problems


def read_rows(path, fmt: str) -> np.ndarray:
    """All rows of a CSV or JSON data file as a float array (rows x columns)."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return np.array([list(row.values()) for row in payload["rows"]], dtype=float)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def sample_indices(xs: np.ndarray, xmin: float, xmax: float, rng: random.Random):
    """One seeded row index per slice of width STRATUM, and the empty slices."""
    n_strata = max(1, int(np.ceil((xmax - xmin) / STRATUM - 1e-9)))
    edges = xmin + STRATUM * np.arange(n_strata + 1)
    bounds = np.searchsorted(xs, edges, side="left")
    bounds[-1] = len(xs)
    picks, empty = [], []
    for k in range(n_strata):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if hi > lo:
            picks.append(rng.randrange(lo, hi))
        else:
            empty.append(float(edges[k]))
    return picks, empty


def _seed(eps, c, x):
    """(u, beta = u'/u) at real x from mpmath.hyp1f1; M' = (a/b) M(a+1, b+1)."""
    half = mpmath.mpf(1) / 2
    a1 = (1 - eps) / 4
    a2 = (3 - eps) / 4
    z = x * x
    m1 = mpmath.hyp1f1(a1, half, z)
    m2 = mpmath.hyp1f1(a2, 3 * half, z)
    dm1 = 2 * a1 * mpmath.hyp1f1(a1 + 1, 3 * half, z)
    dm2 = (2 * a2 / 3) * mpmath.hyp1f1(a2 + 1, 5 * half, z)
    w = m1 + c * x * m2
    w_prime = 2 * x * dm1 + c * m2 + 2 * c * z * dm2
    return mpmath.exp(-z / 2) * w, w_prime / w - x


def _piv_parameters(eps, family):
    if family == 1:
        return -(eps + 5) / 2, -((eps - 1) ** 2) / 2, eps + 2
    if family == 2:
        return eps - 1, mpmath.mpf(-2), mpmath.mpf(1)
    return (1 - eps) / 2, -((eps + 1) ** 2) / 2, eps


def reference(command, x):
    """Expected row at x as [(column, ref, scale)] in mpmath arithmetic.

    ``ref`` is complex (a re/im column pair) and the column passes when
    |got - ref| <= TOLERANCE * scale.  Value columns use scale 1 + |ref|.  The
    Painleve IV residual is exactly zero in exact arithmetic; its column uses
    the equation's own scale 1 + sum |term|, as ``verify`` does.
    """
    eps = mpmath.mpc(command.eps)
    c = mpmath.mpc(command.coefficient)
    x = mpmath.mpf(x)
    u, beta = _seed(eps, c, x)
    beta_p = x * x - eps - beta * beta
    beta_pp = 2 * x - 2 * beta * beta_p
    vt = x * x - 2 * beta_p

    def value(name, ref):
        return (name, ref, 1 + abs(ref))

    if command.name == "potential":
        return [value("v_tilde", vt), value("v", mpmath.mpc(x * x))]
    family = command.family
    if command.name == "extremal":
        states = {1: (beta_p - 1) * u, 2: (x + beta) * mpmath.exp(-x * x / 2), 3: 1 / u}
        return [value("state", states[family])]
    a, b, energy = _piv_parameters(eps, family)
    h = {1: beta + beta_pp / (beta_p - 1), 2: -x + (1 + beta_p) / (x + beta), 3: -beta}[family]
    h_p = (vt - energy) - h * h
    h_pp = (2 * x - 2 * beta_pp) - 2 * h * h_p
    g, g_p, g_pp = -x - h, -1 - h_p, -h_pp
    terms = (
        g * g_pp,
        -g_p * g_p / 2,
        -3 * g**4 / 2,
        -4 * x * g**3,
        -2 * g * g * (x * x - a),
        -b,
    )
    return [value("g", g), ("residual", mpmath.fsum(terms), 1 + mpmath.fsum(abs(t) for t in terms))]


def check_output(command, path, rng: random.Random) -> Check:
    """Compare a seeded stratified sample of an output file with the reference."""
    check = Check()
    try:
        rows = read_rows(path, command.fmt)
    except (OSError, ValueError, KeyError) as exc:
        check.problems.append(f"unreadable output: {exc}")
        return check
    check.rows = len(rows)
    n_cols = {"potential": 5, "piv": 5, "extremal": 3}[command.name]
    if rows.ndim != 2 or rows.shape[1] != n_cols or not len(rows):
        check.problems.append(f"expected {n_cols} columns, got shape {rows.shape}")
        return check
    if not np.all(np.isfinite(rows)):
        check.problems.append("non-finite values in output")
    xs = rows[:, 0]
    k = np.rint((xs - command.xmin) / command.step)
    if np.any(np.diff(xs) <= 0) or np.any(np.abs(xs - (command.xmin + command.step * k)) > 1e-9 * command.step):
        check.problems.append("x column is not an increasing subset of the grid")
    picks, empty = sample_indices(xs, command.xmin, command.xmax, rng)
    if empty:
        check.problems.append(f"{len(empty)} slices of width {STRATUM} have no rows (first at x={empty[0]:g})")
    with mpmath.workdps(DIGITS):
        for i in picks:
            row = rows[i]
            for j, (column, ref, scale) in enumerate(reference(command, row[0])):
                got = complex(row[1 + 2 * j], row[2 + 2 * j])
                error = float(abs(mpmath.mpc(got) - ref) / scale)
                check.worst = max(check.worst, error)
                if not error <= TOLERANCE:
                    check.mismatches.append(Mismatch(float(row[0]), column, error))
    check.sampled = len(picks)
    return check
