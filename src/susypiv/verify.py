"""Finite-difference residual harness: the independent grid oracle behind
every closed-form construction.

Step sizes are set by the double-precision noise floor, not by truncation
alone: a difference of order k amplifies per-evaluation rounding by 1/h^k,
so each kind differences at one fixed step h, 1e-4, 1e-3 and 2e-3 for
orders 1, 2 and 3 (``_H_ORDER1`` to ``_H_ORDER3``).  Near a zero of u the
truncation term grows like (h/d)^4 with d the distance to the zero, so
beta-dependent stencils cap h pointwise at 0.02/(1+|beta|), the order-3 one
at 0.01/(1+|beta|).

The annihilation check applies the third-order lowering operator, expanded
with beta'' from ``susy._beta_pp`` (the form behind ``piv``'s g''), to
psi = 1/u, whose three derivatives come from one 7-offset stencil:

    (-d+beta)(d+x)(d+beta) psi = -psi''' - x psi'' + (beta^2 - 2 beta' - 1) psi'
        + (beta beta' + x beta^2 - beta'' - beta - x beta') psi

Each residual kind is one row of ``KINDS``, which ``residual_report``,
``threshold_for`` and ``report_plan`` all read.  A kind gives the signed
terms of its equation, and ``residual_report`` scores them all by one rule,
|their sum| over 1 + the sum of their sizes, with numpy's warnings off: a
point whose arithmetic leaves the double range is non-finite and excluded.

Every stencil, the residual kinds' and ``fd_derivative``'s, goes through one
engine, ``_on_offsets``: it stacks the grid shifted by each stencil offset,
flattens the stack and evaluates the function over it in chunks of one
``grid.BLOCK`` of points at most, so a stencil costs one seed call per chunk
instead of one per offset, and the series work space of each call stays
bounded.

Every kind reads the seed from one ``_GridState``: u, beta and beta' on the
grid and the points that the denominator u excludes, built with the state,
and u and beta on the partner-state stencil (step 1e-3 capped by beta),
built on first use, as riccati and the piv families never read it.
A stencil row whose positions equal, as doubles, positions already summed is
read, not summed:

- the partner stencil's centre is u and beta on the grid, and only its four
  other offsets are summed;
- schrodinger (step 1e-3, uncapped) reads u from the partner stencil where
  the cap leaves the partner's step at 1e-3, and sums its stencil elsewhere;
- eigen(0..3) and new_state difference -psi_n' + beta psi_n and 1/u on the
  partner stencil, and score them with the V~ that ``partner_potential``
  writes, ``susy._vt``;
- annihilation, which differences 1/u at step 2e-3 capped, reads u on the
  grid for its centre and u at the partner stencil's offsets +-1 for its
  offsets +-1/2 where half its step is the partner's; the rest of its
  stencil is summed in one engine call;
- riccati sums its own stencil.

The last state built is kept, as the seed keeps its last chain, and the
reports on one parameter set and grid read it, so a default ``verify`` sums
the seed 4 times and ``verify --all`` 20.  It stays alive after the report
returns, about 225 bytes a grid point, until a report on another set or
grid replaces it; it is released before its successor is built.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import grid, oscillator, painleve, seed, susy
from .errors import AllPointsExcluded, EvaluationFailed, LevelAnnihilated, SusypivError
from .grid import Grid, denominator, excluded, on_points
from .seed import TransformParams

_H_ORDER1 = 1e-4
_H_ORDER2 = 1e-3
_H_ORDER3 = 2e-3
_POLE_CAP = 0.02
_ORDER3_CAP = 0.01
# Offsets, in units of h, of the Richardson stencils below.
_D1_OFFSETS = (1.0, -1.0, 0.5, -0.5)
_D2_OFFSETS = (0.0,) + _D1_OFFSETS
_D3_OFFSETS = _D2_OFFSETS + (2.0, -2.0)
# The ``where`` of a row of ``_on_offsets`` that is known at every point.
_ALL = np.True_

# The five showcase parameter sets exercised by the verification suites.
BENCHMARK_PARAMS = (
    TransformParams(epsilon=complex(-1.0, 1.0), lam=1.0, kappa=1.0),
    TransformParams(epsilon=complex(3.0, 1e-3), lam=2.0, kappa=2.0),
    TransformParams(epsilon=complex(-1.0, 1e-2), lam=1.0, kappa=1.0),
    TransformParams(epsilon=complex(4.0, 0.5), lam=1.0, kappa=1.0),
    TransformParams(epsilon=complex(1.0, 1.0), lam=3.0, kappa=1.0),
)


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated relative residuals over a grid with excluded singular points."""

    kind: str
    max_relative: float
    mean_relative: float
    excluded_points: tuple
    grid: Grid


class _GridState:
    """The seed on the grid of one parameter set, read by every kind: ``xs``,
    ``u``, ``beta`` and ``beta_p`` there, ``u_excluded``, the points that the
    denominator u excludes, built with the state from u and u' (which is not
    kept), and ``partner``, the partner-state stencil, built on first use.
    Each is read-only."""

    def __init__(self, params: TransformParams, grid: Grid):
        self.params = params
        self.key = (seed._key(params), grid)
        self.xs = grid.points()
        self.u, up, self.beta, self.beta_p = seed.seed_eval_grid(params, self.xs)
        self.u_excluded = excluded(*denominator(self.u, up))
        for v in (self.xs, self.u, self.beta, self.beta_p, self.u_excluded):
            v.flags.writeable = False

    @functools.cached_property
    def partner(self):
        """(step, u, beta) of the partner-state stencil: step = _H_ORDER2
        capped by beta on the grid, and u and beta at xs + c step for c in
        _D2_OFFSETS, shape (5,) + xs.shape, the grid's at c = 0."""
        step = _capped(_H_ORDER2, self.beta)
        offsets = [c * step for c in _D2_OFFSETS]
        u_beta = lambda t: seed.seed_eval_grid(self.params, t)[::2]
        known = [(0, _ALL, np.stack((self.u, self.beta)))]
        u, beta = _on_offsets(u_beta, self.xs, offsets, rows=(2,), known=known)
        for v in (step, u, beta):
            v.flags.writeable = False
        return step, u, beta


_last_state: _GridState | None = None


def _grid_state(params: TransformParams, grid: Grid) -> _GridState:
    """The grid state of ``params`` on ``grid``; the last one built is kept.
    Keyed by ``seed._key``, so that -0.0 and 0.0 keep their own states."""
    global _last_state
    key = (seed._key(params), grid)
    if _last_state is None or _last_state.key != key:
        _last_state = None  # released before the new state's arrays exist
        _last_state = _GridState(params, grid)
    return _last_state


def _step(h, order):
    """``fd_derivative``'s step: the default of ``order`` when ``h`` is None,
    else ``h`` checked: positive, finite, and with the smallest divisor of
    the order's difference, h for order 1 and 0.25 h^2 for order 2, a
    normal double."""
    if h is None:
        return _H_ORDER1 if order == 1 else _H_ORDER2
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if (h if order == 1 else 0.25 * h * h) < sys.float_info.min:
        raise ValueError(f"h is too small to difference with, got {h!r}")
    return h


def _d1(v, h):
    """Richardson first derivative, O(h^4), from the values at _D1_OFFSETS."""
    coarse = (v[0] - v[1]) / (2.0 * h)
    fine = (v[2] - v[3]) / h
    return (4.0 * fine - coarse) / 3.0


def _d2(v, h):
    """Richardson second derivative, O(h^4), from the values at _D2_OFFSETS."""
    centre = v[0]
    coarse = (v[1] - 2.0 * centre + v[2]) / (h * h)
    fine = (v[3] - 2.0 * centre + v[4]) / (0.25 * h * h)
    return (4.0 * fine - coarse) / 3.0


def _d3(v, h):
    """Richardson third derivative, O(h^4), from the values at _D3_OFFSETS."""
    coarse = (v[5] - 2.0 * v[1] + 2.0 * v[2] - v[6]) / (2.0 * h * h * h)
    fine = (v[1] - 2.0 * v[3] + 2.0 * v[4] - v[2]) / (0.25 * h * h * h)
    return (4.0 * fine - coarse) / 3.0


def fd_derivative(f, x, order: int = 1, h: float | None = None):
    """Centered difference with one Richardson step (h and h/2), O(h^4), on
    the engine ``_on_offsets``.  ``f`` maps an ndarray of positions to values;
    a scalar ``x`` gives a Python complex, the bits of its array element.
    ValueError when some x +- h/2 rounds to x; EvaluationFailed when ``f``
    raises a SusypivError or a value is non-finite."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    h = _step(h, order)
    offsets, difference = (_D1_OFFSETS, _d1) if order == 1 else (_D2_OFFSETS, _d2)

    def values(xs):
        # A non-finite x is left to fail as a non-finite stencil point.
        if np.any(np.isfinite(xs) & ((xs + 0.5 * h == xs) | (xs - 0.5 * h == xs))):
            raise ValueError(f"h is too small to difference with at some x, got {h!r}")
        try:
            v = _on_offsets(f, xs, [c * h for c in offsets])
        except SusypivError as exc:
            raise EvaluationFailed(f"a stencil point failed: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            k, i = divmod(int(bad[0]), xs.size)
            raise EvaluationFailed(f"stencil point {xs.flat[i] + offsets[k] * h} is non-finite")
        return difference(v, h)

    return on_points(values, x)


def _on_offsets(fn, xs, offsets, rows=(), known=()):
    """``fn`` at ``xs + d`` for each offset ``d``, shape
    rows + (len(offsets),) + xs.shape.

    Offsets are scalars or arrays that broadcast to ``xs.shape``.  For a 1-d
    ``xs``, ``known`` holds triples (k, where, values), at most one per offset
    k: the values of ``fn``, shape rows + xs.shape, at the points ``where`` (a
    boolean mask or ``_ALL``) of offset k, already computed at those
    positions.  All other shifted points are stacked, flattened and evaluated
    in calls of at most one ``grid.BLOCK`` of points each; ``fn`` maps them
    to an array of shape rows + (their number,).
    """
    points = np.stack([xs + d for d in offsets])
    out = np.empty(rows + points.shape, dtype=complex)
    todo = np.ones(points.shape, dtype=bool)
    for k, where, values in known:
        np.copyto(out[..., k, :], values, where=where)
        todo[k] = ~where
    index = np.flatnonzero(todo)
    flat, dest = points.ravel(), out.reshape((-1, points.size))
    size = grid.BLOCK
    for start in range(0, index.size, size):
        chunk = index[start : start + size]
        # Row by row: numpy scatters one axis at a time far faster.
        for row, values in zip(dest, np.reshape(fn(flat[chunk]), (len(dest), -1))):
            row[chunk] = values
    return out


def _capped(h, beta, cap=_POLE_CAP):
    return np.minimum(h, cap / (1.0 + np.abs(beta)))


def _relative(terms):
    """|sum of the signed terms, from the first| over 1 + the sum of their sizes."""
    scale = sum((np.abs(t) for t in terms), start=1.0)
    return np.abs(sum(terms[1:], start=terms[0])) / scale


def _schrodinger(s, n):
    # Where the cap leaves the partner's step at h, its stencil's u is this one.
    h = _H_ORDER2
    step, partner_u, _ = s.partner
    uncapped = step == h
    known = [(0, _ALL, s.u)] + [(k, uncapped, partner_u[k]) for k in range(1, len(_D2_OFFSETS))]
    offsets = [c * h for c in _D2_OFFSETS]
    upp = _d2(_on_offsets(lambda t: seed.seed_u(s.params, t), s.xs, offsets, known=known), h)
    return (-upp, s.xs * s.xs * s.u, -s.params.epsilon * s.u), {}


def _riccati(s, n):
    xs, beta = s.xs, s.beta
    beta_fn = lambda t: seed.seed_eval_grid(s.params, t)[2]
    step = _capped(_H_ORDER1, beta)
    beta_p = _d1(_on_offsets(beta_fn, xs, [c * step for c in _D1_OFFSETS]), step)
    return (beta_p, beta * beta, -xs * xs, s.params.epsilon), {}


def _piv(family, s, n):
    g, gp, gpp, denoms = painleve._from_seed(s.params, family, s.xs, s.beta, s.beta_p)
    a, b = painleve.piv_parameters(s.params, family)
    return painleve.piv_residual_terms(g, gp, gpp, s.xs, a, b), denoms


def _partner_state(s, state, energy):
    """The terms (-f'', V~ f, -E f) for the partner state f = ``state(t, u,
    beta)`` at energy E: its values at the positions t of the partner-state
    stencil, from the seed's u and beta there; V~ is ``susy._vt``."""
    xs = s.xs
    step, u, beta = s.partner
    f = state(np.stack([xs + c * step for c in _D2_OFFSETS]), u, beta)
    return (-_d2(f, step), susy._vt(xs, s.beta_p) * f[0], -energy * f[0]), {}


def _eigen(s, n):
    if n is None or not 0 <= n <= 10:
        raise ValueError("eigen residual requires 0 <= n <= 10")
    if susy.level_annihilated(s.params, n):
        # Any residual would be relative to a state at rounding level.
        raise LevelAnnihilated(f"eigen({n}): -psi_n' + beta psi_n vanishes identically")
    # susy.partner_eigenfunction's image of psi_n, on the partner stencil.
    image = lambda t, u, beta: susy._image(n, t, beta)
    return _partner_state(s, image, oscillator.energy(n))


def _new_state(s, n):
    return _partner_state(s, lambda t, u, beta: 1.0 / u, s.params.epsilon)


def _annihilation_terms(psi, d1, d2, d3, xs, beta, beta_p):
    """The four signed terms of (-d+beta)(d+x)(d+beta) psi, from psi and its
    first three derivatives; elementwise on arrays."""
    beta_pp = susy._beta_pp(xs, beta, beta_p)
    return (
        -d3,
        -xs * d2,
        (beta * beta - 2.0 * beta_p - 1.0) * d1,
        (beta * beta_p + xs * beta * beta - beta_pp - beta - xs * beta_p) * psi,
    )


def _annihilation(s, n):
    # The third-order lowering operator annihilates the extremal state 1/u.
    # Offset 0 is the grid; offsets +-1/2 are the partner stencil's +-1
    # (its step _H_ORDER2 is half of _H_ORDER3) wherever the two caps leave
    # the same step.
    xs, beta = s.xs, s.beta
    step = _capped(_H_ORDER3, beta, _ORDER3_CAP)
    offsets = [c * step for c in _D3_OFFSETS]
    half, partner_u, _ = s.partner
    same = 0.5 * step == half
    known = [(0, _ALL, s.u), (3, same, partner_u[1]), (4, same, partner_u[2])]
    psi = _on_offsets(lambda t: seed.seed_u(s.params, t), xs, offsets, known=known)
    np.divide(1.0, psi, out=psi)
    d1, d2, d3 = _d1(psi[1:5], step), _d2(psi[:5], step), _d3(psi, step)
    return _annihilation_terms(psi[0], d1, d2, d3, xs, beta, s.beta_p), {}


@dataclass(frozen=True)
class _Kind:
    """``residual(s, n)`` gives (the signed terms of the kind's equation on
    the grid of the ``_GridState`` s, each kind differencing at its own fixed
    step; its exclusion denominators besides u), which ``residual_report``
    scores by ``_relative``.  ``levels`` are the n of a verify run."""

    residual: object
    threshold: float
    levels: tuple = ()


KINDS = {
    "schrodinger": _Kind(_schrodinger, 1e-7),
    "riccati": _Kind(_riccati, 1e-7),
    **{
        f"piv_family_{family}": _Kind(functools.partial(_piv, family), 1e-8)
        for family in painleve.FAMILIES
    },
    "eigen": _Kind(_eigen, 1e-6, levels=(0, 1, 2, 3)),
    "new_state": _Kind(_new_state, 1e-6),
    "annihilation": _Kind(_annihilation, 1e-6),
}

THRESHOLDS = {kind: row.threshold for kind, row in KINDS.items()}


def _label(kind, n):
    return kind if n is None else f"{kind}({n})"


def report_plan():
    """(kind, n, label) of each report of a verify run, in report order."""
    return [(k, n, _label(k, n)) for k, row in KINDS.items() for n in row.levels or (None,)]


def threshold_for(kind_label: str) -> float:
    return KINDS[kind_label.split("(")[0]].threshold


def residual_report(
    kind: str, params: TransformParams, grid: Grid, n: int | None = None
) -> ResidualReport:
    """Relative residual statistics for one construction over a grid.

    A point within 1e-6 of a zero of a construction denominator f (|f| <
    1e-6 |f'|), or where f is singular by ``grid.singular``, is excluded
    and reported, not failed; each point is judged by its own values.
    Raises LevelAnnihilated for an eigen level whose transformed state
    vanishes identically (``susy.level_annihilated``), and ValueError for an
    unknown kind and for an ``n`` on any kind but eigen, which requires
    0 <= n <= 10.
    """
    row = KINDS.get(kind)
    if row is None:
        raise ValueError(f"unknown residual kind {kind!r}")
    if n is not None and not row.levels:
        raise ValueError(f"{kind} takes no level n")
    label = _label(kind, n)
    state = _grid_state(params, grid)
    with np.errstate(all="ignore"):
        terms, denoms = row.residual(state, n)
        rel = _relative(terms)
    skipped = ~np.isfinite(rel) | state.u_excluded
    for mag, local_scale in denoms.values():
        skipped |= excluded(mag, local_scale)
    if bool(skipped.all()):
        raise AllPointsExcluded(f"{label}: every grid point is singular")
    body = rel[~skipped]
    return ResidualReport(
        kind=label,
        max_relative=float(np.max(body)),
        mean_relative=float(np.mean(body)),
        excluded_points=tuple(state.xs[skipped].tolist()),
        grid=grid,
    )
